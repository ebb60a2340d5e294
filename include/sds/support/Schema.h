//===- Schema.h - Shared export-schema constants ----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// One source of truth for the machine-readable exports: the pipeline's
// analysis report (PipelineResult::toJSON), the obs metrics snapshot, and
// the serialized CompiledKernel artifact all stamp the same schema version
// and spell per-stage timings with the same keys. Bump kVersion whenever a
// field is renamed, removed, or changes meaning; purely additive fields do
// not require a bump (readers must ignore unknown keys).
//
// Version history:
//   1  (implicit) PR 1-4 exports: no version field
//   2  this header introduced; stage_seconds keys frozen; CompiledKernel
//      artifact format added
//   3  obs v2: metrics_snapshot and flight_recorder documents added;
//      bench_summary / bench_baseline formats (bench_report,
//      tools/bench_gate) stamp the same version.
//      Still-v3 additive extension: each artifact dependence may carry a
//      "core" object ({"assertions", "minimized", "farkas"}) — the unsat
//      core justifying its verdict. Blobs without it load fine (the guard
//      then falls back to full property validation).
//      Still v3 (writer bytes unchanged): "core" is required. A blob whose
//      dependence lacks it, or cites the '\x01' unattributed sentinel,
//      fails to decode; a store quarantines it and the caller recompiles.
//      Still v3 (the version is shared with the artifact format, whose
//      bytes are unchanged): the separate stats document is gone, and a
//      metrics_snapshot histogram whose name does not end in "_ns"
//      reports p50/p95/p99/sum/min/max in its recorded unit instead of
//      mislabelled *_ms fields.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SUPPORT_SCHEMA_H
#define SDS_SUPPORT_SCHEMA_H

#include <cstdint>

namespace sds {
namespace schema {

/// Schema version shared by PipelineResult::toJSON, obs::metricsJSON,
/// the sds::artifact blob format, and the
/// BENCH_summary.json / bench baseline documents.
inline constexpr int64_t kVersion = 3;

/// The frozen per-stage timing keys of the Figure-3 pipeline, in stage
/// order. Every export that carries a stage-seconds map emits exactly
/// these keys (zero-filled when a stage did not run), so downstream
/// dashboards can index them without existence checks.
inline constexpr const char *kStageKeys[] = {
    "extraction",         // step 1: dependence extraction
    "affine_unsat",       // step 2: affine-only refutation
    "property_unsat",     // step 3: property-based refutation
    "equality_discovery", // step 4: §4 equality discovery
    "subsumption",        // step 5: §5 subset subsumption
    "codegen",            // step 6: inspector synthesis
};
inline constexpr size_t kNumStageKeys =
    sizeof(kStageKeys) / sizeof(kStageKeys[0]);

} // namespace schema
} // namespace sds

#endif // SDS_SUPPORT_SCHEMA_H
