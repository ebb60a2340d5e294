//===- Schedule.h - Compiled wavefront schedules ----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Post-passes over wavefront schedules (DESIGN.md §14): a base schedule
// (level sets or LBC) is transformed by at most two fixed passes into a
// CompiledSchedule the executors in Kernels.h can run without per-wave
// barriers (P2P ready propagation) or with fewer/fatter waves (cache-aware
// coalescing). The schedule kind + pass knobs are a named plan dimension:
// artifact::CompiledKernel serializes them and engine::Engine keys its
// matrix-plan tier on them.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_RUNTIME_SCHEDULE_H
#define SDS_RUNTIME_SCHEDULE_H

#include "sds/runtime/Wavefront.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Schedule kinds and configuration
//===----------------------------------------------------------------------===//

/// The named schedule shapes an executor can run. Every kind yields a
/// valid schedule for any finalized DependenceGraph; they differ in
/// synchronization and locality, not semantics.
enum class ScheduleKind {
  Levels,    ///< plain level sets, one barrier per level
  LBC,       ///< load-balanced level coarsening (scheduleLBC)
  Coalesced, ///< LBC + short-wave merging into component-packed chunks
  P2P,       ///< coalesced shape, barriers replaced by ready counters
};

const char *scheduleKindName(ScheduleKind K);
std::optional<ScheduleKind> parseScheduleKind(std::string_view Name);

/// Everything that determines a schedule's shape besides the graph. The
/// key() participates in engine plan-cache keys and is serialized into
/// CompiledKernel artifacts (minus NumThreads, which is a deployment
/// property, not a plan property).
struct ScheduleConfig {
  ScheduleKind Kind = ScheduleKind::LBC;
  int NumThreads = 8;
  double MinWorkPerThread = 64; ///< LBC window growth target per thread
  /// Coalescing merges consecutive base waves while the merged wave's
  /// cost stays below CoalesceFactor * MinWorkPerThread * NumThreads.
  double CoalesceFactor = 2.0;

  /// Cache-key string, e.g. "p2p/w64/c2/t8".
  std::string key() const;
};

//===----------------------------------------------------------------------===//
// Compiled schedules
//===----------------------------------------------------------------------===//

/// A schedule lowered for execution: the wave/chunk shape plus everything
/// the executor needs that the base WavefrontSchedule lacks — the P2P
/// ready-counter seed (in-degrees + a private copy of the successor CSR,
/// so the executor does not dangle when the DependenceGraph is
/// re-finalized or freed). Built by buildSchedule(); validated by
/// certifySchedule().
struct CompiledSchedule {
  WavefrontSchedule Waves;
  ScheduleConfig Config;

  /// True: executors skip the per-wave barrier and gate each node on an
  /// atomic remaining-predecessor counter instead.
  bool UsesP2P = false;

  /// P2P state: per-node predecessor count and a self-contained successor
  /// CSR snapshot of the graph the schedule was built from.
  std::vector<int> InDegree;
  std::vector<size_t> SuccPtr;
  std::vector<int> SuccDst;

  int numWaves() const { return Waves.numWaves(); }
};

/// Build the base schedule for C.Kind (levels or LBC), then apply the
/// post-passes the kind implies: Coalesced merges consecutive short waves
/// into one wave whose chunks are the dependence-connected components of
/// the merged node set; P2P coalesces too, then snapshots in-degrees and
/// the successor CSR and sets UsesP2P, so the executors run barrier-free.
/// Each pass preserves validity (certifySchedule holds before and after).
CompiledSchedule buildSchedule(const DependenceGraph &G,
                               const ScheduleConfig &C,
                               const std::vector<double> &NodeCost = {});

//===----------------------------------------------------------------------===//
// Certification and stats
//===----------------------------------------------------------------------===//

/// CompiledSchedule certificate: every node scheduled exactly once, every
/// edge's source in a strictly earlier wave or earlier in the same
/// thread's chunk (WavefrontSchedule::respects), and — when UsesP2P —
/// the in-degree seed and successor snapshot match the graph.
bool certifySchedule(const DependenceGraph &G, const CompiledSchedule &S);

/// Shape summary of a compiled schedule: the base ScheduleStats plus the
/// chunk count.
struct CompiledScheduleStats {
  ScheduleStats Base;
  uint64_t NumChunks = 0; ///< non-empty per-thread chunks, all waves
  bool P2P = false;
};

CompiledScheduleStats describeSchedule(const CompiledSchedule &S);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_SCHEDULE_H
