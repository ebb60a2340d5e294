//===- Schedule.h - Compiled wavefront schedules ----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Post-passes over wavefront schedules (DESIGN.md §14): a base schedule
// (level sets or LBC) is optionally coalesced into fewer, fatter waves,
// giving a CompiledSchedule the executors in Kernels.h run one barrier
// per wave. The schedule kind + pass knobs are a named plan dimension:
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
/// valid schedule for any finalized DependenceGraph; they differ in wave
/// count and locality, not semantics.
enum class ScheduleKind {
  Levels,    ///< plain level sets, one barrier per level
  LBC,       ///< load-balanced level coarsening (scheduleLBC)
  Coalesced, ///< LBC + short-wave merging into component-packed chunks
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

  /// Cache-key string, e.g. "coalesced/w64/c2/t8".
  std::string key() const;
};

//===----------------------------------------------------------------------===//
// Compiled schedules
//===----------------------------------------------------------------------===//

/// A schedule lowered for execution: the wave/chunk shape and the config
/// that produced it. Built by buildSchedule(); validated by
/// certifySchedule().
struct CompiledSchedule {
  WavefrontSchedule Waves;
  ScheduleConfig Config;

  int numWaves() const { return Waves.numWaves(); }
};

/// Build the base schedule for C.Kind (levels or LBC), then apply the
/// post-pass the kind implies: Coalesced merges consecutive short waves
/// into one wave whose chunks are the dependence-connected components of
/// the merged node set. The pass preserves validity (certifySchedule
/// holds before and after).
CompiledSchedule buildSchedule(const DependenceGraph &G,
                               const ScheduleConfig &C,
                               const std::vector<double> &NodeCost = {});

//===----------------------------------------------------------------------===//
// Certification and stats
//===----------------------------------------------------------------------===//

/// CompiledSchedule certificate: every node scheduled exactly once, every
/// edge's source in a strictly earlier wave or earlier in the same
/// thread's chunk (WavefrontSchedule::respects).
bool certifySchedule(const DependenceGraph &G, const CompiledSchedule &S);

/// Shape summary of a compiled schedule: the base ScheduleStats plus the
/// chunk count.
struct CompiledScheduleStats {
  ScheduleStats Base;
  uint64_t NumChunks = 0; ///< non-empty per-thread chunks, all waves
};

CompiledScheduleStats describeSchedule(const CompiledSchedule &S);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_SCHEDULE_H
