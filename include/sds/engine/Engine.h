//===- Engine.h - In-process compile-once/run-many facade -------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The serving-shaped front door over the compile-once/run-many split. An
// Engine memoizes two tiers of expensive work:
//
//   kernel tier   CompiledKernel artifacts, keyed by kernel name plus the
//                 analysis switches (artifact::AnalysisOptions::key()).
//                 Filled by compiling cold, or warm-started from blobs via
//                 loadArtifact(). One Presburger pipeline run per distinct
//                 (kernel, options) for the life of the process.
//
//   matrix tier   dependence graph + compiled schedule per bound matrix,
//                 keyed by (kernel key, environment fingerprint, schedule
//                 config key). The fingerprint hashes every bound span and
//                 parameter, so two binds of the same matrix hit the same
//                 entry and a changed matrix can never alias a stale plan.
//
// Every hit and miss is counted once, in the always-on EngineStats fields
// (tests assert on these); the metrics snapshot shows each field as an
// "engine.*" gauge summed over live engines.
//
// Thread safety: all public members are safe to call concurrently; lookups
// take a mutex, cold fills run outside it and the first finisher wins
// (duplicated work under a race, never a wrong or torn result).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_ENGINE_ENGINE_H
#define SDS_ENGINE_ENGINE_H

#include "sds/artifact/Artifact.h"
#include "sds/driver/Driver.h"
#include "sds/guard/Guarded.h"
#include "sds/runtime/Schedule.h"
#include "sds/runtime/Wavefront.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sds {
namespace engine {

/// Engine-wide knobs, fixed at construction.
struct EngineOptions {
  deps::PipelineOptions Analysis;   ///< used when a kernel compiles cold
  driver::InspectorOptions Inspect; ///< inspector fleet width
  /// The schedule shape the matrix tier memoizes: kind + pass knobs +
  /// thread count, all part of the matrix cache key (a coalesced 4-thread
  /// schedule is useless to an 8-thread level-set executor). Defaults to
  /// the pre-framework engine behavior: plain level sets, 4 threads.
  rt::ScheduleConfig Schedule = {rt::ScheduleKind::Levels, /*NumThreads=*/4};
  /// Matrix-tier capacity; the least-recently-used entry is evicted past
  /// this (every plan() hit refreshes recency, so a hot plan survives a
  /// scan over cold keys). The kernel tier is unbounded (7 kernels x a
  /// handful of option sets).
  size_t MaxMatrixPlans = 64;
};

/// Always-on hit/miss accounting for one engine. Each field is also a
/// gauge source ("engine.kernel_warm", ...), summed over live engines.
struct EngineStats {
  uint64_t KernelWarm = 0;   ///< compiled() served from cache
  uint64_t KernelCold = 0;   ///< compiled() ran the analysis pipeline
  uint64_t KernelLoaded = 0; ///< artifacts installed via loadArtifact()
  /// Speculative cold compiles: the analysis ran against declared ∪
  /// inferred properties for one environment profile (subset of
  /// KernelCold).
  uint64_t KernelSpeculated = 0;
  uint64_t MatrixWarm = 0;   ///< plan() served from cache
  uint64_t MatrixCold = 0;   ///< plan() ran inspectors + scheduler
  uint64_t MatrixEvicted = 0;
};

/// A memoized per-matrix serving plan: the inspected dependence graph and
/// the compiled schedule (post-pass pipeline applied) built from it.
struct MatrixPlan {
  driver::InspectionResult Inspection;
  rt::CompiledSchedule Schedule;

  explicit MatrixPlan(int N) : Inspection(N) {}
};

/// Deterministic fingerprint of a runtime binding: every span's name,
/// length, and every byte of its contents, plus every parameter, in the
/// maps' sorted order. Names, lengths and parameters go through FNV-1a 64;
/// span contents through xxHash64 (support/Hash.h), chained by seed. It is
/// the matrix tier's identity, so nothing is sampled: a one-entry edit
/// misses.
/// Function-only bindings (no span) are hashed by name alone — binding
/// arbitrary lambdas is a test-only affordance the cache cannot see
/// through, so such environments should not be memoized across changes.
uint64_t fingerprintEnvironment(const codegen::UFEnvironment &Env);

class Engine {
public:
  explicit Engine(EngineOptions Opts = {});
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// The kernel tier: return the memoized artifact for `K` under this
  /// engine's analysis options, compiling it (cold) on first use. With
  /// Analysis.Speculate set this overload compiles with an *empty*
  /// inferred set (no environment to profile) — use the Env overload to
  /// actually speculate.
  std::shared_ptr<const artifact::CompiledKernel>
  compiled(const kernels::Kernel &K);

  /// Environment-aware kernel tier. Without Analysis.Speculate, identical
  /// to compiled(K); with it, forwards to speculatedCompiled.
  std::shared_ptr<const artifact::CompiledKernel>
  compiled(const kernels::Kernel &K, const codegen::UFEnvironment &Env);

  /// Speculative kernel tier (used regardless of Analysis.Speculate —
  /// per-request opt-in enters here): runs the sds::infer profiler over
  /// `Env` and compiles against declared ∪ inferred properties. The cache
  /// key gains the speculation options char and the inference fingerprint,
  /// so two environments with the same confirmed profile share one
  /// speculated artifact, a differing profile can never alias a stale
  /// one, and speculated entries never collide with declared-only ones.
  std::shared_ptr<const artifact::CompiledKernel>
  speculatedCompiled(const kernels::Kernel &K,
                     const codegen::UFEnvironment &Env);

  /// Kernel-tier probe: the cached artifact for `K` under this engine's
  /// analysis options, or nullptr — never compiles, never touches stats.
  std::shared_ptr<const artifact::CompiledKernel>
  lookupCompiled(const kernels::Kernel &K) const;

  /// Warm-start the kernel tier from a serialized blob. Rejected blobs
  /// (corrupt/version/ABI) leave the cache untouched and return the
  /// decoder's Status. A loaded artifact replaces any cached entry for
  /// the same (kernel, options) key.
  [[nodiscard]] support::Status loadArtifact(const std::string &Path);

  /// Install an already-decoded artifact into the kernel tier (what
  /// loadArtifact does after decoding; the persistent-store warm path
  /// enters here). Keyed by the artifact's own (name, options) identity;
  /// replaces any cached entry and counts as KernelLoaded.
  [[nodiscard]] support::Status installArtifact(artifact::CompiledKernel CK);

  /// Serialize the cached artifact for `K` (compiling it first if
  /// needed) to `Path`.
  [[nodiscard]] support::Status saveArtifact(const kernels::Kernel &K,
                                             const std::string &Path);

  /// The matrix tier: dependence graph + wavefront schedule for `K`
  /// bound to `Env` over `N` iterations. Warm hits return the cached
  /// plan; cold fills run the (artifact-driven) inspectors and the
  /// level-set scheduler. `Speculate` opts this call into speculative
  /// inference (ORed with Analysis.Speculate); speculated plans key
  /// separately from declared-only ones, so the two never alias.
  std::shared_ptr<const MatrixPlan>
  plan(const kernels::Kernel &K, const codegen::UFEnvironment &Env, int N,
       bool Speculate = false);
  /// plan() with the caller's fingerprintEnvironment(Env), so a request
  /// that needs the fingerprint elsewhere too hashes `Env` once. `EnvFp`
  /// must be exactly that value; it is the plan's cache identity.
  std::shared_ptr<const MatrixPlan>
  plan(const kernels::Kernel &K, const codegen::UFEnvironment &Env, int N,
       bool Speculate, uint64_t EnvFp);

  /// Matrix-tier probe: the cached plan, or nullptr without filling. A
  /// hit counts MatrixWarm and refreshes LRU recency exactly like plan();
  /// a miss counts nothing (the caller decides whether to fill).
  /// `Speculate` selects the speculated plan key, as for plan(). The
  /// environment enters only through `EnvFp`, its fingerprintEnvironment().
  std::shared_ptr<const MatrixPlan> planIfCached(const kernels::Kernel &K,
                                                 int N, bool Speculate,
                                                 uint64_t EnvFp);

  EngineStats stats() const;
  /// Drop both tiers (stats survive).
  void clear();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace engine
} // namespace sds

#endif // SDS_ENGINE_ENGINE_H
