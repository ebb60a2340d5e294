//===- Engine.cpp - In-process compile-once/run-many facade ---------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/engine/Engine.h"

#include "sds/infer/Infer.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/support/Hash.h"

#include <cstdio>
#include <list>
#include <map>
#include <tuple>

namespace sds {
namespace engine {

namespace {

/// FNV-1a over a short field; the terminator makes "ab","c" != "a","bc".
inline void fnvStr(uint64_t &H, const std::string &S) {
  H = support::fnv1a64(std::string_view(S.data(), S.size() + 1), H);
}

inline void fnvInt(uint64_t &H, int64_t V) {
  H = support::fnv1a64(
      std::string_view(reinterpret_cast<const char *>(&V), sizeof(V)), H);
}

std::string fpHex(uint64_t Fp) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fp));
  return Buf;
}

} // namespace

uint64_t fingerprintEnvironment(const codegen::UFEnvironment &Env) {
  uint64_t H = support::kFnv1aOffset;
  for (const auto &[Name, Span] : Env.Spans) {
    fnvStr(H, Name);
    fnvInt(H, static_cast<int64_t>(Span->size()));
    // The bulk of the work: every byte of the index array, striped.
    H = support::xxh64(Span->data(), Span->size() * sizeof((*Span)[0]), H);
  }
  for (const auto &[Name, Fn] : Env.Arrays) {
    (void)Fn;
    // Function-only bindings (no span) contribute their name; the closure
    // itself is opaque to the cache.
    if (!Env.Spans.count(Name))
      fnvStr(H, Name);
  }
  for (const auto &[Name, V] : Env.Params) {
    fnvStr(H, Name);
    fnvInt(H, V);
  }
  return H;
}

struct Engine::Impl {
  using MatrixKey = std::tuple<std::string, uint64_t, int64_t>;

  /// Matrix-tier entry: the plan, its position in the LRU list, and when
  /// it was inserted (for the eviction event's age tag).
  struct PlanEntry {
    std::shared_ptr<const MatrixPlan> Plan;
    std::list<MatrixKey>::iterator LruIt;
    uint64_t InsertNs = 0;
  };

  EngineOptions Opts;
  std::string OptionsKey; ///< AnalysisOptions::key() of Opts.Analysis
  /// OptionsKey with the speculation dimension forced on — what every
  /// speculated entry keys under, engine-level or per-request.
  std::string SpecOptionsKey;

  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<const artifact::CompiledKernel>>
      Kernels;
  std::map<MatrixKey, PlanEntry> Plans;
  std::list<MatrixKey> Lru; ///< front = most recently used
  EngineStats Stats;

  /// Kernel-tier key. A speculated artifact is env-dependent, so its key
  /// carries the speculated options char and the inference fingerprint —
  /// two environments with the same confirmed profile share one entry, a
  /// differing profile misses, and declared-only entries never collide.
  std::string kernelKey(const std::string &Name, uint64_t InferFp = 0) const {
    if (InferFp)
      return Name + "|" + SpecOptionsKey + "|" + fpHex(InferFp);
    return Name + "|" + OptionsKey;
  }

  /// Matrix-tier key prefix: the environment fingerprint in the full key
  /// pins the inference profile (a pure function of the environment), so
  /// speculated plans only need the options-char distinction here.
  std::string matrixPrefix(const std::string &Name, bool Spec) const {
    return Name + "|" + (Spec ? SpecOptionsKey : OptionsKey) + "|" +
           Opts.Schedule.key();
  }

  /// Move a hit entry to the LRU front. Caller holds Mu.
  void touch(PlanEntry &E) { Lru.splice(Lru.begin(), Lru, E.LruIt); }

  /// Evict least-recently-used plans down to capacity. Caller holds Mu.
  void evictToCapacity() {
    while (Plans.size() > Opts.MaxMatrixPlans && !Lru.empty()) {
      const MatrixKey &Victim = Lru.back();
      auto It = Plans.find(Victim);
      double AgeMs =
          It == Plans.end()
              ? 0
              : (obs::nowNs() - It->second.InsertNs) * 1e-6;
      obs::flightRecord(obs::FlightSeverity::Info, "engine",
                        "matrix plan evicted (LRU capacity)",
                        {{"kernel", std::get<0>(Victim)},
                         {"age_ms", std::to_string(AgeMs)},
                         {"capacity", std::to_string(Opts.MaxMatrixPlans)}});
      if (It != Plans.end())
        Plans.erase(It);
      Lru.pop_back();
      ++Stats.MatrixEvicted;
    }
  }

  /// Last member, so its gauge sources unregister before the state they
  /// read is destroyed.
  obs::GaugeSources Gauges;
};

Engine::Engine(EngineOptions Opts) : I(std::make_unique<Impl>()) {
  I->Opts = std::move(Opts);
  I->OptionsKey = artifact::AnalysisOptions::of(I->Opts.Analysis).key();
  deps::PipelineOptions SpecPO = I->Opts.Analysis;
  SpecPO.Speculate = true;
  I->SpecOptionsKey = artifact::AnalysisOptions::of(SpecPO).key();
  // Surface this engine's EngineStats as live gauges; same-name sources
  // from multiple engines sum in the snapshot.
  Impl *Raw = I.get();
  I->Gauges.addFields<EngineStats>(
      {{"engine.kernel_warm", &EngineStats::KernelWarm},
       {"engine.kernel_cold", &EngineStats::KernelCold},
       {"engine.kernel_loaded", &EngineStats::KernelLoaded},
       {"engine.kernel_speculated", &EngineStats::KernelSpeculated},
       {"engine.matrix_warm", &EngineStats::MatrixWarm},
       {"engine.matrix_cold", &EngineStats::MatrixCold},
       {"engine.matrix_evicted", &EngineStats::MatrixEvicted}},
      [Raw] {
        std::lock_guard<std::mutex> Lock(Raw->Mu);
        return Raw->Stats;
      });
}

Engine::~Engine() = default;

std::shared_ptr<const artifact::CompiledKernel>
Engine::compiled(const kernels::Kernel &K) {
  static obs::Histogram &HitNs = obs::histogram("engine.kernel.hit_ns");
  static obs::Histogram &FillNs = obs::histogram("engine.kernel.cold_fill_ns");
  std::string Key = I->kernelKey(K.Name);
  {
    uint64_t T0 = obs::metricsEnabled() ? obs::nowNs() : 0;
    std::lock_guard<std::mutex> Lock(I->Mu);
    auto It = I->Kernels.find(Key);
    if (It != I->Kernels.end()) {
      ++I->Stats.KernelWarm;
      if (T0)
        HitNs.record(obs::nowNs() - T0);
      return It->second;
    }
  }
  // Cold fill outside the lock: the pipeline can take seconds and other
  // kernels' lookups must not stall behind it. First finisher wins.
  obs::ScopedLatency Fill(FillNs);
  obs::Span Sp("engine.compile_kernel", "engine");
  Sp.tag("kernel", K.Name);
  auto CK = std::make_shared<const artifact::CompiledKernel>(
      artifact::compile(K, I->Opts.Analysis));
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto [It, Inserted] = I->Kernels.emplace(Key, CK);
  if (!Inserted)
    return It->second; // a racing fill beat us; use the shared entry
  ++I->Stats.KernelCold;
  return CK;
}

std::shared_ptr<const artifact::CompiledKernel>
Engine::compiled(const kernels::Kernel &K,
                 const codegen::UFEnvironment &Env) {
  if (!I->Opts.Analysis.Speculate)
    return compiled(K);
  return speculatedCompiled(K, Env);
}

std::shared_ptr<const artifact::CompiledKernel>
Engine::speculatedCompiled(const kernels::Kernel &K,
                           const codegen::UFEnvironment &Env) {
  static obs::Histogram &FillNs =
      obs::histogram("engine.kernel.speculate_fill_ns");
  // The profiler is O(n + nnz) — the same order as the environment
  // fingerprint the matrix tier already pays per plan() — and its
  // fingerprint is the cache key, so it runs on warm hits too.
  infer::InferenceResult Inf = infer::inferProperties(Env);
  uint64_t Fp = Inf.fingerprint();
  std::string Key = I->kernelKey(K.Name, Fp);
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    auto It = I->Kernels.find(Key);
    if (It != I->Kernels.end()) {
      ++I->Stats.KernelWarm;
      return It->second;
    }
  }
  obs::ScopedLatency Fill(FillNs);
  obs::Span Sp("engine.compile_kernel_speculated", "engine");
  Sp.tag("kernel", K.Name);
  Sp.tag("inferred_fp", fpHex(Fp));
  deps::PipelineOptions PO = I->Opts.Analysis;
  PO.Speculate = true;
  PO.InferredProps = std::move(Inf.Confirmed);
  artifact::CompiledKernel Compiled = artifact::compile(K, PO);
  Compiled.InferredFingerprint = Fp;
  auto CK =
      std::make_shared<const artifact::CompiledKernel>(std::move(Compiled));
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto [It, Inserted] = I->Kernels.emplace(Key, CK);
  if (!Inserted)
    return It->second; // a racing fill beat us; use the shared entry
  ++I->Stats.KernelCold;
  ++I->Stats.KernelSpeculated;
  return CK;
}

std::shared_ptr<const artifact::CompiledKernel>
Engine::lookupCompiled(const kernels::Kernel &K) const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Kernels.find(I->kernelKey(K.Name));
  return It == I->Kernels.end() ? nullptr : It->second;
}

support::Status Engine::loadArtifact(const std::string &Path) {
  artifact::CompiledKernel CK;
  // A rejected artifact flight-records inside artifact::load; the kernel
  // cache is left untouched.
  if (support::Status S = artifact::load(Path, CK); !S.ok())
    return S;
  return installArtifact(std::move(CK));
}

support::Status Engine::installArtifact(artifact::CompiledKernel CK) {
  if (CK.KernelName.empty())
    return support::invalidArgument("artifact has no kernel name")
        .withContext("engine installArtifact");
  // A speculated artifact installs under its inference fingerprint so it
  // can only ever serve environments with a matching confirmed profile.
  std::string Key = CK.KernelName + "|" + CK.Options.key();
  if (CK.InferredFingerprint)
    Key += "|" + fpHex(CK.InferredFingerprint);
  auto Shared =
      std::make_shared<const artifact::CompiledKernel>(std::move(CK));
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Kernels[Key] = std::move(Shared);
  ++I->Stats.KernelLoaded;
  return {};
}

support::Status Engine::saveArtifact(const kernels::Kernel &K,
                                     const std::string &Path) {
  return artifact::save(*compiled(K), Path);
}

std::shared_ptr<const MatrixPlan>
Engine::plan(const kernels::Kernel &K, const codegen::UFEnvironment &Env,
             int N, bool Speculate) {
  return plan(K, Env, N, Speculate, fingerprintEnvironment(Env));
}

std::shared_ptr<const MatrixPlan>
Engine::plan(const kernels::Kernel &K, const codegen::UFEnvironment &Env,
             int N, bool Speculate, uint64_t EnvFp) {
  static obs::Histogram &HitNs = obs::histogram("engine.plan.hit_ns");
  static obs::Histogram &FillNs = obs::histogram("engine.plan.cold_fill_ns");
  // Under speculation this profiles Env and compiles (or reuses) the
  // speculated artifact; the matrix key needs no extra dimension for it —
  // the inference profile is a pure function of the environment, which
  // the fingerprint below already pins.
  bool Spec = Speculate || I->Opts.Analysis.Speculate;
  std::shared_ptr<const artifact::CompiledKernel> CK =
      Spec ? speculatedCompiled(K, Env) : compiled(K);
  // N is folded into the key through the fingerprint's parameter hash
  // only when bound; hash it explicitly so truncated runs never alias.
  // The schedule config key makes schedules a plan dimension: the same
  // matrix under a different kind/knob set is a different plan.
  Impl::MatrixKey Key{I->matrixPrefix(K.Name, Spec), EnvFp,
                      static_cast<int64_t>(N)};
  {
    uint64_t T0 = obs::metricsEnabled() ? obs::nowNs() : 0;
    std::lock_guard<std::mutex> Lock(I->Mu);
    auto It = I->Plans.find(Key);
    if (It != I->Plans.end()) {
      ++I->Stats.MatrixWarm;
      I->touch(It->second);
      if (T0)
        HitNs.record(obs::nowNs() - T0);
      return It->second.Plan;
    }
  }
  obs::ScopedLatency Fill(FillNs);
  obs::Span Sp("engine.build_plan", "engine");
  Sp.tag("kernel", K.Name);
  auto MP = std::make_shared<MatrixPlan>(N);
  MP->Inspection = driver::runInspectors(*CK, Env, N, I->Opts.Inspect);
  rt::ScheduleConfig SC = I->Opts.Schedule;
  SC.NumThreads = std::max(1, SC.NumThreads);
  MP->Schedule = rt::buildSchedule(MP->Inspection.Graph, SC);
  std::shared_ptr<const MatrixPlan> Shared = std::move(MP);
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Plans.find(Key);
  if (It != I->Plans.end())
    return It->second.Plan; // a racing fill beat us; use the shared entry
  I->Lru.push_front(Key);
  I->Plans.emplace(Key,
                   Impl::PlanEntry{Shared, I->Lru.begin(), obs::nowNs()});
  ++I->Stats.MatrixCold;
  I->evictToCapacity();
  return Shared;
}

std::shared_ptr<const MatrixPlan>
Engine::planIfCached(const kernels::Kernel &K, int N, bool Speculate,
                     uint64_t EnvFp) {
  bool Spec = Speculate || I->Opts.Analysis.Speculate;
  Impl::MatrixKey Key{I->matrixPrefix(K.Name, Spec), EnvFp,
                      static_cast<int64_t>(N)};
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Plans.find(Key);
  if (It == I->Plans.end())
    return nullptr;
  ++I->Stats.MatrixWarm;
  I->touch(It->second);
  return It->second.Plan;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Stats;
}

void Engine::clear() {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Kernels.clear();
  I->Plans.clear();
  I->Lru.clear();
}

} // namespace engine
} // namespace sds
