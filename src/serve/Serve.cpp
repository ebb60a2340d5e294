//===- Serve.cpp - Admission-controlled concurrent serving ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/serve/Serve.h"

#include "sds/guard/Guarded.h"
#include "sds/ir/Expr.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace sds {
namespace serve {

const char *outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Warm:
    return "warm";
  case Outcome::Cold:
    return "cold";
  case Outcome::StoreWarm:
    return "store-warm";
  case Outcome::Degraded:
    return "degraded";
  case Outcome::Coalesced:
    return "coalesced";
  case Outcome::ShedQueue:
    return "shed-queue";
  case Outcome::ShedDeadline:
    return "shed-deadline";
  case Outcome::Error:
    return "error";
  }
  return "?";
}

namespace {

/// Atoms the term table must still have room for before a cold fill
/// starts; one kernel's analysis interns a few hundred.
constexpr size_t kTermHeadroom = size_t(1) << 16;

/// Singleflight rendezvous: the leader computes, followers block on Done.
struct Inflight {
  std::mutex Mu;
  std::condition_variable CV;
  bool Done = false;
  ServeResponse R;
};

struct QueueItem {
  ServeRequest Req;
  std::promise<ServeResponse> Promise;
  uint64_t EnqueueNs = 0;
  uint64_t AbsDeadlineNs = 0; ///< 0 = none
};

/// Kernel-tier singleflight rendezvous: one leader resolves the kernel
/// (store lookup or compile), followers wait and re-probe the cache.
struct KernelFlight {
  std::mutex Mu;
  std::condition_variable CV;
  bool Done = false;
};

} // namespace

struct Server::Impl {
  ServerOptions Opts;
  engine::Engine Engine;
  std::unique_ptr<store::Store> Store; ///< null when disabled/dead

  std::mutex Mu;
  std::condition_variable WorkCV;  ///< queue has work / stopping
  std::condition_variable DrainCV; ///< queue empty + idle workers
  std::deque<QueueItem> Queue;
  std::map<std::string, std::shared_ptr<Inflight>> InflightMap;
  std::map<std::string, std::shared_ptr<KernelFlight>> KernelInflightMap;
  bool Paused = false;
  bool Stopping = false;
  size_t InService = 0;
  ServerStats Stats;
  std::vector<std::thread> Workers;
  /// Last member, so its gauge sources unregister before the state they
  /// read is destroyed.
  obs::GaugeSources Gauges;

  explicit Impl(ServerOptions O) : Opts(std::move(O)), Engine(Opts.Engine) {}

  void bump(uint64_t ServerStats::*F) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++(Stats.*F);
  }

  /// Whether a request is served through the speculated tiers (its own
  /// opt-in, or server-wide via the engine's analysis options).
  bool speculates(const ServeRequest &R) const {
    return R.Speculate || Opts.Engine.Analysis.Speculate;
  }

  /// The matrix-plan identity a request resolves to — also the
  /// singleflight key, so identical cold work coalesces. Speculation is a
  /// key dimension: a speculated request never coalesces onto (or aliases)
  /// a declared-only plan. `EnvFp` is fingerprintEnvironment(R.Env).
  std::string planKey(const ServeRequest &R, uint64_t EnvFp) const {
    artifact::AnalysisOptions AO =
        artifact::AnalysisOptions::of(Opts.Engine.Analysis);
    AO.Speculate = AO.Speculate || R.Speculate;
    return R.Kernel.Name + "|" + AO.key() + "|" + Opts.Engine.Schedule.key() +
           "|" + std::to_string(EnvFp) + "|" + std::to_string(R.N);
  }

  static ServeResponse shed(Outcome O, std::string Why) {
    ServeResponse Resp;
    Resp.O = O;
    Resp.St = support::resourceExhausted(std::move(Why));
    return Resp;
  }
};

Server::Server(ServerOptions Opts) : I(std::make_unique<Impl>(std::move(Opts))) {
  I->Paused = I->Opts.StartPaused;
  if (!I->Opts.StoreRoot.empty()) {
    store::StoreOptions SO;
    SO.Root = I->Opts.StoreRoot;
    SO.MaxBytes = I->Opts.StoreMaxBytes;
    auto S = std::make_unique<store::Store>(SO);
    if (S->status().ok()) {
      I->Store = std::move(S);
    } else {
      // A dead store degrades the server to in-memory-only; the Store
      // constructor already flight-recorded why.
      obs::flightRecord(obs::FlightSeverity::Warn, "serve",
                        "persistent store disabled",
                        {{"root", I->Opts.StoreRoot},
                         {"status", S->status().message()}});
    }
  }
  Impl *Raw = I.get();
  I->Gauges.add("serve.queue_depth", [Raw] {
    std::lock_guard<std::mutex> Lock(Raw->Mu);
    return static_cast<double>(Raw->Queue.size());
  });
  I->Gauges.add("serve.in_service", [Raw] {
    std::lock_guard<std::mutex> Lock(Raw->Mu);
    return static_cast<double>(Raw->InService);
  });
  I->Gauges.addFields<ServerStats>(
      {{"serve.submitted", &ServerStats::Submitted},
       {"serve.completed", &ServerStats::Completed},
       {"serve.warm", &ServerStats::Warm},
       {"serve.cold", &ServerStats::Cold},
       {"serve.store_warm", &ServerStats::StoreWarm},
       {"serve.degraded", &ServerStats::Degraded},
       {"serve.coalesced", &ServerStats::Coalesced},
       {"serve.shed_queue", &ServerStats::ShedQueue},
       {"serve.shed_deadline", &ServerStats::ShedDeadline},
       {"serve.errors", &ServerStats::Errors},
       {"serve.kernel_coalesced", &ServerStats::KernelCoalesced},
       {"serve.speculated", &ServerStats::Speculated},
       {"serve.batches", &ServerStats::Batches},
       {"serve.batch_items", &ServerStats::BatchItems}},
      [Raw] {
        std::lock_guard<std::mutex> Lock(Raw->Mu);
        return Raw->Stats;
      });
  int W = std::max(1, I->Opts.NumWorkers);
  I->Workers.reserve(static_cast<size_t>(W));
  for (int J = 0; J < W; ++J)
    I->Workers.emplace_back([this] {
      for (;;) {
        QueueItem Item;
        {
          std::unique_lock<std::mutex> Lock(I->Mu);
          I->WorkCV.wait(Lock, [this] {
            return I->Stopping || (!I->Paused && !I->Queue.empty());
          });
          if (I->Stopping)
            return; // queued items are failed explicitly by ~Server
          Item = std::move(I->Queue.front());
          I->Queue.pop_front();
          ++I->InService;
        }
        ServeResponse Resp;
        uint64_t Pickup = obs::nowNs();
        double QueueMs = (Pickup - Item.EnqueueNs) * 1e-6;
        if (Item.AbsDeadlineNs && Pickup >= Item.AbsDeadlineNs) {
          // Deadline-based load shedding: nobody is waiting for this
          // answer anymore; spend the worker on a request that can still
          // make its deadline.
          I->bump(&ServerStats::ShedDeadline);
          obs::flightRecord(obs::FlightSeverity::Warn, "serve",
                            "request shed: deadline expired in queue",
                            {{"kernel", Item.Req.Kernel.Name},
                             {"queue_ms", std::to_string(QueueMs)}});
          Resp = Impl::shed(Outcome::ShedDeadline,
                            "deadline expired while queued (" +
                                std::to_string(QueueMs) + " ms)");
        } else {
          Resp = handle(Item.Req, Item.AbsDeadlineNs);
        }
        Resp.QueueMs = QueueMs;
        static obs::Histogram &QueueNs = obs::histogram("serve.queue_ns");
        QueueNs.record(Pickup - Item.EnqueueNs);
        Item.Promise.set_value(std::move(Resp));
        {
          std::lock_guard<std::mutex> Lock(I->Mu);
          --I->InService;
        }
        I->DrainCV.notify_all();
      }
    });
}

Server::~Server() {
  std::deque<QueueItem> Orphans;
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    I->Stopping = true;
    Orphans.swap(I->Queue);
  }
  I->WorkCV.notify_all();
  for (std::thread &T : I->Workers)
    T.join();
  // Zero lost requests: everything still queued fails loudly, never by a
  // broken promise.
  for (QueueItem &Item : Orphans) {
    I->bump(&ServerStats::ShedQueue);
    Item.Promise.set_value(
        Impl::shed(Outcome::ShedQueue, "server shutting down"));
  }
}

std::future<ServeResponse> Server::submit(ServeRequest R) {
  I->bump(&ServerStats::Submitted);
  QueueItem Item;
  Item.EnqueueNs = obs::nowNs();
  if (R.DeadlineMs > 0)
    Item.AbsDeadlineNs =
        Item.EnqueueNs + static_cast<uint64_t>(R.DeadlineMs * 1e6);
  Item.Req = std::move(R);
  std::future<ServeResponse> Fut = Item.Promise.get_future();
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    if (I->Stopping || I->Queue.size() >= I->Opts.MaxQueueDepth) {
      ++I->Stats.ShedQueue;
      obs::flightRecord(obs::FlightSeverity::Warn, "serve",
                        I->Stopping ? "request shed: server stopping"
                                    : "request shed: queue at capacity",
                        {{"kernel", Item.Req.Kernel.Name},
                         {"depth", std::to_string(I->Queue.size())}});
      Item.Promise.set_value(Impl::shed(
          Outcome::ShedQueue,
          I->Stopping ? "server shutting down"
                      : "queue at capacity (" +
                            std::to_string(I->Opts.MaxQueueDepth) + ")"));
      return Fut;
    }
    I->Queue.push_back(std::move(Item));
  }
  I->WorkCV.notify_one();
  return Fut;
}

std::vector<std::future<ServeResponse>>
Server::submitBatch(const kernels::Kernel &K, std::vector<BatchItem> Items,
                    double DeadlineMs, bool Speculate) {
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    ++I->Stats.Batches;
    I->Stats.BatchItems += Items.size();
  }
  obs::flightRecord(obs::FlightSeverity::Info, "serve", "batch submitted",
                    {{"kernel", K.Name},
                     {"items", std::to_string(Items.size())},
                     {"speculate", Speculate ? "1" : "0"}});
  // Each item is an ordinary request (the same shedding and coalescing
  // rules apply per item); the amortization comes from the kernel-level
  // singleflight in serveCold, which lets N concurrent cold items of one
  // kernel share a single store load or compile.
  std::vector<std::future<ServeResponse>> Futs;
  Futs.reserve(Items.size());
  for (BatchItem &It : Items) {
    ServeRequest R;
    R.Kernel = K;
    R.Env = std::move(It.Env);
    R.N = It.N;
    R.DeadlineMs = DeadlineMs;
    R.Speculate = Speculate;
    Futs.push_back(submit(std::move(R)));
  }
  return Futs;
}

ServeResponse Server::handle(const ServeRequest &R, uint64_t AbsDeadlineNs) {
  static obs::Histogram &ServiceNs = obs::histogram("serve.service_ns");
  uint64_t T0 = obs::nowNs();
  auto Finish = [&](ServeResponse Resp) {
    Resp.ServiceMs = (obs::nowNs() - T0) * 1e-6;
    ServiceNs.record(static_cast<uint64_t>(Resp.ServiceMs * 1e6));
    if (Resp.Plan) {
      I->bump(&ServerStats::Completed);
      if (I->speculates(R))
        I->bump(&ServerStats::Speculated);
    } else if (Resp.O == Outcome::Error) {
      I->bump(&ServerStats::Errors);
    }
    return Resp;
  };

  // The environment fingerprint is the dominant cost of a warm hit: hash
  // once and key the plan probe, singleflight and cold fill off it.
  uint64_t EnvFp = engine::fingerprintEnvironment(R.Env);

  // Plan tier: the common case for steady traffic is a pure memory hit.
  if (std::shared_ptr<const engine::MatrixPlan> P =
          I->Engine.planIfCached(R.Kernel, R.N, R.Speculate, EnvFp)) {
    I->bump(&ServerStats::Warm);
    ServeResponse Resp;
    Resp.O = Outcome::Warm;
    Resp.Plan = std::move(P);
    return Finish(std::move(Resp));
  }

  // Singleflight: one leader per plan key; followers wait (bounded by
  // their own deadline) and share the leader's result.
  std::string Key = I->planKey(R, EnvFp);
  std::shared_ptr<Inflight> Entry;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    auto It = I->InflightMap.find(Key);
    if (It == I->InflightMap.end()) {
      Entry = std::make_shared<Inflight>();
      I->InflightMap.emplace(Key, Entry);
      Leader = true;
    } else {
      Entry = It->second;
    }
  }
  if (!Leader) {
    std::unique_lock<std::mutex> Lock(Entry->Mu);
    bool Ready;
    if (AbsDeadlineNs) {
      uint64_t Now = obs::nowNs();
      auto Budget = std::chrono::nanoseconds(
          AbsDeadlineNs > Now ? AbsDeadlineNs - Now : 0);
      Ready = Entry->CV.wait_for(Lock, Budget, [&] { return Entry->Done; });
    } else {
      Entry->CV.wait(Lock, [&] { return Entry->Done; });
      Ready = true;
    }
    if (!Ready) {
      I->bump(&ServerStats::ShedDeadline);
      return Finish(Impl::shed(
          Outcome::ShedDeadline,
          "deadline expired waiting on an identical in-flight request"));
    }
    I->bump(&ServerStats::Coalesced);
    ServeResponse Resp = Entry->R;
    Resp.O = Outcome::Coalesced;
    return Finish(std::move(Resp));
  }

  ServeResponse Resp = serveCold(R, AbsDeadlineNs, EnvFp);
  switch (Resp.O) {
  case Outcome::Cold:
    I->bump(&ServerStats::Cold);
    break;
  case Outcome::StoreWarm:
    I->bump(&ServerStats::StoreWarm);
    break;
  case Outcome::Degraded:
    I->bump(&ServerStats::Degraded);
    break;
  default:
    break;
  }
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    I->InflightMap.erase(Key);
  }
  {
    std::lock_guard<std::mutex> Lock(Entry->Mu);
    Entry->R = Resp;
    Entry->Done = true;
  }
  Entry->CV.notify_all();
  return Finish(std::move(Resp));
}

ServeResponse Server::serveCold(const ServeRequest &R, uint64_t AbsDeadlineNs,
                                uint64_t EnvFp) {
  if (I->speculates(R)) {
    // Speculative serving: the engine's speculated tiers own the kernel
    // fill (profiler + compile, keyed by the inference fingerprint). The
    // persistent store and budget degradation do not apply here — a
    // speculated artifact is environment-dependent and is not persisted.
    ServeResponse Resp;
    Resp.Plan =
        I->Engine.plan(R.Kernel, R.Env, R.N, /*Speculate=*/true, EnvFp);
    Resp.O = Outcome::Cold;
    return Resp;
  }
  // Kernel tier: memory -> persistent store -> budgeted cold compile.
  std::shared_ptr<const artifact::CompiledKernel> CK =
      I->Engine.lookupCompiled(R.Kernel);
  bool FromStore = false;
  if (!CK) {
    // Kernel-level singleflight: a batch over N environments misses on N
    // distinct plan keys, but every miss needs the same artifact — one
    // leader resolves it (store or compile), the rest wait here and
    // re-probe the engine cache.
    std::string KKey =
        R.Kernel.Name + "|" +
        artifact::AnalysisOptions::of(I->Opts.Engine.Analysis).key();
    std::shared_ptr<KernelFlight> KF;
    bool KLeader = false;
    {
      std::lock_guard<std::mutex> Lock(I->Mu);
      auto It = I->KernelInflightMap.find(KKey);
      if (It == I->KernelInflightMap.end()) {
        KF = std::make_shared<KernelFlight>();
        I->KernelInflightMap.emplace(KKey, KF);
        KLeader = true;
      } else {
        KF = It->second;
      }
    }
    if (KLeader) {
      std::optional<ServeResponse> Early =
          resolveKernelCold(R, AbsDeadlineNs, CK, FromStore);
      {
        std::lock_guard<std::mutex> Lock(I->Mu);
        I->KernelInflightMap.erase(KKey);
      }
      {
        std::lock_guard<std::mutex> Lock(KF->Mu);
        KF->Done = true;
      }
      KF->CV.notify_all();
      if (Early)
        return std::move(*Early);
    } else {
      {
        std::unique_lock<std::mutex> Lock(KF->Mu);
        if (AbsDeadlineNs) {
          uint64_t Now = obs::nowNs();
          auto Budget = std::chrono::nanoseconds(
              AbsDeadlineNs > Now ? AbsDeadlineNs - Now : 0);
          if (!KF->CV.wait_for(Lock, Budget, [&] { return KF->Done; })) {
            I->bump(&ServerStats::ShedDeadline);
            return Impl::shed(
                Outcome::ShedDeadline,
                "deadline expired waiting on the kernel-tier fill");
          }
        } else {
          KF->CV.wait(Lock, [&] { return KF->Done; });
        }
      }
      I->bump(&ServerStats::KernelCoalesced);
      CK = I->Engine.lookupCompiled(R.Kernel);
      // A leader that degraded or failed fills no cache: resolve for
      // ourselves below (rare; each such request degrades on its own
      // budget rather than inheriting the leader's).
      if (!CK) {
        std::optional<ServeResponse> Early =
            resolveKernelCold(R, AbsDeadlineNs, CK, FromStore);
        if (Early)
          return std::move(*Early);
      }
    }
  }

  // Plan tier cold fill (inspectors + schedule) through the engine, so
  // the plan is cached for the steady-state warm path.
  ServeResponse Resp;
  Resp.Plan =
      I->Engine.plan(R.Kernel, R.Env, R.N, /*Speculate=*/false, EnvFp);
  Resp.O = FromStore ? Outcome::StoreWarm : Outcome::Cold;
  return Resp;
}

std::optional<ServeResponse> Server::resolveKernelCold(
    const ServeRequest &R, uint64_t AbsDeadlineNs,
    std::shared_ptr<const artifact::CompiledKernel> &CK, bool &FromStore) {
  // Decoding and compiling intern new terms, and the process-wide term
  // table aborts when full: refuse cold work well before that.
  if (ir::Atom::internedCount() + kTermHeadroom > ir::Atom::kMaxInterned) {
    ServeResponse Resp;
    Resp.O = Outcome::Error;
    Resp.St = support::resourceExhausted("interned term table nearly full (" +
                                         std::to_string(
                                             ir::Atom::internedCount()) +
                                         " atoms)");
    return Resp;
  }
  if (I->Store) {
    std::string SKey = store::Store::keyFor(
        R.Kernel.Name, artifact::AnalysisOptions::of(I->Opts.Engine.Analysis),
        I->Opts.Engine.Schedule);
    artifact::CompiledKernel Loaded;
    bool Found = false;
    // Store failures (corrupt blob, dead store) degrade to a miss; the
    // store quarantines + flight-records, we recompile below.
    if (I->Store->get(SKey, Loaded, Found).ok() && Found) {
      if (I->Engine.installArtifact(std::move(Loaded)).ok()) {
        CK = I->Engine.lookupCompiled(R.Kernel);
        FromStore = CK != nullptr;
      }
    }
  }
  if (!CK) {
    // Cold compile under the request's analysis budget (explicit, or the
    // remaining deadline).
    deps::PipelineOptions PO = I->Opts.Engine.Analysis;
    if (R.AnalysisBudgetMs > 0) {
      PO.AnalysisBudgetMs = R.AnalysisBudgetMs;
    } else if (AbsDeadlineNs) {
      uint64_t Now = obs::nowNs();
      PO.AnalysisBudgetMs =
          AbsDeadlineNs > Now ? (AbsDeadlineNs - Now) * 1e-6 : 0.001;
    }
    artifact::CompiledKernel Fresh = artifact::compile(R.Kernel, PO);
    Fresh.Schedule = I->Opts.Engine.Schedule;
    bool Exhausted = false;
    for (const deps::AnalyzedDependence &D : Fresh.Deps)
      Exhausted |= D.Prov.Stage == "budget-exhausted";
    if (Exhausted) {
      // Graceful degradation: the partially simplified analysis is
      // timing-dependent, so it must never reach a cache; serve this
      // request the correct-by-construction baseline plan instead.
      obs::flightRecord(obs::FlightSeverity::Warn, "serve",
                        "analysis budget exhausted; serving degraded "
                        "baseline plan (not cached)",
                        {{"kernel", R.Kernel.Name},
                         {"budget_ms", std::to_string(PO.AnalysisBudgetMs)}});
      std::vector<deps::AnalyzedDependence> Base =
          guard::baselineDeps(Fresh.Deps);
      for (deps::AnalyzedDependence &D : Base)
        if (D.Status == deps::DepStatus::Runtime) {
          D.Prov.Stage = "degraded-baseline";
          D.Prov.Evidence = {"analysis deadline expired; simplifications "
                             "revoked for this request"};
        }
      auto MP = std::make_shared<engine::MatrixPlan>(R.N);
      MP->Inspection = driver::runInspectors(R.Kernel.Name, Base, R.Env, R.N,
                                             I->Opts.Engine.Inspect);
      rt::ScheduleConfig SC = I->Opts.Engine.Schedule;
      SC.NumThreads = std::max(1, SC.NumThreads);
      MP->Schedule = rt::buildSchedule(MP->Inspection.Graph, SC);
      ServeResponse Resp;
      Resp.O = Outcome::Degraded;
      Resp.Degraded = true;
      Resp.Plan = std::move(MP);
      return Resp;
    }
    // A compile that finished within budget is bit-identical to an
    // unbudgeted one (budgets only weaken results when exhausted), so it
    // is safe to publish to both cache tiers.
    if (support::Status S = I->Engine.installArtifact(Fresh); !S.ok()) {
      ServeResponse Resp;
      Resp.O = Outcome::Error;
      Resp.St = std::move(S).withContext("serve cold fill");
      return Resp;
    }
    if (I->Store)
      if (support::Status S = I->Store->put(Fresh); !S.ok())
        obs::flightRecord(obs::FlightSeverity::Warn, "serve",
                          "persistent store put failed (serving continues)",
                          {{"kernel", R.Kernel.Name},
                           {"status", S.message()}});
    CK = I->Engine.lookupCompiled(R.Kernel);
    if (!CK) {
      ServeResponse Resp;
      Resp.O = Outcome::Error;
      Resp.St = support::internalError(
          "freshly installed artifact missing from the kernel tier");
      return Resp;
    }
  }
  return std::nullopt;
}

void Server::pause() {
  std::lock_guard<std::mutex> Lock(I->Mu);
  I->Paused = true;
}

void Server::resume() {
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    I->Paused = false;
  }
  I->WorkCV.notify_all();
}

void Server::drain() {
  std::unique_lock<std::mutex> Lock(I->Mu);
  I->DrainCV.wait(Lock,
                  [this] { return I->Queue.empty() && I->InService == 0; });
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Stats;
}

engine::Engine &Server::engine() { return I->Engine; }

store::Store *Server::persistentStore() { return I->Store.get(); }

} // namespace serve
} // namespace sds
