//===- Serve.cpp - The serve workload -------------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// An open loop through serve::Server with the artifact store enabled.
// Requests are Zipf-popular over a population of plan keys (3 solver
// kernels x 5 profiles x several matrix seeds) larger than the engine's
// matrix tier, so warm hits read the tier while misses run inspectors and
// the scheduler, fill the tier and evict from it, all in one run. No
// executor runs and no analysis runs outside set-up: serve queueing,
// engine fingerprinting, lookup and eviction dominate.
//
// Requests are sent at fixed absolute rates from Config.h and timed from
// the moment each was due, so a stall also counts against the requests
// queued behind it.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "sds/serve/Serve.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

using namespace sds;

namespace pb {

namespace {

struct Key {
  std::string Name;
  serve::ServeRequest Proto;
  // First plan served for this key, to check that every re-served plan is
  // bit-identical to it. Holding it keeps its address from being reused by
  // a later plan, so pointer equality means the same plan.
  std::shared_ptr<const engine::MatrixPlan> FirstPlan;
  uint64_t FirstDigest = 0;
};

/// Zipf sampler: draws rank r with probability proportional to
/// 1/(r+1)^S and returns the key holding that rank.
class Zipf {
public:
  Zipf(std::vector<size_t> RankToKey, double S, uint64_t Seed)
      : Rng(Seed), Rank(std::move(RankToKey)) {
    double Sum = 0;
    for (size_t I = 0; I < Rank.size(); ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), S);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t next() {
    double U = static_cast<double>(Rng() >> 11) * 0x1.0p-53;
    size_t I = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return Rank[std::min(I, Rank.size() - 1)];
  }

private:
  std::mt19937_64 Rng;
  std::vector<size_t> Rank;
  std::vector<double> Cdf;
};

struct Phase {
  std::vector<double> LatMs, LateMs, QueueMs, WarmMs, ColdMs;
  uint64_t Shed = 0, Errors = 0;
  double DrainMs = 0; ///< last completion minus last due time
};

Phase runPhase(serve::Server &S, std::vector<Key> &Keys, Zipf &Z, double Rps,
               double Seconds, Tracer &T, Result &R, uint64_t &NextId) {
  struct Pending {
    std::future<serve::ServeResponse> Fut;
    size_t Key;
    Clock::time_point Due, Sent;
    uint64_t Id;
  };
  Phase P;
  size_t Count = static_cast<size_t>(std::llround(Rps * Seconds));
  std::vector<Pending> Inflight;
  Inflight.reserve(Count);
  auto Interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / Rps));
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Count; ++I) {
    Clock::time_point Due = Start + Interval * static_cast<int64_t>(I);
    std::this_thread::sleep_until(Due);
    size_t K = Z.next();
    serve::ServeRequest Req = Keys[K].Proto;
    Clock::time_point Sent = Clock::now();
    Inflight.push_back({S.submit(std::move(Req)), K, Due, Sent, NextId++});
  }
  Clock::time_point LastDue = Inflight.empty() ? Start : Inflight.back().Due;
  for (Pending &Q : Inflight) {
    serve::ServeResponse Resp = Q.Fut.get();
    Key &K = Keys[Q.Key];
    if (Resp.O == serve::Outcome::ShedQueue ||
        Resp.O == serve::Outcome::ShedDeadline) {
      ++P.Shed;
      R.check(false, K.Name + ": request shed");
      continue;
    }
    if (!Resp.Plan || !Resp.St.ok()) {
      ++P.Errors;
      R.check(false, K.Name + ": request failed: " + Resp.St.message());
      continue;
    }
    if (!K.FirstPlan) {
      K.FirstPlan = Resp.Plan;
      K.FirstDigest =
          planDigest(Resp.Plan->Inspection.Graph, Resp.Plan->Schedule);
    }
    R.check(Resp.Plan == K.FirstPlan ||
                planDigest(Resp.Plan->Inspection.Graph,
                           Resp.Plan->Schedule) == K.FirstDigest,
            K.Name + ": re-served plan differs from the first");
    double LateMs =
        std::chrono::duration<double, std::milli>(Q.Sent - Q.Due).count();
    double DoneMs = LateMs + Resp.QueueMs + Resp.ServiceMs;
    P.LatMs.push_back(DoneMs);
    P.LateMs.push_back(LateMs);
    P.QueueMs.push_back(Resp.QueueMs);
    (Resp.O == serve::Outcome::Warm ? P.WarmMs : P.ColdMs)
        .push_back(Resp.ServiceMs);
    double Done =
        std::chrono::duration<double, std::milli>(Q.Due - LastDue).count() +
        DoneMs;
    P.DrainMs = std::max(P.DrainMs, Done);
    if (T.on()) {
      int64_t Due = T.toNs(Q.Due), Sent = T.toNs(Q.Sent);
      int64_t Picked = Sent + static_cast<int64_t>(Resp.QueueMs * 1e6);
      int64_t End = Picked + static_cast<int64_t>(Resp.ServiceMs * 1e6);
      int Req = T.record("serve.request", Due, End, -1, Q.Id);
      T.record("serve.queue", Sent, Picked, Req, Q.Id);
      T.record(Resp.O == serve::Outcome::Warm ? "engine.plan_warm"
                                              : "engine.plan_cold",
               Picked, End, Req, Q.Id);
    }
  }
  return P;
}

void append(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

} // namespace

Result runServe(const Options &O, Tracer &T) {
  Result R;
  Clock::time_point Start = Clock::now();
  std::vector<std::string> Ids(std::begin(kServeKernels),
                               std::end(kServeKernels));
  CompiledSet Set = compileKernels(Ids, T, R);
  serve::ServerOptions SO;
  SO.StoreRoot = O.WorkDir + "/store";
  SO.NumWorkers = kServeWorkers;
  SO.MaxQueueDepth = kServeQueueDepth;
  SO.Engine.MaxMatrixPlans = kServeMaxPlans;
  // The server looks artifacts up under its own schedule config.
  for (artifact::CompiledKernel &CK : Set.Kernels)
    CK.Schedule = SO.Engine.Schedule;
  std::vector<std::vector<double>> Warm =
      warmStarts(Set, SO.StoreRoot, kSetupWarmRounds, 0, T, R);

  std::vector<Key> Keys;
  std::vector<rt::MatrixProfile> Profiles = rt::table4Profiles();
  std::vector<kernels::Kernel> Kernels;
  for (const std::string &Id : Ids)
    Kernels.push_back(makeKernel(Id));
  std::vector<std::shared_ptr<const Matrices>> Mats =
      makeMatrixSets(Profiles, kScale, kServeMatrixSeeds, O.Seed);
  for (size_t MI = 0; MI < Mats.size(); ++MI) {
    const std::shared_ptr<const Matrices> &M = Mats[MI];
    for (size_t K = 0; K < Ids.size(); ++K) {
      Instance I = wire(Ids[K], M);
      Key Ky;
      Ky.Name = Ids[K] + "@" + M->Profile + "#" +
                std::to_string(MI % kServeMatrixSeeds);
      Ky.Proto.Kernel = Kernels[K];
      Ky.Proto.Env = std::move(I.Env);
      Ky.Proto.N = I.N;
      Keys.push_back(std::move(Ky));
    }
  }
  // Popularity is dealt round-robin over the (kernel, profile) classes in
  // a fixed order, so every seed offers the same mix of matrix sizes; the
  // seed decides which of a class's matrices gets which of its ranks.
  size_t Classes = Ids.size() * Profiles.size();
  std::mt19937_64 Deal(mixSeed(O.Seed, 2));
  std::vector<size_t> RankToKey(Keys.size());
  for (size_t C = 0; C < Classes; ++C) {
    std::vector<size_t> Variant(kServeMatrixSeeds);
    for (size_t J = 0; J < Variant.size(); ++J)
      Variant[J] = J;
    std::shuffle(Variant.begin(), Variant.end(), Deal);
    size_t K = C % Ids.size(), P = C / Ids.size();
    for (size_t J = 0; J < Variant.size(); ++J)
      RankToKey[J * Classes + C] =
          (P * kServeMatrixSeeds + Variant[J]) * Ids.size() + K;
  }
  Zipf Z(std::move(RankToKey), kZipfS, mixSeed(O.Seed, 1));
  double SetupSeconds = secondsSince(Start);

  serve::Server S(SO);
  uint64_t NextId = 1;
  runPhase(S, Keys, Z, kLowRps, O.Seconds * kWarmupShare, T, R, NextId);
  Phase Low = runPhase(S, Keys, Z, kLowRps, O.Seconds * kLowShare, T, R,
                       NextId);
  Phase High = runPhase(S, Keys, Z, kHighRps, O.Seconds * kHighShare, T, R,
                        NextId);
  double RungSeconds = O.Seconds *
                       (1 - kWarmupShare - kLowShare - kHighShare) /
                       static_cast<double>(std::size(kLadderRps));
  double MaxRps = 0;
  std::vector<double> Late, Queue, WarmSvc, ColdSvc;
  for (const Phase *P : {&Low, &High}) {
    append(Late, P->LateMs);
    append(Queue, P->QueueMs);
    append(WarmSvc, P->WarmMs);
    append(ColdSvc, P->ColdMs);
  }
  uint64_t Shed = Low.Shed + High.Shed, Errors = Low.Errors + High.Errors;
  for (double Rps : kLadderRps) {
    Phase Rung = runPhase(S, Keys, Z, Rps, RungSeconds, T, R, NextId);
    Shed += Rung.Shed;
    Errors += Rung.Errors;
    append(Late, Rung.LateMs);
    bool Met = Rung.Shed == 0 && Rung.Errors == 0 &&
               quantile(Rung.LatMs, 0.99) <= kP99LimitMs &&
               Rung.DrainMs <= kP99LimitMs;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "ladder.%g.p99_ms", Rps);
    R.row(Buf, quantile(Rung.LatMs, 0.99), "ms");
    if (!Met)
      break;
    MaxRps = Rps;
  }
  S.drain();

  R.e2e("setup_s", SetupSeconds, "s");
  R.e2e("compile_s", Set.totalSeconds(), "s");
  // The unit of work is one request at the high rate, timed from its due
  // time.
  R.e2e("op_p50_ms", quantile(High.LatMs, 0.50), "ms");
  R.row("op_p90_ms", quantile(High.LatMs, 0.90), "ms");
  R.row("compile_geomean_s", geomean(Set.Seconds), "s");
  R.row("load_ms", loadMs(Warm), "ms");
  R.row("cold_over_warm_service", median(ColdSvc) / median(WarmSvc), "x");
  R.row("low.p50_ms", quantile(Low.LatMs, 0.50), "ms");
  R.row("low.p99_ms", quantile(Low.LatMs, 0.99), "ms");
  R.row("high.p50_ms", quantile(High.LatMs, 0.50), "ms");
  R.row("high.p99_ms", quantile(High.LatMs, 0.99), "ms");
  R.row("max_rps", MaxRps, "1/s");
  R.row("op_samples", static_cast<double>(High.LatMs.size()), "count");
  R.row("miss_ratio",
        static_cast<double>(ColdSvc.size()) /
            static_cast<double>(ColdSvc.size() + WarmSvc.size()),
        "ratio");

  engine::EngineStats ES = S.engine().stats();
  uint64_t Lookups = ES.MatrixWarm + ES.MatrixCold;
  R.layer("engine.hit_ratio",
          Lookups ? static_cast<double>(ES.MatrixWarm) /
                        static_cast<double>(Lookups)
                  : 0,
          "ratio");
  R.layer("engine.evictions", static_cast<double>(ES.MatrixEvicted), "count");
  R.layer("engine.plan_cold_ms", median(ColdSvc), "ms");
  R.layer("serve.queue_ms.p50", quantile(Queue, 0.50), "ms");
  R.layer("serve.queue_ms.p99", quantile(Queue, 0.99), "ms");
  R.layer("serve.service_ms.warm.p50", quantile(WarmSvc, 0.50), "ms");
  R.layer("serve.service_ms.cold.p99", quantile(ColdSvc, 0.99), "ms");
  R.layer("serve.shed", static_cast<double>(Shed), "count");
  R.layer("serve.errors", static_cast<double>(Errors), "count");
  R.layer("serve.generator_late_ms", quantile(Late, 0.99), "ms");
  if (T.on()) {
    // The warm-hit path fingerprints the whole environment; time it
    // directly over the population.
    std::vector<double> Fp;
    for (const Key &K : Keys) {
      Timed Tm(T, "engine.fingerprint");
      volatile uint64_t H = engine::fingerprintEnvironment(K.Proto.Env);
      (void)H;
      Fp.push_back(Tm.stop() * 1e3);
    }
    R.layer("engine.fingerprint_ms", median(Fp), "ms");
  }
  return R;
}

} // namespace pb
