//===- Layers.cpp - Timed calls into the program's layers -----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "sds/driver/Driver.h"
#include "sds/engine/Engine.h"
#include "sds/kernels/Kernels.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"
#include "sds/runtime/Kernels.h"
#include "sds/store/Store.h"
#include "sds/support/Schema.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

using namespace sds;

namespace pb {

kernels::Kernel makeKernel(const std::string &Id) {
  if (Id == "spmv_csr")
    return kernels::spmvCSR();
  if (Id == "fs_csr")
    return kernels::forwardSolveCSR();
  if (Id == "fs_csc")
    return kernels::forwardSolveCSC();
  if (Id == "gs_csr")
    return kernels::gaussSeidelCSR();
  if (Id == "lchol_csc")
    return kernels::leftCholeskyCSC();
  throw std::invalid_argument("unknown kernel " + Id);
}

namespace {

void checkTallies(const std::string &Id, const artifact::CompiledKernel &CK,
                  Result &R) {
  unsigned A = CK.count(deps::DepStatus::AffineUnsat);
  unsigned P = CK.count(deps::DepStatus::PropertyUnsat);
  unsigned S = CK.count(deps::DepStatus::Subsumed);
  unsigned Rt = CK.count(deps::DepStatus::Runtime);
  for (const ExpectedTally &E : kExpectedTallies)
    if (Id == E.Id) {
      R.check(A == E.AffineUnsat && P == E.PropertyUnsat &&
                  S == E.Subsumed && Rt == E.Runtime,
              Id + ": tallies affine/property/subsumed/runtime " +
                  std::to_string(A) + "/" + std::to_string(P) + "/" +
                  std::to_string(S) + "/" + std::to_string(Rt));
      return;
    }
  R.fail(Id + ": no expected tallies");
}

} // namespace

CompiledSet compileKernels(const std::vector<std::string> &Ids, Tracer &T,
                           Result &R) {
  static obs::Counter &Pivots = obs::counter("simplex.pivots");
  static obs::Counter &Solves = obs::counter("simplex.solves");
  CompiledSet Set;
  std::map<std::string, double> Stage;
  uint64_t Queries = 0, Hits = 0, Rejects = 0, PivotN = 0, SolveN = 0;
  std::vector<kernels::Kernel> Ks;
  std::vector<double> Sum;
  std::vector<int> Compiles;
  deps::PipelineOptions PO; // engine default: 1 thread, every stage on
  for (const std::string &Id : Ids) {
    Ks.push_back(makeKernel(Id));
    presburger::clearQueryCache();
    Pivots.reset();
    Solves.reset();
    // The Simplex pivot/solve counters count only while the program's own
    // tracing is on; switch it on around the compile in traced runs.
    obs::setEnabled(T.on());
    Timed Tm(T, "deps.compile");
    artifact::CompiledKernel CK = artifact::compile(Ks.back(), PO);
    Sum.push_back(Tm.stop());
    Compiles.push_back(1);
    obs::setEnabled(false);
    presburger::QueryCacheStats QS = presburger::queryCacheStats();
    presburger::PrefilterStats PF = presburger::prefilterStats();
    Queries += QS.Hits + QS.Misses;
    Hits += QS.Hits;
    Rejects += PF.GcdRejects + PF.EqConflictRejects + PF.IntervalRejects;
    PivotN += Pivots.value();
    SolveN += Solves.value();
    for (const auto &[Name, Sec] : CK.StageSeconds)
      Stage[Name] += Sec;
    checkTallies(Id, CK, R);
    Set.Ids.push_back(Id);
    Set.Kernels.push_back(std::move(CK));
  }
  // A single short compile is at the mercy of the machine's momentary
  // speed, which flips between two levels in spells of a fraction of a
  // second to many seconds. Compile the short kernels again, round-robin so
  // that each one's compiles spread over all of this phase, and keep each
  // kernel's mean: it moves with the share of time spent at each level
  // instead of jumping between the two as a median of a few compiles does.
  for (bool Again = true; Again;) {
    Again = false;
    for (size_t I = 0; I < Ks.size(); ++I) {
      if (Sum[I] >= kCompileBudgetS || Compiles[I] >= kMaxCompiles)
        continue;
      presburger::clearQueryCache();
      Timed Tm(T, "deps.compile");
      (void)artifact::compile(Ks[I], PO);
      Sum[I] += Tm.stop();
      ++Compiles[I];
      Again = true;
    }
  }
  for (size_t I = 0; I < Ks.size(); ++I) {
    Set.Seconds.push_back(Sum[I] / Compiles[I]);
    R.layer("deps.compile_s." + Ids[I], Set.Seconds.back(), "s");
  }
  for (const char *Key : schema::kStageKeys)
    R.layer(std::string("deps.stage_s.") + Key, Stage[Key], "s");
  R.layer("presburger.queries", static_cast<double>(Queries), "count");
  R.layer("presburger.cache_hit_ratio",
          Queries ? static_cast<double>(Hits) / static_cast<double>(Queries)
                  : 0,
          "ratio");
  R.layer("presburger.prefilter_rejects", static_cast<double>(Rejects),
          "count");
  R.layer("presburger.pivots", static_cast<double>(PivotN), "count");
  R.layer("presburger.solves", static_cast<double>(SolveN), "count");
  return Set;
}

double CompiledSet::totalSeconds() const {
  double Sum = 0;
  for (double S : Seconds)
    Sum += S;
  return Sum;
}

std::vector<std::vector<double>> warmStarts(const CompiledSet &Set,
                                            const std::string &Root,
                                            int MinRounds,
                                            double BudgetSeconds, Tracer &T,
                                            Result &R) {
  std::filesystem::remove_all(Root);
  std::vector<std::string> Keys;
  std::vector<double> PutMs, GetMs, InstallMs;
  double Bytes = 0;
  {
    store::Store Writer({Root});
    R.check(Writer.status().ok(), "store: open " + Root);
    for (const artifact::CompiledKernel &CK : Set.Kernels) {
      Timed Tm(T, "store.put");
      support::Status St = Writer.put(CK);
      PutMs.push_back(Tm.stop() * 1e3);
      R.check(St.ok(), CK.KernelName + ": store put: " + St.message());
      Keys.push_back(store::Store::keyFor(CK));
    }
  }
  // Round trip: a fresh Store must reproduce each artifact byte for byte.
  {
    store::Store Reader({Root});
    for (size_t I = 0; I < Keys.size(); ++I) {
      artifact::CompiledKernel Back;
      bool Found = false;
      support::Status St = Reader.get(Keys[I], Back, Found);
      std::string Orig = artifact::serialize(Set.Kernels[I]);
      Bytes += static_cast<double>(Orig.size());
      R.check(St.ok() && Found && artifact::serialize(Back) == Orig,
              Set.Ids[I] + ": store round trip not byte-identical");
    }
  }
  std::vector<std::vector<double>> Ms(Set.Kernels.size());
  Clock::time_point T0 = Clock::now();
  for (int Round = 0; Round < MinRounds || secondsSince(T0) < BudgetSeconds;
       ++Round) {
    for (size_t I = 0; I < Keys.size(); ++I) {
      Clock::time_point W0 = Clock::now();
      int64_t Start = T.toNs(W0);
      store::Store S({Root});
      artifact::CompiledKernel CK;
      bool Found = false;
      Clock::time_point G0 = Clock::now();
      support::Status St = S.get(Keys[I], CK, Found);
      Clock::time_point G1 = Clock::now();
      engine::Engine E;
      support::Status Inst = E.installArtifact(std::move(CK));
      Clock::time_point G2 = Clock::now();
      double TotalMs = std::chrono::duration<double, std::milli>(G2 - W0).count();
      bool Ok = St.ok() && Found && Inst.ok();
      R.check(Ok, Set.Ids[I] + ": warm start failed");
      if (!Ok)
        continue;
      Ms[I].push_back(TotalMs);
      GetMs.push_back(std::chrono::duration<double, std::milli>(G1 - G0).count());
      InstallMs.push_back(
          std::chrono::duration<double, std::milli>(G2 - G1).count());
      if (T.on()) {
        int P = T.record("bench.warm_start", Start, T.toNs(G2));
        T.record("store.open", Start, T.toNs(G0), P);
        T.record("store.get", T.toNs(G0), T.toNs(G1), P);
        T.record("engine.install", T.toNs(G1), T.toNs(G2), P);
      }
    }
  }
  R.layer("artifact.bytes", Bytes, "bytes");
  R.layer("store.put_ms", median(PutMs), "ms");
  R.layer("store.get_ms", median(GetMs), "ms");
  R.layer("engine.install_ms", median(InstallMs), "ms");
  return Ms;
}

double loadMs(const std::vector<std::vector<double>> &PerKernel) {
  std::vector<double> Med;
  for (const std::vector<double> &V : PerKernel)
    Med.push_back(median(V));
  return geomean(Med);
}

std::vector<std::shared_ptr<const Matrices>>
makeMatrixSets(const std::vector<rt::MatrixProfile> &Profiles, double Scale,
               int PerProfile, uint64_t Seed) {
  int Count = static_cast<int>(Profiles.size()) * PerProfile;
  std::vector<std::shared_ptr<const Matrices>> Out(
      static_cast<size_t>(Count));
#pragma omp parallel for num_threads(kThreads) schedule(dynamic)
  for (int I = 0; I < Count; ++I) {
    const rt::MatrixProfile &P = Profiles[static_cast<size_t>(I / PerProfile)];
    auto M = std::make_shared<Matrices>();
    M->Profile = P.Name.substr(0, P.Name.find(' '));
    M->Full = rt::generateFromProfile(P, Scale,
                                      mixSeed(Seed, static_cast<uint64_t>(I)));
    M->Lower = rt::lowerTriangle(M->Full);
    M->LowerC = rt::toCSC(M->Lower);
    Out[static_cast<size_t>(I)] = std::move(M);
  }
  return Out;
}

Instance wire(const std::string &Id, std::shared_ptr<const Matrices> M) {
  using namespace sds::rt;
  Instance I;
  if (Id == "fs_csc") {
    const CSCMatrix &L = M->LowerC;
    auto B = std::make_shared<std::vector<double>>(static_cast<size_t>(L.N), 1.0);
    auto X = std::make_shared<std::vector<double>>();
    I.Env = driver::bindCSC(L);
    I.N = L.N;
    I.Reset = [] {};
    I.Serial = [M, B, X] { forwardSolveCSCSerial(M->LowerC, *B, *X); };
    I.Scheduled = [M, B, X](const CompiledSchedule &S) {
      forwardSolveCSCScheduled(M->LowerC, *B, *X, S);
    };
    I.Output = [X] { return *X; };
    for (int J = 0; J < L.N; ++J)
      I.NodeCost.push_back(L.ColPtr[J + 1] - L.ColPtr[J]);
  } else if (Id == "fs_csr") {
    const CSRMatrix &L = M->Lower;
    auto B = std::make_shared<std::vector<double>>(static_cast<size_t>(L.N), 1.0);
    auto X = std::make_shared<std::vector<double>>();
    I.Env = driver::bindCSR(L);
    I.N = L.N;
    I.PullBased = true;
    I.Reset = [] {};
    I.Serial = [M, B, X] { forwardSolveCSRSerial(M->Lower, *B, *X); };
    I.Scheduled = [M, B, X](const CompiledSchedule &S) {
      forwardSolveCSRScheduled(M->Lower, *B, *X, S);
    };
    I.Output = [X] { return *X; };
    for (int J = 0; J < L.N; ++J)
      I.NodeCost.push_back(L.RowPtr[J + 1] - L.RowPtr[J]);
  } else if (Id == "gs_csr") {
    const CSRMatrix &A = M->Full;
    auto B = std::make_shared<std::vector<double>>(static_cast<size_t>(A.N), 1.0);
    auto X = std::make_shared<std::vector<double>>(static_cast<size_t>(A.N), 0.0);
    I.Env = driver::bindCSR(A, A.diagonalPositions());
    I.N = A.N;
    I.PullBased = true;
    I.Reset = [X] { std::fill(X->begin(), X->end(), 0.0); };
    I.Serial = [M, B, X] { gaussSeidelCSRSerial(M->Full, *B, *X); };
    I.Scheduled = [M, B, X](const CompiledSchedule &S) {
      gaussSeidelCSRScheduled(M->Full, *B, *X, S);
    };
    I.Output = [X] { return *X; };
    for (int J = 0; J < A.N; ++J)
      I.NodeCost.push_back(A.RowPtr[J + 1] - A.RowPtr[J]);
  } else if (Id == "lchol_csc") {
    // The factorization overwrites L in place: Reset restores its values.
    auto L = std::make_shared<CSCMatrix>(M->LowerC);
    auto Prune = std::make_shared<PruneSets>(buildPruneSets(*L));
    I.Env = driver::bindCSC(*L, Prune.get());
    I.N = L->N;
    I.PullBased = true;
    I.Reset = [L, M] { L->Val = M->LowerC.Val; };
    I.Serial = [L] { leftCholeskyCSCSerial(*L); };
    I.Scheduled = [L](const CompiledSchedule &S) {
      leftCholeskyCSCScheduled(*L, S);
    };
    I.Output = [L] { return L->Val; };
    for (int J = 0; J < L->N; ++J) {
      double C = L->ColPtr[J + 1] - L->ColPtr[J];
      double U = Prune->Ptr[static_cast<size_t>(J) + 1] -
                 Prune->Ptr[static_cast<size_t>(J)];
      I.NodeCost.push_back(C + U * C);
    }
  } else {
    throw std::invalid_argument("kernel " + Id + " has no executor wiring");
  }
  return I;
}

uint64_t planDigest(const rt::DependenceGraph &G,
                    const rt::CompiledSchedule &S) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(G.numNodes()));
  for (int V = 0; V < G.numNodes(); ++V) {
    Mix(0xffffffffull);
    for (int D : G.successors(V))
      Mix(static_cast<uint64_t>(D));
  }
  rt::CompiledScheduleStats St = rt::describeSchedule(S);
  Mix(static_cast<uint64_t>(St.Base.NumWaves));
  Mix(St.Base.TotalNodes);
  Mix(St.Base.CriticalWork);
  Mix(St.NumChunks);
  for (uint64_t W : St.Base.WaveSizes)
    Mix(W);
  return H;
}

} // namespace pb
