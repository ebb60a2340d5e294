//===- engine_test.cpp - Engine memoization and fingerprinting -------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The serving facade's contract: one cold analysis per (kernel, options)
// and one inspection per (kernel, matrix) for the life of the engine,
// warm hits share the cached objects, artifacts warm-start the kernel
// tier, and the matrix fingerprint never aliases two different bindings.
//
//===----------------------------------------------------------------------===//

#include "sds/engine/Engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

using namespace sds;
using namespace sds::rt;

namespace {

CSRMatrix randomSPD(int N, int Nnz, int Band, uint64_t Seed) {
  GeneratorConfig C;
  C.N = N;
  C.AvgNnzPerRow = Nnz;
  C.Bandwidth = Band;
  C.Seed = Seed;
  return generateSPDLike(C);
}

codegen::UFEnvironment lowerCSC(int N, uint64_t Seed) {
  CSCMatrix L = toCSC(lowerTriangle(randomSPD(N, 5, 12, Seed)));
  return driver::bindCSC(L);
}

} // namespace

TEST(EngineKernelTier, ColdOnceThenWarm) {
  engine::Engine E;
  kernels::Kernel K = kernels::forwardSolveCSC();
  auto A = E.compiled(K);
  auto B = E.compiled(K);
  EXPECT_EQ(A.get(), B.get()); // shared, not re-analyzed
  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.KernelCold, 1u);
  EXPECT_EQ(S.KernelWarm, 1u);
  EXPECT_EQ(A->KernelName, K.Name);
  EXPECT_EQ(A->Options.key(), "PES--");
}

TEST(EngineMatrixTier, WarmHitSharesPlanColdMissDoesNot) {
  engine::Engine E;
  kernels::Kernel K = kernels::forwardSolveCSC();
  codegen::UFEnvironment Env = lowerCSC(120, 7);
  int N = static_cast<int>(Env.Params.at("n"));

  auto P1 = E.plan(K, Env, N);
  auto P2 = E.plan(K, Env, N);
  EXPECT_EQ(P1.get(), P2.get());
  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.MatrixCold, 1u);
  EXPECT_EQ(S.MatrixWarm, 1u);
  EXPECT_TRUE(rt::certifySchedule(P1->Inspection.Graph, P1->Schedule));

  // A different matrix of the same kernel is a different plan.
  codegen::UFEnvironment Env2 = lowerCSC(120, 8);
  auto P3 = E.plan(K, Env2, static_cast<int>(Env2.Params.at("n")));
  EXPECT_NE(P1.get(), P3.get());
  EXPECT_EQ(E.stats().MatrixCold, 2u);
}

TEST(EngineMatrixTier, EvictionPastCapacity) {
  engine::EngineOptions Opts;
  Opts.MaxMatrixPlans = 1;
  engine::Engine E(Opts);
  kernels::Kernel K = kernels::forwardSolveCSC();
  codegen::UFEnvironment EnvA = lowerCSC(100, 1);
  codegen::UFEnvironment EnvB = lowerCSC(100, 2);
  (void)E.plan(K, EnvA, static_cast<int>(EnvA.Params.at("n")));
  (void)E.plan(K, EnvB, static_cast<int>(EnvB.Params.at("n")));
  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.MatrixCold, 2u);
  EXPECT_GE(S.MatrixEvicted, 1u);
}

TEST(EngineMatrixTier, LruKeepsHotPlanThroughColdScan) {
  // Regression: the matrix tier evicts least-recently-USED, not
  // first-inserted. A hot plan touched between one-shot cold fills must
  // survive a scan longer than the cache capacity.
  engine::EngineOptions Opts;
  Opts.MaxMatrixPlans = 2;
  engine::Engine E(Opts);
  kernels::Kernel K = kernels::forwardSolveCSC();
  codegen::UFEnvironment Hot = lowerCSC(100, 10);
  int HotN = static_cast<int>(Hot.Params.at("n"));
  auto P = E.plan(K, Hot, HotN);
  for (uint64_t Seed = 20; Seed < 24; ++Seed) {
    codegen::UFEnvironment Cold = lowerCSC(100, Seed);
    (void)E.plan(K, Cold, static_cast<int>(Cold.Params.at("n")));
    EXPECT_EQ(E.plan(K, Hot, HotN).get(), P.get()); // still the same object
  }
  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.MatrixCold, 5u);    // hot + 4 scan keys
  EXPECT_EQ(S.MatrixWarm, 4u);    // every re-touch of the hot plan
  EXPECT_EQ(S.MatrixEvicted, 3u); // only the scan's own entries
}

TEST(EngineFingerprint, DistinguishesContentsNotIdentity) {
  // Two binds of the same matrix data fingerprint identically...
  CSCMatrix L = toCSC(lowerTriangle(randomSPD(80, 5, 12, 3)));
  uint64_t F1 = engine::fingerprintEnvironment(driver::bindCSC(L));
  uint64_t F2 = engine::fingerprintEnvironment(driver::bindCSC(L));
  EXPECT_EQ(F1, F2);

  // ...while one changed index, one changed parameter, or one renamed
  // array each produce a different fingerprint.
  CSCMatrix M = L;
  ASSERT_FALSE(M.RowIdx.empty());
  M.RowIdx[0] = M.RowIdx[0] == 0 ? 1 : 0;
  EXPECT_NE(F1, engine::fingerprintEnvironment(driver::bindCSC(M)));

  codegen::UFEnvironment Env = driver::bindCSC(L);
  Env.Params["n"] += 1;
  EXPECT_NE(F1, engine::fingerprintEnvironment(Env));
}

namespace {

/// One span "a" holding `V`, next to a fixed second span and a parameter
/// so the sweep hashes realistic multi-field environments.
uint64_t fpOf(const std::vector<int> &V) {
  codegen::UFEnvironment Env;
  Env.bindArray("a", V);
  Env.bindArray("z", {5, 6, 7});
  Env.Params["n"] = 9;
  return engine::fingerprintEnvironment(Env);
}

std::vector<int> distinctValues(size_t Len) {
  std::vector<int> V(Len);
  for (size_t I = 0; I < Len; ++I)
    V[I] = static_cast<int>(I * 7 + 3);
  return V;
}

} // namespace

// Lengths 0..70 ints cover every tail length on both sides of the hash's
// 32-byte stripe, several stripes deep.
TEST(EngineFingerprint, EverySingleElementFlipMisses) {
  for (size_t Len = 0; Len <= 70; ++Len) {
    const std::vector<int> Base = distinctValues(Len);
    const uint64_t F = fpOf(Base);
    for (size_t P = 0; P < Len; ++P)
      for (unsigned Bit : {0u, 15u, 31u}) {
        std::vector<int> V = Base;
        V[P] = static_cast<int>(static_cast<unsigned>(V[P]) ^ (1u << Bit));
        EXPECT_NE(F, fpOf(V)) << "len " << Len << " pos " << P << " bit "
                              << Bit;
      }
  }
}

TEST(EngineFingerprint, SwappingUnequalElementsMisses) {
  for (size_t Len = 2; Len <= 70; ++Len) {
    const std::vector<int> Base = distinctValues(Len);
    const uint64_t F = fpOf(Base);
    for (size_t I = 0; I < Len; ++I)
      for (size_t J = I + 1; J < Len; ++J) {
        std::vector<int> V = Base;
        std::swap(V[I], V[J]);
        EXPECT_NE(F, fpOf(V)) << "len " << Len << " swap " << I << "," << J;
      }
  }
}

TEST(EngineFingerprint, MovingAnElementAcrossSpansMisses) {
  auto Split = [](const std::vector<int> &V, size_t K) {
    codegen::UFEnvironment Env;
    Env.bindArray("a", std::vector<int>(V.begin(), V.begin() + K));
    Env.bindArray("b", std::vector<int>(V.begin() + K, V.end()));
    return engine::fingerprintEnvironment(Env);
  };
  EXPECT_NE(Split({1, 2, 3}, 2), Split({1, 2, 3}, 1)); // {1,2},{3} vs {1},{2,3}
  for (size_t Len = 1; Len <= 70; ++Len) {
    const std::vector<int> V = distinctValues(Len);
    for (size_t K = 0; K < Len; ++K)
      EXPECT_NE(Split(V, K), Split(V, K + 1)) << "len " << Len << " cut " << K;
  }
}

TEST(EngineArtifacts, LoadWarmStartsTheKernelTier) {
  kernels::Kernel K = kernels::forwardSolveCSC();
  std::string Path = ::testing::TempDir() + "sds_engine_artifact.json";
  codegen::UFEnvironment Env = lowerCSC(120, 7);
  int N = static_cast<int>(Env.Params.at("n"));

  engine::Engine Producer;
  ASSERT_TRUE(Producer.saveArtifact(K, Path).ok());
  auto FreshPlan = Producer.plan(K, Env, N);

  engine::Engine Consumer;
  ASSERT_TRUE(Consumer.loadArtifact(Path).ok());
  engine::EngineStats S = Consumer.stats();
  EXPECT_EQ(S.KernelLoaded, 1u);
  EXPECT_EQ(S.KernelCold, 0u);

  // compiled() now hits warm — the analysis pipeline never runs in this
  // process — and the plan built from the loaded artifact is identical.
  auto CK = Consumer.compiled(K);
  EXPECT_EQ(Consumer.stats().KernelWarm, 1u);
  EXPECT_EQ(Consumer.stats().KernelCold, 0u);
  EXPECT_EQ(artifact::serialize(*CK),
            artifact::serialize(*Producer.compiled(K)));

  auto LoadedPlan = Consumer.plan(K, Env, N);
  ASSERT_EQ(FreshPlan->Inspection.Graph.numNodes(),
            LoadedPlan->Inspection.Graph.numNodes());
  EXPECT_EQ(FreshPlan->Inspection.Graph.numEdges(),
            LoadedPlan->Inspection.Graph.numEdges());
  EXPECT_EQ(FreshPlan->Schedule.Waves.Waves, LoadedPlan->Schedule.Waves.Waves);
  std::remove(Path.c_str());
}

TEST(EngineArtifacts, RejectedBlobLeavesCacheUntouched) {
  engine::Engine E;
  std::string Path = ::testing::TempDir() + "sds_engine_corrupt.json";
  FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fputs("{\"magic\":\"nope\"}", F);
  std::fclose(F);
  support::Status S = E.loadArtifact(Path);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(E.stats().KernelLoaded, 0u);
  std::remove(Path.c_str());
}

TEST(EngineClear, DropsTiersKeepsStats) {
  engine::Engine E;
  kernels::Kernel K = kernels::forwardSolveCSC();
  (void)E.compiled(K);
  E.clear();
  (void)E.compiled(K);
  engine::EngineStats S = E.stats();
  EXPECT_EQ(S.KernelCold, 2u); // cleared tier re-fills cold
}
