//===- runtime_schedule_test.cpp - Schedule post-pass framework tests ------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Covers the pass framework of DESIGN.md §14: every schedule kind
// certifies on arbitrary DAGs at every thread count, the coalescer only
// removes waves, and the compiled-schedule executors reproduce the serial
// kernels — bitwise for the pull-based kernels, to 1e-9 for the
// atomic-update ones.
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Kernels.h"
#include "sds/runtime/Schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

using namespace sds::rt;

namespace {

constexpr ScheduleKind kAllKinds[] = {ScheduleKind::Levels, ScheduleKind::LBC,
                                      ScheduleKind::Coalesced};

DependenceGraph randomDAG(int N, int EdgesPerNode, uint64_t Seed) {
  std::mt19937 Rng(static_cast<unsigned>(Seed));
  DependenceGraph G(N);
  std::uniform_int_distribution<int> NodeDist(0, N - 1);
  for (int E = 0; E < N * EdgesPerNode; ++E) {
    int A = NodeDist(Rng), B = NodeDist(Rng);
    if (A < B)
      G.addEdge(A, B);
  }
  G.finalize();
  return G;
}

ScheduleConfig config(ScheduleKind Kind, int Threads,
                      double MinWork = 8) {
  ScheduleConfig C;
  C.Kind = Kind;
  C.NumThreads = Threads;
  C.MinWorkPerThread = MinWork;
  return C;
}

CSRMatrix makeLower(int N, int Nnz, int Band, uint64_t Seed) {
  GeneratorConfig C;
  C.N = N;
  C.AvgNnzPerRow = Nnz;
  C.Bandwidth = Band;
  C.Seed = Seed;
  return lowerTriangle(generateSPDLike(C));
}

std::vector<double> randomVector(int N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Dist(-1, 1);
  std::vector<double> V(static_cast<size_t>(N));
  for (double &X : V)
    X = Dist(Rng);
  return V;
}

double maxAbsDiff(const std::vector<double> &A, const std::vector<double> &B) {
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

/// Bitwise equality, element by element (EXPECT_EQ on doubles conflates
/// +0.0/-0.0; the bit-identity contract is about the representation).
void expectBitIdentical(const std::vector<double> &A,
                        const std::vector<double> &B,
                        const std::string &Label) {
  ASSERT_EQ(A.size(), B.size()) << Label;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(std::memcmp(&A[I], &B[I], sizeof(double)), 0)
        << Label << ": bit mismatch at " << I << " (" << A[I]
        << " vs " << B[I] << ")";
}

/// Gauss-Seidel dependence graph (same construction as the wavefront
/// executor tests): row I depends on every earlier column it reads.
DependenceGraph gaussSeidelGraph(const CSRMatrix &A) {
  DependenceGraph G(A.N);
  for (int I = 0; I < A.N; ++I)
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C < I)
        G.addEdge(C, I);
    }
  G.finalize();
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// Config and kind plumbing
//===----------------------------------------------------------------------===//

TEST(ScheduleConfig, KindNamesRoundTrip) {
  for (ScheduleKind K : kAllKinds) {
    auto Parsed = parseScheduleKind(scheduleKindName(K));
    ASSERT_TRUE(Parsed.has_value()) << scheduleKindName(K);
    EXPECT_EQ(*Parsed, K);
  }
  EXPECT_FALSE(parseScheduleKind("nonsense").has_value());
  EXPECT_FALSE(parseScheduleKind("").has_value());
  // Removed kinds.
  EXPECT_EQ(parseScheduleKind("vector"), std::nullopt);
  EXPECT_EQ(parseScheduleKind("p2p"), std::nullopt);
}

TEST(ScheduleConfig, KeySeparatesKindsAndKnobs) {
  std::vector<std::string> Keys;
  for (ScheduleKind K : kAllKinds)
    Keys.push_back(config(K, 8).key());
  std::sort(Keys.begin(), Keys.end());
  EXPECT_EQ(std::unique(Keys.begin(), Keys.end()), Keys.end())
      << "two kinds share a cache key";
  // Thread count and knobs are part of the key too: a 4-thread plan must
  // never serve an 8-thread executor.
  EXPECT_NE(config(ScheduleKind::Coalesced, 4).key(),
            config(ScheduleKind::Coalesced, 8).key());
  ScheduleConfig A = config(ScheduleKind::Coalesced, 8);
  ScheduleConfig B = A;
  B.CoalesceFactor = 4.0;
  EXPECT_NE(A.key(), B.key());
}

//===----------------------------------------------------------------------===//
// Certification over every kind x random graphs x thread counts
//===----------------------------------------------------------------------===//

class ScheduleRandom : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleRandom, EveryKindCertifies) {
  DependenceGraph G =
      randomDAG(64 + GetParam() * 16, 3, static_cast<uint64_t>(GetParam()));
  for (ScheduleKind Kind : kAllKinds)
    for (int Threads : {1, 2, 4, 8}) {
      CompiledSchedule S = buildSchedule(G, config(Kind, Threads));
      std::string Label = std::string(scheduleKindName(Kind)) +
                          " threads=" + std::to_string(Threads);
      EXPECT_TRUE(certifySchedule(G, S)) << Label;
      EXPECT_EQ(describeSchedule(S).Base.TotalNodes,
                static_cast<uint64_t>(G.numNodes()))
          << Label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleRandom, ::testing::Range(0, 10));

TEST(SchedulePasses, CoalesceOnlyRemovesWaves) {
  // Many short waves (parallel chains): coalescing must strictly help on
  // this shape, and can never produce more waves than its input.
  int N = 512;
  DependenceGraph G(N);
  for (int I = 0; I + 4 < N; I += 4)
    G.addEdge(I, I + 4); // four independent chains of length N/4
  G.finalize();
  for (int Threads : {1, 2, 4}) {
    CompiledSchedule Base = buildSchedule(G, config(ScheduleKind::LBC,
                                                    Threads));
    CompiledSchedule Co =
        buildSchedule(G, config(ScheduleKind::Coalesced, Threads));
    EXPECT_LE(Co.numWaves(), Base.numWaves()) << "threads=" << Threads;
    EXPECT_TRUE(certifySchedule(G, Co));
  }
  // At one thread balance is moot: the chain collapses to very few waves.
  CompiledSchedule One = buildSchedule(G, config(ScheduleKind::Coalesced, 1));
  EXPECT_LT(One.numWaves(),
            buildSchedule(G, config(ScheduleKind::Levels, 1)).numWaves() / 4);
}

TEST(SchedulePasses, CoalesceKeepsDominantComponentsBounded) {
  // A single chain serializes entirely if merged greedily; the balance
  // probe must cap the dominant component near MinWorkPerThread so other
  // threads keep getting work at larger thread counts.
  int N = 1024;
  DependenceGraph G(N);
  for (int I = 0; I + 1 < N; ++I)
    if (I % 2 == 0)
      G.addEdge(I, I + 1); // N/2 two-node chains: wide but shallow
  G.finalize();
  CompiledSchedule S = buildSchedule(G, config(ScheduleKind::Coalesced, 4));
  ASSERT_TRUE(certifySchedule(G, S));
  CompiledScheduleStats St = describeSchedule(S);
  // Wide-shallow graphs stay parallel after coalescing.
  EXPECT_GT(St.Base.achievedParallelism(), 1.5);
}

TEST(Certify, DetectsCorruptedSchedules) {
  DependenceGraph G = randomDAG(100, 3, 21);
  // Reverse the waves: dependences now point backwards.
  CompiledSchedule W = buildSchedule(G, config(ScheduleKind::Coalesced, 2));
  ASSERT_TRUE(certifySchedule(G, W));
  if (W.Waves.Waves.size() > 1) {
    std::reverse(W.Waves.Waves.begin(), W.Waves.Waves.end());
    EXPECT_FALSE(certifySchedule(G, W));
  }
}

//===----------------------------------------------------------------------===//
// Compiled-schedule executors vs serial kernels
//===----------------------------------------------------------------------===//

class ScheduledExec : public ::testing::TestWithParam<int> {};

TEST_P(ScheduledExec, AllKindsMatchSerial) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  CSRMatrix L = makeLower(350, 8, 28, Seed);
  CSCMatrix LC = toCSC(L);
  CSRMatrix A = generateSPDLike({300, 7, 24, Seed + 1});
  std::vector<double> B = randomVector(L.N, Seed + 2);
  std::vector<double> BG = randomVector(A.N, Seed + 3);

  std::vector<double> XSer, GSer(static_cast<size_t>(A.N), 0.0);
  forwardSolveCSRSerial(L, B, XSer);
  gaussSeidelCSRSerial(A, BG, GSer);
  CSCMatrix CholSer = toCSC(L), IC0Ser = toCSC(L);
  leftCholeskyCSCSerial(CholSer);
  incompleteCholeskyCSCSerial(IC0Ser);

  DependenceGraph GF = exactForwardSolveGraph(LC);
  DependenceGraph GG = gaussSeidelGraph(A);
  DependenceGraph GC = exactCholeskyGraph(LC);

  for (ScheduleKind Kind : kAllKinds)
    for (int Threads : {1, 2, 4, 8}) {
      std::string Label = std::string(scheduleKindName(Kind)) +
                          " threads=" + std::to_string(Threads) +
                          " seed=" + std::to_string(Seed);
      CompiledSchedule SF = buildSchedule(GF, config(Kind, Threads));
      CompiledSchedule SG = buildSchedule(GG, config(Kind, Threads));
      CompiledSchedule SC = buildSchedule(GC, config(Kind, Threads));
      ASSERT_TRUE(certifySchedule(GF, SF)) << Label;
      ASSERT_TRUE(certifySchedule(GG, SG)) << Label;
      ASSERT_TRUE(certifySchedule(GC, SC)) << Label;

      // Pull-based kernels: each value is produced by exactly one node in
      // the serial accumulation order — bitwise identical under any
      // schedule shape and thread count.
      std::vector<double> X;
      forwardSolveCSRScheduled(L, B, X, SF);
      expectBitIdentical(XSer, X, "fs_csr " + Label);

      std::vector<double> XG(static_cast<size_t>(A.N), 0.0);
      gaussSeidelCSRScheduled(A, BG, XG, SG);
      expectBitIdentical(GSer, XG, "gs_csr " + Label);

      CSCMatrix Chol = toCSC(L);
      leftCholeskyCSCScheduled(Chol, SC);
      expectBitIdentical(CholSer.Val, Chol.Val, "lchol_csc " + Label);

      // Push-based kernels use commutative atomic updates: order-sensitive
      // in the last ulp, so tolerance-checked.
      std::vector<double> XC;
      forwardSolveCSCScheduled(LC, B, XC, SF);
      EXPECT_LT(maxAbsDiff(XSer, XC), 1e-9) << "fs_csc " << Label;

      CSCMatrix IC0 = toCSC(L);
      incompleteCholeskyCSCScheduled(IC0, SC);
      EXPECT_LT(maxAbsDiff(IC0Ser.Val, IC0.Val), 1e-9) << "ic0_csc " << Label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduledExec, ::testing::Range(200, 203));
