//===- runtime_kernels_test.cpp - Numeric kernel tests ---------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace sds::rt;

namespace {

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

/// Dense multiply L * x for a lower CSR matrix, to verify solves.
std::vector<double> multiplyCSR(const CSRMatrix &L,
                                const std::vector<double> &X) {
  std::vector<double> Y(static_cast<size_t>(L.N), 0);
  for (int I = 0; I < L.N; ++I)
    for (int K = L.RowPtr[I]; K < L.RowPtr[I + 1]; ++K)
      Y[static_cast<size_t>(I)] +=
          L.Val[static_cast<size_t>(K)] *
          X[static_cast<size_t>(L.Col[static_cast<size_t>(K)])];
  return Y;
}

/// A 4-thread schedule of `Kind`; `MinWork` is the LBC window target.
CompiledSchedule schedule4(const DependenceGraph &G, ScheduleKind Kind,
                           double MinWork = 64) {
  ScheduleConfig C;
  C.Kind = Kind;
  C.NumThreads = 4;
  C.MinWorkPerThread = MinWork;
  return buildSchedule(G, C);
}

} // namespace

TEST(ForwardSolve, CSRSolvesTriangularSystem) {
  CSRMatrix L = makeLower(300, 7, 25, 11);
  std::vector<double> B = randomVector(L.N, 1);
  std::vector<double> X;
  forwardSolveCSRSerial(L, B, X);
  EXPECT_LT(maxAbsDiff(multiplyCSR(L, X), B), 1e-9);
}

TEST(ForwardSolve, CSCAgreesWithCSR) {
  CSRMatrix L = makeLower(300, 7, 25, 12);
  CSCMatrix LC = toCSC(L);
  std::vector<double> B = randomVector(L.N, 2);
  std::vector<double> X1, X2;
  forwardSolveCSRSerial(L, B, X1);
  forwardSolveCSCSerial(LC, B, X2);
  EXPECT_LT(maxAbsDiff(X1, X2), 1e-10);
}

TEST(GaussSeidel, SweepReducesResidual) {
  CSRMatrix A = generateSPDLike({200, 7, 20, 13});
  std::vector<double> B = randomVector(A.N, 3);
  std::vector<double> X(static_cast<size_t>(A.N), 0.0);
  auto Residual = [&] {
    std::vector<double> AX;
    spmvCSRSerial(A, X, AX);
    double R = 0;
    for (size_t I = 0; I < AX.size(); ++I)
      R += (AX[I] - B[I]) * (AX[I] - B[I]);
    return std::sqrt(R);
  };
  double R0 = Residual();
  gaussSeidelCSRSerial(A, B, X);
  double R1 = Residual();
  gaussSeidelCSRSerial(A, B, X);
  double R2 = Residual();
  EXPECT_LT(R1, R0 * 0.9);
  EXPECT_LT(R2, R1);
}

TEST(SpMV, MatchesDenseReference) {
  CSRMatrix A = generateSPDLike({50, 5, 10, 14});
  std::vector<double> X = randomVector(A.N, 4);
  std::vector<double> Y;
  spmvCSRSerial(A, X, Y);
  EXPECT_LT(maxAbsDiff(Y, multiplyCSR(A, X)), 1e-12);
}

TEST(IncompleteCholesky, ExactOnDenseBandPattern) {
  // When the pattern admits no fill (a dense band), IC0 equals the exact
  // Cholesky factor: L L^T must reproduce A on and off the pattern.
  int N = 40, Band = 4;
  CSRMatrix A;
  A.N = N;
  A.RowPtr.assign(N + 1, 0);
  for (int I = 0; I < N; ++I)
    for (int J = std::max(0, I - Band); J <= I; ++J) {
      A.Col.push_back(J);
      A.Val.push_back(I == J ? 2.0 * Band + 1 : -0.5);
      ++A.RowPtr[I + 1];
    }
  for (int I = 0; I < N; ++I)
    A.RowPtr[I + 1] += A.RowPtr[I];
  CSCMatrix L = toCSC(A);
  incompleteCholeskyCSCSerial(L);
  // Check (L L^T)(i, j) == A(i, j) for all i, j within the band.
  CSRMatrix LR = toCSR(L);
  auto Entry = [&](const CSRMatrix &M, int I, int J) {
    for (int K = M.RowPtr[I]; K < M.RowPtr[I + 1]; ++K)
      if (M.Col[static_cast<size_t>(K)] == J)
        return M.Val[static_cast<size_t>(K)];
    return 0.0;
  };
  for (int I = 0; I < N; ++I)
    for (int J = std::max(0, I - Band); J <= I; ++J) {
      double Sum = 0;
      for (int K = 0; K <= J; ++K)
        Sum += Entry(LR, I, K) * Entry(LR, J, K);
      EXPECT_NEAR(Sum, I == J ? 2.0 * Band + 1 : -0.5, 1e-9)
          << I << "," << J;
    }
}

TEST(IncompleteCholesky, LeftCholeskyAgrees) {
  // Right-looking IC0 (Figure 4) and left-looking static Cholesky are the
  // same computation in a different loop order.
  CSRMatrix LP = makeLower(250, 9, 30, 15);
  CSCMatrix L1 = toCSC(LP), L2 = toCSC(LP);
  incompleteCholeskyCSCSerial(L1);
  leftCholeskyCSCSerial(L2);
  EXPECT_LT(maxAbsDiff(L1.Val, L2.Val), 1e-9);
}

TEST(IncompleteLU, ReproducesLUOnNoFillPattern) {
  // Dense-band pattern: ILU0 equals exact LU; check L*U == A.
  int N = 30, Band = 3;
  CSRMatrix A;
  A.N = N;
  A.RowPtr.assign(N + 1, 0);
  for (int I = 0; I < N; ++I)
    for (int J = std::max(0, I - Band); J <= std::min(N - 1, I + Band);
         ++J) {
      A.Col.push_back(J);
      A.Val.push_back(I == J ? 4.0 * Band : 1.0 / (1 + std::abs(I - J)));
      ++A.RowPtr[I + 1];
    }
  for (int I = 0; I < N; ++I)
    A.RowPtr[I + 1] += A.RowPtr[I];
  CSRMatrix F = A;
  incompleteLU0CSRSerial(F);
  auto Entry = [&](const CSRMatrix &M, int I, int J) {
    for (int K = M.RowPtr[I]; K < M.RowPtr[I + 1]; ++K)
      if (M.Col[static_cast<size_t>(K)] == J)
        return M.Val[static_cast<size_t>(K)];
    return 0.0;
  };
  auto LEntry = [&](int I, int J) {
    if (J > I)
      return 0.0;
    if (J == I)
      return 1.0;
    return Entry(F, I, J);
  };
  auto UEntry = [&](int I, int J) { return J < I ? 0.0 : Entry(F, I, J); };
  for (int I = 0; I < N; ++I)
    for (int J = std::max(0, I - Band); J <= std::min(N - 1, I + Band);
         ++J) {
      double Sum = 0;
      for (int K = 0; K < N; ++K)
        Sum += LEntry(I, K) * UEntry(K, J);
      EXPECT_NEAR(Sum, Entry(A, I, J), 1e-9) << I << "," << J;
    }
}

//===----------------------------------------------------------------------===//
// Scheduled (wavefront) executors match serial results.
//===----------------------------------------------------------------------===//

class WavefrontExec : public ::testing::TestWithParam<int> {};

TEST_P(WavefrontExec, ForwardSolveMatchesSerial) {
  CSRMatrix L = makeLower(400, 8, 30, static_cast<uint64_t>(GetParam()));
  CSCMatrix LC = toCSC(L);
  std::vector<double> B = randomVector(L.N, 5);
  std::vector<double> XSer, XCSR, XCSC;
  forwardSolveCSRSerial(L, B, XSer);

  DependenceGraph G = exactForwardSolveGraph(LC);
  CompiledSchedule Plain = schedule4(G, ScheduleKind::Levels);
  ASSERT_TRUE(certifySchedule(G, Plain));
  forwardSolveCSRScheduled(L, B, XCSR, Plain);
  EXPECT_LT(maxAbsDiff(XSer, XCSR), 1e-10);

  CompiledSchedule Coarse = schedule4(G, ScheduleKind::LBC, 8);
  ASSERT_TRUE(certifySchedule(G, Coarse));
  forwardSolveCSCScheduled(LC, B, XCSC, Coarse);
  EXPECT_LT(maxAbsDiff(XSer, XCSC), 1e-9);
}

TEST_P(WavefrontExec, GaussSeidelMatchesSerial) {
  CSRMatrix A =
      generateSPDLike({300, 7, 24, static_cast<uint64_t>(GetParam())});
  std::vector<double> B = randomVector(A.N, 6);
  std::vector<double> XSer(static_cast<size_t>(A.N), 0.0), XPar = XSer;
  gaussSeidelCSRSerial(A, B, XSer);

  // Gauss-Seidel's dependence graph: x[i] depends on x[col] for every
  // off-diagonal entry (both directions of access, one direction of time:
  // earlier iterations only).
  DependenceGraph G(A.N);
  for (int I = 0; I < A.N; ++I)
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C < I)
        G.addEdge(C, I);
    }
  G.finalize();
  CompiledSchedule S = schedule4(G, ScheduleKind::Levels);
  ASSERT_TRUE(certifySchedule(G, S));
  gaussSeidelCSRScheduled(A, B, XPar, S);
  EXPECT_LT(maxAbsDiff(XSer, XPar), 1e-10);
}

TEST_P(WavefrontExec, IncompleteCholeskyMatchesSerial) {
  CSRMatrix LP = makeLower(300, 8, 24, static_cast<uint64_t>(GetParam()));
  CSCMatrix LSer = toCSC(LP), LPar = toCSC(LP), LLbc = toCSC(LP);
  incompleteCholeskyCSCSerial(LSer);

  DependenceGraph G = exactCholeskyGraph(LPar);
  CompiledSchedule S = schedule4(G, ScheduleKind::Levels);
  ASSERT_TRUE(certifySchedule(G, S));
  incompleteCholeskyCSCScheduled(LPar, S);
  EXPECT_LT(maxAbsDiff(LSer.Val, LPar.Val), 1e-9);

  CompiledSchedule Coarse = schedule4(G, ScheduleKind::LBC, 4);
  incompleteCholeskyCSCScheduled(LLbc, Coarse);
  EXPECT_LT(maxAbsDiff(LSer.Val, LLbc.Val), 1e-9);
}

TEST_P(WavefrontExec, LeftCholeskyMatchesSerial) {
  CSRMatrix LP = makeLower(300, 8, 24, static_cast<uint64_t>(GetParam()));
  CSCMatrix LSer = toCSC(LP), LPar = toCSC(LP);
  leftCholeskyCSCSerial(LSer);
  DependenceGraph G = exactCholeskyGraph(LPar);
  CompiledSchedule S = schedule4(G, ScheduleKind::Levels);
  leftCholeskyCSCScheduled(LPar, S);
  EXPECT_LT(maxAbsDiff(LSer.Val, LPar.Val), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WavefrontExec, ::testing::Range(100, 106));
