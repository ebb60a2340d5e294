//===- integration_test.cpp - Full pipeline on real matrices ---------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The crown-jewel checks: analyze a kernel, run the *generated* inspectors
// on a concrete matrix, build the dependence graph, schedule wavefronts,
// execute in parallel, and compare against the serial kernel — plus the
// Figure 1 -> Figure 2 golden path from the paper.
//
//===----------------------------------------------------------------------===//

#include "sds/driver/Driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

using namespace sds;
using namespace sds::rt;

namespace {

CSRMatrix figure1Matrix() {
  CSRMatrix A;
  A.N = 4;
  A.RowPtr = {0, 1, 2, 4, 7};
  A.Col = {0, 1, 0, 2, 0, 2, 3};
  A.Val = {1, 2, 3, 4, 5, 6, 7};
  return A;
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

/// Shared analysis results (each analyzeKernel run costs seconds; do them
/// once per suite).
const deps::PipelineResult &fsCSRAnalysis() {
  static deps::PipelineResult R =
      deps::analyzeKernel(kernels::forwardSolveCSR());
  return R;
}
const deps::PipelineResult &fsCSCAnalysis() {
  static deps::PipelineResult R =
      deps::analyzeKernel(kernels::forwardSolveCSC());
  return R;
}
const deps::PipelineResult &gsCSRAnalysis() {
  static deps::PipelineResult R =
      deps::analyzeKernel(kernels::gaussSeidelCSR());
  return R;
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

TEST(Integration, Figure1MatrixYieldsFigure2Waves) {
  // Forward solve CSR on Figure 1's matrix: the generated inspector must
  // reconstruct Figure 2's dependence graph and waves {0,1},{2},{3}.
  CSRMatrix A = figure1Matrix();
  auto Env = driver::bindCSR(A);
  driver::InspectionResult Insp =
      driver::runInspectors(fsCSRAnalysis(), Env, A.N);
  EXPECT_EQ(Insp.NumInspectors, 1u);
  EXPECT_EQ(Insp.Graph.numEdges(), 3u);
  auto Succ0 = Insp.Graph.successors(0);
  auto Succ2 = Insp.Graph.successors(2);
  EXPECT_EQ(std::vector<int>(Succ0.begin(), Succ0.end()),
            (std::vector<int>{2, 3}));
  EXPECT_EQ(std::vector<int>(Succ2.begin(), Succ2.end()),
            (std::vector<int>{3}));

  LevelSets LS = computeLevelSets(Insp.Graph);
  ASSERT_EQ(LS.numLevels(), 3);
  EXPECT_EQ(LS.Levels[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(LS.Levels[1], (std::vector<int>{2}));
  EXPECT_EQ(LS.Levels[2], (std::vector<int>{3}));
}

TEST(Integration, InspectorGraphCoversExactDependences) {
  // The generated inspector's DAG must contain every true dependence (it
  // may not miss any; extra edges would only cost performance).
  CSRMatrix L = makeLower(150, 8, 25, 42);
  CSCMatrix LC = toCSC(L);
  auto Env = driver::bindCSR(L);
  driver::InspectionResult Insp =
      driver::runInspectors(fsCSRAnalysis(), Env, L.N);
  DependenceGraph Exact = exactForwardSolveGraph(LC);
  for (int U = 0; U < Exact.numNodes(); ++U)
    for (int V : Exact.successors(U)) {
      const auto Succ = Insp.Graph.successors(U);
      EXPECT_TRUE(std::find(Succ.begin(), Succ.end(), V) != Succ.end())
          << "missing dependence " << U << " -> " << V;
    }
}

TEST(Integration, ForwardSolveCSREndToEnd) {
  CSRMatrix L = makeLower(500, 9, 40, 7);
  std::vector<double> B = randomVector(L.N, 3);

  auto Env = driver::bindCSR(L);
  driver::InspectionResult Insp =
      driver::runInspectors(fsCSRAnalysis(), Env, L.N);

  CompiledSchedule S = schedule4(Insp.Graph, ScheduleKind::Levels);
  ASSERT_TRUE(certifySchedule(Insp.Graph, S));

  std::vector<double> XSer, XPar;
  forwardSolveCSRSerial(L, B, XSer);
  forwardSolveCSRScheduled(L, B, XPar, S);
  EXPECT_LT(maxAbsDiff(XSer, XPar), 1e-10);
}

TEST(Integration, ForwardSolveCSCEndToEndWithLBC) {
  CSRMatrix LR = makeLower(500, 9, 40, 8);
  CSCMatrix L = toCSC(LR);
  std::vector<double> B = randomVector(L.N, 4);

  auto Env = driver::bindCSC(L);
  driver::InspectionResult Insp =
      driver::runInspectors(fsCSCAnalysis(), Env, L.N);

  CompiledSchedule S = schedule4(Insp.Graph, ScheduleKind::LBC, 16);
  ASSERT_TRUE(certifySchedule(Insp.Graph, S));

  std::vector<double> XSer, XPar;
  forwardSolveCSCSerial(L, B, XSer);
  forwardSolveCSCScheduled(L, B, XPar, S);
  EXPECT_LT(maxAbsDiff(XSer, XPar), 1e-9);
}

TEST(Integration, GaussSeidelEndToEnd) {
  CSRMatrix A = generateSPDLike({400, 9, 32, 9});
  std::vector<double> B = randomVector(A.N, 5);

  auto Env = driver::bindCSR(A, A.diagonalPositions());
  driver::InspectionResult Insp =
      driver::runInspectors(gsCSRAnalysis(), Env, A.N);
  EXPECT_EQ(Insp.NumInspectors, 2u); // both read/write directions

  CompiledSchedule S = schedule4(Insp.Graph, ScheduleKind::Levels);
  ASSERT_TRUE(certifySchedule(Insp.Graph, S));

  std::vector<double> XSer(static_cast<size_t>(A.N), 0.0), XPar = XSer;
  gaussSeidelCSRSerial(A, B, XSer);
  gaussSeidelCSRScheduled(A, B, XPar, S);
  EXPECT_LT(maxAbsDiff(XSer, XPar), 1e-10);
}

TEST(Integration, InspectorWorkTracksComplexity) {
  // The nnz-complexity forward-solve inspector must visit O(nnz) points:
  // doubling nnz roughly doubles visits (and certainly does not square
  // them).
  CSRMatrix L1 = makeLower(400, 6, 30, 10);
  CSRMatrix L2 = makeLower(400, 12, 30, 10);
  auto E1 = driver::bindCSR(L1), E2 = driver::bindCSR(L2);
  uint64_t V1 = driver::runInspectors(fsCSRAnalysis(), E1, L1.N)
                    .InspectorVisits;
  uint64_t V2 = driver::runInspectors(fsCSRAnalysis(), E2, L2.N)
                    .InspectorVisits;
  double Ratio = double(V2) / double(V1);
  double NnzRatio = double(L2.nnz()) / double(L1.nnz());
  EXPECT_LT(Ratio, NnzRatio * 2.0);
}

TEST(Integration, MalformedPropertiesStillSound) {
  // Failure injection: analyze forward solve CSR but run its inspector on
  // a matrix that VIOLATES triangularity (a full general matrix). The
  // relation's own constraints still hold, so the inspector simply finds
  // edges; nothing crashes and the graph stays forward-only.
  CSRMatrix A = generateSPDLike({100, 7, 20, 11});
  auto Env = driver::bindCSR(A);
  driver::InspectionResult Insp =
      driver::runInspectors(fsCSRAnalysis(), Env, A.N);
  EXPECT_TRUE(Insp.Graph.isForwardOnly());
}
