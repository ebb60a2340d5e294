//===- driver_parallel_test.cpp - Parallel inspector determinism -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The contract behind driver::InspectorOptions::NumThreads: for every
// kernel of the suite and any thread count, the parallel inspector fleet
// must produce a dependence graph *bitwise identical* to the serial run
// (same edges, same per-inspector visit/edge accounting), and the graph
// must cover the brute-force dependence DAG where one is computable.
// These tests are the tier-1 gate for the threading model; run them under
// -DSDS_SANITIZE=thread to check the parallel region itself.
//
//===----------------------------------------------------------------------===//

#include "sds/driver/Driver.h"
#include "sds/runtime/Schedule.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Full analysis is seconds for the solver kernels but minutes for the
/// factorizations; the determinism property is about the *runtime* fleet,
/// not the simplifier, so heavy kernels run with the analysis passes off
/// (pure extraction + naive inspectors) on small matrices.
deps::PipelineOptions reducedOptions() {
  deps::PipelineOptions Opts;
  Opts.UseProperties = false;
  Opts.UseEqualities = false;
  Opts.UseSubsets = false;
  Opts.Simp.SemanticPhase1 = false;
  Opts.Simp.InstantiationRounds = 1;
  Opts.Simp.MaxInstances = 2000;
  Opts.Simp.MaxPhase2Instances = 2;
  Opts.Simp.MaxPieces = 16;
  return Opts;
}

struct SuiteCase {
  std::string Key;
  deps::PipelineResult Analysis;
  codegen::UFEnvironment Env;
  int N;
};

/// Bind the right arrays for one kernel key on a random SPD-like matrix.
SuiteCase wire(const std::string &Key, const kernels::Kernel &K,
               const deps::PipelineOptions &Opts, int N, uint64_t Seed) {
  SuiteCase C;
  C.Key = Key;
  C.Analysis = deps::analyzeKernel(K, Opts);
  CSRMatrix A = randomSPD(N, 5, 12, Seed);
  if (Key == "gs_csr" || Key == "ilu0_csr") {
    C.Env = driver::bindCSR(A, A.diagonalPositions());
    C.N = A.N;
  } else if (Key == "spmv_csr") {
    C.Env = driver::bindCSR(A);
    C.N = A.N;
  } else if (Key == "fs_csr") {
    CSRMatrix Lower = lowerTriangle(A);
    C.Env = driver::bindCSR(Lower);
    C.N = Lower.N;
  } else {
    CSCMatrix L = toCSC(lowerTriangle(A));
    if (Key == "lchol_csc") {
      PruneSets Prune = buildPruneSets(L);
      C.Env = driver::bindCSC(L, &Prune);
    } else {
      C.Env = driver::bindCSC(L);
    }
    C.N = L.N;
  }
  return C;
}

void expectGraphsEqual(const DependenceGraph &A, const DependenceGraph &B,
                       const std::string &Label) {
  ASSERT_EQ(A.numNodes(), B.numNodes()) << Label;
  EXPECT_EQ(A.numEdges(), B.numEdges()) << Label;
  for (int U = 0; U < A.numNodes(); ++U) {
    auto SA = A.successors(U);
    auto SB = B.successors(U);
    ASSERT_TRUE(std::equal(SA.begin(), SA.end(), SB.begin(), SB.end()))
        << Label << ": successor mismatch at node " << U;
  }
}

void checkKernelDeterminism(const std::string &Key, const kernels::Kernel &K,
                            const deps::PipelineOptions &Opts, int N,
                            std::vector<uint64_t> Seeds = {11, 29}) {
  for (uint64_t Seed : Seeds) {
    SuiteCase C = wire(Key, K, Opts, N, Seed);
    driver::InspectionResult Serial =
        driver::runInspectors(C.Analysis, C.Env, C.N);
    for (int Threads : {2, 3, 8}) {
      driver::InspectorOptions IOpts;
      IOpts.NumThreads = Threads;
      driver::InspectionResult Par =
          driver::runInspectors(C.Analysis, C.Env, C.N, IOpts);
      std::string Label =
          Key + " seed=" + std::to_string(Seed) +
          " threads=" + std::to_string(Threads);
      EXPECT_EQ(Serial.InspectorVisits, Par.InspectorVisits) << Label;
      ASSERT_EQ(Serial.Runs.size(), Par.Runs.size()) << Label;
      for (size_t I = 0; I < Serial.Runs.size(); ++I) {
        EXPECT_EQ(Serial.Runs[I].Label, Par.Runs[I].Label) << Label;
        EXPECT_EQ(Serial.Runs[I].Visits, Par.Runs[I].Visits) << Label;
        EXPECT_EQ(Serial.Runs[I].Edges, Par.Runs[I].Edges) << Label;
      }
      expectGraphsEqual(Serial.Graph, Par.Graph, Label);
    }
  }
}

} // namespace

TEST(ParallelDeterminism, ForwardSolveCSR) {
  checkKernelDeterminism("fs_csr", kernels::forwardSolveCSR(), {}, 150);
}

TEST(ParallelDeterminism, ForwardSolveCSC) {
  checkKernelDeterminism("fs_csc", kernels::forwardSolveCSC(), {}, 150);
}

TEST(ParallelDeterminism, GaussSeidelCSR) {
  checkKernelDeterminism("gs_csr", kernels::gaussSeidelCSR(), {}, 150);
}

TEST(ParallelDeterminism, SpMVCSR) {
  checkKernelDeterminism("spmv_csr", kernels::spmvCSR(), {}, 150);
}

TEST(ParallelDeterminism, IncompleteLU0CSRNaive) {
  checkKernelDeterminism("ilu0_csr", kernels::incompleteLU0CSR(),
                         reducedOptions(), 60);
}

TEST(ParallelDeterminism, IncompleteCholeskyCSCNaive) {
  checkKernelDeterminism("ic0_csc", kernels::incompleteCholeskyCSC(),
                         reducedOptions(), 60);
}

TEST(ParallelDeterminism, LeftCholeskyCSCNaive) {
  checkKernelDeterminism("lchol_csc", kernels::leftCholeskyCSC(),
                         reducedOptions(), 60);
}

TEST(ParallelDeterminism, EveryScheduleKindCertifiesOnEveryKernel) {
  // The generic certificate (the brute-force DAG cover promoted into
  // rt::certifySchedule) must hold for every pass combination the
  // framework can produce, over the inspector graph of every kernel of
  // the suite, at every thread count.
  struct Entry {
    const char *Key;
    kernels::Kernel K;
    deps::PipelineOptions Opts;
    int N;
  };
  const Entry Suite[] = {
      {"fs_csr", kernels::forwardSolveCSR(), {}, 120},
      {"fs_csc", kernels::forwardSolveCSC(), {}, 120},
      {"gs_csr", kernels::gaussSeidelCSR(), {}, 120},
      {"spmv_csr", kernels::spmvCSR(), {}, 120},
      {"ilu0_csr", kernels::incompleteLU0CSR(), reducedOptions(), 50},
      {"ic0_csc", kernels::incompleteCholeskyCSC(), reducedOptions(), 50},
      {"lchol_csc", kernels::leftCholeskyCSC(), reducedOptions(), 50},
  };
  const rt::ScheduleKind Kinds[] = {rt::ScheduleKind::Levels,
                                    rt::ScheduleKind::LBC,
                                    rt::ScheduleKind::Coalesced};
  for (const Entry &E : Suite) {
    SuiteCase C = wire(E.Key, E.K, E.Opts, E.N, 47);
    driver::InspectionResult Insp =
        driver::runInspectors(C.Analysis, C.Env, C.N);
    for (rt::ScheduleKind Kind : Kinds)
      for (int Threads : {1, 2, 4, 8}) {
        rt::ScheduleConfig SC;
        SC.Kind = Kind;
        SC.NumThreads = Threads;
        SC.MinWorkPerThread = 8;
        rt::CompiledSchedule S = rt::buildSchedule(Insp.Graph, SC);
        EXPECT_TRUE(rt::certifySchedule(Insp.Graph, S))
            << E.Key << " " << rt::scheduleKindName(Kind)
            << " threads=" << Threads;
      }
  }
}

TEST(ParallelDeterminism, CoversBruteForceForwardSolveDAG) {
  // The inspector DAG (any thread count) must contain every edge of the
  // brute-force dependence DAG read directly off the factor's structure.
  CSRMatrix Lower = lowerTriangle(randomSPD(200, 7, 20, 77));
  CSCMatrix L = toCSC(Lower);
  auto Analysis = deps::analyzeKernel(kernels::forwardSolveCSR());
  auto Env = driver::bindCSR(Lower);
  driver::InspectorOptions IOpts;
  IOpts.NumThreads = 4;
  driver::InspectionResult Insp =
      driver::runInspectors(Analysis, Env, Lower.N, IOpts);
  DependenceGraph Exact = exactForwardSolveGraph(L);
  for (int U = 0; U < Exact.numNodes(); ++U)
    for (int V : Exact.successors(U)) {
      auto Succ = Insp.Graph.successors(U);
      EXPECT_TRUE(std::find(Succ.begin(), Succ.end(), V) != Succ.end())
          << "missing dependence " << U << " -> " << V;
    }
}
