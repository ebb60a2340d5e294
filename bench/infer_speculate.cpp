//===- infer_speculate.cpp - Speculative-inference recovery bench ---------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The headline measurement for the inverted property flow: for every
// kernel of Table 2, throw away the hand-declared Table 1 properties,
// profile the bound arrays (sds::infer, O(n + nnz) per candidate), analyze
// speculatively against the profiler-confirmed set, and demand that the
// dependence graph served at runtime is *bit-identical* to the one the
// declared analysis produces — same nodes, same edge lists, edge for
// edge. Where the profile confirms the declared trust base, speculation
// must recover every elimination annotations bought, for free.
//
// Alongside the recovery check the bench records the machine-independent
// speculation counts per kernel (candidates proposed/confirmed/refuted,
// inferred assertions cited by unsat cores, dependences eliminated and
// remediable) into BENCH_infer.json, which bench_gate pins against
// bench/baseline.json.
//
//   infer_speculate            # all light kernels, table + verdict
//   infer_speculate --n 150    # matrix dimension (default 120)
//   SDS_HEAVY=1 infer_speculate  # include the minutes-long IC0/ILU0 runs
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sds/guard/Guarded.h"
#include "sds/infer/Infer.h"

#include <cstdio>
#include <cstring>
#include <set>

using namespace sds;
using namespace sds::rt;

namespace {

struct Target {
  std::string Key;
  bool Heavy = false;
  kernels::Kernel Kernel;
  codegen::UFEnvironment Env;
  int N = 0;
};

std::vector<Target> targets(int N, bool Heavy) {
  CSRMatrix A = generateSPDLike({N, 6, 12, 21});
  CSRMatrix Lower = lowerTriangle(A);
  CSCMatrix L = toCSC(Lower);
  PruneSets Prune = buildPruneSets(L);

  std::vector<Target> Out;
  auto Add = [&](std::string Key, bool IsHeavy, kernels::Kernel K,
                 codegen::UFEnvironment Env, int Iters) {
    if (IsHeavy && !Heavy)
      return;
    Out.push_back(
        {std::move(Key), IsHeavy, std::move(K), std::move(Env), Iters});
  };
  Add("gs_csr", false, kernels::gaussSeidelCSR(),
      driver::bindCSR(A, A.diagonalPositions()), A.N);
  Add("ilu0_csr", true, kernels::incompleteLU0CSR(),
      driver::bindCSR(A, A.diagonalPositions()), A.N);
  Add("ic0_csc", true, kernels::incompleteCholeskyCSC(), driver::bindCSC(L),
      L.N);
  Add("fs_csc", false, kernels::forwardSolveCSC(), driver::bindCSC(L), L.N);
  Add("fs_csr", false, kernels::forwardSolveCSR(), driver::bindCSR(Lower),
      Lower.N);
  Add("spmv_csr", false, kernels::spmvCSR(), driver::bindCSR(A), A.N);
  Add("lchol_csc", false, kernels::leftCholeskyCSC(),
      driver::bindCSC(L, &Prune), L.N);
  return Out;
}

/// Edge-for-edge equality of two finalized dependence graphs.
bool graphsIdentical(const rt::DependenceGraph &A,
                     const rt::DependenceGraph &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges())
    return false;
  for (int V = 0; V < A.numNodes(); ++V) {
    auto SA = A.successors(V), SB = B.successors(V);
    if (SA.size() != SB.size() ||
        !std::equal(SA.begin(), SA.end(), SB.begin()))
      return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  int N = 120;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--n") && I + 1 < argc)
      N = std::atoi(argv[++I]);
  if (N < 8) {
    std::fprintf(stderr, "--n must be >= 8\n");
    return 1;
  }
  int Threads = bench::parseThreads(argc, argv);
  bool Heavy = bench::envHeavy();

  std::printf("Speculative-inference recovery (n=%d, threads=%d%s)\n\n", N,
              Threads, Heavy ? "" : ", heavy kernels skipped");
  std::printf("%-10s %9s %10s %8s %6s %11s %11s %6s %9s\n", "Kernel",
              "proposed", "confirmed", "refuted", "cited", "elim(decl)",
              "elim(spec)", "remed", "recovered");

  bench::BenchReport Report("infer");
  unsigned Mismatches = 0;
  uint64_t TotalProposed = 0, TotalConfirmed = 0, TotalRefuted = 0;
  uint64_t TotalCited = 0, TotalEliminated = 0;
  for (Target &T : targets(N, Heavy)) {
    std::fprintf(stderr, "[infer] %s: declared analysis...\n", T.Key.c_str());
    deps::PipelineOptions Base;
    Base.NumThreads = Threads;
    deps::PipelineResult Declared = deps::analyzeKernel(T.Kernel, Base);

    infer::InferenceResult Inf = infer::inferProperties(T.Env);

    std::fprintf(stderr, "[infer] %s: speculated analysis (%s)...\n",
                 T.Key.c_str(), Inf.summary().c_str());
    kernels::Kernel Stripped = T.Kernel;
    Stripped.Properties = ir::PropertySet{};
    deps::PipelineOptions Spec = Base;
    Spec.Speculate = true;
    Spec.InferredProps = Inf.Confirmed;
    deps::PipelineResult Speculated = deps::analyzeKernel(Stripped, Spec);

    std::set<std::string> Cited;
    unsigned Remediable = 0;
    for (const deps::AnalyzedDependence &D : Speculated.Deps) {
      Remediable += D.Remediable ? 1 : 0;
      Cited.insert(D.InferredCited.begin(), D.InferredCited.end());
    }
    unsigned ElimDecl = Declared.count(deps::DepStatus::PropertyUnsat);
    unsigned ElimSpec = Speculated.count(deps::DepStatus::PropertyUnsat);

    // The recovery claim: both analyses, driven over the *same* bound
    // arrays, must serve edge-for-edge identical dependence graphs.
    driver::InspectorOptions IO;
    IO.NumThreads = Threads;
    driver::InspectionResult DeclRun =
        driver::runInspectors(Declared, T.Env, T.N, IO);
    driver::InspectionResult SpecRun =
        driver::runInspectors(Speculated, T.Env, T.N, IO);
    bool Recovered = graphsIdentical(DeclRun.Graph, SpecRun.Graph);
    if (!Recovered) {
      ++Mismatches;
      std::fprintf(stderr,
                   "[infer] %s: GRAPH MISMATCH — declared %llu edges, "
                   "speculated %llu edges\n",
                   T.Key.c_str(),
                   static_cast<unsigned long long>(DeclRun.Graph.numEdges()),
                   static_cast<unsigned long long>(SpecRun.Graph.numEdges()));
    }

    std::printf("%-10s %9u %10u %8u %6zu %11u %11u %6u %9s\n", T.Key.c_str(),
                Inf.Proposed, Inf.ConfirmedCount, Inf.RefutedCount,
                Cited.size(), ElimDecl, ElimSpec, Remediable,
                Recovered ? "yes" : "NO");

    Report.set(T.Key + "_proposed", static_cast<uint64_t>(Inf.Proposed));
    Report.set(T.Key + "_confirmed",
               static_cast<uint64_t>(Inf.ConfirmedCount));
    Report.set(T.Key + "_refuted", static_cast<uint64_t>(Inf.RefutedCount));
    Report.set(T.Key + "_cited", static_cast<uint64_t>(Cited.size()));
    Report.set(T.Key + "_eliminated", static_cast<uint64_t>(ElimSpec));
    Report.set(T.Key + "_remediable", static_cast<uint64_t>(Remediable));
    Report.set(T.Key + "_recovered", static_cast<uint64_t>(Recovered ? 1 : 0));
    TotalProposed += Inf.Proposed;
    TotalConfirmed += Inf.ConfirmedCount;
    TotalRefuted += Inf.RefutedCount;
    TotalCited += Cited.size();
    TotalEliminated += ElimSpec;
  }

  Report.set("total_proposed", TotalProposed);
  Report.set("total_confirmed", TotalConfirmed);
  Report.set("total_refuted", TotalRefuted);
  Report.set("total_cited", TotalCited);
  Report.set("total_eliminated", TotalEliminated);
  Report.set("graph_mismatches", static_cast<uint64_t>(Mismatches));
  Report.write();

  if (Mismatches) {
    std::printf("\nFAIL: %u kernel(s) did not recover the declared "
                "dependence graph bit-identically\n",
                Mismatches);
    return 1;
  }
  std::printf("\nOK: every kernel's speculated analysis served a "
              "bit-identical dependence graph with zero declared "
              "properties\n");
  return 0;
}
