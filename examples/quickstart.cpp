//===- quickstart.cpp - Figure 1 to Figure 2 in one page -------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The paper's running example end to end:
//   1. take the forward-solve CSR kernel (Figure 1),
//   2. analyze its dependences with the index-array properties,
//   3. print the one surviving runtime check and its generated inspector,
//   4. run that inspector on Figure 1's 4x4 matrix,
//   5. recover Figure 2's dependence graph and waves,
//   6. solve the system in parallel and check it.
//
//===----------------------------------------------------------------------===//

#include "sds/driver/Driver.h"

#include <cstdio>

using namespace sds;
using namespace sds::rt;

int main() {
  // -- 1. The kernel (Figure 1) and its analysis (Figure 3 pipeline). ----
  kernels::Kernel K = kernels::forwardSolveCSR();
  std::printf("Kernel under analysis:\n%s\n", K.str().c_str());

  deps::PipelineResult Analysis = deps::analyzeKernel(K);
  std::printf("%s\n", Analysis.summary().c_str());

  // -- 2. The generated inspector for the surviving dependence. ----------
  for (const deps::AnalyzedDependence &D : Analysis.Deps)
    if (D.Status == deps::DepStatus::Runtime)
      std::printf("%s\n", D.Plan.emitC("inspect_forward_solve").c_str());

  // -- 3. Figure 1's matrix. ---------------------------------------------
  CSRMatrix A;
  A.N = 4;
  A.RowPtr = {0, 1, 2, 4, 7};
  A.Col = {0, 1, 0, 2, 0, 2, 3};
  A.Val = {2, 2, -1, 2, -1, -1, 2}; // a..g, made diagonally dominant

  // -- 4. Inspect: build the dependence graph of Figure 2. ----------------
  codegen::UFEnvironment Env = driver::bindCSR(A);
  driver::InspectionResult Insp =
      driver::runInspectors(Analysis, Env, A.N);
  std::printf("Dependence graph (Figure 2):\n");
  for (int U = 0; U < Insp.Graph.numNodes(); ++U)
    for (int V : Insp.Graph.successors(U))
      std::printf("  %d -> %d\n", U, V);

  // -- 5. Waves. -----------------------------------------------------------
  LevelSets LS = computeLevelSets(Insp.Graph);
  for (int L = 0; L < LS.numLevels(); ++L) {
    std::printf("Wave %d: {", L + 1);
    for (size_t I = 0; I < LS.Levels[L].size(); ++I)
      std::printf("%s%d", I ? ", " : " ", LS.Levels[L][I]);
    std::printf(" }\n");
  }

  // -- 6. Parallel solve, checked against serial. -------------------------
  std::vector<double> B = {2, 4, 1, 3};
  std::vector<double> XSerial, XParallel;
  forwardSolveCSRSerial(A, B, XSerial);
  ScheduleConfig SC;
  SC.Kind = ScheduleKind::Levels;
  SC.NumThreads = 2;
  CompiledSchedule S = buildSchedule(Insp.Graph, SC);
  forwardSolveCSRScheduled(A, B, XParallel, S);

  std::printf("\nSolution (serial vs wavefront):\n");
  bool OK = true;
  for (int I = 0; I < A.N; ++I) {
    std::printf("  x[%d] = %-10g %-10g\n", I, XSerial[I], XParallel[I]);
    OK &= XSerial[I] == XParallel[I];
  }
  std::printf("%s\n", OK ? "MATCH" : "MISMATCH");
  return OK ? 0 : 1;
}
