//===- wavefront_solver.cpp - Inspector-executor triangular solver ---------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The workload the paper's introduction motivates: an iterative solver
// whose preconditioner applies a sparse triangular solve every iteration
// (§8.3). The inspector runs once; the wavefront executor runs hundreds of
// times. Input is a Matrix Market file or a synthetic Table-4 profile.
//
//   wavefront_solver                  # synthetic af_shell3-profile matrix
//   wavefront_solver path/to/A.mtx    # your matrix (general or symmetric)
//   SDS_THREADS=8 wavefront_solver    # executor thread count
//
// Schedule shape (sds::rt schedule post-pass framework, DESIGN.md §14):
//   --schedule=levels|lbc|coalesced   executor schedule kind
//                         (default: the artifact's recorded spec, else lbc)
//
// Robustness flags (sds::guard):
//   --validate            print the property-validation report
//   --guard=off|warn|fallback   what to do when validation fails
//                         (default fallback: run unsimplified inspectors)
//   --budget-ms MS        wall-clock budget for the compile-time analysis
//
// Compile-once/run-many (sds::artifact):
//   --emit-artifact=PATH  save the compiled kernel after analysis
//   --load-artifact=PATH  skip analysis; load a previously saved artifact
//                         and report warm-vs-cold timing
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/driver/Driver.h"
#include "sds/guard/Guarded.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/SignalDump.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "sds/support/OMP.h"

using namespace sds;
using namespace sds::rt;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main(int argc, char **argv) {
  guard::GuardMode Mode = guard::GuardMode::Fallback;
  bool Validate = false;
  bool Metrics = false;
  double BudgetMs = 0;
  std::optional<ScheduleKind> Kind;
  std::string MtxPath, EmitPath, LoadPath, MetricsPath;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--validate") {
      Validate = true;
    } else if (Arg == "--metrics") {
      Metrics = true;
      // Assign through a std::string temporary: GCC 12 miscompiles the
      // diagnostics for the const char* overload here (-Wrestrict false
      // positive, PR105329).
      MetricsPath = std::string("-");
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Metrics = true;
      MetricsPath = Arg.substr(10);
    } else if (Arg.rfind("--guard=", 0) == 0) {
      auto M = guard::parseGuardMode(Arg.substr(8));
      if (!M) {
        std::fprintf(stderr, "--guard expects off|warn|fallback\n");
        return 1;
      }
      Mode = *M;
    } else if (Arg == "--budget-ms" && I + 1 < argc) {
      BudgetMs = std::atof(argv[++I]);
    } else if (Arg.rfind("--emit-artifact=", 0) == 0) {
      EmitPath = Arg.substr(16);
    } else if (Arg.rfind("--load-artifact=", 0) == 0) {
      LoadPath = Arg.substr(16);
    } else if (Arg.rfind("--schedule=", 0) == 0) {
      Kind = parseScheduleKind(Arg.substr(11));
      if (!Kind) {
        std::fprintf(stderr,
                     "--schedule expects levels|lbc|coalesced\n");
        return 1;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [--validate] [--guard=off|warn|fallback] "
                   "[--budget-ms MS] [--metrics[=PATH]] "
                   "[--schedule=levels|lbc|coalesced] "
                   "[--emit-artifact=PATH] "
                   "[--load-artifact=PATH] [A.mtx]\n",
                   argv[0]);
      return 1;
    } else {
      MtxPath = Arg;
    }
  }
  if (Metrics)
    obs::setMetricsEnabled(true);
  // Ctrl-C / SIGTERM mid-solve still flushes --metrics output and the
  // flight-recorder ring, so an interrupted run leaves a post-mortem.
  obs::dumpOnFatalSignal(Metrics ? MetricsPath : std::string());

  // -- Input matrix. -------------------------------------------------------
  CSRMatrix Full;
  if (!MtxPath.empty()) {
    support::Status St = loadMatrixMarket(MtxPath, Full);
    if (!St.ok()) {
      std::fprintf(stderr, "%s\n",
                   St.withContext("load '" + MtxPath + "'").str().c_str());
      return 1;
    }
    std::printf("Loaded %s: n=%d nnz=%d\n", MtxPath.c_str(), Full.N,
                Full.nnz());
  } else {
    Full = generateFromProfile(table4Profiles()[0], /*Scale=*/0.02);
    std::printf("Synthetic af_shell3 profile: n=%d nnz=%d\n", Full.N,
                Full.nnz());
  }
  CSCMatrix L = toCSC(lowerTriangle(Full));
  if (!L.isWellFormed() || !L.isLowerTriangular()) {
    std::fprintf(stderr, "input's lower triangle is not usable\n");
    return 1;
  }

  const char *TEnv = std::getenv("SDS_THREADS");
  int Threads = TEnv ? std::atoi(TEnv) : omp_get_max_threads();

  // -- Compile-time analysis (once per kernel, matrix-independent), or a
  // -- previously saved artifact (once per deployment, ever). --------------
  double T0 = now();
  kernels::Kernel K = kernels::forwardSolveCSC();
  artifact::CompiledKernel CK;
  if (!LoadPath.empty()) {
    support::Status St = artifact::load(LoadPath, CK);
    if (!St.ok()) {
      std::fprintf(stderr, "%s\n", St.str().c_str());
      return 1;
    }
    if (CK.KernelName != K.Name) {
      std::fprintf(stderr, "artifact '%s' is for kernel '%s', not '%s'\n",
                   LoadPath.c_str(), CK.KernelName.c_str(), K.Name.c_str());
      return 1;
    }
    double WarmT = now() - T0;
    std::printf("artifact load: %.4fs, %u runtime check(s) "
                "(recorded cold analysis %.2fs",
                WarmT, CK.count(deps::DepStatus::Runtime),
                CK.analysisSeconds());
    if (WarmT > 0 && CK.analysisSeconds() > 0)
      std::printf(", %.0fx faster", CK.analysisSeconds() / WarmT);
    std::printf(")\n");
  } else {
    deps::PipelineOptions POpts;
    POpts.AnalysisBudgetMs = BudgetMs;
    CK = artifact::compile(K, POpts);
    std::printf("analysis: %.2fs, %u runtime check(s)\n", now() - T0,
                CK.count(deps::DepStatus::Runtime));
  }
  // --schedule wins over the artifact's recorded spec; whatever the
  // choice, it is recorded into any emitted artifact.
  ScheduleConfig SC = CK.Schedule;
  if (Kind)
    SC.Kind = *Kind;
  SC.NumThreads = Threads;
  SC.MinWorkPerThread = 256;
  CK.Schedule = SC;
  if (!EmitPath.empty()) {
    if (support::Status St = artifact::save(CK, EmitPath); !St.ok()) {
      std::fprintf(stderr, "%s\n", St.str().c_str());
      return 1;
    }
    std::printf("artifact written to %s\n", EmitPath.c_str());
  }

  // -- Inspector (once per matrix), guarded by property validation. --------
  codegen::UFEnvironment Env = driver::bindCSC(L);
  if (Validate) {
    guard::ValidationReport VR = guard::validateProperties(CK.Properties, Env);
    std::printf("validation (%.3f ms): %s\n%s", VR.Seconds * 1e3,
                VR.summary().c_str(), VR.str().c_str());
  }
  T0 = now();
  guard::GuardedOptions GOpts;
  GOpts.Mode = Mode;
  guard::GuardedResult G = guard::runGuarded(CK, Env, L.N, GOpts);
  if (Mode != guard::GuardMode::Off)
    std::printf("%s\n", G.summary().c_str());
  const driver::InspectionResult &Insp = G.Inspection;
  std::vector<double> Cost(static_cast<size_t>(L.N));
  for (int J = 0; J < L.N; ++J)
    Cost[J] = L.ColPtr[J + 1] - L.ColPtr[J];
  CompiledSchedule S = buildSchedule(Insp.Graph, SC, Cost);
  if (!certifySchedule(Insp.Graph, S)) {
    std::fprintf(stderr, "schedule failed certification\n");
    return 1;
  }
  double InspT = now() - T0;
  CompiledScheduleStats SS = describeSchedule(S);
  std::printf("inspector: %.4fs (%llu edges, %d threads)\n", InspT,
              static_cast<unsigned long long>(Insp.Graph.numEdges()),
              Threads);
  std::printf("schedule [%s]: %d waves / %llu chunks, critical work %llu, "
              "parallelism %.2f\n",
              scheduleKindName(SC.Kind), SS.Base.NumWaves,
              static_cast<unsigned long long>(SS.NumChunks),
              static_cast<unsigned long long>(SS.Base.CriticalWork),
              SS.Base.achievedParallelism());

  // -- Executor (hundreds of times in a real solver). ----------------------
  std::vector<double> B(static_cast<size_t>(L.N), 1.0), XS, XP;
  double SerialT = 1e9, ExecT = 1e9;
  for (int Rep = 0; Rep < 5; ++Rep) {
    T0 = now();
    forwardSolveCSCSerial(L, B, XS);
    SerialT = std::min(SerialT, now() - T0);
    T0 = now();
    forwardSolveCSCScheduled(L, B, XP, S);
    ExecT = std::min(ExecT, now() - T0);
  }
  double Diff = 0;
  for (size_t I = 0; I < XS.size(); ++I)
    Diff = std::max(Diff, std::abs(XS[I] - XP[I]));

  std::printf("serial solve:    %.4fs\n", SerialT);
  std::printf("wavefront solve: %.4fs  (speedup %.2fx, max |diff| %.2e)\n",
              ExecT, SerialT / ExecT, Diff);
  if (SerialT > ExecT)
    std::printf("break-even after %.1f executor runs\n",
                (InspT + ExecT) / (SerialT - ExecT));
  else
    std::printf("no parallel gain on this machine/thread count; the "
                "inspector costs %.1f serial solves\n",
                InspT / SerialT);
  if (Metrics) {
    if (!obs::writeMetrics(MetricsPath)) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   MetricsPath.c_str());
      return 1;
    }
    if (MetricsPath != "-")
      std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  return Diff < 1e-9 ? 0 : 1;
}
