//===- analyze_kernel.cpp - Command-line analysis driver -------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The Figure-3 driver as a tool: pick one of the Table-2 kernels (or all),
// optionally overriding its index-array knowledge from a JSON file, and
// print the full analysis — dependences and their fates (with decision
// provenance), discovered equalities, inspector complexities, and generated
// inspector C code.
//
//   analyze_kernel                          # list kernels
//   analyze_kernel fs_csr                   # analyze forward solve CSR
//   analyze_kernel fs_csr props.json        # with user-supplied properties
//   analyze_kernel all                      # the whole suite (slow: IC0, ILU0)
//   analyze_kernel --trace out.json fs_csr  # + end-to-end traced run; dump
//                                           #   Chrome trace-event JSON
//   analyze_kernel --metrics=m.json fs_csr  # + counters/gauges/histograms
//   analyze_kernel --n 500 --trace t.json gs_csr   # bigger traced matrix
//   analyze_kernel --emit-artifact=fs.ck.json fs_csc   # compile once...
//   analyze_kernel --load-artifact=fs.ck.json fs_csc   # ...run many: skip
//                                           #   the Presburger pipeline and
//                                           #   print warm-vs-cold timing
//   analyze_kernel --explain=all fs_csr     # print the unsat core behind
//                                           #   each dependence's fate
//
// With --trace or --metrics the tool also runs the full inspector-executor
// flow on a generated SPD-like matrix (inspectors -> dependence graph ->
// level-set schedule -> wavefront executor), so the trace covers every
// pipeline stage, each inspector, and the parallel wave execution. Load
// the --trace output in chrome://tracing or https://ui.perfetto.dev.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/driver/Driver.h"
#include "sds/engine/Engine.h"
#include "sds/guard/Guarded.h"
#include "sds/infer/Infer.h"
#include "sds/obs/Export.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/support/JSON.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "sds/support/OMP.h"

using namespace sds;

namespace {

std::map<std::string, kernels::Kernel> kernelsByKey() {
  return {
      {"gs_csr", kernels::gaussSeidelCSR()},
      {"ilu0_csr", kernels::incompleteLU0CSR()},
      {"ic0_csc", kernels::incompleteCholeskyCSC()},
      {"fs_csc", kernels::forwardSolveCSC()},
      {"fs_csr", kernels::forwardSolveCSR()},
      {"spmv_csr", kernels::spmvCSR()},
      {"lchol_csc", kernels::leftCholeskyCSC()},
  };
}

/// Run the inspector-executor half on a generated matrix so the trace
/// contains inspector and wavefront-execution spans, not just the
/// compile-time pipeline. Which arrays get bound and which executor runs
/// depends on the kernel's storage format.
struct GuardFlags {
  guard::GuardMode Mode = guard::GuardMode::Off;
  bool Validate = false;
};

void runTraced(const std::string &Key, const kernels::Kernel &K,
               const artifact::CompiledKernel &CK, int N, int Threads,
               const rt::ScheduleConfig &SC, const GuardFlags &GF,
               engine::Engine *Eng) {
  rt::CSRMatrix A = rt::generateSPDLike({N, 6, 12, 21});

  codegen::UFEnvironment Env;
  rt::CSRMatrix Lower;
  rt::CSCMatrix L;
  rt::PruneSets Prune;
  if (Key == "gs_csr" || Key == "ilu0_csr") {
    Env = driver::bindCSR(A, A.diagonalPositions());
  } else if (Key == "fs_csr") {
    Lower = rt::lowerTriangle(A);
    Env = driver::bindCSR(Lower);
  } else if (Key == "fs_csc" || Key == "ic0_csc" || Key == "lchol_csc") {
    L = rt::toCSC(rt::lowerTriangle(A));
    if (Key == "lchol_csc") {
      Prune = rt::buildPruneSets(L);
      Env = driver::bindCSC(L, &Prune);
    } else {
      Env = driver::bindCSC(L);
    }
  } else {
    std::printf("(no runtime dependences for %s; nothing to inspect)\n",
                Key.c_str());
    return;
  }

  if (Eng) {
    // Exercise both matrix-tier paths (cold fill, then warm hit) so the
    // engine.plan.* latency histograms and matrix_warm/cold gauges in the
    // --metrics snapshot carry real samples for this matrix.
    (void)Eng->plan(K, Env, A.N);
    (void)Eng->plan(K, Env, A.N);
  }

  if (GF.Validate) {
    guard::ValidationReport VR =
        guard::validateProperties(CK.Properties, Env);
    std::printf("validation (%.3f ms): %s\n%s", VR.Seconds * 1e3,
                VR.summary().c_str(), VR.str().c_str());
  }

  guard::GuardedOptions GOpts;
  GOpts.Mode = GF.Mode;
  GOpts.Inspect.NumThreads = Threads;
  guard::GuardedResult G = guard::runGuarded(CK, Env, A.N, GOpts);
  if (GF.Mode != guard::GuardMode::Off)
    std::printf("%s\n", G.summary().c_str());
  const driver::InspectionResult &Insp = G.Inspection;
  std::printf("inspection: %u inspectors, %llu visits, %llu edges, %.3f ms\n",
              Insp.NumInspectors,
              static_cast<unsigned long long>(Insp.InspectorVisits),
              static_cast<unsigned long long>(Insp.Graph.numEdges()),
              Insp.Seconds * 1e3);

  rt::CompiledSchedule CS = rt::buildSchedule(Insp.Graph, SC);
  rt::CompiledScheduleStats SS = rt::describeSchedule(CS);
  std::printf("schedule [%s]: %d waves / %llu chunks over %llu nodes, "
              "critical work %llu, parallelism %.2f\n",
              rt::scheduleKindName(SC.Kind), SS.Base.NumWaves,
              static_cast<unsigned long long>(SS.NumChunks),
              static_cast<unsigned long long>(SS.Base.TotalNodes),
              static_cast<unsigned long long>(SS.Base.CriticalWork),
              SS.Base.achievedParallelism());
  if (!SS.Base.WaveSizes.empty()) {
    uint64_t MinWave = SS.Base.WaveSizes.front();
    for (uint64_t W : SS.Base.WaveSizes)
      MinWave = std::min(MinWave, W);
    std::printf("wave sizes: min %llu / max %llu",
                static_cast<unsigned long long>(MinWave),
                static_cast<unsigned long long>(SS.Base.MaxWaveSize));
    std::printf(", first [");
    for (size_t W = 0; W < SS.Base.WaveSizes.size() && W < 8; ++W)
      std::printf("%s%llu", W ? " " : "",
                  static_cast<unsigned long long>(SS.Base.WaveSizes[W]));
    std::printf("%s]\n", SS.Base.WaveSizes.size() > 8 ? " ..." : "");
  }
  if (!rt::certifySchedule(Insp.Graph, CS)) {
    std::printf("schedule FAILED certification\n");
    return;
  }

  std::vector<double> B(static_cast<size_t>(A.N), 1.0);
  std::vector<double> X(static_cast<size_t>(A.N), 0.0);
  if (Key == "fs_csr")
    rt::forwardSolveCSRScheduled(Lower, B, X, CS);
  else if (Key == "fs_csc")
    rt::forwardSolveCSCScheduled(L, B, X, CS);
  else if (Key == "gs_csr")
    rt::gaussSeidelCSRScheduled(A, B, X, CS);
  else if (Key == "ic0_csc")
    rt::incompleteCholeskyCSCScheduled(L, CS);
  else if (Key == "lchol_csc")
    rt::leftCholeskyCSCScheduled(L, CS);
  else
    std::printf("(no wavefront executor for %s; schedule only)\n",
                Key.c_str());
}

/// Compile-once/run-many paths through one kernel. Empty strings mean
/// "analyze fresh"; LoadPath skips the Presburger pipeline entirely and
/// EmitPath persists the result for a later --load-artifact run.
struct ArtifactFlags {
  std::string EmitPath;
  std::string LoadPath;
};

/// --infer: bind the kernel's matrix shape so the profiler has concrete
/// index arrays to speculate from (same generator/shape as the traced
/// run, so the analysis and the execution see the same environment).
std::optional<codegen::UFEnvironment> bindForInfer(const std::string &Key,
                                                   int N) {
  rt::CSRMatrix A = rt::generateSPDLike({N, 6, 12, 21});
  if (Key == "gs_csr" || Key == "ilu0_csr")
    return driver::bindCSR(A, A.diagonalPositions());
  if (Key == "spmv_csr")
    return driver::bindCSR(A);
  if (Key == "fs_csr")
    return driver::bindCSR(rt::lowerTriangle(A));
  if (Key == "fs_csc" || Key == "ic0_csc")
    return driver::bindCSC(rt::toCSC(rt::lowerTriangle(A)));
  if (Key == "lchol_csc") {
    // Prune arrays live in PruneSets, whose storage must outlive the
    // environment; bindCSC copies spans, so a local is fine.
    rt::CSCMatrix L = rt::toCSC(rt::lowerTriangle(A));
    rt::PruneSets Prune = rt::buildPruneSets(L);
    return driver::bindCSC(L, &Prune);
  }
  return std::nullopt;
}

/// --explain=<dep>: print the unsat core justifying each matching
/// dependence's fate. <dep> matches as a substring of the dependence
/// label; "all" matches every dependence. Works on fresh analyses and on
/// loaded artifacts alike (cores ride inside the artifact), so the same
/// proof can be audited on the machine that compiled it and on the
/// machine that runs it.
int explainDeps(const artifact::CompiledKernel &CK, const std::string &Pat) {
  unsigned Matched = 0;
  for (const deps::AnalyzedDependence &D : CK.Deps) {
    if (Pat != "all" && D.Dep.label().find(Pat) == std::string::npos)
      continue;
    ++Matched;
    std::printf("--- explain %s ---\n", D.Dep.label().c_str());
    std::printf("status:     %s\n", deps::depStatusName(D.Status).c_str());
    std::printf("provenance: %s\n", D.Prov.str().c_str());
    if (D.Core.Assertions.empty()) {
      std::printf("core:       empty — this verdict depends on no "
                  "index-array assertion%s\n",
                  D.Status == deps::DepStatus::Runtime
                      ? " (the inspector enumerates the original relation)"
                      : "");
      continue;
    }
    std::printf("core:       %zu assertion(s)%s%s\n",
                D.Core.Assertions.size(),
                D.Core.FromFarkas ? ", from Farkas certificate" : ", coarse",
                D.Core.Minimized ? ", minimized" : "");
    for (const std::string &A : D.Core.Assertions) {
      // Trust tier next to each cited assertion: Declared came from the
      // kernel's annotations, Inferred from the profiler (a remedy the
      // guard validates on every run).
      std::string Base = A.substr(0, A.find(" ["));
      std::string Tag;
      if (std::optional<ir::PropertyTier> T =
              CK.Properties.tierForLabelBase(Base))
        Tag = " [" + ir::propertyTierName(*T) + "]";
      std::printf("  * %s%s\n", A.c_str(), Tag.c_str());
    }
    if (D.Remediable)
      std::printf("remedy:     cites %zu inferred assertion(s); each is "
                  "validated at bind time and a failure revokes exactly "
                  "this dependence\n",
                  D.InferredCited.size());
  }
  if (!Matched) {
    std::fprintf(stderr, "--explain: no dependence matches '%s'; have:\n",
                 Pat.c_str());
    for (const deps::AnalyzedDependence &D : CK.Deps)
      std::fprintf(stderr, "  %s\n", D.Dep.label().c_str());
    return 1;
  }
  return 0;
}

/// Analyze one kernel. A non-null `Eng` (--metrics) routes the compile
/// through that engine, which main keeps alive until the snapshot is
/// written, so its engine.* gauges are in it.
int analyzeOne(const std::string &Key, kernels::Kernel K, bool Traced,
               int N, int Threads, double BudgetMs,
               std::optional<rt::ScheduleKind> ScheduleKind,
               const GuardFlags &GF, const ArtifactFlags &AF,
               const std::string &Explain, bool Infer, engine::Engine *Eng) {
  std::printf("=== %s ===\n%s\n", K.Name.c_str(), K.str().c_str());
  ir::PropertySet InferredProps;
  std::optional<codegen::UFEnvironment> InferEnv;
  if (Infer) {
    if (!AF.LoadPath.empty()) {
      std::fprintf(stderr, "--infer analyzes fresh; it cannot be combined "
                           "with --load-artifact\n");
      return 1;
    }
    InferEnv = bindForInfer(Key, N);
    if (!InferEnv) {
      std::fprintf(stderr, "--infer: no matrix binding for kernel '%s'\n",
                   Key.c_str());
      return 1;
    }
    infer::InferenceResult Inf = infer::inferProperties(*InferEnv);
    std::printf("inference: %s\n", Inf.summary().c_str());
    // The unannotated-matrix scenario: drop every declaration and let the
    // analysis lean only on what the profiler confirmed from the data.
    K.Properties = ir::PropertySet{};
    InferredProps = std::move(Inf.Confirmed);
  }
  artifact::CompiledKernel CK;
  if (!AF.LoadPath.empty()) {
    auto T0 = std::chrono::steady_clock::now();
    support::Status S = artifact::load(AF.LoadPath, CK);
    double WarmS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
    if (!S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    if (CK.KernelName != K.Name) {
      std::fprintf(stderr,
                   "artifact '%s' was compiled for kernel '%s', not '%s'\n",
                   AF.LoadPath.c_str(), CK.KernelName.c_str(), K.Name.c_str());
      return 1;
    }
    std::printf("%s\n", CK.summary().c_str());
    double ColdS = CK.analysisSeconds();
    std::printf("artifact load: %.3f ms (recorded cold analysis %.3f ms",
                WarmS * 1e3, ColdS * 1e3);
    if (WarmS > 0 && ColdS > 0)
      std::printf(", %.0fx faster", ColdS / WarmS);
    std::printf(")\n");
  } else if (Eng) {
    // The snapshot's engine.kernel.* histograms and warm/cold gauges carry
    // samples: the first call fills cold, the second hits the kernel tier
    // warm. With --infer the engine profiles the same binding itself.
    auto Compile = [&] {
      return InferEnv ? Eng->compiled(K, *InferEnv) : Eng->compiled(K);
    };
    auto T0 = std::chrono::steady_clock::now();
    std::shared_ptr<const artifact::CompiledKernel> Shared = Compile();
    double ColdS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
    (void)Compile(); // warm hit
    CK = *Shared;
    std::printf("%s\n", CK.summary().c_str());
    std::printf("cold analysis (engine): %.3f ms\n", ColdS * 1e3);
  } else {
    deps::PipelineOptions POpts;
    POpts.NumThreads = Threads; // same flag drives analysis and inspectors
    POpts.AnalysisBudgetMs = BudgetMs;
    POpts.Speculate = Infer;
    POpts.InferredProps = InferredProps;
    auto T0 = std::chrono::steady_clock::now();
    deps::PipelineResult R = deps::analyzeKernel(K, POpts);
    double ColdS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
    std::printf("%s\n", R.summary().c_str());
    std::printf("cold analysis: %.3f ms\n", ColdS * 1e3);
    CK = artifact::fromAnalysis(std::move(R), POpts);
  }
  for (const deps::AnalyzedDependence &D : CK.Deps) {
    if (D.Status != deps::DepStatus::Runtime)
      continue;
    std::printf("--- inspector for %s ---\n%s\n", D.Dep.label().c_str(),
                D.Plan.emitC("inspect").c_str());
  }
  if (!Explain.empty())
    if (int RC = explainDeps(CK, Explain))
      return RC;
  // The schedule spec rides inside the artifact: --schedule wins, a
  // loaded artifact's recorded spec is next, the default config last.
  rt::ScheduleConfig SC = CK.Schedule;
  if (ScheduleKind)
    SC.Kind = *ScheduleKind;
  SC.NumThreads = Threads;
  CK.Schedule = SC;
  if (!AF.EmitPath.empty()) {
    if (support::Status S = artifact::save(CK, AF.EmitPath); !S.ok()) {
      std::fprintf(stderr, "%s\n", S.str().c_str());
      return 1;
    }
    std::printf("artifact written to %s (reload with --load-artifact=%s)\n",
                AF.EmitPath.c_str(), AF.EmitPath.c_str());
  }
  if (Traced)
    runTraced(Key, K, CK, N, Threads, SC, GF, Eng);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string TracePath;
  std::string MetricsPath;
  bool Metrics = false;
  int N = 200;
  int Threads = omp_get_max_threads();
  double BudgetMs = 0;
  std::optional<rt::ScheduleKind> ScheduleKind;
  GuardFlags GF;
  ArtifactFlags AF;
  std::string Explain;
  bool Infer = false;
  std::vector<std::string> Positional;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--trace" && I + 1 < argc) {
      TracePath = argv[++I];
    } else if (Arg == "--metrics") {
      Metrics = true;
      MetricsPath = "-";
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Metrics = true;
      MetricsPath = Arg.substr(10);
    } else if (Arg == "--validate") {
      GF.Validate = true;
    } else if (Arg == "--infer") {
      Infer = true;
    } else if (Arg.rfind("--guard=", 0) == 0) {
      auto M = guard::parseGuardMode(Arg.substr(8));
      if (!M) {
        std::fprintf(stderr, "--guard expects off|warn|fallback\n");
        return 1;
      }
      GF.Mode = *M;
    } else if (Arg.rfind("--emit-artifact=", 0) == 0) {
      AF.EmitPath = Arg.substr(16);
    } else if (Arg.rfind("--load-artifact=", 0) == 0) {
      AF.LoadPath = Arg.substr(16);
    } else if (Arg.rfind("--explain=", 0) == 0) {
      Explain = Arg.substr(10);
      if (Explain.empty()) {
        std::fprintf(stderr,
                     "--explain expects a dependence-label substring or "
                     "'all'\n");
        return 1;
      }
    } else if (Arg.rfind("--schedule=", 0) == 0) {
      ScheduleKind = rt::parseScheduleKind(Arg.substr(11));
      if (!ScheduleKind) {
        std::fprintf(stderr,
                     "--schedule expects levels|lbc|coalesced\n");
        return 1;
      }
    } else if (Arg == "--budget-ms" && I + 1 < argc) {
      BudgetMs = std::atof(argv[++I]);
      if (BudgetMs < 0) {
        std::fprintf(stderr, "--budget-ms must be >= 0\n");
        return 1;
      }
    } else if (Arg == "--n" && I + 1 < argc) {
      N = std::atoi(argv[++I]);
      if (N < 4) {
        std::fprintf(stderr, "--n must be >= 4\n");
        return 1;
      }
    } else if (Arg == "--threads" && I + 1 < argc) {
      Threads = std::atoi(argv[++I]);
      if (Threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 1;
      }
    } else {
      Positional.push_back(Arg);
    }
  }

  auto Kernels = kernelsByKey();
  if (Positional.empty()) {
    std::printf(
        "usage: %s [--trace out.json] [--metrics[=PATH]] "
        "[--n N] [--threads N] "
        "[--schedule=levels|lbc|coalesced] "
        "[--validate] [--guard=off|warn|fallback] [--budget-ms MS] "
        "[--emit-artifact=PATH] [--load-artifact=PATH] "
        "[--explain=<dep>|all] [--infer] "
        "<kernel|all> [properties.json]\n"
        "--explain prints the unsat core justifying each matching "
        "dependence's fate\n(substring match on the dependence label; "
        "'all' prints every core, each cited assertion\ntagged with its "
        "trust tier).\n"
        "--infer drops every declared property and speculates from the "
        "bound index arrays\ninstead: the profiler proposes properties "
        "(tier Inferred), the analysis cites them\nin its cores, and the "
        "guard validates each cited remedy at bind time.\n"
        "--metrics writes the metrics-registry snapshot (counters, gauges, "
        "latency histograms,\nper-stage seconds, flight recorder) as JSON; "
        "a PATH ending in .prom selects Prometheus\ntext exposition, '-' "
        "or no PATH prints JSON to stdout.\nkernels:\n",
        argv[0]);
    for (const auto &[Key, K] : Kernels)
      std::printf("  %-10s %s\n", Key.c_str(), K.Name.c_str());
    return 0;
  }

  // --validate and --guard need bound arrays, so they imply the runtime
  // (traced) half; guard decisions then show up in the guard.* counters.
  // --metrics implies it too: the wave/inspector/engine histograms only
  // fill when the inspector-executor half actually runs.
  bool Traced = !TracePath.empty() || Metrics || GF.Validate ||
                GF.Mode != guard::GuardMode::Off;
  if (!TracePath.empty())
    obs::setEnabled(true);
  if (Metrics)
    obs::setMetricsEnabled(true);

  // One engine for every analyzed kernel, alive until the snapshot below.
  // A loaded artifact skips it: there is nothing for it to compile.
  std::optional<engine::Engine> Eng;
  if (Metrics && AF.LoadPath.empty()) {
    engine::EngineOptions EOpts;
    EOpts.Analysis.NumThreads = Threads;
    EOpts.Analysis.AnalysisBudgetMs = BudgetMs;
    EOpts.Analysis.Speculate = Infer;
    EOpts.Inspect.NumThreads = Threads;
    if (ScheduleKind)
      EOpts.Schedule.Kind = *ScheduleKind;
    EOpts.Schedule.NumThreads = Threads;
    Eng.emplace(std::move(EOpts));
  }
  engine::Engine *EngPtr = Eng ? &*Eng : nullptr;

  std::string Which = Positional[0];
  if (Which == "all") {
    if (!AF.EmitPath.empty() || !AF.LoadPath.empty()) {
      std::fprintf(stderr,
                   "--emit-artifact/--load-artifact need a single kernel, "
                   "not 'all'\n");
      return 1;
    }
    for (auto &[Key, K] : Kernels)
      if (int RC = analyzeOne(Key, K, Traced, N, Threads, BudgetMs,
                              ScheduleKind, GF, {}, Explain, Infer, EngPtr))
        return RC;
  } else {
    auto It = Kernels.find(Which);
    if (It == Kernels.end()) {
      std::fprintf(stderr, "unknown kernel '%s'\n", Which.c_str());
      return 1;
    }
    kernels::Kernel K = It->second;

    if (Positional.size() > 1) {
      // Replace the kernel's built-in knowledge with the user's JSON file —
      // exactly the input path of the paper's pipeline (Figure 3).
      const std::string &Path = Positional[1];
      std::ifstream In(Path);
      if (!In) {
        std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
        return 1;
      }
      std::stringstream SS;
      SS << In.rdbuf();
      json::ParseResult J = json::parse(SS.str());
      if (!J.Ok) {
        std::fprintf(stderr, "%s:%u:%u: %s\n", Path.c_str(), J.Line, J.Col,
                     J.Error.c_str());
        return 1;
      }
      std::string Error;
      auto PS = ir::PropertySet::fromJSON(J.Val, Error);
      if (!PS) {
        std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
        return 1;
      }
      K.Properties = *PS;
      std::printf("(using index-array properties from %s)\n", Path.c_str());
    }

    if (int RC = analyzeOne(Which, K, Traced, N, Threads, BudgetMs,
                            ScheduleKind, GF, AF, Explain, Infer, EngPtr))
      return RC;
  }

  if (Metrics) {
    if (!obs::writeMetrics(MetricsPath)) {
      std::fprintf(stderr, "cannot write metrics to '%s'\n",
                   MetricsPath.c_str());
      return 1;
    }
    if (MetricsPath != "-")
      std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  if (!TracePath.empty()) {
    if (!obs::writeChromeTrace(TracePath)) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", TracePath.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", TracePath.c_str(),
                obs::snapshotEvents().size());
  }
  return 0;
}
