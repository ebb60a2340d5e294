//===- BenchCommon.h - Shared helpers for the evaluation benches -*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Shared utilities for the per-table/per-figure benchmark binaries.
// Environment knobs:
//   SDS_SCALE    fraction of Table 4's matrix dimensions to instantiate
//                (default 0.02: laptop-friendly; 1.0 = paper-sized)
//   SDS_THREADS  inspector + wavefront executor thread count
//                (default: hardware; the --threads flag overrides it)
//   SDS_HEAVY    set to 0 to skip the minutes-long analyses (IC0, ILU0)
//   SDS_TRACE    path: enable obs tracing and write a Chrome trace-event
//                JSON of the whole bench run there at exit
//   SDS_METRICS  path (or "-" for stdout): enable the metrics registry and
//                write its snapshot there at exit (a .prom suffix selects
//                Prometheus text exposition, anything else JSON)
//
// Benches additionally write BENCH_<name>.json into the working directory
// (see BenchReport): a small flat object with the run's headline numbers
// (visits, edges, seconds, threads, presburger cache hit rate) so the
// perf trajectory can be tracked across commits.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_BENCH_COMMON_H
#define SDS_BENCH_COMMON_H

#include "sds/driver/Driver.h"
#include "sds/kernels/LoopNest.h"
#include "sds/obs/Export.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sds/support/OMP.h"

namespace bench {

inline double envScale() {
  const char *S = std::getenv("SDS_SCALE");
  double V = S ? std::atof(S) : 0.02;
  return V > 0 ? V : 0.02;
}

inline int envThreads() {
  const char *S = std::getenv("SDS_THREADS");
  int V = S ? std::atoi(S) : omp_get_max_threads();
  return V > 0 ? V : 1;
}

inline bool envHeavy() {
  const char *S = std::getenv("SDS_HEAVY");
  return !S || std::atoi(S) != 0;
}

/// The kernels SDS_HEAVY=0 skips: Incomplete Cholesky and ILU0, whose
/// analyses take the longest. Static Left Cholesky is not one of them.
inline bool heavyKernel(const sds::kernels::Kernel &K) {
  return K.Name == "Incomplete Cholesky CSC" || K.Name == "Incomplete LU0 CSR";
}

/// Thread count for a bench main(): `--threads N` on the command line
/// wins, then SDS_THREADS, then the hardware default.
inline int parseThreads(int argc, char **argv) {
  for (int I = 1; I + 1 < argc; ++I)
    if (std::string(argv[I]) == "--threads") {
      int V = std::atoi(argv[I + 1]);
      if (V > 0)
        return V;
    }
  return envThreads();
}

/// Reset every piece of process-global measurement state the benches
/// report on: the Presburger verdict cache and prefilter/budget counters,
/// the metrics registry (counters, gauges, histograms, flight recorder),
/// and the obs trace events/counters. Call between configurations of one
/// bench binary so each configuration's numbers are independent of what
/// ran before it; ObsSession calls it once at startup.
inline void resetMeasurementState() {
  sds::presburger::clearQueryCache();
  sds::obs::resetMetrics(); // also clears trace events + every counter
}

/// Machine-readable per-bench metrics: accumulates flat key -> number (or
/// string) fields in insertion order and writes BENCH_<name>.json. The
/// presburger query-cache hit rate is captured automatically at write
/// time.
class BenchReport {
public:
  explicit BenchReport(std::string BenchName) : Name(std::move(BenchName)) {}

  void set(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
    Fields.emplace_back(Key, Buf);
  }
  void set(const std::string &Key, uint64_t V) {
    Fields.emplace_back(Key, std::to_string(V));
  }
  void set(const std::string &Key, int V) {
    Fields.emplace_back(Key, std::to_string(V));
  }
  void setString(const std::string &Key, const std::string &V) {
    std::string Quoted = "\"";
    for (char C : V) {
      if (C == '"' || C == '\\')
        Quoted.push_back('\\');
      Quoted.push_back(C);
    }
    Quoted.push_back('"');
    Fields.emplace_back(Key, std::move(Quoted));
  }

  /// Write BENCH_<name>.json into the working directory.
  bool write() {
    sds::presburger::QueryCacheStats QC = sds::presburger::queryCacheStats();
    set("presburger_cache_hits", QC.Hits);
    set("presburger_cache_misses", QC.Misses);
    set("presburger_cache_hit_rate", QC.hitRate());
    std::string Path = "BENCH_" + Name + ".json";
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << "{\n  \"bench\": \"" << Name << "\"";
    for (const auto &[K, V] : Fields)
      Out << ",\n  \"" << K << "\": " << V;
    Out << "\n}\n";
    std::fprintf(stderr, "# metrics written to %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Observability hook driven by SDS_TRACE / SDS_METRICS: construct one at
/// the top of main(); each set env var switches on its recorder (spans,
/// or gauges and histograms) for the run, and its artifact is written
/// when the bench exits. Counters count either way.
class ObsSession {
public:
  ObsSession() {
    // Every bench starts from a clean measurement slate (cold Presburger
    // verdict cache, zeroed prefilter counters, empty metrics registry),
    // so the figures in BENCH_<name>.json are reproducible run-to-run
    // regardless of what (or in which order) a wrapper script ran before.
    resetMeasurementState();
    const char *T = std::getenv("SDS_TRACE");
    const char *M = std::getenv("SDS_METRICS");
    TracePath = T ? T : "";
    MetricsPath = M ? M : "";
    if (!TracePath.empty())
      sds::obs::setEnabled(true);
    if (!MetricsPath.empty())
      sds::obs::setMetricsEnabled(true);
  }
  ~ObsSession() {
    if (!MetricsPath.empty()) {
      if (sds::obs::writeMetrics(MetricsPath))
        std::fprintf(stderr, "# metrics snapshot written to %s\n",
                     MetricsPath.c_str());
      else
        std::fprintf(stderr, "# cannot write metrics to %s\n",
                     MetricsPath.c_str());
    }
    if (!TracePath.empty()) {
      if (sds::obs::writeChromeTrace(TracePath))
        std::fprintf(stderr, "# trace written to %s\n", TracePath.c_str());
      else
        std::fprintf(stderr, "# cannot write trace to %s\n",
                     TracePath.c_str());
    }
  }
  ObsSession(const ObsSession &) = delete;
  ObsSession &operator=(const ObsSession &) = delete;

private:
  std::string TracePath, MetricsPath;
};

/// Wall-clock seconds of one call.
template <typename Fn> double timeOf(Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// Median-of-K timing.
template <typename Fn> double medianTimeOf(Fn &&F, int K = 5) {
  std::vector<double> Ts;
  for (int I = 0; I < K; ++I)
    Ts.push_back(timeOf(F));
  std::sort(Ts.begin(), Ts.end());
  return Ts[static_cast<size_t>(K / 2)];
}

/// The five Table-4 inputs, instantiated at SDS_SCALE.
struct BenchMatrix {
  std::string Name;
  sds::rt::CSRMatrix Full;  ///< symmetric SPD-like
  sds::rt::CSRMatrix Lower; ///< lower triangle (CSR)
  sds::rt::CSCMatrix LowerC;///< lower triangle (CSC)
};

inline std::vector<BenchMatrix> benchMatrices(double Scale) {
  std::vector<BenchMatrix> Out;
  for (const sds::rt::MatrixProfile &P : sds::rt::table4Profiles()) {
    BenchMatrix M;
    M.Name = P.Name.substr(0, P.Name.find(' '));
    M.Full = sds::rt::generateFromProfile(P, Scale);
    M.Lower = sds::rt::lowerTriangle(M.Full);
    M.LowerC = sds::rt::toCSC(M.Lower);
    Out.push_back(std::move(M));
  }
  return Out;
}

} // namespace bench

#endif // SDS_BENCH_COMMON_H
