//===- main.cpp - Entry point of the repository benchmark -----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload compile|solve|serve --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Prints every metric of the workload with its unit, then, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark records its own spans around every layer call, writes them
// beside DIR as trace-<workload>.json and reports the per-layer metrics
// instead.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

using namespace pb;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

// Must list exactly the end_to_end metrics of BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"compile_s", "s"},
    {"op_p50_ms", "ms"},
};

// Must list exactly the per_layer metrics of BENCHMARK.json. A layer the
// workload does not exercise reports 0.
const MetricSpec kPerLayer[] = {
    {"deps.compile_s.spmv_csr", "s"},
    {"deps.compile_s.fs_csr", "s"},
    {"deps.compile_s.fs_csc", "s"},
    {"deps.compile_s.gs_csr", "s"},
    {"deps.compile_s.lchol_csc", "s"},
    {"deps.stage_s.extraction", "s"},
    {"deps.stage_s.affine_unsat", "s"},
    {"deps.stage_s.property_unsat", "s"},
    {"deps.stage_s.equality_discovery", "s"},
    {"deps.stage_s.subsumption", "s"},
    {"deps.stage_s.codegen", "s"},
    {"presburger.queries", "count"},
    {"presburger.cache_hit_ratio", "ratio"},
    {"presburger.prefilter_rejects", "count"},
    {"presburger.pivots", "count"},
    {"presburger.solves", "count"},
    {"artifact.bytes", "bytes"},
    {"store.put_ms", "ms"},
    {"store.get_ms", "ms"},
    {"engine.install_ms", "ms"},
    {"engine.fingerprint_ms", "ms"},
    {"engine.hit_ratio", "ratio"},
    {"engine.evictions", "count"},
    {"engine.plan_cold_ms", "ms"},
    {"guard.validate_ms", "ms"},
    {"guard.props_validated", "count"},
    {"driver.inspect_ms", "ms"},
    {"driver.visits", "count"},
    {"driver.edges", "count"},
    {"driver.visits_per_s", "1/s"},
    {"runtime.schedule_ms", "ms"},
    {"runtime.waves", "count"},
    {"runtime.chunks", "count"},
    {"runtime.exec_ms.fs_csc", "ms"},
    {"runtime.exec_ms.fs_csr", "ms"},
    {"runtime.exec_ms.gs_csr", "ms"},
    {"runtime.exec_ms.lchol_csc", "ms"},
    {"runtime.serial_ms.fs_csc", "ms"},
    {"runtime.serial_ms.fs_csr", "ms"},
    {"runtime.serial_ms.gs_csr", "ms"},
    {"runtime.serial_ms.lchol_csc", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.service_ms.warm.p50", "ms"},
    {"serve.service_ms.cold.p99", "ms"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"serve.generator_late_ms", "ms"},
    {"self_s.deps", "s"},
    {"self_s.store", "s"},
    {"self_s.engine", "s"},
    {"self_s.guard", "s"},
    {"self_s.driver", "s"},
    {"self_s.runtime", "s"},
    {"self_s.serve", "s"},
    {"self_s.bench", "s"},
    {"trace.span_overhead_pct", "%"},
    {"trace.compile_overhead_pct", "%"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile|solve|"
               "serve --seed N --seconds S --trace 0|1 --workdir DIR\n",
               Why);
  return 2;
}

/// Overhead of the program's own tracing on an analysis: gs_csr compiled
/// alternately with it off and on.
double compileTraceOverheadPct() {
  std::vector<double> Off, On;
  for (int Rep = 0; Rep < 3; ++Rep)
    for (bool Enabled : {false, true}) {
      sds::presburger::clearQueryCache();
      sds::obs::setEnabled(Enabled);
      Clock::time_point T0 = Clock::now();
      (void)sds::artifact::compile(makeKernel("gs_csr"));
      (Enabled ? On : Off).push_back(secondsSince(T0));
      sds::obs::setEnabled(false);
    }
  return 100.0 * (median(On) / median(Off) - 1.0);
}

void printJson(const Result &R, const MetricSpec *Specs, size_t N,
               const std::map<std::string, Metric> &Values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < N; ++I) {
    auto It = Values.find(Specs[I].Name);
    double V = It == Values.end() ? 0.0 : It->second.Value;
    if (!std::isfinite(V))
      V = 0; // already counted as a failure
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Specs[I].Name, V, Specs[I].Unit);
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = std::stoull(Val);
    else if (Flag == "--seconds")
      O.Seconds = std::stod(Val);
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else if (Flag == "--workdir")
      O.WorkDir = Val;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (O.WorkDir.empty() || !(O.Seconds > 0))
    return usage("--workdir and a positive --seconds are required");
  std::filesystem::remove_all(O.WorkDir);
  std::filesystem::create_directories(O.WorkDir);

  Tracer T(O.Trace);
  // Only the program's counters are wanted from its tracing, not its
  // span buffer.
  sds::obs::setEventCapacity(0);
  Clock::time_point Start = Clock::now();
  Result R;
  if (O.Workload == "compile")
    R = runCompile(O, T);
  else if (O.Workload == "solve")
    R = runSolve(O, T);
  else if (O.Workload == "serve")
    R = runServe(O, T);
  else
    return usage(("unknown workload " + O.Workload).c_str());
  double Wall = secondsSince(Start);
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  for (const MetricSpec &S : kEndToEnd)
    if (!R.EndToEnd.count(S.Name))
      R.fail(std::string("metric not measured: ") + S.Name);

  if (O.Trace) {
    for (const auto &[Layer, Sec] : T.selfSecondsByLayer())
      R.layer("self_s." + Layer, Sec, "s");
    R.layer("trace.span_overhead_pct", 100.0 * T.recordSeconds() / Wall, "%");
    R.layer("trace.compile_overhead_pct", compileTraceOverheadPct(), "%");
    if (!T.write(O.WorkDir + "/../trace-" + O.Workload + ".json"))
      R.fail("could not write the trace");
  }
  const std::map<std::string, Metric> &Values =
      O.Trace ? R.Layer : R.EndToEnd;
  for (const auto &[Name, M] : Values)
    if (!std::isfinite(M.Value))
      R.fail("metric not finite: " + Name);

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: FAILED %s\n", P.c_str());
  std::printf("workload %s, seed %llu, %g s, trace %d: %llu attempted, "
              "%llu failed (fail_ratio %.6g)\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0,
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 0.0);
  for (const std::string &Row : R.Table)
    std::printf("  %s\n", Row.c_str());
  if (O.Trace)
    for (const auto &[Name, M] : R.Layer)
      std::printf("  %-34s %14.6g %s\n", Name.c_str(), M.Value,
                  M.Unit.c_str());
  std::filesystem::remove_all(O.WorkDir);
  if (O.Trace)
    printJson(R, kPerLayer, std::size(kPerLayer), R.Layer);
  else
    printJson(R, kEndToEnd, std::size(kEndToEnd), R.EndToEnd);
  return 0;
}
