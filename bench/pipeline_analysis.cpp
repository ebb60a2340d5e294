//===- pipeline_analysis.cpp - Compile-time analysis scaling bench ---------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Times the full Figure-3 analysis pipeline (deps::analyzeKernel) over
// every Table-2 kernel at 1/2/4/8 worker threads and reports, per thread
// count: wall seconds, per-stage seconds, speedup vs serial, Presburger
// cache hit/miss counts, prefilter-ladder counters, and entailment probes
// answered by a pooled witness point. The verdict fingerprint (statuses,
// costs, equalities, subsumption edges) is also checked against the
// serial run so the report doubles as a determinism probe: `tN_identical`
// must be 1 for every N.
//
// The cache is cleared before each thread-count configuration so the
// cache/prefilter figures describe exactly one cold full-suite pass.
// Simplex pivots, solves and int64→int128 promotions are reported per
// pass too: machine-independent work counts for the exact LP layer. So
// are phase-2 piece solves, split children a known point spared a solve,
// minimizeCore's drop-one trials, and the size of the interned term table.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sds/deps/Pipeline.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace sds;
using namespace sds::deps;

namespace {

/// Everything about a result that must not depend on the thread count:
/// per-dependence fate, costs, equalities, covering edges, provenance.
std::string fingerprint(const PipelineResult &R) {
  std::string F = R.Kernel.Name + ":" + R.KernelCost.str() + "\n";
  for (const AnalyzedDependence &D : R.Deps) {
    F += D.Dep.label() + "|" + depStatusName(D.Status) + "|" +
         D.CostBefore.str() + "->" + D.CostAfter.str() + "|eq=" +
         std::to_string(D.NewEqualities) + "|by=" + D.SubsumedBy + "|" +
         D.Prov.Stage;
    for (const std::string &E : D.Prov.Evidence)
      F += ";" + E;
    F += "\n";
  }
  return F;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  bool Heavy = bench::envHeavy();
  (void)bench::parseThreads(argc, argv); // accepted for wrapper uniformity

  std::vector<kernels::Kernel> Suite;
  for (const kernels::Kernel &K : kernels::allKernels()) {
    if (!Heavy && bench::heavyKernel(K))
      continue;
    Suite.push_back(K);
  }

  std::printf("Compile-time analysis scaling: analyzeKernel over %zu "
              "kernels%s\n\n",
              Suite.size(), Heavy ? "" : " (heavy kernels skipped)");
  std::printf("%-8s %-10s %-9s %-10s %-10s %s\n", "threads", "seconds",
              "speedup", "cache-hit", "prefilter", "identical");

  bench::BenchReport Report("pipeline");
  Report.set("kernels", static_cast<uint64_t>(Suite.size()));
  Report.set("hardware_threads", omp_get_max_threads());

  // Entailment probes answered by a pooled witness point, not a solve.
  static obs::Counter &WitnessSkips = obs::counter("basicset.witness_skips");
  static obs::Counter &Pivots = obs::counter("simplex.pivots");
  static obs::Counter &Solves = obs::counter("simplex.solves");
  static obs::Counter &Promotions = obs::counter("simplex.promotions");
  static obs::Counter &Phase2Checks = obs::counter("ir.phase2_checks");
  static obs::Counter &Phase2Skips = obs::counter("ir.phase2_witness_skips");
  static obs::Counter &CoreTrials = obs::counter("ir.core_trials");
  const int Ladder[] = {1, 2, 4, 8};
  double SerialSeconds = 0;
  std::string SerialPrint;
  for (int NT : Ladder) {
    // Cold cache and zeroed metrics per configuration: each thread
    // count's cache/prefilter/histogram figures describe exactly one
    // full-suite pass, independent of the configurations before it.
    bench::resetMeasurementState();
    PipelineOptions Opts;
    Opts.NumThreads = NT;
    std::map<std::string, double> Stage;
    std::string Print;
    double Seconds = bench::timeOf([&] {
      for (const kernels::Kernel &K : Suite) {
        PipelineResult R = analyzeKernel(K, Opts);
        for (const auto &[S, Sec] : R.StageSeconds)
          Stage[S] += Sec;
        Print += fingerprint(R);
      }
    });
    presburger::QueryCacheStats QC = presburger::queryCacheStats();
    presburger::PrefilterStats PF = presburger::prefilterStats();
    if (NT == 1) {
      SerialSeconds = Seconds;
      SerialPrint = Print;
    }
    bool Identical = Print == SerialPrint;
    double Speedup = Seconds > 0 ? SerialSeconds / Seconds : 0;

    std::printf("%-8d %-10.3f %-9.2f %-10llu %-10llu %s\n", NT, Seconds,
                Speedup, static_cast<unsigned long long>(QC.Hits),
                static_cast<unsigned long long>(PF.rejects() +
                                                PF.SyntacticSubsetHits),
                Identical ? "yes" : "NO");

    std::string P = "t" + std::to_string(NT) + "_";
    Report.set(P + "seconds", Seconds);
    Report.set(P + "speedup", Speedup);
    Report.set(P + "identical", static_cast<uint64_t>(Identical ? 1 : 0));
    Report.set(P + "cache_hits", QC.Hits);
    Report.set(P + "cache_misses", QC.Misses);
    Report.set(P + "prefilter_gcd", PF.GcdRejects);
    Report.set(P + "prefilter_eq_conflict", PF.EqConflictRejects);
    Report.set(P + "prefilter_interval", PF.IntervalRejects);
    Report.set(P + "prefilter_subset_syntactic", PF.SyntacticSubsetHits);
    Report.set(P + "prefilter_misses", PF.Misses);
    Report.set(P + "witness_skips", WitnessSkips.value());
    Report.set(P + "simplex_pivots", Pivots.value());
    Report.set(P + "simplex_solves", Solves.value());
    Report.set(P + "simplex_promotions", Promotions.value());
    Report.set(P + "phase2_checks", Phase2Checks.value());
    Report.set(P + "phase2_witness_skips", Phase2Skips.value());
    Report.set(P + "core_trials", CoreTrials.value());
    // The term table never shrinks: its size after the suite counts the
    // distinct atoms the analysis needs, so a change that mints atoms per
    // query shows up here.
    Report.set(P + "interned_atoms",
               static_cast<uint64_t>(ir::Atom::internedCount()));
    for (const auto &[S, Sec] : Stage)
      Report.set(P + "stage_" + S, Sec);
  }

  std::printf("\nNote: speedup is bounded by the hardware thread count "
              "(%d here) and by the single serial subsumption/codegen "
              "barrier; verdicts are identical at every thread count by "
              "construction.\n",
              omp_get_max_threads());
  Report.write();
  return 0;
}
