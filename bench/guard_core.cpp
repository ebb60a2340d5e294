//===- guard_core.cpp - Core-directed guard validation benchmark ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Measures what the per-dependence unsat cores buy the serving path: for
// each wired kernel on a concrete matrix, time full property validation
// (every declared property and domain/range) against core-directed
// validation (only the union of assertion bases some dependence's core
// cites). The check counts are exact and machine-
// independent — they gate in bench/baseline.json — while the wall-time
// ratio demonstrates the >= 30% validation saving on kernels whose cores
// cite fewer than half the declared properties.
//
//===----------------------------------------------------------------------===//

#include "WiredKernels.h"
#include "sds/artifact/Artifact.h"
#include "sds/guard/Guarded.h"

#include <cctype>
#include <cstdio>

using namespace sds;

namespace {

std::string keyOf(const std::string &Name) {
  std::string Key;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Key.push_back(static_cast<char>(std::tolower(C)));
    else if (!Key.empty() && Key.back() != '_')
      Key.push_back('_');
  }
  while (!Key.empty() && Key.back() == '_')
    Key.pop_back();
  return Key;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  (void)bench::parseThreads(argc, argv); // validation itself is serial
  double Scale = bench::envScale();
  std::vector<bench::BenchMatrix> Matrices = bench::benchMatrices(Scale);
  const bench::BenchMatrix &M = Matrices.front();

  bench::BenchReport Report("guard_core");
  Report.set("scale", Scale);

  std::printf("Core-directed guard validation (matrix %s, scale %.3g)\n\n",
              M.Name.c_str(), Scale);
  std::printf("%-10s %9s %9s %9s %12s %12s %8s\n", "kernel", "declared",
              "checked", "skipped", "full_ms", "core_ms", "saved");

  for (const bench::WiredKernel &W : bench::wiredKernels(bench::envHeavy())) {
    bench::WiredKernel::Instance I = W.Wire(M);
    const ir::PropertySet &PS = W.Analysis.Kernel.Properties;
    uint64_t Declared = PS.properties().size() + PS.domainRanges().size();

    std::set<std::string> Cited = guard::citedAssertionBases(W.Analysis.Deps);
    // The artifact decoder rejects a dependence without a core, so a clean
    // round-trip is the check that every dependence carries one.
    artifact::CompiledKernel Loaded;
    bool AllHaveCores =
        artifact::deserialize(
            artifact::serialize(artifact::fromAnalysis(W.Analysis)), Loaded)
            .ok();
    if (!AllHaveCores)
      std::printf("%-10s WARNING: a dependence lacks a core; selective "
                  "validation would be unsound\n",
                  W.Name.c_str());

    guard::ValidationReport Full, Core;
    double FullSec = bench::medianTimeOf(
        [&] { Full = guard::validateProperties(PS, I.Env); }, 9);
    double CoreSec = bench::medianTimeOf(
        [&] { Core = guard::validateProperties(PS, I.Env, Cited); }, 9);

    // The saving is only claimable because the verdict is unchanged: on an
    // honest matrix both validations trust the kernel.
    if (Full.trusted() != Core.trusted())
      std::printf("%-10s ERROR: full and core-directed verdicts differ!\n",
                  W.Name.c_str());

    uint64_t Checked = Core.Checks.size();
    double SavedPct = FullSec > 0 ? 100.0 * (FullSec - CoreSec) / FullSec : 0;
    std::printf("%-10s %9llu %9llu %9llu %12.3f %12.3f %7.1f%%\n",
                W.Name.c_str(), static_cast<unsigned long long>(Declared),
                static_cast<unsigned long long>(Checked),
                static_cast<unsigned long long>(Declared - Checked),
                FullSec * 1e3, CoreSec * 1e3, SavedPct);

    std::string Key = keyOf(W.Name);
    Report.set(Key + "_props_declared", Declared);
    Report.set(Key + "_props_validated", Checked);
    Report.set(Key + "_props_skipped", Declared - Checked);
    Report.set(Key + "_all_have_cores", AllHaveCores ? 1 : 0);
    Report.set(Key + "_verdicts_agree",
               Full.trusted() == Core.trusted() ? 1 : 0);
    Report.set(Key + "_full_validate_seconds", FullSec);
    Report.set(Key + "_core_validate_seconds", CoreSec);
    Report.set(Key + "_saved_pct", SavedPct);
  }

  std::printf("\nCore-directed validation checks only the assertions some "
              "unsat core cites; everything else never influenced a "
              "verdict and is skipped.\n");
  Report.write();
  return 0;
}
