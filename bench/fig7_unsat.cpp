//===- fig7_unsat.cpp - Regenerate Figure 7 --------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Figure 7: number of dependences left after disproving with each index-
// array property class in isolation (and all combined), bucketed by the
// complexity class of the inspector each dependence would need. In the
// paper: 75 relations, 8 affine-unsat, 45 more removed by properties, 22
// remaining; the combination beats the sum of its parts.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sds/deps/Extraction.h"
#include "sds/ir/Simplify.h"
#include "sds/kernels/Kernels.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>

using namespace sds;
using ir::PropertyKind;

namespace {

struct Config {
  const char *Name;
  bool UseAffine;                        // run affine-consistency first
  bool UseProperties;
  std::vector<PropertyKind> Kinds;       // empty = all declared
};

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  bool Heavy = bench::envHeavy();
  int Threads = bench::parseThreads(argc, argv);
  std::vector<Config> Configs = {
      {"Original", false, false, {}},
      {"Affine Consistency", true, false, {}},
      {"Monotonicity",
       true,
       true,
       {PropertyKind::MonotonicIncreasing,
        PropertyKind::StrictMonotonicIncreasing,
        PropertyKind::MonotonicDecreasing,
        PropertyKind::StrictMonotonicDecreasing, PropertyKind::Injective}},
      {"Periodic Monotonicity", true, true, {PropertyKind::PeriodicMonotonic}},
      {"Correlated Monotonicity",
       true,
       true,
       {PropertyKind::CoMonotonic, PropertyKind::SegmentPointer}},
      {"Triangular Matrix",
       true,
       true,
       {PropertyKind::Triangular, PropertyKind::TriangularEntriesLE,
        PropertyKind::TriangularEntriesGE, PropertyKind::TriangularEntriesLT,
        PropertyKind::TriangularEntriesGT,
        PropertyKind::SegmentStartIdentity}},
      {"Combination", true, true, {}},
  };

  // Budget configuration: this bench decides 67 relations x 7 property
  // configurations, so each decision runs with a single instantiation
  // round, no semantic probes, and a small phase-2 allowance. The full-
  // budget pipeline (fig8/table3) proves a couple more relations unsat;
  // the per-class *shape* is unaffected.
  ir::SimplifyOptions Opts;
  Opts.SemanticPhase1 = false;
  Opts.InstantiationRounds = 1;
  Opts.MaxInstances = 6000;
  Opts.MaxPhase2Instances = 3;
  Opts.MaxPieces = 24;

  // Gather all dependences with their complexity class up front.
  struct DepRec {
    ir::SparseRelation Rel;
    ir::PropertySet Props;
    std::string CostClass;
  };
  std::vector<DepRec> Deps;
  for (const kernels::Kernel &K : kernels::allKernels()) {
    if (!Heavy && bench::heavyKernel(K))
      continue;
    for (const deps::Dependence &D : deps::extractDependences(K)) {
      DepRec R;
      R.Rel = D.Rel;
      R.Props = K.Properties;
      codegen::InspectorPlan P = codegen::buildInspectorPlan(D.Rel);
      R.CostClass = P.Valid ? P.Cost.str() : "(unbounded)";
      Deps.push_back(std::move(R));
    }
  }
  std::printf("Figure 7: dependences remaining after disproving "
              "(%zu unique relations total%s)\n\n",
              Deps.size(), Heavy ? "" : ", heavy kernels skipped");

  bench::BenchReport Report("fig7");
  Report.set("relations", static_cast<uint64_t>(Deps.size()));
  Report.set("threads", Threads);
  for (const Config &C : Configs) {
    // Each relation decides independently; fan the refutations out and
    // fold the verdict vector serially in relation order, so the printed
    // figure is identical at any thread count.
    std::vector<char> Unsats(Deps.size(), 0);
    // Per-query unsat-core size (number of cited assertion labels) for
    // every property-based refutation; -1 = no property proof for this
    // relation under this configuration.
    std::vector<int> CoreSizes(Deps.size(), -1);
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads(Threads)
#endif
    for (size_t I = 0; I < Deps.size(); ++I) {
      const DepRec &D = Deps[I];
      bool Unsat = false;
      if (C.UseAffine && ir::provenUnsatAffineOnly(D.Rel, Opts))
        Unsat = true;
      if (!Unsat && C.UseProperties) {
        ir::PropertySet PS =
            C.Kinds.empty() ? D.Props : D.Props.filtered(C.Kinds);
        ir::UnsatCore Core;
        Unsat = ir::provenUnsat(D.Rel, PS, Opts, nullptr, &Core);
        if (Unsat)
          CoreSizes[I] = static_cast<int>(Core.Assertions.size());
      }
      Unsats[I] = Unsat ? 1 : 0;
    }
    std::map<std::string, unsigned> Histogram;
    unsigned Remaining = 0;
    uint64_t CoreQueries = 0, CoreCited = 0, CoreMax = 0;
    for (size_t I = 0; I < Deps.size(); ++I) {
      if (!Unsats[I]) {
        ++Remaining;
        ++Histogram[Deps[I].CostClass];
      }
      if (CoreSizes[I] >= 0) {
        ++CoreQueries;
        CoreCited += static_cast<uint64_t>(CoreSizes[I]);
        CoreMax = std::max(CoreMax, static_cast<uint64_t>(CoreSizes[I]));
      }
    }
    std::printf("%-24s remaining=%2u :", C.Name, Remaining);
    for (const auto &[Class, Count] : Histogram)
      std::printf("  %s:%u", Class.c_str(), Count);
    if (CoreQueries)
      std::printf("  [cores: %llu proofs, %llu cited, max %llu]",
                  static_cast<unsigned long long>(CoreQueries),
                  static_cast<unsigned long long>(CoreCited),
                  static_cast<unsigned long long>(CoreMax));
    std::printf("\n");
    std::string Key;
    for (const char *P = C.Name; *P; ++P)
      Key.push_back(*P == ' ' ? '_' : static_cast<char>(std::tolower(*P)));
    Report.set("remaining_" + Key, static_cast<uint64_t>(Remaining));
    if (C.UseProperties) {
      // Exact counts — deterministic across machines and thread counts.
      Report.set("core_queries_" + Key, CoreQueries);
      Report.set("core_cited_" + Key, CoreCited);
      Report.set("core_max_" + Key, CoreMax);
    }
  }
  std::printf(
      "\nPaper reference: Original 75, Affine Consistency 67, all "
      "properties combined leave 22 runtime checks (Figure 7, §7.1).\n");
  Report.write();
  return 0;
}
