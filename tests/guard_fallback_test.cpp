//===- guard_fallback_test.cpp - Guarded execution / fallback tests -------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The guard contract end to end: clean inputs are trusted and run the
// simplified inspectors; corrupted inputs are detected and (in fallback
// mode) rerouted to the baseline inspectors, whose graph is bit-identical
// to running baselineAnalysis() directly; no fault in a mini campaign
// yields a silently wrong schedule.
//
//===----------------------------------------------------------------------===//

#include "sds/guard/FaultInjection.h"
#include "sds/guard/Guarded.h"

#include <gtest/gtest.h>

using namespace sds;
using namespace sds::guard;

namespace {

struct Fixture {
  rt::CSRMatrix Lower;
  kernels::Kernel K;
  deps::PipelineResult Analysis;
  codegen::UFEnvironment Env;

  Fixture()
      : Lower(rt::lowerTriangle(rt::generateSPDLike({60, 5, 10, 17}))),
        K(kernels::forwardSolveCSR()), Analysis(deps::analyzeKernel(K)),
        Env(driver::bindCSR(Lower)) {}
};

/// The fixture is expensive (a full pipeline analysis); build it once.
const Fixture &fx() {
  static Fixture F;
  return F;
}

bool sameGraph(const rt::DependenceGraph &A, const rt::DependenceGraph &B,
               int N) {
  if (A.numEdges() != B.numEdges())
    return false;
  for (int V = 0; V < N; ++V) {
    std::span<const int> SA = A.successors(V), SB = B.successors(V);
    if (!std::equal(SA.begin(), SA.end(), SB.begin(), SB.end()))
      return false;
  }
  return true;
}

/// A corrupted copy of the fixture environment that breaks the property
/// the analysis actually *cited*: forward solve CSR's only property-unsat
/// core is {triangular_entries_le(col, rowptr)}, and an out-of-range col
/// entry violates it for whatever row holds that entry.
codegen::UFEnvironment corruptedEnv() {
  codegen::UFEnvironment Bad;
  std::string Desc;
  FaultSpec S{"col", FaultKind::OutOfRange, 7};
  bool Injected = injectFault(fx().Env, S, Bad, Desc);
  EXPECT_TRUE(Injected) << Desc;
  return Bad;
}

/// A corruption of an *uncited* aspect: swapping two adjacent col entries
/// within a row breaks periodic_monotonic(col, rowptr) — declared but
/// cited by no unsat core — while preserving the per-row entry multiset
/// that triangular_entries_le constrains.
codegen::UFEnvironment uncitedCorruptedEnv() {
  codegen::UFEnvironment Bad;
  std::string Desc;
  FaultSpec S{"col", FaultKind::SwapAdjacent, 7};
  bool Injected = injectFault(fx().Env, S, Bad, Desc);
  EXPECT_TRUE(Injected) << Desc;
  return Bad;
}

} // namespace

TEST(GuardMode, ParseRoundTrips) {
  EXPECT_EQ(parseGuardMode("off"), GuardMode::Off);
  EXPECT_EQ(parseGuardMode("warn"), GuardMode::Warn);
  EXPECT_EQ(parseGuardMode("fallback"), GuardMode::Fallback);
  EXPECT_FALSE(parseGuardMode("strict").has_value());
  EXPECT_STREQ(guardModeName(GuardMode::Fallback), "fallback");
}

TEST(BaselineAnalysis, RevokesEverySimplification) {
  const Fixture &F = fx();
  deps::PipelineResult Base = baselineAnalysis(F.Analysis);
  ASSERT_EQ(Base.Deps.size(), F.Analysis.Deps.size());
  bool SawRevoked = false;
  for (size_t I = 0; I < Base.Deps.size(); ++I) {
    const deps::AnalyzedDependence &Orig = F.Analysis.Deps[I];
    const deps::AnalyzedDependence &B = Base.Deps[I];
    if (Orig.Status == deps::DepStatus::AffineUnsat) {
      // Affine refutations hold for arbitrary array contents and survive.
      EXPECT_EQ(B.Status, deps::DepStatus::AffineUnsat);
      continue;
    }
    SawRevoked = true;
    EXPECT_EQ(B.Status, deps::DepStatus::Runtime);
    EXPECT_TRUE(B.Plan.Valid) << B.Plan.WhyInvalid;
    EXPECT_EQ(B.NewEqualities, 0u);
    EXPECT_TRUE(B.SubsumedBy.empty());
    EXPECT_EQ(B.Prov.Stage, "guard-baseline");
  }
  // forward solve CSR has property-unsat and runtime dependences, so the
  // baseline must actually revoke something.
  EXPECT_TRUE(SawRevoked);
}

TEST(RunGuarded, CleanInputIsTrusted) {
  const Fixture &F = fx();
  GuardedResult G = runGuarded(F.Analysis, F.K.Properties, F.Env, F.Lower.N);
  EXPECT_TRUE(G.Validated);
  EXPECT_TRUE(G.Trusted) << G.Report.str();
  EXPECT_FALSE(G.UsedFallback);

  driver::InspectionResult Direct =
      driver::runInspectors(F.Analysis, F.Env, F.Lower.N);
  EXPECT_TRUE(sameGraph(G.Inspection.Graph, Direct.Graph, F.Lower.N));
}

TEST(RunGuarded, CorruptedInputFallsBackToBaselineGraph) {
  const Fixture &F = fx();
  codegen::UFEnvironment Bad = corruptedEnv();

  GuardedOptions Opts;
  Opts.Verify = true;
  GuardedResult G = runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N,
                               Opts);
  EXPECT_TRUE(G.Validated);
  // Validation is core-directed: the violated triangular_entries_le base
  // is cited, so it is among the checked ones.
  EXPECT_FALSE(G.Trusted);
  EXPECT_TRUE(G.UsedFallback);
  EXPECT_GE(G.DepsRevoked, 1u);
  EXPECT_TRUE(G.Report.violated()) << G.Report.str();

  // Revocation is per-dependence, but for forward solve CSR the only
  // simplification cites the violated base and the surviving runtime
  // check was never rewritten — so the graph in use must be exactly what
  // the baseline inspectors produce on the same corrupted arrays.
  driver::InspectionResult Base =
      driver::runInspectors(baselineAnalysis(F.Analysis), Bad, F.Lower.N);
  EXPECT_TRUE(sameGraph(G.Inspection.Graph, Base.Graph, F.Lower.N));

  // And scheduling that graph respects itself — verify mode agrees.
  EXPECT_TRUE(G.Verified);
  EXPECT_TRUE(G.VerifyPassed) << G.VerifyDetail;

  EXPECT_NE(G.summary().find("revoked"), std::string::npos) << G.summary();
}

TEST(RunGuarded, UncitedCorruptionIsToleratedByCoreDirectedValidation) {
  const Fixture &F = fx();
  codegen::UFEnvironment Bad = uncitedCorruptedEnv();

  GuardedOptions Opts;
  Opts.Verify = true;
  GuardedResult G = runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N,
                               Opts);
  EXPECT_TRUE(G.Validated);
  // periodic_monotonic(col, rowptr) is broken but uncited: no verdict
  // depended on it, so the guard keeps trusting the simplified
  // inspectors — and skips its check entirely.
  EXPECT_TRUE(G.Trusted) << G.Report.str();
  EXPECT_FALSE(G.UsedFallback);
  EXPECT_EQ(G.DepsRevoked, 0u);
  EXPECT_GT(G.PropsSkipped, 0u);

  // The tolerance is sound, not lucky: the schedule still respects the
  // baseline graph over the same corrupted arrays.
  EXPECT_TRUE(G.Verified);
  EXPECT_TRUE(G.VerifyPassed) << G.VerifyDetail;

  // Full validation *would* have revoked trust — this is precisely the
  // false-revocation the core-directed guard eliminates.
  ValidationReport Full = validateProperties(F.K.Properties, Bad);
  EXPECT_FALSE(Full.trusted());
}

TEST(RunGuarded, WarnModeDetectsWithoutFallingBack) {
  const Fixture &F = fx();
  codegen::UFEnvironment Bad = corruptedEnv();

  GuardedOptions Opts;
  Opts.Mode = GuardMode::Warn;
  GuardedResult G = runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N,
                               Opts);
  EXPECT_TRUE(G.Validated);
  EXPECT_FALSE(G.Trusted);
  EXPECT_FALSE(G.UsedFallback);

  // Warn keeps the simplified inspectors (the point: observe, don't veto).
  driver::InspectionResult Simplified =
      driver::runInspectors(F.Analysis, Bad, F.Lower.N);
  EXPECT_TRUE(sameGraph(G.Inspection.Graph, Simplified.Graph, F.Lower.N));
}

TEST(RunGuarded, OffModeSkipsValidation) {
  const Fixture &F = fx();
  codegen::UFEnvironment Bad = corruptedEnv();

  GuardedOptions Opts;
  Opts.Mode = GuardMode::Off;
  GuardedResult G = runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N,
                               Opts);
  EXPECT_FALSE(G.Validated);
  EXPECT_TRUE(G.Trusted); // blind trust by request
  EXPECT_FALSE(G.UsedFallback);
  EXPECT_TRUE(G.Report.Checks.empty());
}

TEST(FaultInjection, InjectionIsDeterministic) {
  const Fixture &F = fx();
  codegen::UFEnvironment A, B;
  std::string DA, DB;
  FaultSpec S{"col", FaultKind::OffByOne, 42};
  ASSERT_TRUE(injectFault(F.Env, S, A, DA));
  ASSERT_TRUE(injectFault(F.Env, S, B, DB));
  EXPECT_EQ(DA, DB);
  EXPECT_EQ(*A.Spans.at("col"), *B.Spans.at("col"));
  // Exactly the named array changed.
  EXPECT_NE(*A.Spans.at("col"), *F.Env.Spans.at("col"));
  EXPECT_EQ(*A.Spans.at("rowptr"), *F.Env.Spans.at("rowptr"));
}

TEST(FaultInjection, CampaignCoversEveryArrayAndKind) {
  const Fixture &F = fx();
  std::vector<FaultSpec> Specs = faultCampaign(F.Env, 2);
  // Every (bound array) x (fault kind) x (seed) combination.
  EXPECT_EQ(Specs.size(),
            F.Env.Spans.size() * allFaultKinds().size() * 2);
}

TEST(FaultInjection, MiniCampaignHasNoSilentWrongSchedules) {
  const Fixture &F = fx();
  std::vector<FaultSpec> Specs = faultCampaign(F.Env, 1);
  CampaignResult R = runCampaign(F.Analysis, F.K.Properties, F.Env,
                                 F.Lower.N, Specs, 2);
  ASSERT_FALSE(R.Trials.empty());
  EXPECT_EQ(R.silentWrong(), 0u) << R.summary();
  // Most corruptions of a forward-solve CSR environment are detectable.
  EXPECT_GT(R.detected(), 0u);
  // Bookkeeping adds up: every injected trial is detected, tolerated, or
  // silent-wrong.
  EXPECT_EQ(R.injected(), R.detected() + R.tolerated() + R.silentWrong());
}
