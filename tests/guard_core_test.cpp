//===- guard_core_test.cpp - Core-directed validation differential tests --===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The trust-base contract of per-dependence unsat cores, differentially
// against full validation across the fault-injection corruption classes:
//
//   * on the checks both validations run (the cited bases), the verdicts
//     are bit-identical — core-directed validation never reinterprets a
//     check, it only drops uncited ones;
//   * core-directed validation rejects exactly when full validation
//     rejects on a *cited* base;
//   * every divergence (full rejects, core-directed accepts) is an
//     uncited corruption, and is safe: the simplified schedule still
//     respects the baseline dependence graph on the corrupted arrays.
//
// Plus the provenance invariants the guard relies on: every analyzed
// dependence of every (light) paper kernel carries a core, eliminated
// dependences cite only declared assertion bases, and PropertyCheck::Base
// round-trips through ir::labelBase.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/guard/FaultInjection.h"
#include "sds/guard/Guarded.h"

#include <gtest/gtest.h>

#include <map>

using namespace sds;
using namespace sds::guard;

namespace {

struct Fixture {
  rt::CSRMatrix Lower;
  kernels::Kernel K;
  deps::PipelineResult Analysis;
  codegen::UFEnvironment Env;
  std::set<std::string> Cited;

  Fixture()
      : Lower(rt::lowerTriangle(rt::generateSPDLike({72, 5, 11, 3}))),
        K(kernels::forwardSolveCSR()), Analysis(deps::analyzeKernel(K)),
        Env(driver::bindCSR(Lower)) {
    Cited = citedAssertionBases(Analysis.Deps);
  }
};

const Fixture &fx() {
  static Fixture F;
  return F;
}

/// Map of base -> outcome for one report. Bases are unique per report
/// because each declaration is checked at most once.
std::map<std::string, CheckOutcome>
outcomesByBase(const ValidationReport &R) {
  std::map<std::string, CheckOutcome> M;
  for (const PropertyCheck &C : R.Checks)
    M.emplace(C.Base, C.Outcome);
  return M;
}

} // namespace

TEST(CoreProvenance, EveryDependenceCarriesACore) {
  const Fixture &F = fx();
  for (const deps::AnalyzedDependence &D : F.Analysis.Deps) {
    if (D.Status == deps::DepStatus::PropertyUnsat) {
      EXPECT_FALSE(D.Core.Assertions.empty())
          << D.Dep.label() << ": a property-unsat proof must cite something";
    }
  }
}

TEST(CoreProvenance, SuiteWideEveryEliminationCarriesACore) {
  // The acceptance bar for proof-producing refutation: across the whole
  // Table-2 suite, every analyzed dependence records its trust base, and
  // every property-driven elimination cites at least one assertion. The
  // heavy factorizations run with the proof stages off (the
  // artifact_roundtrip_test idiom) — their affine refutations still
  // carry (empty) cores, which is the point: empty is a statement,
  // absent is not.
  deps::PipelineOptions Reduced;
  Reduced.UseProperties = false;
  Reduced.UseEqualities = false;
  Reduced.UseSubsets = false;
  Reduced.Simp.SemanticPhase1 = false;
  Reduced.Simp.InstantiationRounds = 1;
  Reduced.Simp.MaxInstances = 2000;
  Reduced.Simp.MaxPhase2Instances = 2;
  Reduced.Simp.MaxPieces = 16;
  struct Case {
    kernels::Kernel K;
    deps::PipelineOptions Opts;
  };
  const Case Suite[] = {
      {kernels::forwardSolveCSR(), {}},
      {kernels::forwardSolveCSC(), {}},
      {kernels::gaussSeidelCSR(), {}},
      {kernels::spmvCSR(), {}},
      {kernels::leftCholeskyCSC(), {}},
      {kernels::incompleteLU0CSR(), Reduced},
      {kernels::incompleteCholeskyCSC(), Reduced},
  };
  for (const Case &C : Suite) {
    SCOPED_TRACE(C.K.Name);
    deps::PipelineResult R = deps::analyzeKernel(C.K, C.Opts);
    for (const deps::AnalyzedDependence &D : R.Deps) {
      if (D.Status == deps::DepStatus::PropertyUnsat) {
        EXPECT_FALSE(D.Core.Assertions.empty()) << D.Dep.label();
      }
    }
    // The artifact decoder rejects a dependence without a well-formed
    // core, so a clean round-trip proves every core is present.
    artifact::CompiledKernel Loaded;
    support::Status S = artifact::deserialize(
        artifact::serialize(artifact::fromAnalysis(R, C.Opts)), Loaded);
    EXPECT_TRUE(S.ok()) << S.str();
  }
}

TEST(CoreProvenance, CitedBasesAreDeclaredAssertionBases) {
  const Fixture &F = fx();
  std::set<std::string> Declared;
  for (const ir::IndexArrayProperty &P : F.K.Properties.properties())
    Declared.insert(ir::labelBase(P));
  for (const ir::DomainRangeDecl &D : F.K.Properties.domainRanges())
    Declared.insert(ir::labelBase(D));
  EXPECT_FALSE(F.Cited.empty());
  for (const std::string &B : F.Cited)
    EXPECT_TRUE(Declared.count(B)) << "core cites undeclared base " << B;
  // The whole point: the trust base is a strict subset of the declaration.
  EXPECT_LT(F.Cited.size(), Declared.size());
}

TEST(CoreProvenance, CheckBaseMatchesPropertyLabelBase) {
  const Fixture &F = fx();
  ValidationReport Full = validateProperties(F.K.Properties, F.Env);
  std::set<std::string> Declared;
  for (const ir::IndexArrayProperty &P : F.K.Properties.properties())
    Declared.insert(ir::labelBase(P));
  for (const ir::DomainRangeDecl &D : F.K.Properties.domainRanges())
    Declared.insert(ir::labelBase(D));
  ASSERT_EQ(Full.Checks.size(), Declared.size());
  for (const PropertyCheck &C : Full.Checks)
    EXPECT_TRUE(Declared.count(C.Base))
        << "check base '" << C.Base << "' matches no declaration";
}

TEST(CoreDirectedValidation, RunsExactlyTheCitedChecks) {
  const Fixture &F = fx();
  ValidationReport Sel = validateProperties(F.K.Properties, F.Env, F.Cited);
  std::set<std::string> Ran;
  for (const PropertyCheck &C : Sel.Checks)
    Ran.insert(C.Base);
  EXPECT_EQ(Ran, F.Cited);
}

TEST(CoreDirectedValidation, DifferentialAgainstFullUnderFaultCampaign) {
  const Fixture &F = fx();
  unsigned Divergences = 0, Trials = 0;
  for (const FaultSpec &S : faultCampaign(F.Env, /*SeedsPerPair=*/2)) {
    codegen::UFEnvironment Bad;
    std::string Desc;
    if (!injectFault(F.Env, S, Bad, Desc))
      continue;
    ++Trials;
    SCOPED_TRACE(std::string(faultKindName(S.Kind)) + "(" + S.Array +
                 ", seed=" + std::to_string(S.Seed) + "): " + Desc);

    ValidationReport Full = validateProperties(F.K.Properties, Bad);
    ValidationReport Sel = validateProperties(F.K.Properties, Bad, F.Cited);

    // Bit-identical verdicts on the checks both ran.
    std::map<std::string, CheckOutcome> FullOut = outcomesByBase(Full);
    for (const PropertyCheck &C : Sel.Checks) {
      auto It = FullOut.find(C.Base);
      ASSERT_NE(It, FullOut.end()) << C.Base;
      EXPECT_EQ(C.Outcome, It->second) << C.Base;
    }

    // Core-directed validation rejects exactly when full validation
    // rejects on a cited base.
    bool FullRejectsCited = false;
    for (const PropertyCheck &C : Full.Checks)
      if (C.Outcome != CheckOutcome::Pass && F.Cited.count(C.Base))
        FullRejectsCited = true;
    EXPECT_EQ(!Sel.trusted(), FullRejectsCited);

    // A divergence means full validation caught an uncited corruption.
    // That is the saving, and it must be safe: the simplified schedule
    // still respects the baseline graph over the corrupted arrays.
    if (Sel.trusted() && !Full.trusted()) {
      ++Divergences;
      GuardedOptions GO;
      GO.Mode = GuardMode::Warn;
      GO.Verify = true;
      GuardedResult G =
          runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N, GO);
      EXPECT_TRUE(G.Verified);
      EXPECT_TRUE(G.VerifyPassed)
          << "uncited corruption broke the schedule: " << G.VerifyDetail;
    }
  }
  ASSERT_GT(Trials, 0u);
  // The campaign includes corruptions (e.g. within-row col swaps) that
  // only break uncited properties — the differential must actually bite.
  EXPECT_GT(Divergences, 0u);
}

TEST(CoreDirectedValidation, FallbackAndSelectiveGraphsAgreeUnderCampaign) {
  const Fixture &F = fx();
  // In Fallback mode the guard's end decision (which inspectors run) must
  // yield a schedule that respects the baseline graph for every corruption
  // class — per-dependence revocation included.
  for (FaultKind K : allFaultKinds()) {
    codegen::UFEnvironment Bad;
    std::string Desc;
    if (!injectFault(F.Env, {"col", K, 3}, Bad, Desc))
      continue;
    SCOPED_TRACE(std::string(faultKindName(K)) + ": " + Desc);
    GuardedOptions GO;
    GO.Verify = true;
    GuardedResult G =
        runGuarded(F.Analysis, F.K.Properties, Bad, F.Lower.N, GO);
    EXPECT_TRUE(G.Verified);
    EXPECT_TRUE(G.VerifyPassed) << G.VerifyDetail;
  }
}
