//===- infer_speculate_test.cpp - Speculative inference contract tests ----===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The inverted property flow, end to end on one light kernel:
//
//   * the O(n + nnz) profiler confirms every hand-declared Table 1
//     property of the bound arrays (tier Inferred), and its fingerprint
//     is deterministic and profile-sensitive;
//   * a speculated analysis (declarations stripped) recovers the declared
//     analysis's dependence graph bit-identically, and marks exactly the
//     speculation-dependent dependences Remediable with their cited
//     inferred assertions;
//   * misspeculation — arrays corrupted after inference — trips remedy
//     validation in guard Mode Off and revokes dependences individually,
//     never past the remediable set, and never serves a wrong schedule
//     (runInferCampaign across every corruption class);
//   * speculation survives the artifact codec (tier, Remediable,
//     InferredCited, Options.Speculate, InferredFingerprint) and the
//     engine keys speculated tiers apart from declared-only ones;
//   * inference agrees with the guard: on Table-4 bindings and a sweep of
//     random small environments, every confirmed candidate passes
//     validateProperties and every refuted one fails it outright.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/engine/Engine.h"
#include "sds/guard/FaultInjection.h"
#include "sds/guard/Guarded.h"
#include "sds/infer/Infer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace sds;
using namespace sds::guard;

namespace {

struct Fixture {
  rt::CSRMatrix Lower;
  kernels::Kernel K;
  codegen::UFEnvironment Env;
  infer::InferenceResult Inf;
  deps::PipelineResult Declared;
  deps::PipelineResult Speculated;
  deps::PipelineOptions SpecOpts;

  Fixture()
      : Lower(rt::lowerTriangle(rt::generateSPDLike({72, 5, 11, 3}))),
        K(kernels::forwardSolveCSR()), Env(driver::bindCSR(Lower)),
        Inf(infer::inferProperties(Env)), Declared(deps::analyzeKernel(K)) {
    kernels::Kernel Stripped = K;
    Stripped.Properties = ir::PropertySet{};
    SpecOpts.Speculate = true;
    SpecOpts.InferredProps = Inf.Confirmed;
    Speculated = deps::analyzeKernel(Stripped, SpecOpts);
  }
};

const Fixture &fx() {
  static Fixture F;
  return F;
}

bool graphsIdentical(const rt::DependenceGraph &A,
                     const rt::DependenceGraph &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges())
    return false;
  for (int V = 0; V < A.numNodes(); ++V) {
    auto SA = A.successors(V), SB = B.successors(V);
    if (SA.size() != SB.size() ||
        !std::equal(SA.begin(), SA.end(), SB.begin()))
      return false;
  }
  return true;
}

TEST(InferSpeculate, ProfilerConfirmsDeclaredTrustBase) {
  const Fixture &F = fx();
  EXPECT_GT(F.Inf.ConfirmedCount, 0u);
  EXPECT_EQ(F.Inf.ConfirmedCount + F.Inf.RefutedCount, F.Inf.Proposed);
  // Every hand-declared property of the kernel must be rediscovered by
  // the profiler on arrays it actually holds on — as tier Inferred.
  for (const ir::IndexArrayProperty &P : F.K.Properties.properties()) {
    auto T = F.Inf.Confirmed.tierForLabelBase(ir::labelBase(P));
    ASSERT_TRUE(T.has_value()) << ir::labelBase(P);
    EXPECT_EQ(*T, ir::PropertyTier::Inferred);
  }
  for (const ir::DomainRangeDecl &D : F.K.Properties.domainRanges()) {
    auto T = F.Inf.Confirmed.tierForLabelBase(ir::labelBase(D));
    ASSERT_TRUE(T.has_value()) << ir::labelBase(D);
    EXPECT_EQ(*T, ir::PropertyTier::Inferred);
  }
}

TEST(InferSpeculate, FingerprintDeterministicAndProfileSensitive) {
  const Fixture &F = fx();
  uint64_t Fp = F.Inf.fingerprint();
  EXPECT_NE(Fp, 0u);
  EXPECT_EQ(infer::inferProperties(F.Env).fingerprint(), Fp);

  // Break rowptr's strict monotonicity: the confirmed set loses at least
  // that base, so the profile — and the fingerprint — must change.
  FaultSpec S{"rowptr", FaultKind::SwapAdjacent, 0};
  codegen::UFEnvironment Bad;
  std::string Desc;
  ASSERT_TRUE(injectFault(F.Env, S, Bad, Desc));
  EXPECT_NE(infer::inferProperties(Bad).fingerprint(), Fp);
}

/// Inference's verdicts against the guard's on one binding: confirmed
/// candidates pass validation; refuted ones, re-tiered Inferred and
/// checked alone, fail with a counterexample (not Skipped or Exhausted).
void expectAgreesWithGuard(const codegen::UFEnvironment &Env,
                           const std::string &What) {
  infer::InferenceResult Inf = infer::inferProperties(Env);
  for (const PropertyCheck &C :
       validateProperties(Inf.Confirmed, Env).Checks)
    EXPECT_EQ(C.Outcome, CheckOutcome::Pass) << What << ": " << C.str();
  auto ExpectFails = [&](ir::PropertySet One) {
    ValidationReport R = validateProperties(One, Env);
    ASSERT_EQ(R.Checks.size(), 1u) << What;
    EXPECT_EQ(R.Checks[0].Outcome, CheckOutcome::Fail)
        << What << ": " << R.Checks[0].str();
  };
  for (ir::IndexArrayProperty P : Inf.Refuted.properties()) {
    P.Tier = ir::PropertyTier::Inferred;
    ir::PropertySet One;
    One.add(std::move(P));
    ExpectFails(std::move(One));
  }
  for (ir::DomainRangeDecl D : Inf.Refuted.domainRanges()) {
    D.Tier = ir::PropertyTier::Inferred;
    ir::PropertySet One;
    One.addDomainRange(std::move(D));
    ExpectFails(std::move(One));
  }
}

TEST(InferSpeculate, InferenceAgreesWithGuard) {
  for (const rt::MatrixProfile &Prof : rt::table4Profiles()) {
    rt::CSRMatrix A = rt::generateFromProfile(Prof, 0.002);
    rt::CSRMatrix Lower = rt::lowerTriangle(A);
    rt::CSCMatrix L = rt::toCSC(Lower);
    rt::PruneSets Prune = rt::buildPruneSets(L);
    expectAgreesWithGuard(driver::bindCSR(A, A.diagonalPositions()),
                          Prof.Name + " csr");
    expectAgreesWithGuard(driver::bindCSR(Lower), Prof.Name + " lower csr");
    expectAgreesWithGuard(driver::bindCSC(L, &Prune),
                          Prof.Name + " csc+prune");
  }

  // Random small environments reach the edge cases the matrices never
  // do: empty and singleton arrays, negative entries, windows that leave
  // the entry array, and parameters the bounds snap to.
  std::mt19937 Rng(20190622);
  auto Uniform = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  for (int Trial = 0; Trial < 2000; ++Trial) {
    codegen::UFEnvironment Env;
    for (const char *Name : {"a", "b", "c"}) {
      std::vector<int> V(static_cast<size_t>(Uniform(0, 6)));
      for (int &X : V)
        X = Uniform(-1, 7);
      if (Uniform(0, 1))
        std::sort(V.begin(), V.end());
      Env.bindArray(Name, std::move(V));
    }
    Env.Params["n"] = Uniform(0, 5);
    expectAgreesWithGuard(Env, "random trial " + std::to_string(Trial));
  }
}

TEST(InferSpeculate, SpeculatedAnalysisRecoversGraphBitIdentically) {
  const Fixture &F = fx();
  EXPECT_EQ(F.Declared.count(deps::DepStatus::PropertyUnsat),
            F.Speculated.count(deps::DepStatus::PropertyUnsat));

  unsigned Remediable = 0;
  for (const deps::AnalyzedDependence &D : F.Speculated.Deps) {
    EXPECT_EQ(D.Remediable, !D.InferredCited.empty());
    Remediable += D.Remediable ? 1 : 0;
    // Every cited base must exist in the union set with tier Inferred —
    // remedies only ever point at speculation.
    for (const std::string &B : D.InferredCited) {
      auto T = F.Speculated.Kernel.Properties.tierForLabelBase(B);
      ASSERT_TRUE(T.has_value()) << B;
      EXPECT_EQ(*T, ir::PropertyTier::Inferred);
    }
  }
  EXPECT_GE(Remediable, 1u);

  driver::InspectionResult DeclRun =
      driver::runInspectors(F.Declared, F.Env, F.Lower.N);
  driver::InspectionResult SpecRun =
      driver::runInspectors(F.Speculated, F.Env, F.Lower.N);
  EXPECT_TRUE(graphsIdentical(DeclRun.Graph, SpecRun.Graph));
}

TEST(InferSpeculate, PristineRemediesAllPass) {
  const Fixture &F = fx();
  GuardedOptions GO;
  GO.Mode = GuardMode::Off;
  GuardedResult G = runGuarded(F.Speculated, F.Speculated.Kernel.Properties,
                               F.Env, F.Lower.N, GO);
  // Mode Off still validates remedies — and on the arrays inference ran
  // against, every one of them passes.
  EXPECT_TRUE(G.Validated);
  EXPECT_GE(G.RemediesChecked, 1u);
  EXPECT_EQ(G.RemediesFailed, 0u);
  EXPECT_EQ(G.DepsRevoked, 0u);
  EXPECT_FALSE(G.UsedFallback);
  EXPECT_TRUE(G.Trusted);
  EXPECT_GE(G.DepsRemediable, 1u);
}

TEST(InferSpeculate, MisspeculationRevokesPerDependence) {
  const Fixture &F = fx();
  // Corrupt col *after* inference: triangularity/periodicity no longer
  // hold, so the remedies citing them must fail and revoke exactly the
  // citing dependences — not the whole analysis.
  FaultSpec S{"col", FaultKind::OutOfRange, 0};
  codegen::UFEnvironment Bad;
  std::string Desc;
  ASSERT_TRUE(injectFault(F.Env, S, Bad, Desc));

  GuardedOptions GO;
  GO.Mode = GuardMode::Off;
  GO.Verify = true;
  GuardedResult G = runGuarded(F.Speculated, F.Speculated.Kernel.Properties,
                               Bad, F.Lower.N, GO);
  EXPECT_GE(G.RemediesChecked, 1u);
  EXPECT_GE(G.RemediesFailed, 1u);
  EXPECT_GE(G.DepsRevoked, 1u);
  // A failed inferred domain/range remedy revokes *structurally* — every
  // simplified dependence whose relation applies the function — because
  // instantiation bakes domain facts into every UF encoding and cores
  // legitimately under-cite them. So revocation may exceed the
  // core-remediable count, but never the simplified-dependence count.
  EXPECT_LE(G.DepsRevoked, F.Speculated.Deps.size());
  EXPECT_TRUE(G.UsedFallback);
  // Revocation repaired the plan: the schedule respects the corrupted
  // input's baseline graph.
  ASSERT_TRUE(G.Verified);
  EXPECT_TRUE(G.VerifyPassed);
}

TEST(InferSpeculate, InferCampaignContractHolds) {
  const Fixture &F = fx();
  InferCampaignResult R = runInferCampaign(F.K, F.Env, F.Lower.N, 1, 2);
  EXPECT_GT(R.injected(), 0u);
  EXPECT_GE(R.SpeculativeDeps, 1u);
  EXPECT_GE(R.EliminatedSpeculatively, 1u);
  // At least one corruption lands on a cited array and trips a remedy...
  EXPECT_GE(R.remedyTripped(), 1u);
  EXPECT_GE(R.revokedDeps(), 1u);
  // ...and no trial, tripped or tolerated, ever serves a wrong schedule.
  EXPECT_EQ(R.silentWrong(), 0u);
  for (const InferTrial &T : R.Trials) {
    if (T.Injected) {
      EXPECT_TRUE(T.StillCorrect) << T.str();
    }
  }
}

TEST(InferSpeculate, ArtifactRoundTripCarriesSpeculation) {
  const Fixture &F = fx();
  deps::PipelineResult Copy = F.Speculated;
  artifact::CompiledKernel CK =
      artifact::fromAnalysis(std::move(Copy), F.SpecOpts);
  CK.InferredFingerprint = F.Inf.fingerprint();
  ASSERT_TRUE(CK.Options.Speculate);

  artifact::CompiledKernel Back;
  support::Status St = artifact::deserialize(artifact::serialize(CK), Back);
  ASSERT_TRUE(St.ok()) << St.str();
  EXPECT_TRUE(Back.Options.Speculate);
  EXPECT_EQ(Back.InferredFingerprint, CK.InferredFingerprint);

  // Tiers survive the codec: the union set decodes with its Inferred
  // entries intact.
  unsigned Inferred = 0;
  for (const ir::IndexArrayProperty &P : Back.Properties.properties())
    Inferred += P.Tier == ir::PropertyTier::Inferred ? 1 : 0;
  EXPECT_GE(Inferred, 1u);

  // So do the per-dependence remedy records.
  unsigned Remediable = 0;
  for (size_t I = 0; I < Back.Deps.size(); ++I) {
    EXPECT_EQ(Back.Deps[I].Remediable, CK.Deps[I].Remediable);
    EXPECT_EQ(Back.Deps[I].InferredCited, CK.Deps[I].InferredCited);
    Remediable += Back.Deps[I].Remediable ? 1 : 0;
  }
  EXPECT_GE(Remediable, 1u);

  // And a re-serialize is byte-identical (determinism contract).
  EXPECT_EQ(artifact::serialize(Back), artifact::serialize(CK));
}

TEST(InferSpeculate, EngineKeysSpeculatedTiersSeparately) {
  const Fixture &F = fx();
  engine::Engine E;

  auto Spec = E.speculatedCompiled(F.K, F.Env);
  ASSERT_TRUE(Spec);
  EXPECT_TRUE(Spec->Options.Speculate);
  EXPECT_NE(Spec->InferredFingerprint, 0u);
  EXPECT_EQ(E.stats().KernelCold, 1u);
  EXPECT_EQ(E.stats().KernelSpeculated, 1u);

  // Same environment, same profile: the speculated artifact is warm.
  auto Again = E.speculatedCompiled(F.K, F.Env);
  EXPECT_EQ(Again.get(), Spec.get());
  EXPECT_EQ(E.stats().KernelWarm, 1u);

  // The declared-only tier never aliases the speculated one.
  auto Decl = E.compiled(F.K);
  ASSERT_TRUE(Decl);
  EXPECT_FALSE(Decl->Options.Speculate);
  EXPECT_EQ(Decl->InferredFingerprint, 0u);
  EXPECT_EQ(E.stats().KernelCold, 2u);
  EXPECT_NE(Decl.get(), Spec.get());

  // Matrix tier: a speculated plan and a declared plan of the same
  // (kernel, matrix) are distinct cache entries.
  auto P1 = E.plan(F.K, F.Env, F.Lower.N, /*Speculate=*/true);
  ASSERT_TRUE(P1);
  EXPECT_EQ(E.stats().MatrixCold, 1u);
  auto P2 = E.plan(F.K, F.Env, F.Lower.N, /*Speculate=*/true);
  EXPECT_EQ(P2.get(), P1.get());
  EXPECT_EQ(E.stats().MatrixWarm, 1u);
  auto P3 = E.plan(F.K, F.Env, F.Lower.N, /*Speculate=*/false);
  ASSERT_TRUE(P3);
  EXPECT_EQ(E.stats().MatrixCold, 2u);
  EXPECT_NE(P3.get(), P1.get());

  // Both plans' schedules are certified against their own graphs (sanity,
  // not identity: speculation may legally eliminate more).
  EXPECT_TRUE(P1->Schedule.Waves.respects(P1->Inspection.Graph));
  EXPECT_TRUE(P3->Schedule.Waves.respects(P3->Inspection.Graph));
}

} // namespace
