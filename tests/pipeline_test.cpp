//===- pipeline_test.cpp - End-to-end Figure-3 pipeline tests --------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Pins the analysis outcomes that reproduce the paper's headline numbers:
// Table 3 inspector complexities and the Figure 8 reduction narrative for
// the cheap kernels. (Incomplete Cholesky and ILU0 run for minutes and are
// exercised by the Figure 7/8 benches instead.)
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Pipeline.h"
#include "sds/support/JSON.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace sds;
using namespace sds::deps;
using codegen::Complexity;

namespace {

/// Each dependence of the five compile kernels whose status is `Status`:
/// a line with its label and deciding stage, then one per evidence string
/// (the equalities discovery added, or the refutation's narrative) and one
/// per assertion of its core.
std::vector<std::string> coreLines(DepStatus Status) {
  const std::pair<const char *, kernels::Kernel> Kernels[] = {
      {"spmv_csr", kernels::spmvCSR()},
      {"fs_csr", kernels::forwardSolveCSR()},
      {"fs_csc", kernels::forwardSolveCSC()},
      {"gs_csr", kernels::gaussSeidelCSR()},
      {"lchol_csc", kernels::leftCholeskyCSC()},
  };
  std::vector<std::string> Lines;
  for (const auto &[Id, K] : Kernels) {
    PipelineResult R = analyzeKernel(K);
    for (const AnalyzedDependence &D : R.Deps) {
      if (D.Status != Status)
        continue;
      Lines.push_back(std::string(Id) + " " + D.Dep.label() + " [" +
                      D.Prov.Stage + "]");
      for (const std::string &E : D.Prov.Evidence)
        Lines.push_back("  evidence " + E);
      for (const std::string &A : D.Core.Assertions)
        Lines.push_back("  core " + A);
    }
  }
  return Lines;
}

} // namespace

TEST(Pipeline, SpMVIsFullyParallel) {
  // §7.1: SpMV needs no domain information at all.
  PipelineResult R = analyzeKernel(kernels::spmvCSR());
  EXPECT_EQ(R.count(DepStatus::Runtime), 0u);
  EXPECT_EQ(R.count(DepStatus::PropertyUnsat), 0u);
  EXPECT_GE(R.count(DepStatus::AffineUnsat), 1u);
}

TEST(Pipeline, ForwardSolveCSRMatchesTable3) {
  PipelineResult R = analyzeKernel(kernels::forwardSolveCSR());
  EXPECT_EQ(R.KernelCost, Complexity::nnz());
  ASSERT_EQ(R.count(DepStatus::Runtime), 1u);
  for (const AnalyzedDependence &D : R.Deps) {
    if (D.Status == DepStatus::Runtime) {
      // Table 3: simplified inspector complexity nnz.
      EXPECT_EQ(D.CostAfter, Complexity::nnz()) << D.CostAfter.str();
      EXPECT_TRUE(D.Plan.Valid);
    }
  }
  // The read->write direction is refuted by triangularity.
  EXPECT_GE(R.count(DepStatus::PropertyUnsat), 1u);
  EXPECT_GE(R.count(DepStatus::AffineUnsat), 1u);
}

TEST(Pipeline, GaussSeidelCSRMatchesTable3) {
  PipelineResult R = analyzeKernel(kernels::gaussSeidelCSR());
  // Table 3: two runtime checks, total 2(nnz); no triangularity available
  // on a general matrix, so both directions stay.
  EXPECT_EQ(R.count(DepStatus::Runtime), 2u);
  for (const AnalyzedDependence &D : R.Deps) {
    if (D.Status == DepStatus::Runtime) {
      EXPECT_EQ(D.CostAfter, Complexity::nnz());
    }
  }
  EXPECT_EQ(R.countExpensiveRuntime(true), 0u);
}

TEST(Pipeline, ForwardSolveCSCMatchesTable3) {
  PipelineResult R = analyzeKernel(kernels::forwardSolveCSC());
  // Table 3: one surviving check of cost nnz; the S2->S2 read test is
  // subsumed by the S2->S1 test (§5).
  EXPECT_EQ(R.count(DepStatus::Runtime), 1u);
  EXPECT_GE(R.count(DepStatus::Subsumed), 1u);
  for (const AnalyzedDependence &D : R.Deps) {
    if (D.Status == DepStatus::Runtime) {
      EXPECT_EQ(D.CostAfter, Complexity::nnz());
    }
  }
}

TEST(Pipeline, LeftCholeskyEqualitiesRemoveExpensiveChecks) {
  PipelineResult R = analyzeKernel(kernels::leftCholeskyCSC());
  // §7.2: every expensive Left Cholesky check becomes cheap through
  // discovered equalities.
  EXPECT_GT(R.countExpensiveRuntime(false), 0u);
  EXPECT_EQ(R.countExpensiveRuntime(true), 0u);
  unsigned TotalEqualities = 0;
  for (const AnalyzedDependence &D : R.Deps)
    TotalEqualities += D.NewEqualities;
  EXPECT_GT(TotalEqualities, 0u);
  EXPECT_LE(R.count(DepStatus::Runtime), 2u);
}

TEST(Pipeline, AblationSwitchesMatter) {
  // Without properties everything satisfiable stays; with them most of
  // forward solve CSC disappears.
  PipelineOptions NoProps;
  NoProps.UseProperties = false;
  NoProps.UseEqualities = false;
  NoProps.UseSubsets = false;
  PipelineResult R1 = analyzeKernel(kernels::forwardSolveCSC(), NoProps);
  PipelineResult R2 = analyzeKernel(kernels::forwardSolveCSC());
  EXPECT_GT(R1.count(DepStatus::Runtime), R2.count(DepStatus::Runtime));
}

TEST(Pipeline, RuntimePlansAreValidAndLabeled) {
  for (const auto &K :
       {kernels::forwardSolveCSR(), kernels::gaussSeidelCSR(),
        kernels::forwardSolveCSC()}) {
    PipelineResult R = analyzeKernel(K);
    for (const AnalyzedDependence &D : R.Deps) {
      if (D.Status != DepStatus::Runtime)
        continue;
      EXPECT_TRUE(D.Plan.Valid) << K.Name << " " << D.Dep.label();
      EXPECT_FALSE(D.Plan.emitC("inspect").empty());
    }
  }
}

TEST(Pipeline, JSONReportRoundTrips) {
  PipelineResult R = analyzeKernel(kernels::forwardSolveCSR());
  std::string Text = R.toJSON();
  auto Parsed = sds::json::parse(Text);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error << "\n" << Text;
  EXPECT_EQ(Parsed.Val.get("kernel")->asString(), "Forward Solve CSR");
  EXPECT_EQ(Parsed.Val.get("kernel_complexity")->asString(), "nnz");
  const auto &DepList = Parsed.Val.get("dependences")->asArray();
  EXPECT_EQ(DepList.size(), R.Deps.size());
  bool SawInspector = false;
  for (const auto &D : DepList) {
    EXPECT_NE(D.get("status"), nullptr);
    if (D.get("inspector_c"))
      SawInspector = true;
  }
  EXPECT_TRUE(SawInspector);

  // Per-stage wall timings are part of the report: every Figure-3 stage
  // the pipeline ran appears with a non-negative duration.
  const sds::json::Value *Stages = Parsed.Val.get("stage_seconds");
  ASSERT_NE(Stages, nullptr);
  for (const char *Stage :
       {"extraction", "affine_unsat", "property_unsat", "equality_discovery",
        "subsumption", "codegen"}) {
    const sds::json::Value *S = Stages->get(Stage);
    ASSERT_NE(S, nullptr) << Stage;
    EXPECT_GE(S->asDouble(), 0.0) << Stage;
  }
}

TEST(Pipeline, ProvenanceRecordsWhoDecidedEachDependence) {
  PipelineResult R = analyzeKernel(kernels::forwardSolveCSC());
  for (const AnalyzedDependence &D : R.Deps) {
    ASSERT_FALSE(D.Prov.Stage.empty()) << D.Dep.label();
    switch (D.Status) {
    case DepStatus::AffineUnsat:
      EXPECT_EQ(D.Prov.Stage, "affine-unsat");
      break;
    case DepStatus::PropertyUnsat:
      EXPECT_EQ(D.Prov.Stage, "property-unsat");
      // The refutation names at least one applied property instance.
      EXPECT_FALSE(D.Prov.Evidence.empty()) << D.Dep.label();
      break;
    case DepStatus::Subsumed:
      EXPECT_EQ(D.Prov.Stage, "subsumption");
      ASSERT_FALSE(D.Prov.Evidence.empty());
      EXPECT_NE(D.Prov.Evidence[0].find(D.SubsumedBy), std::string::npos);
      break;
    case DepStatus::Runtime:
      EXPECT_TRUE(D.Prov.Stage == "runtime" ||
                  D.Prov.Stage == "equality-discovery")
          << D.Prov.Stage;
      break;
    }
  }
  // Provenance reaches the JSON report for decided dependences.
  auto Parsed = sds::json::parse(R.toJSON());
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  unsigned WithProv = 0;
  for (const auto &D : Parsed.Val.get("dependences")->asArray())
    if (const sds::json::Value *P = D.get("provenance")) {
      EXPECT_NE(P->get("stage"), nullptr);
      EXPECT_NE(P->get("evidence"), nullptr);
      EXPECT_GE(P->get("seconds")->asDouble(), 0.0);
      ++WithProv;
    }
  EXPECT_EQ(WithProv, R.Deps.size());
}

TEST(Pipeline, EqualityDiscoveryProvenanceNamesTheEqualities) {
  PipelineResult R = analyzeKernel(kernels::leftCholeskyCSC());
  bool SawEqualityEvidence = false;
  for (const AnalyzedDependence &D : R.Deps)
    if (D.Prov.Stage == "equality-discovery") {
      EXPECT_GT(D.NewEqualities, 0u);
      EXPECT_FALSE(D.Prov.Evidence.empty());
      SawEqualityEvidence = true;
    }
  EXPECT_TRUE(SawEqualityEvidence);
}

TEST(Pipeline, SummaryMentionsEveryDependence) {
  PipelineResult R = analyzeKernel(kernels::forwardSolveCSR());
  std::string S = R.summary();
  for (const AnalyzedDependence &D : R.Deps)
    EXPECT_NE(S.find(D.Dep.SrcStmt), std::string::npos);
  EXPECT_NE(S.find("Forward Solve CSR"), std::string::npos);
}

// The equalities discovery finds and the cores behind them, pinned for
// every runtime dependence of the five compile kernels. Faster entailment
// probing must leave every one of them as it was.
TEST(Pipeline, RuntimeEvidenceAndCoresArePinned) {
  const std::vector<std::string> Expected = {
      "fs_csr u[i] (w)@S2 -> u[col(k)] (r)@S1 [runtime]",
      "fs_csc x[rowidx(p)] (u)@S2 -> x[j] (w)@S1 [equality-discovery]",
      "  evidence j - rowidx(colptr(j)) == 0",
      "  evidence j - rowidx(colptr(j + 1)) + 1 == 0",
      "  core domain_range(colptr)",
      "  core periodic_monotonic(rowidx, colptr)",
      "  core segment_start_identity(rowidx, colptr)",
      "  core strict_monotonic_increasing(colptr)",
      "  core strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  core triangular_entries_ge(rowidx, colptr)",
      "gs_csr x[col(k)] (r)@S1 -> x[i] (w)@S2 [runtime]",
      "gs_csr x[i] (w)@S2 -> x[col(k)] (r)@S1 [runtime]",
      "lchol_csc lval[colptr(j)] (w)@S2 -> lval[p] (r)@S1 [equality-discovery]",
      "  evidence j - rowidx(colptr(j)) == 0",
      "  evidence j' - rowidx(colptr(j')) == 0",
      "  evidence pruneset(t') - rowidx(colptr(pruneset(t'))) == 0",
      "  evidence pruneset(t') - rowidx(colptr(pruneset(t') + 1)) + 1 == 0",
      "  evidence colptr(j) - colptr(pruneset(t')) == 0",
      "  evidence pruneptr(j) - pruneptr(pruneset(t')) == 0",
      "  evidence rowidx(colptr(j)) - rowidx(colptr(pruneset(t'))) == 0",
      "  evidence j - pruneset(t') == 0",
      "  evidence colptr(colptr(j)) - colptr(colptr(pruneset(t'))) == 0",
      "  evidence pruneptr(colptr(j)) - pruneptr(colptr(pruneset(t'))) == 0",
      "  core domain_range(colptr)",
      "  core functional_consistency(colptr)",
      "  core functional_consistency(pruneptr)",
      "  core functional_consistency(rowidx)",
      "  core segment_start_identity(rowidx, colptr)",
      "  core strict_monotonic_increasing(colptr)",
      "  core strict_monotonic_increasing(colptr) [contra-strict]",
      "  core strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contra]",
      "  core strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "  core strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr)",
      "  core strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [weak]",
      "  core strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  core triangular_entries_ge(rowidx, colptr)",
      "lchol_csc lval[p] (w)@S3 -> lval[p] (r)@S1 [equality-discovery]",
      "  evidence j - rowidx(colptr(j)) == 0",
      "  evidence j - rowidx(colptr(j + 1)) + 1 == 0",
      "  evidence j' - rowidx(colptr(j')) == 0",
      "  evidence pruneset(t') - rowidx(colptr(pruneset(t'))) == 0",
      "  evidence pruneset(t') - rowidx(colptr(pruneset(t') + 1)) + 1 == 0",
      "  evidence colptr(j) - colptr(pruneset(t')) == 0",
      "  evidence colptr(j + 1) - colptr(pruneset(t') + 1) == 0",
      "  evidence pruneptr(j) - pruneptr(pruneset(t')) == 0",
      "  evidence pruneptr(j + 1) - pruneptr(pruneset(t') + 1) == 0",
      "  evidence rowidx(colptr(j)) - rowidx(colptr(pruneset(t'))) == 0",
      "  evidence rowidx(colptr(j + 1)) - rowidx(colptr(pruneset(t') + 1)) == 0",
      "  evidence -j + pruneset(t') == 0",
      "  evidence colptr(colptr(j)) - colptr(colptr(pruneset(t'))) == 0",
      "  evidence colptr(colptr(j + 1)) - colptr(colptr(pruneset(t') + 1)) == 0",
      "  evidence pruneptr(colptr(j)) - pruneptr(colptr(pruneset(t'))) == 0",
      "  evidence pruneptr(colptr(j + 1)) - pruneptr(colptr(pruneset(t') + 1)) == 0",
      "  core domain_range(colptr)",
      "  core functional_consistency(colptr)",
      "  core functional_consistency(pruneptr)",
      "  core functional_consistency(rowidx)",
      "  core segment_start_identity(rowidx, colptr)",
      "  core strict_monotonic_increasing(colptr)",
      "  core strict_monotonic_increasing(colptr) [contra-strict]",
      "  core strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contra]",
      "  core strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [contrapositive]",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "  core strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr)",
      "  core strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  core strict_monotonic_increasing(pruneptr) [weak]",
      "  core strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  core triangular_entries_ge(rowidx, colptr)",
  };
  EXPECT_EQ(coreLines(DepStatus::Runtime), Expected);
}

// The core behind every refuted dependence of the five compile kernels,
// affine- and property-unsat alike. Phase 2 may skip work, but never the
// work a proof's citations come from: every core must stay as it was.
TEST(Pipeline, RefutationCoresArePinned) {
  const std::vector<std::string> Expected = {
      "spmv_csr y[i] (w)@S1 -> y[i] (w)@S1 [affine-unsat]",
      "  evidence functional_consistency(rowptr)",
      "  core functional_consistency(rowptr)",
      "fs_csr u[i] (w)@S2 -> u[i] (w)@S2 [affine-unsat]",
      "  evidence affine core infeasible",
      "fs_csc x[j] (w)@S1 -> x[j] (w)@S1 [affine-unsat]",
      "  evidence affine core infeasible",
      "fs_csc x[j] (w)@S1 -> x[j] (r)@S2 [affine-unsat]",
      "  evidence affine core infeasible",
      "fs_csc x[j] (r)@S2 -> x[j] (w)@S1 [affine-unsat]",
      "  evidence affine core infeasible",
      "gs_csr x[i] (w)@S2 -> x[i] (w)@S2 [affine-unsat]",
      "  evidence affine core infeasible",
      "fs_csr u[col(k)] (r)@S1 -> u[i] (w)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(rowptr)",
      "  evidence strict_monotonic_increasing(rowptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(rowptr) [contra-strict] [contrapositive]",
      "  evidence triangular_entries_le(col, rowptr)",
      "  evidence domain_range(rowptr)",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core triangular_entries_le(col, rowptr)",
      "fs_csc x[j] (w)@S1 -> x[rowidx(p)] (u)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence triangular_entries_ge(rowidx, colptr)",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence periodic_monotonic(rowidx, colptr)",
      "  evidence core: 2 assertion(s), farkas, minimized",
      "  core periodic_monotonic(rowidx, colptr)",
      "  core segment_start_identity(rowidx, colptr)",
      "fs_csc x[j] (r)@S2 -> x[rowidx(p)] (u)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence triangular_entries_ge(rowidx, colptr)",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence periodic_monotonic(rowidx, colptr)",
      "  evidence core: 2 assertion(s), farkas, minimized",
      "  core periodic_monotonic(rowidx, colptr)",
      "  core segment_start_identity(rowidx, colptr)",
      "lchol_csc lval[p] (r)@S1 -> lval[colptr(j)] (w)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence triangular_entries_lt(pruneset, pruneptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 3 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "  core triangular_entries_lt(pruneset, pruneptr)",
      "lchol_csc lval[p] (r)@S1 -> lval[p] (w)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence triangular_entries_lt(pruneset, pruneptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 3 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "  core triangular_entries_lt(pruneset, pruneptr)",
      "lchol_csc lval[colptr(j)] (w)@S2 -> lval[colptr(j)] (w)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contra]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence functional_consistency(rowidx)",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "lchol_csc lval[colptr(j)] (w)@S2 -> lval[p] (w)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "lchol_csc lval[colptr(j)] (w)@S2 -> lval[colptr(j)] (r)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence triangular_entries_ge(rowidx, colptr)",
      "  evidence periodic_monotonic(rowidx, colptr)",
      "  evidence functional_consistency(rowidx)",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "lchol_csc lval[p] (w)@S3 -> lval[colptr(j)] (w)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "lchol_csc lval[colptr(j)] (r)@S3 -> lval[colptr(j)] (w)@S2 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence periodic_monotonic(rowidx, colptr)",
      "  evidence triangular_entries_ge(rowidx, colptr)",
      "  evidence functional_consistency(rowidx)",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr)",
      "lchol_csc lval[p] (w)@S3 -> lval[p] (w)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "lchol_csc lval[p] (w)@S3 -> lval[colptr(j)] (r)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr) [weak]",
      "lchol_csc lval[colptr(j)] (r)@S3 -> lval[p] (w)@S3 [property-unsat]",
      "  evidence strict_monotonic_increasing(colptr)",
      "  evidence strict_monotonic_increasing(pruneptr)",
      "  evidence strict_monotonic_increasing(colptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [weak]",
      "  evidence strict_monotonic_increasing(colptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(colptr) [contra-strict] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [weak]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra] [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contra-strict] [contrapositive]",
      "  evidence segment_start_identity(rowidx, colptr)",
      "  evidence domain_range(colptr)",
      "  evidence strict_monotonic_increasing(colptr) [contrapositive]",
      "  evidence strict_monotonic_increasing(pruneptr) [contrapositive]",
      "  evidence core: 1 assertion(s), farkas, minimized",
      "  core strict_monotonic_increasing(colptr) [weak]",
  };
  std::vector<std::string> Lines = coreLines(DepStatus::AffineUnsat);
  for (std::string &L : coreLines(DepStatus::PropertyUnsat))
    Lines.push_back(std::move(L));
  EXPECT_EQ(Lines, Expected);
}
