//===- Pipeline.cpp - The Figure-3 analysis pipeline ----------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/deps/Pipeline.h"

#include "sds/codegen/Approximate.h"
#include "sds/ir/SubsetDetection.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/Budget.h"
#include "sds/support/Hash.h"
#include "sds/support/JSON.h"
#include "sds/support/OMP.h"
#include "sds/support/Schema.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>

namespace sds {
namespace deps {

namespace {

/// Times one stage invocation: accumulates wall seconds into a per-stage
/// map (always) and mirrors the interval as an obs span (only when
/// tracing is on). Span names are "pipeline.<stage>". The target map is
/// the result's StageSeconds when a stage runs serially; parallel
/// per-dependence stages each write a private map that is merged in
/// relation order afterwards, so the accumulation order (and therefore
/// the floating-point sum) does not depend on thread scheduling.
class StageScope {
public:
  StageScope(std::map<std::string, double> &Seconds, const char *Stage)
      : Seconds(Seconds), Stage(Stage),
        Sp(std::string("pipeline.") + Stage, "deps"),
        T0(std::chrono::steady_clock::now()) {}
  ~StageScope() {
    double S = seconds();
    Seconds[Stage] += S;
    // Mirror the interval into the metrics registry so the Figure-3
    // per-stage view (metricsReport's stage_seconds) and the stage
    // latency quantiles come for free.
    if (obs::metricsEnabled())
      obs::histogram(std::string("pipeline.stage.") + Stage + "_ns")
          .record(static_cast<uint64_t>(S * 1e9));
  }

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
        .count();
  }
  obs::Span &span() { return Sp; }

private:
  std::map<std::string, double> &Seconds;
  const char *Stage;
  obs::Span Sp;
  std::chrono::steady_clock::time_point T0;
};

/// First-occurrence dedup of the applied-instance label trail (an unsat
/// proof often re-applies the same assertion instance across passes).
std::vector<std::string> dedupeLabels(const std::vector<std::string> &In) {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  for (const std::string &L : In)
    if (Seen.insert(L).second)
      Out.push_back(L);
  return Out;
}

/// Steps 2-4 of Figure 3 for one dependence: affine refutation, property
/// refutation, equality discovery. Self-contained per dependence — the
/// only shared state it touches is the Presburger verdict cache (which
/// memoizes deterministic facts) and the thread-safe obs registry — so
/// the pipeline may run one instance per dependence concurrently and the
/// outcome is identical to the serial order. Stage wall time goes to
/// `Seconds` (the caller merges per-dependence maps in relation order).
void analyzeOneDependence(AnalyzedDependence &AD, const kernels::Kernel &K,
                          const PipelineOptions &Opts,
                          std::map<std::string, double> &Seconds,
                          uint64_t DeadlineNs) {
  // Install the per-kernel analysis deadline on this worker thread: every
  // Presburger query below answers Unknown once it passes, which keeps
  // the dependence. notedBudget marks the provenance once.
  presburger::ScopedDeadline Deadline(DeadlineNs);
  static obs::Counter &BudgetHits = obs::counter("pipeline.budget_exhausted");
  bool BudgetNoted = false;
  auto BudgetExpired = [&] {
    if (!presburger::deadlineExpired())
      return false;
    if (!BudgetNoted) {
      BudgetNoted = true;
      BudgetHits.add();
      AD.Prov.addEvidence("analysis budget exhausted; kept conservatively");
      obs::flightRecord(obs::FlightSeverity::Warn, "pipeline",
                        "analysis budget exhausted; kept conservatively",
                        {{"dep", AD.Dep.label()}});
    }
    return true;
  };
  // Step 2: affine consistency (no domain knowledge).
  {
    StageScope Sc(Seconds, "affine_unsat");
    Sc.span().tag("dep", AD.Dep.label());
    ir::InstantiationStats St;
    if (ir::provenUnsatAffineOnly(AD.Dep.Rel, Opts.Simp, &St, &AD.Core)) {
      AD.Status = DepStatus::AffineUnsat;
      AD.Prov.Stage = "affine-unsat";
      AD.Prov.Evidence = dedupeLabels(St.UsedLabels);
      if (AD.Prov.Evidence.empty())
        AD.Prov.addEvidence("affine core infeasible");
      AD.Prov.Seconds = Sc.seconds();
      return;
    }
  }
  // Step 3: property-based unsatisfiability (§2.2/§4.2). Syntactic
  // phase-1 instantiation plus phase-2 disjunctions suffice here;
  // semantic entailment probes only pay off for equality discovery.
  // Skipped entirely once the budget is gone: unprovable == kept.
  if (Opts.UseProperties && !BudgetExpired()) {
    StageScope Sc(Seconds, "property_unsat");
    Sc.span().tag("dep", AD.Dep.label());
    ir::SimplifyOptions UnsatOpts = Opts.Simp;
    UnsatOpts.SemanticPhase1 = false;
    ir::InstantiationStats St;
    if (ir::provenUnsat(AD.Dep.Rel, K.Properties, UnsatOpts, &St, &AD.Core)) {
      AD.Status = DepStatus::PropertyUnsat;
      AD.Prov.Stage = "property-unsat";
      AD.Prov.Evidence = dedupeLabels(St.UsedLabels);
      AD.Prov.addEvidence(
          "core: " + std::to_string(AD.Core.Assertions.size()) +
          " assertion(s), " + (AD.Core.FromFarkas ? "farkas" : "coarse") +
          (AD.Core.Minimized ? ", minimized" : ""));
      AD.Prov.Seconds = Sc.seconds();
      return;
    }
  }
  // Step 4: equality discovery (§4).
  {
    StageScope Sc(Seconds, "equality_discovery");
    Sc.span().tag("dep", AD.Dep.label());
    AD.Simplified = AD.Dep.Rel;
    AD.CostBefore = codegen::buildInspectorPlan(AD.Dep.Rel).Cost;
    if (Opts.UseEqualities && !BudgetExpired()) {
      // Equality discovery is where the semantic probes earn their keep;
      // give them a generous budget.
      ir::SimplifyOptions EqOpts = Opts.Simp;
      if (EqOpts.SemanticProbeCap < 1500)
        EqOpts.SemanticProbeCap = 1500;
      ir::EqualityDiscoveryResult R =
          ir::discoverEqualities(AD.Simplified, K.Properties, EqOpts);
      AD.NewEqualities = R.NewEqualities;
      if (R.NewEqualities > 0) {
        AD.Prov.Stage = "equality-discovery";
        AD.Prov.Evidence = R.EqualityStrings;
        // The simplified relation is only equivalent to the original when
        // the applied instances hold — they are this dependence's core.
        AD.Core.Assertions = R.UsedLabels;
        AD.Core.FromFarkas = false;
      }
    }
    AD.CostAfter = codegen::buildInspectorPlan(AD.Simplified).Cost;
    AD.Status = DepStatus::Runtime;
    if (AD.Prov.Stage.empty())
      AD.Prov.Stage = BudgetNoted ? "budget-exhausted" : "runtime";
    AD.Prov.Seconds = Sc.seconds();
  }
}

/// FNV-1a over the parts of a relation the subsumption precondition
/// inspects: `subsumes()` answers Unknown outright unless both relations
/// share the full input tuple and the first output iterator, so pairs
/// with different signatures can be skipped without calling it. Equal
/// hashes prove nothing (collisions just lose the skip); unequal hashes
/// soundly prune.
uint64_t subsumptionSignature(const ir::SparseRelation &R) {
  uint64_t H = support::kFnv1aOffset;
  auto Mix = [&H](const std::string &S) {
    // 0xff separator so {"ab"} and {"a","b"} differ.
    H = support::fnv1a64("\xff", support::fnv1a64(S, H));
  };
  for (const std::string &V : R.InVars)
    Mix(V);
  Mix("|");
  if (!R.OutVars.empty())
    Mix(R.OutVars[0]);
  return H;
}

} // namespace

std::string depStatusName(DepStatus S) {
  switch (S) {
  case DepStatus::AffineUnsat:
    return "affine-unsat";
  case DepStatus::PropertyUnsat:
    return "property-unsat";
  case DepStatus::Subsumed:
    return "subsumed";
  case DepStatus::Runtime:
    return "runtime";
  }
  return "?";
}

unsigned PipelineResult::countExpensiveRuntime(bool Simplified) const {
  unsigned N = 0;
  for (const AnalyzedDependence &D : Deps) {
    if (D.Status != DepStatus::Runtime && D.Status != DepStatus::Subsumed)
      continue;
    const codegen::Complexity &C = Simplified ? D.CostAfter : D.CostBefore;
    if (KernelCost < C)
      ++N;
  }
  return N;
}

std::string PipelineResult::summary() const {
  std::string Out = Kernel.Name + ": " + std::to_string(Deps.size()) +
                    " dependences, kernel cost " + KernelCost.str() + "\n";
  for (const AnalyzedDependence &D : Deps) {
    Out += "  [" + depStatusName(D.Status) + "] " + D.Dep.label();
    if (D.Status == DepStatus::Runtime || D.Status == DepStatus::Subsumed)
      Out += "  cost " + D.CostBefore.str() + " -> " + D.CostAfter.str();
    if (D.NewEqualities)
      Out += "  (+" + std::to_string(D.NewEqualities) + " eq)";
    if (!D.SubsumedBy.empty())
      Out += "  covered by " + D.SubsumedBy;
    if (!D.Prov.Stage.empty())
      Out += "\n      decided by " + D.Prov.str();
    Out += "\n";
  }
  return Out;
}

std::string PipelineResult::toJSON() const {
  using json::Array;
  using json::Object;
  using json::Value;
  Object Root;
  Root.emplace("schema_version", Value(schema::kVersion));
  Root.emplace("kernel", Value(Kernel.Name));
  Root.emplace("format", Value(Kernel.Format));
  Root.emplace("kernel_complexity", Value(KernelCost.str()));
  Array DepList;
  for (const AnalyzedDependence &D : Deps) {
    Object DepObj;
    DepObj.emplace("label", Value(D.Dep.label()));
    DepObj.emplace("array", Value(D.Dep.Array));
    DepObj.emplace("status", Value(depStatusName(D.Status)));
    if (D.Status == DepStatus::Runtime || D.Status == DepStatus::Subsumed) {
      DepObj.emplace("cost_before", Value(D.CostBefore.str()));
      DepObj.emplace("cost_after", Value(D.CostAfter.str()));
      DepObj.emplace("new_equalities",
                     Value(static_cast<int64_t>(D.NewEqualities)));
    }
    if (!D.SubsumedBy.empty())
      DepObj.emplace("subsumed_by", Value(D.SubsumedBy));
    if (D.Status == DepStatus::Runtime && D.Plan.Valid) {
      DepObj.emplace("inspector_c", Value(D.Plan.emitC("inspect")));
      DepObj.emplace("approximated", Value(D.Approximated));
    }
    if (!D.Prov.Stage.empty())
      DepObj.emplace("provenance", D.Prov.toJSON());
    if (D.Remediable) {
      DepObj.emplace("remediable", Value(true));
      Array Cited;
      for (const std::string &B : D.InferredCited)
        Cited.push_back(Value(B));
      DepObj.emplace("inferred_cited", Value(std::move(Cited)));
    }
    DepList.push_back(Value(std::move(DepObj)));
  }
  Root.emplace("dependences", Value(std::move(DepList)));
  // The frozen schema::kStageKeys, zero-filled when a stage did not run,
  // so this export and the artifact blob spell timings identically.
  Object Stages;
  for (size_t I = 0; I < schema::kNumStageKeys; ++I) {
    auto It = StageSeconds.find(schema::kStageKeys[I]);
    Stages.emplace(schema::kStageKeys[I],
                   Value(It == StageSeconds.end() ? 0.0 : It->second));
  }
  for (const auto &[Stage, Seconds] : StageSeconds)
    Stages.emplace(Stage, Value(Seconds)); // no-op for standard keys
  Root.emplace("stage_seconds", Value(std::move(Stages)));
  return Value(std::move(Root)).str();
}

PipelineResult analyzeKernel(const kernels::Kernel &K,
                             const PipelineOptions &Opts) {
  PipelineResult Res;
  Res.Kernel = K;
  // Speculation: run the whole ladder against declared ∪ inferred. The
  // union lives in the result's Kernel so everything downstream — guard
  // validation, artifact serialization, provenance — sees the speculated
  // trust base with its tiers intact.
  if (Opts.Speculate)
    Res.Kernel.Properties = K.Properties.unioned(Opts.InferredProps);
  obs::Span Total("pipeline.analyze", "deps");
  Total.tag("kernel", K.Name);
  Total.tag("speculate", static_cast<int64_t>(Opts.Speculate ? 1 : 0));

  // Kernel cost: the most expensive statement's iteration domain.
  Res.KernelCost = codegen::Complexity::one();
  for (const kernels::Statement &S : K.Stmts) {
    codegen::Complexity C =
        codegen::domainComplexity(S.iterationDomain(), S.ivs());
    if (Res.KernelCost < C)
      Res.KernelCost = C;
  }

  // Step 1: extraction (Figure 3 "Dependence Extraction").
  {
    StageScope Sc(Res.StageSeconds, "extraction");
    for (Dependence &D : extractDependences(K)) {
      AnalyzedDependence AD;
      AD.Dep = std::move(D);
      Res.Deps.push_back(std::move(AD));
    }
    Sc.span().tag("dependences", static_cast<int64_t>(Res.Deps.size()));
  }

  // Steps 2-4 fan out across dependences: each one is analyzed
  // independently (see analyzeOneDependence), so the per-dependence work
  // runs task-parallel under Opts.NumThreads. Every result slot and
  // timing map is written by exactly one task, and the merge below walks
  // them in relation order — verdicts, provenance, and JSON are
  // bit-identical at any thread count.
  int NT = std::max(1, Opts.NumThreads);
  if (static_cast<size_t>(NT) > Res.Deps.size())
    NT = static_cast<int>(std::max<size_t>(1, Res.Deps.size()));
  Total.tag("threads", static_cast<int64_t>(NT));
  // One absolute deadline shared by every stage and worker thread; 0
  // disables. Each analysis task re-installs it thread-locally.
  uint64_t DeadlineNs =
      Opts.AnalysisBudgetMs > 0
          ? presburger::ScopedDeadline::fromNow(Opts.AnalysisBudgetMs * 1e-3)
          : 0;
  if (NT <= 1) {
    for (AnalyzedDependence &AD : Res.Deps)
      analyzeOneDependence(AD, Res.Kernel, Opts, Res.StageSeconds,
                           DeadlineNs);
  } else {
    std::vector<std::map<std::string, double>> DepSeconds(Res.Deps.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads(NT)
#endif
    for (size_t I = 0; I < Res.Deps.size(); ++I)
      analyzeOneDependence(Res.Deps[I], Res.Kernel, Opts, DepSeconds[I],
                           DeadlineNs);
    for (const auto &M : DepSeconds)
      for (const auto &[Stage, Seconds] : M)
        Res.StageSeconds[Stage] += Seconds;
  }

  // Step 5: subset subsumption (§5). Only live runtime checks may act as
  // the covering test, and a test may only discard one that is at least
  // as expensive (there is no point paying more to cover less). This
  // stage stays a serial ordered barrier: each discard changes the live
  // set the next probe sees, and the paper's greedy order is part of the
  // reproduced output.
  if (Opts.UseSubsets) {
    StageScope Sc(Res.StageSeconds, "subsumption");
    // The sweep honors the same deadline: stopping early keeps more
    // runtime checks alive, which is the conservative direction.
    presburger::ScopedDeadline Deadline(DeadlineNs);
    static obs::Counter &SigPruned =
        obs::counter("pipeline.subsume_sig_prune");
    // Pairs whose relations differ in input tuple or first output
    // iterator are Unknown by precondition; comparing precomputed
    // signature hashes skips the polyhedral machinery for them.
    std::vector<uint64_t> SigOrig(Res.Deps.size()), SigSimp(Res.Deps.size());
    for (size_t I = 0; I < Res.Deps.size(); ++I) {
      if (Res.Deps[I].Status != DepStatus::Runtime)
        continue;
      SigOrig[I] = subsumptionSignature(Res.Deps[I].Dep.Rel);
      SigSimp[I] = subsumptionSignature(Res.Deps[I].Simplified);
    }
    unsigned Discarded = 0;
    bool Changed = true;
    while (Changed && !presburger::deadlineExpired()) {
      Changed = false;
      for (size_t CI = 0; CI < Res.Deps.size(); ++CI) {
        AnalyzedDependence &Cand = Res.Deps[CI];
        if (Cand.Status != DepStatus::Runtime)
          continue;
        for (size_t KI = 0; KI < Res.Deps.size(); ++KI) {
          AnalyzedDependence &Kept = Res.Deps[KI];
          if (KI == CI || Kept.Status != DepStatus::Runtime)
            continue;
          if (Cand.CostAfter < Kept.CostAfter)
            continue;
          if (SigSimp[CI] != SigOrig[KI]) {
            SigPruned.add();
            continue;
          }
          // Containment is tested against the keeper's *original* relation:
          // its inspector (simplified or not) enumerates exactly the
          // original edge set, and the original has fewer constraints, so
          // the polyhedral test is both sound and easier. The candidate
          // side uses its simplified form (equalities only shrink it
          // toward its true edge set).
          if (ir::subsumes(Kept.Dep.Rel, Cand.Simplified) !=
              presburger::Ternary::True)
            continue;
          Cand.Status = DepStatus::Subsumed;
          Cand.SubsumedBy = Kept.Dep.label();
          Cand.Prov.Stage = "subsumption";
          Cand.Prov.Evidence = {"covered by " + Kept.Dep.label()};
          ++Discarded;
          Changed = true;
          break;
        }
      }
    }
    Sc.span().tag("discarded", static_cast<int64_t>(Discarded));
  }

  // Step 6: inspectors for the survivors, optionally over-approximated
  // down to the kernel's own complexity (§8.1's ILU escape hatch).
  {
    StageScope Sc(Res.StageSeconds, "codegen");
    for (AnalyzedDependence &AD : Res.Deps) {
      if (AD.Status != DepStatus::Runtime)
        continue;
      if (Opts.ApproximateExpensive && Res.KernelCost < AD.CostAfter) {
        codegen::ApproximationResult A =
            codegen::approximateToCost(AD.Simplified, Res.KernelCost);
        if (A.Changed) {
          AD.Simplified = std::move(A.Rel);
          AD.CostAfter = A.Cost;
          AD.Approximated = true;
          AD.Prov.addEvidence("over-approximated to cost " + A.Cost.str());
        }
      }
      AD.Plan = codegen::buildInspectorPlan(AD.Simplified);
      if (!AD.Plan.Valid) {
        // Graceful fallback: a runtime dependence must never lose its
        // inspector to an unschedulable simplified relation — that would
        // silently drop edges. Plan the original relation instead and
        // keep its (worse) cost honest in the report.
        static obs::Counter &PlanFallbacks =
            obs::counter("pipeline.plan_fallback_original");
        PlanFallbacks.add(1);
        obs::flightRecord(obs::FlightSeverity::Warn, "pipeline",
                          "simplified relation unschedulable; inspector "
                          "planned from original relation",
                          {{"kernel", K.Name},
                           {"dep", AD.Dep.label()},
                           {"why", AD.Plan.WhyInvalid}});
        AD.Prov.addEvidence("simplified relation unschedulable (" +
                            AD.Plan.WhyInvalid +
                            "); inspector planned from original relation");
        AD.Plan = codegen::buildInspectorPlan(AD.Dep.Rel);
        AD.CostAfter = AD.Plan.Valid ? AD.Plan.Cost
                                     : codegen::Complexity{127, 127};
      }
    }
  }

  // Speculation post-pass: mark, per dependence, which *inferred*
  // assertions its core cites. Those citations are the remedies the guard
  // must validate; a dependence citing none is justified by declared
  // knowledge alone and survives any misspeculation untouched.
  if (Opts.Speculate) {
    static obs::Counter &Remediable =
        obs::counter("pipeline.deps_remediable");
    static obs::Counter &CitedInferred =
        obs::counter("pipeline.inferred_citations");
    unsigned RemediableHere = 0;
    for (AnalyzedDependence &AD : Res.Deps) {
      std::set<std::string> Bases;
      for (const std::string &L : AD.Core.Assertions) {
        std::string Base = ir::labelBase(L);
        auto Tier = Res.Kernel.Properties.tierForLabelBase(Base);
        if (Tier && *Tier == ir::PropertyTier::Inferred)
          Bases.insert(std::move(Base));
      }
      AD.InferredCited.assign(Bases.begin(), Bases.end());
      AD.Remediable = !AD.InferredCited.empty();
      if (AD.Remediable) {
        ++RemediableHere;
        CitedInferred.add(AD.InferredCited.size());
        AD.Prov.addEvidence(
            "remediable: cites " +
            std::to_string(AD.InferredCited.size()) +
            " inferred assertion(s)");
      }
    }
    Remediable.add(RemediableHere);
    Total.tag("remediable", static_cast<int64_t>(RemediableHere));
    if (RemediableHere)
      obs::flightRecord(
          obs::FlightSeverity::Info, "pipeline",
          "speculative analysis produced remediable dependences",
          {{"kernel", K.Name},
           {"remediable", std::to_string(RemediableHere)}});
  }

  return Res;
}

} // namespace deps
} // namespace sds
