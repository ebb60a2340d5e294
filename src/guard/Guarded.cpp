//===- Guarded.cpp - Validated inspector execution with fallback ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/guard/Guarded.h"

#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <chrono>

namespace sds {
namespace guard {

const char *guardModeName(GuardMode M) {
  switch (M) {
  case GuardMode::Off:
    return "off";
  case GuardMode::Warn:
    return "warn";
  case GuardMode::Fallback:
    return "fallback";
  }
  return "?";
}

std::optional<GuardMode> parseGuardMode(std::string_view S) {
  if (S == "off")
    return GuardMode::Off;
  if (S == "warn")
    return GuardMode::Warn;
  if (S == "fallback")
    return GuardMode::Fallback;
  return std::nullopt;
}

namespace {

/// functional_consistency(f) assertions hold unconditionally (f(x)==f(x)
/// regardless of array contents), so they never need runtime validation.
bool needsValidation(const std::string &Base) {
  return Base.rfind("functional_consistency(", 0) != 0;
}

/// Does this dependence's core cite any base in `Bad`?
bool coreCites(const deps::AnalyzedDependence &D,
               const std::set<std::string> &Bad) {
  for (const std::string &L : D.Core.Assertions)
    if (Bad.count(ir::labelBase(L)))
      return true;
  return false;
}

/// The function names behind failed `domain_range(fn)` bases. Domain/range
/// facts are baked into every UF instantiation rather than asserted per
/// proof, so a core legitimately under-cites them — attribution has to be
/// structural instead.
std::set<std::string> badDomainFns(const std::set<std::string> &Bad) {
  std::set<std::string> Fns;
  static constexpr std::string_view Prefix = "domain_range(";
  for (const std::string &B : Bad)
    if (B.size() > Prefix.size() + 1 && B.compare(0, Prefix.size(), Prefix) == 0 &&
        B.back() == ')')
      Fns.insert(B.substr(Prefix.size(), B.size() - Prefix.size() - 1));
  return Fns;
}

/// Does the dependence's original or simplified relation apply any function
/// in `Fns`? Its generated inspector evaluates those calls assuming the
/// declared domain/range contract, so a broken contract poisons the plan
/// even when no cited assertion names the function.
bool appliesFunction(const deps::AnalyzedDependence &D,
                     const std::set<std::string> &Fns) {
  if (Fns.empty())
    return false;
  for (const ir::SparseRelation *Rel : {&D.Dep.Rel, &D.Simplified})
    for (const ir::Atom &A : Rel->Conj.collectCalls())
      if (Fns.count(A.name()))
        return true;
  return false;
}

} // namespace

std::set<std::string>
citedAssertionBases(const std::vector<deps::AnalyzedDependence> &Deps) {
  std::set<std::string> Bases;
  for (const deps::AnalyzedDependence &D : Deps)
    for (const std::string &L : D.Core.Assertions) {
      std::string B = ir::labelBase(L);
      if (needsValidation(B))
        Bases.insert(std::move(B));
    }
  return Bases;
}

deps::AnalyzedDependence baselineOne(const deps::AnalyzedDependence &In) {
  deps::AnalyzedDependence D = In;
  if (D.Status == deps::DepStatus::AffineUnsat)
    return D; // refuted with no index-array knowledge — stays sound
  D.Status = deps::DepStatus::Runtime;
  D.Simplified = D.Dep.Rel;
  D.NewEqualities = 0;
  D.SubsumedBy.clear();
  D.Plan = codegen::buildInspectorPlan(D.Dep.Rel);
  D.Approximated = false;
  D.Prov.Stage = "guard-baseline";
  D.Prov.Evidence = {"simplifications revoked: property assumptions are "
                     "not trusted on this input"};
  // The baseline plan enumerates the original relation: nothing about it
  // depends on any property, so its core is positively empty.
  D.Core = {};
  return D;
}

std::vector<deps::AnalyzedDependence>
baselineDeps(const std::vector<deps::AnalyzedDependence> &Deps) {
  std::vector<deps::AnalyzedDependence> Base;
  Base.reserve(Deps.size());
  for (const deps::AnalyzedDependence &D : Deps)
    Base.push_back(baselineOne(D));
  return Base;
}

deps::PipelineResult baselineAnalysis(const deps::PipelineResult &Analysis) {
  deps::PipelineResult Base = Analysis;
  Base.Deps = baselineDeps(Analysis.Deps);
  return Base;
}

std::string GuardedResult::summary() const {
  std::string Out = "guard: ";
  if (!Validated)
    Out += "validation off";
  else
    Out += Report.summary() + " [core-directed: " +
           std::to_string(PropsValidated) + " checked, " +
           std::to_string(PropsSkipped) + " uncited]";
  if (RemediesChecked)
    Out += " [remedies: " + std::to_string(RemediesChecked) + " checked, " +
           std::to_string(RemediesFailed) + " failed]";
  if (!UsedFallback)
    Out += " -> simplified inspectors";
  else
    Out += " -> revoked " + std::to_string(DepsRevoked) + " dependence(s)";
  if (Verified)
    Out += VerifyPassed ? " (verify: pass)"
                        : " (verify: FAIL — " + VerifyDetail + ")";
  return Out;
}

GuardedResult runGuarded(const std::string &KernelName,
                         const std::vector<deps::AnalyzedDependence> &Deps,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts) {
  static obs::Counter &Runs = obs::counter("guard.runs");
  static obs::Counter &TrustedRuns = obs::counter("guard.trusted");
  static obs::Counter &Fallbacks = obs::counter("guard.fallbacks");
  static obs::Counter &Warned = obs::counter("guard.warned_untrusted");
  static obs::Counter &VerifyFails = obs::counter("guard.verify_failures");
  static obs::Counter &Revoked = obs::counter("guard.deps_revoked");
  static obs::Histogram &RunNs = obs::histogram("guard.run_ns");
  Runs.add();
  obs::ScopedLatency RunLat(RunNs);
  obs::Span Sp("guard.run_guarded", "guard");
  Sp.tag("kernel", KernelName);
  Sp.tag("mode", guardModeName(Opts.Mode));
  auto T0 = std::chrono::steady_clock::now();

  GuardedResult R(N);

  unsigned DeclCount = static_cast<unsigned>(PS.properties().size() +
                                             PS.domainRanges().size());
  for (const deps::AnalyzedDependence &D : Deps)
    R.DepsRemediable += D.Remediable ? 1 : 0;

  std::set<std::string> Cited = citedAssertionBases(Deps);

  // The remedy set: every *Inferred*-tier base the analysis leans on — the
  // inferred slice of the cited union. Speculation is validated in every
  // guard mode, Off included.
  std::set<std::string> RemedyBases;
  for (const std::string &B : Cited) {
    auto T = PS.tierForLabelBase(B);
    if (T && *T == ir::PropertyTier::Inferred)
      RemedyBases.insert(B);
  }
  // Inferred domain/range declarations are remedies whether or not any
  // core cites them: instantiation bakes domain and range facts into every
  // UF encoding, and every generated inspector evaluates UF calls assuming
  // those bounds, so a proof can lean on an inferred bound without the
  // Farkas core ever naming it. Declared-tier declarations stay
  // citation-gated — they are knowledge, not speculation.
  for (const ir::DomainRangeDecl &D : PS.domainRanges())
    if (D.Tier == ir::PropertyTier::Inferred)
      RemedyBases.insert(ir::labelBase(D));

  // A property cited by no core influenced no verdict or rewrite, so only
  // the cited bases (plus the remedies) need checking. Mode Off checks
  // the remedies alone: speculation is never trusted blindly.
  std::set<std::string> ToCheck = RemedyBases;
  if (Opts.Mode != GuardMode::Off)
    ToCheck.insert(Cited.begin(), Cited.end());
  if (Opts.Mode != GuardMode::Off || !RemedyBases.empty()) {
    R.Validated = true;
    R.Report = validateProperties(PS, Env, ToCheck);
    R.PropsValidated = static_cast<unsigned>(R.Report.Checks.size());
    R.PropsSkipped = DeclCount - R.PropsValidated;
    R.Trusted = R.Report.trusted();
    if (R.Trusted && Opts.Mode != GuardMode::Off)
      TrustedRuns.add();
    else if (!R.Trusted && Opts.Mode == GuardMode::Warn)
      Warned.add();
    if (!R.Trusted)
      obs::flightRecord(obs::FlightSeverity::Warn, "guard",
                        Opts.Mode == GuardMode::Off
                            ? "remedy validation failed with guarding off"
                            : "property validation revoked trust",
                        {{"kernel", KernelName},
                         {"mode", guardModeName(Opts.Mode)},
                         {"report", R.Report.summary()}});
  } else {
    R.Trusted = true; // blind trust by request
  }

  // Remedy verdicts: which inferred-tier bases were checked, and which of
  // those did not pass.
  static obs::Counter &RemedyChecks = obs::counter("guard.remedies_checked");
  static obs::Counter &RemedyFails = obs::counter("guard.remedies_failed");
  std::set<std::string> BadRemedies;
  for (const PropertyCheck &C : R.Report.Checks) {
    if (!RemedyBases.count(C.Base))
      continue;
    ++R.RemediesChecked;
    if (C.Outcome != CheckOutcome::Pass) {
      ++R.RemediesFailed;
      BadRemedies.insert(C.Base);
    }
  }
  RemedyChecks.add(R.RemediesChecked);
  RemedyFails.add(R.RemediesFailed);

  // The per-dependence revocation set. Under Fallback anything short of a
  // full pass revokes: a Failed check is a concrete counterexample, a
  // Skipped/Exhausted one means the property was never confirmed. In
  // Warn/Off modes only failed *remedies* revoke — declared-tier failures
  // stay warnings there, but speculation is never allowed to run
  // misspeculated plans.
  std::set<std::string> Bad = BadRemedies;
  if (Opts.Mode == GuardMode::Fallback && !R.Trusted)
    for (const PropertyCheck &C : R.Report.Checks)
      if (C.Outcome != CheckOutcome::Pass)
        Bad.insert(C.Base);

  // Failed domain/range bases revoke structurally (every dependence whose
  // relation applies the out-of-contract function), because cores
  // legitimately under-cite them — see badDomainFns().
  std::set<std::string> BadFns = badDomainFns(Bad);

  std::vector<deps::AnalyzedDependence> Working;
  const std::vector<deps::AnalyzedDependence> *Run = &Deps;
  if (!Bad.empty()) {
    Working = Deps;
    for (deps::AnalyzedDependence &D : Working) {
      if (D.Status == deps::DepStatus::AffineUnsat ||
          (!coreCites(D, Bad) && !appliesFunction(D, BadFns)))
        continue;
      // Nothing to revoke on a dependence the pipeline never simplified —
      // its plan already enumerates the original relation.
      if (D.Status == deps::DepStatus::Runtime && D.NewEqualities == 0 &&
          D.SubsumedBy.empty() && !D.Approximated)
        continue;
      D = baselineOne(D);
      ++R.DepsRevoked;
    }
    Revoked.add(R.DepsRevoked);
    Run = &Working;
    obs::flightRecord(obs::FlightSeverity::Warn, "guard",
                      "core-directed revocation of simplified inspectors",
                      {{"kernel", KernelName},
                       {"revoked", std::to_string(R.DepsRevoked)},
                       {"of", std::to_string(Deps.size())}});
  }
  R.UsedFallback = R.DepsRevoked > 0;
  if (R.UsedFallback)
    Fallbacks.add();

  R.Inspection = driver::runInspectors(KernelName, *Run, Env, N, Opts.Inspect);

  if (Opts.Verify) {
    R.Verified = true;
    // Ground truth: the baseline graph over the same bound arrays. The
    // schedule the executor would follow — built from the graph actually
    // in use — must respect every baseline dependence. A partially
    // revoked run is NOT the baseline, so it is cross-checked like the
    // simplified one.
    driver::InspectionResult BaseRun = driver::runInspectors(
        KernelName, baselineDeps(Deps), Env, N, Opts.Inspect);
    rt::WavefrontSchedule Sched = rt::scheduleLevelSets(
        R.Inspection.Graph, std::max(1, Opts.VerifyThreads));
    R.VerifyPassed = Sched.respects(BaseRun.Graph);
    if (!R.VerifyPassed) {
      VerifyFails.add();
      obs::flightRecord(obs::FlightSeverity::Error, "guard",
                        "verification failed: schedule violates baseline "
                        "dependence graph",
                        {{"kernel", KernelName}});
      R.VerifyDetail = "schedule from the " +
                       std::string(R.UsedFallback ? "partially revoked"
                                                  : "simplified") +
                       " graph (" + std::to_string(R.Inspection.Graph.numEdges()) +
                       " edges) violates the baseline graph (" +
                       std::to_string(BaseRun.Graph.numEdges()) + " edges)";
    }
  }

  R.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Sp.tag("trusted", static_cast<int64_t>(R.Trusted));
  Sp.tag("fallback", static_cast<int64_t>(R.UsedFallback));
  Sp.tag("revoked", static_cast<int64_t>(R.DepsRevoked));
  return R;
}

GuardedResult runGuarded(const deps::PipelineResult &Analysis,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts) {
  return runGuarded(Analysis.Kernel.Name, Analysis.Deps, PS, Env, N, Opts);
}

GuardedResult runGuarded(const artifact::CompiledKernel &CK,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts) {
  return runGuarded(CK.KernelName, CK.Deps, CK.Properties, Env, N, Opts);
}

} // namespace guard
} // namespace sds
