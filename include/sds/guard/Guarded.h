//===- Guarded.h - Validated inspector execution with fallback --*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The fail-safe execution wrapper around the inspector-executor flow. The
// simplified inspectors are only as sound as the index-array properties
// they were derived from, and every analyzed dependence records which of
// those properties it leans on in its unsat core. Before trusting the
// inspectors on a concrete matrix:
//
//   1. validate the properties some core cites, plus every inferred-tier
//      remedy, against the bound arrays (Validate.h — O(n + nnz) direct
//      checks); a property no core cites influenced no verdict and is
//      skipped;
//   2. revoke, per dependence, the simplifications whose core cites a
//      property that did not pass (Fallback mode; in every mode for a
//      failed remedy): each revoked dependence runs its *unsimplified*
//      baseline inspector, generated from the original relation and using
//      no property knowledge (affine-unsat refutations stay excluded —
//      they hold for arbitrary array contents);
//   3. optionally cross-check (verify mode) the wavefront schedule built
//      from the graph in use against the baseline dependence graph.
//
// The contract: with guarding on, a corrupted matrix yields either a
// detected violation or a schedule identical in safety to the baseline —
// never a silently wrong parallel execution. Decisions are recorded in
// sds::obs counters ("guard.*") so metrics/trace exports show what
// happened.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_GUARD_GUARDED_H
#define SDS_GUARD_GUARDED_H

#include "sds/driver/Driver.h"
#include "sds/guard/Validate.h"

#include <optional>
#include <string>
#include <string_view>

namespace sds {
namespace guard {

/// What the guard does when validation does not fully pass.
enum class GuardMode {
  Off,      ///< no validation; trust the simplified inspectors blindly
  Warn,     ///< validate and report, but still run simplified inspectors
  Fallback, ///< validate; on any non-Pass check revoke the dependences
            ///< whose cores cite it to their baseline inspectors
};

const char *guardModeName(GuardMode M);
/// Parse "off" / "warn" / "fallback" (the --guard= flag values).
std::optional<GuardMode> parseGuardMode(std::string_view S);

/// Knobs for one guarded inspection.
struct GuardedOptions {
  GuardMode Mode = GuardMode::Fallback;
  driver::InspectorOptions Inspect; ///< thread count for the inspector fleet
  /// Cross-check the schedule derived from the graph in use against the
  /// baseline (unsimplified) dependence graph. Costs a full baseline
  /// inspection.
  bool Verify = false;
  /// Threads assumed when building the verification schedule.
  int VerifyThreads = 4;
};

/// Outcome of one guarded inspection. `Inspection` holds the graph the
/// caller should use (simplified, or with some dependences revoked to
/// their baseline plans, per the guard's decision).
struct GuardedResult {
  explicit GuardedResult(int N) : Inspection(N) {}

  ValidationReport Report; ///< remedies only when Mode == Off
  bool Validated = false;  ///< validation ran
  bool Trusted = false;    ///< every check passed (or Mode == Off)
  bool UsedFallback = false; ///< at least one dependence was revoked

  unsigned PropsValidated = 0; ///< property checks actually run
  unsigned PropsSkipped = 0;   ///< declarations skipped as uncited
  /// Dependences individually reverted to their baseline plan because a
  /// property their core cites did not pass validation.
  unsigned DepsRevoked = 0;

  /// Remedy accounting (speculative analyses only). A *remedy* is a cited
  /// assertion whose property carries ir::PropertyTier::Inferred: it was
  /// proposed by the profiler, not declared, so it is validated in every
  /// guard mode — including Off — and a failed remedy revokes exactly the
  /// dependences whose cores cite it.
  unsigned DepsRemediable = 0;  ///< dependences marked Remediable upstream
  unsigned RemediesChecked = 0; ///< inferred-tier bases validated
  unsigned RemediesFailed = 0;  ///< inferred-tier bases that did not Pass

  driver::InspectionResult Inspection;

  bool Verified = false;     ///< the cross-check ran
  bool VerifyPassed = true;  ///< schedule respects the baseline graph
  std::string VerifyDetail;

  double Seconds = 0;

  /// One-line outcome, e.g. "guard: 7 checks, 1 fail
  /// (periodic_monotonic(col)) [core-directed: 7 checked, 2 uncited] ->
  /// revoked 1 dependence(s) (verify: pass)".
  std::string summary() const;
};

/// Rebuild analyzed dependences with every simplification undone: each
/// dependence that reached a runtime test — or was discarded by property
/// knowledge or subsumption — gets an inspector plan generated from its
/// *original* relation. Only affine-unsat refutations survive, since they
/// hold for arbitrary index-array contents. This is the
/// correct-by-construction reference the guard verifies against. Works
/// identically on fresh and artifact-loaded dependences.
std::vector<deps::AnalyzedDependence>
baselineDeps(const std::vector<deps::AnalyzedDependence> &Deps);

/// Revoke a single dependence's simplifications (the per-element body of
/// baselineDeps): regenerate its inspector plan from the original
/// relation. Affine-unsat refutations are returned unchanged. The result
/// carries an empty core — a baseline plan depends on no property
/// assumptions.
deps::AnalyzedDependence baselineOne(const deps::AnalyzedDependence &D);

/// The union of assertion-label bases cited by the per-dependence unsat
/// cores — the minimal trust base core-directed validation checks.
/// Unconditionally-true functional-consistency citations are excluded.
std::set<std::string>
citedAssertionBases(const std::vector<deps::AnalyzedDependence> &Deps);

/// PipelineResult convenience wrapper around baselineDeps.
deps::PipelineResult baselineAnalysis(const deps::PipelineResult &Analysis);

/// Core entry point: run inspectors with validation, per-dependence
/// revocation, and optional verification as configured. `PS` must be the
/// property set the analysis was performed with; `Env`/`N` as for
/// runInspectors.
GuardedResult runGuarded(const std::string &KernelName,
                         const std::vector<deps::AnalyzedDependence> &Deps,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts = {});

/// Convenience overload for a fresh in-process analysis.
GuardedResult runGuarded(const deps::PipelineResult &Analysis,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts = {});

/// Convenience overload for a compiled artifact (fresh or loaded): the
/// guard re-validates the artifact-carried property assumptions against
/// the bound arrays at bind time, exactly as it would for a fresh
/// analysis. A revoked dependence is re-planned from the original
/// relation embedded in the artifact — the only place the serving path
/// pays plan construction, and still Presburger-free in the happy path.
GuardedResult runGuarded(const artifact::CompiledKernel &CK,
                         const codegen::UFEnvironment &Env, int N,
                         const GuardedOptions &Opts = {});

} // namespace guard
} // namespace sds

#endif // SDS_GUARD_GUARDED_H
