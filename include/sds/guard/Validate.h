//===- Validate.h - Runtime validation of index-array properties *- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's simplifications (§2.2, §4, §5) are sound *conditionally*: the
// unsat proofs and equality-collapsed inspectors assume the declared
// index-array properties (Table 1) actually hold for the matrix at hand. A
// single non-monotone rowptr silently drops dependence edges and the
// wavefront executor races. This header closes that gap: for every
// PropertyKind there is an O(n)/O(nnz) direct checker that confirms the
// declared universally-quantified assertions against the concrete bound
// arrays, reporting the first violating indices when they do not.
//
// Checkers run over a codegen::UFEnvironment — the same binding the
// inspectors execute against — so whatever arrays the inspector would
// read are exactly the arrays being vetted. Guarded.h builds on this to
// fall back to unsimplified inspectors when validation fails. The same
// checkers are the only property evaluator in the project: speculative
// inference (infer/Infer.h) confirms each of its candidates with
// checkProperty, so it confirms exactly what the guard later checks.
//
// Every checker carries a work cap (a small multiple of the bound array
// sizes): on honest inputs each check is a linear scan, but a corrupted
// *pointer* array can make segment windows overlap quadratically. Past
// the cap a check reports Exhausted, which the guard treats exactly like
// a violation (not-validated == not-trusted).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_GUARD_VALIDATE_H
#define SDS_GUARD_VALIDATE_H

#include "sds/codegen/Inspector.h"
#include "sds/ir/Properties.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace sds {
namespace guard {

/// What one property check concluded.
enum class CheckOutcome {
  Pass,      ///< every quantified instance holds on the bound arrays
  Fail,      ///< a concrete counterexample was found (see Index/Index2)
  Skipped,   ///< could not check: array unbound, or guard unevaluable
  Exhausted, ///< work cap hit before a verdict (corrupt pointer arrays)
};

const char *checkOutcomeName(CheckOutcome O);

/// How bad a non-Pass outcome is for downstream consumers.
enum class CheckSeverity {
  Info,    ///< Pass
  Warning, ///< Skipped/Exhausted: unverified, treat as untrusted
  Error,   ///< Fail: the declared property is definitively false here
};

/// Result of checking one declared property (or one domain/range
/// declaration) against the bound arrays.
struct PropertyCheck {
  std::string Property; ///< e.g. "periodic_monotonic(col; seg=rowptr)"
  std::string Array;    ///< the primary array the property describes
  /// The assertion-label base this check confirms or refutes — identical
  /// to the `UniversalAssertion::Label` prefix the analysis cites in its
  /// unsat cores (see ir::UnsatCore), so guards can match failed checks
  /// to the dependences whose simplifications relied on them.
  std::string Base;
  CheckOutcome Outcome = CheckOutcome::Skipped;
  CheckSeverity Severity = CheckSeverity::Warning;
  int64_t Index = -1;     ///< first violating position (-1 when none)
  int64_t Index2 = -1;    ///< second index of the violating pair, if any
  uint64_t Positions = 0; ///< array positions examined
  std::string Detail;     ///< human-readable, e.g. "col[7]=9 > col[8]=3"

  /// One line: "[FAIL] strict_monotonic_increasing(rowptr): rowptr[4]=10 >
  /// rowptr[5]=8".
  std::string str() const;
};

/// Structured validation outcome for one (PropertySet, environment) pair.
struct ValidationReport {
  std::vector<PropertyCheck> Checks;
  double Seconds = 0; ///< wall time of the whole validation

  /// Every check passed — the simplified inspectors may be trusted.
  /// Vacuously true when the kernel declares no properties (spmv).
  bool trusted() const;
  /// At least one definitive counterexample (Outcome Fail).
  bool violated() const;
  unsigned failures() const;
  /// The first failing check, or nullptr.
  const PropertyCheck *firstViolation() const;

  /// Multi-line report, one line per check.
  std::string str() const;
  /// "7 checks: 6 pass, 1 fail (periodic_monotonic(col))".
  std::string summary() const;
};

/// Check one property, or one domain/range declaration, against the
/// arrays bound in `Env`, under the work cap. PropertyCheck::Base is the
/// declaration's ir::labelBase.
PropertyCheck checkProperty(const ir::IndexArrayProperty &P,
                            const codegen::UFEnvironment &Env);
PropertyCheck checkProperty(const ir::DomainRangeDecl &D,
                            const codegen::UFEnvironment &Env);

/// Check every declared property and domain/range declaration of `PS`
/// against the arrays bound in `Env` (spans only — function-bound arrays
/// have no extent and report Skipped). Cost is O(n + nnz) per property on
/// well-formed inputs, bounded by the work cap otherwise.
ValidationReport validateProperties(const ir::PropertySet &PS,
                                    const codegen::UFEnvironment &Env);

/// Core-directed validation: check only the declarations whose assertion-
/// label base appears in `CitedBases` (the union of per-dependence unsat
/// cores). Sound whenever every dependence carries a core: an uncited
/// property influenced no verdict or rewrite, so its failure cannot
/// invalidate anything the analysis produced. Records the validated and
/// skipped counts in the `guard.props_validated` / `guard.props_skipped`
/// obs counters.
ValidationReport
validateProperties(const ir::PropertySet &PS,
                   const codegen::UFEnvironment &Env,
                   const std::set<std::string> &CitedBases);

} // namespace guard
} // namespace sds

#endif // SDS_GUARD_VALIDATE_H
