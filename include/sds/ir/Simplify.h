//===- Simplify.h - Dependence simplification (§4, §6.2) --------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compile-time half of the paper's pipeline:
//
//  * instantiation of universally quantified index-array assertions over
//    the expression set E (Definition 1/2, §4.2), organized in the
//    two-phase form of §6.2 — phase 1 adds instances whose antecedent is
//    already present (no disjunctions), phase 2 adds the remaining
//    instances as unions, under caps;
//  * unsatisfiability detection for dependence relations (§2.2);
//  * discovery of new equality constraints (§4), which lowers the
//    dimensionality — and hence the complexity — of generated inspectors.
//
// Everything here is conservative in the paper's direction: a relation is
// only dropped when *proven* empty; discovered equalities are consequences
// of the user's assertions.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_SIMPLIFY_H
#define SDS_IR_SIMPLIFY_H

#include "sds/ir/Properties.h"
#include "sds/ir/Relation.h"
#include "sds/presburger/BasicSet.h"

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace sds {
namespace ir {

/// Tuning knobs for instantiation and the integer decision procedures.
struct SimplifyOptions {
  unsigned MaxInstances = 20000;   ///< Raw cap on generated instances.
  unsigned MaxPhase2Instances = 8; ///< Disjunction-introducing instances.
  unsigned MaxPieces = 48;         ///< DNF piece cap during phase 2.
  unsigned InstantiationRounds = 2;///< Re-enumerate E after phase-1 growth
                                   ///< (round 2 finds equalities whose
                                   ///< terms phase 1 itself introduced).
  bool SemanticPhase1 = true;      ///< Prove antecedents with the integer-
                                   ///< set layer, not just syntactically.
  unsigned SemanticProbeCap = 600; ///< Emptiness probes for the above.
  unsigned CoreMinimizeBudget = 8; ///< Greedy drop-and-recheck passes spent
                                   ///< shrinking an unsat core (0 = keep
                                   ///< the raw Farkas/coarse core as-is).
                                   ///< Each unit is one full re-proof.
};

/// Which property assertions an unsat proof actually depends on.
///
/// `Assertions` holds sorted, deduplicated assertion labels (the
/// UniversalAssertion::Label of each instance the proof cites, possibly
/// with application-mode suffixes such as " [contrapositive]" or
/// " [disjunctive]"; "functional_consistency(f)" entries are Ackermann
/// guards that hold unconditionally and need no runtime validation).
///
/// The contract is one-directional: if every *property* assertion listed
/// here holds at runtime, the relation is empty. Labels not listed are
/// guaranteed uninvolved — a guard may skip validating them for this
/// dependence.
struct UnsatCore {
  std::vector<std::string> Assertions;
  bool Minimized = false;  ///< Greedy minimizer examined every candidate.
  bool FromFarkas = false; ///< Row-level Farkas attribution succeeded;
                           ///< false means the coarse applied-instance
                           ///< trail (still sound, usually larger).
};

/// Optional constraint-provenance ledger for instantiatePhase1. Maps each
/// constraint the instantiation added to the assertion labels that justify
/// it, so an integer-level emptiness core can be translated into an
/// UnsatCore. Constraints of the original relation carry no labels
/// (`Base`); a constraint whose support could not be attributed is tagged
/// with `Unattributed`, which forces the caller back to the coarse
/// UsedLabels core. Both containers are only looked up, never iterated.
struct OriginMap {
  std::unordered_map<Constraint, std::vector<std::string>, ConstraintHash>
      ConstraintOrigins;
  std::unordered_set<Constraint, ConstraintHash> Base;

  /// Sentinel label marking a constraint whose justification could not be
  /// traced (e.g. a semantic probe whose emptiness core was unavailable).
  static const char *unattributed() { return "\x01unattributed"; }
};

/// One ground instance of a universal assertion.
struct AssertionInstance {
  Conjunction Antecedent;
  Conjunction Consequent;
  std::string Label;
};

/// Bookkeeping for the evaluation section (Figure 7 statistics).
struct InstantiationStats {
  unsigned Generated = 0;     ///< Instances enumerated from E^n.
  unsigned Vacuous = 0;       ///< Antecedent constant-false: discarded.
  unsigned AlreadyImplied = 0;///< Consequent already present: discarded.
  unsigned Phase1Added = 0;   ///< Added conjunctively (antecedent present).
  unsigned Phase2Used = 0;    ///< Added as disjunctions.
  unsigned Dropped = 0;       ///< Lost to the phase-2 caps.
  /// Labels of the assertion instances actually applied (phase 1 additions,
  /// contrapositives, and phase-2 disjunctions), in application order and
  /// possibly with repeats — the provenance trail of an unsat proof.
  std::vector<std::string> UsedLabels;
};

/// Compute Definition 1's set E: every expression used as a UF-call
/// argument anywhere in `C` (deduplicated, canonical order).
std::vector<Expr> argumentExpressionSet(const Conjunction &C);

/// Run phase 1 of §6.2: repeatedly add consequents of instances whose
/// antecedents are syntactically present (or constant-true), plus the
/// contrapositive rule. Returns the augmented conjunction; instances that
/// would need disjunctions are appended to `Phase2` (when non-null).
Conjunction
instantiatePhase1(const Conjunction &C,
                  const std::vector<UniversalAssertion> &Assertions,
                  const SimplifyOptions &Opts, InstantiationStats *Stats,
                  std::vector<AssertionInstance> *Phase2,
                  OriginMap *Origins = nullptr);

/// Decide unsatisfiability of a dependence relation under the declared
/// index-array properties (§4.2 Definition 2 + §6.2). Returns true only
/// when the relation is *proven* to have no solutions; false means "not
/// proven", which the pipeline must treat as satisfiable.
/// When `Core` is non-null and the proof succeeds, it receives the set of
/// assertion labels the proof depends on (see UnsatCore); on failure it is
/// cleared.
bool provenUnsat(const SparseRelation &R, const PropertySet &PS,
                 const SimplifyOptions &Opts = {},
                 InstantiationStats *Stats = nullptr,
                 UnsatCore *Core = nullptr);

/// Like provenUnsat but without any property knowledge: detects relations
/// whose purely affine part is infeasible (the paper's "Affine
/// Consistency" baseline in Figure 7).
bool provenUnsatAffineOnly(const SparseRelation &R,
                           const SimplifyOptions &Opts = {},
                           InstantiationStats *Stats = nullptr,
                           UnsatCore *Core = nullptr);

/// Result of equality discovery on one relation.
struct EqualityDiscoveryResult {
  unsigned NewEqualities = 0;         ///< Equalities added to the relation.
  unsigned ExistentialsEliminated = 0;///< Existentials substituted away.
  std::vector<std::string> EqualityStrings; ///< Human-readable forms.
  /// Assertion labels of every instance applied while instantiating for
  /// this discovery (deduplicated, sorted). A sound — if coarse — core for
  /// any equality the discovery added: if the listed assertions hold, the
  /// added equalities are consequences of the relation.
  std::vector<std::string> UsedLabels;
};

/// §4: instantiate assertions (phase 1), expose implicit equalities with
/// the integer-set machinery, translate them back to UF constraints, add
/// them to `R`, and eliminate existentials that became determined.
EqualityDiscoveryResult discoverEqualities(SparseRelation &R,
                                           const PropertySet &PS,
                                           const SimplifyOptions &Opts = {});

} // namespace ir
} // namespace sds

#endif // SDS_IR_SIMPLIFY_H
