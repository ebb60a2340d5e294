//===- BasicSet.h - Integer polyhedra over named dimensions -----*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// BasicSet is a conjunction of affine equalities and inequalities over
// integer variables — our substitute for the slice of ISL the paper's
// pipeline relies on (§6.1): deciding emptiness, exposing implied
// equalities, projecting variables out, and testing subset relations.
//
// The dependence-analysis layers require specific soundness directions:
//  * emptiness:  "Empty" is only reported when proven over the integers;
//    budget exhaustion or arithmetic overflow yields "Unknown", which the
//    pipeline treats as satisfiable (§4.2 "Correctness").
//  * projection: Fourier–Motzkin may over-approximate the integer shadow;
//    each projection reports whether it was exact, and the subset-
//    subsumption pass (§5) insists on exactness for the superset side.
//  * subset:     only proven containment returns true.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PRESBURGER_BASICSET_H
#define SDS_PRESBURGER_BASICSET_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sds {
namespace presburger {

/// Three-valued answer for conservative decision procedures.
enum class Ternary { False, True, Unknown };

struct ProjectResult; // defined after BasicSet

/// An unsat core for a proven-empty BasicSet: the rows whose conjunction
/// is already integer-infeasible. Row ids index the set's constraints in
/// storage order, equalities first (0 .. numEq-1) then inequalities
/// (numEq .. numEq+numIneq-1).
///
/// `Valid` is true when every citing row of the underlying proof could be
/// attributed back to an input row; when false the caller must fall back
/// to treating all rows as potentially responsible. A core is never
/// minimal by construction — it is whatever subset the Farkas certificate
/// (plus branch-and-bound case analysis) actually touched.
struct EmptinessCore {
  std::vector<uint32_t> Rows; ///< sorted, unique row ids
  bool Valid = false;
};

/// A conjunction of affine constraints over `NumVars` integer variables.
///
/// Every constraint row has `NumVars + 1` entries; the last entry is the
/// constant term. An inequality row `r` means `r . (x, 1) >= 0`; an
/// equality row means `r . (x, 1) == 0`.
class BasicSet {
public:
  explicit BasicSet(unsigned NumVars) : NumVars(NumVars) {}

  unsigned numVars() const { return NumVars; }

  void addEquality(std::vector<int64_t> Row);
  void addInequality(std::vector<int64_t> Row);

  const std::vector<std::vector<int64_t>> &equalities() const { return Eqs; }
  const std::vector<std::vector<int64_t>> &inequalities() const {
    return Ineqs;
  }
  unsigned numConstraints() const {
    return static_cast<unsigned>(Eqs.size() + Ineqs.size());
  }

  /// GCD-normalize rows, drop trivially-true rows, deduplicate.
  /// Returns false if a row is trivially unsatisfiable (set proven empty).
  bool normalize();

  /// Integer emptiness: rational simplex + GCD tightening + bounded
  /// branch-and-bound. `True` means proven empty; `False` means an integer
  /// point was found; `Unknown` on budget exhaustion or overflow.
  Ternary isEmpty(unsigned NodeBudget = 64) const;

  /// Like `isEmpty`, but on a `True` verdict additionally reports which
  /// input rows the emptiness proof cited (see EmptinessCore). `Core` may
  /// be null; it is cleared on any non-True verdict. `Witness` may be null;
  /// on a `False` verdict reached by a solve it receives the integer point
  /// the solver found, and it is left empty on every other path (a cached
  /// `False` carries no point).
  Ternary isEmpty(unsigned NodeBudget, EmptinessCore *Core,
                  std::vector<int64_t> *Witness = nullptr) const;

  /// Convenience: true only when emptiness was proven.
  bool isProvenEmpty(unsigned NodeBudget = 64) const {
    return isEmpty(NodeBudget) == Ternary::True;
  }

  /// An integer point in the set, if branch-and-bound found one.
  std::optional<std::vector<int64_t>>
  sampleIntegerPoint(unsigned NodeBudget = 64) const;

  /// Promote inequalities that are provably tight everywhere (the set lies
  /// on their hyperplane) into equalities — the "detect equalities" engine
  /// behind §4. Returns the number of inequalities promoted. Each row `r`
  /// costs one probe of `Set ∧ r >= 1`, run through one WitnessPool: the
  /// points found by earlier non-empty probes answer later ones whose row
  /// they satisfy, without a solve and with the same promotions.
  unsigned detectImplicitEqualities(unsigned NodeBudget = 64);

  /// Eliminate the variables at `Positions` (existential projection).
  /// Remaining variables keep their relative order.
  ProjectResult projectOut(std::vector<unsigned> Positions) const;
  // NOLINTNEXTLINE: ProjectResult is defined right after this class.

  /// Substitute variable `Var` := `Expr . (x, 1)` into every constraint and
  /// drop the variable's column. `Expr` has NumVars + 1 entries and must
  /// have a zero coefficient on `Var` itself. Always exact.
  BasicSet substitute(unsigned Var, const std::vector<int64_t> &Expr) const;

  /// Proven-subset test: every integer point of *this lies in `Other`.
  Ternary isSubsetOf(const BasicSet &Other, unsigned NodeBudget = 64) const;

  /// Insert `Count` fresh unconstrained variables at position `Pos`.
  BasicSet insertVars(unsigned Pos, unsigned Count) const;

  /// Render as `{ [v0, v1, ...] : constraints }`; `Names` may be empty, in
  /// which case variables print as x0, x1, ...
  std::string str(const std::vector<std::string> &Names = {}) const;

private:
  friend class EmptinessChecker;

  unsigned NumVars;
  std::vector<std::vector<int64_t>> Eqs;
  std::vector<std::vector<int64_t>> Ineqs;
};

/// Does the integer point `P` (one value per variable) satisfy every row of
/// `S`? Checked 128-bit arithmetic: a row whose sum overflows counts as
/// violated, so `true` is always exact.
bool liesIn(const BasicSet &S, const std::vector<int64_t> &P);

/// Integer points known to lie in one base set, kept across a loop of
/// emptiness probes `Base ∧ Row >= 0` that differ only in their one added
/// row (phase-1 instantiation's entailment probes and the probes of
/// detectImplicitEqualities). A pooled point that satisfies a probe's row
/// lies in the probe set, so the probe is answered "not empty" without a
/// solve. That is exact: the solver could never have proven such a set
/// empty, so a covered probe never loses a `True`; at most an `Unknown`
/// the solver might have returned becomes a correct `False`.
class WitnessPool {
public:
  static constexpr unsigned kNoColumn = ~0u;

  /// Emptiness of `Base` plus the inequality `Row` (appended last, so core
  /// row ids are Base's ids followed by one id for `Row`). Every pooled
  /// point must lie in `Base`. A pooled point satisfying `Row` answers
  /// `False` and counts `basicset.witness_skips`; otherwise the probe goes
  /// to BasicSet::isEmpty and the point it finds joins the pool.
  Ternary probe(const BasicSet &Base, std::vector<int64_t> Row,
                unsigned NodeBudget, EmptinessCore *Core = nullptr);

  /// Re-express the pool over `NewBase`, whose column J was column
  /// `OldColumn[J]` of the previous base (kNoColumn for a new column).
  /// Points lacking a column or violating a row of `NewBase` are dropped,
  /// so every kept point lies in `NewBase`.
  void remap(const std::vector<unsigned> &OldColumn, const BasicSet &NewBase);

  size_t size() const { return Points.size(); }

private:
  std::vector<std::vector<int64_t>> Points;
};

/// Result of projecting variables out of a BasicSet.
struct ProjectResult {
  BasicSet Set;
  bool Exact; ///< True when the integer projection is represented exactly.
};

/// Pretty-print a single constraint row, e.g. "i - j + 2 >= 0".
std::string formatConstraintRow(const std::vector<int64_t> &Row, bool IsEq,
                                const std::vector<std::string> &Names);

//===----------------------------------------------------------------------===//
// Prefilter ladder
//===----------------------------------------------------------------------===//
//
// Before paying for a Simplex solve (and even before the cache-key
// canonicalization), `isEmpty` runs a ladder of cheap, sound rejection
// tests: per-row GCD infeasibility (via normalize), a conflicting-equality
// scan (two equalities with the same variable part but different
// constants), and bounded single-variable interval propagation with
// conflict detection. `isSubsetOf` additionally tries a syntactic
// row-containment proof. Each rung only ever strengthens "Unknown" into a
// *proven* verdict, so the ladder cannot change any pipeline outcome —
// only how fast (and how attributably) it is reached. Hits are counted in
// the always-on `basicset.prefilter_*` obs counters, read back through
// PrefilterStats, so Fig. 7's "disproved by properties" accounting can
// attribute which rung decided a verdict.

/// Run only the emptiness prefilter ladder on `S`. `True` means proven
/// empty over the integers; `Unknown` means the ladder could not decide.
/// Never returns `False` (the ladder never finds satisfying points).
Ternary prefilterEmptiness(const BasicSet &S);

/// The prefilter ladder's tallies, read from the `basicset.prefilter_*`
/// obs counters (reset by clearQueryCache()).
struct PrefilterStats {
  uint64_t GcdRejects = 0;       ///< normalize() proved a row unsatisfiable
  uint64_t EqConflictRejects = 0;///< same-lhs equalities with different rhs
  uint64_t IntervalRejects = 0;  ///< interval propagation found a conflict
  uint64_t SyntacticSubsetHits = 0; ///< subset proven by row containment
  uint64_t Misses = 0;           ///< ladder fell through to the full solver

  uint64_t rejects() const {
    return GcdRejects + EqConflictRejects + IntervalRejects;
  }
};

PrefilterStats prefilterStats();

//===----------------------------------------------------------------------===//
// Query memoization
//===----------------------------------------------------------------------===//
//
// Emptiness and subset queries are memoized process-wide, keyed on the
// *canonicalized* constraint system (normalized rows in sorted order) plus
// the node budget. Only definitive verdicts (True/False) are cached —
// they are mathematical facts about the constraint system, so entries can
// never go stale and no invalidation is required; Unknown verdicts are
// recomputed because a different call could still resolve them. The cache
// is bounded by bytes and thread-safe: it is split into independently-
// locked shards selected by the key's hash, so concurrent queries from the
// task-parallel analysis pipeline do not serialize on one mutex, and the
// hits and misses are counted by sharded obs counters.

/// The bytes the verdict cache and its core index may hold together: each
/// entry's key, verdict and core payload (allocator overhead not counted).
/// An entry that would pass the budget is dropped; nothing is evicted.
constexpr uint64_t kQueryCacheBudgetBytes = uint64_t(256) << 20;

/// The process-wide presburger query cache: Hits, Misses and
/// CoreSubsumptionHits read the `basicset.cache_hits`, `cache_misses` and
/// `cache_core_subsume` obs counters; Entries, CoreEntries and Bytes are
/// levels.
struct QueryCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Entries = 0;
  /// Emptiness queries answered by the second-level core index: the query
  /// missed on its exact canonical key, but its row set is a superset of
  /// a previously proven unsat core, so it is empty a fortiori. Counted
  /// inside `Hits` as well (a subsumption hit is still a hit).
  uint64_t CoreSubsumptionHits = 0;
  /// Distinct unsat cores currently held by the subsumption index.
  uint64_t CoreEntries = 0;
  /// Bytes both levels hold, against kQueryCacheBudgetBytes (the
  /// `presburger.query_cache.bytes` gauge).
  uint64_t Bytes = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

QueryCacheStats queryCacheStats();

/// Drop every cached verdict and zero exactly the counters behind
/// QueryCacheStats, PrefilterStats and the Budget.h exhaustion counts
/// (bench and test isolation — every bench calls this at start
/// so BENCH_*.json cache figures are reproducible run-to-run; correctness
/// never requires it).
void clearQueryCache();

} // namespace presburger
} // namespace sds

#endif // SDS_PRESBURGER_BASICSET_H
