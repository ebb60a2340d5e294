//===- EqualityDiscovery.cpp - Expose implicit equalities (§4) -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// After phase-1 instantiation the augmented conjunction often sandwiches a
// value from both sides (e.g. `g(i) <= i'` from the relation and
// `i' <= g(i)` from a contrapositive instance); lowering to the integer-set
// layer and promoting provably-tight inequalities exposes the equality
// `i' == g(i)` that collapses one inspector loop (§4.1's O(n^2) -> O(n)).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"
#include "sds/ir/Simplify.h"

#include <algorithm>

namespace sds {
namespace ir {

namespace {

/// Branch-and-bound node cap of each integer-emptiness probe.
constexpr unsigned kEmptinessBudget = 64;
/// Largest inequality count that still gets LP-based equality detection.
constexpr size_t kMaxEqualityProbes = 64;

/// Cheap syntactic pre-pass: pairs of inequalities with opposite linear
/// parts and exactly-matching constants are equalities. This catches the
/// common sandwich pattern without any LP work.
unsigned promoteOppositePairs(presburger::BasicSet &Set) {
  using Row = std::vector<int64_t>;
  unsigned N = Set.numVars();
  std::vector<Row> Ineqs = Set.inequalities();
  std::vector<bool> Promoted(Ineqs.size(), false);
  std::vector<Row> NewEqs;
  for (size_t I = 0; I < Ineqs.size(); ++I) {
    if (Promoted[I])
      continue;
    for (size_t J = I + 1; J < Ineqs.size(); ++J) {
      if (Promoted[J])
        continue;
      bool Opposite = true;
      for (unsigned K = 0; K <= N && Opposite; ++K)
        if (Ineqs[I][K] != -Ineqs[J][K])
          Opposite = false;
      if (!Opposite)
        continue;
      NewEqs.push_back(Ineqs[I]);
      Promoted[I] = Promoted[J] = true;
      break;
    }
  }
  if (NewEqs.empty())
    return 0;
  presburger::BasicSet Out(N);
  for (const Row &R : Set.equalities())
    Out.addEquality(R);
  for (const Row &R : NewEqs)
    Out.addEquality(R);
  for (size_t I = 0; I < Ineqs.size(); ++I)
    if (!Promoted[I])
      Out.addInequality(Ineqs[I]);
  Set = std::move(Out);
  return static_cast<unsigned>(NewEqs.size());
}

/// Derive residual equalities by Gaussian elimination: eliminate "deep"
/// call columns (nested calls first) through unit-coefficient pivot rows,
/// leaving combinations over variables and simple calls. Example: from
/// k == colptr(i'), rowidx(colptr(i')) == i' and the functional-
/// consistency link rowidx(colptr(i')) == rowidx(k), elimination of the
/// nested call yields the inspector-friendly i' == rowidx(k).
void gaussResiduals(const Flattened &F,
                    std::vector<std::vector<int64_t>> &Residuals) {
  std::vector<std::vector<int64_t>> Rows = F.Set.equalities();
  unsigned Width = F.Set.numVars();

  // Eliminate only *nested* call columns (depth >= 2, e.g.
  // rowidx(colptr(i'))), deepest first. Depth-1 calls are direct index-
  // array reads an inspector can evaluate — they must stay, or the very
  // residuals we are after (i' == rowidx(k)) would be consumed as the
  // "defining rows" of their own columns.
  std::vector<std::pair<int, unsigned>> Order;
  for (unsigned C = 0; C < Width; ++C) {
    if (!F.Cols[C].isCall())
      continue;
    std::vector<ir::Atom> Nested;
    ir::Expr(1, F.Cols[C]).collectCalls(Nested);
    int Depth = static_cast<int>(Nested.size()); // 1 + nested call count
    if (Depth >= 2)
      Order.push_back({-Depth, C});
  }
  std::sort(Order.begin(), Order.end());

  std::vector<bool> Dead(Rows.size(), false);
  for (auto [NegDepth, C] : Order) {
    (void)NegDepth;
    size_t Pivot = Rows.size();
    for (size_t R = 0; R < Rows.size(); ++R)
      if (!Dead[R] && (Rows[R][C] == 1 || Rows[R][C] == -1)) {
        Pivot = R;
        break;
      }
    if (Pivot == Rows.size())
      continue;
    int64_t PC = Rows[Pivot][C];
    for (size_t R = 0; R < Rows.size(); ++R) {
      if (R == Pivot || Dead[R] || Rows[R][C] == 0)
        continue;
      int64_t A = Rows[R][C];
      for (unsigned J = 0; J <= Width; ++J)
        Rows[R][J] -= A * PC * Rows[Pivot][J];
    }
    Dead[Pivot] = true; // the defining row leaves the residual system
  }
  for (size_t R = 0; R < Rows.size(); ++R) {
    if (Dead[R])
      continue;
    bool NonTrivial = false;
    for (unsigned J = 0; J < Width; ++J)
      if (Rows[R][J] != 0)
        NonTrivial = true;
    if (NonTrivial)
      Residuals.push_back(Rows[R]);
  }
}

} // namespace

EqualityDiscoveryResult discoverEqualities(SparseRelation &R,
                                           const PropertySet &PS,
                                           const SimplifyOptions &Opts) {
  EqualityDiscoveryResult Result;

  InstantiationStats Stats;
  Conjunction Aug =
      instantiatePhase1(R.Conj, PS.assertions(), Opts, &Stats, nullptr);
  // Every equality found below is a consequence of the applied instances,
  // so their labels form a (coarse but sound) core for the rewrite.
  Result.UsedLabels = std::move(Stats.UsedLabels);
  std::sort(Result.UsedLabels.begin(), Result.UsedLabels.end());
  Result.UsedLabels.erase(
      std::unique(Result.UsedLabels.begin(), Result.UsedLabels.end()),
      Result.UsedLabels.end());

  SparseRelation Tmp = R;
  Tmp.Conj = Aug;
  Flattened F = flatten(Tmp);
  if (!F.Set.normalize())
    return Result; // relation is empty; nothing to discover

  unsigned EqsBefore = static_cast<unsigned>(F.Set.equalities().size());
  promoteOppositePairs(F.Set);
  // LP-based promotion for anything the syntactic pass missed, under a
  // probe budget (each probe is one integer-emptiness query).
  if (F.Set.inequalities().size() <= kMaxEqualityProbes)
    F.Set.detectImplicitEqualities(kEmptinessBudget);

  // Residual combinations (Gaussian elimination of nested call columns)
  // expose solved forms like i' == rowidx(k).
  std::vector<std::vector<int64_t>> Candidates = F.Set.equalities();
  gaussResiduals(F, Candidates);

  // Translate every equality that is new w.r.t. the *original* relation
  // back into UF form and record it.
  for (const auto &Row : Candidates) {
    (void)EqsBefore;
    Expr E = F.rowToExpr(Row);
    Constraint C = Constraint::eq(E);
    if (R.Conj.impliesSyntactically(C))
      continue;
    R.Conj.add(C);
    ++Result.NewEqualities;
    Result.EqualityStrings.push_back(C.str());
  }

  Result.ExistentialsEliminated = R.eliminateDeterminedExistentials();
  return Result;
}

} // namespace ir
} // namespace sds
