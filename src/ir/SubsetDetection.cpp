//===- SubsetDetection.cpp - Dependence subsumption (§5) ------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/SubsetDetection.h"

#include "sds/ir/Flatten.h"

#include <algorithm>
#include <cassert>

namespace sds {
namespace ir {

std::vector<std::string>
eliminateDeterminedVars(SparseRelation &R, std::vector<std::string> Vars) {
  bool Changed = true;
  while (Changed && !Vars.empty()) {
    Changed = false;
    for (size_t VI = 0; VI < Vars.size(); ++VI) {
      const std::string &V = Vars[VI];
      for (const Constraint &C : R.Conj.constraints()) {
        if (!C.isEq())
          continue;
        int64_t Coeff = 0;
        for (const Expr::Term &T : C.E.terms())
          if (T.A.isVar() && T.A.name() == V)
            Coeff = T.Coeff;
        if (Coeff != 1 && Coeff != -1)
          continue;
        Expr Rest = C.E - Expr(Coeff, Atom::var(V));
        Expr Solved = Rest * -Coeff;
        std::vector<std::string> Mentioned;
        Solved.collectVars(Mentioned);
        if (std::find(Mentioned.begin(), Mentioned.end(), V) !=
            Mentioned.end())
          continue;
        std::map<std::string, Expr> Map;
        Map.emplace(V, std::move(Solved));
        R.Conj = R.Conj.substitute(Map);
        auto Scrub = [&](std::vector<std::string> &L) {
          L.erase(std::remove(L.begin(), L.end(), V), L.end());
        };
        Scrub(R.OutVars);
        Scrub(R.ExistVars);
        Vars.erase(Vars.begin() + static_cast<std::ptrdiff_t>(VI));
        Changed = true;
        break;
      }
      if (Changed)
        break;
    }
  }
  return Vars;
}

namespace {

/// Branch-and-bound node cap of the polyhedral subset test.
constexpr unsigned kEmptinessBudget = 64;

/// Lower a conjunction onto an existing column space. Atoms without a
/// column must not occur (the caller builds the space from a superset).
presburger::BasicSet lowerOnto(const Flattened &F, const Conjunction &C) {
  presburger::BasicSet Out(F.Set.numVars());
  std::vector<int64_t> Row;
  for (const Constraint &Cons : C.constraints()) {
    [[maybe_unused]] bool Lowered = F.lowerRow(Cons.E, Row);
    assert(Lowered && "the space covers both conjunctions");
    if (Cons.isEq())
      Out.addEquality(std::move(Row));
    else
      Out.addInequality(std::move(Row));
  }
  return Out;
}

} // namespace

presburger::Ternary subsumes(const SparseRelation &Kept,
                             const SparseRelation &Discarded) {
  using presburger::Ternary;
  // Step 1: the comparison only makes sense over a shared source space and
  // sink outer iterator.
  if (Kept.InVars != Discarded.InVars || Kept.OutVars.empty() ||
      Discarded.OutVars.empty() || Kept.OutVars[0] != Discarded.OutVars[0])
    return Ternary::Unknown;

  // Step 2: kept side must become exact over the shared variables.
  SparseRelation K = Kept;
  {
    std::vector<std::string> Elim(K.OutVars.begin() + 1, K.OutVars.end());
    Elim.insert(Elim.end(), K.ExistVars.begin(), K.ExistVars.end());
    std::vector<std::string> Leftover =
        eliminateDeterminedVars(K, std::move(Elim));
    if (!Leftover.empty())
      return Ternary::Unknown;
  }

  // Step 3: discarded side eliminates what it can by substitution; the
  // rest is projected out below with Fourier-Motzkin, which is a pure
  // relaxation — sound for the side that gets discarded, and it keeps
  // transitive bounds (e.g. col(i')+1 <= m' <= l' = k survives as
  // col(i')+1 <= k, matching the paper's R2* in §5.3).
  SparseRelation D = Discarded;
  std::vector<std::string> Leftover;
  {
    std::vector<std::string> Elim(D.OutVars.begin() + 1, D.OutVars.end());
    Elim.insert(Elim.end(), D.ExistVars.begin(), D.ExistVars.end());
    Leftover = eliminateDeterminedVars(D, std::move(Elim));
  }

  // Step 4: lower both onto one shared column space, project the leftover
  // witnesses (and every UF-call column whose arguments mention them) out
  // of the discarded side, and compare.
  std::vector<std::string> Order = Kept.InVars;
  Order.push_back(Kept.OutVars[0]);
  Conjunction Universe = K.Conj;
  Universe.append(D.Conj);
  Flattened F = flatten(Universe, Order);

  std::vector<unsigned> Positions;
  for (unsigned Col = 0; Col < F.Cols.size(); ++Col) {
    const Atom &A = F.Cols[Col];
    std::vector<std::string> Mentioned;
    if (A.isVar()) {
      Mentioned.push_back(A.name());
    } else {
      Expr CallExpr(1, A);
      CallExpr.collectVars(Mentioned);
    }
    for (const std::string &V : Mentioned)
      if (std::find(Leftover.begin(), Leftover.end(), V) != Leftover.end()) {
        Positions.push_back(Col);
        break;
      }
  }

  presburger::BasicSet KSet = lowerOnto(F, K.Conj);
  presburger::BasicSet DSet = lowerOnto(F, D.Conj);
  if (!Positions.empty()) {
    presburger::ProjectResult DP = DSet.projectOut(Positions);
    DSet = std::move(DP.Set); // exactness not required on this side
    presburger::ProjectResult KP = KSet.projectOut(Positions);
    if (!KP.Exact)
      return Ternary::Unknown; // K never mentions these, so always exact
    KSet = std::move(KP.Set);
  }
  return DSet.isSubsetOf(KSet, kEmptinessBudget);
}

} // namespace ir
} // namespace sds
