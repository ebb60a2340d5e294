//===- Relation.cpp - Sparse sets/relations with UF constraints ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Relation.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace sds {
namespace ir {

/// Does `D`'s linear part, scaled by `Sign`, equal `E`'s?
static bool sameLinearPart(const Expr &D, int64_t Sign, const Expr &E) {
  if (D.terms().size() != E.terms().size())
    return false;
  for (size_t I = 0; I < E.terms().size(); ++I)
    if (D.terms()[I].Coeff * Sign != E.terms()[I].Coeff ||
        D.terms()[I].A != E.terms()[I].A)
      return false;
  return true;
}

template <typename Fn>
bool Conjunction::anyLinearMatch(const Expr &E, Fn Visit) const {
  uint64_t H = E.hash(1, /*WithConstant=*/false);
  auto It = std::lower_bound(Index.begin(), Index.end(), IndexEntry{H, 0});
  for (; It != Index.end() && It->first == H; ++It) {
    const Constraint &D = Cs[It->second >> 1];
    int64_t Sign = (It->second & 1) ? -1 : 1;
    if (sameLinearPart(D.E, Sign, E) && Visit(D, Sign))
      return true;
  }
  return false;
}

void Conjunction::add(Constraint C) {
  // Drop trivially-true constraints.
  if (C.E.isConstant()) {
    if (C.isEq() ? (C.E.constant() == 0) : (C.E.constant() >= 0))
      return;
  }
  // Drop exact duplicates.
  if (anyLinearMatch(C.E, [&](const Constraint &D, int64_t Sign) {
        return Sign == 1 && D.K == C.K &&
               D.E.constant() == C.E.constant();
      }))
    return;
  auto Insert = [&](uint64_t H, uint32_t Entry) {
    IndexEntry E{H, Entry};
    Index.insert(std::upper_bound(Index.begin(), Index.end(), E), E);
  };
  uint32_t CI = static_cast<uint32_t>(Cs.size());
  Insert(C.E.hash(1, /*WithConstant=*/false), CI << 1);
  // An equality also indexes its negated linear part.
  if (C.isEq())
    Insert(C.E.hash(-1, /*WithConstant=*/false), CI << 1 | 1);
  Cs.push_back(std::move(C));
}

bool Conjunction::impliesSyntactically(const Constraint &C) const {
  // Constant constraints decide themselves.
  if (C.E.isConstant())
    return C.isEq() ? (C.E.constant() == 0) : (C.E.constant() >= 0);

  int64_t K = C.E.constant();
  return anyLinearMatch(C.E, [&](const Constraint &D, int64_t Sign) {
    int64_t DK = D.E.constant() * Sign;
    // Eq: lin + K == 0 is forced only by an equality lin + K == 0.
    if (C.isEq())
      return D.isEq() && DK == K;
    // Geq: lin + K >= 0. Implied by lin + ch >= 0 with ch <= K, or by an
    // equality lin + ce == 0 with ce <= K (then lin + K = K - ce >= 0).
    return DK <= K;
  });
}

Conjunction
Conjunction::substitute(const std::map<std::string, Expr> &Map) const {
  Conjunction Out;
  for (const Constraint &C : Cs)
    Out.add(C.substitute(Map));
  return Out;
}

std::vector<Atom> Conjunction::collectCalls() const {
  std::vector<Atom> Calls;
  for (const Constraint &C : Cs)
    C.E.collectCalls(Calls);
  // Deduplicate by id, then order structurally.
  auto ById = [](Atom L, Atom R) { return L.id() < R.id(); };
  std::sort(Calls.begin(), Calls.end(), ById);
  Calls.erase(std::unique(Calls.begin(), Calls.end()), Calls.end());
  std::sort(Calls.begin(), Calls.end());
  return Calls;
}

std::vector<std::string> Conjunction::collectVars() const {
  std::vector<std::string> Vars, Out;
  for (const Constraint &C : Cs)
    C.E.collectVars(Vars);
  for (std::string &V : Vars)
    if (std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(std::move(V));
  return Out;
}

std::string Conjunction::str() const {
  std::string Out;
  for (size_t I = 0; I < Cs.size(); ++I) {
    if (I)
      Out += " && ";
    Out += Cs[I].str();
  }
  return Out.empty() ? "true" : Out;
}

std::vector<std::string> SparseRelation::params() const {
  auto IsBound = [&](const std::string &V) {
    auto In = [&](const std::vector<std::string> &L) {
      return std::find(L.begin(), L.end(), V) != L.end();
    };
    return In(InVars) || In(OutVars) || In(ExistVars);
  };
  std::vector<std::string> Out;
  for (const std::string &V : Conj.collectVars())
    if (!IsBound(V) && std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(V);
  return Out;
}

unsigned SparseRelation::eliminateDeterminedExistentials() {
  unsigned Eliminated = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t VI = 0; VI < ExistVars.size(); ++VI) {
      const std::string &V = ExistVars[VI];
      for (const Constraint &C : Conj.constraints()) {
        if (!C.isEq())
          continue;
        // Look for a top-level term (+|-)1 * V.
        int64_t Coeff = 0;
        for (const Expr::Term &T : C.E.terms())
          if (T.A.isVar() && T.A.name() == V)
            Coeff = T.Coeff;
        if (Coeff != 1 && Coeff != -1)
          continue;
        // V = -sign * (E - Coeff*V).
        Expr Rest = C.E - Expr(Coeff, Atom::var(V));
        Expr Solved = Rest * -Coeff;
        // The solution must not mention V (e.g. hidden inside f(V)).
        std::vector<std::string> Vars;
        Solved.collectVars(Vars);
        if (std::find(Vars.begin(), Vars.end(), V) != Vars.end())
          continue;
        std::map<std::string, Expr> Map;
        Map.emplace(V, std::move(Solved));
        Conj = Conj.substitute(Map);
        ExistVars.erase(ExistVars.begin() + static_cast<std::ptrdiff_t>(VI));
        ++Eliminated;
        Changed = true;
        break;
      }
      if (Changed)
        break;
    }
  }
  return Eliminated;
}

std::string SparseRelation::str() const {
  auto Tuple = [](const std::vector<std::string> &Vs) {
    std::string Out = "[";
    for (size_t I = 0; I < Vs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Vs[I];
    }
    return Out + "]";
  };
  std::string Out = "{ " + Tuple(InVars);
  if (!OutVars.empty())
    Out += " -> " + Tuple(OutVars);
  Out += " : ";
  if (!ExistVars.empty()) {
    Out += "exists(";
    for (size_t I = 0; I < ExistVars.size(); ++I) {
      if (I)
        Out += ", ";
      Out += ExistVars[I];
    }
    Out += ") : ";
  }
  Out += Conj.str();
  Out += " }";
  return Out;
}

} // namespace ir
} // namespace sds
