//===- Flatten.cpp - Lower UF constraints to integer polyhedra -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"

#include <algorithm>
#include <cassert>

namespace sds {
namespace ir {

Expr Flattened::rowToExpr(const std::vector<int64_t> &Row) const {
  assert(Row.size() == Cols.size() + 1 && "row width mismatch");
  Expr E(Row.back());
  for (size_t J = 0; J < Cols.size(); ++J)
    if (Row[J] != 0)
      E += Expr(Row[J], Cols[J]);
  return E;
}

bool Flattened::lowerRow(const Expr &E, std::vector<int64_t> &Row) const {
  unsigned Width = Set.numVars();
  Row.assign(Width + 1, 0);
  Row[Width] = E.constant();
  for (const Expr::Term &T : E.terms()) {
    unsigned Col = columnOf(T.A);
    if (Col == Width)
      return false;
    Row[Col] += T.Coeff;
  }
  return true;
}

/// Append every variable atom of `E` (at any depth) in appearance order.
static void collectVarAtoms(const Expr &E, std::vector<Atom> &Out) {
  for (const Expr::Term &T : E.terms()) {
    if (T.A.isVar()) {
      Out.push_back(T.A);
      continue;
    }
    for (const Expr &Arg : T.A.args())
      collectVarAtoms(Arg, Out);
  }
}

Flattened flatten(const Conjunction &C,
                  const std::vector<std::string> &VarOrder) {
  Flattened F;

  auto AddColumn = [&](Atom A) {
    std::pair<uint32_t, unsigned> Entry{A.id(), 0};
    auto It = std::lower_bound(F.ColIndex.begin(), F.ColIndex.end(), Entry);
    if (It != F.ColIndex.end() && It->first == A.id())
      return;
    Entry.second = static_cast<unsigned>(F.Cols.size());
    F.ColIndex.insert(It, Entry);
    F.Cols.push_back(A);
  };

  // 1. Named variables in the requested order.
  for (const std::string &V : VarOrder)
    AddColumn(Atom::var(V));
  // 2. Any stray variables (parameters etc.) in appearance order.
  std::vector<Atom> Vars;
  for (const Constraint &Cons : C.constraints())
    collectVarAtoms(Cons.E, Vars);
  for (Atom V : Vars)
    AddColumn(V);
  // 3. One column per structurally distinct UF call (nested included, so
  //    instantiation-produced constraints over inner calls line up too).
  for (Atom Call : C.collectCalls())
    AddColumn(Call);

  unsigned Width = static_cast<unsigned>(F.Cols.size());
  F.Set = presburger::BasicSet(Width);

  const std::vector<Constraint> &Cs = C.constraints();
  std::vector<int64_t> Row;
  for (unsigned CI = 0; CI < Cs.size(); ++CI) {
    const Constraint &Cons = Cs[CI];
    [[maybe_unused]] bool Lowered = F.lowerRow(Cons.E, Row);
    assert(Lowered && "atom without a column");
    if (Cons.isEq()) {
      F.Set.addEquality(std::move(Row));
      F.EqRowConstraint.push_back(CI);
    } else {
      F.Set.addInequality(std::move(Row));
      F.IneqRowConstraint.push_back(CI);
    }
  }
  return F;
}

Flattened flatten(const SparseRelation &R) {
  std::vector<std::string> Order;
  Order.insert(Order.end(), R.InVars.begin(), R.InVars.end());
  Order.insert(Order.end(), R.OutVars.begin(), R.OutVars.end());
  Order.insert(Order.end(), R.ExistVars.begin(), R.ExistVars.end());
  for (const std::string &P : R.params())
    Order.push_back(P);
  return flatten(R.Conj, Order);
}

} // namespace ir
} // namespace sds
