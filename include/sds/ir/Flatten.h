//===- Flatten.h - Lower UF constraints to integer polyhedra ----*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Following §6.1 of the paper: "The uninterpreted functions are removed by
// replacing each call with a fresh variable ... before calling ISL to test
// for satisfiability and to expose equalities." The flattener assigns one
// column per named variable and one column per *structurally distinct* UF
// call (so syntactically equal calls share a column, which encodes the
// easy half of functional consistency for free), producing a
// presburger::BasicSet plus the mapping needed to translate discovered
// equality rows back into UF expressions.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_FLATTEN_H
#define SDS_IR_FLATTEN_H

#include "sds/ir/Relation.h"
#include "sds/presburger/BasicSet.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sds {
namespace ir {

/// A conjunction lowered to an integer polyhedron, with the column <-> atom
/// correspondence retained.
struct Flattened {
  presburger::BasicSet Set;
  std::vector<Atom> Cols; ///< Atom represented by each column.
  /// (atom id, column), sorted by id: the lookup behind columnOf.
  std::vector<std::pair<uint32_t, unsigned>> ColIndex;
  /// Row provenance: for each equality (resp. inequality) row of `Set`, the
  /// index into the source Conjunction's constraints() it was lowered from.
  /// Together with presburger::EmptinessCore this maps an integer-level
  /// unsat core back onto UF-level constraints.
  std::vector<unsigned> EqRowConstraint;
  std::vector<unsigned> IneqRowConstraint;

  Flattened() : Set(0) {}

  /// Look up the column of a variable or call atom; returns numVars() when
  /// the atom has no column.
  unsigned columnOf(const Atom &A) const {
    auto It = std::lower_bound(ColIndex.begin(), ColIndex.end(),
                               std::pair<uint32_t, unsigned>{A.id(), 0});
    return It != ColIndex.end() && It->first == A.id() ? It->second
                                                       : Set.numVars();
  }

  /// Lower `E` onto this column space: a row numVars + 1 wide. Returns
  /// false when some atom of `E` has no column.
  bool lowerRow(const Expr &E, std::vector<int64_t> &Row) const;

  /// Translate a constraint row (numVars + 1 wide) back into an Expr.
  Expr rowToExpr(const std::vector<int64_t> &Row) const;
};

/// Lower `C` to a polyhedron. `VarOrder` fixes the first columns (tuple
/// variables first is the usual choice); parameters and any variables not
/// listed are appended next, and call columns last, in discovery order.
Flattened flatten(const Conjunction &C,
                  const std::vector<std::string> &VarOrder);

/// Convenience: flatten a relation with column order
/// [InVars, OutVars, ExistVars, params..., calls...].
Flattened flatten(const SparseRelation &R);

} // namespace ir
} // namespace sds

#endif // SDS_IR_FLATTEN_H
