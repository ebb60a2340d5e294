//===- Relation.h - Sparse sets/relations with UF constraints ---*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The IEGenLib-style layer: dependence relations such as
//
//   { [i] -> [i'] : exists k' : i < i' && i = col(k') && 0 <= i && i < n
//                   && rowptr(i') <= k' && k' < rowptr(i'+1) }
//
// are conjunctions of affine constraints over input-tuple variables,
// output-tuple variables, existential variables, symbolic parameters, and
// uninterpreted function calls representing index arrays (§2.1).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_RELATION_H
#define SDS_IR_RELATION_H

#include "sds/ir/Expr.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sds {
namespace ir {

/// A single affine constraint over UF expressions: E == 0 or E >= 0.
struct Constraint {
  enum class Kind { Eq, Geq };

  Kind K;
  Expr E;

  static Constraint eq(Expr E) { return {Kind::Eq, std::move(E)}; }
  static Constraint geq(Expr E) { return {Kind::Geq, std::move(E)}; }
  /// lhs <= rhs, i.e. rhs - lhs >= 0.
  static Constraint le(const Expr &L, const Expr &R) { return geq(R - L); }
  /// lhs < rhs, i.e. rhs - lhs - 1 >= 0.
  static Constraint lt(const Expr &L, const Expr &R) {
    return geq(R - L - Expr(1));
  }
  /// lhs == rhs.
  static Constraint equals(const Expr &L, const Expr &R) { return eq(L - R); }

  bool isEq() const { return K == Kind::Eq; }

  /// Lookup key over the kind and the expression's (coefficient, atom id)
  /// terms; see Atom::id for what it may not decide.
  uint64_t hash() const { return E.hash() * 2 + isEq(); }

  int compare(const Constraint &O) const {
    if (K != O.K)
      return K == Kind::Eq ? -1 : 1;
    return E.compare(O.E);
  }
  bool operator==(const Constraint &O) const { return compare(O) == 0; }
  bool operator<(const Constraint &O) const { return compare(O) < 0; }

  Constraint substitute(const std::map<std::string, Expr> &Map) const {
    return {K, E.substitute(Map)};
  }

  std::string str() const {
    return E.str() + (isEq() ? " == 0" : " >= 0");
  }
};

/// Hasher for unordered containers keyed by a constraint.
struct ConstraintHash {
  size_t operator()(const Constraint &C) const { return C.hash(); }
};

/// A conjunction of constraints.
class Conjunction {
public:
  Conjunction() = default;
  explicit Conjunction(std::vector<Constraint> List) {
    for (Constraint &C : List)
      add(std::move(C));
  }

  const std::vector<Constraint> &constraints() const { return Cs; }
  bool empty() const { return Cs.empty(); }
  void add(Constraint C);
  void append(const Conjunction &O) {
    for (const Constraint &C : O.Cs)
      add(C);
  }

  /// True when `C` is syntactically implied by some constraint here:
  /// the same constraint, a weaker constant bound on the same linear part,
  /// or an equality on the same linear part that forces it.
  bool impliesSyntactically(const Constraint &C) const;

  Conjunction substitute(const std::map<std::string, Expr> &Map) const;

  /// All UF calls appearing anywhere in the conjunction.
  std::vector<Atom> collectCalls() const;
  /// All variable names appearing anywhere (including inside call args).
  std::vector<std::string> collectVars() const;

  std::string str() const;

private:
  /// Implication index: one entry per constraint, plus one for the negated
  /// linear part of each equality, sorted by the hash of that linear part
  /// (its terms without the constant). An entry is (hash, constraint index
  /// << 1 | negated). Lookups compare the terms, so a hash collision costs
  /// a comparison, never a wrong answer. Enables O(log) syntactic
  /// implication checks in the instantiation hot loop (§6.2 phase 1 can
  /// consult this tens of thousands of times per relation).
  using IndexEntry = std::pair<uint64_t, uint32_t>;

  /// Call `Visit(D, Sign)` for every constraint `D` whose linear part,
  /// scaled by `Sign`, equals `E`'s linear part, until it returns true.
  template <typename Fn> bool anyLinearMatch(const Expr &E, Fn Visit) const;

  std::vector<Constraint> Cs; // deduplicated, insertion order
  std::vector<IndexEntry> Index;
};

/// A dependence relation `{ [in] -> [out] : exists E : conjunction }`.
///
/// Parameters (symbolic constants such as n or nnz) are any free variables
/// that are not tuple or existential variables.
struct SparseRelation {
  std::string Name;                  ///< Diagnostic label, e.g. "R1".
  std::vector<std::string> InVars;   ///< Input tuple (source iteration).
  std::vector<std::string> OutVars;  ///< Output tuple (sink iteration).
  std::vector<std::string> ExistVars;///< Existentially quantified inner vars.
  Conjunction Conj;

  /// Free variables that are neither tuple nor existential: the symbolic
  /// parameters, in first-appearance order.
  std::vector<std::string> params() const;

  /// Remove existential variables that are pinned by a unit-coefficient
  /// equality, substituting them away (a cheap, always-sound reduction of
  /// inspector dimensionality). Returns the number eliminated.
  unsigned eliminateDeterminedExistentials();

  std::string str() const;
};

} // namespace ir
} // namespace sds

#endif // SDS_IR_RELATION_H
