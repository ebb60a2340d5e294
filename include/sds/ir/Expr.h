//===- Expr.h - Affine expressions with uninterpreted functions -*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Expressions of the sparse polyhedral framework layer: integer-linear
// combinations of *atoms*, where an atom is either a named variable or a
// call to an uninterpreted function (UF) whose arguments are themselves
// expressions — e.g. `rowptr(i + 1) - 1` or `col(row(m))`. Index arrays of
// sparse formats appear as arity-1 UFs, exactly as in the paper (§2.1).
//
// Expressions are kept canonical (terms sorted and merged, zero terms
// dropped), so structural equality is semantic equality of the syntax tree.
// Two syntactically equal UF calls always denote the same value, which the
// flattener exploits by mapping them to one column (a free partial
// functional-consistency).
//
// Atoms are interned: every distinct variable or call is one immutable node
// of a process-wide, append-only, thread-safe term table, and an `Atom` is
// that node's 32-bit id. Copying an expression copies (coefficient, id)
// pairs, and equal atoms have equal ids, so ids key hash lookups. Ids depend
// on the order in which threads first meet a term, so no order, output or
// branch may depend on an id's value: ordering goes through `compare`, which
// is structural, and printing through `str`.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_EXPR_H
#define SDS_IR_EXPR_H

#include "sds/support/SmallVector.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sds {
namespace ir {

class Expr;

/// A variable reference or an uninterpreted function call: the id of an
/// interned term node. A default-constructed atom refers to no node and
/// may only be assigned to.
class Atom {
public:
  enum class Kind { Var, Call };

  Atom() = default;

  static Atom var(std::string_view Name);
  static Atom call(std::string_view Fn, std::vector<Expr> Args);

  Kind kind() const;
  bool isVar() const { return kind() == Kind::Var; }
  bool isCall() const { return kind() == Kind::Call; }
  /// Variable or function name.
  const std::string &name() const;
  /// Call arguments (empty for Var).
  const std::vector<Expr> &args() const;

  /// The interned id: equal atoms have equal ids. Keys lookups only; its
  /// value depends on interning order and must not decide anything else.
  uint32_t id() const { return Id; }

  /// Total order used for canonicalization (Vars before Calls, then by
  /// name, then by arguments). Independent of ids.
  int compare(const Atom &O) const;
  bool operator==(const Atom &O) const { return Id == O.Id; }
  bool operator!=(const Atom &O) const { return Id != O.Id; }
  bool operator<(const Atom &O) const { return compare(O) < 0; }

  /// Printed form, built once when the atom is first interned.
  const std::string &str() const;

  /// Atoms interned so far in this process. The table never shrinks.
  static size_t internedCount();
  /// The table's capacity. Interning one more distinct atom aborts the
  /// process; callers that can refuse work (the server) check
  /// `internedCount()` against it first.
  static constexpr size_t kMaxInterned = size_t(1) << 24;

private:
  explicit Atom(uint32_t Id) : Id(Id) {}

  uint32_t Id = ~0u;
};

/// A canonical integer-linear combination of atoms plus a constant.
class Expr {
public:
  struct Term {
    int64_t Coeff;
    Atom A;
  };
  /// Inline room for three terms covers nearly every constraint.
  using TermList = SmallVector<Term, 3>;

  Expr() : Const(0) {}
  /*implicit*/ Expr(int64_t C) : Const(C) {}

  static Expr var(std::string_view Name) { return Expr(1, Atom::var(Name)); }
  static Expr call(std::string_view Fn, std::vector<Expr> Args) {
    return Expr(1, Atom::call(Fn, std::move(Args)));
  }
  Expr(int64_t Coeff, Atom A);

  const TermList &terms() const { return Terms; }
  int64_t constant() const { return Const; }

  bool isConstant() const { return Terms.empty(); }
  /// True when the expression is exactly one atom with coefficient +1 and
  /// no constant (e.g. a bare variable or bare call).
  bool isSingleAtom() const {
    return Const == 0 && Terms.size() == 1 && Terms[0].Coeff == 1;
  }

  Expr operator+(const Expr &O) const;
  Expr operator-(const Expr &O) const;
  Expr operator-() const;
  Expr operator*(int64_t K) const;
  Expr &operator+=(const Expr &O) { return *this = *this + O; }
  Expr &operator-=(const Expr &O) { return *this = *this - O; }

  int compare(const Expr &O) const;
  bool operator==(const Expr &O) const;
  bool operator!=(const Expr &O) const { return !(*this == O); }
  bool operator<(const Expr &O) const { return compare(O) < 0; }

  /// Hash of the terms (coefficients scaled by `Sign`) and, when
  /// `WithConstant`, the constant. Keys lookups only (see Atom::id).
  uint64_t hash(int64_t Sign = 1, bool WithConstant = true) const;

  /// Substitute variables by expressions, including inside UF-call
  /// arguments at any depth. Unmapped variables are left untouched.
  Expr substitute(const std::map<std::string, Expr> &Map) const;

  /// Collect every UF call appearing in this expression (including calls
  /// nested inside other calls' arguments), outermost first.
  void collectCalls(std::vector<Atom> &Out) const;

  /// Collect the names of all variables appearing (at any depth).
  void collectVars(std::vector<std::string> &Out) const;

  /// Canonical printable form, e.g. "rowptr(i + 1) - k - 1".
  std::string str() const;

private:
  TermList Terms; // sorted by atom, no zero coefficients
  int64_t Const;
};

} // namespace ir
} // namespace sds

#endif // SDS_IR_EXPR_H
