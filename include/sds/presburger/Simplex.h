//===- Simplex.h - Exact rational simplex for feasibility -------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A phase-1 primal simplex that decides rational feasibility exactly, used
// by the Presburger layer as the rational-relaxation engine of the integer
// emptiness test (our substitute for the corresponding ISL machinery).
//
// Problems are given as systems of linear equalities/inequalities over free
// (sign-unrestricted) variables; internally each free variable is split into
// a difference of two nonnegative variables and slacks/artificials are
// added. Bland's rule guarantees termination.
//
// The tableau is fraction-free: every row holds integer numerators over one
// positive denominator, and a pivot touches only the pivot row's nonzero
// columns in the rows that have a nonzero entry in the entering column. It
// runs on checked int64 arithmetic first and re-solves the same system on
// 128-bit integers when int64 overflows (the transprecision scheme of
// Grosser et al., "FPL", OOPSLA'18); the `simplex.promotions` counter
// counts those re-solves. All arithmetic is exact; on 128-bit overflow the
// solver reports `Error` and callers degrade to a conservative answer.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PRESBURGER_SIMPLEX_H
#define SDS_PRESBURGER_SIMPLEX_H

#include "sds/support/Fraction.h"
#include "sds/support/SmallVector.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace sds {
namespace presburger {

/// Outcome of an LP solve.
enum class LPStatus {
  Infeasible, ///< The rational relaxation is empty.
  Optimal,    ///< Feasible; a satisfying point was found.
  Error,      ///< Exact arithmetic overflowed; result unknown.
};

/// Exact-rational feasibility solver over free variables.
///
/// Constraints are rows `c[0]*x0 + ... + c[n-1]*x[n-1] + c[n] (>=|==) 0`.
class Simplex {
public:
  explicit Simplex(unsigned NumVars) : NumVars(NumVars) {}

  unsigned numVars() const { return NumVars; }

  /// Add `row . (x, 1) >= 0`. Row has NumVars coefficients + constant.
  void addInequality(const std::vector<int64_t> &Row);
  /// Add `row . (x, 1) == 0`.
  void addEquality(const std::vector<int64_t> &Row);

  /// Decide feasibility of the accumulated system over the rationals.
  /// On `Optimal` (used here to mean "feasible"), a satisfying rational
  /// point is available via `samplePoint()`.
  LPStatus checkFeasible();

  /// The sample point found by the last successful solve (size NumVars).
  const std::vector<Fraction> &samplePoint() const { return Sample; }

  /// After `checkFeasible()` returned `Infeasible`: the indices (in add
  /// order, counting both equalities and inequalities) of the rows that
  /// carry a nonzero Farkas multiplier in the phase-1 infeasibility
  /// certificate. The indexed subsystem is itself rationally infeasible —
  /// an unsat core, though not necessarily a minimal one. Empty after any
  /// other status.
  const std::vector<unsigned> &infeasibleCore() const { return Core; }

private:
  /// Constraint rows use inline storage: dependence relations rarely
  /// exceed a dozen columns, so the emptiness test's thousands of
  /// short-lived Simplex instances stop paying one heap allocation per
  /// row. (The tableau itself is reused across solves — see Simplex.cpp.)
  struct RowRec {
    SmallVector<int64_t, 16> Coeffs; // NumVars + 1 entries
    bool IsEq;
  };

  /// One phase-1 run over the rows indexed by `Active` on a tableau of
  /// `IntT` integers; std::nullopt when `IntT` arithmetic overflowed.
  template <typename IntT>
  std::optional<LPStatus> solveWith(const std::vector<unsigned> &Active);

  unsigned NumVars;
  std::vector<RowRec> Rows;
  std::vector<Fraction> Sample;
  std::vector<unsigned> Core;
};

} // namespace presburger
} // namespace sds

#endif // SDS_PRESBURGER_SIMPLEX_H
