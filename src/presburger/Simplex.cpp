//===- Simplex.cpp - Exact rational simplex for feasibility --------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Simplex.h"

#include "sds/obs/Trace.h"
#include "sds/presburger/Budget.h"

#include <cassert>
#include <type_traits>

namespace sds {
namespace presburger {

void Simplex::addInequality(const std::vector<int64_t> &Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Rows.push_back({SmallVector<int64_t, 16>(Row), /*IsEq=*/false});
}

void Simplex::addEquality(const std::vector<int64_t> &Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Rows.push_back({SmallVector<int64_t, 16>(Row), /*IsEq=*/true});
}

namespace {

/// Backing storage for one tableau, kept per thread and per integer type
/// so the thousands of short-lived solves issued by the emptiness test
/// reuse one grown-to-fit allocation. The InUse flag guards against
/// (currently nonexistent) reentrant solves: branch-and-bound recursion
/// happens strictly after each solve returns, but a nested solve would
/// fall back to owned storage rather than corrupt the borrowed buffers.
template <typename IntT> struct TableauStorage {
  std::vector<IntT> Cells;       // (rows + objective) x (columns + rhs)
  std::vector<IntT> Den;         // one positive denominator per row
  std::vector<unsigned> Basis;   // basic column of each constraint row
  std::vector<unsigned> Support; // nonzero columns of the pivot row
  bool InUse = false;
};

template <typename IntT> TableauStorage<IntT> &tableauStorage() {
  thread_local TableauStorage<IntT> S;
  return S;
}

/// Fraction-free simplex tableau. Row R holds the true values
/// `at(R, J) / den(R)` with `den(R) > 0`; row `NumRows` is the reduced-cost
/// (objective) row and column `NumCols` the right-hand side. Every
/// multiply and subtract is overflow-checked; after an overflow the cell
/// values are meaningless and the caller re-solves wider.
template <typename IntT> class Tableau {
  using UIntT = std::conditional_t<sizeof(IntT) == 8, uint64_t,
                                   unsigned __int128>;

public:
  Tableau(unsigned NumRows, unsigned NumCols)
      : NumRows(NumRows), NumCols(NumCols), Width(NumCols + 1) {
    TableauStorage<IntT> &TL = tableauStorage<IntT>();
    St = TL.InUse ? &Owned : &TL;
    St->InUse = true;
    St->Cells.assign(static_cast<size_t>(NumRows + 1) * Width, IntT(0));
    St->Den.assign(NumRows + 1, IntT(1));
    St->Basis.assign(NumRows, ~0u);
    St->Support.clear();
    St->Support.reserve(Width);
  }

  Tableau(const Tableau &) = delete;
  Tableau &operator=(const Tableau &) = delete;

  ~Tableau() { St->InUse = false; }

  IntT *row(unsigned R) {
    return St->Cells.data() + static_cast<size_t>(R) * Width;
  }
  IntT &at(unsigned R, unsigned C) { return row(R)[C]; }
  IntT &rhs(unsigned R) { return at(R, NumCols); }
  IntT *obj() { return row(NumRows); }
  IntT den(unsigned R) const { return St->Den[R]; }

  unsigned basis(unsigned R) const { return St->Basis[R]; }
  void setBasis(unsigned R, unsigned C) { St->Basis[R] = C; }

  IntT neg(IntT A) { return sub(IntT(0), A); }
  IntT mul(IntT A, IntT B) {
    IntT R;
    Overflow |= __builtin_mul_overflow(A, B, &R);
    return R;
  }
  IntT sub(IntT A, IntT B) {
    IntT R;
    Overflow |= __builtin_sub_overflow(A, B, &R);
    return R;
  }

  /// Pivot on (R, C): make column C basic in row R. Dividing row R by its
  /// pivot cell turns its numerators over the pivot numerator; the other
  /// rows then change only in the pivot row's nonzero columns, and only
  /// when they have a nonzero entry in column C.
  void pivot(unsigned R, unsigned C) {
    IntT *PR = row(R);
    IntT P = PR[C];
    assert(P != 0 && "pivot on zero cell");
    std::vector<unsigned> &Support = St->Support;
    Support.clear();
    for (unsigned J = 0; J < Width; ++J)
      if (PR[J] != 0) {
        if (P < 0)
          PR[J] = neg(PR[J]);
        Support.push_back(J);
      }
    St->Den[R] = P < 0 ? neg(P) : P;
    if (St->Den[R] != 1)
      reduce(R);
    const IntT DR = St->Den[R];
    for (unsigned I = 0; I <= NumRows; ++I) {
      IntT *RI = row(I);
      const IntT F = RI[C];
      if (I == R || F == 0)
        continue;
      if (DR == 1) {
        for (unsigned J : Support)
          RI[J] = sub(RI[J], mul(F, PR[J]));
      } else {
        // RI/DI - (F/DI)(PR/DR) = (RI*(DR/G) - (F/G)*PR) / (DI*(DR/G)).
        const IntT G = gcd(DR, F);
        const IntT Scale = DR / G, FG = F / G;
        for (unsigned J = 0; J < Width; ++J)
          if (RI[J] != 0)
            RI[J] = mul(RI[J], Scale);
        for (unsigned J : Support)
          RI[J] = sub(RI[J], mul(FG, PR[J]));
        St->Den[I] = mul(St->Den[I], Scale);
      }
      if (St->Den[I] != 1)
        reduce(I);
    }
    setBasis(R, C);
  }

  /// Run simplex until optimal or overflow: Dantzig's rule (most negative
  /// reduced cost) for speed, switching to Bland's rule after a fixed
  /// pivot count to guarantee termination on degenerate cycles. The
  /// objective numerators share one positive denominator, so they order
  /// like the reduced costs themselves. Past the per-solve pivot budget
  /// (Budget.h) the solve gives up with LPStatus::Error — callers degrade
  /// to a conservative Unknown, so the budget bounds latency without ever
  /// flipping a verdict. std::nullopt reports an overflow.
  std::optional<LPStatus> iterate() {
    static obs::Counter &PivotCount = obs::counter("simplex.pivots");
    unsigned Pivots = 0;
    const unsigned BlandAfter = 500;
    const uint64_t MaxPivots = pivotBudget();
    while (true) {
      if (Overflow)
        return std::nullopt;
      PivotCount.add();
      if (Pivots >= MaxPivots) {
        notePivotBudgetExhaustion();
        return LPStatus::Error;
      }
      bool Bland = ++Pivots > BlandAfter;
      const IntT *Obj = obj();
      unsigned Enter = NumCols;
      for (unsigned J = 0; J < NumCols; ++J) {
        if (Obj[J] >= 0)
          continue;
        if (Enter == NumCols || (!Bland && Obj[J] < Obj[Enter])) {
          Enter = J;
          if (Bland)
            break;
        }
      }
      if (Enter == NumCols)
        return LPStatus::Optimal;
      // Leaving row: min ratio rhs/a over a > 0, compared by cross
      // multiplication (the row denominators cancel); ties broken by the
      // smallest basis index (Bland).
      unsigned Leave = NumRows;
      for (unsigned I = 0; I < NumRows; ++I) {
        const IntT A = at(I, Enter);
        if (A <= 0)
          continue;
        if (Leave == NumRows) {
          Leave = I;
          continue;
        }
        Int128 Lhs, Rhs;
        if constexpr (sizeof(IntT) < sizeof(Int128)) {
          Lhs = Int128(rhs(I)) * at(Leave, Enter); // cannot overflow
          Rhs = Int128(rhs(Leave)) * A;
        } else if (__builtin_mul_overflow(rhs(I), at(Leave, Enter), &Lhs) ||
                   __builtin_mul_overflow(rhs(Leave), A, &Rhs)) {
          Overflow = true;
          return std::nullopt;
        }
        if (Lhs < Rhs || (Lhs == Rhs && basis(I) < basis(Leave)))
          Leave = I;
      }
      assert(Leave != NumRows && "phase-1 objective is bounded below");
      pivot(Leave, Enter);
    }
  }

  const unsigned NumRows, NumCols, Width;

private:
  /// gcd of a positive A and a nonzero B, on unsigned magnitudes so the
  /// most negative value needs no negation.
  static IntT gcd(IntT A, IntT B) {
    UIntT X = static_cast<UIntT>(A);
    UIntT Y = B < 0 ? UIntT(0) - static_cast<UIntT>(B) : static_cast<UIntT>(B);
    while (Y != 0) {
      UIntT T = X % Y;
      X = Y;
      Y = T;
    }
    return static_cast<IntT>(X);
  }

  /// Divide row R's numerators and denominator by their common gcd.
  void reduce(unsigned R) {
    IntT *RR = row(R);
    IntT G = St->Den[R];
    for (unsigned J = 0; J < Width && G != 1; ++J)
      if (RR[J] != 0)
        G = gcd(G, RR[J]);
    if (G == 1)
      return;
    for (unsigned J = 0; J < Width; ++J)
      RR[J] /= G;
    St->Den[R] /= G;
  }

  TableauStorage<IntT> *St;
  TableauStorage<IntT> Owned;
  bool Overflow = false;
};

} // namespace

template <typename IntT>
std::optional<LPStatus> Simplex::solveWith(const std::vector<unsigned> &Active) {
  unsigned NumIneq = 0;
  for (unsigned RI : Active)
    if (!Rows[RI].IsEq)
      ++NumIneq;

  unsigned M = static_cast<unsigned>(Active.size());
  // Columns: p_0..p_{n-1}, q_0..q_{n-1}, slacks, artificials.
  unsigned PBase = 0, QBase = NumVars, SBase = 2 * NumVars,
           ABase = 2 * NumVars + NumIneq;
  unsigned NumCols = ABase + M;

  Tableau<IntT> T(M, NumCols);
  unsigned SlackIdx = 0;
  for (unsigned I = 0; I < M; ++I) {
    const RowRec &R = Rows[Active[I]];
    // a.x + c (>=|==) 0  becomes  a.(p-q) [- s] = -c ; flip so RHS >= 0.
    IntT C = R.Coeffs[NumVars];
    bool Flip = C > 0;
    for (unsigned J = 0; J < NumVars; ++J) {
      IntT A = R.Coeffs[J];
      if (Flip)
        A = T.neg(A);
      T.at(I, PBase + J) = A;
      T.at(I, QBase + J) = T.neg(A);
    }
    if (!R.IsEq) {
      T.at(I, SBase + SlackIdx) = Flip ? 1 : -1;
      ++SlackIdx;
    }
    T.at(I, ABase + I) = 1;
    T.rhs(I) = Flip ? C : T.neg(C);
    T.setBasis(I, ABase + I);
  }

  // Phase 1: minimize the sum of artificials. Reduced costs: cost 1 on each
  // artificial, priced out against the artificial basis, i.e. minus the
  // sum of the rows everywhere else.
  IntT *Obj = T.obj();
  for (unsigned I = 0; I < M; ++I)
    for (unsigned J = 0; J <= NumCols; ++J)
      if (J != ABase + I)
        Obj[J] = T.sub(Obj[J], T.at(I, J));

  std::optional<LPStatus> S = T.iterate();
  if (S != LPStatus::Optimal)
    return S;
  // Feasible iff the phase-1 optimum is zero, i.e. -objVal == 0.
  if (Obj[NumCols] != 0) {
    // Farkas certificate: at the phase-1 optimum the dual weight of row I
    // is y_I = 1 - obj(ABase+I) (reduced cost of its artificial column).
    // Rows with y_I == 0 contribute nothing to the certificate, so the
    // nonzero-weight subsystem is itself infeasible — an unsat core.
    for (unsigned I = 0; I < M; ++I)
      if (Obj[ABase + I] != T.den(M))
        Core.push_back(Active[I]);
    return LPStatus::Infeasible;
  }

  // Artificials still basic sit at zero, so every variable's value is
  // already feasible: nonbasic columns are zero, basic ones their rhs.
  // Extract the sample point x = p - q.
  std::vector<Fraction> P(NumVars, Fraction(0)), Q(NumVars, Fraction(0));
  for (unsigned I = 0; I < M; ++I) {
    unsigned B = T.basis(I);
    if (B < QBase)
      P[B - PBase] = Fraction(T.rhs(I), T.den(I));
    else if (B < SBase)
      Q[B - QBase] = Fraction(T.rhs(I), T.den(I));
  }
  Sample.assign(NumVars, Fraction(0));
  for (unsigned J = 0; J < NumVars; ++J) {
    Sample[J] = P[J] - Q[J];
    if (Sample[J].overflowed())
      return LPStatus::Error;
  }
  return LPStatus::Optimal;
}

LPStatus Simplex::checkFeasible() {
  static obs::Counter &Solves = obs::counter("simplex.solves");
  static obs::Counter &Promotions = obs::counter("simplex.promotions");
  Solves.add();
  Core.clear();
  // Quick scan: constraints with no variable part decide themselves.
  // Active holds add-order indices so an infeasibility certificate over
  // the tableau rows can be mapped back to the rows the caller added.
  std::vector<unsigned> Active;
  Active.reserve(Rows.size());
  for (unsigned RI = 0; RI < Rows.size(); ++RI) {
    const RowRec &R = Rows[RI];
    bool AllZero = true;
    for (unsigned J = 0; J < NumVars; ++J)
      if (R.Coeffs[J] != 0) {
        AllZero = false;
        break;
      }
    if (AllZero) {
      int64_t C = R.Coeffs[NumVars];
      if (R.IsEq ? (C != 0) : (C < 0)) {
        Core.push_back(RI); // the row alone is contradictory
        return LPStatus::Infeasible;
      }
      continue; // trivially satisfied
    }
    Active.push_back(RI);
  }

  if (Active.empty()) {
    // System is trivially satisfiable; the origin works.
    Sample.assign(NumVars, Fraction(0));
    return LPStatus::Optimal;
  }

  if (std::optional<LPStatus> S = solveWith<int64_t>(Active))
    return *S;
  // int64 overflowed somewhere: the same system, on 128-bit integers.
  Promotions.add();
  return solveWith<Int128>(Active).value_or(LPStatus::Error);
}

} // namespace presburger
} // namespace sds
