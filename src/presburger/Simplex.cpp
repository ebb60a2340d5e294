//===- Simplex.cpp - Exact rational simplex for feasibility --------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Simplex.h"

#include "sds/obs/Trace.h"
#include "sds/presburger/Budget.h"

#include <cassert>

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

LPStatus Simplex::checkFeasible() {
  Fraction Ignored;
  return solve(/*Obj=*/nullptr, Ignored);
}

LPStatus Simplex::minimize(const std::vector<int64_t> &Obj,
                           Fraction &ObjValue) {
  assert(Obj.size() == NumVars + 1 && "bad objective width");
  return solve(&Obj, ObjValue);
}

namespace {

/// Backing storage for one tableau, kept per-thread so the thousands of
/// short-lived solves issued by the emptiness test reuse one grown-to-fit
/// allocation instead of paying three heap allocations per solve. The
/// InUse flag guards against (currently nonexistent) reentrant solves:
/// branch-and-bound recursion happens strictly after each solve returns,
/// but if a nested solve ever appears it falls back to owned storage
/// rather than corrupting the borrowed buffers.
struct TableauScratch {
  std::vector<Fraction> Cells;
  std::vector<Fraction> ObjRow;
  std::vector<unsigned> Basis;
  bool InUse = false;
};

TableauScratch &tableauScratch() {
  thread_local TableauScratch S;
  return S;
}

/// Dense simplex tableau with an explicit reduced-cost row. Storage is
/// borrowed from the thread-local scratch when available.
class Tableau {
public:
  Tableau(unsigned NumRows, unsigned NumCols)
      : NumRows(NumRows), NumCols(NumCols) {
    TableauScratch &S = tableauScratch();
    if (!S.InUse) {
      S.InUse = true;
      Scratch = &S;
      CellsP = &S.Cells;
      ObjRowP = &S.ObjRow;
      BasisP = &S.Basis;
    } else {
      CellsP = &OwnedCells;
      ObjRowP = &OwnedObjRow;
      BasisP = &OwnedBasis;
    }
    CellsP->assign(static_cast<size_t>(NumRows) * (NumCols + 1), Fraction());
    ObjRowP->assign(NumCols + 1, Fraction());
    BasisP->assign(NumRows, ~0u);
  }

  Tableau(const Tableau &) = delete;
  Tableau &operator=(const Tableau &) = delete;

  ~Tableau() {
    if (Scratch)
      Scratch->InUse = false;
  }

  Fraction &at(unsigned R, unsigned C) {
    return (*CellsP)[static_cast<size_t>(R) * (NumCols + 1) + C];
  }
  Fraction &rhs(unsigned R) { return at(R, NumCols); }
  Fraction &obj(unsigned C) { return (*ObjRowP)[C]; }
  Fraction &objVal() { return (*ObjRowP)[NumCols]; }

  unsigned basis(unsigned R) const { return (*BasisP)[R]; }
  void setBasis(unsigned R, unsigned C) { (*BasisP)[R] = C; }

  bool overflowed() const { return Overflow; }

  /// Pivot on (R, C): make column C basic in row R.
  void pivot(unsigned R, unsigned C) {
    Fraction P = at(R, C);
    assert(!P.isZero() && "pivot on zero cell");
    // Normalize the pivot row.
    for (unsigned J = 0; J <= NumCols; ++J) {
      at(R, J) = at(R, J) / P;
      Overflow |= at(R, J).overflowed();
    }
    // Eliminate column C from all other rows and the objective row.
    for (unsigned I = 0; I < NumRows; ++I) {
      if (I == R)
        continue;
      Fraction F = at(I, C);
      if (F.isZero())
        continue;
      for (unsigned J = 0; J <= NumCols; ++J) {
        at(I, J) = at(I, J) - F * at(R, J);
        Overflow |= at(I, J).overflowed();
      }
    }
    Fraction F = obj(C);
    if (!F.isZero()) {
      for (unsigned J = 0; J <= NumCols; ++J) {
        obj(J) = obj(J) - F * at(R, J);
        Overflow |= obj(J).overflowed();
      }
    }
    setBasis(R, C);
  }

  /// Run simplex until optimal/unbounded/overflow: Dantzig's rule (most
  /// negative reduced cost) for speed, switching to Bland's rule after a
  /// fixed pivot count to guarantee termination on degenerate cycles.
  /// Past the per-solve pivot budget (Budget.h) the solve gives up with
  /// LPStatus::Error — callers degrade to a conservative Unknown, so the
  /// budget bounds latency without ever flipping a verdict.
  /// `Allowed` masks which columns may enter the basis (may be null).
  LPStatus iterate(const std::vector<bool> *Allowed) {
    static obs::Counter &PivotCount = obs::counter("simplex.pivots");
    unsigned Pivots = 0;
    const unsigned BlandAfter = 500;
    const uint64_t MaxPivots = pivotBudget();
    while (true) {
      if (Overflow)
        return LPStatus::Error;
      PivotCount.add();
      if (Pivots >= MaxPivots) {
        notePivotBudgetExhaustion();
        return LPStatus::Error;
      }
      bool Bland = ++Pivots > BlandAfter;
      unsigned Enter = NumCols;
      Fraction Zero(0);
      for (unsigned J = 0; J < NumCols; ++J) {
        if (Allowed && !(*Allowed)[J])
          continue;
        if (!(obj(J) < Zero))
          continue;
        if (Enter == NumCols || (!Bland && obj(J) < obj(Enter))) {
          Enter = J;
          if (Bland)
            break;
        }
      }
      if (Enter == NumCols)
        return LPStatus::Optimal;
      // Leaving row: min ratio; ties broken by smallest basis index (Bland).
      unsigned Leave = NumRows;
      Fraction BestRatio(0);
      for (unsigned I = 0; I < NumRows; ++I) {
        if (!(at(I, Enter) > Zero))
          continue;
        Fraction Ratio = rhs(I) / at(I, Enter);
        if (Ratio.overflowed())
          return LPStatus::Error;
        if (Leave == NumRows || Ratio < BestRatio ||
            (Ratio == BestRatio && basis(I) < basis(Leave))) {
          Leave = I;
          BestRatio = Ratio;
        }
      }
      if (Leave == NumRows)
        return LPStatus::Unbounded;
      pivot(Leave, Enter);
    }
  }

  unsigned NumRows, NumCols;

private:
  TableauScratch *Scratch = nullptr;
  std::vector<Fraction> *CellsP = nullptr;
  std::vector<Fraction> *ObjRowP = nullptr;
  std::vector<unsigned> *BasisP = nullptr;
  std::vector<Fraction> OwnedCells;
  std::vector<Fraction> OwnedObjRow;
  std::vector<unsigned> OwnedBasis;
  bool Overflow = false;
};

} // namespace

LPStatus Simplex::solve(const std::vector<int64_t> *Obj, Fraction &ObjValue) {
  static obs::Counter &Solves = obs::counter("simplex.solves");
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

  unsigned NumIneq = 0;
  for (unsigned RI : Active)
    if (!Rows[RI].IsEq)
      ++NumIneq;

  unsigned M = static_cast<unsigned>(Active.size());
  // Columns: p_0..p_{n-1}, q_0..q_{n-1}, slacks, artificials.
  unsigned PBase = 0, QBase = NumVars, SBase = 2 * NumVars,
           ABase = 2 * NumVars + NumIneq;
  unsigned NumCols = ABase + M;

  if (M == 0) {
    // System is trivially satisfiable; the origin works.
    Sample.assign(NumVars, Fraction(0));
    if (Obj) {
      // Objective may still be unbounded over free variables.
      for (unsigned J = 0; J < NumVars; ++J)
        if ((*Obj)[J] != 0)
          return LPStatus::Unbounded;
      ObjValue = Fraction((*Obj)[NumVars]);
    }
    return LPStatus::Optimal;
  }

  Tableau T(M, NumCols);
  unsigned SlackIdx = 0;
  for (unsigned I = 0; I < M; ++I) {
    const RowRec &R = Rows[Active[I]];
    // a.x + c (>=|==) 0  becomes  a.(p-q) [- s] = -c ; flip so RHS >= 0.
    int64_t Rhs64 = -R.Coeffs[NumVars];
    int Sign = Rhs64 < 0 ? -1 : 1;
    for (unsigned J = 0; J < NumVars; ++J) {
      int64_t A = R.Coeffs[J] * Sign;
      T.at(I, PBase + J) = Fraction(A);
      T.at(I, QBase + J) = Fraction(-A);
    }
    if (!R.IsEq) {
      T.at(I, SBase + SlackIdx) = Fraction(-Sign);
      ++SlackIdx;
    }
    T.at(I, ABase + I) = Fraction(1);
    T.rhs(I) = Fraction(Sign < 0 ? -Rhs64 : Rhs64);
    T.setBasis(I, ABase + I);
  }

  // Phase 1: minimize the sum of artificials. Reduced costs: cost 1 on each
  // artificial, priced out against the artificial basis.
  for (unsigned J = 0; J <= NumCols; ++J)
    T.obj(J) = Fraction(0);
  for (unsigned I = 0; I < M; ++I)
    T.obj(ABase + I) = Fraction(1);
  for (unsigned I = 0; I < M; ++I) {
    // Basic artificial with cost 1: subtract its row from the objective.
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = T.obj(J) - T.at(I, J);
  }

  LPStatus S = T.iterate(/*Allowed=*/nullptr);
  if (S == LPStatus::Error)
    return S;
  assert(S != LPStatus::Unbounded && "phase-1 objective is bounded below");
  // Feasible iff the phase-1 optimum is zero, i.e. -objVal == 0.
  if (!T.objVal().isZero()) {
    // Farkas certificate: at the phase-1 optimum the dual weight of row I
    // is y_I = 1 - obj(ABase+I) (reduced cost of its artificial column).
    // Rows with y_I == 0 contribute nothing to the certificate, so the
    // nonzero-weight subsystem is itself infeasible — an unsat core.
    if (!T.overflowed()) {
      Fraction One(1);
      for (unsigned I = 0; I < M; ++I)
        if (T.obj(ABase + I) != One)
          Core.push_back(Active[I]);
    }
    return LPStatus::Infeasible;
  }

  // Drive any remaining basic artificials out (or detect redundant rows).
  for (unsigned I = 0; I < M; ++I) {
    if (T.basis(I) < ABase)
      continue;
    unsigned Col = NumCols;
    for (unsigned J = 0; J < ABase; ++J)
      if (!T.at(I, J).isZero()) {
        Col = J;
        break;
      }
    if (Col != NumCols)
      T.pivot(I, Col);
    // Otherwise the row is redundant; the artificial stays basic at zero,
    // which is harmless as long as artificial columns never re-enter.
  }
  if (T.overflowed())
    return LPStatus::Error;

  std::vector<bool> Allowed(NumCols, true);
  for (unsigned I = 0; I < M; ++I)
    Allowed[ABase + I] = false;

  if (Obj) {
    // Phase 2: install the real objective and price out the basis.
    for (unsigned J = 0; J <= NumCols; ++J)
      T.obj(J) = Fraction(0);
    for (unsigned J = 0; J < NumVars; ++J) {
      T.obj(PBase + J) = Fraction((*Obj)[J]);
      T.obj(QBase + J) = Fraction(-(*Obj)[J]);
    }
    for (unsigned I = 0; I < M; ++I) {
      unsigned B = T.basis(I);
      Fraction C = T.obj(B);
      if (C.isZero())
        continue;
      for (unsigned J = 0; J <= NumCols; ++J)
        T.obj(J) = T.obj(J) - C * T.at(I, J);
    }
    S = T.iterate(&Allowed);
    if (S != LPStatus::Optimal)
      return S;
    // objVal holds -(c.x_B); optimum of c.x is its negation plus constant.
    ObjValue = -T.objVal() + Fraction((*Obj)[NumVars]);
    if (ObjValue.overflowed())
      return LPStatus::Error;
  }

  // Extract the sample point x = p - q.
  std::vector<Fraction> P(NumVars, Fraction(0)), Q(NumVars, Fraction(0));
  for (unsigned I = 0; I < M; ++I) {
    unsigned B = T.basis(I);
    if (B < QBase)
      P[B - PBase] = T.rhs(I);
    else if (B < SBase)
      Q[B - QBase] = T.rhs(I);
  }
  Sample.assign(NumVars, Fraction(0));
  for (unsigned J = 0; J < NumVars; ++J) {
    Sample[J] = P[J] - Q[J];
    if (Sample[J].overflowed())
      return LPStatus::Error;
  }
  return LPStatus::Optimal;
}

} // namespace presburger
} // namespace sds
