//===- presburger_simplex_test.cpp - Exact rational simplex tests --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Simplex.h"

#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace sds;
using namespace sds::presburger;

namespace {
std::vector<int64_t> row(std::initializer_list<int64_t> L) { return L; }
} // namespace

TEST(Simplex, EmptySystemFeasible) {
  Simplex S(2);
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
}

TEST(Simplex, SimpleFeasible) {
  // x >= 1, y >= 2, x + y <= 10.
  Simplex S(2);
  S.addInequality(row({1, 0, -1}));
  S.addInequality(row({0, 1, -2}));
  S.addInequality(row({-1, -1, 10}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  auto P = S.samplePoint();
  Fraction X = P[0], Y = P[1];
  EXPECT_GE(X, Fraction(1));
  EXPECT_GE(Y, Fraction(2));
  EXPECT_LE(X + Y, Fraction(10));
}

TEST(Simplex, InfeasibleBounds) {
  // x >= 5 and x <= 3.
  Simplex S(1);
  S.addInequality(row({1, -5}));
  S.addInequality(row({-1, 3}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, InfeasibleEqualityChain) {
  // x = y, y = z, x - z = 1 is contradictory.
  Simplex S(3);
  S.addEquality(row({1, -1, 0, 0}));
  S.addEquality(row({0, 1, -1, 0}));
  S.addEquality(row({1, 0, -1, -1}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, TrivialRows) {
  Simplex S(1);
  S.addInequality(row({0, 5}));  // 5 >= 0, fine
  S.addEquality(row({0, 0}));    // 0 == 0, fine
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  Simplex S2(1);
  S2.addInequality(row({0, -3})); // -3 >= 0, contradiction
  EXPECT_EQ(S2.checkFeasible(), LPStatus::Infeasible);
  Simplex S3(1);
  S3.addEquality(row({0, 2})); // 2 == 0, contradiction
  EXPECT_EQ(S3.checkFeasible(), LPStatus::Infeasible);
}

TEST(Simplex, FractionalOptimum) {
  // 2x = 1 has rational solution x = 1/2.
  Simplex S(1);
  S.addEquality(row({2, -1}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_EQ(S.samplePoint()[0], Fraction(1, 2));
}

TEST(Simplex, NegativeSolution) {
  // x <= -5.
  Simplex S(1);
  S.addInequality(row({-1, -5}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_LE(S.samplePoint()[0], Fraction(-5));
}

TEST(Simplex, DegenerateCyclePotential) {
  // A classic degenerate system; Bland's rule must terminate.
  Simplex S(2);
  S.addInequality(row({1, 0, 0}));   // x >= 0
  S.addInequality(row({0, 1, 0}));   // y >= 0
  S.addInequality(row({-1, -1, 0})); // x + y <= 0 -> x = y = 0
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_EQ(S.samplePoint()[0], Fraction(0));
  EXPECT_EQ(S.samplePoint()[1], Fraction(0));
}

TEST(Simplex, RedundantEqualities) {
  // x = 1 stated twice plus an implied combination.
  Simplex S(2);
  S.addEquality(row({1, 0, -1}));
  S.addEquality(row({1, 0, -1}));
  S.addEquality(row({2, 0, -2}));
  S.addEquality(row({0, 1, -3}));
  EXPECT_EQ(S.checkFeasible(), LPStatus::Optimal);
  EXPECT_EQ(S.samplePoint()[0], Fraction(1));
  EXPECT_EQ(S.samplePoint()[1], Fraction(3));
}

TEST(Simplex, DependenceShapedSystem) {
  // Shape of a typical dependence system: i < i', both in [0, 100),
  // k in [ri, ri+5), k' in [ri', ri'+5), k = k', ri' >= ri + 6.
  // Infeasible because the k-windows cannot overlap.
  // Vars: i, i', k, k', ri, ri'.
  Simplex S(6);
  S.addInequality(row({-1, 1, 0, 0, 0, 0, -1})); // i' - i - 1 >= 0
  S.addInequality(row({1, 0, 0, 0, 0, 0, 0}));   // i >= 0
  S.addInequality(row({0, -1, 0, 0, 0, 0, 99})); // i' <= 99
  S.addInequality(row({0, 0, 1, 0, -1, 0, 0}));  // k >= ri
  S.addInequality(row({0, 0, -1, 0, 1, 0, 4}));  // k <= ri + 4
  S.addInequality(row({0, 0, 0, 1, 0, -1, 0}));  // k' >= ri'
  S.addInequality(row({0, 0, 0, -1, 0, 1, 4}));  // k' <= ri' + 4
  S.addEquality(row({0, 0, 1, -1, 0, 0, 0}));    // k = k'
  S.addInequality(row({0, 0, 0, 0, -1, 1, -6})); // ri' >= ri + 6
  EXPECT_EQ(S.checkFeasible(), LPStatus::Infeasible);
}

//===----------------------------------------------------------------------===//
// Certificate oracle: random systems against exact Fourier–Motzkin
//===----------------------------------------------------------------------===//

namespace {

/// One constraint `C . (x, 1) (>=|==) 0` of a random system.
struct OracleRow {
  bool IsEq;
  std::vector<int64_t> C;
};

/// A row under elimination: Int128 coefficients plus constant, and the
/// set of input inequalities it was combined from.
struct FMRow {
  std::vector<Int128> C;
  uint32_t History = 0;
};

/// Exact rational feasibility by Gaussian elimination of the equalities
/// followed by Fourier–Motzkin elimination of the inequalities. Every
/// combination uses positive multipliers on inequalities, so the answer is
/// exact over the rationals. Rows are divided by their gcd, only the
/// tightest constant is kept per coefficient vector, and a row combined
/// from more than k + 1 input inequalities after k eliminations is
/// dropped as redundant (Kohler's rule), which keeps the row count small.
/// Sets `Overflowed` if an intermediate value leaves 128 bits.
class FourierMotzkin {
public:
  FourierMotzkin(const std::vector<OracleRow> &Sys, unsigned NumVars)
      : N(NumVars) {
    for (const OracleRow &R : Sys) {
      FMRow Row{std::vector<Int128>(R.C.begin(), R.C.end())};
      divideByGcd(Row);
      if (R.IsEq) {
        Eqs.push_back(std::move(Row));
      } else {
        Row.History = uint32_t(1) << Ineqs.size();
        Ineqs.push_back(std::move(Row));
      }
    }
  }

  bool feasible() {
    // Substitute each equality's first variable away everywhere else.
    while (!Eqs.empty()) {
      FMRow E = std::move(Eqs.back());
      Eqs.pop_back();
      unsigned J = firstVar(E);
      if (J == N) {
        if (E.C[N] != 0)
          return false;
        continue;
      }
      for (FMRow &R : Eqs)
        eliminate(R, E, J);
      for (FMRow &R : Ineqs)
        eliminate(R, E, J);
    }
    for (unsigned Eliminated = 0;; ++Eliminated) {
      if (!tighten(Eliminated))
        return false;
      // Eliminate the variable with the fewest new rows.
      unsigned Best = N;
      size_t BestCost = 0;
      for (unsigned J = 0; J < N; ++J) {
        size_t Pos = 0, Neg = 0;
        for (const FMRow &R : Ineqs)
          Pos += R.C[J] > 0, Neg += R.C[J] < 0;
        if (Pos + Neg == 0)
          continue;
        size_t Cost = Pos * Neg;
        if (Best == N || Cost < BestCost)
          Best = J, BestCost = Cost;
      }
      if (Best == N)
        return true; // tighten() left no row with a variable
      std::vector<FMRow> Next;
      for (const FMRow &P : Ineqs)
        if (P.C[Best] == 0)
          Next.push_back(P);
      for (const FMRow &P : Ineqs) {
        if (P.C[Best] <= 0)
          continue;
        for (const FMRow &Q : Ineqs) {
          if (Q.C[Best] >= 0)
            continue;
          FMRow R{std::vector<Int128>(N + 1), P.History | Q.History};
          for (unsigned K = 0; K <= N; ++K)
            R.C[K] = add(mul(-Q.C[Best], P.C[K]), mul(P.C[Best], Q.C[K]));
          Next.push_back(std::move(R));
        }
      }
      Ineqs = std::move(Next);
    }
  }

  bool Overflowed = false;

private:
  Int128 mul(Int128 A, Int128 B) {
    Int128 R;
    Overflowed |= __builtin_mul_overflow(A, B, &R);
    return R;
  }
  Int128 add(Int128 A, Int128 B) {
    Int128 R;
    Overflowed |= __builtin_add_overflow(A, B, &R);
    return R;
  }

  unsigned firstVar(const FMRow &R) const {
    for (unsigned J = 0; J < N; ++J)
      if (R.C[J] != 0)
        return J;
    return N;
  }

  /// R := |E_J| * R - sign(E_J) * R_J * E, which zeroes column J and keeps
  /// R's direction (its multiplier is positive).
  void eliminate(FMRow &R, const FMRow &E, unsigned J) {
    Int128 RJ = R.C[J];
    if (RJ == 0)
      return;
    Int128 MulR = E.C[J] < 0 ? -E.C[J] : E.C[J];
    Int128 MulE = E.C[J] < 0 ? -RJ : RJ;
    for (unsigned K = 0; K <= N; ++K)
      R.C[K] = add(mul(MulR, R.C[K]), mul(-MulE, E.C[K]));
    divideByGcd(R);
  }

  static void divideByGcd(FMRow &R) {
    Int128 G = 0;
    for (Int128 V : R.C)
      G = gcd128(G, V);
    if (G > 1)
      for (Int128 &V : R.C)
        V /= G;
  }

  /// Divide every inequality by its gcd, drop rows without variables and
  /// redundant rows, and keep the tightest constant per coefficient
  /// vector. False when a row without variables is violated.
  bool tighten(unsigned Eliminated) {
    std::map<std::vector<Int128>, FMRow> Tightest;
    for (FMRow &R : Ineqs) {
      divideByGcd(R);
      if (firstVar(R) == N) {
        if (R.C[N] < 0)
          return false;
        continue;
      }
      if (static_cast<unsigned>(__builtin_popcount(R.History)) >
          Eliminated + 1)
        continue;
      std::vector<Int128> Key(R.C.begin(), R.C.end() - 1);
      auto [It, Fresh] = Tightest.emplace(std::move(Key), R);
      if (!Fresh && R.C[N] < It->second.C[N])
        It->second = R;
    }
    Ineqs.clear();
    for (auto &Entry : Tightest)
      Ineqs.push_back(std::move(Entry.second));
    return true;
  }

  unsigned N;
  std::vector<FMRow> Eqs, Ineqs;
};

std::vector<OracleRow> randomSystem(std::mt19937_64 &Rng, unsigned &NumVars) {
  std::uniform_int_distribution<int> Vars(1, 6), NumRows(1, 12),
      Coeff(-3, 3), EqRoll(0, 4);
  NumVars = static_cast<unsigned>(Vars(Rng));
  std::vector<OracleRow> Sys(static_cast<size_t>(NumRows(Rng)));
  for (OracleRow &R : Sys) {
    R.IsEq = EqRoll(Rng) == 0;
    R.C.resize(NumVars + 1);
    for (int64_t &V : R.C)
      V = Coeff(Rng);
  }
  return Sys;
}

Simplex simplexOf(const std::vector<OracleRow> &Sys, unsigned NumVars) {
  Simplex S(NumVars);
  for (const OracleRow &R : Sys) {
    if (R.IsEq)
      S.addEquality(R.C);
    else
      S.addInequality(R.C);
  }
  return S;
}

bool fmFeasible(const std::vector<OracleRow> &Sys, unsigned NumVars) {
  FourierMotzkin FM(Sys, NumVars);
  bool Feasible = FM.feasible();
  EXPECT_FALSE(FM.Overflowed) << "Fourier-Motzkin left 128 bits";
  return Feasible;
}

/// Solve `Sys` and check the certificate: on Optimal every row holds at
/// the sample; on Infeasible the cited rows are infeasible on their own.
/// The verdict must agree with Fourier–Motzkin on the whole system.
LPStatus checkCertificate(const std::vector<OracleRow> &Sys,
                          unsigned NumVars, const std::string &What) {
  SCOPED_TRACE(What);
  Simplex S = simplexOf(Sys, NumVars);
  LPStatus St = S.checkFeasible();
  EXPECT_NE(St, LPStatus::Error);
  bool Feasible = fmFeasible(Sys, NumVars);
  if (St == LPStatus::Optimal) {
    EXPECT_TRUE(Feasible) << "simplex feasible, Fourier-Motzkin not";
    const std::vector<Fraction> &X = S.samplePoint();
    EXPECT_EQ(X.size(), NumVars);
    for (size_t RI = 0; RI < Sys.size() && X.size() == NumVars; ++RI) {
      const OracleRow &R = Sys[RI];
      Fraction V(R.C[NumVars]);
      for (unsigned J = 0; J < NumVars; ++J)
        V += Fraction(R.C[J]) * X[J];
      EXPECT_FALSE(V.overflowed());
      if (V.overflowed())
        continue;
      if (R.IsEq)
        EXPECT_EQ(V, Fraction(0)) << "equality " << RI << " at the sample";
      else
        EXPECT_GE(V, Fraction(0)) << "inequality " << RI << " at the sample";
    }
  } else if (St == LPStatus::Infeasible) {
    EXPECT_FALSE(Feasible) << "simplex infeasible, Fourier-Motzkin not";
    const std::vector<unsigned> &Core = S.infeasibleCore();
    EXPECT_FALSE(Core.empty());
    std::vector<OracleRow> Sub;
    for (unsigned RI : Core)
      if (RI < Sys.size())
        Sub.push_back(Sys[RI]);
      else
        ADD_FAILURE() << "core row " << RI << " out of range";
    EXPECT_FALSE(fmFeasible(Sub, NumVars)) << "core rows are feasible";
  }
  return St;
}

} // namespace

TEST(SimplexOracle, RandomSystemsCertifyAgainstFourierMotzkin) {
  std::mt19937_64 Rng(20190622);
  unsigned Feasible = 0, Infeasible = 0;
  for (int Trial = 0; Trial < 1200; ++Trial) {
    unsigned NumVars = 0;
    std::vector<OracleRow> Sys = randomSystem(Rng, NumVars);
    LPStatus St = checkCertificate(Sys, NumVars,
                                   "system " + std::to_string(Trial));
    (St == LPStatus::Optimal ? Feasible : Infeasible)++;
  }
  // Both verdicts are exercised in bulk.
  EXPECT_GT(Feasible, 200u);
  EXPECT_GT(Infeasible, 200u);
}

TEST(SimplexOracle, ScaledSystemsPromoteToInt128) {
  // The same sets with every row times one factor near 2^40: the pivots'
  // products leave int64, so the solver re-solves on 128-bit integers, and
  // verdicts and certificates must not change. (Unrelated per-row factors
  // would be harsher: the unscaled slack and artificial columns keep each
  // row's denominator from cancelling, and 128 bits overflow too.)
  std::mt19937_64 Rng(4040);
  std::uniform_int_distribution<int64_t> Jitter(1, 1 << 20);
  obs::Counter &Promotions = obs::counter("simplex.promotions");
  uint64_t Before = Promotions.value();
  for (int Trial = 0; Trial < 1000; ++Trial) {
    unsigned NumVars = 0;
    std::vector<OracleRow> Sys = randomSystem(Rng, NumVars);
    LPStatus Plain = simplexOf(Sys, NumVars).checkFeasible();
    int64_t Scale = (int64_t(1) << 40) + Jitter(Rng);
    for (OracleRow &R : Sys)
      for (int64_t &V : R.C)
        V *= Scale;
    EXPECT_EQ(checkCertificate(Sys, NumVars,
                               "scaled system " + std::to_string(Trial)),
              Plain);
  }
  EXPECT_GT(Promotions.value(), Before);
}

TEST(SimplexOracle, Int128OverflowIsErrorAndUnknown) {
  // Coprime coefficients near 2^40 in every row: after a few pivots the
  // fraction-free rows leave 128 bits as well. The solver must say Error,
  // and the emptiness test built on it must answer Unknown.
  const std::vector<std::vector<int64_t>> Rows = {
      {559399199703, 988023793909, -841314893248, 861826189748},
      {-788852174943, -978360491004, 731225767194, 881171656479},
      {-534015054211, 479179668060, 562389278886, 211521365855},
      {-225519830702, -421049804907, 730445975613, -430997201396},
  };
  obs::Counter &Promotions = obs::counter("simplex.promotions");
  uint64_t Before = Promotions.value();
  Simplex S(3);
  for (const std::vector<int64_t> &R : Rows)
    S.addInequality(R);
  EXPECT_EQ(S.checkFeasible(), LPStatus::Error);
  EXPECT_EQ(Promotions.value(), Before + 1);
  EXPECT_TRUE(S.infeasibleCore().empty());

  clearQueryCache();
  BasicSet B(3);
  for (const std::vector<int64_t> &R : Rows)
    B.addInequality(R);
  EXPECT_EQ(B.isEmpty(), Ternary::Unknown);
}
