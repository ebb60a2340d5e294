//===- presburger_property_test.cpp - Randomized integer-set checks --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Deeper randomized cross-validation of the Presburger layer against
// brute-force enumeration: implicit-equality detection, multi-variable
// projection, sampling, and union subset tests.
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/BasicSet.h"
#include "sds/support/MathExtras.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace sds::presburger;

namespace {

std::vector<std::vector<int64_t>> enumerateBox(const BasicSet &S,
                                               int64_t Bound) {
  std::vector<std::vector<int64_t>> Points;
  unsigned N = S.numVars();
  std::vector<int64_t> P(N, -Bound);
  while (true) {
    bool Ok = true;
    for (const auto &Row : S.equalities()) {
      int64_t V = Row[N];
      for (unsigned J = 0; J < N; ++J)
        V += Row[J] * P[J];
      if (V != 0) {
        Ok = false;
        break;
      }
    }
    for (const auto &Row : S.inequalities()) {
      if (!Ok)
        break;
      int64_t V = Row[N];
      for (unsigned J = 0; J < N; ++J)
        V += Row[J] * P[J];
      if (V < 0)
        Ok = false;
    }
    if (Ok)
      Points.push_back(P);
    unsigned J = 0;
    for (; J < N; ++J) {
      if (P[J] < Bound) {
        ++P[J];
        break;
      }
      P[J] = -Bound;
    }
    if (J == N)
      break;
  }
  return Points;
}

BasicSet randomBoxedSet(std::mt19937 &Rng, unsigned NumVars, int64_t Bound,
                        int ExtraRows) {
  BasicSet S(NumVars);
  for (unsigned J = 0; J < NumVars; ++J) {
    std::vector<int64_t> Lo(NumVars + 1, 0), Hi(NumVars + 1, 0);
    Lo[J] = 1;
    Lo[NumVars] = Bound;
    Hi[J] = -1;
    Hi[NumVars] = Bound;
    S.addInequality(Lo);
    S.addInequality(Hi);
  }
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-2, 2);
  for (int R = 0; R < ExtraRows; ++R) {
    std::vector<int64_t> Row(NumVars + 1);
    for (unsigned J = 0; J < NumVars; ++J)
      Row[J] = Coef(Rng);
    Row[NumVars] = Cst(Rng);
    if (Coef(Rng) > 1)
      S.addEquality(Row);
    else
      S.addInequality(Row);
  }
  return S;
}

} // namespace

class PresburgerRandom : public ::testing::TestWithParam<int> {};

TEST_P(PresburgerRandom, ImplicitEqualitiesAreRealEqualities) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 500);
  BasicSet S = randomBoxedSet(Rng, 3, 2, 3);
  auto Points = enumerateBox(S, 2);
  BasicSet T = S;
  T.detectImplicitEqualities(/*NodeBudget=*/256);
  // Every promoted equality must hold at every true point.
  for (const auto &Row : T.equalities()) {
    for (const auto &P : Points) {
      int64_t V = Row[3];
      for (unsigned J = 0; J < 3; ++J)
        V += Row[J] * P[J];
      EXPECT_EQ(V, 0) << S.str();
    }
  }
  // And the point set must be unchanged.
  EXPECT_EQ(enumerateBox(T, 2), Points) << S.str();
}

TEST_P(PresburgerRandom, TwoVariableProjectionIsSound) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 900);
  BasicSet S = randomBoxedSet(Rng, 4, 2, 2);
  ProjectResult R = S.projectOut({1, 3});
  ASSERT_EQ(R.Set.numVars(), 2u);
  std::set<std::pair<int64_t, int64_t>> True2D;
  for (const auto &P : enumerateBox(S, 2))
    True2D.insert({P[0], P[2]});
  for (const auto &[X, Y] : True2D) {
    for (const auto &Row : R.Set.equalities())
      EXPECT_EQ(Row[0] * X + Row[1] * Y + Row[2], 0) << S.str();
    for (const auto &Row : R.Set.inequalities())
      EXPECT_GE(Row[0] * X + Row[1] * Y + Row[2], 0) << S.str();
  }
}

TEST_P(PresburgerRandom, SampledPointsSatisfyTheSet) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 1300);
  BasicSet S = randomBoxedSet(Rng, 3, 3, 2);
  auto P = S.sampleIntegerPoint(/*NodeBudget=*/256);
  auto Points = enumerateBox(S, 3);
  if (!P.has_value()) {
    EXPECT_TRUE(Points.empty()) << S.str();
    return;
  }
  for (const auto &Row : S.equalities()) {
    int64_t V = Row[3];
    for (unsigned J = 0; J < 3; ++J)
      V += Row[J] * (*P)[J];
    EXPECT_EQ(V, 0) << S.str();
  }
  for (const auto &Row : S.inequalities()) {
    int64_t V = Row[3];
    for (unsigned J = 0; J < 3; ++J)
      V += Row[J] * (*P)[J];
    EXPECT_GE(V, 0) << S.str();
  }
}

TEST_P(PresburgerRandom, SubstituteEquivalentToConstraining) {
  // S with y := x + c must equal { (x) : S(x, x + c) }.
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 1700);
  BasicSet S = randomBoxedSet(Rng, 2, 3, 2);
  int64_t C = static_cast<int64_t>(GetParam() % 3) - 1;
  // Substitute var 1 := var 0 + C.
  std::vector<int64_t> Expr = {1, 0, C};
  BasicSet T = S.substitute(1, Expr);
  std::set<int64_t> FromSub;
  for (const auto &P : enumerateBox(T, 3))
    FromSub.insert(P[0]);
  std::set<int64_t> FromConstrain;
  for (const auto &P : enumerateBox(S, 4))
    if (P[1] == P[0] + C && P[0] >= -3 && P[0] <= 3)
      FromConstrain.insert(P[0]);
  EXPECT_EQ(FromSub, FromConstrain) << S.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresburgerRandom, ::testing::Range(0, 30));

TEST(BasicSetEdge, WidthZeroSets) {
  BasicSet S(0);
  EXPECT_EQ(S.isEmpty(), Ternary::False); // the empty tuple satisfies it
  S.addInequality({-1});                  // -1 >= 0
  EXPECT_EQ(S.isEmpty(), Ternary::True);
}

TEST(BasicSetEdge, LargeCoefficientsNormalize) {
  BasicSet S(1);
  S.addInequality({1000000, -3000000}); // 1e6 x >= 3e6  =>  x >= 3
  ASSERT_TRUE(S.normalize());
  EXPECT_EQ(S.inequalities()[0], (std::vector<int64_t>{1, -3}));
}

//===----------------------------------------------------------------------===//
// Prefilter ladder differential tests
//===----------------------------------------------------------------------===//
//
// The emptiness prefilters (GCD row rejection, conflicting equalities,
// interval propagation) may only ever strengthen Unknown into a *proven*
// True; a single over-eager rejection would silently drop a real
// dependence. Cross-validate ~1k random systems three ways: prefilter
// verdict vs the full solver vs brute-force box enumeration.

namespace {

BasicSet randomMixedSet(std::mt19937 &Rng, unsigned NumVars) {
  // Wider generation than randomBoxedSet: scaled rows (GCD fodder),
  // duplicate-lhs equalities (conflict fodder), and plain random rows
  // whose single-variable bounds often cross (interval fodder).
  std::uniform_int_distribution<int> Coef(-3, 3);
  std::uniform_int_distribution<int> Cst(-6, 6);
  std::uniform_int_distribution<int> Scale(1, 3);
  std::uniform_int_distribution<int> NumRows(2, 6);
  std::uniform_int_distribution<int> Kind(0, 5);
  BasicSet S(NumVars);
  int Rows = NumRows(Rng);
  std::vector<int64_t> Prev;
  for (int R = 0; R < Rows; ++R) {
    std::vector<int64_t> Row(NumVars + 1);
    for (unsigned J = 0; J <= NumVars; ++J)
      Row[J] = Coef(Rng);
    Row[NumVars] = Cst(Rng);
    int K = Kind(Rng);
    if (K == 0) {
      // Scaled copy with an off-lattice constant: GCD-infeasible iff the
      // variable part is nonzero and the constant misses the lattice.
      int64_t M = Scale(Rng) + 1;
      for (unsigned J = 0; J < NumVars; ++J)
        Row[J] *= M;
      S.addEquality(Row);
    } else if (K == 1 && !Prev.empty()) {
      // Same variable part as an earlier equality, different constant.
      std::vector<int64_t> Dup = Prev;
      Dup[NumVars] = Cst(Rng);
      S.addEquality(Dup);
    } else if (K == 2) {
      S.addEquality(Row);
      Prev = Row;
    } else {
      S.addInequality(Row);
    }
  }
  return S;
}

} // namespace

TEST(Prefilter, NeverReturnsFalse) {
  std::mt19937 Rng(97);
  for (int Trial = 0; Trial < 200; ++Trial) {
    BasicSet S = randomMixedSet(Rng, 3);
    EXPECT_NE(prefilterEmptiness(S), Ternary::False);
  }
}

TEST(Prefilter, RejectionsAgreeWithFullSolver) {
  // ~1k systems: whenever the ladder says True (proven empty), the full
  // Simplex/branch-and-bound pipeline must agree.
  std::mt19937 Rng(1234);
  unsigned Rejected = 0;
  for (int Trial = 0; Trial < 1000; ++Trial) {
    BasicSet S = randomMixedSet(Rng, 3);
    Ternary PF = prefilterEmptiness(S);
    if (PF != Ternary::True)
      continue;
    ++Rejected;
    clearQueryCache(); // force a fresh full solve
    EXPECT_EQ(S.isEmpty(/*NodeBudget=*/256), Ternary::True)
        << "prefilter wrongly rejected " << S.str();
  }
  // The generator is tuned so a meaningful share actually exercises the
  // ladder; if this drops to ~0 the test is vacuously green.
  EXPECT_GE(Rejected, 50u);
}

TEST(Prefilter, RejectionsAgreeWithBruteForce) {
  // Bounded sets: a prefilter-True system must contain no lattice point
  // in the enumeration box (which covers the whole set, being boxed).
  std::mt19937 Rng(5678);
  for (int Trial = 0; Trial < 300; ++Trial) {
    BasicSet S = randomBoxedSet(Rng, 3, 2, 4);
    if (prefilterEmptiness(S) != Ternary::True)
      continue;
    EXPECT_TRUE(enumerateBox(S, 2).empty())
        << "prefilter wrongly rejected " << S.str();
  }
}

TEST(Prefilter, CountersAttributeRejections) {
  clearQueryCache();
  PrefilterStats Z = prefilterStats();
  EXPECT_EQ(Z.rejects(), 0u);
  // GCD: 2x == 1 has no integer solution.
  BasicSet G(1);
  G.addEquality({2, -1});
  EXPECT_EQ(G.isEmpty(), Ternary::True);
  // Equality conflict: x == 1 and x == 2.
  BasicSet E(1);
  E.addEquality({1, -1});
  E.addEquality({1, -2});
  EXPECT_EQ(E.isEmpty(), Ternary::True);
  // Interval conflict: x >= 3 and x <= 1.
  BasicSet I(1);
  I.addInequality({1, -3});
  I.addInequality({-1, 1});
  EXPECT_EQ(I.isEmpty(), Ternary::True);
  PrefilterStats St = prefilterStats();
  EXPECT_GE(St.GcdRejects, 1u);
  EXPECT_GE(St.EqConflictRejects + St.IntervalRejects, 2u);
  EXPECT_EQ(St.rejects(), 3u);
  clearQueryCache();
  EXPECT_EQ(prefilterStats().rejects(), 0u);
}

//===----------------------------------------------------------------------===//
// Interval rung against the quadratic reference
//===----------------------------------------------------------------------===//
//
// The interval rung reads each term's maximum once per row and takes the
// maximum of the other terms as the row's sum minus the term; rows whose
// terms are large enough that a partial sum might overflow fall back to
// summing term by term. The reference below is the earlier O(vars^2) loop,
// which re-sums every other term for each variable, overflow-checking each
// partial sum in column order. The two must decide every system alike,
// including systems whose coefficients and constants sit near 2^62, where
// partial sums overflow 128 bits.

namespace {

using sds::Int128;

struct ReferenceInterval {
  unsigned AddOverflows = 0; ///< partial sums that overflowed (coverage)

  bool conflict(const BasicSet &N) {
    unsigned NumVars = N.numVars();
    struct Bound {
      bool HasLo = false, HasHi = false;
      Int128 Lo = 0, Hi = 0;
    };
    std::vector<Bound> B(NumVars);
    struct RowRef {
      const std::vector<int64_t> *Row;
      bool Negate;
    };
    std::vector<RowRef> Rows;
    for (const auto &R : N.inequalities())
      Rows.push_back({&R, false});
    for (const auto &R : N.equalities()) {
      Rows.push_back({&R, false});
      Rows.push_back({&R, true});
    }
    auto Coeff = [&](const RowRef &RR, unsigned J) {
      int64_t C = (*RR.Row)[J];
      return RR.Negate ? -C : C;
    };
    auto MaxTerm = [&](int64_t A, const Bound &Bd, Int128 &Out) {
      if (A > 0)
        return Bd.HasHi && !sds::mulOverflow128(Int128(A), Bd.Hi, Out);
      return Bd.HasLo && !sds::mulOverflow128(Int128(A), Bd.Lo, Out);
    };
    auto Add = [&](Int128 &Acc, Int128 T) {
      if (sds::addOverflow128(Acc, T, Acc)) {
        ++AddOverflows;
        return false;
      }
      return true;
    };
    for (unsigned Round = 0; Round < 4; ++Round) {
      bool Changed = false;
      for (const RowRef &RR : Rows) {
        Int128 C = Coeff(RR, NumVars);
        for (unsigned J = 0; J < NumVars; ++J) {
          int64_t AJ = Coeff(RR, J);
          if (AJ == 0)
            continue;
          Int128 MaxRest = C;
          bool RestBounded = true;
          for (unsigned K = 0; K < NumVars && RestBounded; ++K) {
            int64_t AK = Coeff(RR, K);
            if (K == J || AK == 0)
              continue;
            Int128 T;
            RestBounded = MaxTerm(AK, B[K], T) && Add(MaxRest, T);
          }
          if (!RestBounded)
            continue;
          Bound &Bd = B[J];
          if (AJ > 0) {
            Int128 Lo = sds::ceilDiv128(-MaxRest, AJ);
            if (!Bd.HasLo || Lo > Bd.Lo) {
              Bd.HasLo = true;
              Bd.Lo = Lo;
              Changed = true;
            }
          } else {
            Int128 Hi = sds::floorDiv128(-MaxRest, AJ);
            if (!Bd.HasHi || Hi < Bd.Hi) {
              Bd.HasHi = true;
              Bd.Hi = Hi;
              Changed = true;
            }
          }
          if (Bd.HasLo && Bd.HasHi && Bd.Lo > Bd.Hi)
            return true;
        }
        Int128 RowMax = C;
        bool AllBounded = true;
        for (unsigned J = 0; J < NumVars && AllBounded; ++J) {
          int64_t AJ = Coeff(RR, J);
          if (AJ == 0)
            continue;
          Int128 T;
          AllBounded = MaxTerm(AJ, B[J], T) && Add(RowMax, T);
        }
        if (AllBounded && RowMax < 0)
          return true;
      }
      if (!Changed)
        break;
    }
    return false;
  }

  /// The whole ladder: GCD rows, conflicting equalities, intervals.
  Ternary ladder(const BasicSet &S) {
    BasicSet N = S;
    if (!N.normalize())
      return Ternary::True;
    const auto &Eqs = N.equalities();
    unsigned NumVars = N.numVars();
    for (size_t A = 0; A < Eqs.size(); ++A)
      for (size_t B = A + 1; B < Eqs.size(); ++B)
        if (std::equal(Eqs[A].begin(), Eqs[A].begin() + NumVars,
                       Eqs[B].begin()) &&
            Eqs[A][NumVars] != Eqs[B][NumVars])
          return Ternary::True;
    return conflict(N) ? Ternary::True : Ternary::Unknown;
  }
};

/// Unit bound rows boxing most variables around 0 plus a few dense rows,
/// in shuffled order, with entries that are zero, small, or within 2^20 of
/// +-2^62 or of +-(2^63 - 1). The bounds reach 2^62-2^63, so dense-row
/// terms reach 2^124-2^126 and partial sums of two to eight of them
/// overflow 128 bits.
BasicSet randomWideSet(std::mt19937 &Rng, unsigned NumVars) {
  std::uniform_int_distribution<int> Kind(0, 9);
  std::uniform_int_distribution<int64_t> Small(-3, 3);
  std::uniform_int_distribution<int64_t> Near(-(int64_t(1) << 20),
                                              int64_t(1) << 20);
  std::uniform_int_distribution<int> NumDense(1, 3);
  auto Entry = [&] {
    int K = Kind(Rng);
    if (K < 2)
      return int64_t(0);
    if (K < 5)
      return Small(Rng);
    int64_t Off = Near(Rng);
    int64_t V = K % 2 ? (int64_t(1) << 62) + Off
                      : INT64_MAX - (Off < 0 ? -Off : Off);
    return K < 7 ? V : -V;
  };
  std::vector<std::pair<bool, std::vector<int64_t>>> Rows;
  for (unsigned J = 0; J < NumVars; ++J)
    for (int64_t Sign : {1, -1})
      if (Kind(Rng) < 8) {
        std::vector<int64_t> Row(NumVars + 1, 0);
        Row[J] = Sign;
        int64_t C = Entry();
        Row[NumVars] = C < 0 ? -C : C; // a box around 0, rarely empty
        Rows.emplace_back(false, std::move(Row));
      }
  for (int R = NumDense(Rng); R > 0; --R) {
    std::vector<int64_t> Row(NumVars + 1);
    for (auto &V : Row)
      V = Entry();
    Rows.emplace_back(Kind(Rng) == 0, std::move(Row));
  }
  std::shuffle(Rows.begin(), Rows.end(), Rng);
  BasicSet S(NumVars);
  for (auto &[IsEq, Row] : Rows) {
    if (IsEq)
      S.addEquality(std::move(Row));
    else
      S.addInequality(std::move(Row));
  }
  return S;
}

} // namespace

TEST(Prefilter, IntervalRungMatchesQuadraticReference) {
  std::mt19937 Rng(2025);
  ReferenceInterval Ref;
  unsigned Rejected = 0;
  auto Check = [&](const BasicSet &S) {
    Ternary Want = Ref.ladder(S);
    EXPECT_EQ(prefilterEmptiness(S), Want) << S.str();
    Rejected += Want == Ternary::True;
  };
  for (int Trial = 0; Trial < 1500; ++Trial)
    Check(randomMixedSet(Rng, 2 + Trial % 4));
  unsigned SmallRejected = Rejected;
  for (int Trial = 0; Trial < 6000; ++Trial)
    Check(randomWideSet(Rng, 2 + Trial % 5));
  // Both halves must exercise what they are for: rejections among the
  // small systems, and overflowing partial sums among the wide ones.
  EXPECT_GE(SmallRejected, 100u);
  EXPECT_GE(Rejected - SmallRejected, 100u);
  EXPECT_GE(Ref.AddOverflows, 100u);
}
