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

#include <gtest/gtest.h>

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
