//===- presburger_basicset_test.cpp - Integer polyhedron tests -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"

#include <gtest/gtest.h>

#include <random>

using namespace sds::presburger;

namespace {
std::vector<int64_t> row(std::initializer_list<int64_t> L) { return L; }

/// `Row . (P, 1) >= 0`.
bool satisfies(const std::vector<int64_t> &Row, const std::vector<int64_t> &P) {
  int64_t V = Row.back();
  for (size_t J = 0; J < P.size(); ++J)
    V += Row[J] * P[J];
  return V >= 0;
}

uint64_t witnessSkips() {
  return sds::obs::counter("basicset.witness_skips").value();
}
} // namespace

TEST(BasicSet, NormalizeDetectsTrivialEmpty) {
  BasicSet S(1);
  S.addInequality(row({0, -1})); // -1 >= 0
  EXPECT_FALSE(S.normalize());

  BasicSet S2(1);
  S2.addEquality(row({0, 3})); // 3 == 0
  EXPECT_FALSE(S2.normalize());

  BasicSet S3(1);
  S3.addEquality(row({2, -1})); // 2x == 1: no integer solution
  EXPECT_FALSE(S3.normalize());
}

TEST(BasicSet, NormalizeTightensInequalities) {
  BasicSet S(1);
  S.addInequality(row({2, -1})); // 2x >= 1  ==>  x >= 1 (integer tightening)
  ASSERT_TRUE(S.normalize());
  ASSERT_EQ(S.inequalities().size(), 1u);
  EXPECT_EQ(S.inequalities()[0], row({1, -1}));
}

TEST(BasicSet, EmptinessBasics) {
  BasicSet S(2);
  S.addInequality(row({1, 0, 0}));    // x >= 0
  S.addInequality(row({0, 1, 0}));    // y >= 0
  S.addInequality(row({-1, -1, 5})); // x + y <= 5
  EXPECT_EQ(S.isEmpty(), Ternary::False);

  S.addInequality(row({1, 1, -6})); // x + y >= 6: contradiction
  EXPECT_EQ(S.isEmpty(), Ternary::True);
}

TEST(BasicSet, IntegerOnlyEmptiness) {
  // 2x == 2y + 1 is rationally feasible but has no integer solutions.
  BasicSet S(2);
  S.addEquality(row({2, -2, -1}));
  EXPECT_EQ(S.isEmpty(), Ternary::True);
}

TEST(BasicSet, IntegerEmptinessNeedsBranching) {
  // 3x + 3y == 1 within a box: rationally feasible, integrally empty,
  // and not caught by a single GCD test once extra constraints join in.
  BasicSet S(2);
  S.addEquality(row({3, 3, -1}));
  S.addInequality(row({1, 0, 10}));  // x >= -10
  S.addInequality(row({-1, 0, 10})); // x <= 10
  EXPECT_EQ(S.isEmpty(), Ternary::True);

  // 2x >= 1, 2x <= 1: x = 1/2 only.
  BasicSet S2(1);
  S2.addInequality(row({2, -1}));
  S2.addInequality(row({-2, 1}));
  EXPECT_EQ(S2.isEmpty(), Ternary::True);
}

TEST(BasicSet, SampleIntegerPoint) {
  BasicSet S(2);
  S.addInequality(row({1, 0, -3}));  // x >= 3
  S.addInequality(row({-1, 0, 7}));  // x <= 7
  S.addEquality(row({1, -1, 0}));    // x == y
  auto P = S.sampleIntegerPoint();
  ASSERT_TRUE(P.has_value());
  EXPECT_GE((*P)[0], 3);
  EXPECT_LE((*P)[0], 7);
  EXPECT_EQ((*P)[0], (*P)[1]);
}

TEST(BasicSet, DetectImplicitEqualities) {
  // x <= y and y <= x force x == y.
  BasicSet S(2);
  S.addInequality(row({1, -1, 0}));  // x - y >= 0
  S.addInequality(row({-1, 1, 0}));  // y - x >= 0
  S.addInequality(row({1, 0, 0}));   // x >= 0 (not tight)
  unsigned N = S.detectImplicitEqualities();
  EXPECT_EQ(N, 2u);
  ASSERT_GE(S.equalities().size(), 1u);
  // Remaining inequality x >= 0 must not be promoted.
  EXPECT_EQ(S.inequalities().size(), 1u);
}

TEST(BasicSet, DetectImplicitEqualityViaChain) {
  // The paper's §4.1 pattern: i' <= g and g <= i' arrive from different
  // sources; the promotion must find i' == g.
  BasicSet S(2); // vars: ip, g
  S.addInequality(row({-1, 1, 0})); // g - ip >= 0
  S.addInequality(row({1, -1, 0})); // ip - g >= 0
  EXPECT_EQ(S.detectImplicitEqualities(), 2u);
}

TEST(WitnessPool, RemapKeepsOnlyPointsInsideTheNewBase) {
  // Base: 0 <= x <= 3, 0 <= y <= 3. The probe -x - y >= 0 leaves only
  // (0, 0), so that is the pooled point (solved: the cache is cold).
  clearQueryCache();
  BasicSet Base(2);
  Base.addInequality(row({1, 0, 0}));
  Base.addInequality(row({-1, 0, 3}));
  Base.addInequality(row({0, 1, 0}));
  Base.addInequality(row({0, -1, 3}));
  WitnessPool Pool;
  ASSERT_EQ(Pool.probe(Base, row({-1, -1, 0}), 64), Ternary::False);
  ASSERT_EQ(Pool.size(), 1u);

  // Swapping the columns keeps the point, and it answers the next probe.
  WitnessPool Kept = Pool;
  Kept.remap({1, 0}, Base);
  ASSERT_EQ(Kept.size(), 1u);
  uint64_t Before = witnessSkips();
  EXPECT_EQ(Kept.probe(Base, row({0, -1, 0}), 64), Ternary::False);
  EXPECT_EQ(witnessSkips(), Before + 1);

  // A column the old base did not have drops the point.
  WitnessPool Widened = Pool;
  Widened.remap({0, 1, WitnessPool::kNoColumn}, Base.insertVars(2, 1));
  EXPECT_EQ(Widened.size(), 0u);

  // So does a row the point violates; the next probe is then solved.
  BasicSet Grown = Base;
  Grown.addInequality(row({1, 1, -1})); // x + y >= 1
  WitnessPool Cut = Pool;
  Cut.remap({0, 1}, Grown);
  EXPECT_EQ(Cut.size(), 0u);
  Before = witnessSkips();
  EXPECT_EQ(Cut.probe(Grown, row({-1, -1, 0}), 64), Ternary::True);
  EXPECT_EQ(Cut.probe(Grown, row({1, 0, 0}), 64), Ternary::False);
  EXPECT_EQ(witnessSkips(), Before);
  EXPECT_EQ(Cut.size(), 1u);
}

TEST(BasicSet, ProjectOutExactUnitCoefficients) {
  // S = { (x, y) : 0 <= y <= 10, x == y }. Projecting y gives 0 <= x <= 10.
  BasicSet S(2);
  S.addInequality(row({0, 1, 0}));
  S.addInequality(row({0, -1, 10}));
  S.addEquality(row({1, -1, 0}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  BasicSet Expect(1);
  Expect.addInequality(row({1, 0}));
  Expect.addInequality(row({-1, 10}));
  EXPECT_EQ(R.Set.isSubsetOf(Expect), Ternary::True);
  EXPECT_EQ(Expect.isSubsetOf(R.Set), Ternary::True);
}

TEST(BasicSet, ProjectOutFourierMotzkin) {
  // S = { (x, y) : x <= y, y <= 5 }: projecting y leaves x <= 5.
  BasicSet S(2);
  S.addInequality(row({-1, 1, 0}));
  S.addInequality(row({0, -1, 5}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  BasicSet Expect(1);
  Expect.addInequality(row({-1, 5}));
  EXPECT_EQ(R.Set.isSubsetOf(Expect), Ternary::True);
  EXPECT_EQ(Expect.isSubsetOf(R.Set), Ternary::True);
}

TEST(BasicSet, ProjectOutInexactFlagged) {
  // 2y == x with y existential describes even x; FM/equality elimination
  // cannot represent that exactly, so the result must be flagged inexact.
  BasicSet S(2);
  S.addEquality(row({-1, 2, 0})); // 2y - x == 0
  S.addInequality(row({0, 1, 0}));
  S.addInequality(row({0, -1, 10}));
  auto R = S.projectOut({1});
  EXPECT_FALSE(R.Exact);
}

TEST(BasicSet, ProjectOutEmptyInput) {
  BasicSet S(2);
  S.addInequality(row({0, 0, -1}));
  auto R = S.projectOut({1});
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.Set.isEmpty(), Ternary::True);
}

TEST(BasicSet, SubstituteVariable) {
  // S = { (x, y) : 0 <= x + y <= 4 }; substitute y := x + 1.
  BasicSet S(2);
  S.addInequality(row({1, 1, 0}));
  S.addInequality(row({-1, -1, 4}));
  BasicSet T = S.substitute(1, row({1, 0, 1}));
  EXPECT_EQ(T.numVars(), 1u);
  // Now 0 <= 2x + 1 <= 4, i.e. x in {0, 1} over the integers.
  EXPECT_EQ(T.isEmpty(), Ternary::False);
  BasicSet Box(1);
  Box.addInequality(row({1, 0}));
  Box.addInequality(row({-1, 1}));
  EXPECT_EQ(T.isSubsetOf(Box), Ternary::True);
}

TEST(BasicSet, SubsetBasics) {
  BasicSet Inner(1), Outer(1);
  Inner.addInequality(row({1, -2}));  // x >= 2
  Inner.addInequality(row({-1, 4}));  // x <= 4
  Outer.addInequality(row({1, 0}));   // x >= 0
  Outer.addInequality(row({-1, 10})); // x <= 10
  EXPECT_EQ(Inner.isSubsetOf(Outer), Ternary::True);
  EXPECT_EQ(Outer.isSubsetOf(Inner), Ternary::False);
}

TEST(BasicSet, SubsetWithEqualities) {
  BasicSet Line(2), HalfPlane(2);
  Line.addEquality(row({1, -1, 0})); // x == y
  Line.addInequality(row({1, 0, 0}));
  HalfPlane.addInequality(row({1, -1, 0})); // x >= y
  EXPECT_EQ(Line.isSubsetOf(HalfPlane), Ternary::True);
  EXPECT_EQ(HalfPlane.isSubsetOf(Line), Ternary::False);
}

TEST(BasicSet, InsertVars) {
  BasicSet S(2);
  S.addInequality(row({1, -1, 3}));
  BasicSet T = S.insertVars(1, 2);
  EXPECT_EQ(T.numVars(), 4u);
  ASSERT_EQ(T.inequalities().size(), 1u);
  EXPECT_EQ(T.inequalities()[0], row({1, 0, 0, -1, 3}));
}

TEST(BasicSet, PrintReadable) {
  BasicSet S(2);
  S.addEquality(row({1, -1, 0}));
  S.addInequality(row({1, 0, -2}));
  std::string Str = S.str({"i", "j"});
  EXPECT_NE(Str.find("i - j == 0"), std::string::npos);
  EXPECT_NE(Str.find("i - 2 >= 0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Property-style randomized cross-check: emptiness and subset vs brute force
// over a small box.
//===----------------------------------------------------------------------===//

namespace {

/// Enumerate all integer points of `S` within [-B, B]^n by brute force.
std::vector<std::vector<int64_t>> enumerateBox(const BasicSet &S, int64_t B) {
  std::vector<std::vector<int64_t>> Points;
  unsigned N = S.numVars();
  std::vector<int64_t> P(N, -B);
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
      if (P[J] < B) {
        ++P[J];
        break;
      }
      P[J] = -B;
    }
    if (J == N)
      break;
  }
  return Points;
}

BasicSet randomBoxedSet(std::mt19937 &Rng, unsigned NumVars, int64_t B) {
  BasicSet S(NumVars);
  // Box constraints keep everything bounded so brute force is exact.
  for (unsigned J = 0; J < NumVars; ++J) {
    std::vector<int64_t> Lo(NumVars + 1, 0), Hi(NumVars + 1, 0);
    Lo[J] = 1;
    Lo[NumVars] = B;
    Hi[J] = -1;
    Hi[NumVars] = B;
    S.addInequality(Lo);
    S.addInequality(Hi);
  }
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-3, 3);
  std::uniform_int_distribution<int> NumRows(1, 3);
  int Rows = NumRows(Rng);
  for (int R = 0; R < Rows; ++R) {
    std::vector<int64_t> Row(NumVars + 1);
    for (unsigned J = 0; J < NumVars; ++J)
      Row[J] = Coef(Rng);
    Row[NumVars] = Cst(Rng);
    if (Coef(Rng) > 0)
      S.addEquality(Row);
    else
      S.addInequality(Row);
  }
  return S;
}

} // namespace

class BasicSetRandomized : public ::testing::TestWithParam<int> {};

TEST_P(BasicSetRandomized, EmptinessMatchesBruteForce) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()));
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  bool BruteEmpty = enumerateBox(S, 3).empty();
  Ternary T = S.isEmpty(/*NodeBudget=*/256);
  ASSERT_NE(T, Ternary::Unknown) << S.str();
  EXPECT_EQ(T == Ternary::True, BruteEmpty) << S.str();
}

TEST_P(BasicSetRandomized, SubsetMatchesBruteForce) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 1000);
  BasicSet A = randomBoxedSet(Rng, 2, 3);
  BasicSet B = randomBoxedSet(Rng, 2, 3);
  auto PA = enumerateBox(A, 3);
  auto PB = enumerateBox(B, 3);
  auto Contains = [&](const std::vector<int64_t> &P) {
    for (const auto &Q : PB)
      if (Q == P)
        return true;
    return false;
  };
  bool BruteSubset = true;
  for (const auto &P : PA)
    if (!Contains(P)) {
      BruteSubset = false;
      break;
    }
  Ternary T = A.isSubsetOf(B, /*NodeBudget=*/256);
  ASSERT_NE(T, Ternary::Unknown);
  EXPECT_EQ(T == Ternary::True, BruteSubset)
      << "A=" << A.str() << " B=" << B.str();
}

TEST_P(BasicSetRandomized, ProjectionIsSupersetAndExactWhenClaimed) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 2000);
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  auto R = S.projectOut({2});
  // Brute-force the true projection.
  auto Pts = enumerateBox(S, 3);
  std::set<std::pair<int64_t, int64_t>> True2D;
  for (const auto &P : Pts)
    True2D.insert({P[0], P[1]});
  // Every true projected point must be in the FM result (soundness).
  unsigned N = R.Set.numVars();
  ASSERT_EQ(N, 2u);
  auto InResult = [&](int64_t X, int64_t Y) {
    for (const auto &Row : R.Set.equalities())
      if (Row[0] * X + Row[1] * Y + Row[2] != 0)
        return false;
    for (const auto &Row : R.Set.inequalities())
      if (Row[0] * X + Row[1] * Y + Row[2] < 0)
        return false;
    return true;
  };
  for (const auto &[X, Y] : True2D)
    EXPECT_TRUE(InResult(X, Y)) << S.str();
  // When claimed exact, points of the result inside the box must be true
  // projections.
  if (R.Exact) {
    for (int64_t X = -3; X <= 3; ++X) {
      for (int64_t Y = -3; Y <= 3; ++Y) {
        if (InResult(X, Y)) {
          EXPECT_TRUE(True2D.count({X, Y}))
              << "claimed-exact projection has phantom point " << X << ","
              << Y << " for " << S.str();
        }
      }
    }
  }
}

// detectImplicitEqualities against brute force: when none of its probes
// is undecided, it promotes exactly the inequalities that are tight on
// every integer point, and the set keeps its points. Every other seed
// adds an opposite pair, so tight rows occur on non-empty sets too.
TEST_P(BasicSetRandomized, ImplicitEqualitiesMatchBruteForce) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 3000);
  BasicSet S = randomBoxedSet(Rng, 3, 3);
  if (GetParam() % 2 == 0) {
    std::uniform_int_distribution<int> Coef(-2, 2);
    std::vector<int64_t> R = {Coef(Rng), Coef(Rng), Coef(Rng), Coef(Rng)};
    S.addInequality(R);
    for (int64_t &C : R)
      C = -C;
    S.addInequality(R);
  }
  BasicSet N = S;
  if (!N.normalize()) {
    EXPECT_EQ(S.detectImplicitEqualities(), 0u);
    return;
  }
  auto Points = enumerateBox(N, 3);
  std::vector<std::vector<int64_t>> Expected = N.equalities();
  unsigned Tight = 0;
  for (const auto &R : N.inequalities()) {
    std::vector<int64_t> Strict = R;
    Strict.back() -= 1;
    BasicSet Probe = N;
    Probe.addInequality(Strict);
    if (Probe.isEmpty() == Ternary::Unknown)
      GTEST_SKIP() << "undecided probe: " << Probe.str();
    bool IsTight = true;
    for (const auto &P : Points)
      IsTight = IsTight && !satisfies(Strict, P);
    if (IsTight) {
      Expected.push_back(R);
      ++Tight;
    }
  }
  EXPECT_EQ(S.detectImplicitEqualities(), Tight) << N.str();
  EXPECT_EQ(S.equalities(), Expected) << N.str();
  EXPECT_EQ(enumerateBox(S, 3), Points) << N.str();
}

// The witness pool answers a probe only with a point inside it: a probe
// the pool covers is never one that brute force finds empty, and every
// verdict agrees with brute force. Repeating a satisfiable probe with a
// weaker row must be answered by the pool.
TEST_P(BasicSetRandomized, WitnessNeverCoversAnEmptyProbe) {
  std::mt19937 Rng(static_cast<unsigned>(GetParam()) + 4000);
  BasicSet Base = randomBoxedSet(Rng, 3, 3);
  bool BaseEmpty = enumerateBox(Base, 3).empty();
  std::uniform_int_distribution<int> Coef(-2, 2);
  std::uniform_int_distribution<int> Cst(-4, 4);
  WitnessPool Pool;
  for (int I = 0; I < 24; ++I) {
    std::vector<int64_t> Row = {Coef(Rng), Coef(Rng), Coef(Rng), Cst(Rng)};
    BasicSet Probe = Base;
    Probe.addInequality(Row);
    bool BruteEmpty = enumerateBox(Probe, 3).empty();
    uint64_t Before = witnessSkips();
    Ternary T = Pool.probe(Base, Row, /*NodeBudget=*/256);
    bool Covered = witnessSkips() > Before;
    EXPECT_FALSE(Covered && BruteEmpty) << "covered empty probe " << Probe.str();
    ASSERT_NE(T, Ternary::Unknown) << Probe.str();
    EXPECT_EQ(T == Ternary::True, BruteEmpty) << Probe.str();
  }
  // x0 + 3 >= 0 holds on the whole box; once a point is pooled, the
  // weaker x0 + 4 >= 0 is covered without a solve. The cache is cleared
  // first because a cached verdict carries no point.
  clearQueryCache();
  Pool.probe(Base, {1, 0, 0, 3}, /*NodeBudget=*/256);
  uint64_t Before = witnessSkips();
  EXPECT_EQ(Pool.probe(Base, {1, 0, 0, 4}, /*NodeBudget=*/256),
            BaseEmpty ? Ternary::True : Ternary::False);
  EXPECT_EQ(witnessSkips() > Before, !BaseEmpty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BasicSetRandomized,
                         ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Query memoization (emptiness / subset verdict cache).
//===----------------------------------------------------------------------===//

TEST(QueryCache, RepeatedEmptinessQueriesHit) {
  clearQueryCache();
  BasicSet S(2);
  S.addInequality(row({1, 0, 0}));   // x >= 0
  S.addInequality(row({0, 1, 0}));   // y >= 0
  S.addInequality(row({-1, -1, 5})); // x + y <= 5
  Ternary First = S.isEmpty();
  QueryCacheStats After1 = queryCacheStats();
  EXPECT_EQ(After1.Hits, 0u);
  EXPECT_GE(After1.Misses, 1u);
  EXPECT_GE(After1.Entries, 1u);
  // Same system again (fresh object): must hit and agree.
  BasicSet T(2);
  T.addInequality(row({1, 0, 0}));
  T.addInequality(row({0, 1, 0}));
  T.addInequality(row({-1, -1, 5}));
  EXPECT_EQ(T.isEmpty(), First);
  QueryCacheStats After2 = queryCacheStats();
  EXPECT_EQ(After2.Hits, After1.Hits + 1);
  EXPECT_EQ(After2.Misses, After1.Misses);
}

TEST(QueryCache, PermutedConstraintOrderSharesEntry) {
  // The key is canonical (sorted normalized rows), so constraint insertion
  // order must not defeat the cache.
  clearQueryCache();
  BasicSet A(2);
  A.addInequality(row({1, 0, 0}));
  A.addInequality(row({-1, -1, 9}));
  A.addInequality(row({0, 1, 0}));
  Ternary VA = A.isEmpty();
  QueryCacheStats Mid = queryCacheStats();
  BasicSet B(2);
  B.addInequality(row({0, 1, 0}));
  B.addInequality(row({1, 0, 0}));
  B.addInequality(row({-1, -1, 9}));
  EXPECT_EQ(B.isEmpty(), VA);
  QueryCacheStats End = queryCacheStats();
  EXPECT_EQ(End.Hits, Mid.Hits + 1);
}

TEST(QueryCache, SubsetQueriesCachedSeparatelyFromEmptiness) {
  // The containment must need actual reasoning: row-wise implied pairs are
  // answered by the syntactic prefilter before the cache is consulted.
  clearQueryCache();
  BasicSet Small(2);
  Small.addInequality(row({1, 0, 0}));   // x >= 0
  Small.addInequality(row({0, 1, 0}));   // y >= 0
  Small.addInequality(row({-1, 0, 2}));  // x <= 2
  Small.addInequality(row({0, -1, 2}));  // y <= 2
  BasicSet Big(2);
  Big.addInequality(row({-1, -1, 10})); // x + y <= 10
  Ternary V1 = Small.isSubsetOf(Big);
  EXPECT_EQ(V1, Ternary::True);
  QueryCacheStats Mid = queryCacheStats();
  EXPECT_EQ(Small.isSubsetOf(Big), V1); // hit
  QueryCacheStats End = queryCacheStats();
  EXPECT_EQ(End.Hits, Mid.Hits + 1);
  // Reversed direction is a different key (and a different answer).
  EXPECT_EQ(Big.isSubsetOf(Small), Ternary::False);
}

TEST(QueryCache, ClearResetsStatsAndEntries) {
  BasicSet S(1);
  S.addInequality(row({1, 0}));
  (void)S.isEmpty();
  clearQueryCache();
  QueryCacheStats Z = queryCacheStats();
  EXPECT_EQ(Z.Hits, 0u);
  EXPECT_EQ(Z.Misses, 0u);
  EXPECT_EQ(Z.Entries, 0u);
  EXPECT_EQ(Z.hitRate(), 0.0);
}

TEST(QueryCache, CachedVerdictsMatchFreshSolves) {
  // Randomized consistency: solve, re-solve (cached), clear, solve fresh —
  // all three verdicts must agree.
  std::mt19937 Rng(4242);
  std::uniform_int_distribution<int64_t> Coef(-3, 3);
  for (int Trial = 0; Trial < 25; ++Trial) {
    BasicSet S(2);
    for (int R = 0; R < 4; ++R)
      S.addInequality(row({Coef(Rng), Coef(Rng), Coef(Rng)}));
    BasicSet Copy = S;
    Ternary First = S.isEmpty();
    Ternary Cached = Copy.isEmpty();
    clearQueryCache();
    BasicSet Fresh = S;
    Ternary Recomputed = Fresh.isEmpty();
    EXPECT_EQ(First, Cached) << "trial " << Trial;
    EXPECT_EQ(First, Recomputed) << "trial " << Trial;
  }
}
