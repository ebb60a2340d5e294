//===- ir_subset_test.cpp - §5 subsumption tests ---------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Anchored on the paper's §5.3 worked example: the Incomplete Cholesky
// dependence R2 (val[k]@S3 -> val[l]@S3) is subsumed by R1
// (val[k]@S3 -> val[m]@S2).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Parser.h"
#include "sds/ir/SubsetDetection.h"

#include <gtest/gtest.h>

using namespace sds::ir;
using sds::presburger::Ternary;

namespace {
SparseRelation parse(const char *Text) {
  auto R = parseRelation(Text);
  EXPECT_TRUE(R.Ok) << R.Error << " in " << Text;
  return R.Rel;
}
} // namespace

TEST(EliminateDeterminedVars, UnitEqualitySubstitution) {
  SparseRelation R = parse("{ [i, k] -> [i', m'] : k = m' && "
                           "col(i') <= m' < col(i' + 1) && i < i' }");
  std::vector<std::string> Left = eliminateDeterminedVars(R, {"m'"});
  EXPECT_TRUE(Left.empty());
  EXPECT_EQ(R.OutVars, std::vector<std::string>{"i'"});
  // col(i') <= k survives the substitution.
  Constraint Want = Constraint::le(Expr::call("col", {Expr::var("i'")}),
                                   Expr::var("k"));
  EXPECT_TRUE(R.Conj.impliesSyntactically(Want)) << R.str();
}

TEST(EliminateDeterminedVars, RefusesCallBoundVars) {
  SparseRelation R = parse("{ [i] -> [i', k'] : i = col(k') && i < i' }");
  std::vector<std::string> Left = eliminateDeterminedVars(R, {"k'"});
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0], "k'");
}

TEST(Subsumes, IdenticalRelations) {
  const char *Text = "{ [i, k] -> [i', m'] : k = m' && i < i' && "
                     "col(i') <= m' < col(i' + 1) && 0 <= i < n }";
  SparseRelation A = parse(Text), B = parse(Text);
  EXPECT_EQ(subsumes(A, B), Ternary::True);
}

TEST(Subsumes, StrictSubset) {
  // B adds a guard, so B's manifestations are a subset of A's.
  SparseRelation A = parse("{ [i, k] -> [i', m'] : k = m' && i < i' && "
                           "col(i') <= m' < col(i' + 1) && 0 <= i < n }");
  SparseRelation B = parse("{ [i, k] -> [i', m'] : k = m' && i < i' && "
                           "col(i') <= m' < col(i' + 1) && 0 <= i < n && "
                           "i + 5 <= i' }");
  EXPECT_EQ(subsumes(A, B), Ternary::True);
  EXPECT_NE(subsumes(B, A), Ternary::True);
}

TEST(Subsumes, DifferentInputTuplesRefused) {
  SparseRelation A = parse("{ [i, k] -> [i'] : i < i' && k <= i }");
  SparseRelation B = parse("{ [i, m] -> [i'] : i < i' && m <= i }");
  EXPECT_EQ(subsumes(A, B), Ternary::Unknown);
}

TEST(Subsumes, KeptSideWithUndeterminedSinkRefused) {
  // Kept relation's k' cannot be eliminated exactly -> no claim.
  SparseRelation A = parse("{ [i] -> [i', k'] : i < i' && "
                           "rowptr(i') <= k' < rowptr(i' + 1) }");
  SparseRelation B = parse("{ [i] -> [i'] : i < i' }");
  EXPECT_EQ(subsumes(A, B), Ternary::Unknown);
}

//===----------------------------------------------------------------------===//
// The paper's §5.3 Incomplete Cholesky example.
//===----------------------------------------------------------------------===//

namespace {

// R1: write val[k]@S3 at [i,m,k,l], read val[m']@S2 at [i',m'].
const char *R1Text =
    "{ [i, m, k, l] -> [i', m'] : k = m' && 0 <= i && i < i' && i' < n && "
    "col(i) + 1 <= m && m <= l && l < col(i + 1) && "
    "row(l + 1) <= row(k) && "
    "col(row(m)) <= k && k < col(row(m) + 1) && row(l) = row(k) && "
    "col(i') + 1 <= m' && m' < col(i' + 1) }";

// R2: write val[k]@S3 at [i,m,k,l], read val[l']@S3 at [i',m',k',l'].
const char *R2Text =
    "{ [i, m, k, l] -> [i', m', k', l'] : k = l' && 0 <= i && i < i' && "
    "i' < n && "
    "col(i) + 1 <= m && m <= l && l < col(i + 1) && "
    "row(l + 1) <= row(k) && "
    "col(row(m)) <= k && k < col(row(m) + 1) && row(l) = row(k) && "
    "col(i') + 1 <= m' && m' <= l' && l' < col(i' + 1) && "
    "row(l' + 1) <= row(k') && "
    "col(row(m')) <= k' && k' < col(row(m') + 1) && row(l') = row(k') }";

} // namespace

TEST(Subsumes, PaperSection53Example) {
  SparseRelation R1 = parse(R1Text);
  SparseRelation R2 = parse(R2Text);
  // R2's runtime test is redundant given R1's (paper's conclusion).
  EXPECT_EQ(subsumes(R1, R2), Ternary::True);
}

TEST(Subsumes, PaperSection53ReverseNotClaimed) {
  SparseRelation R1 = parse(R1Text);
  SparseRelation R2 = parse(R2Text);
  // The reverse direction must not be claimed: R2 has undetermined sink
  // witnesses (m', k'), so it cannot act as the kept side.
  EXPECT_NE(subsumes(R2, R1), Ternary::True);
}

TEST(Subsumes, EdgeLevelSanityOnConcreteArrays) {
  // Brute-force cross-check on a tiny concrete interpretation: every edge
  // of the subsumed relation must be an edge of the keeper. col/row here
  // describe a 4-column lower-triangular CSC factor.
  SparseRelation R1 = parse(R1Text);
  SparseRelation R2 = parse(R2Text);
  ASSERT_EQ(subsumes(R1, R2), Ternary::True);

  // 3-column lower-triangular CSC factor (diagonal first per column).
  std::vector<int> ColPtr = {0, 2, 4, 5};
  std::vector<int> RowIdx = {0, 1, 1, 2, 2};
  int N = 3, NNZ = 5;

  auto Enumerate = [&](const SparseRelation &R) {
    // Brute force over all variables in small ranges.
    std::vector<std::pair<int, int>> Edges;
    unsigned NumVars = R.InVars.size() + R.OutVars.size();
    std::vector<std::string> Vars = R.InVars;
    Vars.insert(Vars.end(), R.OutVars.begin(), R.OutVars.end());
    std::vector<int64_t> Vals(NumVars, 0);
    std::function<int64_t(const Expr &)> Eval = [&](const Expr &E) {
      int64_t V = E.constant();
      for (const Expr::Term &T : E.terms()) {
        int64_t A = 0;
        if (T.A.isVar()) {
          if (T.A.name() == "n") {
            A = N;
          } else {
            for (unsigned J = 0; J < NumVars; ++J)
              if (Vars[J] == T.A.name())
                A = Vals[J];
          }
        } else {
          int64_t Arg = Eval(T.A.args()[0]);
          if (T.A.name() == "col")
            A = (Arg >= 0 && Arg <= N) ? ColPtr[Arg] : 999;
          else
            A = (Arg >= 0 && Arg < NNZ) ? RowIdx[Arg] : 999;
        }
        V += T.Coeff * A;
      }
      return V;
    };
    std::function<void(unsigned)> Rec = [&](unsigned D) {
      if (D == NumVars) {
        for (const Constraint &C : R.Conj.constraints()) {
          int64_t V = Eval(C.E);
          if (C.isEq() ? (V != 0) : (V < 0))
            return;
        }
        Edges.push_back({static_cast<int>(Vals[0]),
                         static_cast<int>(Vals[R.InVars.size()])});
        return;
      }
      // Column iterators (i, i') range over [0, N), position iterators
      // over [0, NNZ).
      int64_t Range = (Vars[D][0] == 'i') ? N : NNZ;
      for (int64_t V = 0; V < Range; ++V) {
        Vals[D] = V;
        Rec(D + 1);
      }
    };
    Rec(0);
    return Edges;
  };

  auto E1 = Enumerate(R1);
  auto E2 = Enumerate(R2);
  for (const auto &E : E2)
    EXPECT_NE(std::find(E1.begin(), E1.end(), E), E1.end())
        << "edge " << E.first << "->" << E.second
        << " of R2 not covered by R1";
}
