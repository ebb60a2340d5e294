//===- ir_flatten_test.cpp - UF-to-polyhedron lowering tests ---------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"
#include "sds/ir/Parser.h"

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

TEST(Flatten, ColumnLayoutAndSharing) {
  SparseRelation R = parse("{ [i] -> [i'] : exists(k') : i < i' && "
                           "i = col(k') && rowptr(i') <= k' < rowptr(i'+1) }");
  Flattened F = flatten(R);
  // Columns: i, i', k', then calls col(k'), rowptr(i'), rowptr(i' + 1).
  ASSERT_EQ(F.Cols.size(), 6u);
  EXPECT_EQ(F.Cols[0].str(), "i");
  EXPECT_EQ(F.Cols[1].str(), "i'");
  EXPECT_EQ(F.Cols[2].str(), "k'");
  EXPECT_NE(F.columnOf(Atom::call("col", {Expr::var("k'")})),
            F.Set.numVars());
  // Syntactically equal calls share one column.
  EXPECT_EQ(F.columnOf(Atom::call("rowptr", {Expr::var("i'")})),
            F.columnOf(Atom::call("rowptr", {Expr::var("i'")})));
}

TEST(Flatten, SatisfiabilityOfUFRelation) {
  // Without knowledge about col/rowptr the relation is satisfiable.
  SparseRelation R = parse("{ [i] -> [i'] : exists(k') : i < i' && "
                           "i = col(k') && 0 <= i < n && 0 <= i' < n && "
                           "rowptr(i') <= k' < rowptr(i'+1) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::False);
}

TEST(Flatten, AffineContradictionDetected) {
  SparseRelation R = parse("{ [i] -> [i'] : i < i' && i' < i }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::True);
}

TEST(Flatten, SharedCallColumnsForceConsistency) {
  // f(i) < f(i) is a contradiction because both calls share a column.
  SparseRelation R = parse("{ [i] : f(i) < f(i) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::True);
}

TEST(Flatten, DistinctArgsDistinctColumns) {
  // f(i) < f(j) is satisfiable: different argument expressions.
  SparseRelation R = parse("{ [i, j] : f(i) < f(j) }");
  Flattened F = flatten(R);
  EXPECT_EQ(F.Set.isEmpty(), Ternary::False);
}

TEST(Flatten, NestedCallsGetColumns) {
  SparseRelation R = parse("{ [m] : col(row(m)) <= 5 }");
  Flattened F = flatten(R);
  // Columns: m, col(row(m)), row(m).
  EXPECT_EQ(F.Cols.size(), 3u);
  EXPECT_NE(F.columnOf(Atom::call("row", {Expr::var("m")})),
            F.Set.numVars());
}

TEST(Flatten, RowToExprRoundTrip) {
  SparseRelation R = parse("{ [i] : exists(k) : i = col(k) && 0 <= i }");
  Flattened F = flatten(R);
  for (const auto &Row : F.Set.equalities()) {
    Expr E = F.rowToExpr(Row);
    // i - col(k) == 0 (up to sign).
    Expr Expected = Expr::var("i") - Expr::call("col", {Expr::var("k")});
    EXPECT_TRUE(E == Expected || E == -Expected) << E.str();
  }
}

TEST(Flatten, ParamsGetColumns) {
  SparseRelation R = parse("{ [i] : 0 <= i < n && n <= nnz }");
  Flattened F = flatten(R);
  EXPECT_NE(F.columnOf(Atom::var("n")), F.Set.numVars());
  EXPECT_NE(F.columnOf(Atom::var("nnz")), F.Set.numVars());
}

TEST(Flatten, VarOrderRespected) {
  Conjunction C;
  C.add(Constraint::lt(Expr::var("a"), Expr::var("b")));
  Flattened F = flatten(C, {"b", "a"});
  EXPECT_EQ(F.Cols[0].str(), "b");
  EXPECT_EQ(F.Cols[1].str(), "a");
  ASSERT_EQ(F.Set.inequalities().size(), 1u);
  // b - a - 1 >= 0 with b in column 0.
  EXPECT_EQ(F.Set.inequalities()[0],
            (std::vector<int64_t>{1, -1, -1}));
}
