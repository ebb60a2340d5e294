//===- ir_expr_test.cpp - UF expression tests ------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Expr.h"

#include "sds/deps/Pipeline.h"
#include "sds/kernels/Kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace sds::ir;

TEST(Expr, ConstantsAndVars) {
  Expr C(5);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.constant(), 5);
  EXPECT_EQ(C.str(), "5");

  Expr V = Expr::var("i");
  EXPECT_FALSE(V.isConstant());
  EXPECT_TRUE(V.isSingleAtom());
  EXPECT_EQ(V.str(), "i");
}

TEST(Expr, ArithmeticCanonicalizes) {
  Expr I = Expr::var("i"), J = Expr::var("j");
  Expr E = I + J + I - Expr(3); // 2i + j - 3
  EXPECT_EQ(E.str(), "2 i + j - 3");
  Expr Z = E - E;
  EXPECT_TRUE(Z.isConstant());
  EXPECT_EQ(Z.constant(), 0);
  EXPECT_EQ((I * 0).str(), "0");
  EXPECT_EQ((-I).str(), "-i");
}

TEST(Expr, CancellationRemovesTerms) {
  Expr I = Expr::var("i");
  Expr E = I * 3 - I * 3 + Expr(1);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constant(), 1);
}

TEST(Expr, CallsStructuralEquality) {
  Expr K = Expr::var("k");
  Expr C1 = Expr::call("col", {K + Expr(1)});
  Expr C2 = Expr::call("col", {Expr(1) + K});
  EXPECT_EQ(C1, C2); // argument canonicalization makes these equal
  Expr C3 = Expr::call("col", {K});
  EXPECT_NE(C1, C3);
  EXPECT_EQ((C1 - C2).constant(), 0);
}

TEST(Expr, NestedCallsPrint) {
  Expr M = Expr::var("m");
  Expr Nested = Expr::call("col", {Expr::call("row", {M})});
  EXPECT_EQ(Nested.str(), "col(row(m))");
  Expr E = Nested - Expr::var("k") - Expr(1);
  EXPECT_EQ(E.str(), "-k + col(row(m)) - 1");
}

TEST(Expr, SubstituteTopLevelVar) {
  Expr I = Expr::var("i"), J = Expr::var("j");
  Expr E = I * 2 + J;
  std::map<std::string, Expr> Map{{"i", Expr::var("x") + Expr(1)}};
  EXPECT_EQ(E.substitute(Map).str(), "j + 2 x + 2");
}

TEST(Expr, SubstituteInsideCallArgs) {
  Expr K = Expr::var("k'");
  Expr E = Expr::call("col", {K}) - Expr::var("i");
  std::map<std::string, Expr> Map{{"k'", Expr::var("m")}};
  EXPECT_EQ(E.substitute(Map).str(), "-i + col(m)");
  // Nested substitution.
  Expr Nested = Expr::call("col", {Expr::call("row", {K})});
  EXPECT_EQ(Nested.substitute(Map).str(), "col(row(m))");
}

TEST(Expr, SubstituteMergesTerms) {
  // f(i) + f(j) with j := i must merge into 2 f(i).
  Expr E = Expr::call("f", {Expr::var("i")}) +
           Expr::call("f", {Expr::var("j")});
  std::map<std::string, Expr> Map{{"j", Expr::var("i")}};
  EXPECT_EQ(E.substitute(Map).str(), "2 f(i)");
}

TEST(Expr, CollectCallsIncludesNested) {
  Expr M = Expr::var("m");
  Expr E = Expr::call("col", {Expr::call("row", {M})}) +
           Expr::call("row", {M + Expr(1)});
  std::vector<Atom> Calls;
  E.collectCalls(Calls);
  // col(row(m)), its nested row(m), and row(m + 1).
  ASSERT_EQ(Calls.size(), 3u);
}

TEST(Expr, CollectVarsIncludesCallArgs) {
  Expr E = Expr::call("rowptr", {Expr::var("i") + Expr(1)}) - Expr::var("k");
  std::vector<std::string> Vars;
  E.collectVars(Vars);
  ASSERT_EQ(Vars.size(), 2u);
  EXPECT_NE(std::find(Vars.begin(), Vars.end(), "i"), Vars.end());
  EXPECT_NE(std::find(Vars.begin(), Vars.end(), "k"), Vars.end());
}

TEST(Expr, CompareTotalOrder) {
  Expr A = Expr::var("a"), B = Expr::var("b");
  EXPECT_LT(A, B);
  EXPECT_FALSE(B < A);
  Expr CA = Expr::call("f", {A});
  Expr CB = Expr::call("f", {B});
  EXPECT_LT(CA, CB);
  // Vars order before calls within an atom ordering.
  EXPECT_LT(Atom::var("z").compare(Atom::call("a", {})), 0);
}

//===----------------------------------------------------------------------===//
// Interned terms against a reference tree implementation
//===----------------------------------------------------------------------===//

namespace {

/// The tree representation atoms had before interning: every node owns its
/// name and its arguments. Canonical form, order and printing follow the
/// same rules, so the interned implementation must agree on every input.
struct RefExpr;
struct RefAtom {
  bool IsCall = false;
  std::string Name;
  std::vector<RefExpr> Args;
};
struct RefExpr {
  std::vector<std::pair<int64_t, RefAtom>> Terms;
  int64_t Const = 0;
};

int refCompare(const RefExpr &A, const RefExpr &B);

int refCompare(const RefAtom &A, const RefAtom &B) {
  if (A.IsCall != B.IsCall)
    return A.IsCall ? 1 : -1;
  if (int C = A.Name.compare(B.Name))
    return C < 0 ? -1 : 1;
  if (A.Args.size() != B.Args.size())
    return A.Args.size() < B.Args.size() ? -1 : 1;
  for (size_t I = 0; I < A.Args.size(); ++I)
    if (int C = refCompare(A.Args[I], B.Args[I]))
      return C;
  return 0;
}

int refCompare(const RefExpr &A, const RefExpr &B) {
  if (A.Terms.size() != B.Terms.size())
    return A.Terms.size() < B.Terms.size() ? -1 : 1;
  for (size_t I = 0; I < A.Terms.size(); ++I) {
    if (A.Terms[I].first != B.Terms[I].first)
      return A.Terms[I].first < B.Terms[I].first ? -1 : 1;
    if (int C = refCompare(A.Terms[I].second, B.Terms[I].second))
      return C;
  }
  if (A.Const != B.Const)
    return A.Const < B.Const ? -1 : 1;
  return 0;
}

/// Sort terms by atom, merge equal atoms, drop zero coefficients.
RefExpr refNormalize(RefExpr E) {
  std::stable_sort(E.Terms.begin(), E.Terms.end(),
                   [](const auto &L, const auto &R) {
                     return refCompare(L.second, R.second) < 0;
                   });
  RefExpr Out;
  Out.Const = E.Const;
  for (auto &T : E.Terms) {
    if (!Out.Terms.empty() && refCompare(Out.Terms.back().second, T.second) == 0)
      Out.Terms.back().first += T.first;
    else
      Out.Terms.push_back(std::move(T));
  }
  Out.Terms.erase(std::remove_if(Out.Terms.begin(), Out.Terms.end(),
                                 [](const auto &T) { return T.first == 0; }),
                  Out.Terms.end());
  return Out;
}

RefExpr refAdd(const RefExpr &A, const RefExpr &B, int64_t BScale = 1) {
  RefExpr R = A;
  for (const auto &T : B.Terms)
    R.Terms.push_back({T.first * BScale, T.second});
  R.Const += B.Const * BScale;
  return refNormalize(std::move(R));
}

std::string refStr(const RefExpr &E);

std::string refStr(const RefAtom &A) {
  if (!A.IsCall)
    return A.Name;
  std::string Out = A.Name + "(";
  for (size_t I = 0; I < A.Args.size(); ++I)
    Out += (I ? ", " : "") + refStr(A.Args[I]);
  return Out + ")";
}

std::string refStr(const RefExpr &E) {
  if (E.Terms.empty())
    return std::to_string(E.Const);
  std::string Out;
  for (size_t I = 0; I < E.Terms.size(); ++I) {
    int64_t C = E.Terms[I].first;
    if (I == 0) {
      if (C == -1)
        Out += "-";
      else if (C != 1)
        Out += std::to_string(C) + " ";
    } else {
      Out += C > 0 ? " + " : " - ";
      if (C != 1 && C != -1)
        Out += std::to_string(C < 0 ? -C : C) + " ";
    }
    Out += refStr(E.Terms[I].second);
  }
  if (E.Const != 0)
    Out += (E.Const > 0 ? " + " : " - ") +
           std::to_string(E.Const < 0 ? -E.Const : E.Const);
  return Out;
}

RefExpr refSubstitute(const RefExpr &E,
                      const std::map<std::string, RefExpr> &Map) {
  RefExpr R;
  R.Const = E.Const;
  for (const auto &[Coeff, A] : E.Terms) {
    if (!A.IsCall) {
      auto It = Map.find(A.Name);
      if (It != Map.end()) {
        R = refAdd(R, It->second, Coeff);
        continue;
      }
      R.Terms.push_back({Coeff, A});
      continue;
    }
    RefAtom Call{true, A.Name, {}};
    for (const RefExpr &Arg : A.Args)
      Call.Args.push_back(refSubstitute(Arg, Map));
    R.Terms.push_back({Coeff, std::move(Call)});
  }
  return refNormalize(std::move(R));
}

void refCollectCalls(const RefExpr &E, std::vector<std::string> &Out) {
  for (const auto &[Coeff, A] : E.Terms) {
    if (!A.IsCall)
      continue;
    Out.push_back(refStr(A));
    for (const RefExpr &Arg : A.Args)
      refCollectCalls(Arg, Out);
  }
}

/// A random canonical expression with calls nested up to `Depth` deep.
RefExpr randomRef(std::mt19937 &Rng, int Depth) {
  auto Pick = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  static const char *Vars[] = {"i", "j", "k", "n"};
  static const char *Fns[] = {"f", "g", "col"};
  RefExpr E;
  E.Const = Pick(-3, 3);
  int NTerms = Pick(0, 3);
  for (int T = 0; T < NTerms; ++T) {
    RefAtom A;
    if (Depth > 0 && Pick(0, 1)) {
      A.IsCall = true;
      A.Name = Fns[Pick(0, 2)];
      int NArgs = Pick(1, 2);
      for (int I = 0; I < NArgs; ++I)
        A.Args.push_back(randomRef(Rng, Depth - 1));
    } else {
      A.Name = Vars[Pick(0, 3)];
    }
    int Coeff = Pick(-3, 3);
    E.Terms.push_back({Coeff == 0 ? 1 : Coeff, std::move(A)});
  }
  return refNormalize(std::move(E));
}

/// Build the interned expression through the public API only.
Expr toExpr(const RefExpr &E) {
  Expr Out(E.Const);
  for (const auto &[Coeff, A] : E.Terms) {
    if (!A.IsCall) {
      Out += Expr::var(A.Name) * Coeff;
      continue;
    }
    std::vector<Expr> Args;
    for (const RefExpr &Arg : A.Args)
      Args.push_back(toExpr(Arg));
    Out += Expr::call(A.Name, std::move(Args)) * Coeff;
  }
  return Out;
}

int sign(int V) { return (V > 0) - (V < 0); }

} // namespace

TEST(InternedTerms, AgreeWithReferenceTrees) {
  std::mt19937 Rng(20190622);
  for (int Trial = 0; Trial < 400; ++Trial) {
    RefExpr RA = randomRef(Rng, 3), RB = randomRef(Rng, 3);
    Expr A = toExpr(RA), B = toExpr(RB);
    ASSERT_EQ(A.str(), refStr(RA));
    ASSERT_EQ(B.str(), refStr(RB));
    EXPECT_EQ(sign(A.compare(B)), sign(refCompare(RA, RB)))
        << A.str() << " vs " << B.str();
    EXPECT_EQ(A == B, refCompare(RA, RB) == 0);
    EXPECT_EQ(A == toExpr(RA), true);
    EXPECT_EQ((A + B).str(), refStr(refAdd(RA, RB)));
    EXPECT_EQ((A - B).str(), refStr(refAdd(RA, RB, -1)));
    EXPECT_EQ((A - A).str(), "0");

    std::map<std::string, RefExpr> RMap{{"i", randomRef(Rng, 1)},
                                        {"k", randomRef(Rng, 2)}};
    std::map<std::string, Expr> Map;
    for (const auto &[V, R] : RMap)
      Map.emplace(V, toExpr(R));
    Expr S = A.substitute(Map);
    RefExpr RS = refSubstitute(RA, RMap);
    EXPECT_EQ(S.str(), refStr(RS)) << A.str();
    EXPECT_EQ(S, toExpr(RS));

    std::vector<Atom> Calls;
    A.collectCalls(Calls);
    std::vector<std::string> Got, Want;
    for (const Atom &C : Calls)
      Got.push_back(C.str());
    refCollectCalls(RA, Want);
    EXPECT_EQ(Got, Want);
  }
}

TEST(InternedTerms, EqualAtomsShareOneNode) {
  Expr K = Expr::var("k");
  Atom A = Atom::call("col", {K + Expr(1)});
  Atom B = Atom::call("col", {Expr(1) + K});
  EXPECT_EQ(A.id(), B.id());
  EXPECT_EQ(A.compare(B), 0);
  EXPECT_EQ(&A.str(), &B.str()); // one printed form per node
  size_t Before = Atom::internedCount();
  (void)Atom::call("col", {K + Expr(1)});
  EXPECT_EQ(Atom::internedCount(), Before);
  (void)Atom::call("interned_terms_fresh", {K});
  EXPECT_EQ(Atom::internedCount(), Before + 1);
}

TEST(InternedTerms, SecondColdCompileAddsNoAtoms) {
  sds::deps::PipelineOptions Opts;
  Opts.NumThreads = 1;
  sds::deps::analyzeKernel(sds::kernels::leftCholeskyCSC(), Opts);
  size_t After1 = Atom::internedCount();
  sds::deps::analyzeKernel(sds::kernels::leftCholeskyCSC(), Opts);
  EXPECT_EQ(Atom::internedCount(), After1);
}

TEST(InternedTerms, ConcurrentInterningAgrees) {
  // Terms no other test interns, so the threads race to create them.
  constexpr int kTerms = 300;
  auto Build = [](int T) {
    Expr Inner = Expr::var("race_v" + std::to_string(T % 11)) + Expr(T % 5);
    Expr Mid = Expr::call("race_f" + std::to_string(T % 7), {Inner});
    return Atom::call("race_g" + std::to_string(T % 3),
                      {Mid, Expr::var("race_w" + std::to_string(T % 13))});
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<uint32_t>> Ids(kThreads,
                                         std::vector<uint32_t>(kTerms));
  std::vector<std::vector<std::string>> Strs(
      kThreads, std::vector<std::string>(kTerms));
  std::vector<std::thread> Workers;
  for (int W = 0; W < kThreads; ++W)
    Workers.emplace_back([&, W] {
      std::vector<int> Order(kTerms);
      for (int T = 0; T < kTerms; ++T)
        Order[T] = T;
      std::shuffle(Order.begin(), Order.end(), std::mt19937(W + 1));
      if (W % 2)
        std::reverse(Order.begin(), Order.end());
      for (int T : Order) {
        Atom A = Build(T);
        Ids[W][T] = A.id();
        Strs[W][T] = A.str();
      }
    });
  for (std::thread &T : Workers)
    T.join();
  for (int W = 1; W < kThreads; ++W) {
    EXPECT_EQ(Ids[W], Ids[0]);
    EXPECT_EQ(Strs[W], Strs[0]);
  }
  for (int T = 0; T < kTerms; ++T)
    EXPECT_EQ(Strs[0][T], Build(T).str());
}
