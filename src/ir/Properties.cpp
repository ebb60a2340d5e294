//===- Properties.cpp - Index-array properties as assertions -------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Properties.h"

#include "sds/ir/Parser.h"

#include <algorithm>

namespace sds {
namespace ir {

std::string UniversalAssertion::str() const {
  std::string Out = "forall ";
  for (size_t I = 0; I < QVars.size(); ++I) {
    if (I)
      Out += ", ";
    Out += QVars[I];
  }
  Out += ": " + (Antecedent.empty() ? "true" : Antecedent.str()) + " => " +
         Consequent.str();
  return Out;
}

std::optional<PropertyKind> parsePropertyKind(std::string_view Keyword) {
  if (Keyword == "monotonic_increasing")
    return PropertyKind::MonotonicIncreasing;
  if (Keyword == "strict_monotonic_increasing")
    return PropertyKind::StrictMonotonicIncreasing;
  if (Keyword == "monotonic_decreasing")
    return PropertyKind::MonotonicDecreasing;
  if (Keyword == "strict_monotonic_decreasing")
    return PropertyKind::StrictMonotonicDecreasing;
  if (Keyword == "injective")
    return PropertyKind::Injective;
  if (Keyword == "periodic_monotonic")
    return PropertyKind::PeriodicMonotonic;
  if (Keyword == "co_monotonic")
    return PropertyKind::CoMonotonic;
  if (Keyword == "triangular")
    return PropertyKind::Triangular;
  if (Keyword == "triangular_entries_le")
    return PropertyKind::TriangularEntriesLE;
  if (Keyword == "triangular_entries_ge")
    return PropertyKind::TriangularEntriesGE;
  if (Keyword == "triangular_entries_lt")
    return PropertyKind::TriangularEntriesLT;
  if (Keyword == "triangular_entries_gt")
    return PropertyKind::TriangularEntriesGT;
  if (Keyword == "segment_pointer")
    return PropertyKind::SegmentPointer;
  if (Keyword == "segment_start_identity")
    return PropertyKind::SegmentStartIdentity;
  return std::nullopt;
}

std::string propertyKindName(PropertyKind K) {
  switch (K) {
  case PropertyKind::MonotonicIncreasing:
    return "monotonic_increasing";
  case PropertyKind::StrictMonotonicIncreasing:
    return "strict_monotonic_increasing";
  case PropertyKind::MonotonicDecreasing:
    return "monotonic_decreasing";
  case PropertyKind::StrictMonotonicDecreasing:
    return "strict_monotonic_decreasing";
  case PropertyKind::Injective:
    return "injective";
  case PropertyKind::PeriodicMonotonic:
    return "periodic_monotonic";
  case PropertyKind::CoMonotonic:
    return "co_monotonic";
  case PropertyKind::Triangular:
    return "triangular";
  case PropertyKind::TriangularEntriesLE:
    return "triangular_entries_le";
  case PropertyKind::TriangularEntriesGE:
    return "triangular_entries_ge";
  case PropertyKind::TriangularEntriesLT:
    return "triangular_entries_lt";
  case PropertyKind::TriangularEntriesGT:
    return "triangular_entries_gt";
  case PropertyKind::SegmentPointer:
    return "segment_pointer";
  case PropertyKind::SegmentStartIdentity:
    return "segment_start_identity";
  }
  return "unknown";
}

std::optional<PropertyTier> parsePropertyTier(std::string_view Keyword) {
  if (Keyword == "declared")
    return PropertyTier::Declared;
  if (Keyword == "inferred")
    return PropertyTier::Inferred;
  if (Keyword == "refuted")
    return PropertyTier::Refuted;
  return std::nullopt;
}

std::string propertyTierName(PropertyTier T) {
  switch (T) {
  case PropertyTier::Declared:
    return "declared";
  case PropertyTier::Inferred:
    return "inferred";
  case PropertyTier::Refuted:
    return "refuted";
  }
  return "unknown";
}

PropertySet
PropertySet::filtered(const std::vector<PropertyKind> &Kinds) const {
  PropertySet Out;
  for (const IndexArrayProperty &P : Props)
    if (std::find(Kinds.begin(), Kinds.end(), P.K) != Kinds.end())
      Out.add(P);
  // Domain/range declarations travel with every filter: the paper's
  // Figure 7 always keeps basic array facts available.
  for (const DomainRangeDecl &D : Decls)
    Out.addDomainRange(D);
  return Out;
}

std::string labelBase(const IndexArrayProperty &P) {
  return propertyKindName(P.K) + "(" + P.Fn +
         (P.Other.empty() ? "" : ", " + P.Other) + ")";
}

std::string labelBase(const DomainRangeDecl &D) {
  return "domain_range(" + D.Fn + ")";
}

std::string labelBase(const std::string &Label) {
  return Label.substr(0, Label.find(" ["));
}

PropertySet PropertySet::unioned(const PropertySet &Other) const {
  PropertySet Out = *this;
  std::vector<std::string> Seen;
  for (const IndexArrayProperty &P : Props)
    Seen.push_back(labelBase(P));
  for (const IndexArrayProperty &P : Other.Props) {
    if (P.Tier == PropertyTier::Refuted)
      continue; // disconfirmed candidates stay out of the working set
    if (std::find(Seen.begin(), Seen.end(), labelBase(P)) != Seen.end())
      continue;
    Out.add(P);
  }
  std::vector<std::string> SeenDR;
  for (const DomainRangeDecl &D : Decls)
    SeenDR.push_back(D.Fn);
  for (const DomainRangeDecl &D : Other.Decls) {
    if (std::find(SeenDR.begin(), SeenDR.end(), D.Fn) != SeenDR.end())
      continue;
    Out.addDomainRange(D);
  }
  return Out;
}

std::optional<PropertyTier>
PropertySet::tierForLabelBase(const std::string &Base) const {
  // Declared wins over inferred when both produce the same base (unioned()
  // never creates that situation, but hand-built sets may).
  std::optional<PropertyTier> Found;
  auto Consider = [&](PropertyTier T) {
    if (!Found || T == PropertyTier::Declared)
      Found = T;
  };
  for (const IndexArrayProperty &P : Props)
    if (labelBase(P) == Base)
      Consider(P.Tier);
  for (const DomainRangeDecl &D : Decls)
    if (labelBase(D) == Base)
      Consider(D.Tier);
  return Found;
}

namespace {

Expr q(int I) { return Expr::var("__q" + std::to_string(I)); }
Expr fOf(const std::string &Fn, const Expr &Arg) {
  return Expr::call(Fn, {Arg});
}

UniversalAssertion makeAssertion(std::string Label, int NumQ,
                                 std::vector<Constraint> Ante,
                                 std::vector<Constraint> Cons) {
  UniversalAssertion A;
  A.Label = std::move(Label);
  for (int I = 0; I < NumQ; ++I)
    A.QVars.push_back("__q" + std::to_string(I));
  for (Constraint &C : Ante)
    A.Antecedent.add(std::move(C));
  for (Constraint &C : Cons)
    A.Consequent.add(std::move(C));
  return A;
}

void expandProperty(const IndexArrayProperty &P,
                    std::vector<UniversalAssertion> &Out) {
  const std::string &F = P.Fn;
  std::string Base = labelBase(P);
  Expr X0 = q(0), X1 = q(1), X2 = q(2);
  Expr F0 = fOf(F, X0), F1 = fOf(F, X1);

  switch (P.K) {
  case PropertyKind::MonotonicIncreasing:
    Out.push_back(makeAssertion(Base, 2, {Constraint::le(X0, X1)},
                                {Constraint::le(F0, F1)}));
    Out.push_back(makeAssertion(Base + " [contra]", 2,
                                {Constraint::lt(F1, F0)},
                                {Constraint::lt(X1, X0)}));
    break;
  case PropertyKind::StrictMonotonicIncreasing:
    Out.push_back(makeAssertion(Base, 2, {Constraint::lt(X0, X1)},
                                {Constraint::lt(F0, F1)}));
    Out.push_back(makeAssertion(Base + " [weak]", 2,
                                {Constraint::le(X0, X1)},
                                {Constraint::le(F0, F1)}));
    Out.push_back(makeAssertion(Base + " [contra]", 2,
                                {Constraint::le(F1, F0)},
                                {Constraint::le(X1, X0)}));
    Out.push_back(makeAssertion(Base + " [contra-strict]", 2,
                                {Constraint::lt(F1, F0)},
                                {Constraint::lt(X1, X0)}));
    break;
  case PropertyKind::MonotonicDecreasing:
    Out.push_back(makeAssertion(Base, 2, {Constraint::le(X0, X1)},
                                {Constraint::le(F1, F0)}));
    Out.push_back(makeAssertion(Base + " [contra]", 2,
                                {Constraint::lt(F0, F1)},
                                {Constraint::lt(X1, X0)}));
    break;
  case PropertyKind::StrictMonotonicDecreasing:
    Out.push_back(makeAssertion(Base, 2, {Constraint::lt(X0, X1)},
                                {Constraint::lt(F1, F0)}));
    Out.push_back(makeAssertion(Base + " [contra]", 2,
                                {Constraint::le(F0, F1)},
                                {Constraint::le(X1, X0)}));
    break;
  case PropertyKind::Injective:
    Out.push_back(makeAssertion(Base, 2, {Constraint::equals(F0, F1)},
                                {Constraint::equals(X0, X1)}));
    break;
  case PropertyKind::PeriodicMonotonic: {
    // Within one segment [Seg(x0), Seg(x0+1)) the array F is strictly
    // increasing. Corrects the paper's Table 1 typo (f(x1) vs f(x2)).
    Expr Seg0 = fOf(P.Other, X0);
    Expr Seg1 = fOf(P.Other, X0 + Expr(1));
    Expr FX1 = fOf(F, X1), FX2 = fOf(F, X2);
    Out.push_back(makeAssertion(
        Base, 3,
        {Constraint::lt(X1, X2), Constraint::le(Seg0, X1),
         Constraint::lt(X2, Seg1)},
        {Constraint::lt(FX1, FX2)}));
    Out.push_back(makeAssertion(
        Base + " [contra]", 3,
        {Constraint::le(Seg0, X1), Constraint::lt(X1, Seg1),
         Constraint::le(Seg0, X2), Constraint::lt(X2, Seg1),
         Constraint::le(FX2, FX1)},
        {Constraint::le(X2, X1)}));
    break;
  }
  case PropertyKind::CoMonotonic:
    // f(x) <= Other(x), unconditionally.
    Out.push_back(makeAssertion(Base, 1, {},
                                {Constraint::le(F0, fOf(P.Other, X0))}));
    break;
  case PropertyKind::Triangular:
    // Table 1 form: f(x0) < x1 => x0 < Other(x1).
    Out.push_back(makeAssertion(Base, 2, {Constraint::lt(F0, X1)},
                                {Constraint::lt(X0, fOf(P.Other, X1))}));
    Out.push_back(makeAssertion(Base + " [contra]", 2,
                                {Constraint::le(fOf(P.Other, X1), X0)},
                                {Constraint::le(X1, F0)}));
    break;
  case PropertyKind::TriangularEntriesLE: {
    // Entries of segment x0 index no later than x0: for the col array of a
    // lower-triangular CSR, col(x1) <= x0 for Ptr(x0) <= x1 < Ptr(x0+1).
    Expr P0 = fOf(P.Other, X0);
    Expr P1 = fOf(P.Other, X0 + Expr(1));
    Out.push_back(makeAssertion(Base, 2,
                                {Constraint::le(P0, X1),
                                 Constraint::lt(X1, P1)},
                                {Constraint::le(F1, X0)}));
    break;
  }
  case PropertyKind::TriangularEntriesGE: {
    Expr P0 = fOf(P.Other, X0);
    Expr P1 = fOf(P.Other, X0 + Expr(1));
    Out.push_back(makeAssertion(Base, 2,
                                {Constraint::le(P0, X1),
                                 Constraint::lt(X1, P1)},
                                {Constraint::le(X0, F1)}));
    break;
  }
  case PropertyKind::TriangularEntriesLT: {
    Expr P0 = fOf(P.Other, X0);
    Expr P1 = fOf(P.Other, X0 + Expr(1));
    Out.push_back(makeAssertion(Base, 2,
                                {Constraint::le(P0, X1),
                                 Constraint::lt(X1, P1)},
                                {Constraint::lt(F1, X0)}));
    break;
  }
  case PropertyKind::TriangularEntriesGT: {
    Expr P0 = fOf(P.Other, X0);
    Expr P1 = fOf(P.Other, X0 + Expr(1));
    Out.push_back(makeAssertion(Base, 2,
                                {Constraint::le(P0, X1),
                                 Constraint::lt(X1, P1)},
                                {Constraint::lt(X0, F1)}));
    break;
  }
  case PropertyKind::SegmentPointer: {
    // Ptr(x) <= f(x) < Ptr(x+1), unconditionally for every x.
    Expr P0 = fOf(P.Other, X0);
    Expr P1 = fOf(P.Other, X0 + Expr(1));
    Out.push_back(makeAssertion(Base, 1, {},
                                {Constraint::le(P0, F0),
                                 Constraint::lt(F0, P1)}));
    break;
  }
  case PropertyKind::SegmentStartIdentity: {
    // f(Ptr(x)) == x for x in the declared domain (the guard keeps the
    // assertion sound: outside it, Ptr(x) may leave f's bounds).
    std::vector<Constraint> Ante;
    if (P.GuardLo)
      Ante.push_back(Constraint::le(*P.GuardLo, X0));
    if (P.GuardHi)
      Ante.push_back(Constraint::lt(X0, *P.GuardHi));
    Out.push_back(makeAssertion(
        Base, 1, std::move(Ante),
        {Constraint::equals(fOf(F, fOf(P.Other, X0)), X0)}));
    break;
  }
  }
}

} // namespace

std::vector<UniversalAssertion> PropertySet::assertions() const {
  std::vector<UniversalAssertion> Out;
  for (const IndexArrayProperty &P : Props) {
    if (P.Tier == PropertyTier::Refuted)
      continue;
    expandProperty(P, Out);
  }
  for (const DomainRangeDecl &D : Decls) {
    if (D.Tier == PropertyTier::Refuted)
      continue;
    Expr X0 = q(0);
    Expr F0 = fOf(D.Fn, X0);
    std::vector<Constraint> Ante, Cons;
    if (D.DomLo)
      Ante.push_back(Constraint::le(*D.DomLo, X0));
    if (D.DomHi)
      Ante.push_back(Constraint::le(X0, *D.DomHi));
    if (D.RanLo)
      Cons.push_back(Constraint::le(*D.RanLo, F0));
    if (D.RanHi)
      Cons.push_back(Constraint::le(F0, *D.RanHi));
    if (Cons.empty())
      continue;
    Out.push_back(makeAssertion(labelBase(D), 1,
                                std::move(Ante), std::move(Cons)));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON loading
//===----------------------------------------------------------------------===//

static std::optional<Expr> boundFromJSON(const json::Value &V,
                                         std::string &Error) {
  if (V.isInt())
    return Expr(V.asInt());
  if (V.isString()) {
    ExprParseResult R = parseExpr(V.asString());
    if (!R.Ok) {
      Error = "bad bound expression '" + V.asString() + "': " + R.Error;
      return std::nullopt;
    }
    return R.E;
  }
  Error = "bound must be an integer or an expression string";
  return std::nullopt;
}

std::optional<PropertySet> PropertySet::fromJSON(const json::Value &V,
                                                 std::string &Error) {
  PropertySet Out;
  const json::Value *Arrays = V.get("index_arrays");
  if (!Arrays || !Arrays->isObject()) {
    Error = "missing 'index_arrays' object";
    return std::nullopt;
  }
  for (const auto &[Fn, Decl] : Arrays->asObject()) {
    if (!Decl.isObject()) {
      Error = "entry for '" + Fn + "' must be an object";
      return std::nullopt;
    }
    if (const json::Value *Props = Decl.get("properties")) {
      if (!Props->isArray()) {
        Error = "'properties' of '" + Fn + "' must be an array";
        return std::nullopt;
      }
      for (const json::Value &P : Props->asArray()) {
        std::string Kw;
        std::string Other;
        std::optional<Expr> GuardLo, GuardHi;
        PropertyTier Tier = PropertyTier::Declared;
        if (P.isString()) {
          Kw = P.asString();
        } else if (P.isObject()) {
          const json::Value *Kind = P.get("kind");
          if (!Kind || !Kind->isString()) {
            Error = "property object of '" + Fn + "' needs a 'kind'";
            return std::nullopt;
          }
          Kw = Kind->asString();
          if (const json::Value *Dom = P.get("domain")) {
            if (!Dom->isArray() || Dom->asArray().size() != 2) {
              Error = "property 'domain' of '" + Fn + "' must be [lo, hi)";
              return std::nullopt;
            }
            GuardLo = boundFromJSON(Dom->asArray()[0], Error);
            GuardHi = boundFromJSON(Dom->asArray()[1], Error);
            if (!GuardLo || !GuardHi)
              return std::nullopt;
          }
          for (const char *Key : {"segment", "upper", "ptr", "other"})
            if (const json::Value *O = P.get(Key)) {
              if (!O->isString()) {
                Error = std::string("property '") + Key + "' of '" + Fn +
                        "' must name an array";
                return std::nullopt;
              }
              Other = O->asString();
            }
          if (const json::Value *T = P.get("tier")) {
            if (!T->isString()) {
              Error = "property 'tier' of '" + Fn + "' must be a string";
              return std::nullopt;
            }
            std::optional<PropertyTier> PT = parsePropertyTier(T->asString());
            if (!PT) {
              Error = "unknown property tier '" + T->asString() + "' on '" +
                      Fn + "'";
              return std::nullopt;
            }
            Tier = *PT;
          }
        } else {
          Error = "property of '" + Fn + "' must be a string or object";
          return std::nullopt;
        }
        std::optional<PropertyKind> K = parsePropertyKind(Kw);
        if (!K) {
          Error = "unknown property kind '" + Kw + "' on '" + Fn + "'";
          return std::nullopt;
        }
        bool NeedsOther = *K == PropertyKind::PeriodicMonotonic ||
                          *K == PropertyKind::CoMonotonic ||
                          *K == PropertyKind::Triangular ||
                          *K == PropertyKind::TriangularEntriesLE ||
                          *K == PropertyKind::TriangularEntriesGE ||
                          *K == PropertyKind::TriangularEntriesLT ||
                          *K == PropertyKind::TriangularEntriesGT ||
                          *K == PropertyKind::SegmentPointer ||
                          *K == PropertyKind::SegmentStartIdentity;
        if (NeedsOther && Other.empty()) {
          Error = "property '" + Kw + "' on '" + Fn +
                  "' requires an auxiliary array "
                  "(segment/upper/ptr)";
          return std::nullopt;
        }
        IndexArrayProperty Prop{*K, Fn, Other, GuardLo, GuardHi, Tier};
        Out.add(std::move(Prop));
      }
    }
    DomainRangeDecl D;
    D.Fn = Fn;
    bool HasDR = false;
    if (const json::Value *Dom = Decl.get("domain")) {
      if (!Dom->isArray() || Dom->asArray().size() != 2) {
        Error = "'domain' of '" + Fn + "' must be [lo, hi]";
        return std::nullopt;
      }
      D.DomLo = boundFromJSON(Dom->asArray()[0], Error);
      D.DomHi = boundFromJSON(Dom->asArray()[1], Error);
      if (!D.DomLo || !D.DomHi)
        return std::nullopt;
      HasDR = true;
    }
    if (const json::Value *Ran = Decl.get("range")) {
      if (!Ran->isArray() || Ran->asArray().size() != 2) {
        Error = "'range' of '" + Fn + "' must be [lo, hi]";
        return std::nullopt;
      }
      D.RanLo = boundFromJSON(Ran->asArray()[0], Error);
      D.RanHi = boundFromJSON(Ran->asArray()[1], Error);
      if (!D.RanLo || !D.RanHi)
        return std::nullopt;
      HasDR = true;
    }
    if (HasDR)
      Out.addDomainRange(std::move(D));
  }
  return Out;
}

} // namespace ir
} // namespace sds
