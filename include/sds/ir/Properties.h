//===- Properties.h - Index-array properties as assertions ------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Domain-specific knowledge about index arrays (Table 1 of the paper),
// expressed as universally quantified assertions
//
//   forall x: antecedent(x) => consequent(x)
//
// over reserved quantified variables. Each user-declared property expands
// into several assertions (the base implication plus its valid
// contrapositives and weakenings), which maximizes the number of phase-1
// "antecedent already present" hits during instantiation (§6.2).
//
// Properties are declared programmatically or loaded from the JSON files
// the paper's pipeline takes as input (Figure 3).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_PROPERTIES_H
#define SDS_IR_PROPERTIES_H

#include "sds/ir/Relation.h"
#include "sds/support/JSON.h"

#include <optional>
#include <string>
#include <vector>

namespace sds {
namespace ir {

/// A universally quantified assertion: forall QVars, Antecedent =>
/// Consequent. QVars use reserved names ("__q0", "__q1", ...) so they can
/// never collide with relation variables.
struct UniversalAssertion {
  std::string Label; ///< e.g. "strict_monotonic_increasing(rowptr) [contra]"
  std::vector<std::string> QVars;
  Conjunction Antecedent;
  Conjunction Consequent;

  std::string str() const;
};

/// The kinds of index-array properties from Table 1.
enum class PropertyKind {
  MonotonicIncreasing,       ///< x1 <= x2 => f(x1) <= f(x2)
  StrictMonotonicIncreasing, ///< x1 <  x2 => f(x1) <  f(x2)
  MonotonicDecreasing,       ///< x1 <= x2 => f(x1) >= f(x2)
  StrictMonotonicDecreasing, ///< x1 <  x2 => f(x1) >  f(x2)
  Injective,                 ///< f(x1) == f(x2) => x1 == x2
  PeriodicMonotonic,         ///< within each [Seg(x1), Seg(x1+1)) window,
                             ///< f is strictly increasing
  CoMonotonic,               ///< f(x) <= Other(x) for all x
  Triangular,                ///< f(x1) < x2 => x1 < Other(x2)  (Table 1 form)
  TriangularEntriesLE,       ///< Ptr(x1) <= x2 < Ptr(x1+1) => f(x2) <= x1
                             ///< (e.g. col of a lower-triangular CSR)
  TriangularEntriesGE,       ///< Ptr(x1) <= x2 < Ptr(x1+1) => f(x2) >= x1
                             ///< (e.g. rowidx of a lower-triangular CSC)
  TriangularEntriesLT,       ///< Ptr(x1) <= x2 < Ptr(x1+1) => f(x2) < x1
                             ///< (strictly-below entries, e.g. prune sets)
  TriangularEntriesGT,       ///< Ptr(x1) <= x2 < Ptr(x1+1) => f(x2) > x1
                             ///< (strictly-above entries, e.g. off-diagonal
                             ///< rows of a unit lower-triangular CSC)
  SegmentPointer,            ///< Ptr(x) <= f(x) < Ptr(x+1): f picks one
                             ///< position inside segment x (diag arrays)
  SegmentStartIdentity,      ///< f(Ptr(x)) == x on the declared domain:
                             ///< the first entry of segment x indexes x
                             ///< itself (diagonal-first triangular CSC)
};

/// Parse a property-kind keyword, e.g. "strict_monotonic_increasing".
std::optional<PropertyKind> parsePropertyKind(std::string_view Keyword);
std::string propertyKindName(PropertyKind K);

/// Where a property assertion came from — its trust tier. Declared
/// properties are hand-written per kernel and may be trusted by guard
/// policy; Inferred properties were proposed by the sds::infer profiler
/// from one observed environment and must ALWAYS be validated before the
/// speculated plan runs; Refuted marks a candidate the profiler
/// disconfirmed (kept only for provenance/diagnostics — never expanded
/// into solver assertions).
enum class PropertyTier {
  Declared,
  Inferred,
  Refuted,
};

/// Parse/print a tier keyword: "declared" | "inferred" | "refuted".
std::optional<PropertyTier> parsePropertyTier(std::string_view Keyword);
std::string propertyTierName(PropertyTier T);

/// One declared property of a specific index array.
struct IndexArrayProperty {
  PropertyKind K;
  std::string Fn;    ///< The array the property describes.
  std::string Other; ///< Auxiliary array (segment/ptr/upper) where needed.
  /// Domain guard for properties that are only valid on a range of the
  /// quantified variable (e.g. SegmentStartIdentity holds for x in
  /// [GuardLo, GuardHi) only — outside it, Ptr(x+...) leaves the array).
  std::optional<Expr> GuardLo, GuardHi;
  /// Provenance: defaulted so every existing aggregate init stays a
  /// declared property.
  PropertyTier Tier = PropertyTier::Declared;
};

/// Declared domain/range bounds of an index array (Table 1 "Domain &
/// Range"): forall x, Dl <= x <= Du => Rl <= f(x) <= Ru. Bounds are
/// expressions over symbolic parameters (e.g. 0, n, nnz). Unset bounds are
/// omitted from the assertion.
struct DomainRangeDecl {
  std::string Fn;
  std::optional<Expr> DomLo, DomHi, RanLo, RanHi;
  PropertyTier Tier = PropertyTier::Declared;
};

/// The assertion-label base of a declaration: "kind(fn)", "kind(fn,
/// other)" or "domain_range(fn)". It prefixes every UniversalAssertion::
/// Label that assertions() emits for the declaration, so unsat cores,
/// guard checks and inference fingerprints all name a property by it.
std::string labelBase(const IndexArrayProperty &P);
std::string labelBase(const DomainRangeDecl &D);
/// The base of an assertion or unsat-core label: the label minus its
/// application-mode suffix (" [contrapositive]", " [disjunctive]", ...).
/// This is the granularity at which cores are minimized, inferred
/// citations are recorded and guards validate.
std::string labelBase(const std::string &Label);

/// The user-supplied environment of index-array knowledge for one kernel.
class PropertySet {
public:
  void add(IndexArrayProperty P) { Props.push_back(std::move(P)); }
  void add(PropertyKind K, std::string Fn, std::string Other = "") {
    Props.push_back({K, std::move(Fn), std::move(Other), {}, {}});
  }
  void add(PropertyKind K, std::string Fn, std::string Other, Expr GuardLo,
           Expr GuardHi) {
    Props.push_back({K, std::move(Fn), std::move(Other), std::move(GuardLo),
                     std::move(GuardHi)});
  }
  void addDomainRange(DomainRangeDecl D) { Decls.push_back(std::move(D)); }

  const std::vector<IndexArrayProperty> &properties() const { return Props; }
  const std::vector<DomainRangeDecl> &domainRanges() const { return Decls; }

  /// Keep only properties of the given kinds (used by the Figure-7 study
  /// that measures each property class in isolation).
  PropertySet filtered(const std::vector<PropertyKind> &Kinds) const;

  /// Union of this set with `Other`, skipping entries of `Other` whose
  /// assertion-label base is already present here (declared knowledge wins
  /// over inferred duplicates — call on the declared set). Refuted entries
  /// of `Other` are carried through for provenance but never expand into
  /// assertions.
  PropertySet unioned(const PropertySet &Other) const;

  /// The trust tier of the property/declaration whose assertion-label base
  /// is `Base` (e.g. "monotonic_increasing(rowptr)" or
  /// "domain_range(col)"). std::nullopt when no entry produces that base.
  std::optional<PropertyTier> tierForLabelBase(const std::string &Base) const;

  /// Expand every declaration into universally quantified assertions.
  /// Refuted-tier entries are skipped: a disconfirmed candidate must never
  /// reach the solver.
  std::vector<UniversalAssertion> assertions() const;

  /// Load from the JSON shape consumed by the paper's pipeline:
  ///   { "index_arrays": { "rowptr": { "properties": [...],
  ///                                   "domain": [lo, hi],
  ///                                   "range": [lo, hi] }, ... } }
  /// Property entries are either keyword strings or objects such as
  ///   {"kind": "periodic_monotonic", "segment": "rowptr"}
  ///   {"kind": "co_monotonic", "upper": "diagptr"}
  ///   {"kind": "triangular_entries_le", "ptr": "rowptr"}.
  /// Returns std::nullopt and fills `Error` on malformed input.
  static std::optional<PropertySet> fromJSON(const json::Value &V,
                                             std::string &Error);

private:
  std::vector<IndexArrayProperty> Props;
  std::vector<DomainRangeDecl> Decls;
};

} // namespace ir
} // namespace sds

#endif // SDS_IR_PROPERTIES_H
