//===- Infer.h - Speculative property inference -----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Inverts the property flow: instead of requiring hand-declared index-array
// properties (Table 1), inference *proposes* candidate properties over the
// concrete arrays bound in a codegen::UFEnvironment for every PropertyKind
// that could hold on this input — monotonicity (all four kinds),
// injectivity, periodic monotonicity, co-monotonicity, triangularity and
// the four entry-bound relations, segment pointers, segment-start
// identities (with maximal-range shrinking to a domain guard when the full
// domain fails), and domain/range declarations snapped to symbolic
// parameters — and confirms each one with guard::checkProperty, so it
// confirms exactly what the guard later checks. Only the search for a
// SegmentStartIdentity range is inference's own.
//
// Confirmed candidates carry ir::PropertyTier::Inferred: downstream they
// are speculation, not knowledge. The pipeline unions them with declared
// properties and records which inferred assertions each elimination's
// unsat core cites; the guard then treats those citations as *remedies* —
// always validated against the actual run-time arrays, with per-dependence
// revocation (not whole-analysis fallback) on misspeculation. Candidates
// that fail the profile are kept with PropertyTier::Refuted for
// provenance; they never expand into solver assertions.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_INFER_INFER_H
#define SDS_INFER_INFER_H

#include "sds/codegen/Inspector.h"
#include "sds/ir/Properties.h"

#include <cstdint>
#include <string>

namespace sds {
namespace infer {

/// What one inference pass concluded about an environment.
struct InferenceResult {
  /// Confirmed candidates, every entry tier Inferred. Union this with the
  /// kernel's declared set (declared wins on duplicates) to speculate.
  ir::PropertySet Confirmed;
  /// Disconfirmed candidates, tier Refuted: provenance only — they never
  /// expand into assertions and the guard never checks them.
  ir::PropertySet Refuted;

  unsigned Proposed = 0;      ///< candidates examined
  unsigned ConfirmedCount = 0;
  unsigned RefutedCount = 0;
  unsigned DomainsShrunk = 0; ///< guarded variants found by range shrinking
  uint64_t Positions = 0;     ///< array positions examined (cost witness)
  double Seconds = 0;

  /// FNV-1a64 over the sorted confirmed assertion-label bases and guard
  /// renderings: two environments whose profiles confirm the same
  /// properties share a fingerprint. 0 only when nothing was confirmed.
  uint64_t fingerprint() const;

  /// "12 proposed, 9 confirmed, 3 refuted (1 domain-shrunk)".
  std::string summary() const;
};

/// Profile every span-bound array of `Env` and propose/confirm candidate
/// properties. Deterministic: arrays are visited in name order and every
/// verdict depends only on the bound data and parameters. Cost is
/// O(n + nnz) per candidate (the guard's work cap bounds each check) with
/// a constant number of candidates per array pair. Emits
/// `infer.props_proposed`, `infer.props_confirmed`, `infer.props_refuted`
/// and `infer.domains_shrunk` counters plus one flight event per pass.
InferenceResult inferProperties(const codegen::UFEnvironment &Env);

} // namespace infer
} // namespace sds

#endif // SDS_INFER_INFER_H
