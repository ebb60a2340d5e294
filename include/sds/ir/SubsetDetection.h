//===- SubsetDetection.h - Dependence subsumption (§5) ----------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// §5 of the paper: a runtime dependence test R2 may be discarded when its
// manifestation set is contained in another test R1's — the inspector for
// R1 already inserts every edge R2 would.
//
// Algorithm (the paper's Ackermann-project-compare, §5.2, with explicit
// soundness refinements — see DESIGN.md §6):
//
//  1. Both relations must share the source iteration space (same input
//     tuple) and the sink's outer iterator; otherwise no claim is made.
//  2. The *kept* relation R1 eliminates its non-outer sink iterators only
//     through unit-coefficient equality substitutions — an exact step; if
//     any survive, we refuse to subsume (Unknown), because FM projection
//     could otherwise over-approximate the side that must stay exact.
//  3. The *discarded* relation R2 eliminates what it can the same way and
//     then simply drops constraints that still mention leftover sink
//     iterators (pure relaxation: only ever enlarges R2's set, which is
//     the sound direction for the subset side).
//  4. Both residues are lowered over one shared column space (structurally
//     identical UF calls share a column — the Ackermann reduction with
//     maximal term sharing) and compared with the polyhedral subset test.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_IR_SUBSETDETECTION_H
#define SDS_IR_SUBSETDETECTION_H

#include "sds/ir/Relation.h"
#include "sds/presburger/BasicSet.h"

namespace sds {
namespace ir {

/// Does keeping `Kept`'s runtime test make `Discarded`'s test redundant?
/// True only when proven; Unknown means "keep both tests" (sound).
presburger::Ternary subsumes(const SparseRelation &Kept,
                             const SparseRelation &Discarded);

/// Helper shared with subsumption: substitute away every variable in
/// `Vars` that is pinned by a unit-coefficient equality (at any position,
/// including inside UF call arguments of other constraints). Returns the
/// names that could not be eliminated.
std::vector<std::string> eliminateDeterminedVars(SparseRelation &R,
                                                 std::vector<std::string> Vars);

} // namespace ir
} // namespace sds

#endif // SDS_IR_SUBSETDETECTION_H
