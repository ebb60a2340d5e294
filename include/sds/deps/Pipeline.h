//===- Pipeline.h - The Figure-3 analysis pipeline --------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end compile-time flow of Figure 3:
//
//   extract dependences -> discard affine-unsat -> discard property-unsat
//   -> discover equalities (simplify) -> discard subset-subsumed
//   -> synthesize one inspector per surviving dependence.
//
// The result records, per dependence, its fate and its inspector
// complexity before/after simplification — exactly the data behind
// Figures 7/8 and Table 3.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_DEPS_PIPELINE_H
#define SDS_DEPS_PIPELINE_H

#include "sds/codegen/Inspector.h"
#include "sds/deps/Extraction.h"
#include "sds/ir/Simplify.h"
#include "sds/kernels/Kernels.h"
#include "sds/obs/Provenance.h"

#include <map>

namespace sds {
namespace deps {

/// What happened to one extracted dependence.
enum class DepStatus {
  AffineUnsat,   ///< refuted with no domain knowledge (Fig. 7 baseline)
  PropertyUnsat, ///< refuted using index-array properties (§2.2)
  Subsumed,      ///< runtime test covered by another (§5)
  Runtime,       ///< needs a runtime inspector
};

std::string depStatusName(DepStatus S);

/// Analysis record for one dependence.
struct AnalyzedDependence {
  Dependence Dep;
  DepStatus Status = DepStatus::Runtime;
  ir::SparseRelation Simplified;     ///< after equality discovery
  unsigned NewEqualities = 0;        ///< §4 equalities added
  codegen::Complexity CostBefore;    ///< inspector cost, original relation
  codegen::Complexity CostAfter;     ///< inspector cost, simplified
  std::string SubsumedBy;            ///< label of the covering dependence
  codegen::InspectorPlan Plan;       ///< runtime inspector (Status Runtime)
  bool Approximated = false;         ///< plan over-approximates (§8.1)
  /// Which stage decided this dependence's fate, and why: the refuting
  /// property instances, the discovered equalities, or the covering
  /// dependence (see obs/Provenance.h).
  obs::Provenance Prov;
  /// The property assertions this dependence's verdict (or simplified
  /// relation) depends on. Populated for every analyzed dependence:
  ///  * AffineUnsat / PropertyUnsat — the unsat proof's core;
  ///  * Runtime with discovered equalities — the instances the rewrite
  ///    applied (coarse but sound);
  ///  * Runtime without rewrites, Subsumed of an unrewritten relation —
  ///    empty (nothing property-dependent: the inspector enumerates the
  ///    original relation and subsumption keys on the keeper's original).
  /// A guard needs to validate only the union of these per-dependence
  /// cores. Every dependence carries one; the artifact decoder rejects a
  /// dependence without it.
  ir::UnsatCore Core;
  /// Speculation accounting (populated only by speculative analyses): the
  /// assertion-label bases of *Inferred*-tier properties this dependence's
  /// core cites. Non-empty means the verdict (or rewrite) leans on
  /// speculation: the guard must treat each cited base as a remedy —
  /// validate it on the actual run-time arrays and revoke exactly this
  /// dependence (via its baseline path) when the check fails.
  std::vector<std::string> InferredCited;
  /// True when `InferredCited` is non-empty — the elimination/rewrite is
  /// justified (at least partly) by speculation and carries a remedy.
  bool Remediable = false;
};

/// Pipeline switches (used by the ablation benches).
struct PipelineOptions {
  ir::SimplifyOptions Simp;
  bool UseProperties = true; ///< §2.2 unsat detection
  bool UseEqualities = true; ///< §4 equality discovery
  bool UseSubsets = true;    ///< §5 subsumption
  /// §8.1 escape hatch: over-approximate any surviving check that is
  /// still costlier than the kernel down to the kernel's own complexity
  /// (its inspector then reports a superset of the true dependences).
  bool ApproximateExpensive = false;
  /// Per-kernel wall-clock budget for the whole analysis, in
  /// milliseconds; 0 disables. Past the deadline every undecided
  /// Presburger query answers Unknown and the remaining proof stages are
  /// skipped, so each still-open dependence is *kept* with a runtime
  /// inspector (provenance stage "budget-exhausted"). Exhaustion is
  /// strictly conservative — a dependence can gain an inspector it did
  /// not need, never lose one it did — but which dependences are affected
  /// depends on timing, so the bit-identical determinism guarantees above
  /// hold only with the budget disabled (the default).
  double AnalysisBudgetMs = 0;
  /// Worker threads for the per-dependence fan-out (affine/property
  /// refutation and equality discovery run concurrently across
  /// dependences; extraction, subsumption, and codegen stay ordered
  /// serial barriers). Results are bit-identical at any value: each
  /// dependence's analysis is independent, results merge in relation
  /// order, and the shared Presburger verdict cache only memoizes
  /// deterministic facts. <=1 means serial.
  int NumThreads = 1;
  /// Speculation mode: union `InferredProps` (tier Inferred, from
  /// sds::infer) with the kernel's declared properties before the
  /// simplification ladder runs, then record per dependence which
  /// inferred assertions its unsat core cites (`InferredCited` /
  /// `Remediable`). The result's Kernel carries the *union* set, so the
  /// guard and artifact layers see the speculated trust base with its
  /// tiers intact.
  bool Speculate = false;
  ir::PropertySet InferredProps;
};

/// Full analysis of one kernel.
struct PipelineResult {
  kernels::Kernel Kernel;
  codegen::Complexity KernelCost; ///< cost of the computation itself
  std::vector<AnalyzedDependence> Deps;

  /// Wall-clock seconds per Figure-3 stage, accumulated over all
  /// dependences. Always populated (independent of obs tracing). Keys:
  /// extraction, affine_unsat, property_unsat, equality_discovery,
  /// subsumption, codegen.
  std::map<std::string, double> StageSeconds;

  unsigned count(DepStatus S) const {
    unsigned N = 0;
    for (const AnalyzedDependence &D : Deps)
      N += D.Status == S ? 1 : 0;
    return N;
  }
  /// Runtime checks whose inspector is costlier than the kernel — the
  /// "expensive" split in Figure 8.
  unsigned countExpensiveRuntime(bool Simplified) const;

  std::string summary() const;

  /// Machine-readable report: kernel, per-dependence status, costs,
  /// discovered equalities, and generated inspector C code. Parseable by
  /// sds::json (round-trip tested).
  std::string toJSON() const;
};

/// Run the Figure-3 pipeline on a kernel with its declared properties.
PipelineResult analyzeKernel(const kernels::Kernel &K,
                             const PipelineOptions &Opts = {});

} // namespace deps
} // namespace sds

#endif // SDS_DEPS_PIPELINE_H
