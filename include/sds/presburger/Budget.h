//===- Budget.h - Resource budgets for the decision procedures --*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Hard ceilings on how long the Presburger machinery may think. Two knobs:
//
//  * A per-solve pivot budget on the exact-rational Simplex. Bland's rule
//    already guarantees termination, but on pathological systems "finite"
//    can still mean minutes; past the budget a solve returns
//    LPStatus::Error, which every caller already maps to the conservative
//    Ternary::Unknown ("could not prove", never "proved").
//
//  * A thread-local wall-clock deadline consulted by BasicSet::isEmpty /
//    isSubsetOf / detectImplicitEqualities and by every branch-and-bound
//    node. Past the deadline those queries answer Unknown immediately.
//    Install it with the RAII ScopedDeadline; deps::analyzeKernel does so
//    per dependence when PipelineOptions::AnalysisBudgetMs is set.
//
// Soundness direction: budget exhaustion can only ever *weaken* a verdict
// to Unknown. The pipeline treats Unknown as satisfiable, so an exhausted
// budget keeps a dependence (and its runtime inspector) — it can never
// drop an edge, and it can never hang.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PRESBURGER_BUDGET_H
#define SDS_PRESBURGER_BUDGET_H

#include <cstdint>

namespace sds {
namespace presburger {

/// Per-solve cap on Simplex pivots. The default (1M) is far above anything
/// the dependence relations of Table 2 produce (hundreds at most); it is a
/// backstop against adversarial inputs, not a tuning knob. 0 restores the
/// default.
void setPivotBudget(uint64_t MaxPivotsPerSolve);
uint64_t pivotBudget();

/// Process-wide count of solves that hit the pivot budget: the
/// "simplex.budget_exhausted" obs counter (reset by clearQueryCache()).
uint64_t pivotBudgetExhaustions();
void notePivotBudgetExhaustion(); // internal, called by Simplex

/// Thread-local absolute deadline in nanoseconds of the steady clock
/// (obs::nowNs() epoch). 0 means "no deadline".
uint64_t currentDeadlineNs();

/// True when a deadline is installed on this thread and has passed. One
/// clock read; callers sprinkle it at node granularity, not per row.
bool deadlineExpired();

/// Process-wide count of queries that answered Unknown because the
/// deadline had passed: the "basicset.deadline_exhausted" obs counter
/// (reset by clearQueryCache()).
uint64_t deadlineExhaustions();
void noteDeadlineExhaustion(); // internal, called by BasicSet

/// Zero both exhaustion counters (invoked by clearQueryCache() alongside
/// the prefilter/cache counters, so bench reports stay reproducible).
void resetBudgetCounters();

/// Installs a deadline for the current scope and restores the previous
/// one on destruction (deadlines nest; the innermost wins only if it is
/// earlier — a nested scope can never extend an outer deadline).
class ScopedDeadline {
public:
  /// Absolute deadline, nanoseconds on the obs::nowNs() clock.
  explicit ScopedDeadline(uint64_t AbsDeadlineNs);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

  /// Convenience: a deadline `Seconds` from now.
  static uint64_t fromNow(double Seconds);

private:
  uint64_t Prev;
};

} // namespace presburger
} // namespace sds

#endif // SDS_PRESBURGER_BUDGET_H
