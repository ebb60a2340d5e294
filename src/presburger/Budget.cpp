//===- Budget.cpp - Resource budgets for the decision procedures ----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/Budget.h"

#include "sds/obs/Trace.h"

#include <atomic>

namespace sds {
namespace presburger {

namespace {

constexpr uint64_t DefaultPivotBudget = 1'000'000;

std::atomic<uint64_t> PivotBudget{DefaultPivotBudget};

thread_local uint64_t DeadlineNs = 0;

obs::Counter &pivotExhaustionCounter() {
  static obs::Counter &C = obs::counter("simplex.budget_exhausted");
  return C;
}

obs::Counter &deadlineExhaustionCounter() {
  static obs::Counter &C = obs::counter("basicset.deadline_exhausted");
  return C;
}

} // namespace

void setPivotBudget(uint64_t MaxPivotsPerSolve) {
  PivotBudget.store(MaxPivotsPerSolve ? MaxPivotsPerSolve
                                      : DefaultPivotBudget,
                    std::memory_order_relaxed);
}

uint64_t pivotBudget() { return PivotBudget.load(std::memory_order_relaxed); }

uint64_t pivotBudgetExhaustions() { return pivotExhaustionCounter().value(); }

void notePivotBudgetExhaustion() { pivotExhaustionCounter().add(); }

uint64_t currentDeadlineNs() { return DeadlineNs; }

bool deadlineExpired() {
  return DeadlineNs != 0 && obs::nowNs() >= DeadlineNs;
}

uint64_t deadlineExhaustions() { return deadlineExhaustionCounter().value(); }

void noteDeadlineExhaustion() { deadlineExhaustionCounter().add(); }

void resetBudgetCounters() {
  pivotExhaustionCounter().reset();
  deadlineExhaustionCounter().reset();
}

ScopedDeadline::ScopedDeadline(uint64_t AbsDeadlineNs) : Prev(DeadlineNs) {
  // Never let a nested scope push an outer deadline later.
  if (AbsDeadlineNs != 0 && (Prev == 0 || AbsDeadlineNs < Prev))
    DeadlineNs = AbsDeadlineNs;
}

ScopedDeadline::~ScopedDeadline() { DeadlineNs = Prev; }

uint64_t ScopedDeadline::fromNow(double Seconds) {
  if (Seconds <= 0)
    return 1; // already expired (but nonzero, so it counts as installed)
  return obs::nowNs() + static_cast<uint64_t>(Seconds * 1e9);
}

} // namespace presburger
} // namespace sds
