//===- Trace.cpp - Tracing core: spans, counters, events ------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/obs/Trace.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "sds/support/OMP.h"

namespace sds {
namespace obs {

namespace detail {
std::atomic<bool> Enabled{false};

unsigned counterShardIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Idx = Next.fetch_add(1, std::memory_order_relaxed);
  return Idx;
}
} // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// The process-global registry. Constructed on first use and deliberately
/// leaked (avoids destruction-order races with static Counter handles).
struct Registry {
  std::mutex Mu;
  Clock::time_point Epoch = Clock::now();
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::vector<TraceEvent> Events;
  size_t Capacity = 1 << 20;
  std::atomic<uint64_t> Dropped{0};
  std::atomic<uint32_t> NextThreadId{0};
};

Registry &registry() {
  static Registry *R = new Registry();
  return *R;
}

uint32_t threadId() {
  // Inside an OpenMP parallel region, use the real omp_get_thread_num()
  // so Chrome traces of the inspector fleet and wavefront teams lay spans
  // out on their actual worker lanes (the master's lane 0 coincides with
  // the serial id 0, so serial and parallel spans of the main thread
  // share a row). Outside parallel regions, fall back to a stable
  // process-unique registration id.
#ifdef _OPENMP
  if (omp_in_parallel())
    return static_cast<uint32_t>(omp_get_thread_num());
#endif
  thread_local uint32_t Id =
      registry().NextThreadId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

} // namespace

void setEnabled(bool On) {
  (void)registry(); // establish the epoch before the first span
  detail::Enabled.store(On, std::memory_order_relaxed);
}

void clear() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Events.clear();
  R.Dropped.store(0, std::memory_order_relaxed);
  for (auto &[Name, C] : R.Counters)
    C->reset();
}

void setEventCapacity(size_t MaxEvents) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Capacity = MaxEvents;
}

uint64_t droppedEvents() {
  return registry().Dropped.load(std::memory_order_relaxed);
}

Counter &counter(std::string_view Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  auto It = R.Counters.find(Name);
  if (It == R.Counters.end())
    It = R.Counters
             .emplace(std::string(Name),
                      std::make_unique<Counter>(std::string(Name)))
             .first;
  return *It->second;
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           registry().Epoch)
          .count());
}

Span::Span(std::string_view Name, std::string_view Category)
    : Active(enabled()) {
  if (!Active)
    return;
  Ev.Name = Name;
  Ev.Category = Category;
  Ev.ThreadId = threadId();
  Ev.StartNs = nowNs();
}

void Span::tag(std::string_view Key, std::string_view Val) {
  if (Active)
    Ev.Tags.emplace_back(std::string(Key), std::string(Val));
}

void Span::tag(std::string_view Key, int64_t Val) {
  if (Active)
    Ev.Tags.emplace_back(std::string(Key), std::to_string(Val));
}

void Span::end() {
  if (!Active)
    return;
  Active = false;
  Ev.DurNs = nowNs() - Ev.StartNs;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  if (R.Events.size() >= R.Capacity) {
    R.Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  R.Events.push_back(std::move(Ev));
}

Span::~Span() { end(); }

std::vector<TraceEvent> snapshotEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return R.Events;
}

std::vector<std::pair<std::string, uint64_t>> snapshotCounters() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(R.Counters.size());
  for (const auto &[Name, C] : R.Counters)
    Out.emplace_back(Name, C->value());
  return Out;
}

} // namespace obs
} // namespace sds
