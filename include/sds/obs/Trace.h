//===- Trace.h - Tracing core: spans, counters, events ----------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The measurement substrate behind the paper's evaluation (Figures 7-10):
// scoped RAII timers ("spans") with key/value tags, process-wide monotonic
// counters, and a bounded thread-safe event buffer. Spans funnel into the
// Chrome trace-event exporter (Export.h); counters are the one registry
// of process-wide tallies, exported by the metrics snapshot (Metrics.h).
//
// Cost model: counters are always on, independent of tracing and of the
// metrics flag. add() is one relaxed fetch_add on a per-thread shard, so
// concurrent adds from an OpenMP team never share a cache line. Handles
// are meant to be cached in function-local statics so the name lookup
// happens once:
//
//   static obs::Counter &Pivots = obs::counter("simplex.pivots");
//   Pivots.add();
//
// Spans are *off* by default: a span checks one relaxed atomic load and
// is inert when tracing is disabled. They nest naturally (Chrome's viewer
// stacks same-thread events by time containment):
//
//   obs::Span S("pipeline.equalities", "deps");
//   S.tag("dep", D.label());
//
//===----------------------------------------------------------------------===//

#ifndef SDS_OBS_TRACE_H
#define SDS_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sds {
namespace obs {

namespace detail {
extern std::atomic<bool> Enabled;
/// Small dense per-thread index used to pick a counter shard. Stable for
/// the life of the thread; threads beyond the shard count wrap.
unsigned counterShardIndex();
} // namespace detail

/// Is tracing globally on? One relaxed load — safe to call anywhere.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Turn span recording on/off. Enabling does not clear prior data; use
/// clear(). Counters count either way.
void setEnabled(bool On);

/// Drop all recorded events and zero every counter. Counter handles stay
/// valid (the registry owns them for the life of the process).
void clear();

/// Cap on buffered span events (default 1M). Events past the cap are
/// counted in droppedEvents() instead of stored.
void setEventCapacity(size_t MaxEvents);
uint64_t droppedEvents();

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

/// A named monotonic counter, always on and sharded across cache lines.
/// add() is one relaxed fetch_add on this thread's shard; value() sums the
/// shards (exact: relaxed fetch_adds are never lost).
class Counter {
public:
  static constexpr unsigned kShards = 16;

  explicit Counter(std::string Name) : Name(std::move(Name)) {}
  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  void add(uint64_t N = 1) {
    Shards[detail::counterShardIndex() & (kShards - 1)].V.fetch_add(
        N, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t Sum = 0;
    for (const Shard &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }
  void reset() {
    for (Shard &S : Shards)
      S.V.store(0, std::memory_order_relaxed);
  }
  const std::string &name() const { return Name; }

private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> V{0};
  };
  std::string Name;
  Shard Shards[kShards];
};

/// Look up (or create) the registry counter with this name. The returned
/// reference is valid for the life of the process.
Counter &counter(std::string_view Name);

//===----------------------------------------------------------------------===//
// Span events
//===----------------------------------------------------------------------===//

/// One completed span, as stored in the event buffer. Times are
/// nanoseconds since the process trace epoch (first registry use).
struct TraceEvent {
  std::string Name;
  std::string Category;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t ThreadId = 0; ///< small per-thread id, stable within a run
  std::vector<std::pair<std::string, std::string>> Tags;
};

/// Nanoseconds since the trace epoch (monotonic clock).
uint64_t nowNs();

/// RAII scoped timer: records a TraceEvent covering its lifetime. When
/// tracing is disabled at construction the span is inert — no clock read,
/// no allocation, and tag() is a no-op.
class Span {
public:
  explicit Span(std::string_view Name, std::string_view Category = "sds");
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  Span(Span &&O) noexcept : Active(O.Active), Ev(std::move(O.Ev)) {
    O.Active = false;
  }

  void tag(std::string_view Key, std::string_view Val);
  void tag(std::string_view Key, int64_t Val);

  /// Close the span early (records the event once; the destructor then
  /// does nothing).
  void end();

private:
  bool Active;
  TraceEvent Ev;
};

/// Snapshot of all buffered events (copy; safe while tracing continues).
std::vector<TraceEvent> snapshotEvents();

/// Snapshot of all registered counters as (name, value), name-sorted.
std::vector<std::pair<std::string, uint64_t>> snapshotCounters();

} // namespace obs
} // namespace sds

#endif // SDS_OBS_TRACE_H
