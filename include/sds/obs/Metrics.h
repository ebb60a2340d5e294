//===- Metrics.h - Metrics registry: counters, gauges, histograms -*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The quantitative half of sds::obs (spans/events live in Trace.h): a
// process-wide registry of
//
//  * Gauge — last-written level values (doubles), plus *gauge sources*:
//    registered callbacks polled at snapshot time, which is how
//    per-instance tallies (EngineStats, StoreStats, ServerStats) and
//    levels such as the verdict cache's occupancy surface live without a
//    second bookkeeping path (multiple sources registered under one name
//    sum, so N engines aggregate naturally),
//  * Histogram — log-bucketed distributions (8 sub-buckets per power of
//    two, <= 12.5% relative bucket width) exposing count / sum / min /
//    max and interpolated p50 / p95 / p99. The name carries the unit: a
//    "*_ns" histogram holds nanoseconds and exports in milliseconds,
//    any other exports the raw recorded values.
//
// One tally, one place: a process-wide count is an obs::Counter
// (Trace.h), always on; a per-instance count is a field of its owner's
// Stats struct, surfaced here through one gauge source per field. The
// snapshot exports both, so nothing is counted twice.
//
// Cost model: gauges and histograms are off until setMetricsEnabled
// (driven by --metrics or SDS_METRICS), and every record path is one
// relaxed load + early return when disabled. Counters ignore the flag.
// Handles are cached in function-local statics:
//
//   static obs::Histogram &H = obs::histogram("engine.plan.hit_ns");
//   obs::ScopedLatency T(H);      // records on scope exit, inert when off
//
// Exporters: metricsJSON() (schema-versioned sds::json snapshot, shares
// schema::kStageKeys for the per-stage view) and prometheusText() (text
// exposition format; histograms export as summaries with quantile
// labels). writeMetrics() picks the format from the path suffix
// (".prom" -> Prometheus, anything else -> JSON).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_OBS_METRICS_H
#define SDS_OBS_METRICS_H

#include "sds/support/JSON.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sds {
namespace obs {

namespace detail {
extern std::atomic<bool> MetricsEnabled;
} // namespace detail

/// Is metrics recording globally on? One relaxed load.
inline bool metricsEnabled() {
  return detail::MetricsEnabled.load(std::memory_order_relaxed);
}

/// Turn gauge and histogram recording on/off. Enabling does not clear
/// prior data; use resetMetrics(). Counters count either way.
void setMetricsEnabled(bool On);

//===----------------------------------------------------------------------===//
// Gauges
//===----------------------------------------------------------------------===//

/// A named level value (set/read, not accumulated). Doubles so ratios
/// (cache hit rates) and counts share one type.
class Gauge {
public:
  explicit Gauge(std::string Name) : Name(std::move(Name)) {}
  Gauge(const Gauge &) = delete;
  Gauge &operator=(const Gauge &) = delete;

  void set(double V) {
    if (metricsEnabled())
      Bits.store(encode(V), std::memory_order_relaxed);
  }
  double value() const { return decode(Bits.load(std::memory_order_relaxed)); }
  void reset() { Bits.store(encode(0.0), std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

private:
  static uint64_t encode(double V) {
    uint64_t B;
    static_assert(sizeof(B) == sizeof(V));
    __builtin_memcpy(&B, &V, sizeof(B));
    return B;
  }
  static double decode(uint64_t B) {
    double V;
    __builtin_memcpy(&V, &B, sizeof(V));
    return V;
  }
  std::string Name;
  std::atomic<uint64_t> Bits{0};
};

Gauge &gauge(std::string_view Name);

/// Register a callback polled at snapshot time. Sources registered under
/// the same name are summed (N live engines aggregate into one gauge).
/// Always polled regardless of the enabled flag — sources wrap always-on
/// tallies, the snapshot is the only cost. Returns a handle for
/// unregisterGaugeSource (call it before the callback's captures die,
/// e.g. from the owning object's destructor).
uint64_t registerGaugeSource(std::string Name, std::function<double()> Fn);
void unregisterGaugeSource(uint64_t Handle);

/// The gauge sources of one object, unregistered together when it is
/// destroyed. Declare it as the owner's last member so it goes first.
class GaugeSources {
public:
  GaugeSources() = default;
  ~GaugeSources();
  GaugeSources(const GaugeSources &) = delete;
  GaugeSources &operator=(const GaugeSources &) = delete;

  void add(std::string Name, std::function<double()> Fn) {
    Handles.push_back(registerGaugeSource(std::move(Name), std::move(Fn)));
  }

  /// One source per field of a per-instance Stats struct: `Read` returns
  /// a consistent copy of the struct (typically under the owner's lock).
  template <typename StatsT, typename ReadFn>
  void addFields(
      std::initializer_list<std::pair<const char *, uint64_t StatsT::*>>
          Fields,
      ReadFn Read) {
    for (const auto &[Name, Field] : Fields)
      add(Name, [Read, F = Field] { return static_cast<double>(Read().*F); });
  }

private:
  std::vector<uint64_t> Handles;
};

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

/// A log-bucketed distribution of nonnegative integer samples. The name
/// carries the unit: "*_ns" histograms hold nanoseconds and the snapshot
/// converts them to milliseconds; any other unit (rows, bytes) exports
/// as recorded. Buckets: exact below 16, then 8 log-linear sub-buckets
/// per power of two up to 2^64, so every recorded value lands in a
/// bucket at most 12.5% wide. record() is one relaxed
/// fetch_add on the bucket plus relaxed min/max updates; no locks.
class Histogram {
public:
  static constexpr unsigned kSubBits = 3;
  static constexpr unsigned kSub = 1u << kSubBits; // 8 sub-buckets/octave
  // Index 0..2*kSub-1 exact; top octave (msb 63) ends at (63-kSubBits+1)
  // *kSub + (kSub-1).
  static constexpr unsigned kBuckets = (64 - kSubBits) * kSub + kSub;

  explicit Histogram(std::string Name) : Name(std::move(Name)) {}
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Which bucket a value lands in. Pure (exposed for the unit tests).
  static unsigned bucketOf(uint64_t V) {
    if (V < 2 * kSub)
      return static_cast<unsigned>(V);
    unsigned Msb = 63u - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Sub =
        static_cast<unsigned>(V >> (Msb - kSubBits)) & (kSub - 1);
    return (Msb - kSubBits + 1) * kSub + Sub;
  }
  /// Inclusive lower bound of a bucket (the inverse of bucketOf).
  static uint64_t bucketLo(unsigned Idx) {
    if (Idx < 2 * kSub)
      return Idx;
    unsigned Octave = Idx >> kSubBits; // >= 2
    uint64_t Sub = Idx & (kSub - 1);
    return (kSub + Sub) << (Octave - 1);
  }

  void record(uint64_t V) {
    if (!metricsEnabled())
      return;
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    atomicMin(Min, V);
    atomicMax(Max, V);
  }

  uint64_t count() const;
  /// Interpolated quantile in the recorded unit. Q in [0,1].
  /// Relative error bounded by the bucket width (<= 12.5%).
  double quantile(double Q) const;
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const { return Min.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }

  void reset();
  const std::string &name() const { return Name; }

  /// Nonzero buckets as (lower bound, count), ascending (for tests and
  /// the JSON snapshot's bucket dump).
  std::vector<std::pair<uint64_t, uint64_t>> nonzeroBuckets() const;

private:
  static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V < Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (V > Cur &&
           !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  std::string Name;
  std::atomic<uint64_t> Buckets[kBuckets] = {};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

Histogram &histogram(std::string_view Name);

/// RAII latency sampler: records the scope's duration (ns) into `H` on
/// destruction. Inert (no clock read) when metrics are disabled at
/// construction.
class ScopedLatency {
public:
  explicit ScopedLatency(Histogram &H);
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency &) = delete;
  ScopedLatency &operator=(const ScopedLatency &) = delete;

  /// Stop and record now (the destructor then does nothing).
  void stop();

private:
  Histogram *H; ///< null once recorded or when disabled
  uint64_t StartNs = 0;
};

//===----------------------------------------------------------------------===//
// Snapshots and exporters
//===----------------------------------------------------------------------===//

/// One histogram's summary. A "*_ns" histogram's values are converted to
/// milliseconds (InMs); any other histogram's are in its recorded unit.
struct HistogramSnapshot {
  std::string Name;
  bool InMs = false;
  uint64_t Count = 0;
  double Sum = 0, Min = 0, Max = 0;
  double P50 = 0, P95 = 0, P99 = 0;
};

/// A coherent copy of the whole registry: every obs::Counter and gauge
/// name-sorted, gauge sources polled and folded in, histograms with
/// precomputed quantiles.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, double>> Gauges;
  std::vector<HistogramSnapshot> Histograms;
};

MetricsSnapshot snapshotMetrics();

/// Schema-versioned JSON snapshot:
/// { schema_version, kind:"metrics_snapshot", counters, gauges,
///   histograms: {name: {count, sum_ms, min_ms, max_ms, p50_ms, p95_ms,
///   p99_ms}}, stage_seconds: {<schema::kStageKeys>: s} }
/// A histogram not named "*_ns" has the keys sum, min, max, p50, p95 and
/// p99 instead, in its recorded unit. stage_seconds is filled from the
/// "pipeline.stage.<key>_ns" histograms (zero when a stage never ran) so
/// dashboards can index the Figure-3 stages without existence checks.
json::Value metricsReport();
std::string metricsJSON();

/// Prometheus text exposition format. Names are sanitized
/// (non-[a-zA-Z0-9_] -> '_', "sds_" prefix); histograms export as
/// summaries (quantile labels; "*_ns" ones in seconds, others in their
/// recorded unit), counters get a _total suffix; label values escape
/// backslash, double-quote, and newline per the spec.
std::string prometheusText();

/// Write the snapshot to Path ("-" -> stdout; ".prom" suffix ->
/// Prometheus text, else JSON). Returns false on I/O failure.
bool writeMetrics(const std::string &Path);

/// Zero every counter, gauge, and histogram and clear the flight
/// recorder and the Trace.h event buffer, so one call gives a bench
/// configuration a clean measurement slate. Registered handles and gauge
/// sources survive.
void resetMetrics();

} // namespace obs
} // namespace sds

#endif // SDS_OBS_METRICS_H
