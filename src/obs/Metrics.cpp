//===- Metrics.cpp - Metrics registry: counters, gauges, histograms -------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/obs/Metrics.h"

#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Trace.h"
#include "sds/support/Schema.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

namespace sds {
namespace obs {

namespace detail {
std::atomic<bool> MetricsEnabled{false};
} // namespace detail

namespace {

/// The process-global metrics registry. Constructed on first use and
/// deliberately leaked, like the trace registry, so function-local static
/// handles never dangle.
struct MetricsRegistry {
  std::mutex Mu;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms;

  struct GaugeSource {
    uint64_t Handle;
    std::string Name;
    std::function<double()> Fn;
  };
  std::vector<GaugeSource> Sources;
  uint64_t NextSourceHandle = 1;
};

MetricsRegistry &registry() {
  static MetricsRegistry *R = new MetricsRegistry();
  return *R;
}

} // namespace

void setMetricsEnabled(bool On) {
  (void)registry();
  detail::MetricsEnabled.store(On, std::memory_order_relaxed);
}

Gauge &gauge(std::string_view Name) {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  auto It = R.Gauges.find(Name);
  if (It == R.Gauges.end())
    It = R.Gauges
             .emplace(std::string(Name),
                      std::make_unique<Gauge>(std::string(Name)))
             .first;
  return *It->second;
}

Histogram &histogram(std::string_view Name) {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  auto It = R.Histograms.find(Name);
  if (It == R.Histograms.end())
    It = R.Histograms
             .emplace(std::string(Name),
                      std::make_unique<Histogram>(std::string(Name)))
             .first;
  return *It->second;
}

uint64_t registerGaugeSource(std::string Name, std::function<double()> Fn) {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  uint64_t H = R.NextSourceHandle++;
  R.Sources.push_back({H, std::move(Name), std::move(Fn)});
  return H;
}

void unregisterGaugeSource(uint64_t Handle) {
  MetricsRegistry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  R.Sources.erase(std::remove_if(R.Sources.begin(), R.Sources.end(),
                                 [&](const MetricsRegistry::GaugeSource &S) {
                                   return S.Handle == Handle;
                                 }),
                  R.Sources.end());
}

GaugeSources::~GaugeSources() {
  for (uint64_t H : Handles)
    unregisterGaugeSource(H);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

uint64_t Histogram::count() const {
  uint64_t N = 0;
  for (const auto &B : Buckets)
    N += B.load(std::memory_order_relaxed);
  return N;
}

double Histogram::quantile(double Q) const {
  uint64_t Counts[kBuckets];
  uint64_t Total = 0;
  for (unsigned I = 0; I < kBuckets; ++I)
    Total += Counts[I] = Buckets[I].load(std::memory_order_relaxed);
  if (Total == 0)
    return 0;
  Q = std::min(1.0, std::max(0.0, Q));
  // Rank of the sample we want, 1-based: ceil(Q * Total), at least 1.
  double Want = Q * static_cast<double>(Total);
  uint64_t Rank = static_cast<uint64_t>(Want);
  if (static_cast<double>(Rank) < Want || Rank == 0)
    ++Rank;
  uint64_t Cum = 0;
  for (unsigned I = 0; I < kBuckets; ++I) {
    if (Counts[I] == 0)
      continue;
    if (Cum + Counts[I] >= Rank) {
      // Linear interpolation inside the bucket [lo, hi): spread the
      // bucket's samples evenly and pick the Rank'th.
      double Lo = static_cast<double>(bucketLo(I));
      double Hi = I + 1 < kBuckets ? static_cast<double>(bucketLo(I + 1))
                                   : Lo + 1;
      double Frac = (static_cast<double>(Rank - Cum) - 0.5) /
                    static_cast<double>(Counts[I]);
      double V = Lo + (Hi - Lo) * Frac;
      // Clamp to the observed extremes: a single-bucket distribution
      // should report the true min/max, not bucket edges.
      V = std::max(V, static_cast<double>(min()));
      V = std::min(V, static_cast<double>(max()));
      return V;
    }
    Cum += Counts[I];
  }
  return static_cast<double>(max());
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(UINT64_MAX, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

std::vector<std::pair<uint64_t, uint64_t>> Histogram::nonzeroBuckets() const {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  for (unsigned I = 0; I < kBuckets; ++I)
    if (uint64_t C = Buckets[I].load(std::memory_order_relaxed))
      Out.emplace_back(bucketLo(I), C);
  return Out;
}

ScopedLatency::ScopedLatency(Histogram &Hist)
    : H(metricsEnabled() ? &Hist : nullptr) {
  if (H)
    StartNs = nowNs();
}

void ScopedLatency::stop() {
  if (!H)
    return;
  H->record(nowNs() - StartNs);
  H = nullptr;
}

ScopedLatency::~ScopedLatency() { stop(); }

//===----------------------------------------------------------------------===//
// Snapshots and exporters
//===----------------------------------------------------------------------===//

MetricsSnapshot snapshotMetrics() {
  MetricsRegistry &R = registry();
  MetricsSnapshot Out;
  Out.Counters = snapshotCounters();
  std::vector<std::pair<std::string, std::function<double()>>> Sources;
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (const auto &[Name, G] : R.Gauges)
      Out.Gauges.emplace_back(Name, G->value());
    for (const auto &S : R.Sources)
      Sources.emplace_back(S.Name, S.Fn);
    for (const auto &[Name, H] : R.Histograms) {
      HistogramSnapshot HS;
      HS.Name = Name;
      HS.InMs =
          Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ns") == 0;
      HS.Count = H->count();
      if (HS.Count) {
        double Scale = HS.InMs ? 1e-6 : 1.0;
        HS.Sum = static_cast<double>(H->sum()) * Scale;
        HS.Min = static_cast<double>(H->min()) * Scale;
        HS.Max = static_cast<double>(H->max()) * Scale;
        HS.P50 = H->quantile(0.50) * Scale;
        HS.P95 = H->quantile(0.95) * Scale;
        HS.P99 = H->quantile(0.99) * Scale;
      }
      Out.Histograms.push_back(std::move(HS));
    }
  }
  // Poll sources outside the registry lock (a callback may touch a
  // structure whose lock ordering we do not control), then fold into the
  // sorted gauge list, summing same-name sources.
  std::map<std::string, double> Polled;
  for (auto &[Name, Fn] : Sources)
    Polled[Name] += Fn();
  for (auto &[Name, V] : Polled) {
    auto It = std::lower_bound(
        Out.Gauges.begin(), Out.Gauges.end(), Name,
        [](const auto &P, const std::string &N) { return P.first < N; });
    if (It != Out.Gauges.end() && It->first == Name)
      It->second += V;
    else
      Out.Gauges.insert(It, {Name, V});
  }
  return Out;
}

json::Value metricsReport() {
  MetricsSnapshot S = snapshotMetrics();
  json::Object Counters;
  for (const auto &[Name, V] : S.Counters)
    Counters.emplace(Name, json::Value(static_cast<int64_t>(V)));
  json::Object Gauges;
  for (const auto &[Name, V] : S.Gauges)
    Gauges.emplace(Name, json::Value(V));
  json::Object Histos;
  for (const HistogramSnapshot &H : S.Histograms) {
    const std::string Unit = H.InMs ? "_ms" : "";
    json::Object O;
    O.emplace("count", json::Value(static_cast<int64_t>(H.Count)));
    O.emplace("sum" + Unit, json::Value(H.Sum));
    O.emplace("min" + Unit, json::Value(H.Min));
    O.emplace("max" + Unit, json::Value(H.Max));
    O.emplace("p50" + Unit, json::Value(H.P50));
    O.emplace("p95" + Unit, json::Value(H.P95));
    O.emplace("p99" + Unit, json::Value(H.P99));
    Histos.emplace(H.Name, json::Value(std::move(O)));
  }
  // The frozen Figure-3 stage view: every kStageKeys entry present,
  // zero-filled, from the pipeline.stage.<key>_ns histograms.
  json::Object Stages;
  for (size_t I = 0; I < schema::kNumStageKeys; ++I) {
    const char *Key = schema::kStageKeys[I];
    double Seconds = 0;
    std::string HName = std::string("pipeline.stage.") + Key + "_ns";
    for (const HistogramSnapshot &H : S.Histograms)
      if (H.Name == HName)
        Seconds = H.Sum / 1e3;
    Stages.emplace(Key, json::Value(Seconds));
  }
  json::Object Root;
  Root.emplace("schema_version", json::Value(schema::kVersion));
  Root.emplace("kind", json::Value(std::string("metrics_snapshot")));
  Root.emplace("counters", json::Value(std::move(Counters)));
  Root.emplace("gauges", json::Value(std::move(Gauges)));
  Root.emplace("histograms", json::Value(std::move(Histos)));
  Root.emplace("stage_seconds", json::Value(std::move(Stages)));
  Root.emplace("flight_recorder", flightJSON());
  return json::Value(std::move(Root));
}

std::string metricsJSON() { return metricsReport().str(); }

namespace {

/// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*. We map
/// everything else to '_' and prefix "sds_".
std::string promName(const std::string &Name, const char *Suffix = "") {
  std::string Out = "sds_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out.push_back(Ok ? C : '_');
  }
  Out += Suffix;
  return Out;
}

/// Label-value escaping per the text exposition format: backslash,
/// double-quote, and line feed.
std::string promEscape(const std::string &V) {
  std::string Out;
  Out.reserve(V.size());
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out.push_back(C);
  }
  return Out;
}

void promNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}

} // namespace

std::string prometheusText() {
  MetricsSnapshot S = snapshotMetrics();
  std::string Out;
  for (const auto &[Name, V] : S.Counters) {
    std::string P = promName(Name, "_total");
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(V) + "\n";
  }
  for (const auto &[Name, V] : S.Gauges) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " ";
    promNumber(Out, V);
    Out += "\n";
  }
  for (const HistogramSnapshot &H : S.Histograms) {
    std::string P = promName(H.Name);
    Out += "# TYPE " + P + " summary\n";
    // ms -> seconds, the Prometheus base unit; other units stay as is.
    double Scale = H.InMs ? 1e-3 : 1.0;
    const std::pair<const char *, double> Qs[] = {
        {"0.5", H.P50}, {"0.95", H.P95}, {"0.99", H.P99}};
    for (const auto &[Label, Q] : Qs) {
      Out += P + "{quantile=\"" + promEscape(Label) + "\"} ";
      promNumber(Out, Q * Scale);
      Out += "\n";
    }
    Out += P + "_sum ";
    promNumber(Out, H.Sum * Scale);
    Out += "\n" + P + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

bool writeMetrics(const std::string &Path) {
  bool Prom = Path.size() > 5 && Path.rfind(".prom") == Path.size() - 5;
  std::string Text = Prom ? prometheusText() : metricsJSON() + "\n";
  if (Path == "-") {
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return true;
  }
  std::ofstream OutF(Path);
  if (!OutF)
    return false;
  OutF << Text;
  return static_cast<bool>(OutF);
}

void resetMetrics() {
  MetricsRegistry &R = registry();
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    for (auto &[Name, G] : R.Gauges)
      G->reset();
    for (auto &[Name, H] : R.Histograms)
      H->reset();
  }
  clearFlight();
  clear(); // Trace.h events + every obs::Counter
}

} // namespace obs
} // namespace sds
