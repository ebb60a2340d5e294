//===- obs_metrics_test.cpp - Metrics registry + flight recorder tests ----===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Covers the sds::obs v2 quantitative layer: histogram bucket geometry
// and quantile interpolation against an exact reference, sharded-counter
// exactness under concurrent OpenMP increments, gauge sources, the
// Prometheus/JSON exporters (schema round-trip through sds::json), and
// flight-recorder wraparound/ordering semantics. It also pins the
// one-counter rule: counters count with tracing and metrics off, the
// presburger Stats views read those counters, and per-instance Stats
// fields surface as gauges summed over live instances.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/kernels/Kernels.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/BasicSet.h"
#include "sds/presburger/Budget.h"
#include "sds/presburger/Simplex.h"
#include "sds/serve/Serve.h"
#include "sds/support/Schema.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sds/support/OMP.h"

using namespace sds;
using obs::Histogram;

namespace {

/// Every test starts with metrics on and the registry zeroed; tests that
/// need the disabled behavior flip the flag themselves.
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setMetricsEnabled(true);
    obs::resetMetrics();
  }
  void TearDown() override {
    obs::resetMetrics();
    obs::setMetricsEnabled(false);
  }
};

//===----------------------------------------------------------------------===//
// Histogram bucket geometry
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, BucketOfIsMonotoneAndInvertsThroughBucketLo) {
  // Exact region: values below 2*kSub each get their own bucket.
  for (uint64_t V = 0; V < 2 * Histogram::kSub; ++V) {
    EXPECT_EQ(Histogram::bucketOf(V), V);
    EXPECT_EQ(Histogram::bucketLo(static_cast<unsigned>(V)), V);
  }
  // bucketLo(bucketOf(V)) <= V < bucketLo(bucketOf(V)+1), across octaves.
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 20000; ++I) {
    uint64_t V = Rng() >> (Rng() % 64);
    unsigned B = Histogram::bucketOf(V);
    ASSERT_LT(B, Histogram::kBuckets);
    EXPECT_LE(Histogram::bucketLo(B), V);
    if (B + 1 < Histogram::kBuckets) {
      EXPECT_LT(V, Histogram::bucketLo(B + 1));
    }
  }
  // Monotone: larger values never land in earlier buckets.
  unsigned Prev = 0;
  for (uint64_t V = 0; V < 4096; ++V) {
    unsigned B = Histogram::bucketOf(V);
    EXPECT_GE(B, Prev);
    Prev = B;
  }
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST_F(MetricsTest, BucketRelativeWidthAtMost12Point5Percent) {
  // Above the exact region every bucket [lo, hi) satisfies
  // (hi - lo) / lo <= 1/8.
  for (unsigned B = 2 * Histogram::kSub; B + 1 < Histogram::kBuckets; ++B) {
    uint64_t Lo = Histogram::bucketLo(B), Hi = Histogram::bucketLo(B + 1);
    ASSERT_GT(Hi, Lo);
    EXPECT_LE(static_cast<double>(Hi - Lo) / static_cast<double>(Lo),
              0.125 + 1e-12);
  }
}

//===----------------------------------------------------------------------===//
// Quantiles vs an exact reference
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, QuantilesTrackExactReferenceWithinBucketWidth) {
  Histogram &H = obs::histogram("test.quantiles");
  std::mt19937_64 Rng(42);
  std::vector<uint64_t> Samples;
  // Log-uniform latencies spanning ~100ns..100ms, the realistic range.
  for (int I = 0; I < 50000; ++I) {
    double E = 2.0 + 6.0 * std::uniform_real_distribution<>(0, 1)(Rng);
    Samples.push_back(static_cast<uint64_t>(std::pow(10.0, E)));
  }
  for (uint64_t S : Samples)
    H.record(S);
  std::sort(Samples.begin(), Samples.end());

  EXPECT_EQ(H.count(), Samples.size());
  EXPECT_EQ(H.min(), Samples.front());
  EXPECT_EQ(H.max(), Samples.back());
  for (double Q : {0.5, 0.95, 0.99}) {
    double Exact = static_cast<double>(
        Samples[static_cast<size_t>(Q * (Samples.size() - 1))]);
    double Est = H.quantile(Q);
    // The estimate must land within one bucket (12.5% relative) of truth.
    EXPECT_NEAR(Est, Exact, Exact * 0.125)
        << "q=" << Q << " exact=" << Exact << " est=" << Est;
  }
  // Quantiles are clamped into [min, max].
  EXPECT_GE(H.quantile(0.0), static_cast<double>(H.min()));
  EXPECT_LE(H.quantile(1.0), static_cast<double>(H.max()));
}

TEST_F(MetricsTest, SingleSampleQuantilesCollapseToIt) {
  Histogram &H = obs::histogram("test.single");
  H.record(777);
  EXPECT_EQ(H.count(), 1u);
  for (double Q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(H.quantile(Q), 777.0);
}

TEST_F(MetricsTest, RecordIsInertWhenDisabled) {
  // Gauges and histograms only: counters count regardless (below).
  Histogram &H = obs::histogram("test.disabled");
  obs::setMetricsEnabled(false);
  H.record(123);
  obs::gauge("test.disabled_gauge").set(9.0);
  obs::setMetricsEnabled(true);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(obs::gauge("test.disabled_gauge").value(), 0.0);
}

//===----------------------------------------------------------------------===//
// Sharded counters under concurrency
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, ConcurrentCounterIncrementsBitMatchSerial) {
  // The serial truth: one thread adding K times N values.
  const int Threads = std::max(2, std::min(8, omp_get_max_threads()));
  const int PerThread = 20000;
  obs::Counter &Serial = obs::counter("test.counter_serial");
  for (int T = 0; T < Threads; ++T)
    for (int I = 0; I < PerThread; ++I)
      Serial.add(static_cast<uint64_t>(I % 7 + 1));

  obs::Counter &Par = obs::counter("test.counter_parallel");
  obs::Histogram &HPar = obs::histogram("test.hist_parallel");
#ifdef _OPENMP
#pragma omp parallel num_threads(Threads)
#endif
  {
#ifdef _OPENMP
#pragma omp for
#endif
    for (int T = 0; T < Threads; ++T)
      for (int I = 0; I < PerThread; ++I) {
        Par.add(static_cast<uint64_t>(I % 7 + 1));
        HPar.record(static_cast<uint64_t>(I + 1));
      }
  }
  EXPECT_EQ(Par.value(), Serial.value());
  EXPECT_EQ(HPar.count(), static_cast<uint64_t>(Threads) * PerThread);
  // Histogram sum is also exact (relaxed fetch_adds never lose updates).
  uint64_t WantSum = 0;
  for (int I = 0; I < PerThread; ++I)
    WantSum += static_cast<uint64_t>(I + 1);
  EXPECT_EQ(HPar.sum(), WantSum * Threads);
}

//===----------------------------------------------------------------------===//
// Gauges and gauge sources
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, GaugeSourcesSumAcrossRegistrationsAndUnregister) {
  double A = 1.5, B = 2.25;
  uint64_t H1 = obs::registerGaugeSource("test.source", [&] { return A; });
  uint64_t H2 = obs::registerGaugeSource("test.source", [&] { return B; });
  auto Find = [](const obs::MetricsSnapshot &S, const std::string &Name) {
    for (const auto &[N, V] : S.Gauges)
      if (N == Name)
        return V;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(Find(obs::snapshotMetrics(), "test.source"), 3.75);
  obs::unregisterGaugeSource(H1);
  EXPECT_DOUBLE_EQ(Find(obs::snapshotMetrics(), "test.source"), 2.25);
  obs::unregisterGaugeSource(H2);
  EXPECT_DOUBLE_EQ(Find(obs::snapshotMetrics(), "test.source"), -1.0);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, JsonSnapshotRoundTripsThroughParser) {
  obs::counter("test.rt_counter").add(3);
  obs::gauge("test.rt_gauge").set(0.5);
  Histogram &H = obs::histogram("pipeline.stage.extraction_ns");
  Histogram &Rows = obs::histogram("test.rt_rows"); // not _ns: raw unit
  for (uint64_t V = 1; V <= 100; ++V) {
    H.record(V * 1000);
    Rows.record(V);
  }

  json::ParseResult P = json::parse(obs::metricsJSON());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Root = P.Val;
  ASSERT_TRUE(Root.isObject());
  EXPECT_EQ(Root.get("schema_version")->asInt(), schema::kVersion);
  EXPECT_EQ(Root.get("kind")->asString(), "metrics_snapshot");
  EXPECT_EQ(Root.get("counters")->get("test.rt_counter")->asInt(), 3);
  EXPECT_DOUBLE_EQ(Root.get("gauges")->get("test.rt_gauge")->asDouble(), 0.5);

  const json::Value *HJ =
      Root.get("histograms")->get("pipeline.stage.extraction_ns");
  ASSERT_NE(HJ, nullptr);
  EXPECT_EQ(HJ->get("count")->asInt(), 100);
  double P50 = HJ->get("p50_ms")->asDouble();
  EXPECT_GT(P50, 0.0);
  EXPECT_NEAR(P50, 0.050, 0.050 * 0.125); // 50us median, ms units
  ASSERT_NE(HJ->get("p95_ms"), nullptr);
  ASSERT_NE(HJ->get("p99_ms"), nullptr);
  EXPECT_EQ(HJ->get("p50"), nullptr);

  // A histogram not named *_ns exports its recorded values unconverted,
  // under unit-free keys.
  const json::Value *RJ = Root.get("histograms")->get("test.rt_rows");
  ASSERT_NE(RJ, nullptr);
  EXPECT_EQ(RJ->get("count")->asInt(), 100);
  EXPECT_NEAR(RJ->get("p50")->asDouble(), 50.0, 50.0 * 0.125);
  EXPECT_DOUBLE_EQ(RJ->get("sum")->asDouble(), 5050.0);
  EXPECT_DOUBLE_EQ(RJ->get("min")->asDouble(), 1.0);
  EXPECT_DOUBLE_EQ(RJ->get("max")->asDouble(), 100.0);
  ASSERT_NE(RJ->get("p95"), nullptr);
  ASSERT_NE(RJ->get("p99"), nullptr);
  EXPECT_EQ(RJ->get("p50_ms"), nullptr);

  // stage_seconds is zero-filled over the schema's stage keys, and the
  // stage we recorded shows up converted to seconds.
  const json::Value *Stages = Root.get("stage_seconds");
  ASSERT_NE(Stages, nullptr);
  for (const char *Key : schema::kStageKeys)
    ASSERT_NE(Stages->get(Key), nullptr) << Key;
  EXPECT_NEAR(Stages->get("extraction")->asDouble(), 5050.0 * 1000 / 1e9,
              1e-12);
}

TEST_F(MetricsTest, PrometheusTextEscapingAndShape) {
  obs::counter("engine.kernel.hits").add(2);
  obs::counter("weird name-100%").add(5);
  obs::gauge("presburger.query_cache.hit_rate").set(0.75);
  obs::histogram("guard.run_ns").record(1000);
  obs::histogram("test.prom_rows").record(7);
  std::string Text = obs::prometheusText();

  // Counter: sanitized name, _total suffix, sds_ prefix.
  EXPECT_NE(Text.find("sds_engine_kernel_hits_total 2"), std::string::npos)
      << Text;
  // Every non-[a-zA-Z0-9_] byte maps to '_': no spec-illegal name chars
  // may leak into the exposition.
  EXPECT_NE(Text.find("sds_weird_name_100__total 5"), std::string::npos)
      << Text;
  EXPECT_EQ(Text.find("weird name"), std::string::npos);
  EXPECT_NE(Text.find("sds_presburger_query_cache_hit_rate 0.75"),
            std::string::npos)
      << Text;
  // Histogram: summary with quantile labels + _count/_sum, seconds units.
  EXPECT_NE(Text.find("sds_guard_run_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("sds_guard_run_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("sds_guard_run_ns_count 1"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sds_guard_run_ns summary"),
            std::string::npos);
  // A non-_ns histogram keeps its recorded unit.
  EXPECT_NE(Text.find("sds_test_prom_rows{quantile=\"0.5\"} 7\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("sds_test_prom_rows_sum 7\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

TEST_F(MetricsTest, FlightRingKeepsNewestInOrderAndCountsLost) {
  obs::setFlightCapacity(8);
  for (int I = 0; I < 20; ++I)
    obs::flightRecord(obs::FlightSeverity::Info, "test",
                      "event " + std::to_string(I),
                      {{"i", std::to_string(I)}});
  std::vector<obs::FlightEvent> Events = obs::snapshotFlight();
  ASSERT_EQ(Events.size(), 8u);
  EXPECT_EQ(obs::flightLostEvents(), 12u);
  // Oldest-first, contiguous sequence numbers, newest event last.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
  EXPECT_EQ(Events.back().Message, "event 19");
  EXPECT_EQ(Events.front().Message, "event 12");
  ASSERT_EQ(Events.back().Fields.size(), 1u);
  EXPECT_EQ(Events.back().Fields[0].second, "19");

  // clearFlight drops events but sequence numbers keep counting.
  obs::clearFlight();
  EXPECT_TRUE(obs::snapshotFlight().empty());
  EXPECT_EQ(obs::flightLostEvents(), 0u);
  obs::flightRecord(obs::FlightSeverity::Error, "test", "after clear");
  std::vector<obs::FlightEvent> After = obs::snapshotFlight();
  ASSERT_EQ(After.size(), 1u);
  EXPECT_GE(After[0].Seq, 20u);
  EXPECT_EQ(After[0].Severity, obs::FlightSeverity::Error);
  obs::setFlightCapacity(256); // restore the default for other tests
}

TEST_F(MetricsTest, FlightJsonEmbedsInMetricsReport) {
  obs::flightRecord(obs::FlightSeverity::Warn, "artifact",
                    "artifact rejected", {{"path", "x.sdsk"}});
  json::ParseResult P = json::parse(obs::metricsJSON());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value *Flight = P.Val.get("flight_recorder");
  ASSERT_NE(Flight, nullptr);
  const json::Value *Events = Flight->get("events");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->asArray().size(), 1u);
  const json::Value &E = Events->asArray()[0];
  EXPECT_EQ(E.get("severity")->asString(), "warn");
  EXPECT_EQ(E.get("category")->asString(), "artifact");
  EXPECT_EQ(E.get("fields")->get("path")->asString(), "x.sdsk");
}

TEST_F(MetricsTest, ResetMetricsZeroesEverything) {
  obs::counter("test.reset_c").add(4);
  obs::gauge("test.reset_g").set(2.0);
  obs::histogram("test.reset_h").record(100);
  obs::flightRecord(obs::FlightSeverity::Info, "test", "x");
  obs::resetMetrics();
  EXPECT_EQ(obs::counter("test.reset_c").value(), 0u);
  EXPECT_EQ(obs::gauge("test.reset_g").value(), 0.0);
  EXPECT_EQ(obs::histogram("test.reset_h").count(), 0u);
  EXPECT_TRUE(obs::snapshotFlight().empty());
}

//===----------------------------------------------------------------------===//
// One tally, one place
//===----------------------------------------------------------------------===//

/// The named counter's value in a snapshot, or nullopt if unregistered.
std::optional<uint64_t> counterIn(const obs::MetricsSnapshot &S,
                                  const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  return std::nullopt;
}

/// Each field's gauge in a fresh snapshot equals that field summed over
/// the live instances' stats() (sources registered under one name sum),
/// and no counter of the same name counts the event a second time.
template <typename StatsT, size_t N>
void expectGaugesSumFields(
    const std::pair<const char *, uint64_t StatsT::*> (&Fields)[N],
    const std::vector<StatsT> &Live) {
  obs::MetricsSnapshot S = obs::snapshotMetrics();
  for (const auto &[Name, F] : Fields) {
    double Want = 0;
    for (const StatsT &St : Live)
      Want += static_cast<double>(St.*F);
    double Got = -1;
    for (const auto &[G, V] : S.Gauges)
      if (G == Name)
        Got = V;
    EXPECT_EQ(Got, Want) << Name;
    EXPECT_EQ(counterIn(S, Name), std::nullopt) << Name;
  }
}

TEST_F(MetricsTest, CountersCountWithTracingAndMetricsOff) {
  obs::setMetricsEnabled(false);
  obs::setEnabled(false);
  obs::counter("test.disabled_counter").add(5);
  obs::counter("test.disabled").add(100);
  EXPECT_EQ(obs::counter("test.disabled_counter").value(), 5u);
  EXPECT_EQ(obs::counter("test.disabled").value(), 100u);

  // The presburger Stats views read the counters a snapshot exports.
  presburger::clearQueryCache();
  (void)artifact::compile(kernels::gaussSeidelCSR(), {});
  // One pivot-budget and one deadline exhaustion, so those views are
  // compared on nonzero values too.
  presburger::setPivotBudget(1);
  presburger::Simplex LP(2);
  LP.addInequality({1, 0, -5}); // x >= 5
  LP.addInequality({0, 1, -7}); // y >= 7
  EXPECT_EQ(LP.checkFeasible(), presburger::LPStatus::Error);
  presburger::setPivotBudget(0);
  {
    presburger::ScopedDeadline D(presburger::ScopedDeadline::fromNow(0));
    presburger::BasicSet B(1);
    B.addInequality({1, 0});   // x >= 0
    B.addInequality({-1, 10}); // x <= 10
    EXPECT_EQ(B.isEmpty(), presburger::Ternary::Unknown);
  }
  auto Views = [] {
    presburger::QueryCacheStats Q = presburger::queryCacheStats();
    presburger::PrefilterStats P = presburger::prefilterStats();
    return std::vector<std::pair<const char *, uint64_t>>{
        {"basicset.cache_hits", Q.Hits},
        {"basicset.cache_misses", Q.Misses},
        {"basicset.cache_core_subsume", Q.CoreSubsumptionHits},
        {"basicset.prefilter_gcd", P.GcdRejects},
        {"basicset.prefilter_eq_conflict", P.EqConflictRejects},
        {"basicset.prefilter_interval", P.IntervalRejects},
        {"basicset.prefilter_subset_syntactic", P.SyntacticSubsetHits},
        {"basicset.prefilter_miss", P.Misses},
        {"simplex.budget_exhausted", presburger::pivotBudgetExhaustions()},
        {"basicset.deadline_exhausted", presburger::deadlineExhaustions()},
    };
  };
  obs::MetricsSnapshot S = obs::snapshotMetrics();
  EXPECT_EQ(counterIn(S, "test.disabled_counter"), 5u);
  for (const auto &[Name, View] : Views())
    EXPECT_EQ(counterIn(S, Name), View) << Name;
  EXPECT_GT(presburger::queryCacheStats().Hits, 0u);
  EXPECT_GT(presburger::queryCacheStats().Misses, 0u);
  EXPECT_EQ(presburger::pivotBudgetExhaustions(), 1u);
  EXPECT_EQ(presburger::deadlineExhaustions(), 1u);
  EXPECT_GT(counterIn(S, "simplex.solves").value_or(0), 0u);

  // clearQueryCache() zeroes exactly those counters.
  presburger::clearQueryCache();
  S = obs::snapshotMetrics();
  for (const auto &[Name, View] : Views()) {
    EXPECT_EQ(View, 0u) << Name;
    EXPECT_EQ(counterIn(S, Name), 0u) << Name;
  }
  EXPECT_GT(counterIn(S, "simplex.solves").value_or(0), 0u);
  EXPECT_EQ(counterIn(S, "test.disabled_counter"), 5u);
}

TEST_F(MetricsTest, StatsFieldsSumAcrossLiveInstancesAsGauges) {
  using engine::EngineStats;
  const std::pair<const char *, uint64_t EngineStats::*> EngineFields[] = {
      {"engine.kernel_warm", &EngineStats::KernelWarm},
      {"engine.kernel_cold", &EngineStats::KernelCold},
      {"engine.kernel_loaded", &EngineStats::KernelLoaded},
      {"engine.kernel_speculated", &EngineStats::KernelSpeculated},
      {"engine.matrix_warm", &EngineStats::MatrixWarm},
      {"engine.matrix_cold", &EngineStats::MatrixCold},
      {"engine.matrix_evicted", &EngineStats::MatrixEvicted},
  };
  auto Install = [](engine::Engine &E, const std::string &Name) {
    artifact::CompiledKernel CK;
    CK.KernelName = Name;
    ASSERT_TRUE(E.installArtifact(std::move(CK)).ok());
  };
  engine::Engine EA;
  Install(EA, "a");
  (void)EA.compiled(kernels::spmvCSR());
  (void)EA.compiled(kernels::spmvCSR());
  EXPECT_EQ(EA.stats().KernelWarm, 1u);
  expectGaugesSumFields(EngineFields, {EA.stats()});
  engine::Engine EB;
  Install(EB, "b1");
  Install(EB, "b2");
  expectGaugesSumFields(EngineFields, {EA.stats(), EB.stats()});

  using serve::ServerStats;
  const std::pair<const char *, uint64_t ServerStats::*> ServerFields[] = {
      {"serve.submitted", &ServerStats::Submitted},
      {"serve.completed", &ServerStats::Completed},
      {"serve.warm", &ServerStats::Warm},
      {"serve.cold", &ServerStats::Cold},
      {"serve.store_warm", &ServerStats::StoreWarm},
      {"serve.degraded", &ServerStats::Degraded},
      {"serve.coalesced", &ServerStats::Coalesced},
      {"serve.shed_queue", &ServerStats::ShedQueue},
      {"serve.shed_deadline", &ServerStats::ShedDeadline},
      {"serve.errors", &ServerStats::Errors},
      {"serve.kernel_coalesced", &ServerStats::KernelCoalesced},
      {"serve.speculated", &ServerStats::Speculated},
      {"serve.batches", &ServerStats::Batches},
      {"serve.batch_items", &ServerStats::BatchItems},
  };
  // Paused servers with a one-slot queue: every request past the first
  // is shed at submit, so the tallies move without any analysis work.
  serve::ServerOptions SO;
  SO.MaxQueueDepth = 1;
  SO.NumWorkers = 1;
  SO.StartPaused = true;
  serve::Server SA(SO);
  for (int I = 0; I < 3; ++I)
    (void)SA.submit({});
  EXPECT_EQ(SA.stats().ShedQueue, 2u);
  expectGaugesSumFields(ServerFields, {SA.stats()});
  serve::Server SB(SO);
  (void)SB.submitBatch(kernels::spmvCSR(), std::vector<serve::BatchItem>(2));
  EXPECT_EQ(SB.stats().BatchItems, 2u);
  expectGaugesSumFields(ServerFields, {SA.stats(), SB.stats()});
}

} // namespace
