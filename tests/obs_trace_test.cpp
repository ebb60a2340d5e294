//===- obs_trace_test.cpp - Tracing core and exporter tests ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/obs/Export.h"
#include "sds/obs/Provenance.h"
#include "sds/obs/Trace.h"

#include <gtest/gtest.h>
#include "sds/support/OMP.h"

#include <thread>

using namespace sds;

namespace {

/// Every obs test owns the global registry for its duration: start from a
/// clean, enabled state and leave tracing off for whoever runs next.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::clear();
    obs::setEventCapacity(1 << 20);
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::clear();
  }
};

uint64_t counterValue(const std::string &Name) {
  for (const auto &[N, V] : obs::snapshotCounters())
    if (N == Name)
      return V;
  return 0;
}

} // namespace

TEST_F(ObsTest, CounterAtomicityUnderOpenMP) {
  obs::Counter &C = obs::counter("test.atomic");
  const int Iters = 20000;
  int Threads = 0;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
#ifdef _OPENMP
#pragma omp single
#endif
    Threads = omp_get_num_threads();
#ifdef _OPENMP
#pragma omp for
#endif
    for (int I = 0; I < Iters; ++I)
      C.add();
  }
  ASSERT_GE(Threads, 1);
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Iters));
  EXPECT_EQ(counterValue("test.atomic"), static_cast<uint64_t>(Iters));
}

TEST_F(ObsTest, CounterHandleIsStableAcrossClear) {
  obs::Counter &C = obs::counter("test.stable");
  C.add(7);
  obs::clear();
  EXPECT_EQ(C.value(), 0u);
  C.add(3);
  EXPECT_EQ(&C, &obs::counter("test.stable"));
  EXPECT_EQ(counterValue("test.stable"), 3u);
}

TEST_F(ObsTest, SpanNestingIsContainedInTime) {
  {
    obs::Span Outer("outer");
    Outer.tag("k", "v");
    {
      obs::Span Inner("inner");
      Inner.tag("depth", static_cast<int64_t>(2));
    }
  }
  auto Evs = obs::snapshotEvents();
  ASSERT_EQ(Evs.size(), 2u);
  // Inner closes first, so it is recorded first.
  const obs::TraceEvent &Inner = Evs[0], &Outer = Evs[1];
  EXPECT_EQ(Inner.Name, "inner");
  EXPECT_EQ(Outer.Name, "outer");
  EXPECT_EQ(Inner.ThreadId, Outer.ThreadId);
  // Chrome's viewer nests by time containment: inner ⊆ outer.
  EXPECT_GE(Inner.StartNs, Outer.StartNs);
  EXPECT_LE(Inner.StartNs + Inner.DurNs, Outer.StartNs + Outer.DurNs);
  ASSERT_EQ(Outer.Tags.size(), 1u);
  EXPECT_EQ(Outer.Tags[0].first, "k");
  EXPECT_EQ(Outer.Tags[0].second, "v");
  ASSERT_EQ(Inner.Tags.size(), 1u);
  EXPECT_EQ(Inner.Tags[0].second, "2");
}

TEST_F(ObsTest, EndClosesOnceAndDestructorIsIdempotent) {
  obs::Span S("once");
  S.end();
  S.end(); // second end() must not record again
  EXPECT_EQ(obs::snapshotEvents().size(), 1u);
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  // Spans only: counters count with tracing off (obs_metrics_test).
  obs::setEnabled(false);
  {
    obs::Span S("ghost");
    S.tag("k", "v");
  }
  EXPECT_TRUE(obs::snapshotEvents().empty());
}

TEST_F(ObsTest, CapacityCapCountsDroppedEvents) {
  obs::setEventCapacity(4);
  for (int I = 0; I < 10; ++I)
    obs::Span S("e" + std::to_string(I));
  EXPECT_EQ(obs::snapshotEvents().size(), 4u);
  EXPECT_EQ(obs::droppedEvents(), 6u);
  obs::setEventCapacity(1 << 20);
}

TEST_F(ObsTest, ChromeTraceJSONReparsesWithExpectedShape) {
  {
    obs::Span S("pipeline.affine_unsat", "deps");
    S.tag("dep", "RAW x");
    S.tag("count", static_cast<int64_t>(3));
  }
  obs::counter("simplex.pivots").add(42);

  json::ParseResult P = json::parse(obs::chromeTraceJSON());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value &Root = P.Val;
  ASSERT_TRUE(Root.isObject());
  EXPECT_EQ(Root.get("displayTimeUnit")->asString(), "ms");

  const json::Value *Evs = Root.get("traceEvents");
  ASSERT_NE(Evs, nullptr);
  ASSERT_TRUE(Evs->isArray());
  ASSERT_EQ(Evs->asArray().size(), 1u);
  const json::Value &E = Evs->asArray()[0];
  EXPECT_EQ(E.get("name")->asString(), "pipeline.affine_unsat");
  EXPECT_EQ(E.get("cat")->asString(), "deps");
  EXPECT_EQ(E.get("ph")->asString(), "X");
  EXPECT_GE(E.get("ts")->asDouble(), 0.0);
  EXPECT_GE(E.get("dur")->asDouble(), 0.0);
  const json::Value *Args = E.get("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->get("dep")->asString(), "RAW x");
  EXPECT_EQ(Args->get("count")->asString(), "3");

  EXPECT_EQ(Root.get("counters")->get("simplex.pivots")->asDouble(), 42.0);
}

TEST_F(ObsTest, SpansFromConcurrentThreadsGetDistinctThreadIds) {
  auto Work = [] { obs::Span S("threaded"); };
  std::thread A(Work), B(Work);
  A.join();
  B.join();
  auto Evs = obs::snapshotEvents();
  ASSERT_EQ(Evs.size(), 2u);
  EXPECT_NE(Evs[0].ThreadId, Evs[1].ThreadId);
}

TEST(Provenance, StringAndJSONForms) {
  obs::Provenance P;
  P.Stage = "property-unsat";
  P.addEvidence("monotonic(rowptr)");
  P.addEvidence("injective(col) [contrapositive]");
  P.Seconds = 0.25;
  EXPECT_EQ(P.str(),
            "property-unsat [monotonic(rowptr), injective(col) "
            "[contrapositive]]");
  sds::json::Value J = P.toJSON();
  EXPECT_EQ(J.get("stage")->asString(), "property-unsat");
  ASSERT_EQ(J.get("evidence")->asArray().size(), 2u);
  EXPECT_EQ(J.get("evidence")->asArray()[0].asString(), "monotonic(rowptr)");
  EXPECT_EQ(J.get("seconds")->asDouble(), 0.25);
}
