// common/metrics: registry semantics, exact histogram totals, snapshot JSON,
// the disabled-path cost budget, and multi-threaded recording.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

// The ≤5 ns/op budget only holds in an optimized, uninstrumented build;
// sanitizers and -O0 multiply the cost of the (still constant-time) check.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SLICER_METRICS_TEST_INSTRUMENTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define SLICER_METRICS_TEST_INSTRUMENTED 1
#endif
#endif

namespace slicer::metrics {
namespace {

TEST(MetricsTest, RegistryReturnsStableIdentity) {
  Counter& a = counter("test.metrics.identity");
  Counter& b = counter("test.metrics.identity");
  EXPECT_EQ(&a, &b);
  Counter& other = counter("test.metrics.identity2");
  EXPECT_NE(&a, &other);
}

TEST(MetricsTest, DisabledInstrumentsRecordNothing) {
  set_enabled(false);
  Counter& c = counter("test.metrics.disabled");
  Gauge& g = gauge("test.metrics.disabled_gauge");
  Histogram& h = histogram("test.metrics.disabled_hist");
  c.add(7);
  g.set(9);
  h.record(123);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsTest, CounterGaugeBasics) {
  const ScopedMetrics guard;
  Counter& c = counter("test.metrics.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = gauge("test.metrics.gauge");
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(MetricsTest, HistogramKeepsExactCountAndSum) {
  const ScopedMetrics guard;
  Histogram& h = histogram("test.metrics.hist");
  h.record(0);
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001u);
  h.record(std::numeric_limits<std::uint64_t>::max() - 1001);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), std::numeric_limits<std::uint64_t>::max());
}

TEST(MetricsTest, ScopedTimerRecordsOnlyWhenEnabled) {
  Histogram& h = histogram("test.metrics.timer");
  set_enabled(false);
  { const ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 0u);

  const ScopedMetrics guard;
  { const ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, SnapshotJsonGolden) {
  const ScopedMetrics guard;  // resets every instrument to zero
  counter("test.metrics.golden.counter").add(42);
  gauge("test.metrics.golden.gauge").set(-3);
  Histogram& h = histogram("test.metrics.golden.hist");
  h.record(5);
  h.record(25);
  h.record(1000);

  const std::string json = snapshot_json();
  // The registry is process-wide (other tests registered instruments too),
  // so the golden is per-entry: each instrument serializes to exactly this
  // fragment, and the sections appear in fixed order.
  EXPECT_NE(json.find("\"test.metrics.golden.counter\": 42"),
            std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.golden.gauge\": -3"), std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.golden.hist\": {\"count\": 3, "
                      "\"sum_ns\": 1030, \"total_ms\": 0.00103}"),
            std::string::npos);
  EXPECT_LT(json.find("\"counters\""), json.find("\"gauges\""));
  EXPECT_LT(json.find("\"gauges\""), json.find("\"histograms\""));

  // Deterministic: a second snapshot of unchanged instruments is identical.
  EXPECT_EQ(json, snapshot_json());
}

TEST(MetricsTest, SnapshotStructuredView) {
  const ScopedMetrics guard;
  counter("test.metrics.snap.counter").add(5);
  histogram("test.metrics.snap.hist").record(9);
  histogram("test.metrics.snap.hist").record(0);

  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counters.at("test.metrics.snap.counter"), 5u);
  const auto& h = snap.histograms.at("test.metrics.snap.hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 9u);
}

TEST(MetricsTest, ResetZeroesButKeepsRegistration) {
  const ScopedMetrics guard;
  Counter& c = counter("test.metrics.reset");
  c.add(10);
  reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &counter("test.metrics.reset"));
}

TEST(MetricsTest, ScopedMetricsRestoresPreviousState) {
  set_enabled(false);
  {
    const ScopedMetrics guard;
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

TEST(MetricsTest, DisabledPathCostBudget) {
  set_enabled(false);
  Counter& c = counter("test.metrics.cost");
  constexpr int kIters = 2'000'000;
  double best_ns = 1e9;
  // Best of five amortizes scheduler noise; the disabled path is a relaxed
  // atomic load plus a predicted branch, so the floor is stable.
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) c.add();
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    best_ns = std::min(best_ns, static_cast<double>(elapsed) / kIters);
  }
  EXPECT_EQ(c.value(), 0u);
#if defined(SLICER_METRICS_TEST_INSTRUMENTED) || !defined(NDEBUG)
  EXPECT_LT(best_ns, 200.0);  // sanitized / unoptimized: relaxed bound
#else
  EXPECT_LT(best_ns, 5.0);  // the DESIGN.md §3f budget
#endif
}

TEST(MetricsTest, ConcurrentRecordingIsExact) {
  const ScopedMetrics guard;
  Counter& c = counter("test.metrics.mt.counter");
  Histogram& h = histogram("test.metrics.mt.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t)
    expected_sum += static_cast<std::uint64_t>(t) * kPerThread;
  EXPECT_EQ(h.sum(), expected_sum);
  // A snapshot taken after the joins sees the same exact totals.
  const auto snap = snapshot().histograms.at("test.metrics.mt.hist");
  EXPECT_EQ(snap.count, h.count());
  EXPECT_EQ(snap.sum, expected_sum);
}

}  // namespace
}  // namespace slicer::metrics
