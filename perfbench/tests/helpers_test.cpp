// Unit tests of the benchmark's own helpers: the exact-sample percentile,
// the ledger arithmetic, the speed normalisation, the stratified draws and
// the client-side plan-tree combine.
#include <gtest/gtest.h>

#include "../src/plan.hpp"
#include "../src/stats.hpp"
#include "crypto/drbg.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using slicer::core::MatchCondition;
using slicer::core::MultiRecord;
using slicer::core::Pred;
using slicer::core::QuerySpec;

TEST(Percentile, NearestRankOnExactSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());  // input order must not matter
  const Percentile p50 = percentile(v, 50);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(p50.above, 500u);
  const Percentile p99 = percentile(v, 99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.above, 10u);
  EXPECT_EQ(percentile(v, 100).value, 1000);
  EXPECT_EQ(percentile(v, 100).above, 0u);
}

TEST(Percentile, TiesAndSmallSets) {
  EXPECT_EQ(percentile({}, 50).samples, 0u);
  EXPECT_EQ(percentile({7}, 99).value, 7);
  // Samples equal to the percentile are not counted as above it.
  const Percentile p = percentile({1, 2, 2, 2, 3}, 50);
  EXPECT_EQ(p.value, 2);
  EXPECT_EQ(p.above, 1u);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Ledger, UnattributedShareOfLatency) {
  Spans spans(true);
  spans.add("query.tokens", 2);
  spans.add("query.rtt", 5);
  spans.add("query.verify", 2);
  spans.add("unrelated", 100);  // only the query spans count
  EXPECT_DOUBLE_EQ(unattributed_frac(spans, 10), 0.1);
  EXPECT_DOUBLE_EQ(unattributed_frac(spans, 9), 0);
  EXPECT_DOUBLE_EQ(unattributed_frac(spans, 0), 0);
  // Overlapping spans (covering more than the latency) show as negative.
  EXPECT_LT(unattributed_frac(spans, 8), 0);
}

TEST(Spans, DisabledScopesRecordNothing) {
  Spans off(false);
  { const auto s = off.scope("query.rtt"); }
  EXPECT_EQ(off.get("query.rtt").count, 0u);
  Spans on(true);
  { const auto s = on.scope("query.rtt"); }
  { const auto s = on.scope("query.rtt"); }
  EXPECT_EQ(on.get("query.rtt").count, 2u);
  Spans merged(true);
  merged.merge(on);
  merged.merge(on);
  EXPECT_EQ(merged.get("query.rtt").count, 4u);
  EXPECT_DOUBLE_EQ(merged.sum_ms("query.rtt"), 2 * on.sum_ms("query.rtt"));
}

Clock::time_point at_ms(double ms) {
  return Clock::time_point() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(ms));
}

TEST(SpeedProbe, FactorIsMeanSpeedOverTheSpan) {
  SpeedProbe probe;  // never started: samples are added by hand
  const double nominal = SpeedProbe::kNominalMs;
  const int k = static_cast<int>(SpeedProbe::kMinSamples);
  // 2k samples, one per ms: the kernel ran at nominal speed, then from
  // t = k at half speed (twice the CPU time).
  for (int i = 0; i < 2 * k; ++i) probe.add(at_ms(i), i < k ? nominal : 2 * nominal);
  // A span holding at least kMinSamples samples uses exactly those.
  EXPECT_DOUBLE_EQ(probe.factor(at_ms(0), at_ms(k - 1)), 1.0);
  EXPECT_DOUBLE_EQ(probe.factor(at_ms(k), at_ms(2 * k - 1)), 0.5);
  // Half the span at each speed: the mean speed, not the median kernel time.
  EXPECT_DOUBLE_EQ(probe.factor(at_ms(0), at_ms(2 * k - 1)), 0.75);
  // A short span borrows the kMinSamples samples nearest its middle.
  EXPECT_DOUBLE_EQ(probe.factor(at_ms(2 * k - 1), at_ms(2 * k - 1)), 0.5);
  EXPECT_DOUBLE_EQ(probe.factor(at_ms(0), at_ms(0)), 1.0);
  EXPECT_DOUBLE_EQ(probe.run_factor(), 0.75);

  // Normalising scales each operation's CPU time by its span's factor.
  const std::vector<CpuSample> ops = {{4.0, at_ms(0), at_ms(2 * k - 1)},
                                      {2.0, at_ms(k), at_ms(2 * k - 1)}};
  EXPECT_EQ(normalised_ms(ops, probe), (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(cpu_ms(ops), (std::vector<double>{4.0, 2.0}));
}

TEST(SpeedProbe, SamplesWhileRunningAndFreezesItsCpuWhenStopped) {
  SpeedProbe probe;
  EXPECT_EQ(probe.run_factor(), 1);  // no samples yet
  probe.start();
  std::this_thread::sleep_for(10 * SpeedProbe::kPeriod);
  probe.stop();
  const double spent = probe.cpu_ms();
  EXPECT_GT(spent, 0);
  EXPECT_EQ(probe.cpu_ms(), spent);
  EXPECT_GT(probe.run_factor(), 0);
  EXPECT_NE(probe.run_factor(), 1);
  EXPECT_NE(probe.sink(), 0u);
}

TEST(Stratified, EachBlockHitsEveryStratumOnce) {
  slicer::crypto::Drbg rng(slicer::str_bytes("perfbench-stratified-test"));
  Stratified draws(16);
  for (int block = 0; block < 20; ++block) {
    std::vector<int> hits(16, 0);
    std::vector<double> order;
    for (int i = 0; i < 16; ++i) {
      const double u = draws.next(rng);
      ASSERT_GE(u, 0);
      ASSERT_LT(u, 1);
      ++hits[static_cast<std::size_t>(u * 16)];
      order.push_back(u);
    }
    EXPECT_EQ(hits, std::vector<int>(16, 1));
    EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));  // shuffled
  }
}

/// Plaintext answer of one primitive clause (what a verified clause returns).
std::vector<RecordId> clause_oracle(const slicer::core::PlanClause& clause,
                                    const std::vector<MultiRecord>& records) {
  std::vector<RecordId> out;
  for (const auto& r : records) {
    for (const auto& av : r.values) {
      if (av.attribute != clause.attribute) continue;
      const bool hit = clause.mc == MatchCondition::kEqual     ? av.value == clause.value
                       : clause.mc == MatchCondition::kGreater ? av.value > clause.value
                                                               : av.value < clause.value;
      if (hit) out.push_back(r.id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

QuerySpec random_spec(slicer::crypto::Drbg& rng, int depth) {
  const char* attr = rng.uniform(2) == 0 ? "a" : "b";
  if (depth == 0 || rng.uniform(3) == 0) {
    const std::uint64_t v = rng.uniform(64);
    switch (rng.uniform(5)) {
      case 0: return Pred::attr(attr).eq(v);
      case 1: return Pred::attr(attr).gt(v);
      case 2: return Pred::attr(attr).lt(v);
      case 3: return Pred::attr(attr).between(v, v + rng.uniform(20));
      default: return Pred::attr(attr).between_inclusive(v, v + rng.uniform(20));
    }
  }
  Pred a(random_spec(rng, depth - 1));
  Pred b(random_spec(rng, depth - 1));
  switch (rng.uniform(3)) {
    case 0: return a && b;
    case 1: return a || b;
    default: return !a;
  }
}

TEST(CombinePlan, MatchesEvalSpecOnRandomTrees) {
  slicer::crypto::Drbg rng(slicer::str_bytes("perfbench-combine-test"));
  const auto records = slicer::workload::generate_multi(
      rng,
      {{.name = "a", .bits = 6, .dist = slicer::workload::Distribution::kZipf},
       {.name = "b", .bits = 6, .correlation = 0.5}},
      300);
  for (int i = 0; i < 300; ++i) {
    const QuerySpec spec = random_spec(rng, 3);
    const auto plan = slicer::core::compile_spec(spec, {});
    std::vector<std::vector<RecordId>> ids;
    for (const auto& clause : plan.clauses) ids.push_back(clause_oracle(clause, records));
    EXPECT_EQ(combine_plan(plan, ids), oracle_ids(spec, records)) << spec.to_string();
  }
}

}  // namespace
}  // namespace perfbench
