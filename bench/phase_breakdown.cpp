// Per-phase protocol breakdown regenerated from the metrics subsystem.
//
// Where fig5_search_time.cpp measures the Fig. 5a–5d quantities from the
// outside (wall-clocking each call), this binary derives the same split
// from the *instrumentation inside* the protocol: every phase row is the
// delta of a named histogram (count + exact nanosecond sum) across the
// phase, so the numbers here must agree with the external timers to within
// measurement noise. EXPERIMENTS.md uses that agreement as the acceptance
// check for the observability subsystem.
//
// Emits BENCH_phases.json: the usual rows plus the full metrics snapshot
// of the run as the "phases" section (counters, gauges, histograms).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/metrics.hpp"

namespace slicer::bench {
namespace {

using core::MatchCondition;

/// Number of queries timed per phase and configuration.
constexpr std::size_t kQueries = 4;

double hist_ms(const metrics::Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0
                                  : static_cast<double>(it->second.sum) / 1e6;
}

std::uint64_t hist_count(const metrics::Snapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : it->second.count;
}

std::uint64_t counter_of(const metrics::Snapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

/// Runs each phase and reports histogram growth across it as benchmark
/// rows. Metrics accumulate monotonically over the whole process (no
/// resets), so the final embedded "phases" snapshot covers every phase;
/// rows are deltas between the snapshots bracketing a measured window.
/// One window may emit several rows (row() re-reads the last window) —
/// e.g. a single ingest records both its index and its ADS histogram.
class PhaseTable {
 public:
  explicit PhaseTable(BenchJson& json)
      : json_(json), begin_(metrics::snapshot()), end_(begin_) {}

  /// Executes `fn` as a new measured window and emits one row from it.
  void phase(const std::string& row_name, const std::string& hist,
             const std::function<void()>& fn,
             const std::vector<std::string>& extra_counters = {}) {
    begin_ = std::move(end_);
    fn();
    end_ = metrics::snapshot();
    row(row_name, hist, extra_counters);
  }

  /// Emits another row from the most recent window.
  void row(const std::string& row_name, const std::string& hist,
           const std::vector<std::string>& extra_counters = {}) {
    BenchRow r;
    r.name = row_name;
    r.real_ms = hist_ms(end_, hist) - hist_ms(begin_, hist);
    r.iterations = static_cast<std::int64_t>(hist_count(end_, hist) -
                                             hist_count(begin_, hist));
    for (const std::string& c : extra_counters)
      r.counters[c] =
          static_cast<double>(counter_of(end_, c) - counter_of(begin_, c));
    std::printf("%-44s %10.2f ms  (%lld samples)\n", row_name.c_str(),
                r.real_ms, static_cast<long long>(r.iterations));
    json_.add(std::move(r));
  }

 private:
  BenchJson& json_;
  metrics::Snapshot begin_;
  metrics::Snapshot end_;
};

void run_config(BenchJson& json, std::size_t bits, std::size_t count) {
  const std::string tag =
      "/" + std::to_string(bits) + "bit/" + std::to_string(count);
  PhaseTable table(json);

  // Build — a fresh world so DataOwner ingest instrumentation fires. One
  // window, two rows: ingest records its index and ADS phases separately.
  std::unique_ptr<World> world;
  table.phase("Build/IndexGen" + tag, "core.owner.ingest.index_ns",
              [&] { world = make_world(bits, count); });
  table.row("Build/AdsGen" + tag, "core.owner.ingest.ads_ns",
            {"adscrypto.accumulator.fixed_base_pows",
             "adscrypto.h2p.cache_misses"});

  // Queries: equality values drawn from existing records (matches must
  // occur), order thresholds uniform over the value space — fig5's draw.
  crypto::Drbg pick(str_bytes("phase-breakdown"));
  std::vector<std::uint64_t> eq_values, ord_values;
  for (std::size_t i = 0; i < kQueries; ++i)
    eq_values.push_back(world->records[pick.uniform(world->records.size())].value);
  ord_values = query_values(bits, kQueries, "phase-breakdown-ord");

  const auto run_queries = [&](const std::vector<std::uint64_t>& values,
                               MatchCondition mc, bool vo, bool verify) {
    for (const std::uint64_t q : values) {
      const auto tokens = world->user->make_tokens(q, mc);
      if (!vo) {
        for (const auto& t : tokens) (void)world->cloud->fetch_results(t);
        continue;
      }
      std::vector<core::TokenReply> replies;
      for (const auto& t : tokens)
        replies.push_back(world->cloud->prove(t, world->cloud->fetch_results(t)));
      if (verify)
        (void)core::verify_query(world->acc_params,
                                 world->cloud->shard_values(), tokens,
                                 replies, world->config.prime_bits);
    }
  };

  table.phase("Fig5a/EqualityResultGen" + tag, "core.cloud.fetch_results_ns",
              [&] { run_queries(eq_values, MatchCondition::kEqual, false, false); });
  table.phase("Fig5b/EqualityVoGen" + tag, "core.cloud.prove_ns",
              [&] { run_queries(eq_values, MatchCondition::kEqual, true, false); },
              {"core.cloud.witness_cache.hits", "core.cloud.witness_cache.misses"});
  table.phase("Fig5c/OrderResultGen" + tag, "core.cloud.fetch_results_ns",
              [&] { run_queries(ord_values, MatchCondition::kGreater, false, false); });
  table.phase("Fig5d/OrderVoGen" + tag, "core.cloud.prove_ns",
              [&] { run_queries(ord_values, MatchCondition::kGreater, true, false); },
              {"core.cloud.witness_cache.hits", "core.cloud.witness_cache.misses"});
  table.phase("Verify/Order" + tag, "core.verify.query_ns",
              [&] { run_queries(ord_values, MatchCondition::kGreater, true, true); },
              {"adscrypto.accumulator.verifies"});
}

}  // namespace
}  // namespace slicer::bench

int main() {
  using namespace slicer;

  // The whole point of this binary is the instrumentation — recording is
  // forced on regardless of SLICER_METRICS.
  metrics::set_enabled(true);
  metrics::reset();

  bench::BenchJson json("phases");
  // Two bit widths, small and mid record counts: enough for the Fig. 5
  // shape comparison without repeating the full fig5 sweep.
  for (const std::size_t bits : {8, 16})
    for (const std::size_t count :
         {bench::record_counts().front(), bench::record_counts()[2]})
      bench::run_config(json, bits, count);
  json.write();

  std::printf("\nwrote BENCH_phases.json (with embedded phase snapshot)\n");
  return 0;
}
