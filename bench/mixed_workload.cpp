// Mixed insert/query workload against the sharded accumulator: for each
// shard count K the owner preloads a corpus, the cloud warms its witness
// cache, and then alternating insert batches (with the incremental cache
// refresh inside apply) and range queries run against the deployment.
//
// Emits BENCH_mixed_workload.json with, per K:
//   * MixedWorkload/Insert/K=<k> — wall time of the insert rounds and
//     records_per_s throughput (owner insert + cloud apply incl. refresh),
//     plus the refresh's deterministic cost counters: exponent bits over
//     every refresh modexp and the witness groups re-derived
//   * MixedWorkload/Query/K=<k>  — exact-sample median of the cloud search
//     time over the 16 queries (too few samples for a meaningful p99)
//
// The refresh dominates the insert path once the cache holds a few hundred
// witnesses: each witness group's root absorbs the batch's routed prime
// product, and its leaves are re-derived from the root. Routing splits that
// product (and the shards' work) K ways. The leaves' cost no longer grows
// with the product, so K = 1 gains most from grouping and the K-scaling is
// below K×.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/metrics.hpp"

namespace slicer::bench {
namespace {

constexpr std::size_t kBits = 8;

std::size_t floored(double base, std::size_t floor_value) {
  return std::max(floor_value, static_cast<std::size_t>(base * scale()));
}

void run_shard_count(BenchJson& json, std::size_t k) {
  const std::size_t preload = floored(1024, 256);
  const std::size_t batch_size = floored(128, 32);
  const std::size_t rounds = 2;
  const std::size_t queries = 16;

  // Per-K metrics scope: recording is on for the refresh counters, and
  // every instrument starts from zero each run.
  const metrics::ScopedMetrics scoped;

  auto world = make_world(kBits, preload, /*ingest=*/true, /*shard_count=*/k);
  world->cloud->precompute_witnesses();
  const std::size_t cache_size = world->cloud->prime_count();

  // Insert rounds: owner ingest + cloud apply, which refreshes the witness
  // cache against each batch. The refresh cost counters are deterministic
  // (exponent bits, groups re-derived), so they are recorded as
  // deltas over the rounds beside the wall time.
  const auto refresh_counter = [](const char* name) {
    return metrics::counter(name).value();
  };
  const std::uint64_t bits_before =
      refresh_counter("adscrypto.sharded.refresh_exp_bits");
  const std::uint64_t rederived_before =
      refresh_counter("adscrypto.sharded.refresh_groups_rederived");
  std::size_t inserted = 0;
  const auto insert_start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto batch = gen_records(kBits, batch_size,
                                   /*id_base=*/preload + 1 + inserted,
                                   "mixed-" + std::to_string(k));
    world->cloud->apply(world->owner->insert(batch));
    inserted += batch.size();
  }
  const double insert_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - insert_start)
                               .count();
  const double throughput =
      insert_ms > 0 ? static_cast<double>(inserted) / (insert_ms / 1e3) : 0;
  const auto refresh_bits = static_cast<double>(
      refresh_counter("adscrypto.sharded.refresh_exp_bits") - bits_before);
  const auto groups_rederived = static_cast<double>(
      refresh_counter("adscrypto.sharded.refresh_groups_rederived") -
      rederived_before);

  // Query phase: verified range searches against the refreshed deployment.
  world->user = std::make_unique<core::DataUser>(
      world->owner->export_user_state(),
      crypto::Drbg(str_bytes("mixed-user-" + std::to_string(k))));
  const auto values = query_values(kBits, queries, "mixed-q");
  std::size_t verified = 0;
  std::vector<double> search_ms;
  search_ms.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto mc = i % 2 == 0 ? core::MatchCondition::kGreater
                               : core::MatchCondition::kLess;
    const auto tokens = world->user->make_tokens(values[i], mc);
    const auto search_start = std::chrono::steady_clock::now();
    const auto replies = world->cloud->search(tokens);
    search_ms.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - search_start)
                            .count());
    if (core::verify_query(world->acc_params, world->cloud->shard_values(),
                           tokens, replies, world->config.prime_bits).verified)
      ++verified;
  }
  const double p50 = percentile(std::move(search_ms), 0.50);

  std::printf(
      "K=%zu  insert %8.1f ms (%7.1f rec/s, %zu witnesses, refresh %.0f exp "
      "bits, %.0f groups re-derived)  "
      "query p50 %.3f ms  (%zu/%zu verified)\n",
      k, insert_ms, throughput, cache_size, refresh_bits, groups_rederived,
      p50, verified, values.size());

  json.add({"MixedWorkload/Insert/K=" + std::to_string(k),
            insert_ms,
            1,
            {{"shards", static_cast<double>(k)},
             {"records_per_s", throughput},
             {"inserted", static_cast<double>(inserted)},
             {"preload", static_cast<double>(preload)},
             {"witness_cache", static_cast<double>(cache_size)},
             {"refresh_exp_bits", refresh_bits},
             {"refresh_groups_rederived", groups_rederived}}});
  json.add({"MixedWorkload/Query/K=" + std::to_string(k),
            p50,
            static_cast<std::int64_t>(values.size()),
            {{"shards", static_cast<double>(k)},
             {"p50_ms", p50},
             {"verified", static_cast<double>(verified)}}});
}

}  // namespace
}  // namespace slicer::bench

int main() {
  using namespace slicer::bench;
  BenchJson json("mixed_workload");
  for (const std::size_t k : {1u, 2u, 4u, 8u}) run_shard_count(json, k);
  json.write();
  return 0;
}
