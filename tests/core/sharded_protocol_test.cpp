// Sharded-accumulator protocol tests: the K = 1 layout must reproduce the
// pre-sharding deployment bit for bit (pinned golden digests/witnesses), and
// K > 1 deployments must run the full owner→cloud→user protocol with
// verifying proofs, an incrementally refreshed witness cache, and a chain
// digest that folds the per-shard values.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "adscrypto/sharded_accumulator.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::plain_query;
using testing::Rig;

std::vector<Record> golden_batch1() {
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < 40; ++i) out.push_back({i + 1, (i * 37) % 256});
  return out;
}

std::vector<Record> golden_batch2() {
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < 17; ++i)
    out.push_back({i + 100, (i * 91 + 5) % 256});
  return out;
}

// Digests and witnesses captured from the single-accumulator code before
// sharding landed. The K = 1 layout is contractually bit-identical: these
// values are what the chain stored, so they may never drift.
TEST(ShardedProtocol, GoldenK1BitIdenticalToPreShardingCode) {
  Rig rig = Rig::make(8, "shard-golden", {}, /*shard_count=*/1);
  ASSERT_EQ(rig.cloud->shard_count(), 1u);

  rig.cloud->apply(rig.owner->insert(golden_batch1()));
  EXPECT_EQ(rig.owner->accumulator_value().to_hex(),
            "50d5c87c05090af13a7e7b11cb5470145d8d7c16fb159ae46593404680afb455");

  rig.cloud->precompute_witnesses();
  rig.cloud->apply(rig.owner->insert(golden_batch2()));
  rig.user->refresh(rig.owner->export_user_state());
  EXPECT_EQ(rig.owner->accumulator_value().to_hex(),
            "5c849d976f2b5584d2371a08a47e84d5e25bc45684c7e97f64c5a2d037ecbb78");
  EXPECT_EQ(rig.cloud->accumulator_value(), rig.owner->accumulator_value());

  const auto tokens = rig.user->make_tokens(42, MatchCondition::kGreater);
  const auto replies = rig.cloud->search(tokens);
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(replies[0].witness.to_hex(),
            "2588c3f6397d95a39ab1b41af9a9699570dee74b3df4296240a64cc5c6ad812a");
  EXPECT_EQ(replies[1].witness.to_hex(),
            "70bd26119a7abf710dad14118856e1989a4aa8aac9d6f4dc38d1279950aa2ab3");
  EXPECT_EQ(replies[2].witness.to_hex(),
            "38cbdcfc8b37c8fc1fe4faf4757748b8c5f8f7db8f98d320f9dcb964704d0ef2");
}

TEST(ShardedProtocol, EndToEndAcrossShardCounts) {
  const auto records = golden_batch1();
  for (const std::size_t k : {2u, 4u, 8u}) {
    Rig rig = Rig::make(8, "shard-e2e", {}, k);
    ASSERT_EQ(rig.cloud->shard_count(), k);
    rig.ingest(records);

    // Owner and cloud agree on per-shard values and the folded digest.
    EXPECT_EQ(rig.cloud->shard_values().size(), k);
    EXPECT_EQ(rig.owner->accumulator_value(), rig.cloud->accumulator_value());
    EXPECT_EQ(adscrypto::fold_shard_digests(rig.cloud->shard_values()),
              rig.cloud->accumulator_value());

    for (const std::uint64_t value : {0ull, 42ull, 111ull, 255ull}) {
      for (const auto mc : {MatchCondition::kEqual, MatchCondition::kGreater,
                            MatchCondition::kLess}) {
        const auto outcome = rig.query(value, mc);
        EXPECT_TRUE(outcome.verified) << "k=" << k << " v=" << value;
        EXPECT_EQ(outcome.ids, plain_query(records, value, mc))
            << "k=" << k << " v=" << value;
      }
    }
  }
}

TEST(ShardedProtocol, ShardCountsProduceIdenticalQueryResults) {
  // Sharding is a server-side layout choice: the decrypted result sets are
  // identical at every K (only witnesses/digests differ).
  const auto records = golden_batch1();
  std::vector<RecordId> baseline;
  for (const std::size_t k : {1u, 4u}) {
    Rig rig = Rig::make(8, "shard-layout", {}, k);
    rig.ingest(records);
    const auto outcome = rig.query(42, MatchCondition::kGreater);
    ASSERT_TRUE(outcome.verified) << "k=" << k;
    if (k == 1) {
      baseline = outcome.ids;
    } else {
      EXPECT_EQ(outcome.ids, baseline);
    }
  }
}

TEST(ShardedProtocol, EmptyUpdateSkipsWitnessRefresh) {
  const metrics::ScopedMetrics scoped;  // counters are off by default
  Rig rig = Rig::make(8, "shard-skip", {}, 2);
  rig.ingest({{1, 42}, {2, 7}, {3, 99}});
  rig.cloud->precompute_witnesses();
  ASSERT_TRUE(rig.cloud->witnesses_precomputed());
  const auto ac_before = rig.cloud->accumulator_value();

  const auto& skips = metrics::counter("core.cloud.apply.refresh_skips");
  const std::uint64_t skips_before = skips.value();
  rig.cloud->apply(rig.owner->insert(std::span<const Record>{}));
  EXPECT_EQ(skips.value(), skips_before + 1);

  // No primes entered, so the cache survived untouched and still proves.
  EXPECT_TRUE(rig.cloud->witnesses_precomputed());
  EXPECT_EQ(rig.cloud->accumulator_value(), ac_before);
  EXPECT_TRUE(rig.query(42, MatchCondition::kEqual).verified);
}

TEST(ShardedProtocol, UpdateWithoutShardValuesIsRejectedUnchanged) {
  // Every update with new primes must carry one value per shard, K = 1
  // included, and a rejected update leaves the cloud as it was.
  for (const std::size_t k : {1u, 4u}) {
    Rig rig = Rig::make(8, "shard-reject", {}, k);
    rig.ingest(golden_batch1());
    const UpdateOutput good = rig.owner->insert(golden_batch2());
    UpdateOutput bad = good;
    bad.shard_values.clear();
    const std::size_t entries = rig.cloud->index().size();
    const std::size_t primes = rig.cloud->prime_count();
    const auto values = rig.cloud->shard_values();
    EXPECT_THROW(rig.cloud->apply(bad), ProtocolError) << "K=" << k;
    EXPECT_EQ(rig.cloud->index().size(), entries) << "K=" << k;
    EXPECT_EQ(rig.cloud->prime_count(), primes) << "K=" << k;
    EXPECT_EQ(rig.cloud->shard_values(), values) << "K=" << k;

    rig.cloud->apply(good);
    rig.user->refresh(rig.owner->export_user_state());
    EXPECT_TRUE(rig.query(42, MatchCondition::kGreater).verified) << "K=" << k;
  }
}

TEST(ShardedProtocol, IncrementalRefreshServesCachedWitnesses) {
  const metrics::ScopedMetrics scoped;  // counters are off by default
  Rig rig = Rig::make(8, "shard-refresh", {}, 4);
  rig.ingest(golden_batch1());
  rig.cloud->precompute_witnesses();

  const auto& hits = metrics::counter("core.cloud.witness_cache.hits");
  const auto& misses = metrics::counter("core.cloud.witness_cache.misses");

  // Each subsequent batch refreshes the cache incrementally in apply();
  // queries after it must be pure cache hits and still verify.
  rig.ingest(golden_batch2());
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();
  const auto outcome = rig.query(42, MatchCondition::kGreater);
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(misses.value(), misses_before);
  EXPECT_GT(hits.value(), hits_before);
}

TEST(ShardedProtocol, GroupedRefreshMatchesOnDemandWitnesses) {
  // Property over the per-group refresh in apply(): after each of several
  // batches of growing size (one record up to enough to span several new
  // witness groups per shard), the refreshed cache serves every queried
  // witness — no on-demand fallback — and each equals the exact on-demand
  // witness of a cloud that never caches.
  const metrics::ScopedMetrics scoped;
  const auto& misses = metrics::counter("core.cloud.witness_cache.misses");
  const std::vector<std::size_t> batch_sizes{1, 3, 12, 40};
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    Rig cached = Rig::make(8, "shard-async-prop", {}, k);
    Rig on_demand = Rig::make(8, "shard-async-prop", {}, k);
    cached.cloud->precompute_witnesses();
    std::uint64_t id = 1;
    for (const std::size_t n : batch_sizes) {
      std::vector<Record> batch;
      for (std::size_t i = 0; i < n; ++i, ++id)
        batch.push_back({id, (id * 151 + 7) % 256});
      cached.ingest(batch);
      on_demand.ingest(batch);
      for (const std::uint64_t value : {0ull, 42ull, 111ull, 200ull, 255ull}) {
        for (const auto mc : {MatchCondition::kEqual, MatchCondition::kGreater,
                              MatchCondition::kLess}) {
          const auto tokens = cached.user->make_tokens(value, mc);
          const std::uint64_t misses_before = misses.value();
          const auto replies = cached.cloud->search(tokens);
          EXPECT_EQ(misses.value(), misses_before)
              << "k=" << k << " batch=" << n << " v=" << value;
          const auto expected =
              on_demand.cloud->search(on_demand.user->make_tokens(value, mc));
          ASSERT_EQ(replies.size(), expected.size());
          for (std::size_t i = 0; i < replies.size(); ++i)
            EXPECT_EQ(replies[i].witness, expected[i].witness)
                << "k=" << k << " batch=" << n << " v=" << value << " i=" << i;
        }
      }
    }
  }
}

TEST(ShardedProtocol, SnapshotRoundTripAtK4) {
  // The snapshot wire format is shard-agnostic; a K = 4 deployment restores
  // from it by recomputing its shard values from the flat prime list.
  Rig source = Rig::make(8, "shard-snap", {}, 4);
  source.cloud->apply(source.owner->insert(golden_batch1()));
  const Bytes owner_snapshot = source.owner->serialize_state();
  const Bytes cloud_snapshot = source.cloud->serialize_state();

  Rig restored = Rig::make(8, "shard-snap", {}, 4);
  restored.owner->restore_state(owner_snapshot);
  restored.cloud->restore_state(cloud_snapshot);
  EXPECT_EQ(restored.cloud->shard_values(), source.cloud->shard_values());
  EXPECT_EQ(restored.owner->accumulator_value(),
            source.owner->accumulator_value());

  // The resumed deployment continues bit-identically.
  restored.cloud->apply(restored.owner->insert(golden_batch2()));
  source.cloud->apply(source.owner->insert(golden_batch2()));
  EXPECT_EQ(restored.cloud->serialize_state(), source.cloud->serialize_state());
  restored.user->refresh(restored.owner->export_user_state());
  EXPECT_TRUE(restored.query(42, MatchCondition::kLess).verified);
}

}  // namespace
}  // namespace slicer::core
