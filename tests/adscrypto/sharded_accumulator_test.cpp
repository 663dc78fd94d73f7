#include "adscrypto/sharded_accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("sharded-acc-test")); }

std::vector<BigUint> sample_primes(std::size_t n, std::uint64_t salt = 0) {
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(hash_to_prime(be64(salt * 1'000'000 + i)));
  return out;
}

class ShardedAccumulatorTest : public ::testing::Test {
 protected:
  ShardedAccumulatorTest() : rng_(test_rng()) {
    auto [params, trapdoor] = RsaAccumulator::setup(rng_, 256);
    params_ = params;
    trapdoor_ = trapdoor;
  }

  crypto::Drbg rng_;
  AccumulatorParams params_;
  AccumulatorTrapdoor trapdoor_;
};

TEST(ShardRouting, SingleShardAlwaysRoutesToZero) {
  for (const BigUint& x : sample_primes(16)) {
    EXPECT_EQ(shard_of(x, 0), 0u);
    EXPECT_EQ(shard_of(x, 1), 0u);
  }
}

TEST(ShardRouting, DeterministicAndInRange) {
  const auto primes = sample_primes(64);
  for (const std::size_t k : {2u, 4u, 8u, 256u}) {
    for (const BigUint& x : primes) {
      const std::size_t s = shard_of(x, k);
      EXPECT_LT(s, k);
      EXPECT_EQ(shard_of(x, k), s);  // stable across calls
    }
  }
}

TEST(ShardRouting, SpreadsAcrossShards) {
  // The splitmix64 router must not collapse: with 256 primes over 4 shards
  // every shard receives some (deterministic, so this can never flake).
  const auto primes = sample_primes(256);
  std::vector<std::size_t> counts(4, 0);
  for (const BigUint& x : primes) ++counts[shard_of(x, 4)];
  for (std::size_t s = 0; s < 4; ++s) EXPECT_GT(counts[s], 0u) << s;
}

TEST_F(ShardedAccumulatorTest, FoldOfOneValueIsTheValueItself) {
  const std::vector<BigUint> one{params_.generator};
  EXPECT_EQ(fold_shard_digests(one), params_.generator);
  EXPECT_THROW(fold_shard_digests({}), CryptoError);
}

TEST_F(ShardedAccumulatorTest, FoldCommitsToValueAndPosition) {
  std::vector<BigUint> values{BigUint(5), BigUint(7), BigUint(11)};
  const BigUint d = fold_shard_digests(values);
  std::swap(values[0], values[1]);
  EXPECT_NE(fold_shard_digests(values), d);  // position matters
  std::swap(values[0], values[1]);
  values[2] = BigUint(13);
  EXPECT_NE(fold_shard_digests(values), d);  // value matters
}

TEST_F(ShardedAccumulatorTest, SingleShardBitIdenticalToRsaAccumulator) {
  // Hard constraint of the sharded layout: K = 1 reproduces the legacy
  // accumulator byte for byte — digest, per-element witnesses, and the
  // trapdoor fast path.
  const RsaAccumulator legacy(params_);
  const auto primes = sample_primes(23);

  ShardedAccumulator pub(params_, 1);
  pub.insert(primes);
  EXPECT_EQ(pub.digest(), legacy.accumulate(primes));
  EXPECT_EQ(pub.shard_values().size(), 1u);
  EXPECT_EQ(pub.shard_value(0), pub.digest());

  ShardedAccumulator trap(params_, 1);
  trap.insert(primes, trapdoor_);
  EXPECT_EQ(trap.digest(), legacy.accumulate(primes, trapdoor_));

  const auto caches = pub.all_witnesses();
  const auto legacy_wit = legacy.all_witnesses(primes);
  ASSERT_EQ(caches.size(), 1u);
  EXPECT_EQ(caches[0].leaves, legacy_wit);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const auto pos = pub.find(primes[i]);
    ASSERT_TRUE(pos.has_value());
    EXPECT_EQ(pos->shard, 0u);
    EXPECT_EQ(pos->index, i);
    EXPECT_EQ(pub.witness(*pos), legacy_wit[i]);
  }
}

TEST_F(ShardedAccumulatorTest, IncrementalTrapdoorInsertsMatchFromScratch) {
  // Batched trapdoor inserts fold into the running exponent; the result must
  // equal accumulating the concatenated prime list from scratch.
  const RsaAccumulator legacy(params_);
  ShardedAccumulator acc(params_, 1);
  std::vector<BigUint> all;
  for (const std::size_t n : {5u, 1u, 12u, 7u}) {
    const auto batch = sample_primes(n, all.size() + 1);
    all.insert(all.end(), batch.begin(), batch.end());
    acc.insert(batch, trapdoor_);
    EXPECT_EQ(acc.digest(), legacy.accumulate(all, trapdoor_));
  }
}

TEST_F(ShardedAccumulatorTest, TrapdoorPathMatchesPublicPathAnyShardCount) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    const auto primes = sample_primes(31, k);
    ShardedAccumulator pub(params_, k);
    ShardedAccumulator trap(params_, k);
    pub.insert(primes);
    trap.insert(primes, trapdoor_);
    EXPECT_EQ(pub.shard_values(), trap.shard_values()) << "k=" << k;
    EXPECT_EQ(pub.digest(), trap.digest()) << "k=" << k;
  }
}

TEST_F(ShardedAccumulatorTest, WitnessesVerifyAgainstTheirShard) {
  for (const std::size_t k : {2u, 8u}) {
    ShardedAccumulator acc(params_, k);
    const auto primes = sample_primes(26, 100 + k);
    acc.insert(primes);
    const auto values = acc.shard_values();
    for (const BigUint& x : primes) {
      const auto pos = acc.find(x);
      ASSERT_TRUE(pos.has_value());
      EXPECT_EQ(pos->shard, shard_of(x, k));
      const BigUint w = acc.witness(*pos);
      EXPECT_TRUE(ShardedAccumulator::verify(params_, values, x, w));
    }
    // A witness from one element must not prove another.
    const auto p0 = acc.find(primes[0]);
    EXPECT_FALSE(ShardedAccumulator::verify(params_, values, primes[1],
                                            acc.witness(*p0)));
    EXPECT_FALSE(ShardedAccumulator::verify(params_, {}, primes[0],
                                            acc.witness(*p0)));
  }
}

TEST_F(ShardedAccumulatorTest, InsertWithValuesAdoptsOwnerState) {
  const auto primes = sample_primes(19, 7);
  ShardedAccumulator owner(params_, 4);
  owner.insert(primes, trapdoor_);

  ShardedAccumulator cloud(params_, 4);
  cloud.insert_with_values(primes, owner.shard_values());
  EXPECT_EQ(cloud.shard_values(), owner.shard_values());
  EXPECT_EQ(cloud.digest(), owner.digest());
  EXPECT_EQ(cloud.all_witnesses(), owner.all_witnesses());

  ShardedAccumulator mismatched(params_, 2);
  EXPECT_THROW(mismatched.insert_with_values(primes, owner.shard_values()),
               ProtocolError);
}

TEST_F(ShardedAccumulatorTest, RebuildMatchesIncrementalInserts) {
  const auto primes = sample_primes(27, 9);
  for (const std::size_t k : {1u, 4u}) {
    ShardedAccumulator incremental(params_, k);
    incremental.insert(primes);

    ShardedAccumulator restored_pub(params_, k);
    restored_pub.rebuild(primes, nullptr);
    EXPECT_EQ(restored_pub.shard_values(), incremental.shard_values());

    ShardedAccumulator restored_trap(params_, k);
    restored_trap.rebuild(primes, &trapdoor_);
    EXPECT_EQ(restored_trap.shard_values(), incremental.shard_values());

    for (const BigUint& x : primes)
      EXPECT_EQ(restored_pub.find(x)->index, incremental.find(x)->index);
    EXPECT_THROW(restored_pub.rebuild(primes, nullptr), ProtocolError);
  }
}

TEST_F(ShardedAccumulatorTest, EmptyBatchLeavesStateUntouched) {
  ShardedAccumulator acc(params_, 2);
  acc.insert(sample_primes(6, 11));
  const BigUint before = acc.digest();
  const auto batch = acc.insert(std::span<const BigUint>{});
  EXPECT_TRUE(batch.empty);
  EXPECT_EQ(acc.digest(), before);
  EXPECT_EQ(acc.prime_count(), 6u);
}

TEST_F(ShardedAccumulatorTest, ReinsertedElementReportsLatestPosition) {
  // Historical cloud semantics: the prime→position map overwrites on
  // duplicates, so a re-derived prime proves against its newest slot.
  ShardedAccumulator acc(params_, 1);
  const auto primes = sample_primes(4, 13);
  acc.insert(primes);
  acc.insert(std::vector<BigUint>{primes[1]});
  const auto pos = acc.find(primes[1]);
  ASSERT_TRUE(pos.has_value());
  EXPECT_EQ(pos->index, 4u);
}

// Checks a cache against the accumulator: it equals the from-scratch build,
// and every group root, raised to its group's product, is the shard value
// (so the roots are right on their own, not only equal to another build).
void expect_cache_exact(const ShardedAccumulator& acc,
                        const ShardedAccumulator::WitnessCache& caches,
                        const std::string& where) {
  EXPECT_EQ(caches, acc.all_witnesses()) << where;
  const bigint::Montgomery mont(acc.params().modulus);
  constexpr std::size_t m = ShardedAccumulator::kWitnessGroup;
  for (std::size_t s = 0; s < acc.shard_count() && s < caches.size(); ++s) {
    const auto primes = acc.shard_primes(s);
    ASSERT_EQ(caches[s].leaves.size(), primes.size()) << where;
    ASSERT_EQ(caches[s].roots.size(), (primes.size() + m - 1) / m) << where;
    for (std::size_t j = 0; j < caches[s].roots.size(); ++j) {
      const auto group = primes.subspan(j * m, std::min(m, primes.size() - j * m));
      EXPECT_EQ(mont.pow(caches[s].roots[j], product_tree(group)),
                acc.shard_value(s))
          << where << " shard " << s << " group " << j;
    }
  }
}

// The refresh is the heart of the write path: after each batch, the group
// roots absorb the batch product and each group's leaves are re-derived
// from its root; the result must reproduce the from-scratch
// cache exactly — for every shard count, over a randomized multi-batch
// schedule (random routing leaves some shards without new primes).
TEST_F(ShardedAccumulatorTest, IncrementalRefreshMatchesFromScratch) {
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    ShardedAccumulator acc(params_, k);
    ShardedAccumulator::WitnessCache caches(k);
    std::uint64_t salt = 17 * k;
    for (std::size_t round = 0; round < 4; ++round) {
      const std::size_t n = 1 + (rng_.generate(1)[0] % 13);
      const auto batch_primes = sample_primes(n, ++salt);
      const auto batch = acc.insert(batch_primes);
      acc.refresh_witnesses(caches, batch);
      expect_cache_exact(acc, caches,
                         "k=" + std::to_string(k) + " r=" + std::to_string(round));
    }
  }
}

TEST_F(ShardedAccumulatorTest, IncrementalRefreshRejectsStaleCache) {
  ShardedAccumulator acc(params_, 2);
  const auto b1 = acc.insert(sample_primes(5, 31));
  ShardedAccumulator::WitnessCache caches(2);
  acc.refresh_witnesses(caches, b1);
  const auto b2 = acc.insert(sample_primes(5, 32));
  // Skipping b2's refresh leaves the cache one batch behind; replaying b2
  // against it later is fine, but replaying a *third* batch is not.
  const auto b3 = acc.insert(sample_primes(3, 33));
  EXPECT_THROW(acc.refresh_witnesses(caches, b3), CryptoError);
  // A cache whose roots do not match its leaves is refused as well.
  ShardedAccumulator::WitnessCache extra_root = caches;
  for (auto& shard : extra_root) shard.roots.push_back(BigUint(1));
  EXPECT_THROW(acc.refresh_witnesses(extra_root, b2), CryptoError);
  EXPECT_THROW(acc.refresh_witnesses(caches, b1), CryptoError);
}

TEST_F(ShardedAccumulatorTest, RefreshBitIdenticalAcrossThreadCounts) {
  // The shard-parallel insert and refresh must not depend on scheduling:
  // 1 thread and 8 threads produce byte-identical values and witnesses.
  for (const std::size_t k : {1u, 4u}) {
    ShardedAccumulator::WitnessCache serial_caches;
    std::vector<BigUint> serial_values;
    {
      ThreadPool::ScopedSerial force_serial;
      ShardedAccumulator acc(params_, k);
      ShardedAccumulator::WitnessCache caches(k);
      for (std::size_t round = 0; round < 3; ++round) {
        const auto batch = acc.insert(sample_primes(9, 41 + round));
        acc.refresh_witnesses(caches, batch);
      }
      serial_caches = std::move(caches);
      serial_values = acc.shard_values();
    }
    ThreadPool::ScopedPool eight(8);
    ShardedAccumulator acc(params_, k);
    ShardedAccumulator::WitnessCache caches(k);
    for (std::size_t round = 0; round < 3; ++round) {
      const auto batch = acc.insert(sample_primes(9, 41 + round));
      acc.refresh_witnesses(caches, batch);
    }
    EXPECT_EQ(acc.shard_values(), serial_values) << "k=" << k;
    EXPECT_EQ(caches, serial_caches) << "k=" << k;
  }
}

// Property: a schedule of consecutive batches routing exactly r primes to
// every shard, with r ∈ {1, 4, 16, 64, 200} and small r in between, so full
// groups and a partial tail group are refreshed, a batch fills the tail
// exactly, and large batches span many new groups. After each
// batch the refreshed leaves and roots equal a from-scratch build, at 1 and
// at 8 threads.
TEST_F(ShardedAccumulatorTest, GroupedRefreshPropertyAcrossBatchSizes) {
  // Per-shard prime counts after each batch: 1, 2, 6, 22, 25, 89, 289, 291.
  const std::vector<std::size_t> schedule{1, 1, 4, 16, 3, 64, 200, 2};
  for (const bool serial : {true, false}) {
    std::optional<ThreadPool::ScopedSerial> force_serial;
    std::optional<ThreadPool::ScopedPool> eight;
    if (serial) {
      force_serial.emplace();
    } else {
      eight.emplace(8);
    }
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      ShardedAccumulator acc(params_, k);
      ShardedAccumulator::WitnessCache caches(k);
      std::uint64_t next = 1'000'000 * (k + 1);
      for (std::size_t b = 0; b < schedule.size(); ++b) {
        // Draw primes until every shard has exactly r of them.
        std::vector<std::size_t> need(k, schedule[b]);
        std::size_t missing = k * schedule[b];
        std::vector<BigUint> batch_primes;
        while (missing > 0) {
          BigUint x = hash_to_prime(be64(next++));
          std::size_t& want = need[shard_of(x, k)];
          if (want == 0) continue;
          --want;
          --missing;
          batch_primes.push_back(std::move(x));
        }
        const auto batch = acc.insert(batch_primes);
        acc.refresh_witnesses(caches, batch);
        expect_cache_exact(acc, caches,
                           "threads=" + std::string(serial ? "1" : "8") +
                               " k=" + std::to_string(k) +
                               " batch=" + std::to_string(b));
      }
    }
  }
}

TEST_F(ShardedAccumulatorTest, RefreshCountersTrackGroupsAndExponentBits) {
  // Every pre-batch group is re-derived once per batch that touches its
  // shard, and every refresh modexp adds its exponent's bits.
  const metrics::ScopedMetrics scoped;
  const auto& rederived =
      metrics::counter("adscrypto.sharded.refresh_groups_rederived");
  const auto& bits = metrics::counter("adscrypto.sharded.refresh_exp_bits");
  constexpr std::size_t m = ShardedAccumulator::kWitnessGroup;
  ShardedAccumulator acc(params_, 1);
  ShardedAccumulator::WitnessCache caches(1);
  acc.refresh_witnesses(caches, acc.insert(sample_primes(3 * m, 51)));
  EXPECT_EQ(rederived.value(), 0u);  // no old groups yet

  const std::uint64_t bits_before = bits.value();
  acc.refresh_witnesses(caches, acc.insert(sample_primes(1, 52)));
  EXPECT_EQ(rederived.value(), 3u);
  EXPECT_GT(bits.value(), bits_before);

  acc.refresh_witnesses(caches, acc.insert(sample_primes(4, 53)));
  EXPECT_EQ(rederived.value(), 3u + 4u);  // three full groups and the tail
  expect_cache_exact(acc, caches, "counters");
}

TEST(ShardedAccumulatorEnv, DefaultShardCountClampsAndParses) {
  // Never mutates the environment: only exercises the explicit-count path
  // plus the documented default when SLICER_SHARDS is unset in CI.
  auto rng = crypto::Drbg(str_bytes("sharded-env"));
  auto [params, trapdoor] = RsaAccumulator::setup(rng, 256);
  (void)trapdoor;
  ShardedAccumulator def(params);  // 0 → env knob → 1 in a clean env
  EXPECT_GE(def.shard_count(), 1u);
  EXPECT_LE(def.shard_count(), 256u);
  ShardedAccumulator explicit_k(params, 5);
  EXPECT_EQ(explicit_k.shard_count(), 5u);
}

}  // namespace
}  // namespace slicer::adscrypto
