// The cloud's read-path machinery behind search()/prove(): the hot-token
// proof cache (hits, epoch invalidation on apply, a cold cache after
// restore), the per-query trapdoor-walk memo, and the tokens_served counter
// under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/fault.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/verify.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

const std::vector<Record> kRecords = {
    {1, 42}, {2, 42}, {3, 7},  {4, 99}, {5, 120}, {6, 42},
    {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}};

std::vector<RecordId> decrypt_sorted(const Rig& rig,
                                     const std::vector<TokenReply>& replies) {
  auto ids = rig.user->decrypt(replies);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CloudReadPath, ProofCacheHitsAndEpochInvalidation) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-cache", {}, 2);
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);

  auto& hits = metrics::counter("core.cloud.proof_cache.hits");
  auto& misses = metrics::counter("core.cloud.proof_cache.misses");

  const std::uint64_t misses0 = misses.value();
  const auto first = rig.cloud->search(tokens);
  EXPECT_GE(misses.value() - misses0, tokens.size())
      << "cold cache: every token must miss";

  const std::uint64_t hits0 = hits.value();
  const auto second = rig.cloud->search(tokens);
  EXPECT_GE(hits.value() - hits0, tokens.size())
      << "warm cache: every token must hit";
  EXPECT_EQ(first, second) << "cached proofs must be bit-identical";

  // An insert moves the accumulator: cached witnesses are stale, and the
  // cache must NOT serve them — the fresh reply still verifies.
  rig.ingest({{100, 41}});
  const auto third = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                           third, rig.config.prime_bits).verified)
      << "epoch invalidation must force fresh witnesses after apply";
}

TEST(CloudReadPath, WalkMemoDedupsSharedPermutationSteps) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-memo");
  rig.ingest(kRecords);
  // A second batch advances the touched keywords' generations: tokens now
  // carry j >= 1, so their walks actually step through the permutation.
  std::vector<Record> second;
  for (const Record& r : kRecords) second.push_back({r.id + 100, r.value});
  rig.ingest(second);
  auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  // Duplicate every token: the second copy's whole walk is memoized.
  const std::size_t n = tokens.size();
  const std::vector<SearchToken> copy = tokens;
  tokens.insert(tokens.end(), copy.begin(), copy.end());

  auto& memo_hits = metrics::counter("core.cloud.search.walk_memo_hits");
  const std::uint64_t memo0 = memo_hits.value();
  const auto replies = rig.cloud->search(tokens);
  EXPECT_GT(memo_hits.value(), memo0) << "duplicate tokens must hit the memo";
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(replies[i].encrypted_results, replies[n + i].encrypted_results);
    EXPECT_EQ(replies[i].witness, replies[n + i].witness);
  }
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(), tokens,
                           replies, rig.config.prime_bits).verified);
}

TEST(CloudReadPath, TokensServedCountsOnlyProvenTokens) {
  const metrics::ScopedMetrics metrics_on;
  // Serial execution makes the fault's nth trigger land deterministically
  // on the second worker.
  const ThreadPool::ScopedSerial serial;
  Rig rig = Rig::make(8, "agg-fault");
  rig.ingest(kRecords);
  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GE(tokens.size(), 2u);

  auto& served = metrics::counter("core.cloud.tokens_served");
  {
    const ScopedFaultPlan plan("core.cloud.search.worker=nth:2;seed=7");
    const std::uint64_t served0 = served.value();
    EXPECT_THROW(rig.cloud->search(tokens), FaultError);
    EXPECT_EQ(served.value() - served0, 1u)
        << "only the token proven before the fault may count";
  }
  // Disarmed: the full query counts every token.
  const std::uint64_t served1 = served.value();
  rig.cloud->search(tokens);
  EXPECT_EQ(served.value() - served1, tokens.size());
}

TEST(CloudReadPath, RestoreClearsProofCache) {
  const metrics::ScopedMetrics metrics_on;
  Rig rig = Rig::make(8, "agg-restore");
  rig.ingest(kRecords);
  // Warm the proof cache, snapshot, restore into a fresh cloud with the
  // same identity: no cached proof may leak across the restore.
  const auto tokens = rig.user->make_tokens(90, MatchCondition::kLess);
  const auto warm = rig.cloud->search(tokens);
  const Bytes snapshot = rig.cloud->serialize_state();

  Rig fresh = Rig::make(8, "agg-restore");
  fresh.cloud->restore_state(snapshot);
  auto& misses = metrics::counter("core.cloud.proof_cache.misses");
  const std::uint64_t misses0 = misses.value();
  const auto replies = fresh.cloud->search(tokens);
  EXPECT_EQ(misses.value() - misses0, tokens.size())
      << "a restored cloud starts with a cold proof cache";
  EXPECT_TRUE(verify_query(rig.acc_params, fresh.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);
  EXPECT_EQ(decrypt_sorted(rig, replies), decrypt_sorted(rig, warm));
}

}  // namespace
}  // namespace slicer::core
