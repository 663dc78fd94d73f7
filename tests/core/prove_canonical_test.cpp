// CloudServer::prove canonicalization: the VO is a function of the result
// MULTISET, not the result order. The digest fed to H_prime is an
// MSet-Mu-Hash (a commutative product mod q), so any permutation of the
// fetched results must canonicalize to the identical prime representative
// and membership witness — and verify. This pins the contract documented
// on CloudServer::prove against regressions (e.g. a future digest that
// folds results in sequence order).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/cloud.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

class ProveCanonicalTest : public ::testing::Test {
 protected:
  ProveCanonicalTest() : rig_(Rig::make(8, "prove-canonical")) {
    // Heavy duplication so equality and order tokens both return several
    // results per token — shuffling a singleton would prove nothing.
    rig_.ingest({{1, 50}, {2, 50}, {3, 50}, {4, 50}, {5, 51},
                 {6, 51}, {7, 120}, {8, 120}, {9, 120}, {10, 7}});
  }

  Rig rig_;
};

TEST_F(ProveCanonicalTest, ShuffledResultsYieldIdenticalReply) {
  const auto tokens = rig_.user->make_tokens(50, MatchCondition::kEqual);
  ASSERT_EQ(tokens.size(), 1u);
  const std::vector<Bytes> results = rig_.cloud->fetch_results(tokens[0]);
  ASSERT_GE(results.size(), 4u);

  const TokenReply baseline = rig_.cloud->prove(tokens[0], results);

  std::mt19937 shuffle_rng(0xC0FFEE);
  for (int round = 0; round < 5; ++round) {
    std::vector<Bytes> shuffled = results;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    const TokenReply reply = rig_.cloud->prove(tokens[0], shuffled);
    // Identical witness for every permutation...
    EXPECT_EQ(reply.witness, baseline.witness);
    // ...and the proof verifies regardless of the order it carries.
    EXPECT_TRUE(verify_query(rig_.acc_params, rig_.cloud->shard_values(),
                             std::span(&tokens[0], 1), std::span(&reply, 1),
                             rig_.config.prime_bits)
                    .verified);
  }
}

TEST_F(ProveCanonicalTest, ReversedOrderQueryVerifies) {
  // Order search exercises multi-token proofs; reverse every result list.
  const auto tokens = rig_.user->make_tokens(40, MatchCondition::kGreater);
  ASSERT_GT(tokens.size(), 0u);

  std::vector<TokenReply> replies;
  for (const auto& t : tokens) {
    std::vector<Bytes> results = rig_.cloud->fetch_results(t);
    std::reverse(results.begin(), results.end());
    replies.push_back(rig_.cloud->prove(t, std::move(results)));
  }
  EXPECT_TRUE(verify_query(rig_.acc_params, rig_.cloud->shard_values(),
                           tokens, replies, rig_.config.prime_bits).verified);
}

TEST_F(ProveCanonicalTest, TamperedMultisetStillRejected) {
  // Order-insensitivity must not weaken soundness: swapping a result for a
  // ciphertext of the wrong multiset fails verification.
  const auto tokens = rig_.user->make_tokens(120, MatchCondition::kEqual);
  ASSERT_EQ(tokens.size(), 1u);
  std::vector<Bytes> results = rig_.cloud->fetch_results(tokens[0]);
  ASSERT_GE(results.size(), 2u);

  // Duplicate one element over another: same size, different multiset.
  std::vector<Bytes> tampered = results;
  tampered[0] = tampered[1];
  const TokenReply honest = rig_.cloud->prove(tokens[0], results);
  TokenReply forged = honest;
  forged.encrypted_results = tampered;
  EXPECT_FALSE(verify_query(rig_.acc_params, rig_.cloud->shard_values(),
                            std::span(&tokens[0], 1), std::span(&forged, 1),
                            rig_.config.prime_bits)
                   .verified);
}

}  // namespace
}  // namespace slicer::core
