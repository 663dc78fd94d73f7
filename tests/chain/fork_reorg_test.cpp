// Hostile-chain behavior: competing branches, fork choice, reorg state
// rollback, mempool fee pressure, client finality tolerance and the
// submitter's orphan-resubmission path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/finality.hpp"
#include "chain/slicer_contract.hpp"
#include "chain/tx_submitter.hpp"
#include "common/fault.hpp"
#include "crypto/sha256.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::chain {
namespace {

using core::MatchCondition;
using core::testing::Rig;

class ForkReorgTest : public ::testing::Test {
 protected:
  ForkReorgTest()
      : chain_({Address::from_label("val-0"), Address::from_label("val-1"),
                Address::from_label("val-2")}),
        alice_(Address::from_label("alice")),
        bob_(Address::from_label("bob")) {
    chain_.credit(alice_, 1'000'000);
    chain_.credit(bob_, 1'000'000);
  }

  Blockchain chain_;
  Address alice_, bob_;
};

TEST_F(ForkReorgTest, SiblingBlockDoesNotReorgUntilItsBranchIsLonger) {
  const Block b0 = chain_.seal_block();           // number 0, in-turn val-0
  const Block b1 = chain_.seal_block();           // number 1, in-turn val-1
  const Bytes b1_hash = b1.header_hash();
  ASSERT_EQ(chain_.height(), 2u);

  // A competing out-of-turn sibling of b1: same height, lower cumulative
  // difficulty — the canonical tip must not move.
  const Block sib =
      chain_.seal_block_on(b0.header_hash(), /*validator=*/2,
                           {chain_.make_tx(alice_, bob_, 100)});
  EXPECT_EQ(chain_.canonical_tip_hash(), b1_hash);
  EXPECT_TRUE(chain_.is_canonical(b1_hash));
  EXPECT_FALSE(chain_.is_canonical(sib.header_hash()));
  EXPECT_EQ(chain_.stats().reorgs, 0u);
  // The sibling's transfer executed only on its own branch.
  EXPECT_EQ(chain_.balance(bob_), 1'000'000u);

  // Extending the sibling makes that branch longer: fork choice reorgs.
  chain_.seal_block_on(sib.header_hash(), /*validator=*/2, {});
  EXPECT_EQ(chain_.height(), 3u);
  EXPECT_FALSE(chain_.is_canonical(b1_hash));
  EXPECT_TRUE(chain_.is_canonical(sib.header_hash()));
  EXPECT_EQ(chain_.stats().reorgs, 1u);
  EXPECT_EQ(chain_.balance(bob_), 1'000'100u);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(ForkReorgTest, ReorgRollsBackBalancesAndReceipts) {
  const Block b0 = chain_.seal_block();
  const Bytes tx_hash = chain_.submit(chain_.make_tx(alice_, bob_, 5'000));
  chain_.seal_block();  // b1 carries the transfer
  ASSERT_TRUE(chain_.receipt_of(tx_hash).has_value());
  const std::uint64_t bob_after = chain_.balance(bob_);
  EXPECT_EQ(bob_after, 1'005'000u);

  // A two-block empty branch from b0 wins fork choice: the transfer is
  // rolled back wholesale and its receipt disappears from the canonical
  // view.
  const Block f1 = chain_.seal_block_on(b0.header_hash(), 2, {});
  chain_.seal_block_on(f1.header_hash(), 0, {});
  EXPECT_EQ(chain_.stats().reorgs, 1u);
  EXPECT_EQ(chain_.stats().orphaned_txs, 1u);
  EXPECT_FALSE(chain_.receipt_of(tx_hash).has_value());
  EXPECT_EQ(chain_.balance(bob_), 1'000'000u);

  // Branch-scoped nonce tracking: the orphaned transaction genuinely
  // re-executes when resubmitted on the winning branch.
  chain_.submit(chain_.make_tx(alice_, bob_, 5'000));
  chain_.seal_block();
  EXPECT_EQ(chain_.balance(bob_), 1'005'000u);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(ForkReorgTest, SameHeightTieBreaksByLowestSealHashDeterministically) {
  // Two out-of-turn siblings at the same height carry equal cumulative
  // difficulty; the canonical winner must be the lexicographically lowest
  // SHA-256(seal) — pinned here against an independent recomputation, and
  // reproducible across rebuilds.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto build = [&](Blockchain& c) {
      c.credit(alice_, 1'000'000);
      const Block b0 = c.seal_block();
      const Block s1 = c.seal_block_on(
          b0.header_hash(), 2, {c.make_tx(alice_, bob_, 10 + seed)});
      const Block s2 = c.seal_block_on(
          b0.header_hash(), 0, {c.make_tx(alice_, bob_, 10 + seed)});
      return std::pair{s1, s2};
    };
    Blockchain first({Address::from_label("val-0"),
                      Address::from_label("val-1"),
                      Address::from_label("val-2")});
    const auto [s1, s2] = build(first);
    ASSERT_EQ(first.height(), 2u);
    const Bytes k1 = crypto::Sha256::digest(s1.seal);
    const Bytes k2 = crypto::Sha256::digest(s2.seal);
    ASSERT_NE(k1, k2);
    const Bytes& expected =
        k1 < k2 ? s1.header_hash() : s2.header_hash();
    EXPECT_EQ(first.canonical_tip_hash(), expected) << "seed " << seed;
    EXPECT_TRUE(first.audit());

    // Same construction → same canonical tip, bit for bit.
    Blockchain second({Address::from_label("val-0"),
                       Address::from_label("val-1"),
                       Address::from_label("val-2")});
    build(second);
    EXPECT_EQ(second.canonical_tip_hash(), first.canonical_tip_hash())
        << "seed " << seed;
  }
}

TEST_F(ForkReorgTest, ReorgToForcesBranchAndAuditStillPasses) {
  const Block b0 = chain_.seal_block();
  chain_.seal_block();
  const Block sib = chain_.seal_block_on(b0.header_hash(), 2, {});
  ASSERT_FALSE(chain_.is_canonical(sib.header_hash()));

  // Operator override: adopt the lighter branch anyway.
  chain_.reorg_to(sib.header_hash());
  EXPECT_TRUE(chain_.is_canonical(sib.header_hash()));
  EXPECT_EQ(chain_.height(), 2u);
  EXPECT_TRUE(chain_.audit());  // manual override is audit-exempt

  // The next seal re-runs fork choice from the manual tip.
  chain_.seal_block();
  EXPECT_EQ(chain_.height(), 3u);
  EXPECT_TRUE(chain_.audit());
  EXPECT_THROW(chain_.reorg_to(Bytes(32, 0x5c)), ProtocolError);
}

TEST_F(ForkReorgTest, MempoolEvictsCheapestWhenFull) {
  Blockchain chain({Address::from_label("val-0")}, GasSchedule{},
                   BlockchainConfig{.mempool_cap = 4});
  chain.credit(alice_, 1'000'000);
  EXPECT_EQ(chain.mempool_cap(), 4u);

  std::vector<Bytes> cheap;
  for (int i = 0; i < 4; ++i)
    cheap.push_back(chain.submit(
        chain.make_tx(alice_, bob_, 100 + i, {}, 0, /*fee=*/10)));
  EXPECT_EQ(chain.mempool_size(), 4u);

  // A better-paying transaction evicts the cheapest entry...
  const Bytes rich = chain.submit(
      chain.make_tx(alice_, bob_, 500, {}, 0, /*fee=*/50));
  EXPECT_EQ(chain.mempool_size(), 4u);
  EXPECT_EQ(chain.stats().mempool_evicted, 1u);
  // ...and one that does not outbid the pool minimum is itself dropped.
  const Bytes poor = chain.submit(
      chain.make_tx(alice_, bob_, 600, {}, 0, /*fee=*/1));
  EXPECT_EQ(chain.mempool_size(), 4u);
  EXPECT_EQ(chain.stats().mempool_evicted, 2u);

  chain.seal_block();
  EXPECT_FALSE(chain.receipt_of(cheap[0]).has_value());  // evicted victim
  EXPECT_TRUE(chain.receipt_of(cheap[1]).has_value());
  EXPECT_TRUE(chain.receipt_of(rich).has_value());
  EXPECT_FALSE(chain.receipt_of(poor).has_value());
}

TEST_F(ForkReorgTest, FeeIsPaidToTheSealerOnExecution) {
  const std::uint64_t sealer_before = chain_.balance(chain_.validators()[0]);
  chain_.submit(chain_.make_tx(alice_, bob_, 1'000, {}, 0, /*fee=*/77));
  chain_.seal_block();  // number 0 → in-turn validator 0
  EXPECT_EQ(chain_.balance(chain_.validators()[0]), sealer_before + 77);
  EXPECT_EQ(chain_.balance(bob_), 1'001'000u);
}

TEST_F(ForkReorgTest, FloodFaultCrowdsOutCheapTransactions) {
  Blockchain chain({Address::from_label("val-0")}, GasSchedule{},
                   BlockchainConfig{.mempool_cap = 8});
  chain.credit(alice_, 1'000'000);
  ScopedFaultPlan plan("chain.mempool.flood=nth:1");
  const Bytes victim =
      chain.submit(chain.make_tx(alice_, bob_, 1'000, {}, 0, /*fee=*/0));
  EXPECT_GT(chain.stats().flood_injected, 0u);
  EXPECT_GT(chain.stats().mempool_evicted, 0u);
  EXPECT_EQ(chain.mempool_size(), 8u);
  chain.seal_block();
  // The zero-fee victim never made it past the flooded pool.
  EXPECT_FALSE(chain.receipt_of(victim).has_value());
  // A fee-bumped resubmission outbids the flood and lands.
  const Bytes bumped =
      chain.submit(chain.make_tx(alice_, bob_, 1'000, {}, 0, /*fee=*/100));
  chain.seal_block();
  EXPECT_TRUE(chain.receipt_of(bumped).has_value());
  EXPECT_TRUE(chain.audit());
}

TEST_F(ForkReorgTest, SubmitterResubmitsAfterReorgOrphansItsReceipt) {
  // nth:2 — the first seal lands the tx; the second seal's injected branch
  // outgrows it, orphaning the receipt the submitter had already seen.
  ScopedFaultPlan plan("chain.reorg.during_dispute=nth:2");
  TxSubmitter submitter(
      chain_, SubmitterConfig{.max_attempts = 16, .finality_depth = 2});
  const Receipt r =
      submitter.submit_and_wait(chain_.make_tx(alice_, bob_, 9'000));
  EXPECT_TRUE(r.success);
  // Buried deep enough despite the mid-flight reorg.
  EXPECT_GT(chain_.height(), r.block_number + 2);
  EXPECT_GE(submitter.stats().reorg_resubmits, 1u);
  EXPECT_GE(submitter.stats().fee_bumps, 1u);
  EXPECT_GE(chain_.stats().reorgs, 1u);
  // Exactly one execution moved money, however many variants raced.
  EXPECT_EQ(chain_.balance(bob_), 1'009'000u);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(ForkReorgTest, ForkCompeteFaultKeepsChainConsistent) {
  ScopedFaultPlan plan("chain.fork.compete=every:1");
  for (int i = 0; i < 4; ++i) {
    chain_.submit(chain_.make_tx(alice_, bob_, 100));
    chain_.seal_block();
  }
  // Every seal produced a competing sibling: the tree holds more blocks
  // than the canonical chain, and every same-height tie settled cleanly.
  EXPECT_GT(chain_.block_count(), chain_.height());
  EXPECT_TRUE(chain_.audit());
  EXPECT_EQ(chain_.balance(bob_), 1'000'400u);
}

TEST_F(ForkReorgTest, ContractAtDepthThrowsWhenShortOrPruned) {
  Blockchain chain({Address::from_label("val-0")}, GasSchedule{},
                   BlockchainConfig{.max_fork_depth = 4});
  chain.credit(alice_, 1'000'000);
  chain.seal_block();
  EXPECT_THROW(chain.contract_at_depth(bob_, 5), ProtocolError);
  for (int i = 0; i < 8; ++i) chain.seal_block();
  // Deeper than max_fork_depth: the snapshot is pruned (finalized).
  EXPECT_THROW(chain.contract_at_depth(bob_, 6), ProtocolError);
  // Within the horizon: resolves (to nullptr — no contract there).
  EXPECT_EQ(chain.contract_at_depth(bob_, 2), nullptr);
  EXPECT_EQ(chain.block_at_depth(100), nullptr);
  EXPECT_TRUE(chain.audit());
}

/// Finality-reader behavior needs a deployed SlicerContract; the rig wires
/// the off-chain roles.
class FinalityTest : public ::testing::Test {
 protected:
  FinalityTest()
      : rig_(Rig::make(8, "finality")),
        chain_({Address::from_label("val-0"), Address::from_label("val-1"),
                Address::from_label("val-2")}),
        owner_addr_(Address::from_label("data-owner")) {
    chain_.credit(owner_addr_, 10'000'000);
    rig_.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}});
    contract_addr_ = chain_.submit_deployment(
        owner_addr_, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig_.acc_params,
                                    rig_.owner->accumulator_value(),
                                    rig_.config.prime_bits));
    chain_.submit(
        chain_.make_tx(owner_addr_, contract_addr_, 0,
                       encode_update_shards(rig_.owner->shard_values())));
    chain_.seal_block();
  }

  Rig rig_;
  Blockchain chain_;
  Address owner_addr_, contract_addr_;
};

TEST_F(FinalityTest, ReadThrowsUntilTheDigestIsBuried) {
  FinalityReader reader(chain_, contract_addr_, /*depth=*/3);
  EXPECT_THROW(reader.read(), StaleDigest);  // height 1, need > 3
  for (int i = 0; i < 3; ++i) chain_.seal_block();
  const TrustedDigest digest = reader.read();
  EXPECT_EQ(digest.ac, rig_.owner->accumulator_value());
  EXPECT_EQ(digest.anchor_height, 0u);
  EXPECT_NO_THROW(reader.revalidate(digest));
}

TEST_F(FinalityTest, RevalidateThrowsWhenAReorgRemovesTheAnchor) {
  const Block b0 = chain_.blocks()[0];
  chain_.seal_block();  // b1
  FinalityReader reader(chain_, contract_addr_, /*depth=*/1);
  const TrustedDigest digest = reader.read();
  EXPECT_EQ(digest.anchor_height, 0u);

  // depth-1 anchor is block 0... bury a competing branch from genesis past
  // the canonical height. The contract deployment only exists on the
  // original branch, so the anchor (and the digest) vanish wholesale.
  Block fork = chain_.seal_block_on(Bytes(32, 0), 1, {});
  for (std::size_t v = 2; chain_.is_canonical(digest.anchor_hash); v = (v + 1) % 3)
    fork = chain_.seal_block_on(fork.header_hash(), v, {});
  EXPECT_THROW(reader.revalidate(digest), StaleDigest);
}

TEST_F(FinalityTest, VerifyWithFinalityAcceptsHonestRepliesAndCountsRetries) {
  for (int i = 0; i < 3; ++i) chain_.seal_block();
  FinalityReader reader(chain_, contract_addr_, /*depth=*/2);
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);

  int fetches = 0;
  const FinalityVerdict verdict = verify_with_finality(
      reader, rig_.acc_params, tokens,
      [&](const TrustedDigest&) {
        ++fetches;
        if (fetches == 1) {
          // Reorg strikes while the cloud is answering: outgrow the
          // canonical chain from two blocks below the tip, past the
          // anchor.
          const Block* fork_base = chain_.block_at_depth(3);
          Block fork = chain_.seal_block_on(fork_base->header_hash(), 1, {});
          for (int i = 0; i < 4; ++i)
            fork = chain_.seal_block_on(fork.header_hash(), 0, {});
        }
        return rig_.cloud->search(tokens);
      },
      rig_.config.prime_bits);
  EXPECT_TRUE(verdict.verified);
  EXPECT_EQ(verdict.stale_retries, 1u);
  EXPECT_EQ(fetches, 2);
  EXPECT_TRUE(chain_.audit());
}

TEST_F(FinalityTest, DefaultDepthComesFromTheEnvKnob) {
  // No env set in the test harness: documented default.
  EXPECT_EQ(FinalityReader::default_depth(), 3u);
  FinalityReader reader(chain_, contract_addr_);
  EXPECT_EQ(reader.depth(), FinalityReader::default_depth());
}

}  // namespace
}  // namespace slicer::chain
