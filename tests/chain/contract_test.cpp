// Four-party integration: data owner, data user, cloud and blockchain with
// the Slicer contract — the paper's Fig. 1 workflow including fair payment.
#include "chain/slicer_contract.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_rig.hpp"

namespace slicer::chain {
namespace {

using core::MatchCondition;
using core::Record;
using core::testing::Rig;

class ContractTest : public ::testing::Test {
 protected:
  ContractTest()
      : rig_(Rig::make(8, "chain")),
        chain_({Address::from_label("sealer-a"), Address::from_label("sealer-b")}),
        owner_addr_(Address::from_label("data-owner")),
        user_addr_(Address::from_label("data-user")),
        cloud_addr_(Address::from_label("cloud")) {
    chain_.credit(owner_addr_, 10'000'000);
    chain_.credit(user_addr_, 10'000'000);
    chain_.credit(cloud_addr_, 10'000'000);

    rig_.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}});

    contract_addr_ = chain_.submit_deployment(
        owner_addr_, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig_.acc_params,
                                    rig_.owner->accumulator_value(),
                                    rig_.config.prime_bits));
    // Publish the owner's per-shard values in the deployment block, so
    // honest replies verify at any SLICER_SHARDS.
    chain_.submit(
        chain_.make_tx(owner_addr_, contract_addr_, 0,
                       encode_update_shards(rig_.owner->shard_values())));
    chain_.seal_block();
    contract_ = dynamic_cast<SlicerContract*>(chain_.contract_at(contract_addr_));
  }

  /// Runs the full paid search flow; returns the verification outcome byte.
  struct FlowResult {
    bool verified = false;
    std::uint64_t verify_gas = 0;
    std::vector<core::RecordId> ids;
  };

  FlowResult run_flow(std::uint64_t value, MatchCondition mc,
                      std::uint64_t payment,
                      bool tamper = false) {
    const auto tokens = rig_.user->make_tokens(value, mc);
    const Bytes query_tx = chain_.submit(chain_.make_tx(
        user_addr_, contract_addr_, payment, encode_submit_query(tokens)));
    chain_.seal_block();
    const auto query_receipt = chain_.receipt_of(query_tx);
    EXPECT_TRUE(query_receipt.has_value() && query_receipt->success);
    Reader out(query_receipt->output);
    const std::uint64_t query_id = out.u64();

    auto replies = rig_.cloud->search(tokens);
    if (tamper && !replies.empty() && !replies[0].encrypted_results.empty())
      replies[0].encrypted_results.pop_back();
    const auto proven =
        attach_counters(tokens, replies, rig_.config.prime_bits);

    const Bytes result_tx = chain_.submit(
        chain_.make_tx(cloud_addr_, contract_addr_, 0,
                       encode_submit_result(query_id, tokens, proven)));
    chain_.seal_block();
    const auto result_receipt = chain_.receipt_of(result_tx);
    EXPECT_TRUE(result_receipt.has_value() && result_receipt->success);

    FlowResult flow;
    flow.verify_gas = result_receipt->gas_used;
    Reader vr(result_receipt->output);
    flow.verified = vr.u8() == 1;
    flow.ids = rig_.user->decrypt(replies);
    std::sort(flow.ids.begin(), flow.ids.end());
    return flow;
  }

  Rig rig_;
  Blockchain chain_;
  Address owner_addr_, user_addr_, cloud_addr_, contract_addr_;
  SlicerContract* contract_ = nullptr;
};

TEST_F(ContractTest, DeploymentStoresStateAndChargesGas) {
  ASSERT_NE(contract_, nullptr);
  EXPECT_EQ(contract_->owner(), owner_addr_);
  EXPECT_EQ(contract_->stored_ac(), rig_.owner->accumulator_value());
  // The deployment, then the owner's UPDATE_SHARDS publication.
  ASSERT_EQ(chain_.receipts().size(), 2u);
  EXPECT_TRUE(chain_.receipts()[1].success);
  const Receipt& r = chain_.receipts()[0];
  EXPECT_TRUE(r.success);
  // Deployment dominated by code deposit + storage init; six figures.
  EXPECT_GT(r.gas_used, 400'000u);
  EXPECT_LT(r.gas_used, 1'200'000u);
}

TEST_F(ContractTest, HonestCloudGetsPaid) {
  const std::uint64_t payment = 50'000;
  const std::uint64_t cloud_before = chain_.balance(cloud_addr_);
  const std::uint64_t user_before = chain_.balance(user_addr_);

  const auto flow = run_flow(42, MatchCondition::kEqual, payment);
  EXPECT_TRUE(flow.verified);
  EXPECT_EQ(flow.ids, (std::vector<core::RecordId>{1, 2}));

  // Cloud gained the payment (minus its own gas for submit_result).
  const std::uint64_t cloud_after = chain_.balance(cloud_addr_);
  EXPECT_GT(cloud_after + flow.verify_gas, cloud_before);
  EXPECT_EQ(cloud_after, cloud_before + payment - flow.verify_gas);
  // User paid payment + gas for submit_query.
  EXPECT_LT(chain_.balance(user_addr_), user_before - payment);
  EXPECT_EQ(contract_->open_query_count(), 0u);
}

TEST_F(ContractTest, CheatingCloudIsRefusedAndUserRefunded) {
  const std::uint64_t payment = 50'000;
  const std::uint64_t cloud_before = chain_.balance(cloud_addr_);

  const auto flow = run_flow(42, MatchCondition::kEqual, payment,
                             /*tamper=*/true);
  EXPECT_FALSE(flow.verified);

  // Cloud paid gas and got nothing.
  EXPECT_EQ(chain_.balance(cloud_addr_), cloud_before - flow.verify_gas);
  // Contract kept no funds.
  EXPECT_EQ(chain_.balance(contract_addr_), 0u);
  EXPECT_EQ(contract_->open_query_count(), 0u);
}

TEST_F(ContractTest, RefundReturnsExactEscrow) {
  const std::uint64_t payment = 77'777;
  const std::uint64_t user_before = chain_.balance(user_addr_);
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, payment, encode_submit_query(tokens)));
  chain_.seal_block();
  const auto query_receipt = chain_.receipt_of(qtx);
  ASSERT_TRUE(query_receipt.has_value() && query_receipt->success);
  Reader out(query_receipt->output);
  const std::uint64_t query_id = out.u64();
  const std::uint64_t query_gas = query_receipt->gas_used;
  EXPECT_EQ(chain_.balance(user_addr_), user_before - payment - query_gas);

  auto replies = rig_.cloud->search(tokens);
  replies[0].encrypted_results.clear();  // blatantly wrong answer
  const auto proven = attach_counters(tokens, replies, rig_.config.prime_bits);
  const Bytes rtx = chain_.submit(
      chain_.make_tx(cloud_addr_, contract_addr_, 0,
                     encode_submit_result(query_id, tokens, proven)));
  chain_.seal_block();
  const auto rr = chain_.receipt_of(rtx);
  ASSERT_TRUE(rr.has_value());
  ASSERT_TRUE(rr->success) << rr->revert_reason;

  // Escrow returned in full; only gas was lost.
  EXPECT_EQ(chain_.balance(user_addr_), user_before - query_gas);
}

TEST_F(ContractTest, UpdateAcOnlyOwner) {
  const Bytes data = encode_update_ac(bigint::BigUint(12345));
  chain_.submit(chain_.make_tx(user_addr_, contract_addr_, 0, data));
  chain_.seal_block();
  const Receipt& r = chain_.receipts().back();
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.revert_reason.find("not the owner"), std::string::npos);
}

TEST_F(ContractTest, InsertUpdatesOnChainAcAndPreservesFreshness) {
  // Owner inserts new data; Ac on chain must change; a stale proof fails.
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const auto stale_replies = rig_.cloud->search(tokens);

  rig_.ingest({{5, 42}});
  const Bytes update_tx = chain_.submit(
      chain_.make_tx(owner_addr_, contract_addr_, 0,
                     encode_update_ac(rig_.owner->accumulator_value())));
  chain_.seal_block();
  const auto update_receipt = chain_.receipt_of(update_tx);
  ASSERT_TRUE(update_receipt->success);
  EXPECT_EQ(contract_->stored_ac(), rig_.owner->accumulator_value());
  // Data insertion on chain is cheap and constant: ~29k gas in the paper.
  EXPECT_GT(update_receipt->gas_used, 25'000u);
  EXPECT_LT(update_receipt->gas_used, 40'000u);

  // Submit the stale result for a fresh query: contract refuses it.
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 1'000, encode_submit_query(tokens)));
  chain_.seal_block();
  const auto query_receipt = chain_.receipt_of(qtx);
  ASSERT_TRUE(query_receipt.has_value() && query_receipt->success);
  Reader out(query_receipt->output);
  const std::uint64_t query_id = out.u64();
  const auto proven =
      attach_counters(tokens, stale_replies, rig_.config.prime_bits);
  const Bytes rtx = chain_.submit(
      chain_.make_tx(cloud_addr_, contract_addr_, 0,
                     encode_submit_result(query_id, tokens, proven)));
  chain_.seal_block();
  const auto result_receipt = chain_.receipt_of(rtx);
  ASSERT_TRUE(result_receipt.has_value() && result_receipt->success);
  Reader vr(result_receipt->output);
  EXPECT_EQ(vr.u8(), 0);  // stale ⇒ rejected ⇒ refund
}

TEST_F(ContractTest, SubmitResultWithWrongTokensReverts) {
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 1'000, encode_submit_query(tokens)));
  chain_.seal_block();
  const auto query_receipt = chain_.receipt_of(qtx);
  ASSERT_TRUE(query_receipt.has_value() && query_receipt->success);
  Reader out(query_receipt->output);
  const std::uint64_t query_id = out.u64();

  // Cloud substitutes different tokens.
  const auto other = rig_.user->make_tokens(7, MatchCondition::kEqual);
  const auto replies = rig_.cloud->search(other);
  const auto proven = attach_counters(other, replies, rig_.config.prime_bits);
  const Bytes rtx = chain_.submit(
      chain_.make_tx(cloud_addr_, contract_addr_, 0,
                     encode_submit_result(query_id, other, proven)));
  chain_.seal_block();
  const auto r = chain_.receipt_of(rtx);
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->revert_reason.find("token set mismatch"), std::string::npos);
}

TEST_F(ContractTest, SubmitResultForUnknownQueryReverts) {
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const auto replies = rig_.cloud->search(tokens);
  const auto proven = attach_counters(tokens, replies, rig_.config.prime_bits);
  const Bytes rtx = chain_.submit(chain_.make_tx(
      cloud_addr_, contract_addr_, 0,
      encode_submit_result(999, tokens, proven)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(rtx)->success);
}

TEST_F(ContractTest, QueryWithoutPaymentReverts) {
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 0, encode_submit_query(tokens)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(qtx)->success);
}

TEST_F(ContractTest, OrderSearchFlowOnChain) {
  const auto flow = run_flow(40, MatchCondition::kGreater, 10'000);
  EXPECT_TRUE(flow.verified);
  EXPECT_EQ(flow.ids, (std::vector<core::RecordId>{1, 2, 4}));
  EXPECT_TRUE(chain_.verify_chain());
}

TEST_F(ContractTest, CancelQueryReclaimsEscrowAfterTimeout) {
  const std::uint64_t payment = 12'345;
  const std::uint64_t user_before = chain_.balance(user_addr_);
  const auto tokens = rig_.user->make_tokens(42, MatchCondition::kEqual);
  const Bytes qtx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, payment, encode_submit_query(tokens)));
  chain_.seal_block();
  const auto query_receipt = chain_.receipt_of(qtx);
  Reader out(query_receipt->output);
  const std::uint64_t query_id = out.u64();

  // Too early: the cloud still has time to answer.
  const Bytes early = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 0, encode_cancel_query(query_id)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(early)->success);

  // Let the timeout pass (empty blocks).
  for (int i = 0; i < 12; ++i) chain_.seal_block();

  // A third party cannot steal the escrow.
  const Bytes thief = chain_.submit(chain_.make_tx(
      cloud_addr_, contract_addr_, 0, encode_cancel_query(query_id)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(thief)->success);

  // The submitter reclaims the exact escrow.
  const Bytes cancel = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 0, encode_cancel_query(query_id)));
  chain_.seal_block();
  const auto cancel_receipt = chain_.receipt_of(cancel);
  ASSERT_TRUE(cancel_receipt->success) << cancel_receipt->revert_reason;
  EXPECT_EQ(contract_->open_query_count(), 0u);

  const std::uint64_t gas_spent = query_receipt->gas_used +
                                  chain_.receipt_of(early)->gas_used +
                                  cancel_receipt->gas_used;
  EXPECT_EQ(chain_.balance(user_addr_), user_before - gas_spent);

  // Cancelled queries cannot be answered any more.
  const auto replies = rig_.cloud->search(tokens);
  const auto proven = attach_counters(tokens, replies, rig_.config.prime_bits);
  const Bytes late = chain_.submit(
      chain_.make_tx(cloud_addr_, contract_addr_, 0,
                     encode_submit_result(query_id, tokens, proven)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(late)->success);
}

TEST_F(ContractTest, CancelUnknownQueryReverts) {
  const Bytes tx = chain_.submit(chain_.make_tx(
      user_addr_, contract_addr_, 0, encode_cancel_query(404)));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(tx)->success);
}

// The same contract against a K = 4 deployment: the owner publishes the
// per-shard values through UPDATE_SHARDS, on-chain verification routes each
// reply's prime to its shard, and gas is attributed per shard.
class ShardedContractTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kShards = 4;

  ShardedContractTest()
      : rig_(Rig::make(8, "chain-sharded", {}, kShards)),
        chain_({Address::from_label("sealer-a")}),
        owner_addr_(Address::from_label("data-owner")),
        user_addr_(Address::from_label("data-user")),
        cloud_addr_(Address::from_label("cloud")) {
    chain_.credit(owner_addr_, 10'000'000);
    chain_.credit(user_addr_, 10'000'000);
    chain_.credit(cloud_addr_, 10'000'000);

    rig_.ingest({{1, 42}, {2, 42}, {3, 7}, {4, 99}, {5, 130}, {6, 42}});

    contract_addr_ = chain_.submit_deployment(
        owner_addr_, std::make_unique<SlicerContract>(),
        SlicerContract::encode_ctor(rig_.acc_params,
                                    rig_.owner->accumulator_value(),
                                    rig_.config.prime_bits));
    chain_.seal_block();
    contract_ =
        dynamic_cast<SlicerContract*>(chain_.contract_at(contract_addr_));
  }

  /// Owner publishes the current per-shard values; returns the receipt.
  Receipt publish_shards() {
    const Bytes tx = chain_.submit(
        chain_.make_tx(owner_addr_, contract_addr_, 0,
                       encode_update_shards(rig_.owner->shard_values())));
    chain_.seal_block();
    return *chain_.receipt_of(tx);
  }

  bool run_paid_flow(std::uint64_t value, MatchCondition mc,
                     bool tamper = false) {
    const auto tokens = rig_.user->make_tokens(value, mc);
    const Bytes qtx = chain_.submit(chain_.make_tx(
        user_addr_, contract_addr_, 10'000, encode_submit_query(tokens)));
    chain_.seal_block();
    const auto query_receipt = chain_.receipt_of(qtx);
    EXPECT_TRUE(query_receipt.has_value() && query_receipt->success);
    Reader out(query_receipt->output);
    const std::uint64_t query_id = out.u64();

    auto replies = rig_.cloud->search(tokens);
    if (tamper && !replies.empty() && !replies[0].encrypted_results.empty())
      replies[0].encrypted_results.pop_back();
    const auto proven = attach_counters(tokens, replies, rig_.config.prime_bits);
    const Bytes rtx = chain_.submit(
        chain_.make_tx(cloud_addr_, contract_addr_, 0,
                       encode_submit_result(query_id, tokens, proven)));
    chain_.seal_block();
    const auto rr = chain_.receipt_of(rtx);
    EXPECT_TRUE(rr.has_value() && rr->success)
        << (rr.has_value() ? rr->revert_reason : "no receipt");
    if (!rr.has_value() || !rr->success) return false;
    Reader vr(rr->output);
    return vr.u8() == 1;
  }

  Rig rig_;
  Blockchain chain_;
  Address owner_addr_, user_addr_, cloud_addr_, contract_addr_;
  SlicerContract* contract_ = nullptr;
};

TEST_F(ShardedContractTest, UpdateShardsStoresValuesAndFoldedDigest) {
  const Receipt r = publish_shards();
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_GT(r.gas_used, 0u);
  ASSERT_EQ(contract_->stored_shard_values().size(), kShards);
  EXPECT_EQ(contract_->stored_shard_values(), rig_.owner->shard_values());
  // The stored digest is the fold — exactly what the owner publishes off
  // chain, so the two views of Ac can never diverge.
  EXPECT_EQ(contract_->stored_ac(), rig_.owner->accumulator_value());
}

TEST_F(ShardedContractTest, ShardedResultVerifiesOnChain) {
  ASSERT_TRUE(publish_shards().success);
  EXPECT_TRUE(run_paid_flow(42, MatchCondition::kEqual));
  EXPECT_TRUE(run_paid_flow(100, MatchCondition::kGreater));
}

TEST_F(ShardedContractTest, TamperedShardedResultIsRejected) {
  ASSERT_TRUE(publish_shards().success);
  EXPECT_FALSE(run_paid_flow(42, MatchCondition::kEqual, /*tamper=*/true));
}

TEST_F(ShardedContractTest, StaleShardValuesRejectFreshProofs) {
  ASSERT_TRUE(publish_shards().success);
  // New data lands off chain but the owner forgets to republish: the cloud's
  // fresh witnesses no longer match the stored shard values.
  rig_.ingest({{7, 42}});
  EXPECT_FALSE(run_paid_flow(42, MatchCondition::kEqual));
  // Republishing restores verifiability.
  ASSERT_TRUE(publish_shards().success);
  EXPECT_TRUE(run_paid_flow(42, MatchCondition::kEqual));
}

TEST_F(ShardedContractTest, UpdateShardsOnlyOwner) {
  const Bytes tx = chain_.submit(
      chain_.make_tx(user_addr_, contract_addr_, 0,
                     encode_update_shards(rig_.owner->shard_values())));
  chain_.seal_block();
  const auto r = chain_.receipt_of(tx);
  EXPECT_FALSE(r->success);
  EXPECT_NE(r->revert_reason.find("not the owner"), std::string::npos);
}

TEST_F(ShardedContractTest, UpdateShardsRejectsOutOfRangeValues) {
  for (const bigint::BigUint& bad :
       {bigint::BigUint{}, rig_.acc_params.modulus}) {
    std::vector<bigint::BigUint> values = rig_.owner->shard_values();
    values[1] = bad;
    const Bytes tx = chain_.submit(chain_.make_tx(
        owner_addr_, contract_addr_, 0, encode_update_shards(values)));
    chain_.seal_block();
    const auto r = chain_.receipt_of(tx);
    EXPECT_FALSE(r->success);
    EXPECT_NE(r->revert_reason.find("out of range"), std::string::npos);
  }
  const Bytes empty_tx = chain_.submit(chain_.make_tx(
      owner_addr_, contract_addr_, 0,
      encode_update_shards(std::span<const bigint::BigUint>{})));
  chain_.seal_block();
  EXPECT_FALSE(chain_.receipt_of(empty_tx)->success);
}

TEST_F(ShardedContractTest, LegacyUpdateAcClearsShardView) {
  ASSERT_TRUE(publish_shards().success);
  ASSERT_EQ(contract_->stored_shard_values().size(), kShards);
  const Bytes tx = chain_.submit(
      chain_.make_tx(owner_addr_, contract_addr_, 0,
                     encode_update_ac(bigint::BigUint(12345))));
  chain_.seal_block();
  ASSERT_TRUE(chain_.receipt_of(tx)->success);
  EXPECT_TRUE(contract_->stored_shard_values().empty());
  EXPECT_EQ(contract_->stored_ac(), bigint::BigUint(12345));
}

TEST_F(ShardedContractTest, PerShardGasScalesWithShardCount) {
  // Publishing K values charges K per-shard stores plus the fold — strictly
  // more than the single-slot legacy update.
  const Receipt sharded = publish_shards();
  ASSERT_TRUE(sharded.success);
  const Bytes legacy_tx = chain_.submit(
      chain_.make_tx(owner_addr_, contract_addr_, 0,
                     encode_update_ac(rig_.owner->accumulator_value())));
  chain_.seal_block();
  const auto legacy = chain_.receipt_of(legacy_tx);
  ASSERT_TRUE(legacy->success);
  EXPECT_GT(sharded.gas_used, legacy->gas_used);
  EXPECT_GT(sharded.gas_used, kShards * 5'000u);  // ≥ K sstore_resets
}

TEST_F(ContractTest, ProvenReplySerializeRoundTrip) {
  ProvenReply p;
  p.reply.encrypted_results = {Bytes(16, 1)};
  p.reply.witness = bigint::BigUint(77);
  p.prime_counter = 3;
  const ProvenReply back = ProvenReply::deserialize(p.serialize());
  EXPECT_EQ(back.reply.encrypted_results, p.reply.encrypted_results);
  EXPECT_EQ(back.reply.witness, p.reply.witness);
  EXPECT_EQ(back.prime_counter, p.prime_counter);
}

}  // namespace
}  // namespace slicer::chain
