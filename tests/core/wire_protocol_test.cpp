// Wire-level integration: parties exchange ONLY serialized bytes — tokens,
// replies and snapshots all cross the boundary through their codecs, the
// way a real deployment (separate processes) would run the protocol.
#include <gtest/gtest.h>

#include "core/snapshot.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

TEST(WireProtocol, FullSearchOverSerializedMessages) {
  Rig rig = Rig::make(8, "wire");
  rig.ingest({{1, 42}, {2, 42}, {3, 7}});

  // User → blockchain → cloud: tokens as bytes.
  std::vector<Bytes> token_wire;
  for (const auto& t : rig.user->make_tokens(42, MatchCondition::kEqual))
    token_wire.push_back(t.serialize());

  // Cloud side: decode, search, encode replies.
  std::vector<Bytes> reply_wire;
  {
    std::vector<SearchToken> tokens;
    for (const Bytes& b : token_wire)
      tokens.push_back(SearchToken::deserialize(b));
    for (const auto& reply : rig.cloud->search(tokens))
      reply_wire.push_back(reply.serialize());
  }

  // Verifier side: decode both, run Algorithm 5.
  std::vector<SearchToken> tokens;
  std::vector<TokenReply> replies;
  for (const Bytes& b : token_wire) tokens.push_back(SearchToken::deserialize(b));
  for (const Bytes& b : reply_wire) replies.push_back(TokenReply::deserialize(b));
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);

  // User side: decode replies, decrypt.
  auto ids = rig.user->decrypt(replies);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RecordId>{1, 2}));
}

TEST(WireProtocol, UserOnboardingViaSerializedState) {
  // The owner provisions a brand-new user purely through bytes.
  Rig rig = Rig::make(8, "wire2");
  rig.ingest({{1, 10}, {2, 200}});
  const Bytes provisioning = serialize_user_state(rig.owner->export_user_state());

  DataUser new_user(deserialize_user_state(provisioning),
                    crypto::Drbg(str_bytes("new-user")));
  const auto tokens = new_user.make_tokens(100, MatchCondition::kGreater);
  const auto replies = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);
  EXPECT_EQ(new_user.decrypt(replies), (std::vector<RecordId>{2}));
}

TEST(WireProtocol, CloudMigrationMidProtocol) {
  // Tokens issued before a cloud migration are served by the migrated cloud
  // (restored from a snapshot) with proofs that still verify.
  Rig rig = Rig::make(8, "wire3");
  rig.ingest({{1, 42}});
  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);

  const Bytes cloud_state = rig.cloud->serialize_state();
  Rig replacement = Rig::make(8, "wire3");  // same configured identity
  replacement.cloud->restore_state(cloud_state);

  const auto replies = replacement.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params,
                           replacement.cloud->shard_values(), tokens,
                           replies, rig.config.prime_bits).verified);
  EXPECT_EQ(rig.user->decrypt(replies), (std::vector<RecordId>{1}));
}

}  // namespace
}  // namespace slicer::core
