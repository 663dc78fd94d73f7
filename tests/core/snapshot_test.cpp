// Persistence: every party can stop, serialize, restore, and continue the
// protocol with proofs still verifying.
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

TEST(Snapshot, UserStateRoundTrip) {
  Rig rig = Rig::make(8, "snap-user");
  rig.ingest({{1, 10}, {2, 20}});
  const UserState state = rig.owner->export_user_state();
  const UserState back = deserialize_user_state(serialize_user_state(state));
  EXPECT_EQ(back.config.value_bits, state.config.value_bits);
  EXPECT_EQ(back.keys.k, state.keys.k);
  EXPECT_EQ(back.keys.k_r, state.keys.k_r);
  EXPECT_EQ(back.trapdoor_width, state.trapdoor_width);
  ASSERT_EQ(back.trapdoor_states.size(), state.trapdoor_states.size());
  for (const auto& [kw, st] : state.trapdoor_states) {
    const auto it = back.trapdoor_states.find(kw);
    ASSERT_NE(it, back.trapdoor_states.end());
    EXPECT_EQ(it->second.trapdoor, st.trapdoor);
    EXPECT_EQ(it->second.j, st.j);
  }
}

TEST(Snapshot, RestoredUserProducesWorkingTokens) {
  Rig rig = Rig::make(8, "snap-user2");
  rig.ingest({{1, 42}, {2, 42}});
  const Bytes wire = serialize_user_state(rig.owner->export_user_state());
  DataUser restored(deserialize_user_state(wire),
                    crypto::Drbg(str_bytes("restored-user")));
  const auto tokens = restored.make_tokens(42, MatchCondition::kEqual);
  const auto replies = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);
  auto ids = restored.decrypt(replies);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RecordId>{1, 2}));
}

TEST(Snapshot, OwnerRestoreContinuesProtocol) {
  Rig rig = Rig::make(8, "snap-owner");
  rig.ingest({{1, 42}, {2, 7}});
  const Bytes snapshot = rig.owner->serialize_state();

  // A replacement owner process with the same configured identity.
  Rig fresh = Rig::make(8, "snap-owner");  // same seed → same keys
  fresh.owner->restore_state(snapshot);
  EXPECT_EQ(fresh.owner->accumulator_value(), rig.owner->accumulator_value());
  EXPECT_EQ(fresh.owner->primes(), rig.owner->primes());

  // Continue inserting through the restored owner against the ORIGINAL
  // cloud; forward security and verification must still hold.
  rig.cloud->apply(fresh.owner->insert(std::vector<Record>{{3, 42}}));
  DataUser user(fresh.owner->export_user_state(),
                crypto::Drbg(str_bytes("u")));
  const auto tokens = user.make_tokens(42, MatchCondition::kEqual);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].j, 1u);  // generation advanced across the restore
  const auto replies = rig.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, rig.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);
  auto ids = user.decrypt(replies);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RecordId>{1, 3}));
}

TEST(Snapshot, OwnerRestoreRejectsDuplicateIds) {
  Rig rig = Rig::make(8, "snap-ids");
  rig.ingest({{1, 10}});
  const Bytes snapshot = rig.owner->serialize_state();
  Rig fresh = Rig::make(8, "snap-ids");
  fresh.owner->restore_state(snapshot);
  EXPECT_THROW(fresh.owner->insert(std::vector<Record>{{1, 11}}),
               ProtocolError);
}

TEST(Snapshot, CloudRestoreServesQueries) {
  Rig rig = Rig::make(8, "snap-cloud");
  rig.ingest({{1, 42}, {2, 99}});
  const Bytes snapshot = rig.cloud->serialize_state();

  // Migration target: a fresh cloud with the same configured identity
  // (same rig seed → same trapdoor public key).
  Rig fresh = Rig::make(8, "snap-cloud");
  fresh.cloud->restore_state(snapshot);
  EXPECT_EQ(fresh.cloud->index().size(), rig.cloud->index().size());
  EXPECT_EQ(fresh.cloud->accumulator_value(), rig.cloud->accumulator_value());

  const auto tokens = rig.user->make_tokens(42, MatchCondition::kEqual);
  const auto replies = fresh.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig.acc_params, fresh.cloud->shard_values(),
                           tokens, replies, rig.config.prime_bits).verified);
  EXPECT_EQ(rig.user->decrypt(replies), (std::vector<RecordId>{1}));
}

TEST(Snapshot, RestoreOnNonEmptyThrows) {
  Rig rig = Rig::make(8, "snap-nonempty");
  rig.ingest({{1, 10}});
  const Bytes owner_snap = rig.owner->serialize_state();
  const Bytes cloud_snap = rig.cloud->serialize_state();
  EXPECT_THROW(rig.owner->restore_state(owner_snap), ProtocolError);
  EXPECT_THROW(rig.cloud->restore_state(cloud_snap), ProtocolError);
}

TEST(Snapshot, WrongRoleTagRejected) {
  Rig rig = Rig::make(8, "snap-tag");
  rig.ingest({{1, 10}});
  const Bytes owner_snap = rig.owner->serialize_state();
  Rig fresh = Rig::make(8, "snap-tag");
  EXPECT_THROW(fresh.cloud->restore_state(owner_snap), DecodeError);
  EXPECT_THROW(deserialize_user_state(owner_snap), DecodeError);
}

TEST(Snapshot, ConfigMismatchRejected) {
  Rig rig8 = Rig::make(8, "snap-cfg");
  rig8.ingest({{1, 10}});
  const Bytes snap = rig8.owner->serialize_state();
  Rig rig16 = Rig::make(16, "snap-cfg");
  EXPECT_THROW(rig16.owner->restore_state(snap), ProtocolError);
}

TEST(Snapshot, TruncatedSnapshotRejected) {
  Rig rig = Rig::make(8, "snap-trunc");
  rig.ingest({{1, 10}});
  Bytes snap = rig.owner->serialize_state();
  snap.resize(snap.size() / 2);
  Rig fresh = Rig::make(8, "snap-trunc");
  EXPECT_THROW(fresh.owner->restore_state(snap), DecodeError);
}

}  // namespace
}  // namespace slicer::core
