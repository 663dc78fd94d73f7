// QueryClient: high-level verifiable queries including interval search.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : rig_(Rig::make(8, "client")) {
    rig_.ingest({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 30}, {6, 255},
                 {7, 0}});
    client_.emplace(*rig_.user, *rig_.cloud, rig_.config.prime_bits);
  }

  Rig rig_;
  std::optional<QueryClient> client_;
};

TEST_F(ClientTest, PrimitiveConditions) {
  auto eq = client_->query(Pred::value().eq(30));
  EXPECT_TRUE(eq.verified);
  EXPECT_EQ(eq.ids, (std::vector<RecordId>{3, 5}));

  auto gt = client_->query(Pred::value().gt(40));
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(gt.ids, (std::vector<RecordId>{6}));

  auto lt = client_->query(Pred::value().lt(20));
  EXPECT_TRUE(lt.verified);
  EXPECT_EQ(lt.ids, (std::vector<RecordId>{1, 7}));
}

TEST_F(ClientTest, ExclusiveInterval) {
  auto r = client_->query(Pred::value().between(10, 40));  // 10 < v < 40
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2, 3, 5}));
  EXPECT_GT(r.token_count, 0u);
}

TEST_F(ClientTest, InclusiveInterval) {
  // 10 <= v <= 40
  auto r = client_->query(Pred::value().between_inclusive(10, 40));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5}));
}

TEST_F(ClientTest, InclusiveIntervalSinglePoint) {
  auto r = client_->query(Pred::value().between_inclusive(30, 30));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5}));
}

TEST_F(ClientTest, InclusiveAdjacentEndpoints) {
  // [29, 30]: exclusive core (29,30) is empty; endpoints still found.
  auto r = client_->query(Pred::value().between_inclusive(29, 30));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5}));
}

TEST_F(ClientTest, FullDomainInterval) {
  auto r = client_->query(Pred::value().between_inclusive(0, 255));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(ClientTest, EmptyIntervalReturnsVerifiedEmpty) {
  // A provably empty interval is a valid query with a trivially verified
  // empty answer — no cloud round trip, no exception.
  const auto v = Pred::value();
  for (const auto& r :
       {client_->query(v.between(40, 40)),  // exclusive
        client_->query(v.between(40, 41)), client_->query(v.between(41, 40)),
        client_->query(v.between_inclusive(41, 40))}) {
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.ids.empty());
    EXPECT_EQ(r.token_count, 0u);
    EXPECT_EQ(r.tokens_verified, 0u);
    EXPECT_TRUE(r.token_detail.empty());
  }
}

TEST_F(ClientTest, VerificationDetail) {
  const auto r = client_->query(Pred::value().between_inclusive(10, 40));
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.token_count, 0u);
  EXPECT_EQ(r.tokens_verified, r.token_count);
  ASSERT_EQ(r.token_detail.size(), r.token_count);
  for (const auto& t : r.token_detail) EXPECT_TRUE(t.ok);
}

TEST_F(ClientTest, DeduplicatesAcrossSlices) {
  // A record matching an order condition matches exactly one slice, but the
  // client guarantees dedup regardless.
  auto r = client_->query(Pred::value().gt(0));
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 4, 5, 6}));
}

TEST(ClientMultiAttr, PerAttributeQueries) {
  Rig rig = Rig::make(8, "client-multi");
  const std::vector<MultiRecord> db = {
      {1, {{"age", 30}, {"score", 90}}},
      {2, {{"age", 60}, {"score", 40}}},
  };
  rig.cloud->apply(rig.owner->build(db));
  rig.user->refresh(rig.owner->export_user_state());
  QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

  const auto age = Pred::attr("age");
  const auto score = Pred::attr("score");
  EXPECT_EQ(client.query(age.gt(40)).ids, (std::vector<RecordId>{2}));
  EXPECT_EQ(client.query(score.gt(50)).ids, (std::vector<RecordId>{1}));
  EXPECT_EQ(client.query(age.between(20, 70)).ids,
            (std::vector<RecordId>{1, 2}));
  EXPECT_EQ(client.query(age.between_inclusive(30, 60)).ids,
            (std::vector<RecordId>{1, 2}));
  EXPECT_EQ(client.query(score.between_inclusive(90, 90)).ids,
            (std::vector<RecordId>{1}));
  EXPECT_TRUE(client.query(age.between_inclusive(61, 60)).ids.empty());
}

}  // namespace
}  // namespace slicer::core
