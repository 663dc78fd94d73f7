// Tests of the dual-instance deletion/update extension (§V-F).
#include "core/dual.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/errors.hpp"

namespace slicer::core {
namespace {

DualSlicer make_dual(std::size_t bits = 8, const std::string& seed = "dual") {
  Config config;
  config.value_bits = bits;
  config.prime_bits = 64;
  crypto::Drbg rng(str_bytes("slicer-dual-" + seed));
  auto [td_pk, td_sk] = adscrypto::TrapdoorPermutation::keygen(rng, 256);
  auto [acc_params, acc_td] = adscrypto::RsaAccumulator::setup(rng, 256);
  return DualSlicer(config, td_pk, td_sk, acc_params, acc_td,
                    crypto::Drbg(rng.generate(32)));
}

std::vector<RecordId> sorted(std::vector<RecordId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Dual, InsertAndQuery) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.insert(Record{2, 20});
  dual.insert(Record{3, 30});
  const auto r = dual.query(15, MatchCondition::kGreater);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(sorted(r.ids), (std::vector<RecordId>{2, 3}));
  EXPECT_EQ(dual.live_count(), 3u);
}

TEST(Dual, DeletedRecordsDisappearFromResults) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.insert(Record{2, 20});
  dual.insert(Record{3, 30});
  dual.erase(2);
  EXPECT_FALSE(dual.contains(2));
  EXPECT_EQ(dual.live_count(), 2u);

  const auto gt = dual.query(5, MatchCondition::kGreater);
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(sorted(gt.ids), (std::vector<RecordId>{1, 3}));

  const auto eq = dual.query(20, MatchCondition::kEqual);
  EXPECT_TRUE(eq.verified);
  EXPECT_TRUE(eq.ids.empty());
}

TEST(Dual, UpdateMovesRecordToNewValue) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.insert(Record{2, 20});
  dual.update(1, 99);
  EXPECT_TRUE(dual.contains(1));

  EXPECT_TRUE(dual.query(10, MatchCondition::kEqual).ids.empty());
  EXPECT_EQ(dual.query(99, MatchCondition::kEqual).ids,
            (std::vector<RecordId>{1}));
  // Order search reflects the new value.
  EXPECT_EQ(sorted(dual.query(50, MatchCondition::kGreater).ids),
            (std::vector<RecordId>{1}));
}

TEST(Dual, ReinsertAfterDeleteIsAllowed) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.erase(1);
  dual.insert(Record{1, 15});  // new version of the same user id
  EXPECT_EQ(dual.query(15, MatchCondition::kEqual).ids,
            (std::vector<RecordId>{1}));
  EXPECT_TRUE(dual.query(10, MatchCondition::kEqual).ids.empty());
}

TEST(Dual, DoubleInsertRejected) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  EXPECT_THROW(dual.insert(Record{1, 11}), ProtocolError);
}

TEST(Dual, DeleteUnknownRejected) {
  DualSlicer dual = make_dual();
  EXPECT_THROW(dual.erase(404), ProtocolError);
}

TEST(Dual, DoubleDeleteRejected) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.erase(1);
  EXPECT_THROW(dual.erase(1), ProtocolError);
}

TEST(Dual, OversizedUserIdRejected) {
  DualSlicer dual = make_dual();
  EXPECT_THROW(dual.insert(Record{RecordId{1} << 50, 10}), ProtocolError);
}

TEST(Dual, AccumulatorsTrackInstances) {
  DualSlicer dual = make_dual();
  const auto add0 = dual.add_accumulator();
  const auto del0 = dual.delete_accumulator();
  dual.insert(Record{1, 10});
  EXPECT_NE(dual.add_accumulator(), add0);
  EXPECT_EQ(dual.delete_accumulator(), del0);  // untouched so far
  dual.erase(1);
  EXPECT_NE(dual.delete_accumulator(), del0);
}

class DualWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DualWidths, DeleteUpdateQueryAcrossBitWidths) {
  const std::size_t bits = GetParam();
  DualSlicer dual = make_dual(bits, "widths-" + std::to_string(bits));
  const std::uint64_t top = (1ull << bits) - 1;
  dual.insert(Record{1, 0});
  dual.insert(Record{2, top / 2});
  dual.insert(Record{3, top});
  dual.erase(2);
  dual.update(1, top / 4);

  const auto all = dual.query(0, MatchCondition::kGreater);
  EXPECT_TRUE(all.verified);
  EXPECT_EQ(sorted(all.ids), (std::vector<RecordId>{1, 3}));
  const auto eq = dual.query(top / 4, MatchCondition::kEqual);
  EXPECT_TRUE(eq.verified);
  EXPECT_EQ(eq.ids, (std::vector<RecordId>{1}));
}

INSTANTIATE_TEST_SUITE_P(BitWidths, DualWidths,
                         ::testing::Values(8, 16, 24, 32));

TEST(Dual, BatchInsertAndMixedWorkload) {
  DualSlicer dual = make_dual();
  std::vector<Record> batch;
  for (RecordId id = 1; id <= 20; ++id)
    batch.push_back(Record{id, id * 10 % 256});
  dual.insert(batch);
  dual.erase(5);
  dual.erase(6);
  dual.update(7, 3);

  // Plain reference over the live state.
  std::vector<RecordId> expect;
  for (RecordId id = 1; id <= 20; ++id) {
    if (id == 5 || id == 6) continue;
    const std::uint64_t v = (id == 7) ? 3 : id * 10 % 256;
    if (v < 50) expect.push_back(id);
  }
  std::sort(expect.begin(), expect.end());
  const auto r = dual.query(50, MatchCondition::kLess);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(sorted(r.ids), expect);
}

TEST(Dual, InsertDeleteUpdateVerifyAtFourShards) {
  // K > 1: each instance routes its primes to four shards, so a query must
  // verify against the per-shard values, not the folded digest. The shard
  // count is resolved from SLICER_SHARDS when the instances are built.
  const char* saved = std::getenv("SLICER_SHARDS");
  const std::optional<std::string> previous =
      saved ? std::optional<std::string>(saved) : std::nullopt;
  ::setenv("SLICER_SHARDS", "4", 1);
  DualSlicer dual = make_dual(8, "dual-k4");
  if (previous)
    ::setenv("SLICER_SHARDS", previous->c_str(), 1);
  else
    ::unsetenv("SLICER_SHARDS");

  std::vector<Record> batch;
  for (RecordId id = 1; id <= 12; ++id) batch.push_back(Record{id, id * 20});
  dual.insert(batch);
  dual.erase(3);
  dual.erase(8);
  dual.update(5, 7);

  const auto gt = dual.query(100, MatchCondition::kGreater);
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(sorted(gt.ids), (std::vector<RecordId>{6, 7, 9, 10, 11, 12}));
  const auto lt = dual.query(100, MatchCondition::kLess);
  EXPECT_TRUE(lt.verified);
  EXPECT_EQ(sorted(lt.ids), (std::vector<RecordId>{1, 2, 4, 5}));
  const auto eq = dual.query(7, MatchCondition::kEqual);
  EXPECT_TRUE(eq.verified);
  EXPECT_EQ(eq.ids, (std::vector<RecordId>{5}));
  const auto gone = dual.query(60, MatchCondition::kEqual);  // id 3, erased
  EXPECT_TRUE(gone.verified);
  EXPECT_TRUE(gone.ids.empty());
}

}  // namespace
}  // namespace slicer::core
