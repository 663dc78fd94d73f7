// Tests of the dual-instance deletion/update extension (§V-F).
#include "core/dual.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
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

/// Sets SLICER_SHARDS for the scope (the shard count is resolved when a
/// DualSlicer's instances are built) and restores the previous value.
class ScopedShards {
 public:
  explicit ScopedShards(std::size_t k) {
    if (const char* saved = std::getenv("SLICER_SHARDS")) previous_ = saved;
    ::setenv("SLICER_SHARDS", std::to_string(k).c_str(), 1);
  }
  ~ScopedShards() {
    if (previous_)
      ::setenv("SLICER_SHARDS", previous_->c_str(), 1);
    else
      ::unsetenv("SLICER_SHARDS");
  }
  ScopedShards(const ScopedShards&) = delete;
  ScopedShards& operator=(const ScopedShards&) = delete;

 private:
  std::optional<std::string> previous_;
};

std::vector<RecordId> sorted(std::vector<RecordId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(Dual, InsertAndQuery) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.insert(Record{2, 20});
  dual.insert(Record{3, 30});
  const auto r = dual.query(Pred::value().gt(15));
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

  const auto gt = dual.query(Pred::value().gt(5));
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(sorted(gt.ids), (std::vector<RecordId>{1, 3}));

  const auto eq = dual.query(Pred::value().eq(20));
  EXPECT_TRUE(eq.verified);
  EXPECT_TRUE(eq.ids.empty());
}

TEST(Dual, UpdateMovesRecordToNewValue) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.insert(Record{2, 20});
  dual.update(1, 99);
  EXPECT_TRUE(dual.contains(1));

  EXPECT_TRUE(dual.query(Pred::value().eq(10)).ids.empty());
  EXPECT_EQ(dual.query(Pred::value().eq(99)).ids,
            (std::vector<RecordId>{1}));
  // Order search reflects the new value.
  EXPECT_EQ(sorted(dual.query(Pred::value().gt(50)).ids),
            (std::vector<RecordId>{1}));
}

TEST(Dual, ReinsertAfterDeleteIsAllowed) {
  DualSlicer dual = make_dual();
  dual.insert(Record{1, 10});
  dual.erase(1);
  dual.insert(Record{1, 15});  // new version of the same user id
  EXPECT_EQ(dual.query(Pred::value().eq(15)).ids,
            (std::vector<RecordId>{1}));
  EXPECT_TRUE(dual.query(Pred::value().eq(10)).ids.empty());
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

  const auto all = dual.query(Pred::value().gt(0));
  EXPECT_TRUE(all.verified);
  EXPECT_EQ(sorted(all.ids), (std::vector<RecordId>{1, 3}));
  const auto eq = dual.query(Pred::value().eq(top / 4));
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
  const auto r = dual.query(Pred::value().lt(50));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(sorted(r.ids), expect);
}

TEST(Dual, InsertDeleteUpdateVerifyAtFourShards) {
  // K > 1: each instance routes its primes to four shards, so a query must
  // verify against the per-shard values, not the folded digest. The shard
  // count is resolved from SLICER_SHARDS when the instances are built.
  DualSlicer dual = [] {
    const ScopedShards k4(4);
    return make_dual(8, "dual-k4");
  }();

  std::vector<Record> batch;
  for (RecordId id = 1; id <= 12; ++id) batch.push_back(Record{id, id * 20});
  dual.insert(batch);
  dual.erase(3);
  dual.erase(8);
  dual.update(5, 7);

  const auto gt = dual.query(Pred::value().gt(100));
  EXPECT_TRUE(gt.verified);
  EXPECT_EQ(sorted(gt.ids), (std::vector<RecordId>{6, 7, 9, 10, 11, 12}));
  const auto lt = dual.query(Pred::value().lt(100));
  EXPECT_TRUE(lt.verified);
  EXPECT_EQ(sorted(lt.ids), (std::vector<RecordId>{1, 2, 4, 5}));
  const auto eq = dual.query(Pred::value().eq(7));
  EXPECT_TRUE(eq.verified);
  EXPECT_EQ(eq.ids, (std::vector<RecordId>{5}));
  const auto gone = dual.query(Pred::value().eq(60));  // id 3, erased
  EXPECT_TRUE(gone.verified);
  EXPECT_TRUE(gone.ids.empty());
}

class DualOracle : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DualOracle, BooleanSpecsMatchPlaintextOverLiveRecords) {
  // Deletes and updates go through the planner: every boolean spec over
  // the dual construction equals a plaintext evaluation of the same spec
  // over the live records, at K=1 and K>1.
  DualSlicer dual = [this] {
    const ScopedShards shards(GetParam());
    return make_dual(8, "oracle-k" + std::to_string(GetParam()));
  }();
  std::map<RecordId, std::uint64_t> live;
  std::vector<Record> batch;
  for (RecordId id = 1; id <= 24; ++id) {
    batch.push_back(Record{id, id * 37 % 256});
    live[id] = id * 37 % 256;
  }
  dual.insert(batch);
  for (const RecordId id : {4, 9, 15, 22}) {
    dual.erase(id);
    live.erase(id);
  }
  for (const auto& [id, v] : {std::pair<RecordId, std::uint64_t>{2, 200},
                              {7, 5},
                              {11, 74},
                              {16, 128}}) {
    dual.update(id, v);
    live[id] = v;
  }
  dual.insert(Record{9, 74});  // re-insert of a deleted id
  live[9] = 74;

  const auto v = [] { return Pred::value(); };
  const std::vector<QuerySpec> specs = {
      v().gt(100) && v().lt(200),
      v().eq(74) || v().eq(5) || v().gt(250),
      !v().eq(74),
      !(v().between(50, 150) || v().eq(200)),
      v().between(60, 130),
      v().between_inclusive(74, 128) && !v().eq(111),
      v().between(100, 101),              // provably empty
      !v().between_inclusive(30, 20),     // NOT of an empty interval
      v().between(10, 11) || v().lt(40),  // empty OR non-empty
  };
  for (const QuerySpec& spec : specs) {
    std::vector<RecordId> expect;
    for (const auto& [id, value] : live)
      if (eval_spec(spec, Record{id, value})) expect.push_back(id);
    const DualQueryResult r = dual.query(spec);
    EXPECT_TRUE(r.verified) << spec.to_string();
    EXPECT_EQ(r.ids, expect) << spec.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DualOracle, ::testing::Values(1, 4));

}  // namespace
}  // namespace slicer::core
