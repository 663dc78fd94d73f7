// Shared test fixture: a complete Slicer deployment with small (fast)
// crypto parameters — 256-bit trapdoor and accumulator moduli.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"

namespace slicer::core::testing {

struct Rig {
  Config config;
  adscrypto::AccumulatorParams acc_params;
  std::optional<DataOwner> owner;
  std::optional<CloudServer> cloud;
  std::optional<DataUser> user;

  /// `shard_count` 0 resolves to the SLICER_SHARDS knob (default 1); the
  /// same count is handed to the owner and the cloud, as deployment would.
  static Rig make(std::size_t value_bits, const std::string& seed = "rig",
                  const std::string& attribute = {},
                  std::size_t shard_count = 0) {
    Rig rig;
    rig.config.value_bits = value_bits;
    rig.config.prime_bits = 64;
    rig.config.attribute = attribute;

    crypto::Drbg rng(str_bytes("slicer-test-" + seed));
    auto [td_pk, td_sk] = adscrypto::TrapdoorPermutation::keygen(rng, 256);
    auto [acc_params, acc_td] = adscrypto::RsaAccumulator::setup(rng, 256);
    rig.acc_params = acc_params;

    rig.owner.emplace(rig.config, Keys::generate(rng), td_pk, td_sk,
                      acc_params, acc_td, crypto::Drbg(rng.generate(32)),
                      shard_count);
    rig.cloud.emplace(td_pk, acc_params, rig.config.prime_bits, shard_count);
    rig.user.emplace(rig.owner->export_user_state(),
                     crypto::Drbg(rng.generate(32)));
    return rig;
  }

  /// Owner builds/inserts and the cloud + user states are synchronized.
  void ingest(const std::vector<Record>& records) {
    cloud->apply(owner->insert(records));
    user->refresh(owner->export_user_state());
  }

  struct QueryOutcome {
    std::vector<RecordId> ids;
    bool verified = false;
    std::size_t token_count = 0;
  };

  /// Runs the full Search protocol: tokens → cloud → verify → decrypt.
  QueryOutcome query(std::uint64_t value, MatchCondition mc) {
    const auto tokens = user->make_tokens(value, mc);
    const auto replies = cloud->search(tokens);
    QueryOutcome out;
    out.token_count = tokens.size();
    out.verified = verify_query(acc_params, cloud->shard_values(), tokens,
                                replies, config.prime_bits).verified;
    out.ids = user->decrypt(replies);
    std::sort(out.ids.begin(), out.ids.end());
    return out;
  }
};

/// Reference answer by plaintext scan.
inline std::vector<RecordId> plain_query(const std::vector<Record>& records,
                                         std::uint64_t value,
                                         MatchCondition mc) {
  std::vector<RecordId> out;
  for (const Record& r : records) {
    const bool match = (mc == MatchCondition::kEqual && r.value == value) ||
                       (mc == MatchCondition::kGreater && r.value > value) ||
                       (mc == MatchCondition::kLess && r.value < value);
    if (match) out.push_back(r.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace slicer::core::testing
