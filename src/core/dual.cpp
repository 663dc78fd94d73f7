#include "core/dual.hpp"

#include <algorithm>
#include <iterator>

#include "common/errors.hpp"

namespace slicer::core {

namespace {
constexpr std::uint32_t kVersionBits = 16;
constexpr RecordId kMaxUserId = (RecordId{1} << (64 - kVersionBits)) - 1;

crypto::Drbg fork_rng(crypto::Drbg& rng, std::string_view label) {
  Bytes seed = rng.generate(32);
  append(seed, label);
  return crypto::Drbg(seed);
}
}  // namespace

RecordId DualSlicer::internal_id(RecordId id, std::uint32_t version) {
  return (id << kVersionBits) | version;
}

RecordId DualSlicer::user_id(RecordId internal) {
  return internal >> kVersionBits;
}

DualSlicer::DualSlicer(
    Config config, adscrypto::TrapdoorPublicKey trapdoor_pk,
    adscrypto::TrapdoorSecretKey trapdoor_sk,
    adscrypto::AccumulatorParams accumulator_params,
    std::optional<adscrypto::AccumulatorTrapdoor> accumulator_trapdoor,
    crypto::Drbg rng)
    : config_(config),
      add_owner_(config, Keys::generate(rng), trapdoor_pk, trapdoor_sk,
                 accumulator_params, accumulator_trapdoor,
                 fork_rng(rng, "add-owner")),
      del_owner_(config, Keys::generate(rng), trapdoor_pk, trapdoor_sk,
                 accumulator_params, accumulator_trapdoor,
                 fork_rng(rng, "del-owner")),
      add_cloud_(trapdoor_pk, accumulator_params, config.prime_bits),
      del_cloud_(trapdoor_pk, accumulator_params, config.prime_bits),
      add_user_(add_owner_.export_user_state(), fork_rng(rng, "add-user")),
      del_user_(del_owner_.export_user_state(), fork_rng(rng, "del-user")),
      add_client_(add_user_, add_cloud_, config.prime_bits),
      del_client_(del_user_, del_cloud_, config.prime_bits) {}

void DualSlicer::insert(Record record) {
  insert(std::span<const Record>(&record, 1));
}

void DualSlicer::insert(std::span<const Record> records) {
  std::vector<Record> internal;
  internal.reserve(records.size());
  for (const Record& r : records) {
    if (r.id > kMaxUserId)
      throw ProtocolError("record id exceeds 48-bit user-id space");
    if (live_.contains(r.id))
      throw ProtocolError("record id is live: " + std::to_string(r.id));
    const std::uint32_t version = next_version_[r.id]++;
    live_[r.id] = LiveRecord{r.value, version};
    internal.push_back(Record{internal_id(r.id, version), r.value});
  }
  add_cloud_.apply(add_owner_.insert(internal));
  add_user_.refresh(add_owner_.export_user_state());
}

void DualSlicer::erase(RecordId id) {
  const auto it = live_.find(id);
  if (it == live_.end())
    throw ProtocolError("cannot delete unknown or deleted id: " +
                        std::to_string(id));
  const Record tombstone{internal_id(id, it->second.version),
                         it->second.value};
  live_.erase(it);
  del_cloud_.apply(
      del_owner_.insert(std::span<const Record>(&tombstone, 1)));
  del_user_.refresh(del_owner_.export_user_state());
}

void DualSlicer::update(RecordId id, std::uint64_t new_value) {
  erase(id);
  insert(Record{id, new_value});
}

bool DualSlicer::contains(RecordId id) const { return live_.contains(id); }

DualQueryResult DualSlicer::query(const QuerySpec& spec) {
  const QueryResult added = add_client_.query(spec);
  const QueryResult deleted = del_client_.query(spec);
  DualQueryResult out;
  out.verified = added.verified && deleted.verified;
  if (!out.verified) return out;

  // Both id lists are sorted and deduplicated internal (versioned) ids.
  std::vector<RecordId> survivors;
  std::set_difference(added.ids.begin(), added.ids.end(),
                      deleted.ids.begin(), deleted.ids.end(),
                      std::back_inserter(survivors));
  out.ids.reserve(survivors.size());
  for (const RecordId internal : survivors)
    out.ids.push_back(user_id(internal));
  return out;
}

const bigint::BigUint& DualSlicer::add_accumulator() const {
  return add_cloud_.accumulator_value();
}

const bigint::BigUint& DualSlicer::delete_accumulator() const {
  return del_cloud_.accumulator_value();
}

}  // namespace slicer::core
