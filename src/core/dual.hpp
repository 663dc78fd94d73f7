// Dual-instance construction for deletion and update (paper §V-F).
//
// Slicer's index is append-only (forward-secure insertion), so deletion is
// realized with two complete instances: inserts go to the "add" instance,
// deletions insert the same (id, value) into the "delete" instance, and a
// query's final answer is the set difference of the two instances' verified
// results. Each instance answers through its own QueryClient, so a delete-
// aware query is any planner QuerySpec (AND/OR/NOT, intervals) at any shard
// count. An update is one deletion plus one insertion of a new record
// version; user-facing ids are mapped to versioned internal ids so that the
// per-instance unique-id rule is never violated.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/client.hpp"
#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/user.hpp"

namespace slicer::core {

/// Verifiable query outcome of the dual construction.
struct DualQueryResult {
  /// Ids whose records currently match (deletions already subtracted).
  std::vector<RecordId> ids;
  /// Both instances' proofs verified against their per-shard values.
  bool verified = false;
};

/// Orchestrates an add-instance and a delete-instance of Slicer.
///
/// This class plays owner, user and both clouds in one process — examples
/// and tests that need the full four-party split with a blockchain use the
/// pieces directly (see examples/fairness_dispute.cpp).
class DualSlicer {
 public:
  /// Both instances share the trapdoor-permutation keys and accumulator
  /// parameters but keep fully independent state.
  DualSlicer(Config config,
             adscrypto::TrapdoorPublicKey trapdoor_pk,
             adscrypto::TrapdoorSecretKey trapdoor_sk,
             adscrypto::AccumulatorParams accumulator_params,
             std::optional<adscrypto::AccumulatorTrapdoor> accumulator_trapdoor,
             crypto::Drbg rng);

  // The query clients hold references into this object.
  DualSlicer(const DualSlicer&) = delete;
  DualSlicer& operator=(const DualSlicer&) = delete;

  /// Inserts a new record. Throws ProtocolError when the id is live or was
  /// ever used.
  void insert(Record record);
  void insert(std::span<const Record> records);

  /// Deletes a live record by id. Throws ProtocolError when unknown or
  /// already deleted.
  void erase(RecordId id);

  /// Update = erase + insert of a fresh version with the same user id.
  void update(RecordId id, std::uint64_t new_value);

  /// Verifiable query over the current (post-deletion) state: the add
  /// instance's verified answer minus the delete instance's. Empty ids when
  /// either instance fails verification.
  DualQueryResult query(const QuerySpec& spec);

  /// True when `id` is live.
  bool contains(RecordId id) const;

  /// Number of live records.
  std::size_t live_count() const { return live_.size(); }

  const bigint::BigUint& add_accumulator() const;
  const bigint::BigUint& delete_accumulator() const;

 private:
  struct LiveRecord {
    std::uint64_t value = 0;
    std::uint32_t version = 0;
  };

  static RecordId internal_id(RecordId id, std::uint32_t version);
  static RecordId user_id(RecordId internal);

  Config config_;
  DataOwner add_owner_;
  DataOwner del_owner_;
  CloudServer add_cloud_;
  CloudServer del_cloud_;
  DataUser add_user_;
  DataUser del_user_;
  QueryClient add_client_;
  QueryClient del_client_;

  std::unordered_map<RecordId, LiveRecord> live_;
  std::unordered_map<RecordId, std::uint32_t> next_version_;
};

}  // namespace slicer::core
