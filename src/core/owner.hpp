// DataOwner: Algorithms 1 (Build) and 2 (Insert).
//
// The owner turns each record (R, v) into 1 + b keywords — the value itself
// (equality search) and the b SORE ciphertext tuples (order search) — and
// maintains, per keyword:
//   * a trapdoor chain (forward security; advanced with π_sk⁻¹ on re-insert),
//   * the cumulative multiset hash of the keyword's encrypted results, and
//   * a prime representative accumulated into the RSA accumulator.
// Build is Insert on empty state; both emit an UpdateOutput the cloud
// applies and an accumulator value the blockchain stores.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <unordered_set>

#include "adscrypto/accumulator.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "adscrypto/trapdoor.hpp"
#include "core/messages.hpp"
#include "core/record_cipher.hpp"
#include "core/types.hpp"

namespace slicer::core {

/// What Build/Insert hands to the cloud (index delta, prime-list delta) and
/// to the blockchain (the new accumulator value).
struct UpdateOutput {
  std::vector<std::pair<Bytes, Bytes>> entries;   // new (l, d) index entries
  std::vector<bigint::BigUint> new_primes;        // X⁺
  bigint::BigUint accumulator_value;              // updated Ac (fold digest)
  /// Per-shard accumulation values backing `accumulator_value`. One entry
  /// per shard; a single entry equal to accumulator_value for K = 1. The
  /// cloud requires it; a chain consumer of the folded digest alone
  /// (UPDATE_AC) can ignore it.
  std::vector<bigint::BigUint> shard_values;

  /// Serialized size of the index delta: Σ(|l| + |d|).
  std::size_t entries_byte_size() const;

  /// Canonical wire codec (the net-layer APPLY payload): entries in emit
  /// order, minimal big-integer encodings, count bounds before any
  /// allocation, no trailing bytes. A decoded update re-serializes
  /// byte-identically.
  Bytes serialize() const;
  static UpdateOutput deserialize(BytesView data);

  bool operator==(const UpdateOutput&) const = default;
};

/// Per-keyword trapdoor state (t_j, j) — the dictionary T.
struct TrapdoorState {
  bigint::BigUint trapdoor;
  std::uint32_t j = 0;
};

/// Everything an authorized data user holds: the symmetric keys and a copy
/// of the trapdoor-state dictionary T (paper: "Send (K, K_R, T) to the data
/// user").
struct UserState {
  Config config;
  Keys keys;
  std::map<std::string, TrapdoorState> trapdoor_states;
  /// Fixed trapdoor encoding width (the permutation's modulus width).
  std::size_t trapdoor_width = 0;
};

/// The data owner role.
class DataOwner {
 public:
  /// `accumulator_trapdoor` (the factorization of the accumulator modulus)
  /// enables the fast accumulation path; pass nullopt to force the public
  /// path. `shard_count` 0 resolves to the SLICER_SHARDS environment knob
  /// (default 1 — the unsharded legacy layout).
  DataOwner(Config config, Keys keys,
            adscrypto::TrapdoorPublicKey trapdoor_pk,
            adscrypto::TrapdoorSecretKey trapdoor_sk,
            adscrypto::AccumulatorParams accumulator_params,
            std::optional<adscrypto::AccumulatorTrapdoor> accumulator_trapdoor,
            crypto::Drbg rng, std::size_t shard_count = 0);

  /// Algorithm 1. Throws ProtocolError if state already exists.
  UpdateOutput build(std::span<const Record> db);
  UpdateOutput build(std::span<const MultiRecord> db);

  /// Algorithm 2. Forward-secure; may be called repeatedly.
  UpdateOutput insert(std::span<const Record> db_plus);
  UpdateOutput insert(std::span<const MultiRecord> db_plus);

  /// Snapshot of (K, K_R, T) for a data user. Re-export after every insert
  /// (data users need the newest trapdoors to form tokens).
  UserState export_user_state() const;

  /// Current accumulator value Ac (what the blockchain stores): the fold of
  /// the per-shard accumulation values (the raw value at K = 1).
  const bigint::BigUint& accumulator_value() const { return ac_; }

  /// Per-shard accumulation values behind accumulator_value().
  const std::vector<bigint::BigUint>& shard_values() const {
    return sharded_.shard_values();
  }
  std::size_t shard_count() const { return sharded_.shard_count(); }

  /// Full prime list X (the owner re-sends it to new clouds).
  const std::vector<bigint::BigUint>& primes() const { return primes_; }

  /// Serialized ADS footprint in bytes: |X| · prime width (Fig. 4b metric).
  std::size_t ads_byte_size() const;

  /// Wall-clock split of the last build/insert call: the encrypted-index
  /// phase versus the ADS phase (prime derivation + accumulation). This is
  /// the instrumentation behind the paper's Fig. 3a / 3b and Fig. 7 split.
  struct IngestStats {
    double index_seconds = 0;
    double ads_seconds = 0;
  };
  const IngestStats& last_ingest_stats() const { return last_stats_; }

  /// Number of distinct keywords tracked (≈ value-space saturation metric).
  std::size_t keyword_count() const { return trapdoor_states_.size(); }

  const Config& config() const { return config_; }

  /// Serializes the owner's mutable protocol state — T, S, X, Ac and the
  /// used-id set — so an owner process can stop and resume. The configured
  /// identity (keys, trapdoor secret, accumulator parameters) is supplied
  /// to the constructor as usual and is NOT part of the snapshot.
  Bytes serialize_state() const;

  /// Restores a snapshot produced by serialize_state. Throws DecodeError on
  /// malformed input and ProtocolError when called on a non-empty owner.
  void restore_state(BytesView snapshot);

 private:
  /// Shared body of Build and Insert: groups records by keyword, advances
  /// trapdoors, emits index entries and new primes, refreshes Ac.
  UpdateOutput ingest(
      const std::map<std::string, std::vector<RecordId>>& grouped);

  /// Expands one (attribute, value, id) into its keyword → id postings.
  void add_postings(std::map<std::string, std::vector<RecordId>>& grouped,
                    std::string_view attribute, std::uint64_t value,
                    RecordId id) const;

  void claim_id(RecordId id);

  Config config_;
  Keys keys_;
  adscrypto::TrapdoorPermutation perm_;
  adscrypto::TrapdoorInverse trapdoor_inverse_;
  adscrypto::ShardedAccumulator sharded_;
  std::optional<adscrypto::AccumulatorTrapdoor> accumulator_trapdoor_;
  crypto::Drbg rng_;

  std::map<std::string, TrapdoorState> trapdoor_states_;          // T
  std::map<std::string, adscrypto::MultisetHash::Digest> set_hashes_;  // S
  std::vector<bigint::BigUint> primes_;                           // X
  std::unordered_set<RecordId> used_ids_;
  bigint::BigUint ac_;
  IngestStats last_stats_;
};

}  // namespace slicer::core
