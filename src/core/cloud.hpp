// CloudServer: Algorithm 4 (Cloud.Search).
//
// The cloud holds the encrypted index I, the prime list X (partitioned
// across K accumulator shards) and the current accumulator digest. Given a
// search token it walks trapdoor generations from newest to oldest
// (t_{i-1} = π_pk(t_i)), collects the encrypted results, then produces the
// verification object: the RSA-accumulator membership witness of the prime
// representative derived from (token, multiset-hash of the results),
// checked against the prime's shard.
#pragma once

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "adscrypto/trapdoor.hpp"
#include "core/index.hpp"
#include "core/messages.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"

namespace slicer::core {

/// The cloud role.
class CloudServer {
 public:
  /// `shard_count` 0 resolves to the SLICER_SHARDS environment knob
  /// (default 1 — the unsharded legacy layout). Must match the owner's.
  CloudServer(adscrypto::TrapdoorPublicKey trapdoor_pk,
              adscrypto::AccumulatorParams accumulator_params,
              std::size_t prime_bits = 64, std::size_t shard_count = 0);

  /// Move-constructible (the proof cache's mutex lives behind a stable
  /// heap pointer); assignment stays deleted along with copying.
  CloudServer(CloudServer&&) noexcept = default;
  CloudServer& operator=(CloudServer&&) = delete;

  /// Applies a Build/Insert delta from the data owner: new index entries,
  /// new primes, and the refreshed accumulator value(s). With witness
  /// precomputation enabled the cache is refreshed eagerly, group by group
  /// (ShardedAccumulator::refresh_witnesses): each group root absorbs the
  /// batch product, and each group's leaves are re-derived from its root.
  /// Throws ProtocolError, changing nothing, unless an update with new
  /// primes carries one shard value per shard.
  void apply(const UpdateOutput& update);

  /// Full search: results + VO for every token.
  std::vector<TokenReply> search(std::span<const SearchToken> tokens) const;

  /// Batched plan search: answers every clause of a compiled query plan in
  /// one call (one wire round trip through net/): replies[i] is search()
  /// over requests[i]'s tokens. Per-clause VOs stay independent, so the
  /// client verifies each clause on its own and combines only verified
  /// sets.
  std::vector<ClauseReply> search_plan(
      std::span<const ClauseRequest> requests) const;

  /// Result generation only (the Fig. 5a/5c timing component).
  std::vector<Bytes> fetch_results(const SearchToken& token) const;

  /// VO generation only (the Fig. 5b/5d timing component). `results` must
  /// be the multiset fetch_results returned for this token, but in ANY
  /// order: the result-set digest is an MSet-Mu-Hash, which is order-
  /// insensitive by construction, so a reordered (e.g. batched or
  /// re-merged) result list canonicalizes to the identical prime and
  /// witness — tests/core/prove_canonical_test.cpp pins this. Throws
  /// ProtocolError if the derived prime is not in X (an honest cloud with
  /// a consistent index never hits this).
  TokenReply prove(const SearchToken& token,
                   std::vector<Bytes> results) const;

  /// Serializes the cloud's state (index, prime list, accumulator value)
  /// for persistence or migration to another server.
  Bytes serialize_state() const;

  /// Restores a snapshot produced by serialize_state. Throws DecodeError on
  /// malformed input and ProtocolError when called on a non-empty cloud.
  /// The snapshot format is shard-agnostic (flat prime list + digest); a
  /// K > 1 cloud recomputes its shard values from the primes on restore.
  void restore_state(BytesView snapshot);

  /// Precomputes all membership witnesses (and their group roots) with the
  /// product-tree algorithm; afterwards prove() is an O(1) lookup, and
  /// every subsequent apply() refreshes the cache against the batch.
  /// (Ablation C: amortized vs per-query VO generation.)
  void precompute_witnesses();
  bool witnesses_precomputed() const;

  const EncryptedIndex& index() const { return index_; }
  const adscrypto::AccumulatorParams& accumulator_params() const {
    return sharded_.params();
  }
  /// The published chain digest (the raw shard value at K = 1).
  const bigint::BigUint& accumulator_value() const { return ac_; }
  /// Per-shard accumulation values behind accumulator_value().
  const std::vector<bigint::BigUint>& shard_values() const {
    return sharded_.shard_values();
  }
  std::size_t shard_count() const { return sharded_.shard_count(); }
  std::size_t prime_count() const { return primes_.size(); }

 private:
  /// Hot-token proof cache: (serialized token) → everything prove derives
  /// for it. An entry's prime/position/witness are reusable only under two
  /// guards checked on every hit:
  ///   * the freshly fetched result digest equals the stored one (the
  ///     prime is H(token, digest), so a changed result set means a
  ///     different prime — never serve the old one), and
  ///   * for the witness/position, the entry's shard epoch equals the
  ///     shard's current epoch. apply() bumps the epoch of every shard
  ///     that receives new primes, which is exactly when cached witnesses
  ///     (and in-shard indices) go stale; entry-only updates leave epochs
  ///     alone because the digest guard already covers result changes.
  /// Boxed so CloudServer stays movable.
  struct ProofCache {
    struct Entry {
      adscrypto::MultisetHash::Digest digest{};
      bigint::BigUint prime;
      adscrypto::ShardedAccumulator::Pos pos;
      std::uint64_t epoch = 0;
      bigint::BigUint witness;
      std::list<Bytes>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::size_t capacity = 0;  // 0 disables (SLICER_PROOF_CACHE knob)
    std::list<Bytes> lru;      // front = most recently used key
    std::map<Bytes, Entry> entries;
    /// Per-shard batch generation (bumped by apply for shards that gained
    /// primes; all bumped on restore_state).
    std::vector<std::uint64_t> shard_epochs;
  };

  /// Per-query walk plan: for each token, the encoded trapdoor of every
  /// generation it visits (newest → oldest). One trapdoor-permutation step
  /// is computed at most once per query — tokens that walk overlapping
  /// chains (duplicate keywords, re-submitted tokens) share the memoized
  /// encode instead of re-running the RSA forward map per token.
  std::vector<std::vector<Bytes>> plan_walks(
      std::span<const SearchToken> tokens) const;

  /// PRF walk of one token over its precomputed generation encodes (no
  /// metrics — callers attribute the time).
  std::vector<Bytes> fetch_results_walk(const SearchToken& token,
                                        std::span<const Bytes> encodes) const;

  /// Drops every proof-cache entry and advances all shard epochs (restore
  /// replaces the accumulator state wholesale).
  void reset_proof_cache();

  adscrypto::TrapdoorPermutation perm_;
  adscrypto::ShardedAccumulator sharded_;
  std::size_t prime_bits_;

  EncryptedIndex index_;
  std::vector<bigint::BigUint> primes_;  // X, flat arrival order (snapshots)
  /// Witness cache (per shard: leaves parallel to the shard's prime list,
  /// plus group roots). Empty outer vector = cold cache; size-K = warm.
  /// Written only by apply()/precompute_witnesses(), which callers never
  /// run concurrently with reads (net::SlicerServer takes the tenant
  /// exclusively for APPLY), so const reads need no lock.
  adscrypto::ShardedAccumulator::WitnessCache witnesses_;
  std::unique_ptr<ProofCache> pcache_;
  bool witness_autorefresh_ = false;  // refresh cache on apply()
  bigint::BigUint ac_;
};

}  // namespace slicer::core
