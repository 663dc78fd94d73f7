// Sharded RSA accumulator: K independent RsaAccumulator shards with a
// deterministic prime→shard routing function and an MSet-Mu-Hash fold of the
// per-shard accumulation values into the single digest published on chain.
//
// Sharding attacks the write-scaling wall: inserting a batch into one global
// accumulator changes every cached witness. Routing primes across K shards
// shrinks each shard's batch (and therefore each refresh exponent) by ~K
// while the shards update in parallel on the pool; grouping each shard's
// witnesses under shared roots (refresh_witnesses) makes the refresh cost
// per group rather than per witness.
// K = 1 degenerates to exactly today's single-accumulator behavior — same
// routing (everything to shard 0), same digest (the raw shard value, no
// fold), bit-identical outputs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"

namespace slicer::adscrypto {

/// Shard count from the `SLICER_SHARDS` environment variable (clamped to
/// [1, 256]); 1 when unset or unparsable.
std::size_t default_shard_count();

/// Deterministic shard of element `x` among `shard_count` shards. A
/// splitmix64 finalizer folded over the normalized limb vector — fixed
/// across platforms and processes (std::hash is deliberately NOT used here:
/// routing is protocol-visible, so it must never vary with the standard
/// library). `shard_count <= 1` always routes to shard 0.
std::size_t shard_of(const bigint::BigUint& x, std::size_t shard_count);

/// Folds per-shard accumulation values into the single chain digest. One
/// shard folds to the raw value itself (the legacy single-accumulator
/// digest, preserving K=1 bit-identity); K > 1 folds to the MSet-Mu-Hash of
/// the (shard index, value) pairs, which commits to every shard value and
/// its position while staying one field element on chain.
bigint::BigUint fold_shard_digests(std::span<const bigint::BigUint> values);

/// K RsaAccumulator shards behind one routing/digest facade.
class ShardedAccumulator {
 public:
  /// Location of an element: which shard holds it and at what arrival index
  /// within that shard's prime list.
  struct Pos {
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  /// What an insert changed — everything the witness refresh needs to
  /// avoid a from-scratch rebuild.
  struct Batch {
    /// New primes routed per shard (arrival order within each shard).
    std::vector<std::vector<bigint::BigUint>> routed;
    /// Per-shard accumulation values BEFORE this batch.
    std::vector<bigint::BigUint> old_values;
    /// Per-shard prime counts BEFORE this batch.
    std::vector<std::size_t> old_counts;
    bool empty = true;
  };

  /// `shard_count` 0 resolves to default_shard_count() (the SLICER_SHARDS
  /// environment knob); `use_fixed_base` is forwarded to every shard.
  explicit ShardedAccumulator(AccumulatorParams params,
                              std::size_t shard_count = 0,
                              bool use_fixed_base = true);

  std::size_t shard_count() const { return shards_.size(); }
  const AccumulatorParams& params() const { return params_; }

  /// Public (trapdoor-free) batch insert: routes `xs`, then raises each
  /// touched shard's value by its routed product — shard-parallel on the
  /// pool. Used by the verifying cloud on snapshot restore and by tests.
  Batch insert(std::span<const bigint::BigUint> xs);

  /// Owner fast path: maintains one running exponent mod φ(n) per shard, so
  /// a batch costs |batch| modular 64-bit multiplies plus one fixed-base
  /// exponentiation per touched shard. The modular product is
  /// order-independent, so the running exponent equals a from-scratch fold
  /// of the shard's whole prime list — bit-identical to re-accumulating.
  Batch insert(std::span<const bigint::BigUint> xs,
               const AccumulatorTrapdoor& trapdoor);

  /// Cloud trust path: routes `xs` and adopts the owner-published per-shard
  /// values verbatim instead of recomputing them. Throws ProtocolError when
  /// `values_after` does not carry exactly one value per shard.
  Batch insert_with_values(std::span<const bigint::BigUint> xs,
                           std::span<const bigint::BigUint> values_after);

  /// Snapshot-restore path: repopulates routing and prime state from a flat
  /// arrival-order prime list and recomputes every shard value — the
  /// trapdoor fold when available, the public product-tree path otherwise.
  /// Throws ProtocolError unless the accumulator is empty.
  void rebuild(std::span<const bigint::BigUint> primes,
               const AccumulatorTrapdoor* trapdoor);

  /// Shard/index of `x`, or nullopt if never inserted. Re-inserted elements
  /// report their latest position (matching the cloud's historical
  /// overwrite-on-duplicate map semantics).
  std::optional<Pos> find(const bigint::BigUint& x) const;

  /// Total primes across all shards.
  std::size_t prime_count() const { return total_; }

  std::span<const bigint::BigUint> shard_primes(std::size_t shard) const;
  const bigint::BigUint& shard_value(std::size_t shard) const;
  const std::vector<bigint::BigUint>& shard_values() const { return values_; }

  /// The published chain digest: fold_shard_digests over current values.
  bigint::BigUint digest() const { return fold_shard_digests(values_); }

  /// On-demand membership witness for the element at `pos`, against its
  /// shard's current value.
  bigint::BigUint witness(Pos pos) const;

  /// Primes per witness group. A refresh after a batch of r routed primes
  /// (b bits each, product P) costs, per shard of n cached leaves, n/m
  /// root updates of |P| = r·b bits plus re-deriving each group's leaves
  /// from its root by root-factor (m·b·log₂m bits per group):
  ///   incremental (w ← w^P per leaf):  n·r·b
  ///   grouped:                         n·b·(r/m + log₂m)
  /// The grouped cost is least at m ≈ r·ln 2 and flat around it; m = 16
  /// stays within ~15% of that optimum for 8 ≤ r ≤ 32 while the roots add
  /// only 1/m = 6% to the cache's memory. Below r ≈ log₂m = 4 the grouped
  /// refresh spends more exponent bits than the incremental one (~4× at
  /// r = 1); the benchmark's insert batches route well above that.
  static constexpr std::size_t kWitnessGroup = 16;

  /// Per-shard witness caches: leaves by in-shard position, plus one root
  /// per kWitnessGroup consecutive primes.
  using WitnessCache = std::vector<GroupedWitnesses>;

  /// From-scratch witness cache: per shard, one group-aligned root-factor
  /// batch from g (the result refresh_witnesses must reproduce).
  WitnessCache all_witnesses() const;

  /// Refresh after `batch`, in place and group by group. For each shard
  /// with r routed primes of product P:
  ///   * every full pre-batch group root absorbs P (R ← R^P), and the
  ///     group's leaves are re-derived from it by root-factor;
  ///   * the partial tail group takes the first new primes — its root
  ///     absorbs the product of the others, and its leaves (old and
  ///     joining) are re-derived from it the same way;
  ///   * the remaining new primes form new groups, derived by one grouped
  ///     root-factor batch based at A_old^(primes that joined the tail).
  /// Every value is the unique g^(S/x) (or g^(S/∏group)), so the result
  /// equals all_witnesses() from scratch. `caches` must hold exactly the
  /// pre-batch state (old_counts per shard); throws CryptoError otherwise.
  void refresh_witnesses(WitnessCache& caches, const Batch& batch) const;

  /// Verifies a membership witness against the shard values: routes
  /// `element` to its shard and checks witness^element == value_s. This is
  /// what the contract and client execute.
  static bool verify(const AccumulatorParams& params,
                     std::span<const bigint::BigUint> shard_values,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

  /// Same, against a caller-amortized Montgomery context.
  static bool verify(const bigint::Montgomery& mont,
                     std::span<const bigint::BigUint> shard_values,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

 private:
  /// Routes `xs` into per-shard lists, appends them to the shard prime
  /// lists and the position index, and captures the pre-batch snapshot.
  Batch route(std::span<const bigint::BigUint> xs);

  AccumulatorParams params_;
  bigint::Montgomery mont_;
  std::vector<RsaAccumulator> shards_;
  /// Per-shard prime lists in arrival order.
  std::vector<std::vector<bigint::BigUint>> primes_;
  /// Per-shard accumulation values Ac_s (generator when empty).
  std::vector<bigint::BigUint> values_;
  /// Owner path: per-shard running exponents mod φ(n). Only meaningful
  /// while every insert so far went through the trapdoor overload;
  /// public/with_values inserts clear the flag and the next trapdoor
  /// insert refolds from the shard prime lists.
  std::vector<bigint::BigUint> exponents_;
  bool exponents_valid_ = true;
  std::unordered_map<bigint::BigUint, Pos> index_;
  std::size_t total_ = 0;
};

}  // namespace slicer::adscrypto
