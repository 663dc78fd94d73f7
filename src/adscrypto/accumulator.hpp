// RSA accumulator (Li–Li–Xue / Barić–Pfitzmann style) with membership
// witnesses.
//
// This is the authenticated data structure of Slicer: the data owner
// accumulates one prime representative per (search token, result-set hash)
// pair, publishes the accumulation value Ac to the blockchain, and hands the
// prime list X to the cloud. At query time the cloud produces a constant-size
// membership witness; the smart contract checks `witness^x == Ac (mod n)`.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "common/metrics.hpp"
#include "crypto/drbg.hpp"

namespace slicer::adscrypto {

/// Public accumulator parameters: modulus n = p·q and a generator of QR_n.
struct AccumulatorParams {
  bigint::BigUint modulus;
  bigint::BigUint generator;

  Bytes serialize() const;
  static AccumulatorParams deserialize(BytesView data);
};

/// The factorization of n. Only the data owner ever holds it; it enables the
/// O(1)-exponent accumulation fast path (exponent reduced mod φ(n)).
struct AccumulatorTrapdoor {
  bigint::BigUint p;
  bigint::BigUint q;

  bigint::BigUint phi() const;
};

/// Membership witnesses of a prime list plus one root per group of
/// consecutive primes: leaves[i] = B^(∏_{j≠i} x_j) and roots[k] =
/// B^(∏ of the primes outside group k), where group k holds positions
/// [k·m, min((k+1)·m, |X|)) for group size m. A root is what every leaf of
/// its group shares, so a group's leaves can be re-derived from its root
/// alone (see ShardedAccumulator::refresh_witnesses).
struct GroupedWitnesses {
  std::vector<bigint::BigUint> leaves;
  std::vector<bigint::BigUint> roots;

  bool operator==(const GroupedWitnesses&) const = default;
};

/// RSA accumulator bound to fixed parameters.
class RsaAccumulator {
 public:
  /// `use_fixed_base` keeps the comb table for g^e exponentiations
  /// (default). Disabling it routes everything through the generic sliding
  /// window — only benchmarks do this, to quantify the table's speedup.
  explicit RsaAccumulator(AccumulatorParams params, bool use_fixed_base = true);

  /// Generates fresh parameters. `safe_primes` selects genuine safe primes
  /// (slow for large widths — intended for offline setup) versus ordinary
  /// random primes (fast; adequate for tests and benchmarks).
  static std::pair<AccumulatorParams, AccumulatorTrapdoor> setup(
      crypto::Drbg& rng, std::size_t modulus_bits, bool safe_primes = false);

  const AccumulatorParams& params() const { return params_; }

  /// Ac = g^(∏ x) mod n — the public (trapdoor-free) path the cloud uses to
  /// check a received accumulator value.
  bigint::BigUint accumulate(std::span<const bigint::BigUint> primes) const;

  /// Owner fast path: reduces the exponent mod φ(n) first.
  bigint::BigUint accumulate(std::span<const bigint::BigUint> primes,
                             const AccumulatorTrapdoor& trapdoor) const;

  /// Membership witness for primes[index]: g^(∏_{j≠index} x_j) mod n.
  /// This is the per-query path the paper benchmarks as "VO generation".
  bigint::BigUint witness(std::span<const bigint::BigUint> primes,
                          std::size_t index) const;

  /// All witnesses at once via the root-factor (product-tree) algorithm —
  /// O(|X| log |X|) total instead of O(|X|) per witness. Used by the cloud
  /// to amortize VO generation across queries (ablation C in DESIGN.md).
  std::vector<bigint::BigUint> all_witnesses(
      std::span<const bigint::BigUint> primes) const;

  /// The same root-factor batch, split along group boundaries first: the
  /// recursion runs over the group products until a range is one group —
  /// its base is then that group's root, recorded on the way down — and
  /// continues inside the group. The roots therefore cost nothing beyond
  /// the leaves, and the leaves equal B^(∏_{j≠i} x_j) for base B. With a
  /// group of |X| primes (or more) this is the plain root-factor batch; with
  /// B = a group root it re-derives that group's leaves (the refresh path of
  /// the sharded accumulator).
  /// `group` must be nonzero. When `exp_bits` is non-null it is advanced by
  /// the exponent bit-length of every modexp the batch performs.
  GroupedWitnesses grouped_witnesses(std::span<const bigint::BigUint> primes,
                                     const bigint::BigUint& base,
                                     std::size_t group,
                                     metrics::Counter* exp_bits = nullptr) const;

  /// g^exponent mod n through the fixed-base comb table when enabled (the
  /// generic sliding window otherwise). Public so incremental maintainers
  /// holding a running exponent (the sharded accumulator's trapdoor path)
  /// hit the same fast path as accumulate().
  bigint::BigUint pow_generator(const bigint::BigUint& exponent) const {
    return pow_g(exponent);
  }

  /// Verifies witness^element == Ac (mod n). This is exactly what the smart
  /// contract executes on chain.
  static bool verify(const AccumulatorParams& params, const bigint::BigUint& ac,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

  /// Same check against a prebuilt Montgomery context bound to the
  /// accumulator modulus — lets a verifier amortize the context (R² mod n)
  /// across the many replies of one query instead of re-deriving it per
  /// witness (see core/verify.cpp).
  static bool verify(const bigint::Montgomery& mont, const bigint::BigUint& ac,
                     const bigint::BigUint& element,
                     const bigint::BigUint& witness);

 private:
  /// Root-factor recursion over [lo, hi). `base` is in Montgomery form and
  /// already carries every prime outside the range in its exponent; halves
  /// are forked onto the thread pool for large ranges. `scratch` belongs
  /// to the calling thread; forked branches allocate their own. `fixed` is
  /// non-null only at the root, where `base` is still the generator g and
  /// the two half-exponent pows can use the comb table. With a nonzero
  /// `group`, `lo` is group-aligned, ranges spanning several groups split
  /// on a group boundary, and a one-group range records its base as that
  /// group's root in `out`. `exp_bits` as in grouped_witnesses.
  void all_witnesses_rec(std::span<const bigint::BigUint> primes,
                         const bigint::Montgomery::Elem& base, std::size_t lo,
                         std::size_t hi, std::size_t group,
                         GroupedWitnesses& out, metrics::Counter* exp_bits,
                         bigint::Montgomery::Scratch& scratch,
                         const bigint::Montgomery::FixedBase* fixed) const;

  /// g^exponent mod n through the comb table when enabled.
  bigint::BigUint pow_g(const bigint::BigUint& exponent) const;

  AccumulatorParams params_;
  bigint::Montgomery mont_;
  /// Comb table for the generator — every exponentiation in this class is
  /// a power of the same g. Behind a unique_ptr because the table (with its
  /// internal lock) is immovable while RsaAccumulator itself must stay
  /// movable.
  std::unique_ptr<bigint::Montgomery::FixedBase> fixed_g_;
};

/// Balanced product of a range of primes, computed as a bottom-up pairwise
/// reduction (Karatsuba-friendly shape, no deep recursion) with each level
/// parallelized over the process thread pool. Any association of the exact
/// integer product yields the same value, so the result is identical at
/// every thread count.
bigint::BigUint product_tree(std::span<const bigint::BigUint> values);

}  // namespace slicer::adscrypto
