// Montgomery modular arithmetic (CIOS) for odd moduli.
//
// All heavy modular exponentiation in the library — RSA accumulator
// accumulation / witnesses / verification and the RSA trapdoor permutation —
// runs through this engine. Construction precomputes R² mod n and
// −n⁻¹ mod 2⁶⁴ once; `pow` then uses sliding windows over a dedicated
// squaring kernel, and `FixedBase` adds a precomputed comb table for bases
// that are exponentiated many times (the accumulator generator g).
//
// Thread-safety contract: a constructed Montgomery is immutable; every
// method is const and touches no shared mutable state, so one instance may
// be used concurrently from any number of threads. The hot-path overloads
// take a caller-owned Scratch — keep one Scratch per thread (they are
// cheap, lazily sized buffers) and the CIOS kernel performs zero heap
// allocations once the scratch has warmed up. A FixedBase may also be
// shared across threads: its table is extended under an internal lock and
// read under a shared lock.
#pragma once

#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "bigint/biguint.hpp"

namespace slicer::bigint {

/// Montgomery context bound to one odd modulus.
class Montgomery {
 public:
  using u64 = std::uint64_t;

  /// A residue in Montgomery form: exactly limb_count() little-endian
  /// limbs. Produced by to_mont / pow_mont, consumed by mul_mont /
  /// from_mont. Keeping chains of operations in this form skips the
  /// to/from-Montgomery round trip per step.
  using Elem = std::vector<u64>;

  /// Reusable working memory for the CIOS kernel and the pow window
  /// table. NOT thread-safe: use one per thread.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class Montgomery;
    std::vector<u64> t;        // CIOS/SOS accumulator, 2·limb_count()+2 limbs
    std::vector<u64> tmp;      // base² / comb run accumulator, limb_count()
    std::vector<u64> table;    // flat window / bucket table
    std::vector<u64> staging;  // to_mont input staging
  };

  /// Throws CryptoError unless `modulus` is odd and > 1.
  explicit Montgomery(const BigUint& modulus);

  /// (a * b) mod n, both operands in the regular domain.
  BigUint mul(const BigUint& a, const BigUint& b) const;
  BigUint mul(const BigUint& a, const BigUint& b, Scratch& s) const;

  /// base^exp mod n.
  BigUint pow(const BigUint& base, const BigUint& exp) const;
  BigUint pow(const BigUint& base, const BigUint& exp, Scratch& s) const;

  // -- Montgomery-domain API (hot paths) --------------------------------

  /// Converts into Montgomery form (reduces mod n first if needed).
  Elem to_mont(const BigUint& a, Scratch& s) const;

  /// Converts back to the regular domain.
  BigUint from_mont(const Elem& a, Scratch& s) const;

  /// out = a · b (Montgomery domain). `out` is resized to limb_count();
  /// it must not alias the scratch, but may alias `a` or `b`.
  void mul_mont(const Elem& a, const Elem& b, Elem& out, Scratch& s) const;

  /// out = base^exp (Montgomery domain, sliding windows whose width adapts
  /// to the exponent length). exp is a regular (non-Montgomery) integer.
  /// `out` must not alias `base`.
  void pow_mont(const Elem& base, const BigUint& exp, Elem& out,
                Scratch& s) const;

  const BigUint& modulus() const { return n_big_; }
  std::size_t limb_count() const { return k_; }

  /// Precomputed fixed-base comb table; defined out-of-line below because
  /// it embeds a full copy of the (then-complete) Montgomery context.
  class FixedBase;

 private:
  /// CIOS kernel on raw limb pointers: out = a·b·R⁻¹ mod n. `a`, `b` and
  /// `out` are k_ limbs (out may alias a or b); `t` is the scratch
  /// accumulator (≥ k_+2 limbs). No allocation.
  void mont_mul_raw(const u64* a, const u64* b, u64* out, u64* t) const;

  /// Dedicated squaring kernel: out = a²·R⁻¹ mod n. Exploits the symmetry
  /// of the product (half the partial products of mont_mul_raw). `t` needs
  /// 2·k_+2 limbs; `out` may alias `a`. No allocation.
  void mont_sqr_raw(const u64* a, u64* out, u64* t) const;

  /// Grows the scratch buffers to this modulus's widths (no-op once warm).
  void prepare(Scratch& s) const;

  BigUint n_big_;
  std::vector<u64> n_;        // modulus limbs, length k_
  std::vector<u64> rr_;       // R² mod n, length k_
  std::vector<u64> one_;      // R mod n (Montgomery form of 1), length k_
  std::vector<u64> lit_one_;  // literal 1 padded to k_ limbs (from_mont)
  u64 n0inv_ = 0;             // −n⁻¹ mod 2⁶⁴
  std::size_t k_ = 0;
};

/// Precomputed fixed-base exponentiation table (comb / radix-2^w).
///
/// Stores G[i] = base^(2^(w·i)) in Montgomery form for i = 0..digits-1,
/// where w = kWindowBits. Short exponents are evaluated comb-style (w
/// squarings plus one multiply per set exponent bit); long exponents use
/// the Yao/BGMW bucket aggregation (one multiply per w-bit digit plus
/// ~2^(w+1) aggregation multiplies, and **zero** squarings). Both paths
/// compute the exact same residue as the generic pow — any order of
/// exact modular multiplications yields the same value.
///
/// The table is built once per (modulus, base) and extended lazily when
/// a longer exponent arrives; extension happens under an internal
/// exclusive lock while evaluation takes a shared lock, so one FixedBase
/// may be used concurrently from any number of threads. Exponents whose
/// table would exceed kMaxTableBits fall back to the generic sliding
/// window (see DESIGN.md §3d for the memory trade-off).
class Montgomery::FixedBase {
 public:
  /// Comb tooth spacing: each table entry covers w exponent bits.
  static constexpr unsigned kWindowBits = 6;
  /// Exponents at most this long use the direct comb evaluation; longer
  /// ones switch to bucket aggregation (crossover of the two cost models;
  /// see DESIGN.md §3d).
  static constexpr std::size_t kCombDirectBits = 384;
  /// Hard cap on table coverage: ~1M exponent bits ≈ 21 MB of table at a
  /// 1024-bit modulus. Beyond it, pow falls back to Montgomery::pow_mont.
  static constexpr std::size_t kMaxTableBits = std::size_t{1} << 20;

  /// Builds the initial table covering `initial_bits` of exponent.
  /// `base` is reduced mod n. The FixedBase keeps its own copy of the
  /// (small) Montgomery context, so it stays valid even if `mont` is
  /// later moved or destroyed.
  FixedBase(const Montgomery& mont, const BigUint& base,
            std::size_t initial_bits = 1024);

  FixedBase(const FixedBase&) = delete;
  FixedBase& operator=(const FixedBase&) = delete;

  /// out = base^exp in Montgomery form.
  void pow_mont(const BigUint& exp, Elem& out, Scratch& s) const;

  /// base^exp mod n in the regular domain.
  BigUint pow(const BigUint& exp, Scratch& s) const;
  BigUint pow(const BigUint& exp) const;

  /// Exponent bits currently covered by the table (grows on demand).
  std::size_t table_bits() const;

 private:
  /// Extends the table to at least `digits` entries (exclusive lock).
  void ensure_digits(std::size_t digits) const;

  const Montgomery mont_;  // own copy: ~4 modulus-sized vectors
  mutable std::shared_mutex mu_;
  mutable std::vector<u64> table_;  // digits_ × limb_count() flat entries
  mutable std::size_t digits_ = 0;
};

}  // namespace slicer::bigint
