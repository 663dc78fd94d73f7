// RSA trapdoor permutation π over Z_n*.
//
// Slicer's forward security (Bost's Σοφος technique): each keyword carries a
// chain of trapdoors t_j → t_{j-1} = π_pk(t_j). The data owner walks the
// chain *backwards* with the secret key (t_{j+1} = π_sk⁻¹(t_j)) at insertion
// time; the cloud can only walk it forward from the newest trapdoor revealed
// by a search token, so pre-search insertions stay unlinkable.
#pragma once

#include <utility>

#include "bigint/biguint.hpp"
#include "bigint/montgomery.hpp"
#include "crypto/drbg.hpp"

namespace slicer::adscrypto {

/// Public half: (n, e). Held by the cloud.
struct TrapdoorPublicKey {
  bigint::BigUint n;
  bigint::BigUint e;

  Bytes serialize() const;
  static TrapdoorPublicKey deserialize(BytesView data);
};

/// Secret half: (n, d) and the factorization n = p·q. Held by the data
/// owner only.
struct TrapdoorSecretKey {
  bigint::BigUint n;
  bigint::BigUint d;
  bigint::BigUint p;
  bigint::BigUint q;
};

/// The owner's π_sk⁻¹ context: y^d mod n by the Chinese remainder theorem,
/// i.e. two half-size exponentiations y^(d mod p−1) mod p and
/// y^(d mod q−1) mod q recombined by Garner's formula — bit-identical to
/// the plain y^d mod n at about a third of its cost. The half exponents,
/// q⁻¹ mod p and the two Montgomery contexts are derived once per key.
class TrapdoorInverse {
 public:
  /// Throws CryptoError unless sk.p · sk.q == sk.n.
  explicit TrapdoorInverse(const TrapdoorSecretKey& sk);

  const bigint::BigUint& modulus() const { return n_; }

  /// y^d mod n.
  bigint::BigUint operator()(const bigint::BigUint& y) const;

 private:
  bigint::BigUint n_;
  bigint::BigUint p_;
  bigint::BigUint q_;
  bigint::BigUint dp_;     // d mod (p − 1)
  bigint::BigUint dq_;     // d mod (q − 1)
  bigint::BigUint q_inv_;  // q⁻¹ mod p
  bigint::Montgomery mont_p_;
  bigint::Montgomery mont_q_;
};

/// RSA trapdoor permutation with fixed-width byte-level domain helpers.
class TrapdoorPermutation {
 public:
  /// Generates an RSA key pair with e = 65537.
  static std::pair<TrapdoorPublicKey, TrapdoorSecretKey> keygen(
      crypto::Drbg& rng, std::size_t modulus_bits);

  /// Binds to a public key for forward evaluation.
  explicit TrapdoorPermutation(TrapdoorPublicKey pk);

  const TrapdoorPublicKey& public_key() const { return pk_; }

  /// Byte width of a serialized trapdoor (the modulus width).
  std::size_t trapdoor_width() const { return width_; }

  /// π_pk(x) = x^e mod n (cheap: e = 65537).
  bigint::BigUint forward(const bigint::BigUint& x) const;

  /// π_sk⁻¹(y) = y^d mod n. Requires the secret key's CRT context; throws
  /// CryptoError when it belongs to another modulus.
  bigint::BigUint inverse(const TrapdoorInverse& sk,
                          const bigint::BigUint& y) const;

  /// Samples a random trapdoor in [2, n).
  bigint::BigUint random_trapdoor(crypto::Drbg& rng) const;

  /// Fixed-width big-endian trapdoor codecs (stable across parties).
  Bytes encode(const bigint::BigUint& t) const;
  bigint::BigUint decode(BytesView data) const;

 private:
  TrapdoorPublicKey pk_;
  bigint::Montgomery mont_;
  std::size_t width_;
};

}  // namespace slicer::adscrypto
