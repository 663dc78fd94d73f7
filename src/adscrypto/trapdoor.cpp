#include "adscrypto/trapdoor.hpp"

#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;

Bytes TrapdoorPublicKey::serialize() const {
  Writer w;
  w.bytes(n.to_bytes_be());
  w.bytes(e.to_bytes_be());
  return std::move(w).take();
}

TrapdoorPublicKey TrapdoorPublicKey::deserialize(BytesView data) {
  Reader r(data);
  TrapdoorPublicKey out;
  out.n = BigUint::from_bytes_be(r.bytes());
  out.e = BigUint::from_bytes_be(r.bytes());
  r.expect_end();
  return out;
}

std::pair<TrapdoorPublicKey, TrapdoorSecretKey> TrapdoorPermutation::keygen(
    crypto::Drbg& rng, std::size_t modulus_bits) {
  if (modulus_bits < 32) throw CryptoError("trapdoor modulus too small");
  const BigUint e(65537);
  for (;;) {
    const std::size_t half = modulus_bits / 2;
    const BigUint p = bigint::generate_prime(rng, half);
    const BigUint q = bigint::generate_prime(rng, modulus_bits - half);
    if (p == q) continue;
    const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    if (!BigUint::gcd(e, phi).is_one()) continue;
    const BigUint n = p * q;
    const BigUint d = BigUint::mod_inverse(e, phi);
    return {TrapdoorPublicKey{n, e}, TrapdoorSecretKey{n, d, p, q}};
  }
}

namespace {

/// Checked before the Montgomery contexts are built: they reject an even
/// or trivial modulus with a less helpful message.
const TrapdoorSecretKey& checked(const TrapdoorSecretKey& sk) {
  if (sk.p <= BigUint(1) || sk.q <= BigUint(1) || sk.p * sk.q != sk.n)
    throw CryptoError("trapdoor secret key: p·q != n");
  return sk;
}

}  // namespace

TrapdoorInverse::TrapdoorInverse(const TrapdoorSecretKey& sk)
    : n_(checked(sk).n),
      p_(sk.p),
      q_(sk.q),
      dp_(sk.d % (sk.p - BigUint(1))),
      dq_(sk.d % (sk.q - BigUint(1))),
      q_inv_(BigUint::mod_inverse(sk.q % sk.p, sk.p)),
      mont_p_(sk.p),
      mont_q_(sk.q) {}

BigUint TrapdoorInverse::operator()(const BigUint& y) const {
  // Exact for every y in Z_n (units or not): d ≡ dp (mod p−1) gives
  // y^d ≡ y^dp (mod p), and both sides vanish when p | y.
  const BigUint mp = mont_p_.pow(y % p_, dp_);
  const BigUint mq = mont_q_.pow(y % q_, dq_);
  // Garner: x = mq + q·((mp − mq)·q⁻¹ mod p) is the unique x < n.
  const BigUint h =
      BigUint::mul_mod(BigUint::sub_mod(mp, mq % p_, p_), q_inv_, p_);
  return mq + h * q_;
}

TrapdoorPermutation::TrapdoorPermutation(TrapdoorPublicKey pk)
    : pk_(std::move(pk)),
      mont_(pk_.n),
      width_((pk_.n.bit_length() + 7) / 8) {
  if (pk_.e < BigUint(3)) throw CryptoError("trapdoor exponent too small");
}

BigUint TrapdoorPermutation::forward(const BigUint& x) const {
  return mont_.pow(x, pk_.e);
}

BigUint TrapdoorPermutation::inverse(const TrapdoorInverse& sk,
                                     const BigUint& y) const {
  if (sk.modulus() != pk_.n) throw CryptoError("trapdoor key mismatch");
  return sk(y);
}

BigUint TrapdoorPermutation::random_trapdoor(crypto::Drbg& rng) const {
  for (;;) {
    const BigUint t = bigint::random_below(rng, pk_.n);
    if (t >= BigUint(2)) return t;
  }
}

Bytes TrapdoorPermutation::encode(const BigUint& t) const {
  return t.to_bytes_be(width_);
}

BigUint TrapdoorPermutation::decode(BytesView data) const {
  if (data.size() != width_)
    throw DecodeError("trapdoor width mismatch");
  return BigUint::from_bytes_be(data);
}

}  // namespace slicer::adscrypto
