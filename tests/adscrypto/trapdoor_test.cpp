#include "adscrypto/trapdoor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "adscrypto/params.hpp"
#include "bigint/primes.hpp"
#include "common/errors.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("td-test")); }

TEST(Trapdoor, ForwardInverseRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);
  for (int i = 0; i < 10; ++i) {
    const BigUint t = perm.random_trapdoor(rng);
    EXPECT_EQ(perm.forward(perm.inverse(TrapdoorInverse(sk), t)), t);
    EXPECT_EQ(perm.inverse(TrapdoorInverse(sk), perm.forward(t)), t);
  }
}

TEST(Trapdoor, ChainWalk) {
  // Owner walks backwards j steps with sk; cloud recovers every earlier
  // trapdoor with pk only — the forward-security mechanic of Insert/Search.
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);

  const BigUint t0 = perm.random_trapdoor(rng);
  std::vector<BigUint> chain = {t0};
  const TrapdoorInverse inverse(sk);
  for (int j = 1; j <= 5; ++j) chain.push_back(perm.inverse(inverse, chain.back()));

  BigUint walker = chain.back();  // newest trapdoor t_5
  for (int j = 5; j > 0; --j) {
    walker = perm.forward(walker);
    EXPECT_EQ(walker, chain[static_cast<std::size_t>(j - 1)]) << j;
  }
}

TEST(Trapdoor, PermutationIsInjectiveOnSamples) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPermutation perm(pk);
  const BigUint a = perm.random_trapdoor(rng);
  BigUint b;
  do {
    b = perm.random_trapdoor(rng);
  } while (b == a);
  EXPECT_NE(perm.forward(a), perm.forward(b));
}

TEST(Trapdoor, EncodeDecodeRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);
  const BigUint t = perm.random_trapdoor(rng);
  const Bytes wire = perm.encode(t);
  EXPECT_EQ(wire.size(), perm.trapdoor_width());
  EXPECT_EQ(perm.decode(wire), t);
}

TEST(Trapdoor, DecodeRejectsWrongWidth) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 256);
  const TrapdoorPermutation perm(pk);
  EXPECT_THROW(perm.decode(Bytes(perm.trapdoor_width() + 1, 0)), DecodeError);
}

TEST(Trapdoor, KeyMismatchThrows) {
  auto rng = test_rng();
  auto [pk1, sk1] = TrapdoorPermutation::keygen(rng, 128);
  auto [pk2, sk2] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPermutation perm(pk1);
  EXPECT_THROW(perm.inverse(TrapdoorInverse(sk2), BigUint(5)), CryptoError);
}

TEST(Trapdoor, PublicKeySerializeRoundTrip) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  const TrapdoorPublicKey back = TrapdoorPublicKey::deserialize(pk.serialize());
  EXPECT_EQ(back.n, pk.n);
  EXPECT_EQ(back.e, pk.e);
}

TEST(Trapdoor, DefaultKeysRoundTrip) {
  const TrapdoorPermutation perm(default_trapdoor_public_key());
  EXPECT_EQ(perm.public_key().n.bit_length(), 1024u);
  auto rng = test_rng();
  const BigUint t = perm.random_trapdoor(rng);
  EXPECT_EQ(
      perm.forward(perm.inverse(TrapdoorInverse(default_trapdoor_secret_key()), t)),
      t);
}

TEST(Trapdoor, DefaultKeyFactorsMultiplyToModulus) {
  const TrapdoorSecretKey& sk = default_trapdoor_secret_key();
  EXPECT_EQ(sk.p * sk.q, sk.n);
  EXPECT_EQ(sk.p.bit_length(), 512u);
  EXPECT_EQ(sk.q.bit_length(), 512u);
  EXPECT_EQ(sk.n, default_trapdoor_public_key().n);
}

TEST(Trapdoor, CrtInverseMatchesPlainExponentiation) {
  // The CRT path must be bit-identical to y^d mod n on every input of Z_n,
  // including the non-units (multiples of p or q) and the edges.
  auto rng = test_rng();
  auto [pk, small_sk] = TrapdoorPermutation::keygen(rng, 256);
  (void)pk;
  for (const TrapdoorSecretKey& sk :
       {small_sk, default_trapdoor_secret_key()}) {
    const TrapdoorInverse inverse(sk);
    const bigint::Montgomery mont(sk.n);
    std::vector<BigUint> ys{BigUint(0),      BigUint(1), sk.n - BigUint(1),
                            sk.p,            sk.q,       sk.p * BigUint(3),
                            sk.q * BigUint(7)};
    for (int i = 0; i < 32; ++i) ys.push_back(bigint::random_below(rng, sk.n));
    for (const BigUint& y : ys)
      EXPECT_EQ(inverse(y), mont.pow(y, sk.d)) << y.to_hex();
  }
}

TEST(Trapdoor, CrtContextRejectsWrongFactors) {
  auto rng = test_rng();
  auto [pk, sk] = TrapdoorPermutation::keygen(rng, 128);
  (void)pk;
  TrapdoorSecretKey bad = sk;
  bad.q = bad.q + BigUint(2);
  EXPECT_THROW(TrapdoorInverse{bad}, CryptoError);
  TrapdoorSecretKey missing{sk.n, sk.d, BigUint(0), BigUint(0)};
  EXPECT_THROW(TrapdoorInverse{missing}, CryptoError);
}

TEST(Trapdoor, KeygenRejectsTinyModulus) {
  auto rng = test_rng();
  EXPECT_THROW(TrapdoorPermutation::keygen(rng, 8), CryptoError);
}

}  // namespace
}  // namespace slicer::adscrypto
