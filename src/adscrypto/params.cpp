#include "adscrypto/params.hpp"

namespace slicer::adscrypto {

using bigint::BigUint;

// Provenance: tools/gen_params.cpp, DRBG seed "slicer-embedded-params-v1",
// RsaAccumulator::setup(rng, 1024, /*safe_primes=*/true) followed by
// TrapdoorPermutation::keygen(rng, 1024). The accumulator factorization was
// discarded after generation; the trapdoor secret key is embedded because
// benchmarks and examples model the data owner, who legitimately holds it.
// Its factors p < q (for the CRT inverse) were recovered from (n, e, d) by
// the standard randomized factoring of e·d − 1; tests pin p·q == n.

const AccumulatorParams& default_accumulator_params() {
  static const AccumulatorParams params{
      BigUint::from_hex(
          "640e3867947f1d14706cd08afb856de28912cb5d407ef32ae8b17e84f15fcdd1"
          "7f566e6ce85095bc28d7de76d473dec0c9efe012e0227b0d4f2c4ce930d5969b"
          "627c1b32641380c80073e5c72b0b561eab022124a5ae187a124af424e6d9a19a"
          "3c30fc97b9e1be16737a91e065e362c78480d7b56ebf591ee2bebc5fbe6f8aa1"),
      BigUint::from_hex(
          "23c117e5935656bb03a79279460105d466682034dfffd17629b19ec361c2781d"
          "25ed7a8145054d2b309df1a9cdb650a28b4433832ed72cca1d46b288b78fec8e"
          "638d33b58fb6e04aaf40c8b83f99701c8e0900b4c308ec61b6b48240915c15d4"
          "6ee163b489672db0732082e54e68a65ccb1d76bdf3ccf198394bd707331faaa4")};
  return params;
}

namespace {
const BigUint& trapdoor_modulus() {
  static const BigUint n = BigUint::from_hex(
      "afa62260c888bd6021a4b43d65a56e9d0bb18012a4c0d9bd7c7aedf7972bb08e"
      "5d991d31d058889086568a8d9202746c7a20aad7143fa838e92ec42002148627"
      "f7ed0659a9d1134050c66915330ad91898bdd7c9cb6f453ef4ce24228269c7f6"
      "4ad3b6acfcd1e82e310e5bf230abe308eff0ffa0fd436ec78eb4c3398ce25241");
  return n;
}
}  // namespace

const TrapdoorPublicKey& default_trapdoor_public_key() {
  static const TrapdoorPublicKey pk{trapdoor_modulus(), BigUint(65537)};
  return pk;
}

const TrapdoorSecretKey& default_trapdoor_secret_key() {
  static const TrapdoorSecretKey sk{
      trapdoor_modulus(),
      BigUint::from_hex(
          "9413596e00008eadc90f01c7b4b6373efbc9a2af94e6e36903d4da625cb5bf3c"
          "f5990bec9fb8d3400b904f73b3c0900797198d0c8e8c6fb3b298f34c0c94e2d6"
          "ce2761d8f0a5520351877e131f39eda74e656c29d86ea2072f2e0557b66ffd38"
          "2db4862713a8a02b85db003b444510aff0ac91413b508abdb43510d7e3e69015"),
      BigUint::from_hex(
          "c294767b4e3be998a863f162b2dd6b56ad41f0e26954e154f306b4630b71ef8e"
          "0aaa15cacadbf8ead941197726c8f1e2333b6169bb7cad8f2a44341e4f2f3a63"),
      BigUint::from_hex(
          "e717e7b9638beb9a957d6523113409696fe024592d1ee32977a33577d70d1b11"
          "d10003d9633b1507d44da7cc06c43d7c14c6fe86867f753239ad74000fcaf00b")};
  return sk;
}

}  // namespace slicer::adscrypto
