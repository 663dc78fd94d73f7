#include "adscrypto/accumulator.hpp"

#include <gtest/gtest.h>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/params.hpp"
#include "bigint/primes.hpp"
#include "common/errors.hpp"
#include "common/thread_pool.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

crypto::Drbg test_rng() { return crypto::Drbg(str_bytes("acc-test")); }

std::vector<BigUint> sample_primes(std::size_t n) {
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(hash_to_prime(be64(i)));
  return out;
}

class AccumulatorTest : public ::testing::Test {
 protected:
  AccumulatorTest() : rng_(test_rng()) {
    auto [params, trapdoor] = RsaAccumulator::setup(rng_, 256);
    params_ = params;
    trapdoor_ = trapdoor;
  }

  crypto::Drbg rng_;
  AccumulatorParams params_;
  AccumulatorTrapdoor trapdoor_;
};

TEST_F(AccumulatorTest, EmptySetAccumulatesToGenerator) {
  const RsaAccumulator acc(params_);
  EXPECT_EQ(acc.accumulate({}), params_.generator);
}

TEST_F(AccumulatorTest, TrapdoorPathMatchesPublicPath) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(17);
  EXPECT_EQ(acc.accumulate(primes), acc.accumulate(primes, trapdoor_));
}

TEST_F(AccumulatorTest, WitnessVerifies) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(9);
  const BigUint ac = acc.accumulate(primes);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    const BigUint w = acc.witness(primes, i);
    EXPECT_TRUE(RsaAccumulator::verify(params_, ac, primes[i], w)) << i;
  }
}

TEST_F(AccumulatorTest, NonMemberFailsVerification) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(9);
  const BigUint ac = acc.accumulate(primes);
  const BigUint w = acc.witness(primes, 0);
  const BigUint outsider = hash_to_prime(str_bytes("not-a-member"));
  EXPECT_FALSE(RsaAccumulator::verify(params_, ac, outsider, w));
}

TEST_F(AccumulatorTest, WrongWitnessFailsVerification) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(9);
  const BigUint ac = acc.accumulate(primes);
  const BigUint w_wrong = acc.witness(primes, 1);  // witness for a different member
  EXPECT_FALSE(RsaAccumulator::verify(params_, ac, primes[0], w_wrong));
}

TEST_F(AccumulatorTest, StaleAccumulatorFailsVerification) {
  // Freshness: a witness against an outdated Ac must not verify against the
  // updated Ac stored on chain.
  const RsaAccumulator acc(params_);
  auto primes = sample_primes(5);
  const BigUint w_old = acc.witness(primes, 0);
  const BigUint ac_old = acc.accumulate(primes);
  primes.push_back(hash_to_prime(str_bytes("new-insertion")));
  const BigUint ac_new = acc.accumulate(primes);
  ASSERT_NE(ac_old, ac_new);
  EXPECT_FALSE(RsaAccumulator::verify(params_, ac_new, primes[0], w_old));
  // The refreshed witness verifies again.
  EXPECT_TRUE(RsaAccumulator::verify(params_, ac_new, primes[0],
                                     acc.witness(primes, 0)));
}

TEST_F(AccumulatorTest, AllWitnessesMatchIndividual) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(13);  // odd size exercises uneven splits
  const auto all = acc.all_witnesses(primes);
  ASSERT_EQ(all.size(), primes.size());
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(all[i], acc.witness(primes, i)) << i;
  }
}

TEST_F(AccumulatorTest, AllWitnessesSingleElement) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(1);
  const auto all = acc.all_witnesses(primes);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], params_.generator);
  EXPECT_TRUE(RsaAccumulator::verify(params_, acc.accumulate(primes),
                                     primes[0], all[0]));
}

TEST_F(AccumulatorTest, WitnessIndexOutOfRangeThrows) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(3);
  EXPECT_THROW(acc.witness(primes, 3), CryptoError);
}

TEST_F(AccumulatorTest, OrderIndependentAccumulation) {
  const RsaAccumulator acc(params_);
  auto primes = sample_primes(8);
  const BigUint ac1 = acc.accumulate(primes);
  std::reverse(primes.begin(), primes.end());
  EXPECT_EQ(acc.accumulate(primes), ac1);
}

TEST_F(AccumulatorTest, ParamsSerializeRoundTrip) {
  const Bytes wire = params_.serialize();
  const AccumulatorParams back = AccumulatorParams::deserialize(wire);
  EXPECT_EQ(back.modulus, params_.modulus);
  EXPECT_EQ(back.generator, params_.generator);
}

TEST_F(AccumulatorTest, VerifyRejectsOutOfRangeWitness) {
  const auto primes = sample_primes(2);
  const RsaAccumulator acc(params_);
  const BigUint ac = acc.accumulate(primes);
  EXPECT_FALSE(RsaAccumulator::verify(params_, ac, primes[0], BigUint{}));
  EXPECT_FALSE(RsaAccumulator::verify(params_, ac, primes[0], params_.modulus));
}

TEST(Accumulator, DefaultParams1024WorkEndToEnd) {
  const AccumulatorParams& params = default_accumulator_params();
  // Two 512-bit primes multiply to a 1023- or 1024-bit modulus.
  EXPECT_GE(params.modulus.bit_length(), 1023u);
  EXPECT_LE(params.modulus.bit_length(), 1024u);
  const RsaAccumulator acc(params);
  std::vector<BigUint> primes;
  for (std::size_t i = 0; i < 4; ++i)
    primes.push_back(hash_to_prime(be64(1000 + i)));
  const BigUint ac = acc.accumulate(primes);
  const BigUint w = acc.witness(primes, 2);
  EXPECT_TRUE(RsaAccumulator::verify(params, ac, primes[2], w));
  EXPECT_FALSE(RsaAccumulator::verify(params, ac, primes[1], w));
}

TEST(Accumulator, SetupRejectsTinyModulus) {
  auto rng = test_rng();
  EXPECT_THROW(RsaAccumulator::setup(rng, 16), CryptoError);
}

TEST(Accumulator, SafePrimeSetupProducesWorkingParams) {
  auto rng = test_rng();
  auto [params, trapdoor] = RsaAccumulator::setup(rng, 128, /*safe=*/true);
  const RsaAccumulator acc(params);
  std::vector<BigUint> primes = {hash_to_prime(str_bytes("sp"))};
  const BigUint ac = acc.accumulate(primes);
  EXPECT_TRUE(
      RsaAccumulator::verify(params, ac, primes[0], acc.witness(primes, 0)));
  // p and q are genuinely safe primes.
  const BigUint p_half = (trapdoor.p - BigUint(1)) >> 1;
  const BigUint q_half = (trapdoor.q - BigUint(1)) >> 1;
  EXPECT_TRUE(bigint::is_probable_prime(trapdoor.p, rng));
  EXPECT_TRUE(bigint::is_probable_prime(p_half, rng));
  EXPECT_TRUE(bigint::is_probable_prime(trapdoor.q, rng));
  EXPECT_TRUE(bigint::is_probable_prime(q_half, rng));
}

TEST_F(AccumulatorTest, AllWitnessesMatchPerIndexWitnessRandomSets) {
  // Property: the root-factor batch output equals the naive per-index
  // witness for every element, over random prime sets of varying size.
  const RsaAccumulator acc(params_);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 20u, 33u}) {
    std::vector<BigUint> primes;
    primes.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      primes.push_back(hash_to_prime(rng_.generate(16)));
    const BigUint ac = acc.accumulate(primes);
    const auto all = acc.all_witnesses(primes);
    ASSERT_EQ(all.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(all[i], acc.witness(primes, i)) << "n=" << n << " i=" << i;
      EXPECT_TRUE(RsaAccumulator::verify(params_, ac, primes[i], all[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(AccumulatorTest, ParallelAllWitnessesBitIdenticalToSerial) {
  const RsaAccumulator acc(params_);
  const auto primes = sample_primes(33);
  std::vector<BigUint> serial;
  {
    ThreadPool::ScopedSerial force_serial;
    serial = acc.all_witnesses(primes);
  }
  ThreadPool::ScopedPool four(4);
  const auto parallel = acc.all_witnesses(primes);
  EXPECT_EQ(parallel, serial);
}

TEST(Accumulator, ProductTreeParallelMatchesSerial) {
  std::vector<BigUint> vals;
  for (std::size_t i = 0; i < 301; ++i)
    vals.push_back(hash_to_prime(be64(7000 + i)));
  BigUint serial;
  {
    ThreadPool::ScopedSerial force_serial;
    serial = product_tree(vals);
  }
  ThreadPool::ScopedPool four(4);
  EXPECT_EQ(product_tree(vals), serial);
}

TEST(Accumulator, ProductTree) {
  std::vector<BigUint> vals = {BigUint(2), BigUint(3), BigUint(5), BigUint(7),
                               BigUint(11)};
  EXPECT_EQ(product_tree(vals), BigUint(2310));
  EXPECT_EQ(product_tree({}), BigUint(1));
  EXPECT_EQ(product_tree(std::span<const BigUint>(vals.data(), 1)), BigUint(2));
}

TEST_F(AccumulatorTest, FixedBasePathBitIdenticalToGeneric) {
  // The comb-table accumulator must produce byte-for-byte the same
  // accumulation value, per-index witnesses, batch witnesses and
  // generator powers as the generic sliding-window path — the
  // on-chain values may not depend on which engine computed them.
  const RsaAccumulator fast(params_, /*use_fixed_base=*/true);
  const RsaAccumulator generic(params_, /*use_fixed_base=*/false);
  const auto primes = sample_primes(13);

  EXPECT_EQ(fast.accumulate(primes), generic.accumulate(primes));
  EXPECT_EQ(fast.accumulate(primes, trapdoor_),
            generic.accumulate(primes, trapdoor_));
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_EQ(fast.witness(primes, i), generic.witness(primes, i)) << i;
  }
  EXPECT_EQ(fast.all_witnesses(primes), generic.all_witnesses(primes));

  // An exponent that is not a product of the set's primes.
  const BigUint exponent = product_tree(primes) - BigUint(1);
  EXPECT_EQ(fast.pow_generator(exponent), generic.pow_generator(exponent));
}

}  // namespace
}  // namespace slicer::adscrypto
