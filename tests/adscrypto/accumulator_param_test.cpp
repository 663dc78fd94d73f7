// Parameterized accumulator sweeps: correctness across set sizes and
// modulus widths (property-style).
#include <gtest/gtest.h>

#include "adscrypto/accumulator.hpp"
#include "adscrypto/hash_to_prime.hpp"

namespace slicer::adscrypto {
namespace {

using bigint::BigUint;

std::vector<BigUint> primes_n(std::size_t n, const char* tag) {
  std::vector<BigUint> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Bytes b = str_bytes(tag);
    append(b, be64(i));
    out.push_back(hash_to_prime(b));
  }
  return out;
}

class AccumulatorSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AccumulatorSizes, EveryMemberVerifiesNoOutsiderDoes) {
  const std::size_t n = GetParam();
  crypto::Drbg rng(str_bytes("acc-sizes"));
  auto [params, trapdoor] = RsaAccumulator::setup(rng, 256);
  const RsaAccumulator acc(params);
  const auto primes = primes_n(n, "member");
  const BigUint ac = acc.accumulate(primes, trapdoor);
  ASSERT_EQ(ac, acc.accumulate(primes));

  const auto all = acc.all_witnesses(primes);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(RsaAccumulator::verify(params, ac, primes[i], all[i])) << i;
    // A member's witness never vouches for a different member.
    if (i > 0)
      ASSERT_FALSE(RsaAccumulator::verify(params, ac, primes[i - 1], all[i]));
  }
  const BigUint outsider = hash_to_prime(str_bytes("outsider"));
  EXPECT_FALSE(RsaAccumulator::verify(params, ac, outsider, all[0]));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AccumulatorSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64));

class AccumulatorModuli : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AccumulatorModuli, WorksAcrossModulusWidths) {
  const std::size_t bits = GetParam();
  crypto::Drbg rng(str_bytes("acc-moduli"));
  auto [params, trapdoor] = RsaAccumulator::setup(rng, bits);
  const RsaAccumulator acc(params);
  const auto primes = primes_n(6, "width");
  const BigUint ac = acc.accumulate(primes, trapdoor);
  for (std::size_t i = 0; i < primes.size(); ++i) {
    EXPECT_TRUE(
        RsaAccumulator::verify(params, ac, primes[i], acc.witness(primes, i)));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AccumulatorModuli,
                         ::testing::Values(128, 256, 512));

TEST(HashToPrimeCounted, CandidateAtCounterMatches) {
  const Bytes input = str_bytes("counted-consistency");
  const auto [prime, counter] = hash_to_prime_counted(input);
  EXPECT_EQ(hash_to_prime_candidate(input, counter), prime);
  EXPECT_EQ(hash_to_prime(input), prime);
  // Counters below the found one yield composites (that is why they were
  // skipped).
  for (std::uint64_t c = 0; c < counter; ++c) {
    EXPECT_NE(hash_to_prime_candidate(input, c), prime);
  }
}

}  // namespace
}  // namespace slicer::adscrypto
