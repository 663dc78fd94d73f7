#include "bigint/biguint.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"

namespace slicer::bigint {
namespace {

TEST(BigUint, ZeroProperties) {
  const BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z.to_dec(), "0");
  EXPECT_TRUE(z.to_bytes_be().empty());
}

TEST(BigUint, HexRoundTrip) {
  const BigUint v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef55");
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789abcdef55");
}

TEST(BigUint, HexLeadingZerosStripped) {
  EXPECT_EQ(BigUint::from_hex("000123").to_hex(), "123");
}

TEST(BigUint, BytesRoundTrip) {
  const Bytes data = from_hex("0102030405060708090a0b0c0d0e0f1011");
  const BigUint v = BigUint::from_bytes_be(data);
  EXPECT_EQ(v.to_bytes_be(), data);
}

TEST(BigUint, FixedWidthPadding) {
  const BigUint v(0x1234);
  EXPECT_EQ(to_hex(v.to_bytes_be(4)), "00001234");
  EXPECT_THROW(v.to_bytes_be(1), CryptoError);
}

TEST(BigUint, Comparison) {
  EXPECT_LT(BigUint(5), BigUint(7));
  EXPECT_GT(BigUint::from_hex("10000000000000000"), BigUint(0xffffffffffffffffULL));
  EXPECT_EQ(BigUint(42), BigUint(42));
}

TEST(BigUint, AdditionWithCarryChain) {
  const BigUint a = BigUint::from_hex("ffffffffffffffffffffffffffffffff");
  const BigUint sum = a + BigUint(1);
  EXPECT_EQ(sum.to_hex(), "100000000000000000000000000000000");
}

TEST(BigUint, SubtractionWithBorrowChain) {
  const BigUint a = BigUint::from_hex("100000000000000000000000000000000");
  EXPECT_EQ((a - BigUint(1)).to_hex(), "ffffffffffffffffffffffffffffffff");
}

TEST(BigUint, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUint(1) - BigUint(2), CryptoError);
}

TEST(BigUint, MultiplicationKnownValue) {
  const BigUint a = BigUint::from_hex("fedcba9876543210");
  const BigUint b = BigUint::from_hex("123456789abcdef");
  EXPECT_EQ((a * b).to_hex(), "121fa00ad77d7422236d88fe5618cf0");
}

TEST(BigUint, MultiplicationByZero) {
  EXPECT_TRUE((BigUint::from_hex("deadbeef") * BigUint{}).is_zero());
}

TEST(BigUint, KaratsubaMatchesSchoolbookShape) {
  // Large operands exercise the Karatsuba path; verify with an algebraic
  // identity: (x + 1)^2 = x^2 + 2x + 1.
  BigUint x = BigUint::from_hex("abcdef");
  for (int i = 0; i < 9; ++i) x = x * x % BigUint::from_hex(std::string(520, 'f'));
  const BigUint lhs = (x + BigUint(1)) * (x + BigUint(1));
  const BigUint rhs = x * x + (x << 1) + BigUint(1);
  EXPECT_EQ(lhs, rhs);
  EXPECT_GT(x.limb_count(), 32u);  // confirm we actually hit Karatsuba
}

TEST(BigUint, DivModBasics) {
  const auto qr = BigUint::divmod(BigUint(100), BigUint(7));
  EXPECT_EQ(qr.quotient, BigUint(14));
  EXPECT_EQ(qr.remainder, BigUint(2));
}

TEST(BigUint, DivModByZeroThrows) {
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint{}), CryptoError);
}

TEST(BigUint, DivModMultiLimbIdentity) {
  const BigUint a = BigUint::from_hex(
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
      "deadbeefcafebabe0123456789abcdef");
  const BigUint b = BigUint::from_hex("ffeeddccbbaa99887766554433221100f");
  const auto qr = BigUint::divmod(a, b);
  EXPECT_LT(qr.remainder, b);
  EXPECT_EQ(qr.quotient * b + qr.remainder, a);
}

TEST(BigUint, DivModStressAlgebraicIdentity) {
  // Deterministic pseudo-random operands covering many limb-size mixes.
  BigUint a = BigUint::from_hex("9e3779b97f4a7c15f39cc0605cedc834");
  BigUint b = BigUint::from_hex("b7e151628aed2a6a");
  for (int i = 0; i < 60; ++i) {
    a = a * BigUint::from_hex("100000001b3") + BigUint(static_cast<std::uint64_t>(i));
    b = b * BigUint(0x9e3779b9u) + BigUint(17);
    const auto qr = BigUint::divmod(a, b);
    ASSERT_LT(qr.remainder, b);
    ASSERT_EQ(qr.quotient * b + qr.remainder, a) << "iteration " << i;
  }
}

TEST(BigUint, DivModKnuthAddBackCase) {
  // Crafted operands that historically trigger the rare "add back" branch of
  // Algorithm D: u = b^4 - 1, v = b^2 + b - 1 in base 2^64 shapes.
  const BigUint b64 = BigUint(1) << 64;
  const BigUint u = (BigUint(1) << 256) - BigUint(1);
  const BigUint v = (b64 * b64) + b64 - BigUint(1);
  const auto qr = BigUint::divmod(u, v);
  EXPECT_LT(qr.remainder, v);
  EXPECT_EQ(qr.quotient * v + qr.remainder, u);
}

TEST(BigUint, Shifts) {
  const BigUint v = BigUint::from_hex("1234567890abcdef");
  EXPECT_EQ((v << 4).to_hex(), "1234567890abcdef0");
  EXPECT_EQ((v >> 4).to_hex(), "1234567890abcde");
  EXPECT_EQ((v << 64) >> 64, v);
  EXPECT_EQ((v << 67) >> 67, v);
  EXPECT_TRUE((v >> 100).is_zero());
}

TEST(BigUint, BitAccess) {
  const BigUint v = BigUint::from_hex("5");  // 0b101
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(2));
  EXPECT_FALSE(v.bit(64));
}

TEST(BigUint, MulU64AndAddU64) {
  BigUint v(0xffffffffffffffffULL);
  v.mul_u64(0xffffffffffffffffULL);
  EXPECT_EQ(v.to_hex(), "fffffffffffffffe0000000000000001");
  v.add_u64(0xffffffffffffffffULL);
  EXPECT_EQ(v.to_hex(), "ffffffffffffffff0000000000000000");
}

TEST(BigUint, DivModU64) {
  BigUint v = BigUint::from_hex("123456789abcdef0123456789abcdef");
  const BigUint copy = v;
  const std::uint64_t r = v.divmod_u64(1000003);
  EXPECT_EQ(v * BigUint(1000003) + BigUint(r), copy);
}

TEST(BigUint, DecimalConversion) {
  EXPECT_EQ(BigUint(1234567890).to_dec(), "1234567890");
  EXPECT_EQ(BigUint::from_hex("ff").to_dec(), "255");
}

TEST(BigUint, PowModSmallKnown) {
  // 3^10 mod 1000 = 59049 mod 1000 = 49
  EXPECT_EQ(BigUint::pow_mod(BigUint(3), BigUint(10), BigUint(1000)),
            BigUint(49));
}

TEST(BigUint, PowModFermat) {
  // Fermat: a^(p-1) = 1 mod p for prime p.
  const BigUint p = BigUint::from_hex(
      "ffffffffffffffffffffffffffffffff" "fffffffffffffffffffffffefffffc2f");  // secp256k1 prime
  const BigUint a = BigUint::from_hex("123456789abcdef123456789abcdef");
  EXPECT_EQ(BigUint::pow_mod(a, p - BigUint(1), p), BigUint(1));
}

TEST(BigUint, PowModEvenModulus) {
  // 7^13 mod 2^20 — a pure power of two takes the truncation-only path.
  EXPECT_EQ(BigUint::pow_mod(BigUint(7), BigUint(13), BigUint(1) << 20),
            BigUint(96889010407ULL % (1 << 20)));
}

TEST(BigUint, PowModEvenModulusMatchesNaive) {
  // The CRT split (m = 2^s·q) must agree with naive square-and-multiply
  // for every parity/shape of modulus.
  const auto naive = [](const BigUint& a, std::uint64_t e, const BigUint& m) {
    BigUint r(1);
    for (std::uint64_t i = 0; i < e; ++i) r = (r * a) % m;
    return r;
  };
  for (std::uint64_t m : {2u, 4u, 6u, 10u, 12u, 100u, 1000u, 65536u,
                          123456u, 7864320u}) {
    const BigUint mod(m);
    for (std::uint64_t a : {0u, 1u, 2u, 7u, 123u, 99999u}) {
      for (std::uint64_t e : {0u, 1u, 2u, 3u, 17u, 64u}) {
        EXPECT_EQ(BigUint::pow_mod(BigUint(a), BigUint(e), mod),
                  naive(BigUint(a), e, mod))
            << a << "^" << e << " mod " << m;
      }
    }
  }
}

TEST(BigUint, PowModEvenModulusWide) {
  // Multi-limb even modulus with a large odd part.
  const BigUint m = (BigUint::from_hex("f000000000000000000000000000000d")
                     << 5);  // 2^5 · odd
  const BigUint a = BigUint::from_hex("123456789abcdef0fedcba9876543210");
  const BigUint e(1000);
  // Reference: repeated squaring with explicit reduction.
  BigUint want(1);
  BigUint base = a % m;
  for (int i = 0; i < 1000; ++i) want = (want * base) % m;
  EXPECT_EQ(BigUint::pow_mod(a, e, m), want);
}

TEST(BigUint, PowModZeroExponent) {
  EXPECT_EQ(BigUint::pow_mod(BigUint(5), BigUint{}, BigUint(7)), BigUint(1));
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::gcd(BigUint(48), BigUint(36)), BigUint(12));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(5)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(9)), BigUint(9));
}

TEST(BigUint, ModInverse) {
  const BigUint inv = BigUint::mod_inverse(BigUint(3), BigUint(7));
  EXPECT_EQ(inv, BigUint(5));  // 3*5 = 15 = 1 mod 7
}

TEST(BigUint, ModInverseLarge) {
  const BigUint m = BigUint::from_hex(
      "ffffffffffffffffffffffffffffffff" "fffffffffffffffffffffffefffffc2f");
  for (const char* hex : {"deadbeefcafebabe", "123456789abcdef"}) {
    const BigUint a = BigUint::from_hex(hex);
    const BigUint inv = BigUint::mod_inverse(a, m);
    EXPECT_LT(inv, m) << hex;
    EXPECT_EQ((a * inv) % m, BigUint(1)) << hex;
  }
}

TEST(BigUint, ModInverseNotInvertibleThrows) {
  EXPECT_THROW(BigUint::mod_inverse(BigUint(6), BigUint(9)), CryptoError);
}

TEST(BigUint, AddSubMulModHelpers) {
  const BigUint m(97);
  EXPECT_EQ(BigUint::add_mod(BigUint(90), BigUint(10), m), BigUint(3));
  EXPECT_EQ(BigUint::sub_mod(BigUint(5), BigUint(10), m), BigUint(92));
  EXPECT_EQ(BigUint::mul_mod(BigUint(50), BigUint(50), m), BigUint(2500 % 97));
}

}  // namespace
}  // namespace slicer::bigint
