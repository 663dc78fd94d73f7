// FIPS 180-4 / NIST CAVP known-answer tests for SHA-256.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

namespace slicer::crypto {
namespace {

std::string hash_hex(const std::string& msg) {
  return to_hex(Sha256::digest(str_bytes(msg)));
}

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  const auto d = ctx.finish();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in awkward places.";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(str_bytes(msg.substr(0, split)));
    ctx.update(str_bytes(msg.substr(split)));
    const auto d = ctx.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(str_bytes(msg)))
        << "split=" << split;
  }
}

TEST(Sha256, ExactBlockSizedMessages) {
  // 55/56/63/64/65 bytes hit every padding branch.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(n, 0x5a);
    Sha256 a;
    a.update(msg);
    const auto one = a.finish();

    Sha256 b;
    for (std::size_t i = 0; i < n; ++i) b.update(BytesView(&msg[i], 1));
    const auto two = b.finish();
    EXPECT_EQ(one, two) << "n=" << n;
  }
}

TEST(Sha256, EmptyUpdateAfterPartialBlock) {
  // An empty view (null data()) arriving while the block buffer is partly
  // full must leave the digest unchanged.
  const Bytes msg = str_bytes("abc");
  Sha256 ctx;
  ctx.update(msg);
  ctx.update(BytesView{});
  ctx.update(Bytes{});
  const auto d = ctx.finish();
  EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(msg));
}

// CAVP vector: 56-byte boundary message.
TEST(Sha256, LeadingZeroDigestHandling) {
  // Digest of "hello world" — sanity against a widely known value.
  EXPECT_EQ(hash_hex("hello world"),
            "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9");
}

TEST(Sha256, MidstateCloneMatchesFreshContext) {
  // Copying a context captures its midstate: absorbing a common prefix
  // once and cloning per suffix must give the same digests as hashing
  // each full message from scratch. H_prime's counter loop depends on
  // this, including across the 64-byte block boundary.
  for (std::size_t prefix_len : {0u, 5u, 55u, 63u, 64u, 65u, 200u}) {
    const Bytes prefix(prefix_len, 0xab);
    Sha256 midstate;
    midstate.update(prefix);
    for (std::uint64_t counter : {0ull, 1ull, 0xdeadbeefull}) {
      Sha256 clone = midstate;  // midstate reused across counters
      clone.update(be64(counter));
      const auto fast = clone.finish();

      Sha256 fresh;
      fresh.update(prefix);
      fresh.update(be64(counter));
      EXPECT_EQ(fast, fresh.finish())
          << "prefix=" << prefix_len << " counter=" << counter;
    }
  }
}

}  // namespace
}  // namespace slicer::crypto
