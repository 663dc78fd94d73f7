#include "core/messages.hpp"

#include "adscrypto/hash_to_prime.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"
#include "crypto/prf.hpp"

namespace slicer::core {

Bytes SearchToken::serialize() const {
  Writer w;
  w.bytes(trapdoor);
  w.u32(j);
  w.bytes(g1);
  w.bytes(g2);
  return std::move(w).take();
}

SearchToken SearchToken::deserialize(BytesView data) {
  Reader r(data);
  SearchToken out;
  out.trapdoor = r.bytes();
  out.j = r.u32();
  out.g1 = r.bytes();
  out.g2 = r.bytes();
  r.expect_end();
  return out;
}

Bytes TokenReply::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(encrypted_results.size()));
  for (const Bytes& er : encrypted_results) w.bytes(er);
  w.bytes(witness.to_bytes_be());
  return std::move(w).take();
}

TokenReply TokenReply::deserialize(BytesView data) {
  Reader r(data);
  TokenReply out;
  // Never trust a length prefix for allocation: each element needs at least
  // its own 4-byte length, so n is bounded by the remaining payload.
  const std::uint32_t n = r.count(4);
  out.encrypted_results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.encrypted_results.push_back(r.bytes());
  const Bytes witness_raw = r.bytes();
  // Reject non-minimal encodings so a decoded reply re-serializes
  // byte-identically (canonical form — the codec fuzz test's invariant).
  if (!witness_raw.empty() && witness_raw.front() == 0)
    throw DecodeError("non-minimal witness encoding");
  out.witness = bigint::BigUint::from_bytes_be(witness_raw);
  r.expect_end();
  return out;
}

std::size_t TokenReply::results_byte_size() const {
  std::size_t total = 0;
  for (const Bytes& er : encrypted_results) total += er.size();
  return total;
}

adscrypto::MultisetHash::Digest results_digest(std::span<const Bytes> results) {
  return adscrypto::MultisetHash::hash_multiset(results);
}

bigint::BigUint token_prime(const SearchToken& token,
                            const adscrypto::MultisetHash::Digest& digest,
                            std::size_t prime_bits) {
  // Served from the process-wide prime memo when any party already derived
  // this (preimage, bits) pair; the sieved search runs otherwise.
  return adscrypto::hash_to_prime(
      prime_preimage(token.trapdoor, token.j, token.g1, token.g2, digest),
      prime_bits);
}

namespace {
Bytes trapdoor_counter(BytesView trapdoor_enc, std::uint64_t c) {
  Bytes msg(trapdoor_enc.begin(), trapdoor_enc.end());
  append(msg, be64(c));
  return msg;
}
}  // namespace

Bytes index_address(BytesView g1, BytesView trapdoor_enc, std::uint64_t c) {
  return crypto::prf_f(g1, trapdoor_counter(trapdoor_enc, c));
}

Bytes index_pad(BytesView g2, BytesView trapdoor_enc, std::uint64_t c) {
  return crypto::prf_f(g2, trapdoor_counter(trapdoor_enc, c));
}

Bytes state_key(BytesView trapdoor_enc, std::uint32_t j, BytesView g1,
                BytesView g2) {
  Writer w;
  w.bytes(trapdoor_enc);
  w.u32(j);
  w.bytes(g1);
  w.bytes(g2);
  return std::move(w).take();
}

Bytes prime_preimage(BytesView trapdoor_enc, std::uint32_t j, BytesView g1,
                     BytesView g2, const adscrypto::MultisetHash::Digest& h) {
  Writer w;
  w.str("slicer.prime.v1");
  w.bytes(trapdoor_enc);
  w.u32(j);
  w.bytes(g1);
  w.bytes(g2);
  w.raw(adscrypto::MultisetHash::serialize(h));
  return std::move(w).take();
}

}  // namespace slicer::core
