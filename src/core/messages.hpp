// Wire messages and shared byte-level derivations of the Slicer protocols.
//
// Owner, cloud and the verifying smart contract must agree byte-for-byte on
// the index addresses l, the pads, and the prime-representative preimage —
// all of those derivations live here and nowhere else.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adscrypto/multiset_hash.hpp"
#include "bigint/biguint.hpp"
#include "common/bytes.hpp"

namespace slicer::core {

/// One search token (t_j, j, G1, G2) — Algorithm 3's per-keyword output.
struct SearchToken {
  Bytes trapdoor;   // fixed-width encoding of t_j
  std::uint32_t j = 0;  // number of trapdoor-permutation generations
  Bytes g1;         // per-keyword subkey G(K, w‖1)
  Bytes g2;         // per-keyword subkey G(K, w‖2)

  Bytes serialize() const;
  static SearchToken deserialize(BytesView data);
  bool operator==(const SearchToken&) const = default;
};

/// The cloud's answer for one token: matched encrypted results (in traversal
/// order) plus the RSA-accumulator membership witness (the VO).
struct TokenReply {
  std::vector<Bytes> encrypted_results;  // er: 16-byte record ciphertexts
  bigint::BigUint witness;               // vo

  Bytes serialize() const;
  static TokenReply deserialize(BytesView data);

  /// Total wire size of the encrypted results (Fig. 6b/6c metric).
  std::size_t results_byte_size() const;

  bool operator==(const TokenReply&) const = default;
};

/// Canonical MSet-Mu-Hash digest of a token's encrypted result multiset —
/// the one fold the proving cloud and every verifier must agree on. Order-
/// insensitive by construction: any permutation of `results` digests (and
/// therefore proves) identically.
adscrypto::MultisetHash::Digest results_digest(std::span<const Bytes> results);

/// Prime representative of (token, result-set digest): hash_to_prime over
/// prime_preimage. Exactly what Build derives at ingest and what the cloud
/// and verifier must re-derive at Search/Verify.
bigint::BigUint token_prime(const SearchToken& token,
                            const adscrypto::MultisetHash::Digest& digest,
                            std::size_t prime_bits);

/// l = F(G1, t ‖ c): address of the c-th entry of a trapdoor generation.
Bytes index_address(BytesView g1, BytesView trapdoor_enc, std::uint64_t c);

/// F(G2, t ‖ c): the pad XORed over Enc(K_R, R).
Bytes index_pad(BytesView g2, BytesView trapdoor_enc, std::uint64_t c);

/// Preimage fed to H_prime: t_j ‖ j ‖ G1 ‖ G2 ‖ h. Identical bytes are
/// produced by Build/Insert (owner side) and by Search/Verify (cloud and
/// contract side) — that equality is the whole verification argument.
Bytes prime_preimage(BytesView trapdoor_enc, std::uint32_t j, BytesView g1,
                     BytesView g2, const adscrypto::MultisetHash::Digest& h);

/// Dictionary key for the owner's set-hash state S: t ‖ j ‖ G1 ‖ G2.
Bytes state_key(BytesView trapdoor_enc, std::uint32_t j, BytesView g1,
                BytesView g2);

}  // namespace slicer::core
