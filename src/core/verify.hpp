// Result verification — Algorithm 5 (Blockchain.Verify).
//
// Pure functions, deliberately free of any cloud/owner state: the verifier
// sees only the search tokens, the returned encrypted results, the VOs and
// the on-chain accumulator value. The same code runs standalone (local
// verification) and inside the simulated smart contract (public
// verification), which is the paper's fairness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "core/messages.hpp"
#include "core/query.hpp"

namespace slicer::core {

/// Verifies one (token, reply) pair against the accumulator value `ac`:
/// recomputes the multiset hash of the results, re-derives the prime
/// representative and checks the membership witness.
bool verify_reply(const adscrypto::AccumulatorParams& params,
                  const bigint::BigUint& ac, const SearchToken& token,
                  const TokenReply& reply, std::size_t prime_bits = 64);

/// Shard-aware variant: the derived prime is routed with shard_of() and its
/// witness checked against that shard's accumulation value. A one-element
/// span is exactly the unsharded check above.
bool verify_reply(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  const SearchToken& token, const TokenReply& reply,
                  std::size_t prime_bits = 64);

/// Verifies a whole query (one reply per token). False on size mismatch or
/// any failing pair — the contract refunds in that case.
bool verify_query(const adscrypto::AccumulatorParams& params,
                  const bigint::BigUint& ac,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits = 64);

/// Shard-aware whole-query check.
bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits = 64);

/// Per-token outcome of a detailed verification pass.
struct TokenVerification {
  bool ok = false;
  std::uint64_t duration_ns = 0;  ///< wall time of this token's check
};

/// Whole-query verification with per-token attribution. Unlike
/// verify_query (which may stop at the first failing pair), every pair is
/// checked so callers see exactly which tokens failed and what each check
/// cost — the detail QueryClient surfaces in QueryResult.
struct QueryVerification {
  bool verified = false;           ///< sizes matched and every token passed
  std::size_t tokens_verified = 0; ///< number of tokens whose proof held
  std::vector<TokenVerification> tokens;  ///< one entry per token
};

QueryVerification verify_query_detailed(
    const adscrypto::AccumulatorParams& params, const bigint::BigUint& ac,
    std::span<const SearchToken> tokens, std::span<const TokenReply> replies,
    std::size_t prime_bits = 64);

/// Shard-aware detailed check (what QueryClient runs: every reply verifies
/// against its prime's shard value).
QueryVerification verify_query_detailed(
    const adscrypto::AccumulatorParams& params,
    std::span<const bigint::BigUint> shard_values,
    std::span<const SearchToken> tokens, std::span<const TokenReply> replies,
    std::size_t prime_bits = 64);

/// Outcome of verifying one clause of a batched plan search.
using ClauseVerification = QueryVerification;

/// Verifies one ClauseReply against the ClauseRequest it answers: one
/// TokenReply per request token (a dropped or surplus reply fails without
/// touching the crypto), each checked by verify_query_detailed. Each clause
/// binds to its own tokens — every derived prime commits to (token,
/// results), so a reply swapped in from another clause fails here even if
/// it verifies in isolation.
ClauseVerification verify_clause_reply(
    const adscrypto::AccumulatorParams& params,
    std::span<const bigint::BigUint> shard_values, const ClauseRequest& request,
    const ClauseReply& reply, std::size_t prime_bits = 64);

/// Outcome of verifying a whole clause plan's reply batch.
struct PlanVerification {
  bool verified = false;             ///< counts matched, every clause held
  std::size_t clauses_verified = 0;  ///< clauses whose proof held
  std::vector<ClauseVerification> clauses;  ///< one entry per request
};

/// Verifies a batched plan search: the reply batch must answer every
/// request (a dropped or surplus clause fails), and each clause verifies
/// independently via verify_clause_reply — so the verified set combiner
/// above this only ever operates on clause-verified result sets.
PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits = 64);

}  // namespace slicer::core
