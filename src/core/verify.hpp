// Result verification — Algorithm 5 (Blockchain.Verify).
//
// Pure functions, deliberately free of any cloud/owner state: the verifier
// sees only the search tokens, the returned encrypted results, the VOs and
// the on-chain per-shard accumulation values. The same check runs
// standalone (local verification) and inside the simulated smart contract
// (public verification), which is the paper's fairness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "adscrypto/accumulator.hpp"
#include "core/messages.hpp"
#include "core/query.hpp"

namespace slicer::core {

/// Per-token outcome of a verification pass.
struct TokenVerification {
  bool ok = false;
  std::uint64_t duration_ns = 0;  ///< wall time of this token's check
};

/// Whole-query verification with per-token attribution: every pair is
/// checked, so callers see exactly which tokens failed and what each check
/// cost — the detail QueryClient surfaces in QueryResult.
struct QueryVerification {
  bool verified = false;           ///< sizes matched and every token passed
  std::size_t tokens_verified = 0; ///< number of tokens whose proof held
  std::vector<TokenVerification> tokens;  ///< one entry per token
};

/// Verifies a whole query (one reply per token): for each (token, reply)
/// pair, recomputes the multiset hash of the results, re-derives the prime
/// representative, routes it with shard_of() and checks the membership
/// witness against that shard's accumulation value. A one-element
/// `shard_values` is the unsharded check. Not verified on size mismatch or
/// any failing pair — the contract refunds in that case.
QueryVerification verify_query(const adscrypto::AccumulatorParams& params,
                               std::span<const bigint::BigUint> shard_values,
                               std::span<const SearchToken> tokens,
                               std::span<const TokenReply> replies,
                               std::size_t prime_bits = 64);

/// Outcome of verifying a whole clause plan's reply batch.
struct PlanVerification {
  bool verified = false;             ///< counts matched, every clause held
  std::size_t clauses_verified = 0;  ///< clauses whose proof held
  std::vector<QueryVerification> clauses;  ///< one entry per request
};

/// Verifies a batched plan search: the reply batch must answer every
/// request (a dropped or surplus clause fails), and each clause is checked
/// by verify_query against its own request tokens (a dropped or surplus
/// token reply fails). Every derived prime commits to (token, results), so
/// a reply swapped in from another clause fails even if it verifies in
/// isolation — and the verified set combiner above this only ever operates
/// on clause-verified result sets.
PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits = 64);

}  // namespace slicer::core
