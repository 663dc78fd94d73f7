#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/multiset_hash.hpp"
#include "adscrypto/sharded_accumulator.hpp"
#include "bigint/montgomery.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer::core {

namespace {

/// Shared body of verify_reply/verify_query: recomputes the multiset hash
/// and prime representative (served from the process-wide prime cache when
/// the owner or cloud already derived it), routes the prime to its shard
/// and checks the witness against a caller-provided Montgomery context. A
/// one-element `shard_values` is the unsharded check (everything routes to
/// shard 0).
bool verify_reply_with(const bigint::Montgomery& mont,
                       std::span<const bigint::BigUint> shard_values,
                       const SearchToken& token, const TokenReply& reply,
                       std::size_t prime_bits) {
  const bigint::BigUint x = token_prime(
      token, results_digest(reply.encrypted_results), prime_bits);
  return adscrypto::ShardedAccumulator::verify(mont, shard_values, x,
                                               reply.witness);
}

}  // namespace

bool verify_reply(const adscrypto::AccumulatorParams& params,
                  const bigint::BigUint& ac, const SearchToken& token,
                  const TokenReply& reply, std::size_t prime_bits) {
  return verify_reply(params, std::span(&ac, 1), token, reply, prime_bits);
}

bool verify_reply(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  const SearchToken& token, const TokenReply& reply,
                  std::size_t prime_bits) {
  const bigint::Montgomery mont(params.modulus);
  return verify_reply_with(mont, shard_values, token, reply, prime_bits);
}

bool verify_query(const adscrypto::AccumulatorParams& params,
                  const bigint::BigUint& ac,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits) {
  return verify_query(params, std::span(&ac, 1), tokens, replies, prime_bits);
}

bool verify_query(const adscrypto::AccumulatorParams& params,
                  std::span<const bigint::BigUint> shard_values,
                  std::span<const SearchToken> tokens,
                  std::span<const TokenReply> replies,
                  std::size_t prime_bits) {
  static metrics::Histogram& query_ns =
      metrics::histogram("core.verify.query_ns");
  static metrics::Counter& failures = metrics::counter("core.verify.failures");
  const metrics::ScopedTimer timer(query_ns);
  if (tokens.size() != replies.size()) {
    failures.add();
    return false;
  }
  if (tokens.empty()) return true;
  // One Montgomery context (R² mod n, −n⁻¹) amortized across every reply of
  // the query instead of re-derived per witness.
  const bigint::Montgomery mont(params.modulus);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!verify_reply_with(mont, shard_values, tokens[i], replies[i],
                           prime_bits)) {
      failures.add();
      return false;
    }
  }
  return true;
}

QueryVerification verify_query_detailed(
    const adscrypto::AccumulatorParams& params, const bigint::BigUint& ac,
    std::span<const SearchToken> tokens, std::span<const TokenReply> replies,
    std::size_t prime_bits) {
  return verify_query_detailed(params, std::span(&ac, 1), tokens, replies,
                               prime_bits);
}

QueryVerification verify_query_detailed(
    const adscrypto::AccumulatorParams& params,
    std::span<const bigint::BigUint> shard_values,
    std::span<const SearchToken> tokens, std::span<const TokenReply> replies,
    std::size_t prime_bits) {
  static metrics::Histogram& query_ns =
      metrics::histogram("core.verify.query_ns");
  static metrics::Histogram& token_ns =
      metrics::histogram("core.verify.token_ns");
  static metrics::Counter& failures = metrics::counter("core.verify.failures");
  const metrics::ScopedTimer timer(query_ns);
  const trace::Span span("verify.query");

  QueryVerification out;
  if (tokens.size() != replies.size()) {
    failures.add();
    return out;
  }
  out.tokens.reserve(tokens.size());
  const bigint::Montgomery mont(params.modulus);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const trace::Span token_span("verify.token");
    const auto start = std::chrono::steady_clock::now();
    TokenVerification tv;
    tv.ok =
        verify_reply_with(mont, shard_values, tokens[i], replies[i], prime_bits);
    tv.duration_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    token_ns.record(tv.duration_ns);
    if (tv.ok) {
      ++out.tokens_verified;
    } else {
      failures.add();
    }
    out.tokens.push_back(tv);
  }
  out.verified = out.tokens_verified == tokens.size();
  return out;
}

ClauseVerification verify_clause_reply(
    const adscrypto::AccumulatorParams& params,
    std::span<const bigint::BigUint> shard_values, const ClauseRequest& request,
    const ClauseReply& reply, std::size_t prime_bits) {
  return verify_query_detailed(params, shard_values, request.tokens,
                               reply.replies, prime_bits);
}

PlanVerification verify_plan(const adscrypto::AccumulatorParams& params,
                             std::span<const bigint::BigUint> shard_values,
                             std::span<const ClauseRequest> requests,
                             std::span<const ClauseReply> replies,
                             std::size_t prime_bits) {
  static metrics::Counter& failures =
      metrics::counter("core.verify.plan_failures");
  const trace::Span span("verify.plan");
  PlanVerification out;
  // A dropped or surplus clause is a count mismatch; a swapped reply fails
  // its clause's check below because every prime commits to (token,
  // results) of the clause that produced it.
  bool all = replies.size() == requests.size();
  const std::size_t n = std::min(requests.size(), replies.size());
  out.clauses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.clauses.push_back(verify_clause_reply(params, shard_values,
                                              requests[i], replies[i],
                                              prime_bits));
    if (out.clauses.back().verified)
      ++out.clauses_verified;
    else
      all = false;
  }
  out.verified = all;
  if (!out.verified) failures.add();
  return out;
}

}  // namespace slicer::core
