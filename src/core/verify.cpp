#include "core/verify.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "adscrypto/sharded_accumulator.hpp"
#include "bigint/montgomery.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer::core {

QueryVerification verify_query(const adscrypto::AccumulatorParams& params,
                               std::span<const bigint::BigUint> shard_values,
                               std::span<const SearchToken> tokens,
                               std::span<const TokenReply> replies,
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
  // One Montgomery context (R² mod n, −n⁻¹) amortized across every reply of
  // the query instead of re-derived per witness.
  const bigint::Montgomery mont(params.modulus);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const trace::Span token_span("verify.token");
    const auto start = std::chrono::steady_clock::now();
    // The prime is re-derived from (token, multiset hash of the results);
    // the process-wide prime cache serves it when the owner or cloud
    // already derived it.
    const bigint::BigUint x = token_prime(
        tokens[i], results_digest(replies[i].encrypted_results), prime_bits);
    TokenVerification tv;
    tv.ok = adscrypto::ShardedAccumulator::verify(mont, shard_values, x,
                                                  replies[i].witness);
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
    out.clauses.push_back(verify_query(params, shard_values,
                                       requests[i].tokens, replies[i].replies,
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
