#include "core/client.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "adscrypto/sharded_accumulator.hpp"
#include "common/errors.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/trace.hpp"

namespace slicer::core {

namespace {

std::vector<RecordId> set_and(const std::vector<RecordId>& a,
                              const std::vector<RecordId>& b) {
  std::vector<RecordId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<RecordId> set_or(const std::vector<RecordId>& a,
                             const std::vector<RecordId>& b) {
  std::vector<RecordId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Largest representable value of the configured domain.
std::uint64_t domain_max(std::size_t value_bits) {
  return value_bits >= 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << value_bits) - 1;
}

}  // namespace

QueryClient::QueryClient(DataUser& user, CloudServer& cloud,
                         std::size_t prime_bits)
    : user_(user), cloud_(cloud), prime_bits_(prime_bits) {}

ClausePlan QueryClient::plan_for(const QuerySpec& spec) const {
  return compile_spec(spec, PlanContext{user_.config().attribute});
}

QueryResult QueryClient::query(const QuerySpec& spec) {
  return run_plan(plan_for(spec));
}

Bytes QueryClient::clause_key(const PlanClause& clause,
                              const Bytes& digest) const {
  Writer w;
  w.str(clause.attribute);
  w.u64(clause.value);
  w.u8(static_cast<std::uint8_t>(clause.mc));
  w.bytes(digest);
  return std::move(w).take();
}

QueryResult QueryClient::run_plan(const ClausePlan& plan) {
  static metrics::Histogram& query_ns =
      metrics::histogram("core.client.query_ns");
  static metrics::Histogram& tokens_ns =
      metrics::histogram("core.client.tokens_ns");
  static metrics::Counter& queries = metrics::counter("core.client.queries");
  static metrics::Counter& plan_queries =
      metrics::counter("core.client.plan.queries");
  static metrics::Counter& plan_clauses =
      metrics::counter("core.client.plan.clauses");
  static metrics::Counter& combiner_hits =
      metrics::counter("core.client.plan.combiner_hits");
  static metrics::Counter& combiner_misses =
      metrics::counter("core.client.plan.combiner_misses");
  const metrics::ScopedTimer timer(query_ns);
  const trace::Span span("client.query_plan");
  queries.add();
  plan_queries.add();
  plan_clauses.add(plan.clauses.size());
  if (plan.empty_intervals != 0) {
    static metrics::Counter& empties =
        metrics::counter("core.client.empty_interval_queries");
    empties.add(plan.empty_intervals);
  }

  QueryResult out;
  out.clause_count = plan.clauses.size();

  // Combiner cache lookups. The key embeds the cloud's *current* digest,
  // so a hit is a clause already verified against exactly this accumulator
  // state — an update changed the digest and misses.
  std::vector<CachedClause> outcomes(plan.clauses.size());
  std::vector<Bytes> keys(plan.clauses.size());
  std::vector<std::size_t> fetch;
  if (!plan.clauses.empty()) {
    const Bytes digest = cloud_.accumulator_value().to_bytes_be();
    for (std::size_t i = 0; i < plan.clauses.size(); ++i) {
      keys[i] = clause_key(plan.clauses[i], digest);
      const auto it = cache_.find(keys[i]);
      if (it != cache_.end()) {
        outcomes[i] = it->second;
        ++out.cached_clauses;
        combiner_hits.add();
      } else {
        fetch.push_back(i);
        combiner_misses.add();
      }
    }
  }

  if (fetch.empty()) {
    // No cloud contact needed: every clause was cache-served (each already
    // verified under the current digest) or the plan is pure empty
    // intervals — vacuously verified, exactly like the legacy
    // empty-interval result.
    out.verified = true;
  } else {
    std::vector<ClauseRequest> requests;
    requests.reserve(fetch.size());
    {
      const metrics::ScopedTimer token_timer(tokens_ns);
      const trace::Span token_span("client.tokens");
      for (const std::size_t i : fetch) {
        const PlanClause& c = plan.clauses[i];
        requests.push_back(
            ClauseRequest{user_.make_tokens(c.attribute, c.value, c.mc)});
      }
    }

    // Each clause verifies against its primes' shard values; the shard
    // values themselves must fold to the digest the chain holds, otherwise
    // a cloud could advertise arbitrary per-shard values. One fold check
    // covers the whole batch.
    const std::vector<bigint::BigUint>& shard_values = cloud_.shard_values();
    const bool fold_ok = adscrypto::fold_shard_digests(shard_values) ==
                         cloud_.accumulator_value();
    const std::vector<ClauseReply> replies = cloud_.search_plan(requests);
    const PlanVerification pv =
        verify_plan(cloud_.accumulator_params(), shard_values, requests,
                    replies, prime_bits_);

    for (std::size_t j = 0; j < fetch.size(); ++j) {
      const std::size_t i = fetch[j];
      CachedClause& o = outcomes[i];
      o.token_count = requests[j].tokens.size();
      if (j < pv.clauses.size()) {
        o.tokens_verified = pv.clauses[j].tokens_verified;
        o.detail = pv.clauses[j].tokens;
      }
      if (j < replies.size()) {
        o.ids = user_.decrypt(replies[j].replies);
        std::sort(o.ids.begin(), o.ids.end());
        o.ids.erase(std::unique(o.ids.begin(), o.ids.end()), o.ids.end());
      }
      // Only verified clause outcomes are memoized — the cache can never
      // replay an unverified (or stale: see the digest in the key) VO.
      const bool clause_ok =
          fold_ok && j < pv.clauses.size() && pv.clauses[j].verified;
      if (clause_ok && cache_.emplace(keys[i], o).second) {
        cache_order_.push_back(keys[i]);
      }
    }
    while (cache_.size() > kPlanCacheCapacity) {  // FIFO eviction
      cache_.erase(cache_order_.front());
      cache_order_.erase(cache_order_.begin());
    }
    out.verified = fold_ok && pv.verified;
  }

  // Roll up token accounting in clause order.
  for (const CachedClause& o : outcomes) {
    out.token_count += o.token_count;
    out.tokens_verified += o.tokens_verified;
    out.token_detail.insert(out.token_detail.end(), o.detail.begin(),
                            o.detail.end());
  }

  // Verified set combination up the plan tree. lower() emits children
  // before parents, so one forward pass suffices. The ids of an unverified
  // query are still combined and returned — `verified` flags them, and
  // callers decide what to do with unverified answers (the blockchain path
  // escalates instead).
  if (plan.nodes.empty()) return out;
  std::vector<std::vector<RecordId>> node_ids(plan.nodes.size());
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const PlanNode& node = plan.nodes[n];
    switch (node.kind) {
      case PlanNode::Kind::kClause:
        node_ids[n] = outcomes[node.clause].ids;
        break;
      case PlanNode::Kind::kEmpty:
        break;
      case PlanNode::Kind::kAnd:
      case PlanNode::Kind::kOr: {
        std::vector<RecordId> acc = node_ids[node.children.front()];
        for (std::size_t c = 1; c < node.children.size(); ++c) {
          const std::vector<RecordId>& next = node_ids[node.children[c]];
          acc = node.kind == PlanNode::Kind::kAnd ? set_and(acc, next)
                                                  : set_or(acc, next);
        }
        node_ids[n] = std::move(acc);
        break;
      }
    }
  }
  out.ids = std::move(node_ids[plan.root]);
  return out;
}

// --- verified aggregates -------------------------------------------------

QueryClient::CountResult QueryClient::count(const QuerySpec& spec) {
  const QueryResult r = query(spec);
  return CountResult{r.ids.size(), r.verified};
}

namespace {

/// Shared MIN/MAX body: a verified binary search over [0, domain_max] for
/// the extreme attribute value with a nonempty (spec AND attribute-range)
/// result. Every probe is a full planner query, so the answer inherits
/// clause-level verification; the combiner cache serves the spec's own
/// clauses from the second probe on.
QueryClient::ExtremeResult extreme_search(QueryClient& client,
                                          const std::string& attribute,
                                          const QuerySpec& spec, bool want_min,
                                          std::uint64_t max_value) {
  static metrics::Counter& probes_total =
      metrics::counter("core.client.plan.aggregate_probes");
  QueryClient::ExtremeResult out;
  const auto range = [&](std::uint64_t lo, std::uint64_t hi) {
    return Pred(spec) && Pred::attr(attribute).between_inclusive(lo, hi);
  };
  const auto probe = [&](std::uint64_t lo, std::uint64_t hi) {
    const QueryResult r = client.query(range(lo, hi));
    out.verified = out.verified && r.verified;
    ++out.probes;
    probes_total.add();
    return !r.ids.empty();
  };

  out.verified = true;
  // Records matching the spec that carry the attribute at all — the
  // population the extreme ranges over (attribute-scoped, like negation).
  if (!probe(0, max_value)) return out;

  std::uint64_t lo = 0;
  std::uint64_t hi = max_value;
  if (want_min) {
    // Smallest v with (spec AND attribute <= v) nonempty.
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (probe(0, mid))
        hi = mid;
      else
        lo = mid + 1;
    }
  } else {
    // Largest v with (spec AND attribute >= v) nonempty.
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (probe(mid, max_value))
        lo = mid;
      else
        hi = mid - 1;
    }
  }
  out.found = true;
  out.value = lo;
  const QueryResult at =
      client.query(Pred(spec) && Pred::attr(attribute).eq(lo));
  out.verified = out.verified && at.verified;
  out.ids = at.ids;
  return out;
}

}  // namespace

QueryClient::ExtremeResult QueryClient::min_value(std::string_view attribute,
                                                  const QuerySpec& spec) {
  return extreme_search(*this, std::string(attribute), spec, /*want_min=*/true,
                        domain_max(user_.config().value_bits));
}

QueryClient::ExtremeResult QueryClient::min_value(const QuerySpec& spec) {
  return min_value(std::string_view(), spec);
}

QueryClient::ExtremeResult QueryClient::max_value(std::string_view attribute,
                                                  const QuerySpec& spec) {
  return extreme_search(*this, std::string(attribute), spec, /*want_min=*/false,
                        domain_max(user_.config().value_bits));
}

QueryClient::ExtremeResult QueryClient::max_value(const QuerySpec& spec) {
  return max_value(std::string_view(), spec);
}

QueryClient::TopKResult QueryClient::top_k(std::string_view attribute,
                                           const QuerySpec& spec,
                                           std::size_t k) {
  TopKResult out;
  out.verified = true;
  QuerySpec narrowed = spec;
  while (out.groups.size() < k) {
    // Extract the current maximum, then narrow below it and repeat —
    // every extraction is itself a verified MAX search, and the shared
    // spec clauses stay cache-served across rounds.
    const ExtremeResult m = max_value(attribute, narrowed);
    out.verified = out.verified && m.verified;
    out.probes += m.probes;
    if (!m.found) break;
    out.groups.push_back(TopKResult::Entry{m.value, m.ids});
    if (m.value == 0) break;
    narrowed = Pred(std::move(narrowed)) &&
               Pred::attr(std::string(attribute)).lt(m.value);
  }
  return out;
}

QueryClient::TopKResult QueryClient::top_k(const QuerySpec& spec,
                                           std::size_t k) {
  return top_k(std::string_view(), spec, k);
}

}  // namespace slicer::core
