// Boolean query planner benchmark (DESIGN.md §3k).
//
// Sweeps a clause-count × selectivity grid of OR-of-leaves
// predicate trees over a correlated multi-attribute workload (Zipf "amount"
// as the primary, ρ=0.6-correlated uniform "risk"), plus the verified
// aggregates (COUNT / MIN / MAX / top-k) and the combiner-cache warm path.
//
// Custom main, no google-benchmark: every measured query is also an
// acceptance check — its result must verify AND match the brute-force
// plaintext oracle (eval_spec), and the binary exits non-zero otherwise, so
// a silently wrong planner cannot produce a green benchmark run. Emits
// BENCH_planner.json (with the "phases" metrics snapshot when
// SLICER_METRICS is set).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/client.hpp"
#include "core/query.hpp"
#include "workload/workload.hpp"

namespace slicer::bench {
namespace {

constexpr std::size_t kBits = 10;  // shared attribute domain: [0, 1024)
constexpr std::uint64_t kDomain = 1ull << kBits;
constexpr std::size_t kShards = 4;

double now_ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Plaintext brute-force oracle over the generated records.
std::vector<core::RecordId> oracle(const std::vector<core::MultiRecord>& db,
                                   const core::QuerySpec& spec) {
  std::vector<core::RecordId> out;
  for (const core::MultiRecord& r : db)
    if (core::eval_spec(spec, r)) out.push_back(r.id);
  return out;
}

/// OR of `leaves` interval/equality leaves alternating over the two
/// attributes, with per-leaf width set by the selectivity level. Point
/// (width 0) leaves draw their value from an actual record so the narrow
/// level measures Zipf-head point queries, not guaranteed misses.
core::QuerySpec grid_spec(const std::vector<core::MultiRecord>& db,
                          std::size_t leaves, std::uint64_t width,
                          crypto::Drbg& rng) {
  std::optional<core::Pred> spec;
  for (std::size_t i = 0; i < leaves; ++i) {
    const std::string name = i % 2 == 0 ? "amount" : "risk";
    const core::Pred::Attr attr = core::Pred::attr(name);
    core::Pred leaf = [&]() -> core::Pred {
      if (width != 0) {
        const std::uint64_t lo = rng.uniform(kDomain - width);
        return attr.between_inclusive(lo, lo + width);
      }
      const core::MultiRecord& r = db[rng.uniform(db.size())];
      for (const core::AttributeValue& av : r.values)
        if (av.attribute == name) return attr.eq(av.value);
      return attr.eq(rng.uniform(kDomain));
    }();
    spec = spec ? (std::move(*spec) || std::move(leaf)) : std::move(leaf);
  }
  return std::move(*spec);
}

struct PlannerWorld {
  std::unique_ptr<World> world;
  std::vector<core::MultiRecord> db;
};

PlannerWorld build_world(std::size_t count) {
  PlannerWorld pw;
  pw.world = make_world(kBits, count, /*ingest=*/false, kShards);
  const std::vector<workload::AttributeSpec> attrs = {
      {"amount", kBits, workload::Distribution::kZipf, 0.0},
      {"risk", kBits, workload::Distribution::kUniform, 0.6},
  };
  crypto::Drbg rng(str_bytes("planner-bench-workload"));
  pw.db = workload::generate_multi(rng, attrs, count);
  pw.world->cloud->apply(pw.world->owner->build(pw.db));
  pw.world->user->refresh(pw.world->owner->export_user_state());
  return pw;
}

/// The clause-count × selectivity × read-path grid. Every cell runs on a
/// fresh QueryClient so the combiner cache cannot flatter the timing.
bool sweep_grid(PlannerWorld& pw, BenchJson& json) {
  struct Level {
    const char* name;
    std::uint64_t width;  // 0 = point equality
  };
  const Level levels[] = {
      {"narrow", 0},            // single value: Zipf head or miss
      {"mid", kDomain / 16},    // ~6% of the domain per leaf
      {"wide", kDomain / 4},    // ~25% of the domain per leaf
  };
  constexpr int kIters = 3;
  bool ok = true;

  for (const std::size_t leaves : {1u, 2u, 4u, 8u}) {
    for (const Level& level : levels) {
      const std::string cell =
          "legacy/leaves" + std::to_string(leaves) + "/" + level.name;
      crypto::Drbg rng(str_bytes("planner-grid-" + cell));
      const core::QuerySpec spec = grid_spec(pw.db, leaves, level.width, rng);
      const std::vector<core::RecordId> expected = oracle(pw.db, spec);

      core::QueryResult last;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        core::QueryClient client(*pw.world->user, *pw.world->cloud,
                                 pw.world->config.prime_bits);
        last = client.query(spec);
        if (!last.verified || last.ids != expected) {
          std::printf("FALSE RESULT %s: verified=%d results=%zu (want %zu)\n",
                      cell.c_str(), last.verified ? 1 : 0, last.ids.size(),
                      expected.size());
          ok = false;
        }
      }
      const double ms = now_ms_since(start) / kIters;
      const double selectivity =
          pw.db.empty() ? 0.0
                        : static_cast<double>(last.ids.size()) /
                              static_cast<double>(pw.db.size());
      std::printf("Planner/%-28s %8.2f ms  %2zu clauses  %3zu tokens  "
                  "%5zu results (%.3f)\n",
                  cell.c_str(), ms, last.clause_count, last.token_count,
                  last.ids.size(), selectivity);
      json.add({"Planner/" + cell,
                ms,
                kIters,
                {{"leaves", static_cast<double>(leaves)},
                 {"clauses", static_cast<double>(last.clause_count)},
                 {"tokens", static_cast<double>(last.token_count)},
                 {"results", static_cast<double>(last.ids.size())},
                 {"selectivity", selectivity}}});
    }
  }
  return ok;
}

/// Verified-aggregate latency: COUNT, MIN, MAX, top-k against the oracle.
bool sweep_aggregates(PlannerWorld& pw, BenchJson& json) {
  // A conjunction the ρ=0.6 correlation keeps non-empty: mid-range amounts
  // whose risk is also elevated.
  const core::QuerySpec spec =
      core::Pred::attr("amount").between_inclusive(kDomain / 8, kDomain / 2) &&
      core::Pred::attr("risk").gt(kDomain / 4);
  const std::vector<core::RecordId> ids = oracle(pw.db, spec);

  bool found = false;
  std::uint64_t lo = ~0ull, hi = 0;
  std::map<std::uint64_t, std::vector<core::RecordId>, std::greater<>> groups;
  for (const core::MultiRecord& r : pw.db) {
    if (!core::eval_spec(spec, r)) continue;
    for (const core::AttributeValue& av : r.values)
      if (av.attribute == "amount") {
        found = true;
        lo = std::min(lo, av.value);
        hi = std::max(hi, av.value);
        groups[av.value].push_back(r.id);
      }
  }
  bool ok = true;
  const auto gate = [&ok](const char* what, bool pass) {
    if (!pass) {
      std::printf("FALSE AGGREGATE %s\n", what);
      ok = false;
    }
  };

  {
    core::QueryClient client(*pw.world->user, *pw.world->cloud,
                             pw.world->config.prime_bits);
    const auto start = std::chrono::steady_clock::now();
    const auto count = client.count(spec);
    const double ms = now_ms_since(start);
    gate("count", count.verified && count.count == ids.size());
    std::printf("PlannerAggregate/count        %8.2f ms  count=%zu\n", ms,
                count.count);
    json.add({"PlannerAggregate/count",
              ms,
              1,
              {{"count", static_cast<double>(count.count)},
               {"matches", static_cast<double>(ids.size())}}});
  }

  for (const bool is_min : {true, false}) {
    core::QueryClient client(*pw.world->user, *pw.world->cloud,
                             pw.world->config.prime_bits);
    const auto start = std::chrono::steady_clock::now();
    const auto extreme = is_min ? client.min_value("amount", spec)
                                : client.max_value("amount", spec);
    const double ms = now_ms_since(start);
    const char* name = is_min ? "min" : "max";
    gate(name, extreme.verified && extreme.found == found &&
                   (!found || extreme.value == (is_min ? lo : hi)));
    std::printf("PlannerAggregate/%-12s %8.2f ms  value=%llu  probes=%zu\n",
                name, ms,
                static_cast<unsigned long long>(extreme.value),
                extreme.probes);
    json.add({std::string("PlannerAggregate/") + name,
              ms,
              1,
              {{"value", static_cast<double>(extreme.value)},
               {"probes", static_cast<double>(extreme.probes)}}});
  }

  {
    constexpr std::size_t kK = 3;
    core::QueryClient client(*pw.world->user, *pw.world->cloud,
                             pw.world->config.prime_bits);
    const auto start = std::chrono::steady_clock::now();
    const auto top = client.top_k("amount", spec, kK);
    const double ms = now_ms_since(start);
    bool pass = top.verified && top.groups.size() == std::min(kK, groups.size());
    auto it = groups.begin();
    for (const auto& g : top.groups) {
      if (it == groups.end() || g.value != it->first || g.ids != it->second)
        pass = false;
      if (it != groups.end()) ++it;
    }
    gate("top_k", pass);
    std::printf("PlannerAggregate/top_k        %8.2f ms  groups=%zu  "
                "probes=%zu\n",
                ms, top.groups.size(), top.probes);
    json.add({"PlannerAggregate/top_k",
              ms,
              1,
              {{"k", static_cast<double>(kK)},
               {"groups", static_cast<double>(top.groups.size())},
               {"probes", static_cast<double>(top.probes)}}});
  }
  return ok;
}

/// Combiner-cache warm path: the repeat of a plan must be served entirely
/// from verified cached clauses.
bool sweep_cache(PlannerWorld& pw, BenchJson& json) {
  crypto::Drbg rng(str_bytes("planner-cache"));
  const core::QuerySpec spec = grid_spec(pw.db, 8, kDomain / 8, rng);
  const std::vector<core::RecordId> expected = oracle(pw.db, spec);
  core::QueryClient client(*pw.world->user, *pw.world->cloud,
                           pw.world->config.prime_bits);

  const auto run = [&](const char* label) {
    const auto start = std::chrono::steady_clock::now();
    const core::QueryResult r = client.query(spec);
    const double ms = now_ms_since(start);
    std::printf("PlannerCache/%-16s %8.2f ms  cached %zu/%zu clauses\n", label,
                ms, r.cached_clauses, r.clause_count);
    json.add({std::string("PlannerCache/") + label,
              ms,
              1,
              {{"clauses", static_cast<double>(r.clause_count)},
               {"cached_clauses", static_cast<double>(r.cached_clauses)}}});
    return r;
  };
  const core::QueryResult cold = run("cold");
  const core::QueryResult warm = run("warm");
  bool ok = true;
  if (!cold.verified || cold.ids != expected || cold.cached_clauses != 0) {
    std::printf("FALSE RESULT PlannerCache/cold\n");
    ok = false;
  }
  if (!warm.verified || warm.ids != expected ||
      warm.cached_clauses != warm.clause_count) {
    std::printf("FALSE RESULT PlannerCache/warm: %zu/%zu cached\n",
                warm.cached_clauses, warm.clause_count);
    ok = false;
  }
  return ok;
}

}  // namespace
}  // namespace slicer::bench

int main() {
  using namespace slicer::bench;
  const std::size_t count = static_cast<std::size_t>(4000 * scale());
  std::printf("query planner bench: %zu records, %zu-bit domain, K=%zu, "
              "%zu threads\n\n",
              count, kBits, kShards, threads());

  PlannerWorld pw = build_world(count);
  BenchJson json("planner");
  bool ok = true;
  ok &= sweep_grid(pw, json);
  ok &= sweep_aggregates(pw, json);
  ok &= sweep_cache(pw, json);
  json.write();
  std::printf("\n%s\n", ok ? "all planner results verified against the oracle"
                           : "PLANNER BENCH FAILED: unverified or wrong result");
  return ok ? 0 : 1;
}
