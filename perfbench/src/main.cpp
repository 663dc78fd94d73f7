// End-to-end Slicer benchmark.
//
// One process plays the data owner, the data users and the chain against a
// loopback net::SlicerServer, and times the paper's whole path as a user
// sees it: token generation → QUERY_PLAN round trip → verify_plan →
// decrypt → verified set combination, plus owner inserts (insert → APPLY →
// UPDATE_SHARDS) and paid settlement (SUBMIT_QUERY escrow → answer →
// SUBMIT_RESULT payout). Workloads (see README.md for why each exists):
//
//   hot-reads   two-attribute Zipf corpus, witnesses precomputed, Zipf
//               queries over a small spec pool (fits the proof cache)
//   cold-reads  16-bit uniform corpus, witnesses built on demand, uniform
//               queries (far exceed the proof cache)
//
// Each run: set-up (repeated; setup_s is the median), an untimed warm-up
// script (queries, then one insert batch), then timed rounds, each of
// incremental insert batches, a closed-loop read segment on one client
// channel and a few paid queries settled on chain. Every timed read follows
// an insert, so work an insert defers to the next read lands in the read
// figures.
//
// The process is pinned to one CPU and operations run one at a time, so
// each is timed on the process CPU clock (its cost in every thread, client
// and server) as well as on the wall clock. The end-to-end figures are that
// CPU time normalised to a fixed host speed by a SpeedProbe (stats.hpp),
// which a shared host's steal, run-queue waits and speed swings do not
// move; raw CPU and wall times are per-layer figures.
//
//   perfbench --workload hot-reads --seed 1 --seconds 12 --trace 0
//
// Timing is taken only from outside the library: bench-side spans around
// calls into its public API, plus exact sum/count values of the program's
// own metrics instruments read through metrics::snapshot(). The last stdout
// line is one JSON object with every measured metric; perfbench/run.py
// selects the ones BENCHMARK.json declares. A wrong answer, a rejected
// honest reply or a refunded honest settlement exits non-zero.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adscrypto/hash_to_prime.hpp"
#include "adscrypto/params.hpp"
#include "chain/slicer_contract.hpp"
#include "common/metrics.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "core/cloud.hpp"
#include "core/owner.hpp"
#include "core/query.hpp"
#include "core/user.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "plan.hpp"
#include "stats.hpp"
#include "workload/workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace slicer;
using bigint::BigUint;

/// A correctness failure: the run is invalid and exits non-zero.
struct WrongAnswer : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- workload definitions ------------------------------------------------

struct Workload {
  std::string name;
  bool multi = false;        ///< two-attribute corpus (generate_multi)
  std::size_t bits = 16;     ///< value domain width
  std::size_t records = 0;   ///< initial corpus size
  std::size_t setups = 5;    ///< set-ups per run; setup_s is their median
  bool precompute = false;   ///< witnesses precomputed at setup
  std::size_t proof_cache = 1024;  ///< SLICER_PROOF_CACHE (1024 is its default)
  std::size_t pool = 0;      ///< hot-reads: distinct query specs
  std::size_t warmup = 0;    ///< untimed queries before the warm-up insert
  std::size_t rounds = 0;    ///< timed rounds: inserts, reads, settlements
  std::size_t batches_per_round = 0;  ///< insert batches opening each round
  std::size_t settle = 0;    ///< paid queries settled over all rounds
};

constexpr std::size_t kServerLanes = 1;   // SLICER_THREADS / SLICER_NET_THREADS
constexpr std::size_t kBatch = 4;         // records per insert batch
constexpr std::size_t kShards = 4;        // accumulator shards K
constexpr std::size_t kPrimeBits = 64;
constexpr std::uint64_t kPayment = 1'000;
constexpr double kLedgerTolerance = 0.10;  // max unattributed share of latency
constexpr std::size_t kMinQueries = 1000;  // timed-read floor: 10 samples above p99
constexpr std::size_t kMinAboveP99 = 10;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "hot-reads", .multi = true, .bits = 8, .records = 1000,
       .precompute = true, .pool = 48, .warmup = 48, .rounds = 8,
       .batches_per_round = 1, .settle = 192},
      {.name = "cold-reads", .multi = false, .bits = 16, .records = 200,
       .setups = 15, .precompute = false, .proof_cache = 128, .warmup = 16,
       .rounds = 10, .batches_per_round = 2, .settle = 120},
  };
  return all;
}

// --- environment ----------------------------------------------------------

/// Every SLICER_* variable in the environment.
std::map<std::string, std::string> slicer_environment() {
  std::map<std::string, std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    const auto eq = entry.find('=');
    if (entry.rfind("SLICER_", 0) == 0 && eq != std::string::npos)
      out[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  return out;
}

/// Clears every SLICER_* variable and sets only the knobs the workload pins,
/// so no stray variable changes a workload unnoticed; returns what was
/// inherited. Must run before any library code reads a knob.
std::map<std::string, std::string> pin_environment(const Workload& w) {
  const std::map<std::string, std::string> inherited = slicer_environment();
  for (const auto& [name, value] : inherited) ::unsetenv(name.c_str());
  ::setenv("SLICER_THREADS", std::to_string(kServerLanes).c_str(), 1);
  ::setenv("SLICER_NET_THREADS", std::to_string(kServerLanes).c_str(), 1);
  ::setenv("SLICER_SHARDS", std::to_string(kShards).c_str(), 1);
  ::setenv("SLICER_PROOF_CACHE", std::to_string(w.proof_cache).c_str(), 1);
  return inherited;
}

/// Pins the process to the CPU it is running on; threads started later
/// inherit the mask, so call it before any thread exists. Client and server
/// then hand work to each other on one CPU with warm caches, and an
/// operation's CPU time does not depend on which other CPUs are idle.
/// Returns the CPU, or -1 if the process could not be pinned.
int pin_to_one_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

// --- read-path neutrality ---------------------------------------------------
// The benchmark never chooses a read path: clauses run on whatever
// QueryOptions::defaults() resolves to. These helpers are written against
// the read-path fields generically, so removing a path from the library
// needs no edit here.

template <class Opts = core::QueryOptions>
bool default_aggregated() {
  if constexpr (requires(Opts o) { o.aggregated_vo; })
    return Opts::defaults().aggregated_vo;
  else
    return false;
}

template <class Ctx>
void set_default_read_path(Ctx& ctx) {
  if constexpr (requires { ctx.aggregated = true; })
    ctx.aggregated = default_aggregated();
}

template <class Request, class Clause>
void copy_read_path(Request& request, const Clause& clause) {
  if constexpr (requires { request.aggregated = clause.aggregated; })
    request.aggregated = clause.aggregated;
}

/// Record ids of one clause reply, whichever reply shape the path uses.
template <class Reply>
std::vector<RecordId> clause_ids(const core::DataUser& user, const Reply& r) {
  std::vector<RecordId> ids;
  if constexpr (requires { r.query_reply.token_results; }) {
    if (r.aggregated) {
      std::vector<Bytes> flat;
      for (const auto& results : r.query_reply.token_results)
        flat.insert(flat.end(), results.begin(), results.end());
      ids = user.decrypt_results(flat);
    } else {
      ids = user.decrypt(r.replies);
    }
  } else {
    ids = user.decrypt(r.replies);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Per-token replies of a clause for the contract, which verifies per token.
template <class Reply>
const std::vector<core::TokenReply>& settleable_replies(const Reply& r) {
  if constexpr (requires { r.aggregated; }) {
    if (r.aggregated)
      throw WrongAnswer("the contract cannot settle an aggregated clause reply");
  }
  return r.replies;
}

// --- query generation -------------------------------------------------------

crypto::Drbg seeded(std::uint64_t seed, const std::string& stream) {
  return crypto::Drbg(str_bytes("perfbench/" + std::to_string(seed) + "/" + stream));
}

/// A range spec on the default attribute from three unit draws: 30% `<`,
/// 30% `>`, 40% an open interval at most an eighth of the domain wide; the
/// bound is uniform over the domain.
core::QuerySpec range_spec(double kind_u, double value_u, double width_u,
                           std::size_t bits) {
  const std::uint64_t domain = std::uint64_t{1} << bits;
  const auto scale = [](double u, std::uint64_t n) {
    return std::min(n - 1, static_cast<std::uint64_t>(u * static_cast<double>(n)));
  };
  const auto a = core::Pred::value();
  const std::uint64_t v = scale(value_u, domain);
  const std::uint64_t kind = scale(kind_u, 10);
  if (kind < 3) return a.lt(std::max<std::uint64_t>(v, 1));
  if (kind < 6) return a.gt(std::min(v, domain - 2));
  const std::uint64_t lo = std::min(v, domain - 3);
  const std::uint64_t hi = std::min(domain - 1, lo + 2 + scale(width_u, domain / 8));
  return a.between(lo, hi);
}

/// Deterministic per-stream query sequence: Zipf draws from `pool` when
/// given, fresh range specs over a `bits`-wide domain otherwise. Every draw
/// is stratified, so each run sends the same mix up to the seed's jitter.
class QueryGen {
 public:
  QueryGen(std::size_t bits, crypto::Drbg rng,
           const std::vector<core::QuerySpec>* pool)
      : bits_(bits), rng_(std::move(rng)), pool_(pool) {
    if (pool_ != nullptr) {
      double total = 0;
      for (std::size_t i = 0; i < pool_->size(); ++i) {
        total += 1.0 / static_cast<double>(i + 1);  // Zipf, s = 1
        cdf_.push_back(total);
      }
    }
  }

  core::QuerySpec next() {
    if (pool_ == nullptr) {
      const double kind = kind_.next(rng_), value = value_.next(rng_);
      return range_spec(kind, value, width_.next(rng_), bits_);
    }
    const double u = value_.next(rng_) * cdf_.back();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return (*pool_)[std::min<std::size_t>(it - cdf_.begin(), pool_->size() - 1)];
  }

 private:
  std::size_t bits_;
  crypto::Drbg rng_;
  const std::vector<core::QuerySpec>* pool_;
  std::vector<double> cdf_;
  Stratified kind_{10}, value_{64}, width_{64};
};

/// hot-reads spec pool: 80% single-attribute ranges on the Zipf primary,
/// 20% two-attribute ANDs with the correlated secondary; queries draw from
/// it with Zipf popularity. Each popularity rank has a fixed shape and
/// bound, the same for every seed: the corpus's Zipf head sits at fixed
/// values, and a bound moved by a few values can take in or leave out a
/// head value holding a tenth of the records. The seed still drives the
/// corpus, the keys, the query order and the inserts.
std::vector<core::QuerySpec> make_pool(const Workload& w) {
  const std::uint64_t domain = std::uint64_t{1} << w.bits;
  const auto bound = [&](std::size_t rank, std::size_t salt) {
    return (rank * 29 + salt * 11) % 60 * (domain / 64) + domain / 128;
  };
  const auto a = core::Pred::attr("a");
  std::vector<core::QuerySpec> pool;
  for (std::size_t r = 0; r < w.pool; ++r) {
    const std::uint64_t v = bound(r, 0);
    const std::uint64_t hi = std::min(domain - 1, v + 2 + (r % 4 + 1) * domain / 32);
    switch (r % 5) {
      case 0: pool.push_back(a.lt(std::max<std::uint64_t>(v, 1))); break;
      case 1: pool.push_back(a.gt(v)); break;
      case 4: pool.push_back(a.between(v, hi) && core::Pred::attr("b").gt(bound(r, 1))); break;
      default: pool.push_back(a.between(v, hi)); break;
    }
  }
  return pool;
}

// --- corpus -------------------------------------------------------------------

struct Corpus {
  std::vector<core::Record> single;      // single-attribute workloads
  std::vector<core::MultiRecord> multi;  // hot-reads
  std::vector<core::MultiRecord> oracle; // every record, for eval_spec
};

void add_single(Corpus& c, const std::vector<core::Record>& records) {
  for (const auto& r : records) {
    c.single.push_back(r);
    c.oracle.push_back(core::MultiRecord{r.id, {{std::string(), r.value}}});
  }
}

/// hot-reads' attributes: a Zipf primary and a correlated secondary.
std::vector<workload::AttributeSpec> attributes(const Workload& w) {
  return {{.name = "a", .bits = w.bits, .dist = workload::Distribution::kZipf},
          {.name = "b", .bits = w.bits, .dist = workload::Distribution::kUniform,
           .correlation = 0.7}};
}

/// `count` more records of the workload's shape, ids from `first_id`.
void grow_corpus(Corpus& c, const Workload& w, crypto::Drbg& rng,
                 std::size_t count, core::RecordId first_id) {
  if (w.multi) {
    auto records = workload::generate_multi(rng, attributes(w), count, first_id);
    c.multi.insert(c.multi.end(), records.begin(), records.end());
    c.oracle.insert(c.oracle.end(), records.begin(), records.end());
  } else {
    add_single(c, workload::generate(rng, workload::Distribution::kUniform,
                                     w.bits, count, first_id));
  }
}

// --- metrics windows ------------------------------------------------------------

/// Exact sums and counts of the program's instruments over one or more
/// phases (snapshot deltas); never the log2 bucket percentiles.
class Tally {
 public:
  void add(const metrics::Snapshot& before, const metrics::Snapshot& after) {
    for (const auto& [name, v] : after.counters) {
      const auto it = before.counters.find(name);
      counters_[name] += v - (it == before.counters.end() ? 0 : it->second);
    }
    for (const auto& [name, h] : after.histograms) {
      const auto it = before.histograms.find(name);
      const bool had = it != before.histograms.end();
      sum_ns_[name] += h.sum - (had ? it->second.sum : 0);
      count_[name] += h.count - (had ? it->second.count : 0);
    }
  }
  double counter(const std::string& name) const { return get(counters_, name); }
  double sum_ms(const std::string& name) const { return get(sum_ns_, name) / 1e6; }
  double count(const std::string& name) const { return get(count_, name); }
  double mean_ms(const std::string& name) const {
    const double n = count(name);
    return n == 0 ? 0 : sum_ms(name) / n;
  }

 private:
  static double get(const std::map<std::string, std::uint64_t>& m,
                    const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0 : static_cast<double>(it->second);
  }
  std::map<std::string, std::uint64_t> counters_, sum_ns_, count_;
};

/// Records one phase into a Tally when metrics are on.
class Phase {
 public:
  explicit Phase(Tally& tally)
      : tally_(metrics::enabled() ? &tally : nullptr) {
    if (tally_ != nullptr) before_ = metrics::snapshot();
  }
  ~Phase() {
    if (tally_ != nullptr) tally_->add(before_, metrics::snapshot());
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tally* tally_;
  metrics::Snapshot before_;
};

// --- the deployment ---------------------------------------------------------------

const std::string kTenant = "perfbench";
const chain::Address kOwnerAddr = chain::Address::from_label("perfbench-owner");
const chain::Address kUserAddr = chain::Address::from_label("perfbench-user");
const chain::Address kCloudAddr = chain::Address::from_label("perfbench-cloud");

const std::pair<adscrypto::AccumulatorParams, adscrypto::AccumulatorTrapdoor>&
accumulator_keys() {
  static const auto keys = [] {
    crypto::Drbg rng(str_bytes("perfbench-accumulator"));
    return adscrypto::RsaAccumulator::setup(rng, 1024);
  }();
  return keys;
}

/// Owner, server (one tenant), the owner's channel and the chain with a
/// deployed contract whose shard values match the owner's.
struct World {
  core::Config config;
  std::unique_ptr<core::DataOwner> owner;
  std::unique_ptr<net::SlicerServer> server;
  std::unique_ptr<net::SlicerClientChannel> owner_channel;
  std::unique_ptr<chain::Blockchain> chain;
  chain::Address contract_addr;

  ~World() {
    owner_channel.reset();  // close the connection before the server stops
    if (server) server->stop();
  }

  const chain::SlicerContract& contract() {
    return dynamic_cast<const chain::SlicerContract&>(
        *chain->contract_at(contract_addr));
  }
};

/// One owner insert batch: insert → APPLY → UPDATE_SHARDS sealed.
struct Batch {
  double ms = 0;        ///< the whole batch, wall time
  CpuSample cpu;        ///< the whole batch, process CPU time
  double apply_ms = 0;  ///< the APPLY round trip
  double index_ms = 0, ads_ms = 0;  ///< DataOwner::last_ingest_stats
  double primes = 0;    ///< new primes the batch accumulated
  std::size_t records = 0;
};

/// Accounting of one client's queries and settlements.
struct ClientLog {
  Spans spans;
  std::vector<double> latency_ms;  // one per verified query
  std::vector<CpuSample> cpu;      // one per verified query of the timed reads
  std::vector<double> settle_ms;   // one per settled paid query
  std::vector<CpuSample> settle_cpu;
  std::vector<double> gas_submit_query, gas_submit_result;
  std::size_t queries = 0, tokens = 0, clauses = 0, tokens_verified = 0;
  std::size_t reply_bytes = 0, round_trips = 0;
  std::size_t attempted = 0, failed = 0;

  explicit ClientLog(bool traced) : spans(traced) {}
};

/// Everything the benchmark measures, accumulated over the run.
struct Measurements {
  ClientLog log;  // timed queries and settlements, plus owner-side spans
  Tally setup, read, write;
  std::vector<double> setup_s;
  std::vector<CpuSample> setup_cpu;
  std::vector<Batch> batches;  // insert batches after set-up
  std::vector<double> gas_update_shards;
  double read_seconds = 0;    // wall time of the timed reads
  std::size_t retries = 0;

  explicit Measurements(bool traced) : log(traced) {}
};

chain::Receipt execute_tx(World& world, Spans& spans, const chain::Address& from,
                          std::uint64_t value, Bytes calldata) {
  chain::Blockchain& chain = *world.chain;
  const Bytes tx = chain.submit(
      chain.make_tx(from, world.contract_addr, value, std::move(calldata)));
  {
    const auto seal = spans.scope("chain.seal");
    chain.seal_block();
  }
  std::optional<chain::Receipt> receipt = chain.receipt_of(tx);
  if (!receipt || !receipt->success)
    throw WrongAnswer("transaction failed: " +
                      (receipt ? receipt->revert_reason : std::string("no receipt")));
  return *receipt;
}

/// Owner insert → APPLY over the wire → UPDATE_SHARDS sealed: one insert
/// batch, timed as a unit. `ingest` runs the owner's build or insert.
Batch publish_batch(World& world, Measurements& m, std::size_t records,
                    const std::function<core::UpdateOutput()>& ingest) {
  Batch b;
  b.records = records;
  const Stopwatch batch;
  const core::UpdateOutput update = ingest();
  const Clock::time_point applied = Clock::now();
  world.owner_channel->apply(update);
  b.apply_ms = ms_between(applied, Clock::now());
  {
    const auto span = m.log.spans.scope("chain.update_shards");
    const chain::Receipt r = execute_tx(
        world, m.log.spans, kOwnerAddr, 0,
        chain::encode_update_shards(world.owner->shard_values()));
    m.gas_update_shards.push_back(static_cast<double>(r.gas_used));
  }
  b.ms = batch.wall_ms();
  b.cpu = batch.cpu_sample();
  const auto& stats = world.owner->last_ingest_stats();
  b.index_ms = stats.index_seconds * 1e3;
  b.ads_ms = stats.ads_seconds * 1e3;
  b.primes = static_cast<double>(update.new_primes.size());
  return b;
}

/// Empty → ready to serve: owner build, server start, APPLY (which derives
/// the witness cache when the workload precomputes), contract deployment
/// and the first shard-value publication. Data generation is excluded.
std::unique_ptr<World> set_up(const Workload& w, std::uint64_t seed,
                              const Corpus& corpus, Measurements& m) {
  // The prime memo is process-wide; in a deployment owner, cloud and
  // verifier are separate processes, so every setup starts it empty.
  adscrypto::prime_cache_clear();
  const Phase phase(m.setup);
  const Stopwatch setup;
  auto world = std::make_unique<World>();
  world->config.value_bits = w.bits;
  world->config.prime_bits = kPrimeBits;
  crypto::Drbg rng = seeded(seed, "keys");
  world->owner = std::make_unique<core::DataOwner>(
      world->config, core::Keys::generate(rng),
      adscrypto::default_trapdoor_public_key(),
      adscrypto::default_trapdoor_secret_key(), accumulator_keys().first,
      accumulator_keys().second, crypto::Drbg(rng.generate(32)), kShards);

  auto cloud = std::make_unique<core::CloudServer>(
      adscrypto::default_trapdoor_public_key(), accumulator_keys().first,
      kPrimeBits, kShards);
  // On an empty cloud this only arms the cache: the APPLY below derives
  // every witness, and each later APPLY refreshes them incrementally.
  if (w.precompute) cloud->precompute_witnesses();
  world->server = std::make_unique<net::SlicerServer>();
  world->server->add_tenant(kTenant, std::move(cloud));
  world->server->start();
  world->owner_channel = std::make_unique<net::SlicerClientChannel>(
      world->server->port(), kTenant);

  world->chain = std::make_unique<chain::Blockchain>(std::vector<chain::Address>{
      chain::Address::from_label("perfbench-validator-1"),
      chain::Address::from_label("perfbench-validator-2"),
      chain::Address::from_label("perfbench-validator-3")});
  for (const auto& addr : {kOwnerAddr, kUserAddr, kCloudAddr})
    world->chain->credit(addr, std::uint64_t{1} << 50);
  {
    const auto span = m.log.spans.scope("chain.deploy");
    world->contract_addr = world->chain->submit_deployment(
        kOwnerAddr, std::make_unique<chain::SlicerContract>(),
        chain::SlicerContract::encode_ctor(accumulator_keys().first,
                                           world->owner->accumulator_value(),
                                           kPrimeBits));
    world->chain->seal_block();
  }

  World& wr = *world;
  publish_batch(wr, m, w.records, [&] {
    return w.multi ? wr.owner->build(std::span<const core::MultiRecord>(corpus.multi))
                   : wr.owner->build(std::span<const core::Record>(corpus.single));
  });
  m.setup_s.push_back(setup.wall_ms() / 1e3);
  m.setup_cpu.push_back(setup.cpu_sample());
  return world;
}

// --- one query ----------------------------------------------------------------------

/// A data user with its own wire connection.
struct Client {
  core::DataUser user;
  net::SlicerClientChannel channel;
};

/// Compiled plan plus the clause batch for QUERY_PLAN.
struct Prepared {
  core::ClausePlan plan;
  net::QueryPlanRequest request;
};

Prepared prepare(Client& c, const core::QuerySpec& spec, Spans& spans) {
  Prepared p;
  {
    const auto span = spans.scope("query.compile");
    core::PlanContext ctx;
    ctx.default_attribute = c.user.config().attribute;
    set_default_read_path(ctx);
    p.plan = core::compile_spec(spec, ctx);
  }
  const auto span = spans.scope("query.tokens");
  for (const core::PlanClause& clause : p.plan.clauses) {
    core::ClauseRequest request;
    copy_read_path(request, clause);
    request.tokens = c.user.make_tokens(clause.attribute, clause.value, clause.mc);
    p.request.clauses.push_back(std::move(request));
  }
  return p;
}

struct Answer {
  std::vector<RecordId> ids;
  net::QueryPlanReply reply;
  std::size_t tokens_verified = 0;
};

/// QUERY_PLAN round trip, verify_plan against the chain's shard values,
/// decrypt, combine. Throws WrongAnswer when an honest reply fails to verify.
Answer execute(Client& c, const Prepared& p,
               std::span<const BigUint> shard_values, Spans& spans) {
  Answer a;
  if (p.request.clauses.empty()) return a;  // provably empty: no round trip
  {
    const auto span = spans.scope("query.rtt");
    a.reply = c.channel.query_plan(p.request);
  }
  {
    const auto span = spans.scope("query.verify");
    const core::PlanVerification pv = core::verify_plan(
        accumulator_keys().first, shard_values, p.request.clauses,
        a.reply.clauses, kPrimeBits);
    if (!pv.verified) throw WrongAnswer("honest QUERY_PLAN reply rejected");
    for (const auto& cv : pv.clauses) a.tokens_verified += cv.tokens_verified;
  }
  std::vector<std::vector<RecordId>> ids;
  {
    const auto span = spans.scope("query.decrypt");
    for (const auto& reply : a.reply.clauses) ids.push_back(clause_ids(c.user, reply));
  }
  const auto span = spans.scope("query.combine");
  a.ids = combine_plan(p.plan, ids);
  return a;
}

/// Books one answered query: oracle check (outside the latency) and sizes.
void book(ClientLog& log, const core::QuerySpec& spec, const Prepared& p,
          const Answer& a, double latency_ms,
          const std::vector<core::MultiRecord>& oracle) {
  if (a.ids != oracle_ids(spec, oracle))
    throw WrongAnswer("verified answer differs from the oracle for " +
                      spec.to_string());
  log.latency_ms.push_back(latency_ms);
  ++log.queries;
  log.clauses += p.plan.clauses.size();
  for (const auto& clause : p.request.clauses) log.tokens += clause.tokens.size();
  log.tokens_verified += a.tokens_verified;
  if (!p.request.clauses.empty()) {
    ++log.round_trips;
    log.reply_bytes += a.reply.serialize().size();
  }
}

/// One verified query; transport failures count as failed, not wrong.
void run_query(Client& c, const core::QuerySpec& spec,
               std::span<const BigUint> shard_values,
               const std::vector<core::MultiRecord>& oracle, ClientLog& log) {
  ++log.attempted;
  try {
    const Stopwatch query;
    const Prepared p = prepare(c, spec, log.spans);
    const Answer a = execute(c, p, shard_values, log.spans);
    const CpuSample cpu = query.cpu_sample();
    book(log, spec, p, a, query.wall_ms(), oracle);
    log.cpu.push_back(cpu);
  } catch (const net::NetError&) {
    ++log.failed;
  } catch (const net::ServerError&) {
    ++log.failed;
  }
}

/// Paid query: SUBMIT_QUERY escrow sealed → QUERY_PLAN → local verify →
/// attach_counters → SUBMIT_RESULT sealed → the payout must reach the cloud.
/// Query latency excludes the escrow step (it is in settle time). Returns
/// false, without escrowing, for a spec no indexed slice can match: there
/// is nothing to pay for, so the caller draws another one.
bool run_paid_query(World& world, Client& c, const core::QuerySpec& spec,
                    const std::vector<core::MultiRecord>& oracle, ClientLog& log) {
  try {
    const Stopwatch tokens_made;
    const Prepared p = prepare(c, spec, log.spans);
    const double prepare_ms = tokens_made.wall_ms();
    std::vector<core::SearchToken> tokens;
    for (const auto& clause : p.request.clauses)
      tokens.insert(tokens.end(), clause.tokens.begin(), clause.tokens.end());
    if (tokens.empty()) return false;
    ++log.attempted;

    const Stopwatch escrow;
    const std::vector<BigUint> shard_values = world.contract().stored_shard_values();
    const chain::Receipt q = execute_tx(world, log.spans, kUserAddr, kPayment,
                                        chain::encode_submit_query(tokens));
    Reader out(q.output);
    const std::uint64_t query_id = out.u64();

    const Stopwatch answer;
    const Answer a = execute(c, p, shard_values, log.spans);
    book(log, spec, p, a, prepare_ms + answer.wall_ms(), oracle);

    std::vector<core::TokenReply> replies;
    for (const auto& clause : a.reply.clauses) {
      const auto& r = settleable_replies(clause);
      replies.insert(replies.end(), r.begin(), r.end());
    }
    {
      const auto span = log.spans.scope("chain.submit_result");
      const auto proven = chain::attach_counters(tokens, replies, kPrimeBits);
      chain::Blockchain& chain = *world.chain;
      const std::uint64_t escrow_before = chain.balance(world.contract_addr);
      const std::uint64_t user_before = chain.balance(kUserAddr);
      const chain::Receipt r =
          execute_tx(world, log.spans, kCloudAddr, 0,
                     chain::encode_submit_result(query_id, tokens, proven));
      // The cloud pays gas for SUBMIT_RESULT, so the payout shows as the
      // escrow leaving the contract while the user's balance stays put.
      Reader verdict(r.output);
      if (verdict.u8() != 1 ||
          chain.balance(world.contract_addr) + kPayment != escrow_before ||
          chain.balance(kUserAddr) != user_before)
        throw WrongAnswer("honest settlement refunded instead of paying the cloud");
      log.gas_submit_result.push_back(static_cast<double>(r.gas_used));
    }
    log.settle_ms.push_back(escrow.wall_ms());
    log.settle_cpu.push_back(escrow.cpu_sample());
    log.gas_submit_query.push_back(static_cast<double>(q.gas_used));
  } catch (const net::NetError&) {
    ++log.failed;
  } catch (const net::ServerError&) {
    ++log.failed;
  }
  return true;
}

std::unique_ptr<Client> connect_client(World& world, std::uint64_t seed,
                                       std::size_t index) {
  crypto::Drbg rng = seeded(seed, "user-" + std::to_string(index));
  return std::unique_ptr<Client>(new Client{
      core::DataUser(world.owner->export_user_state(), std::move(rng)),
      net::SlicerClientChannel(world.server->port(), kTenant)});
}

// --- reporting ------------------------------------------------------------------

class Json {
 public:
  Json& num(const std::string& key, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(key, s.str());
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(ch) < 0x20) continue;
      out.push_back(ch);
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : sum(v) / static_cast<double>(v.size());
}

/// The deterministic cost counters: the warm-up script's work, plus the
/// gas of every settlement. They depend only on the seed, never on timing,
/// so they repeat exactly across runs.
std::string cost_counters(const Tally& t, const ClientLog& log,
                          const std::vector<double>& gas_update_shards,
                          const ClientLog& settled) {
  const auto c = [&](const char* name) { return t.counter(name); };
  return Json()
      .num("queries", static_cast<double>(log.queries))
      .num("tokens", static_cast<double>(log.tokens))
      .num("clauses", static_cast<double>(log.clauses))
      .num("round_trips", static_cast<double>(log.round_trips))
      .num("reply_bytes", static_cast<double>(log.reply_bytes))
      .num("results_fetched", c("core.cloud.results_fetched"))
      .num("generic_pows", c("adscrypto.accumulator.generic_pows"))
      .num("fixed_base_pows", c("adscrypto.accumulator.fixed_base_pows"))
      .num("miller_rabin_runs", c("adscrypto.h2p.miller_rabin_runs"))
      .num("primes_derived", c("core.owner.primes_derived"))
      .num("keywords_ingested", c("core.owner.keywords_ingested"))
      .num("proof_cache_hits", c("core.cloud.proof_cache.hits"))
      .num("proof_cache_misses", c("core.cloud.proof_cache.misses"))
      .num("gas_submit_query", sum(settled.gas_submit_query))
      .num("gas_submit_result", sum(settled.gas_submit_result))
      .num("gas_update_shards", sum(gas_update_shards))
      .done();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || argc % 2 == 0 || o.seconds <= 0)
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  return o;
}

int run(const Options& opt) {
  const auto wit = std::find_if(workloads().begin(), workloads().end(),
                                [&](const Workload& w) { return w.name == opt.workload; });
  if (wit == workloads().end())
    throw std::invalid_argument("unknown workload " + opt.workload);
  const Workload& w = *wit;
  const auto inherited = pin_environment(w);
  const int cpu = pin_to_one_cpu();
  // One malloc arena: operations run one at a time on one CPU, so arenas
  // buy nothing, and which thread's arena happens to keep freed memory
  // otherwise moves peak_rss_mb by a fifth from run to run.
  ::mallopt(M_ARENA_MAX, 1);
  speed_probe().start();
  metrics::set_enabled(false);

  Corpus corpus;
  {
    crypto::Drbg rng = seeded(opt.seed, "corpus");
    grow_corpus(corpus, w, rng, w.records, 1);
  }
  (void)accumulator_keys();  // key generation is not set-up time
  Measurements m(opt.trace);
  if (opt.trace) metrics::set_enabled(true);

  std::unique_ptr<World> world;
  for (std::size_t i = 0; i < w.setups; ++i) {
    world.reset();
    world = set_up(w, opt.seed, corpus, m);
  }
  adscrypto::prime_cache_clear();  // the server never saw the owner's primes
  m.log.attempted += w.setups;
  const std::size_t primes_after_setup = world->owner->primes().size();

  // One reading user and one paying user, each with its own connection.
  const std::unique_ptr<Client> client = connect_client(*world, opt.seed, 0);
  const std::unique_ptr<Client> payer = connect_client(*world, opt.seed, 1);
  const std::vector<core::QuerySpec> pool =
      w.pool > 0 ? make_pool(w) : std::vector<core::QuerySpec>{};
  std::vector<BigUint> shard_values;

  // Insert batches: owner insert → APPLY → UPDATE_SHARDS sealed, then the
  // users refresh their trapdoor state and read the new shard values.
  crypto::Drbg insert_rng = seeded(opt.seed, "inserts");
  const auto insert_batch = [&](Measurements& into) {
    grow_corpus(corpus, w, insert_rng, kBatch, corpus.oracle.size() + 1);
    {
      const Phase phase(into.write);
      into.batches.push_back(publish_batch(*world, into, kBatch, [&] {
        if (w.multi)
          return world->owner->insert(std::span<const core::MultiRecord>(
              corpus.multi.end() - kBatch, corpus.multi.end()));
        return world->owner->insert(std::span<const core::Record>(
            corpus.single.end() - kBatch, corpus.single.end()));
      }));
    }
    ++into.log.attempted;
    for (Client* c : {client.get(), payer.get()})
      c->user.refresh(world->owner->export_user_state());
    shard_values = world->contract().stored_shard_values();
  };

  // Warm-up: a fixed script with metrics on — queries, then one insert
  // batch. It warms the caches the workload defines as warm and yields the
  // cost counters.
  Tally warm_tally;
  Measurements warm(false);
  {
    const bool was_on = metrics::enabled();
    metrics::set_enabled(true);
    const Phase phase(warm_tally);
    shard_values = world->contract().stored_shard_values();
    QueryGen gen(w.bits, seeded(opt.seed, "warmup"), nullptr);
    for (std::size_t i = 0; i < w.warmup; ++i)
      run_query(*client, i < pool.size() ? pool[i] : gen.next(), shard_values,
                corpus.oracle, warm.log);
    insert_batch(warm);
    metrics::set_enabled(was_on);
  }

  // Timed rounds. Each round writes first — the workload's insert batches —
  // then reads for its share of --seconds, then settles its share of the
  // paid queries. Every timed read therefore follows a write, so work an
  // insert leaves for the next read lands in the read and settlement
  // figures, and every figure samples the whole run, not one stretch of it.
  // Reads are a closed loop: the next query is sent when the last returns,
  // so one operation runs at a time and its CPU time is its own. A round
  // reads on past its share until it has run its share of kMinQueries, so
  // the p99 has samples above it.
  QueryGen reads(w.bits, seeded(opt.seed, "client-0"), pool.empty() ? nullptr : &pool);
  QueryGen settles(w.bits, seeded(opt.seed, "settle"), nullptr);
  const double segment_ms = opt.seconds * 1e3 / static_cast<double>(w.rounds);
  const std::size_t segment_queries = (kMinQueries + w.rounds - 1) / w.rounds;
  ClientLog paid_log(opt.trace);
  for (std::size_t round = 0, paid = 0, drawn = 0; round < w.rounds; ++round) {
    for (std::size_t b = 0; b < w.batches_per_round; ++b) insert_batch(m);
    {
      const Phase phase(m.read);
      const Stopwatch segment;
      for (std::size_t i = 0; i < segment_queries || segment.wall_ms() < segment_ms; ++i)
        run_query(*client, reads.next(), shard_values, corpus.oracle, m.log);
      m.read_seconds += segment.wall_ms() / 1e3;
    }
    // The workload's own query shape, paid on chain (passes over the pool
    // on hot-reads, so its mean gas is stable). Only the settlement figures
    // and chain spans are kept; paid-query latency is not in the query
    // percentiles.
    for (const std::size_t due = w.settle * (round + 1) / w.rounds; paid < due; ++drawn)
      paid += run_paid_query(*world, *payer,
                             pool.empty() ? settles.next() : pool[drawn % pool.size()],
                             corpus.oracle, paid_log);
  }
  m.log.spans.merge(paid_log.spans, "chain.");
  m.log.settle_ms = paid_log.settle_ms;
  m.log.settle_cpu = paid_log.settle_cpu;
  m.log.gas_submit_query = paid_log.gas_submit_query;
  m.log.gas_submit_result = paid_log.gas_submit_result;
  m.log.attempted += paid_log.attempted;
  m.log.failed += paid_log.failed;

  m.retries += client->channel.stats().retries;
  m.retries += payer->channel.stats().retries;
  m.retries += world->owner_channel->stats().retries;

  speed_probe().stop();

  // --- report -------------------------------------------------------------
  const std::vector<double> query_cost = normalised_ms(m.log.cpu, speed_probe());
  const Percentile p99 = percentile(query_cost, 99);
  const double q = std::max<double>(static_cast<double>(m.log.queries), 1);
  const double unattributed = unattributed_frac(m.log.spans, sum(m.log.latency_ms));
  const double handle_ms = m.read.mean_ms("net.server.handle_ns");
  const double decode_ms = m.read.mean_ms("net.server.decode_ns");
  const double rtt_ms = m.log.spans.mean_ms("query.rtt");
  const double hits = m.read.counter("core.cloud.proof_cache.hits");
  const double misses = m.read.counter("core.cloud.proof_cache.misses");
  const std::vector<Batch>& batches = m.batches;
  const auto per_batch = [&](double Batch::*field) {
    std::vector<double> v;
    for (const Batch& b : batches) v.push_back(b.*field);
    return v;
  };
  std::vector<CpuSample> batch_cpu;
  for (const Batch& b : batches) batch_cpu.push_back(b.cpu);

  Json metrics;
  metrics.num("setup_s", median(normalised_ms(m.setup_cpu, speed_probe())) / 1e3)
      .num("query_cost_p50_ms", median(query_cost))
      .num("query_cost_p99_ms", p99.value)
      .num("query_capacity_qps", 1e3 * static_cast<double>(query_cost.size()) / sum(query_cost))
      .num("vo_bytes_per_query", static_cast<double>(m.log.reply_bytes) / q)
      .num("insert_cost_ms", mean(normalised_ms(batch_cpu, speed_probe())))
      .num("settle_cost_p50_ms", median(normalised_ms(m.log.settle_cpu, speed_probe())))
      .num("gas_per_query", mean(m.log.gas_submit_query) + mean(m.log.gas_submit_result))
      .num("gas_per_update", mean(m.gas_update_shards))
      .num("peak_rss_mb", peak_rss_mb())
      .num("cpu.query_p50_ms", median(cpu_ms(m.log.cpu)))
      .num("cpu.speed_factor", speed_probe().run_factor())
      .num("wall.setup_s", median(m.setup_s))
      .num("wall.query_p50_ms", median(m.log.latency_ms))
      .num("wall.query_p99_ms", percentile(m.log.latency_ms, 99).value)
      .num("wall.query_qps", static_cast<double>(m.log.queries) / m.read_seconds)
      .num("wall.insert_batch_p50_ms", median(per_batch(&Batch::ms)))
      .num("wall.settle_p50_ms", median(m.log.settle_ms))
      .num("failed_frac", static_cast<double>(m.log.failed) /
                              std::max<double>(static_cast<double>(m.log.attempted), 1));
  if (opt.trace) {
    metrics.num("core.user.tokens_ms", m.log.spans.sum_ms("query.tokens") / q)
        .num("core.user.tokens_per_query", static_cast<double>(m.log.tokens) / q)
        .num("core.user.decrypt_ms", m.log.spans.sum_ms("query.decrypt") / q)
        .num("core.query.compile_ms", m.log.spans.sum_ms("query.compile") / q)
        .num("core.query.clauses_per_query", static_cast<double>(m.log.clauses) / q)
        .num("net.rtt_ms", rtt_ms)
        .num("net.server.handle_ms", handle_ms)
        .num("net.server.decode_ms", decode_ms)
        .num("net.wire_ms", rtt_ms - handle_ms)
        .num("net.apply_rtt_ms", mean(per_batch(&Batch::apply_ms)))
        .num("net.retries", static_cast<double>(m.retries))
        .num("core.cloud.search_plan_ms", m.read.sum_ms("core.cloud.search_plan_ns") / q)
        .num("core.cloud.fetch_ms", m.read.sum_ms("core.cloud.fetch_results_ns") / q)
        .num("core.cloud.prove_ms", m.read.sum_ms("core.cloud.prove_ns") / q)
        .num("core.cloud.results_per_query", m.read.counter("core.cloud.results_fetched") / q)
        .num("core.cloud.proof_cache_hit_ratio",
             hits + misses == 0 ? 0 : hits / (hits + misses))
        .num("core.cloud.apply_ms", m.write.mean_ms("core.cloud.apply_ns"))
        .num("core.cloud.precompute_s",
             (m.setup.sum_ms("core.cloud.precompute_witnesses_ns") +
              m.setup.sum_ms("adscrypto.sharded.refresh_ns")) / 1e3 / w.setups)
        .num("adscrypto.witness_ms", m.read.sum_ms("adscrypto.accumulator.witness_ns") / q)
        .num("adscrypto.refresh_ms",
             m.write.sum_ms("adscrypto.sharded.refresh_ns") /
                 static_cast<double>(std::max<std::size_t>(batches.size(), 1)))
        .num("adscrypto.h2p_ms", m.read.sum_ms("adscrypto.h2p.search_ns") / q)
        .num("adscrypto.mr_runs_per_query", m.read.counter("adscrypto.h2p.miller_rabin_runs") / q)
        .num("adscrypto.pows_per_op",
             (m.read.counter("adscrypto.accumulator.generic_pows") +
              m.read.counter("adscrypto.accumulator.fixed_base_pows")) / q)
        .num("core.verify.plan_ms", m.log.spans.sum_ms("query.verify") / q)
        .num("core.verify.tokens_per_query", static_cast<double>(m.log.tokens_verified) / q)
        .num("core.owner.index_ms", mean(per_batch(&Batch::index_ms)))
        .num("core.owner.ads_ms", mean(per_batch(&Batch::ads_ms)))
        .num("core.owner.primes_per_batch", mean(per_batch(&Batch::primes)))
        .num("chain.seal_ms", m.log.spans.mean_ms("chain.seal"))
        .num("chain.submit_result_ms", m.log.spans.mean_ms("chain.submit_result"))
        .num("chain.gas.submit_query", mean(m.log.gas_submit_query))
        .num("chain.gas.submit_result", mean(m.log.gas_submit_result))
        .num("chain.gas.update_shards", mean(m.gas_update_shards))
        .num("ledger.unattributed_frac", unattributed);
  }

  Json env_in, env_eff;
  for (const auto& [k, v] : inherited) env_in.str(k, v);
  for (const auto& [k, v] : slicer_environment()) env_eff.str(k, v);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  const std::string config =
      Json()
          .str("workload", w.name)
          .num("seed", static_cast<double>(opt.seed))
          .num("seconds", opt.seconds)
          .num("trace", opt.trace ? 1 : 0)
          .str("commit", commit != nullptr ? commit : "unknown")
          .str("witness_mode", w.precompute ? "precomputed" : "on-demand")
          .num("proof_cache_capacity", static_cast<double>(w.proof_cache))
          .num("shards", static_cast<double>(kShards))
          .num("server_pool_lanes", static_cast<double>(ThreadPool::instance().thread_count()))
          .num("dispatch_lanes", kServerLanes)
          .num("pinned_cpu", cpu)
          .num("clients", 1)
          .num("corpus_records", static_cast<double>(w.records))
          .num("value_bits", static_cast<double>(w.bits))
          .num("prime_count_after_setup", static_cast<double>(primes_after_setup))
          .num("prime_count_final", static_cast<double>(world->owner->primes().size()))
          .str("read_path", default_aggregated() ? "aggregated" : "per-token")
          .num("setups", w.setups)
          .num("rounds", static_cast<double>(w.rounds))
          .num("query_samples", static_cast<double>(p99.samples))
          .num("samples_above_p99", static_cast<double>(p99.above))
          .raw("env_inherited", env_in.done())
          .raw("env_effective", env_eff.done())
          .done();
  std::printf("{\"config\": %s}\n", config.c_str());
  std::printf("{\"counters\": %s}\n",
              cost_counters(warm_tally, warm.log, warm.gas_update_shards, m.log).c_str());
  if (opt.trace && decode_ms > handle_ms)
    std::fprintf(stderr,
                 "perfbench: warning: net.server.decode_ms (%.3f) exceeds "
                 "handle time (%.3f); it likely times idle socket reads\n",
                 decode_ms, handle_ms);
  bool correct = true;
  if (p99.above < kMinAboveP99) {
    std::fprintf(stderr, "perfbench: only %zu samples above p99 (%zu total; need %zu)\n",
                 p99.above, p99.samples, kMinAboveP99);
    correct = false;
  }
  if (opt.trace && unattributed > kLedgerTolerance) {
    std::fprintf(stderr, "perfbench: ledger leaves %.1f%% of latency unattributed (> %.0f%%)\n",
                 unattributed * 100, kLedgerTolerance * 100);
    correct = false;
  }
  std::printf("%s\n", Json()
                          .raw("correct", correct ? "true" : "false")
                          .num("attempted", static_cast<double>(m.log.attempted))
                          .num("failed", static_cast<double>(m.log.failed))
                          .raw("metrics", metrics.done())
                          .done()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const perfbench::WrongAnswer& e) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
