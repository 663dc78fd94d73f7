// Robustness soak: Byzantine-cloud detection rates, flaky-chain retry
// behavior, hostile-chain fork/reorg settlement, mempool-flood pressure,
// one-tenant wire flooding, crash-recovery time, and the disarmed
// fault-site overhead. Emits BENCH_robustness.json (consumed by the
// robustness-soak CI job and the check_bench_regression.py structural
// gates).
//
// Knobs: SLICER_SOAK_SEEDS (default 20) sizes the reorg-dispute seed
// sweep; SLICER_FINALITY_DEPTH sets the client finality tolerance the
// dispute scenario reads at (the nightly-depth CI job sweeps {1, 3, 6}).
//
// The correctness guarantees (0 false accepts / 0 false rejects over all
// seeds, exactly-once escrow settlement under reorgs, bit-identical
// recovery, bounded victim-tenant latency under flood) are enforced by the
// unit tests; this binary measures and reports the same machinery at bench
// scale, and exits non-zero if any soak invariant is violated.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "chain/finality.hpp"
#include "chain/slicer_contract.hpp"
#include "chain/tx_submitter.hpp"
#include "common/env.hpp"
#include "common/fault.hpp"
#include "core/adversary.hpp"
#include "net/client.hpp"
#include "net/server.hpp"

namespace {

using namespace slicer;
using namespace slicer::bench;

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Taxonomy soak against a bench-scale world. Returns false on any false
/// accept / false reject.
bool soak_detection(BenchJson& json) {
  const std::size_t count = static_cast<std::size_t>(200 * scale());
  World& world = cached_world(8, count);
  world.cloud->precompute_witnesses();  // O(1) VO per query in the soak loop

  constexpr int kSeeds = 5;
  bool ok = true;
  std::uint64_t benign_cases = 0;
  core::RecordId stale_id = 100'000;

  const auto start = std::chrono::steady_clock::now();
  for (const core::Tamper tamper : core::kAllTampers) {
    std::uint64_t cases = 0, detected = 0;
    double tamper_ms = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto tokens = world.user->make_tokens(
          query_values(8, kSeeds, "soak")[static_cast<std::size_t>(seed)],
          core::MatchCondition::kGreater);
      core::MaliciousCloud mal(*world.cloud, tamper,
                               static_cast<std::uint64_t>(seed));
      if (tamper == core::Tamper::kStaleReplay) {
        mal.record_stale(tokens);
        std::vector<core::Record> extra = {{stale_id++, 42}};
        world.cloud->apply(world.owner->insert(extra));
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = mal.search(tokens);
      const bool accepted = core::verify_query(
          world.acc_params, world.cloud->shard_values(), tokens,
          out.replies, world.config.prime_bits).verified;
      tamper_ms += ms_since(t0);
      if (!out.tampered) continue;
      ++cases;
      if (core::tamper_is_benign(tamper)) {
        ++benign_cases;
        if (accepted) ++detected;  // benign: "detected" = correctly accepted
        else {
          std::printf("FALSE REJECT: %s seed=%d\n",
                      std::string(core::tamper_name(tamper)).c_str(), seed);
          ok = false;
        }
      } else if (!accepted) {
        ++detected;
      } else {
        std::printf("FALSE ACCEPT: %s seed=%d\n",
                    std::string(core::tamper_name(tamper)).c_str(), seed);
        ok = false;
      }
    }
    const double rate = cases ? static_cast<double>(detected) /
                                    static_cast<double>(cases)
                              : 1.0;
    std::printf("tamper %-22s cases %3llu  %s %.0f%%  (%.1f ms)\n",
                std::string(core::tamper_name(tamper)).c_str(),
                static_cast<unsigned long long>(cases),
                core::tamper_is_benign(tamper) ? "accepted" : "detected",
                rate * 100.0, tamper_ms);
    json.add({std::string("detection/") + std::string(core::tamper_name(tamper)),
              tamper_ms,
              static_cast<std::int64_t>(cases),
              {{"detection_rate", rate},
               {"benign", core::tamper_is_benign(tamper) ? 1.0 : 0.0}}});
  }
  json.add({"detection/total", ms_since(start), kSeeds, {}});
  (void)benign_cases;
  return ok;
}

/// Plan-level taxonomy soak: the clause batch of a planner query is the
/// attack surface (drop a clause reply, swap two clauses' replies, serve
/// one clause from a pre-update recording). Each seed batches a gt/lt
/// clause pair. Returns false on any false accept (tampered batch
/// verifying) or false reject (honest batch failing).
bool soak_plan_detection(BenchJson& json) {
  const std::size_t count = static_cast<std::size_t>(200 * scale());
  World& world = cached_world(8, count);
  world.cloud->precompute_witnesses();

  constexpr int kSeeds = 5;
  bool ok = true;
  core::RecordId stale_id = 300'000;

  const auto make_requests = [&world](std::uint64_t pivot) {
    std::vector<core::ClauseRequest> requests(2);
    requests[0].tokens =
        world.user->make_tokens(pivot, core::MatchCondition::kGreater);
    requests[1].tokens =
        world.user->make_tokens(pivot, core::MatchCondition::kLess);
    return requests;
  };

  // Honest control: the plan verifier must accept every untampered batch.
  {
    std::uint64_t accepted = 0;
    double honest_ms = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto requests = make_requests(
          query_values(8, kSeeds, "plan-soak")[static_cast<std::size_t>(seed)]);
      const auto t0 = std::chrono::steady_clock::now();
      const auto replies = world.cloud->search_plan(requests);
      const auto pv =
          core::verify_plan(world.acc_params, world.cloud->shard_values(),
                            requests, replies, world.config.prime_bits);
      honest_ms += ms_since(t0);
      if (pv.verified) {
        ++accepted;
      } else {
        std::printf("FALSE REJECT: plan_honest seed=%d\n", seed);
        ok = false;
      }
    }
    const double rate = static_cast<double>(accepted) / kSeeds;
    std::printf("tamper %-22s cases %3d  accepted %.0f%%  (%.1f ms)\n",
                "plan_honest", kSeeds, rate * 100.0, honest_ms);
    json.add({"detection/plan_honest",
              honest_ms,
              kSeeds,
              {{"detection_rate", rate}, {"benign", 1.0}}});
  }

  for (const core::Tamper tamper : core::kPlanTampers) {
    std::uint64_t cases = 0, detected = 0;
    double tamper_ms = 0;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const std::uint64_t pivot =
          query_values(8, kSeeds, "plan-soak")[static_cast<std::size_t>(seed)];
      const auto requests = make_requests(pivot);
      core::MaliciousCloud mal(*world.cloud, tamper,
                               static_cast<std::uint64_t>(seed));
      if (tamper == core::Tamper::kStaleClauseVO) {
        mal.record_stale_plan(requests);
        // Insert a value adjacent to the pivot so at least one clause's
        // honest reply genuinely changes and the recording goes stale.
        std::vector<core::Record> extra = {{stale_id++, (pivot + 1) & 0xFF}};
        world.cloud->apply(world.owner->insert(extra));
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = mal.search_plan(requests);
      const auto pv =
          core::verify_plan(world.acc_params, world.cloud->shard_values(),
                            requests, out.replies, world.config.prime_bits);
      tamper_ms += ms_since(t0);
      if (!out.tampered) continue;
      ++cases;
      if (!pv.verified) {
        ++detected;
      } else {
        std::printf("FALSE ACCEPT: %s seed=%d\n",
                    std::string(core::tamper_name(tamper)).c_str(), seed);
        ok = false;
      }
    }
    const double rate = cases ? static_cast<double>(detected) /
                                    static_cast<double>(cases)
                              : 1.0;
    std::printf("tamper %-22s cases %3llu  detected %.0f%%  (%.1f ms)\n",
                std::string(core::tamper_name(tamper)).c_str(),
                static_cast<unsigned long long>(cases), rate * 100.0,
                tamper_ms);
    json.add({std::string("detection/") + std::string(core::tamper_name(tamper)),
              tamper_ms,
              static_cast<std::int64_t>(cases),
              {{"detection_rate", rate}, {"benign", 0.0}}});
  }
  return ok;
}

/// Full contract flows over a flaky chain; reports retry counters.
bool soak_chain(BenchJson& json) {
  const std::size_t count = static_cast<std::size_t>(200 * scale());
  World& world = cached_world(8, count);

  using namespace slicer::chain;
  Blockchain bc({Address::from_label("sealer-a"),
                 Address::from_label("sealer-b")});
  const Address owner_addr = Address::from_label("bench-owner");
  const Address user_addr = Address::from_label("bench-user");
  const Address cloud_addr = Address::from_label("bench-cloud");
  bc.credit(owner_addr, 1'000'000'000);
  bc.credit(user_addr, 1'000'000'000);
  bc.credit(cloud_addr, 1'000'000'000);

  TxSubmitter submitter(bc, SubmitterConfig{.max_attempts = 64});
  const Address contract_addr = bc.submit_deployment(
      owner_addr, std::make_unique<SlicerContract>(),
      SlicerContract::encode_ctor(world.acc_params,
                                  world.owner->accumulator_value(),
                                  world.config.prime_bits));
  submitter.seal_with_retry();

  ScopedFaultPlan plan(
      "chain.mempool.drop=p:0.2;chain.mempool.duplicate=p:0.2;"
      "chain.seal.validator_down=p:0.25;seed=1");

  constexpr int kFlows = 10;
  int completed = 0, verified = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int flow = 0; flow < kFlows; ++flow) {
    const auto tokens = world.user->make_tokens(
        query_values(8, kFlows, "chain-soak")[static_cast<std::size_t>(flow)],
        core::MatchCondition::kGreater);
    const Receipt qr = submitter.submit_and_wait(bc.make_tx(
        user_addr, contract_addr, 10'000, encode_submit_query(tokens)));
    if (!qr.success) continue;
    Reader out(qr.output);
    const std::uint64_t query_id = out.u64();
    const auto replies = world.cloud->search(tokens);
    const auto proven =
        attach_counters(tokens, replies, world.config.prime_bits);
    const Receipt rr = submitter.submit_and_wait(
        bc.make_tx(cloud_addr, contract_addr, 0,
                   encode_submit_result(query_id, tokens, proven)));
    if (!rr.success) continue;
    ++completed;
    Reader vr(rr.output);
    if (vr.u8() == 1) ++verified;
  }
  const double total_ms = ms_since(start);

  const SubmitterStats& st = submitter.stats();
  std::printf(
      "chain soak: %d/%d flows, %d verified | submits %llu resubmits %llu "
      "seal attempts %llu failures %llu backoff %llu ms (virtual)\n",
      completed, kFlows, verified, static_cast<unsigned long long>(st.submits),
      static_cast<unsigned long long>(st.resubmits),
      static_cast<unsigned long long>(st.seal_attempts),
      static_cast<unsigned long long>(st.seal_failures),
      static_cast<unsigned long long>(st.backoff_ms));
  json.add({"chain/flows",
            total_ms,
            kFlows,
            {{"completed", static_cast<double>(completed)},
             {"verified", static_cast<double>(verified)},
             {"submits", static_cast<double>(st.submits)},
             {"resubmits", static_cast<double>(st.resubmits)},
             {"seal_failures", static_cast<double>(st.seal_failures)},
             {"backoff_virtual_ms", static_cast<double>(st.backoff_ms)}}});
  return completed == kFlows && verified == kFlows && bc.verify_chain();
}

/// Crash mid-insert, restore from snapshot, redo — reports recovery time
/// and checks the resumed accumulator is bit-identical.
bool soak_recovery(BenchJson& json) {
  const std::size_t count = static_cast<std::size_t>(200 * scale());
  const auto records = gen_records(8, count, /*id_base=*/200'000, "recovery");
  const std::size_t split = count * 3 / 4;
  const std::span<const core::Record> batch1(records.data(), split);
  const std::span<const core::Record> batch2(records.data() + split,
                                             count - split);

  // Reference: two batches straight through.
  auto steady = make_world(8, 0, /*ingest=*/false);
  steady->cloud->apply(steady->owner->insert(batch1));
  steady->cloud->apply(steady->owner->insert(batch2));

  // Crashing run (same deterministic identity).
  auto crashing = make_world(8, 0, /*ingest=*/false);
  crashing->cloud->apply(crashing->owner->insert(batch1));
  const Bytes owner_snap = crashing->owner->serialize_state();
  const Bytes cloud_snap = crashing->cloud->serialize_state();
  bool crashed = false;
  {
    ScopedFaultPlan plan("core.owner.ingest.worker=nth:1");
    try {
      crashing->owner->insert(batch2);
    } catch (const FaultError&) {
      crashed = true;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto resumed = make_world(8, 0, /*ingest=*/false);
  resumed->owner->restore_state(owner_snap);
  resumed->cloud->restore_state(cloud_snap);
  const double restore_ms = ms_since(start);
  resumed->cloud->apply(resumed->owner->insert(batch2));
  const double recovery_ms = ms_since(start);

  const bool identical =
      resumed->owner->accumulator_value() ==
          steady->owner->accumulator_value() &&
      resumed->cloud->serialize_state() == steady->cloud->serialize_state();
  std::printf("recovery: restore %.2f ms, restore+redo %.2f ms, "
              "bit-identical %s\n",
              restore_ms, recovery_ms, identical ? "yes" : "NO");
  json.add({"recovery/restore", restore_ms, 1, {}});
  json.add({"recovery/total",
            recovery_ms,
            1,
            {{"bit_identical", identical ? 1.0 : 0.0},
             {"snapshot_bytes", static_cast<double>(owner_snap.size() +
                                                    cloud_snap.size())}}});
  return crashed && identical;
}

/// Tokens for a K-value query (the dispute scenarios sweep K ∈ {1, 4}).
std::vector<core::SearchToken> dispute_tokens(World& world, int k,
                                              const std::string& seed) {
  std::vector<core::SearchToken> tokens;
  for (const std::uint64_t v :
       query_values(8, static_cast<std::size_t>(k), seed)) {
    const auto t = world.user->make_tokens(v, core::MatchCondition::kGreater);
    tokens.insert(tokens.end(), t.begin(), t.end());
  }
  return tokens;
}

/// Escrowed query → result flows while `chain.reorg.during_dispute` keeps
/// orphaning the blocks that settle them, across SLICER_SOAK_SEEDS seeds
/// (default 20) and K ∈ {1, 4} tokens-per-query. Invariants, checked with
/// the faults disarmed:
///   * the escrow settles exactly once — the user pays each honest query's
///     payment once and the cloud receives it once, even when the receipt
///     the submitter first saw was reorged away (fees are pinned to zero so
///     the balance deltas are exact);
///   * a tampered result is refunded exactly once (zero false accepts), an
///     honest one always verifies (zero false rejects);
///   * the client read path (FinalityReader at SLICER_FINALITY_DEPTH) never
///     returns a verdict anchored to a reorged-away digest — a hostile seal
///     lands inside every fetch window, and StaleDigest retries absorb it.
/// The submitter waits out max(2, client depth) blocks of burial: the
/// during_dispute adversary reorgs at most two blocks, and no settlement
/// guarantee is possible below the adversary's reorg depth.
bool soak_reorg_dispute(BenchJson& json) {
  const std::size_t count = static_cast<std::size_t>(200 * scale());
  World& world = cached_world(8, count);
  const std::size_t seeds = env::size_knob("SLICER_SOAK_SEEDS", 20, 1, 1000);

  using namespace slicer::chain;
  const std::size_t client_depth = FinalityReader::default_depth();
  const std::uint64_t settle_depth =
      std::max<std::uint64_t>(2, client_depth);
  constexpr std::uint64_t kPayment = 10'000;

  bool ok = true;
  std::uint64_t total_reexec_txs = 0, total_reexec_gas = 0;
  for (const int k : {1, 4}) {
    std::uint64_t reorgs = 0, orphaned = 0, reorg_resubmits = 0;
    std::uint64_t stale_retries = 0, flow_gas = 0;
    std::uint64_t false_accepts = 0, false_rejects = 0, bad_settlements = 0;
    std::size_t honest_flows = 0, tampered_flows = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t seed = 0; seed < seeds; ++seed) {
      Blockchain bc({Address::from_label("val-0"), Address::from_label("val-1"),
                     Address::from_label("val-2")});
      const Address user_addr = Address::from_label("dispute-user");
      const Address cloud_addr = Address::from_label("dispute-cloud");
      const Address owner_addr = Address::from_label("dispute-owner");
      bc.credit(user_addr, 1'000'000'000);
      bc.credit(cloud_addr, 1'000'000'000);
      bc.credit(owner_addr, 1'000'000'000);

      // Zero fees keep the settlement balance check exact: the only money
      // that may move between user and cloud is the escrowed payment.
      TxSubmitter submitter(
          bc, SubmitterConfig{.max_attempts = 128,
                              .finality_depth = settle_depth,
                              .fee_bump_base = 0});
      const Address contract_addr = bc.submit_deployment(
          owner_addr, std::make_unique<SlicerContract>(),
          SlicerContract::encode_ctor(world.acc_params,
                                      world.owner->accumulator_value(),
                                      world.config.prime_bits));
      submitter.seal_with_retry();
      // Bury the deployment below every depth the scenario reads at.
      for (std::size_t i = 0; i < client_depth + 1; ++i)
        submitter.seal_with_retry();

      const auto tokens = dispute_tokens(
          world, k, "dispute-" + std::to_string(seed) + "-" + std::to_string(k));
      const auto replies = world.cloud->search(tokens);
      const auto proven =
          attach_counters(tokens, replies, world.config.prime_bits);

      const std::uint64_t user0 = bc.balance(user_addr);
      const std::uint64_t cloud0 = bc.balance(cloud_addr);
      const bool tamper = seed % 4 == 0 && !proven.empty();
      bool honest_settled = false;  // this seed's escrow went to the cloud
      {
        ScopedFaultPlan plan(
            "chain.reorg.during_dispute=p:0.3;chain.fork.compete=p:0.15;"
            "seed=" + std::to_string(seed * 2 + static_cast<std::size_t>(k)));

        // Honest flow: pay, answer, verify → the cloud must be paid once.
        const Receipt qr = submitter.submit_and_wait(
            bc.make_tx(user_addr, contract_addr, kPayment,
                       encode_submit_query(tokens)));
        if (!qr.success) {
          std::printf("reorg_dispute: K=%d seed=%zu query reverted: %s\n", k,
                      seed, qr.revert_reason.c_str());
          ++bad_settlements;
          ok = false;
        } else {
          Reader out(qr.output);
          const std::uint64_t query_id = out.u64();
          const Receipt rr = submitter.submit_and_wait(
              bc.make_tx(cloud_addr, contract_addr, 0,
                         encode_submit_result(query_id, tokens, proven)));
          flow_gas += qr.gas_used + rr.gas_used;
          if (!rr.success || Reader(rr.output).u8() != 1) {
            std::printf("FALSE REJECT: reorg_dispute K=%d seed=%zu (%s)\n", k,
                        seed, rr.revert_reason.c_str());
            ++false_rejects;
            ok = false;
          } else {
            honest_settled = true;
          }
          ++honest_flows;
        }

        // Tampered flow every fourth seed: the refund must land exactly
        // once and the forged counter must never verify.
        if (tamper) {
          const Receipt tq = submitter.submit_and_wait(
              bc.make_tx(user_addr, contract_addr, kPayment,
                         encode_submit_query(tokens)));
          if (tq.success) {
            auto forged = proven;
            forged[0].prime_counter += 1;
            const Receipt tr = submitter.submit_and_wait(
                bc.make_tx(cloud_addr, contract_addr, 0,
                           encode_submit_result(Reader(tq.output).u64(),
                                                tokens, forged)));
            if (tr.success && Reader(tr.output).u8() == 1) {
              std::printf("FALSE ACCEPT: reorg_dispute K=%d seed=%zu\n", k,
                          seed);
              ++false_accepts;
              ok = false;
            }
            ++tampered_flows;
          }
        }

        // Bury the settled flows below the coming anchor attack: the deep
        // fork below must only orphan these empty buffer blocks.
        for (std::size_t i = 0; i < client_depth + 2; ++i)
          submitter.seal_with_retry();

        // Client read path on the same hostile chain. The first fetch
        // window mounts an adaptive adversary: a branch grown from one
        // block *below* the anchor overtakes the tip, so the digest the
        // verification is running against is swept away mid-flight at any
        // configured depth — StaleDigest retries must absorb it. Later
        // windows seal normally (the armed fault can still reorg those).
        FinalityReader reader(bc, contract_addr, client_depth);
        bool attacked = false;
        try {
          const FinalityVerdict verdict = verify_with_finality(
              reader, world.acc_params, tokens,
              [&](const TrustedDigest&) {
                if (!attacked) {
                  attacked = true;
                  if (const Block* base = bc.block_at_depth(client_depth + 1)) {
                    Bytes tip = base->header_hash();
                    for (std::size_t i = 0; i < client_depth + 2; ++i)
                      tip = bc.seal_block_on(tip, (i + 1) % 3, {})
                                .header_hash();
                  }
                } else {
                  try {
                    bc.seal_block();
                  } catch (const ValidatorUnavailable&) {
                  }
                }
                return world.cloud->search(tokens);
              },
              world.config.prime_bits, /*max_retries=*/12);
          stale_retries += verdict.stale_retries;
          if (!verdict.verified) {
            std::printf("FALSE REJECT: finality read K=%d seed=%zu\n", k,
                        seed);
            ++false_rejects;
            ok = false;
          }
        } catch (const StaleDigest& e) {
          std::printf("reorg_dispute: K=%d seed=%zu finality retries "
                      "exhausted: %s\n", k, seed, e.what());
          ++false_rejects;
          ok = false;
        }
      }

      // Exactly-once settlement, judged on the final canonical state: one
      // honest payment moved, every tampered escrow refunded. Gas is
      // burned from each sender per canonical execution (stale-nonce
      // duplicates included), so the exact equation sums gas from the
      // canonical receipts — a double payment or a double refund would
      // shift it by exactly kPayment.
      const auto burned_by = [&bc](const Address& who) {
        std::uint64_t gas = 0;
        std::size_t idx = 0;
        for (const Block& b : bc.blocks())
          for (const Transaction& t : b.transactions) {
            const Receipt& r = bc.receipts()[idx++];
            if (t.from == who) gas += r.gas_used;
          }
        return gas;
      };
      const std::uint64_t paid = honest_settled ? kPayment : 0;
      if (bc.balance(user_addr) + paid + burned_by(user_addr) != user0 ||
          bc.balance(cloud_addr) + burned_by(cloud_addr) != cloud0 + paid) {
        std::printf("SETTLEMENT VIOLATION: reorg_dispute K=%d seed=%zu "
                    "user %llu->%llu cloud %llu->%llu\n",
                    k, seed, static_cast<unsigned long long>(user0),
                    static_cast<unsigned long long>(bc.balance(user_addr)),
                    static_cast<unsigned long long>(cloud0),
                    static_cast<unsigned long long>(bc.balance(cloud_addr)));
        ++bad_settlements;
        ok = false;
      }
      if (!bc.verify_chain()) {
        std::printf("AUDIT FAILURE: reorg_dispute K=%d seed=%zu\n", k, seed);
        ok = false;
      }
      reorgs += bc.stats().reorgs;
      orphaned += bc.stats().orphaned_txs;
      total_reexec_txs += bc.stats().reexecuted_txs;
      total_reexec_gas += bc.stats().reexec_gas;
      reorg_resubmits += submitter.stats().reorg_resubmits;
    }
    const double total_ms = ms_since(start);
    std::printf(
        "reorg dispute K=%d: %zu seeds, %zu honest + %zu tampered flows | "
        "reorgs %llu orphaned %llu reorg-resubmits %llu stale-retries %llu\n",
        k, seeds, honest_flows, tampered_flows,
        static_cast<unsigned long long>(reorgs),
        static_cast<unsigned long long>(orphaned),
        static_cast<unsigned long long>(reorg_resubmits),
        static_cast<unsigned long long>(stale_retries));
    json.add({"reorg_dispute/K" + std::to_string(k),
              total_ms,
              static_cast<std::int64_t>(seeds),
              {{"seeds", static_cast<double>(seeds)},
               {"finality_depth", static_cast<double>(client_depth)},
               {"honest_flows", static_cast<double>(honest_flows)},
               {"tampered_flows", static_cast<double>(tampered_flows)},
               {"reorgs", static_cast<double>(reorgs)},
               {"orphaned_txs", static_cast<double>(orphaned)},
               {"reorg_resubmits", static_cast<double>(reorg_resubmits)},
               {"stale_retries", static_cast<double>(stale_retries)},
               {"flow_gas", static_cast<double>(flow_gas)},
               {"false_accepts", static_cast<double>(false_accepts)},
               {"false_rejects", static_cast<double>(false_rejects)},
               {"settlement_violations",
                static_cast<double>(bad_settlements)}}});
  }
  // Table II-style contention row: what a reorg costs in re-executed gas
  // (EXPERIMENTS.md cites this from BENCH_robustness.json).
  json.add({"contention/reorg_reexec",
            0.0,
            static_cast<std::int64_t>(total_reexec_txs),
            {{"reexecuted_txs", static_cast<double>(total_reexec_txs)},
             {"reexec_gas", static_cast<double>(total_reexec_gas)},
             {"gas_per_reexec",
              total_reexec_txs
                  ? static_cast<double>(total_reexec_gas) /
                        static_cast<double>(total_reexec_txs)
                  : 0.0}}});
  return ok;
}

/// Transfers through a capped mempool while `chain.mempool.flood` keeps
/// stuffing it with better-paying filler: every transfer must land exactly
/// once (fee-bump resubmission outbids the flood), and the gas the sender
/// pays per landed transfer stays flat — evicted and dropped submissions
/// execute nothing.
bool soak_mempool_flood(BenchJson& json) {
  using namespace slicer::chain;
  Blockchain bc({Address::from_label("val-0"), Address::from_label("val-1")},
                GasSchedule{}, BlockchainConfig{.mempool_cap = 8});
  const Address alice = Address::from_label("flood-alice");
  const Address bob = Address::from_label("flood-bob");
  bc.credit(alice, 1'000'000'000);

  TxSubmitter submitter(bc, SubmitterConfig{.max_attempts = 64});
  constexpr int kTransfers = 24;
  constexpr std::uint64_t kAmount = 1'000;
  std::uint64_t transfer_gas = 0;
  int completed = 0;
  const auto start = std::chrono::steady_clock::now();
  {
    ScopedFaultPlan plan(
        "chain.mempool.flood=p:0.5;chain.mempool.drop=p:0.1;seed=11");
    for (int i = 0; i < kTransfers; ++i) {
      const Receipt r =
          submitter.submit_and_wait(bc.make_tx(alice, bob, kAmount));
      transfer_gas += r.gas_used;
      if (r.success) ++completed;
    }
  }
  const double total_ms = ms_since(start);

  const SubmitterStats& st = submitter.stats();
  const ChainStats& cs = bc.stats();
  const bool exact = bc.balance(bob) == kAmount * kTransfers;
  const bool ok =
      completed == kTransfers && exact && bc.verify_chain();
  std::printf(
      "mempool flood: %d/%d transfers | evicted %llu flood-injected %llu "
      "fee-bumps %llu resubmits %llu | exactly-once %s\n",
      completed, kTransfers, static_cast<unsigned long long>(cs.mempool_evicted),
      static_cast<unsigned long long>(cs.flood_injected),
      static_cast<unsigned long long>(st.fee_bumps),
      static_cast<unsigned long long>(st.resubmits), exact ? "yes" : "NO");
  json.add({"mempool_flood/transfers",
            total_ms,
            kTransfers,
            {{"completed", static_cast<double>(completed)},
             {"mempool_evicted", static_cast<double>(cs.mempool_evicted)},
             {"flood_injected", static_cast<double>(cs.flood_injected)},
             {"fee_bumps", static_cast<double>(st.fee_bumps)},
             {"resubmits", static_cast<double>(st.resubmits)},
             {"exactly_once", exact ? 1.0 : 0.0}}});
  // Table II-style contention row: gas per landed transfer under flood —
  // exactly the uncontended transfer cost, because evictions burn no gas.
  json.add({"contention/mempool_eviction",
            0.0,
            kTransfers,
            {{"transfer_gas", static_cast<double>(transfer_gas)},
             {"gas_per_transfer",
              completed ? static_cast<double>(transfer_gas) / completed : 0.0},
             {"evictions", static_cast<double>(cs.mempool_evicted)}}});
  return ok;
}

/// One tenant floods the wire server; a victim tenant's latency must stay
/// bounded. Phases: (1) unloaded victim p99 baseline, (2) the
/// `net.tenant.flood` fault site drains the flooder's bucket on demand
/// (counted via the channel's throttled stat), (3) two flooder threads
/// hammer their own tenant while the victim is measured again — per-tenant
/// token buckets must keep the victim's p99 within 3x its unloaded
/// baseline (absolute floor 5 ms, so sanitizer-skewed runs self-normalize).
bool soak_wire_flood(BenchJson& json) {
  auto world = make_world(8, 0, /*ingest=*/false);

  net::ServerConfig cfg;
  cfg.tenant_qps = 2'000;
  cfg.tenant_burst = 256;
  net::SlicerServer server(cfg);
  server.add_tenant("victim", std::move(world->cloud));
  server.add_tenant("flooder",
                    std::make_unique<core::CloudServer>(
                        adscrypto::default_trapdoor_public_key(),
                        world->acc_params, world->config.prime_bits, 0));
  server.start();
  const std::uint16_t port = server.port();

  // The victim paces itself under its own bucket's sustained rate; what is
  // measured is per-request server latency, not client-side throttling.
  const auto measure_victim = [&] {
    net::SlicerClientChannel victim(port, "victim");
    std::vector<double> lat;
    constexpr int kProbes = 150;
    lat.reserve(kProbes);
    for (int i = 0; i < kProbes; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      victim.ping();
      lat.push_back(ms_since(t0));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return percentile(std::move(lat), 0.99);
  };

  const double base_p99 = measure_victim();

  // Fault-assisted starvation: every other flooder request hits the
  // drained-bucket path regardless of its actual rate.
  std::uint64_t fault_throttled = 0;
  {
    ScopedFaultPlan plan("net.tenant.flood=every:2");
    net::SlicerClientChannel flooder(
        port, "flooder",
        net::ChannelConfig{.max_attempts = 2, .base_backoff_ms = 1,
                           .max_backoff_ms = 2});
    for (int i = 0; i < 12; ++i) {
      try {
        flooder.ping();
      } catch (const Error&) {
      }
    }
    fault_throttled = flooder.stats().throttled;
  }

  // Raw-traffic flood: two unthrottleable clients saturate their tenant's
  // bucket while the victim is measured concurrently.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> flood_sent{0};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 2; ++t) {
    flooders.emplace_back([&] {
      net::SlicerClientChannel ch(
          port, "flooder",
          net::ChannelConfig{.max_attempts = 2, .base_backoff_ms = 1,
                             .max_backoff_ms = 2});
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          ch.ping();
        } catch (const Error&) {
        }
        flood_sent.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const double flood_p99 = measure_victim();
  stop.store(true);
  for (auto& t : flooders) t.join();
  server.stop();

  const double bound = std::max(base_p99 * 3.0, 5.0);
  const double ratio = base_p99 > 0 ? flood_p99 / base_p99 : 0;
  const bool ok = flood_p99 <= bound;
  std::printf(
      "wire flood: victim p99 %.3f ms unloaded, %.3f ms flooded (%.2fx, "
      "bound %.3f ms) | flood requests %llu, fault-throttled %llu — %s\n",
      base_p99, flood_p99, ratio, bound,
      static_cast<unsigned long long>(flood_sent.load()),
      static_cast<unsigned long long>(fault_throttled),
      ok ? "OK" : "VIOLATED");
  json.add({"wire_flood/victim_p99",
            flood_p99,
            150,
            {{"base_p99_ms", base_p99},
             {"flood_p99_ms", flood_p99},
             {"p99_ratio", ratio},
             {"p99_bound_ms", bound},
             {"p99_within_bound", ok ? 1.0 : 0.0},
             {"flood_requests", static_cast<double>(flood_sent.load())},
             {"fault_throttled", static_cast<double>(fault_throttled)}}});
  return ok;
}

/// Cost of a disarmed fault site — must be noise (one relaxed atomic load).
void bench_disarmed_overhead(BenchJson& json) {
  FaultInjector::instance().clear();
  constexpr int kIters = 2'000'000;
  volatile bool sink = false;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) sink = fault_point("bench.disarmed.site");
  const double total_ms = ms_since(start);
  const double ns_per_call = total_ms * 1e6 / kIters;
  std::printf("disarmed fault_point: %.2f ns/call\n", ns_per_call);
  json.add({"overhead/disarmed_fault_point",
            total_ms,
            kIters,
            {{"ns_per_call", ns_per_call}}});
  (void)sink;
}

}  // namespace

int main() {
  BenchJson json("robustness");
  bool ok = true;
  ok &= soak_detection(json);
  ok &= soak_plan_detection(json);
  ok &= soak_chain(json);
  ok &= soak_reorg_dispute(json);
  ok &= soak_mempool_flood(json);
  ok &= soak_recovery(json);
  ok &= soak_wire_flood(json);
  bench_disarmed_overhead(json);
  json.write();
  std::printf("robustness soak: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
