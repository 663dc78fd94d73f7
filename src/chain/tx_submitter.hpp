// Reliable transaction submission over a flaky, forking chain.
//
// The mempool can silently drop a transaction (`chain.mempool.drop`), evict
// it under fee pressure (capped pool + `chain.mempool.flood`), the
// rotation's validator can be down at seal time (ValidatorUnavailable), a
// faulty relay can deliver a transaction twice (`chain.mempool.duplicate`),
// and a reorg can orphan a block whose receipt the client already saw
// (`chain.fork.compete`, `chain.reorg.during_dispute`). TxSubmitter turns
// all of that into an at-most-once execution guarantee visible to the
// caller: it retries with capped exponential backoff until a receipt exists
// on the canonical chain — resubmitting with a *fee bump* when the receipt
// is missing (a drop and an eviction are indistinguishable, and only a
// better fee outbids a flooded pool) — and, when `finality_depth` is set,
// keeps sealing until the receipt is buried that deep, resubmitting again
// if a reorg orphans it mid-wait. Gives up with SubmitTimeout after a
// bounded number of attempts.
//
// Resubmission is always safe because each branch consumes an (account,
// nonce) pair exactly once — a replayed duplicate (or a fee-bumped variant
// racing its original) earns a failed "stale nonce" receipt and moves no
// money. The submitter tracks every variant hash it issued and returns the
// first genuine (non-stale) receipt among them.
//
// Backoff is virtual time: the simulation has no wall clock, so the waits a
// real client would sleep are accumulated in stats().backoff_ms for the
// robustness benchmarks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"

namespace slicer::chain {

/// Thrown when a transaction still has no receipt after max_attempts rounds.
class SubmitTimeout : public Error {
 public:
  explicit SubmitTimeout(int attempts)
      : Error("transaction not sealed after " + std::to_string(attempts) +
              " attempts") {}
};

struct SubmitterConfig {
  int max_attempts = 8;               ///< seal rounds before SubmitTimeout
  std::uint64_t base_backoff_ms = 10; ///< first retry delay (virtual ms)
  std::uint64_t max_backoff_ms = 1000;///< exponential backoff cap
  /// Blocks the receipt must be buried under before submit_and_wait
  /// returns. 0 = return on first sighting (the pre-fork behavior). Each
  /// burial wait consumes seal attempts, so raise max_attempts alongside.
  std::uint64_t finality_depth = 0;
  /// First bump applied when resubmitting a fee-0 transaction; the fee
  /// doubles on every further resubmission, capped at max_fee.
  std::uint64_t fee_bump_base = 16;
  std::uint64_t max_fee = std::uint64_t{1} << 20;  ///< fee escalation cap
};

/// Counters for the robustness soak (BENCH_robustness.json).
struct SubmitterStats {
  std::uint64_t submits = 0;        ///< submit() calls issued to the chain
  std::uint64_t resubmits = 0;      ///< retries after a missing receipt
  std::uint64_t seal_attempts = 0;
  std::uint64_t seal_failures = 0;  ///< ValidatorUnavailable caught
  std::uint64_t backoff_ms = 0;     ///< total virtual backoff accumulated
  std::uint64_t fee_bumps = 0;      ///< resubmissions that raised the fee
  std::uint64_t reorg_resubmits = 0;///< receipt seen, then orphaned
};

class TxSubmitter {
 public:
  explicit TxSubmitter(Blockchain& chain, SubmitterConfig cfg = {})
      : chain_(chain), cfg_(cfg) {}

  /// Submits `tx` and seals blocks until a genuine receipt for it (or a
  /// fee-bumped variant) exists on the canonical chain — buried
  /// cfg.finality_depth blocks deep when that is non-zero. Retries dropped
  /// or evicted submissions with a fee bump, validator outages with
  /// backoff, and reorg-orphaned receipts with a fresh resubmission.
  /// Throws SubmitTimeout after cfg.max_attempts seal rounds.
  Receipt submit_and_wait(const Transaction& tx);

  /// Seals one block, retrying validator outages with backoff. Used to
  /// flush pending deployments. Throws SubmitTimeout if every attempt
  /// fails.
  const Block& seal_with_retry();

  const SubmitterStats& stats() const { return stats_; }

 private:
  /// min(base << attempt, max) — capped exponential backoff.
  std::uint64_t backoff_for(int attempt) const;
  /// First non-stale receipt among the variant hashes, canonical order.
  std::optional<Receipt> receipt_among(const std::vector<Bytes>& variants) const;
  /// Doubles the fee (from fee_bump_base if zero), capped at max_fee.
  void bump_fee(Transaction& tx);

  Blockchain& chain_;
  SubmitterConfig cfg_;
  SubmitterStats stats_;
};

}  // namespace slicer::chain
