// Byzantine cloud for the robustness soak.
//
// MaliciousCloud wraps an honest CloudServer and applies one operation from
// the tampering taxonomy to its replies before returning them. The soak
// (tests/core/adversary_soak_test.cpp, bench/robustness_soak.cpp) asserts
// that Algorithm 5 verification rejects every *semantic* tamper and accepts
// the benign ones:
//
//   detected   kDropResult, kDuplicateResult, kForgeCiphertext,
//              kTruncateCiphertext, kInjectResult, kEmptyClaim,
//              kSwapWitnesses, kForgeWitness, kStaleReplay,
//              kWrongAccumulator
//   benign     kNone (honest passthrough) and kReorderResults — the
//              multiset hash is order-invariant BY DESIGN, so reordering
//              must still verify and decrypt to the same record set. It is
//              kept in the taxonomy as a control: a verifier that rejects
//              reorderings would be overfitted to the cloud's traversal
//              order, which the paper does not require.
//
// All choices (which token, which result, which byte) derive from a seed so
// a failing soak case replays exactly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/cloud.hpp"
#include "core/messages.hpp"

namespace slicer::core {

/// One operation from the tampering taxonomy.
enum class Tamper {
  kNone,                ///< honest passthrough (control)
  kDropResult,          ///< remove one encrypted result
  kDuplicateResult,     ///< return one encrypted result twice
  kReorderResults,      ///< permute results (benign — multiset hash)
  kForgeCiphertext,     ///< flip one byte of one result
  kTruncateCiphertext,  ///< shorten one result by one byte
  kInjectResult,        ///< append a fabricated ciphertext
  kEmptyClaim,          ///< claim "no matches" while keeping the witness
  kSwapWitnesses,       ///< exchange the VOs of two tokens
  kForgeWitness,        ///< perturb the witness value
  kStaleReplay,         ///< replay a reply recorded before an update
  kWrongAccumulator,    ///< witness "computed" against the wrong accumulator
  // Plan-level taxonomy (ClauseReply batch from search_plan):
  kDropClause,         ///< omit one clause's reply from the batch
  kSwapClauseReplies,  ///< exchange the replies of two clauses
  kStaleClauseVO,      ///< serve one clause from a pre-update recording
};

/// Every per-token taxonomy member except kNone, in declaration order.
inline constexpr std::array<Tamper, 11> kAllTampers = {
    Tamper::kDropResult,     Tamper::kDuplicateResult,
    Tamper::kReorderResults, Tamper::kForgeCiphertext,
    Tamper::kTruncateCiphertext, Tamper::kInjectResult,
    Tamper::kEmptyClaim,     Tamper::kSwapWitnesses,
    Tamper::kForgeWitness,   Tamper::kStaleReplay,
    Tamper::kWrongAccumulator,
};

/// Taxonomy members that act on the clause batch of a plan search rather
/// than on any single reply. Every member of kAllTampers also applies on
/// the plan path — search_plan routes it into one victim clause.
inline constexpr std::array<Tamper, 3> kPlanTampers = {
    Tamper::kDropClause,
    Tamper::kSwapClauseReplies,
    Tamper::kStaleClauseVO,
};

std::string_view tamper_name(Tamper t);

/// True for operations verification MUST still accept (order-invariance).
inline constexpr bool tamper_is_benign(Tamper t) {
  return t == Tamper::kNone || t == Tamper::kReorderResults;
}

/// A cloud that answers honestly, then lies in one specific way.
class MaliciousCloud {
 public:
  struct Output {
    std::vector<TokenReply> replies;
    /// False when the configured tamper had nothing to act on (e.g. drop a
    /// result from an all-empty reply set): the replies are then honest and
    /// the soak skips the case rather than mis-counting a detection.
    bool tampered = false;
  };

  MaliciousCloud(const CloudServer& honest, Tamper tamper, std::uint64_t seed)
      : honest_(honest), tamper_(tamper), seed_(seed) {}

  /// Honest search, then the tamper op. Deterministic in (seed, call#).
  Output search(std::span<const SearchToken> tokens) const;

  struct PlanOutput {
    std::vector<ClauseReply> replies;
    /// Same skip semantics as Output::tampered.
    bool tampered = false;
  };

  /// Plan-search counterpart. A kPlanTampers operation acts on the clause
  /// batch itself (drop/swap/stale-replace whole clause replies); any other
  /// taxonomy member is routed into one randomly chosen victim clause, with
  /// the remaining clauses answered honestly.
  PlanOutput search_plan(std::span<const ClauseRequest> requests) const;

  /// Captures the honest clause replies for `requests` now; a later
  /// kStaleClauseVO search_plan swaps one genuinely-changed clause reply
  /// for its recorded (stale) version. Call before the owner's next update.
  void record_stale_plan(std::span<const ClauseRequest> requests);

  /// Captures the honest replies for `tokens` now; a later kStaleReplay
  /// search returns them verbatim. Call before the owner's next update so
  /// the recorded accumulator/witness state is genuinely stale.
  void record_stale(std::span<const SearchToken> tokens);

  Tamper tamper() const { return tamper_; }

 private:
  std::uint64_t rand(std::uint64_t bound) const;

  const CloudServer& honest_;
  Tamper tamper_;
  std::uint64_t seed_;
  mutable std::uint64_t draws_ = 0;
  std::vector<TokenReply> stale_;
  std::vector<ClauseReply> stale_plan_;
};

}  // namespace slicer::core
