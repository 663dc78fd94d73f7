#include "core/adversary.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace slicer::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Indices of replies that have at least `min_results` encrypted results.
std::vector<std::size_t> candidates(const std::vector<TokenReply>& replies,
                                    std::size_t min_results) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < replies.size(); ++i)
    if (replies[i].encrypted_results.size() >= min_results) out.push_back(i);
  return out;
}

}  // namespace

std::string_view tamper_name(Tamper t) {
  switch (t) {
    case Tamper::kNone: return "none";
    case Tamper::kDropResult: return "drop_result";
    case Tamper::kDuplicateResult: return "duplicate_result";
    case Tamper::kReorderResults: return "reorder_results";
    case Tamper::kForgeCiphertext: return "forge_ciphertext";
    case Tamper::kTruncateCiphertext: return "truncate_ciphertext";
    case Tamper::kInjectResult: return "inject_result";
    case Tamper::kEmptyClaim: return "empty_claim";
    case Tamper::kSwapWitnesses: return "swap_witnesses";
    case Tamper::kForgeWitness: return "forge_witness";
    case Tamper::kStaleReplay: return "stale_replay";
    case Tamper::kWrongAccumulator: return "wrong_accumulator";
    case Tamper::kDropClause: return "drop_clause";
    case Tamper::kSwapClauseReplies: return "swap_clause_replies";
    case Tamper::kStaleClauseVO: return "stale_clause_vo";
  }
  return "unknown";
}

std::uint64_t MaliciousCloud::rand(std::uint64_t bound) const {
  // Deterministic stream keyed by (seed, draw#); bound is small (indices,
  // byte offsets), so the modulo bias is irrelevant here.
  const std::uint64_t v = splitmix64(seed_ ^ splitmix64(++draws_));
  return bound == 0 ? v : v % bound;
}

void MaliciousCloud::record_stale(std::span<const SearchToken> tokens) {
  stale_ = honest_.search(tokens);
}

MaliciousCloud::Output MaliciousCloud::search(
    std::span<const SearchToken> tokens) const {
  Output out;
  out.replies = honest_.search(tokens);
  std::vector<TokenReply>& replies = out.replies;
  if (replies.empty()) return out;

  switch (tamper_) {
    case Tamper::kNone:
      break;

    case Tamper::kDropResult: {
      const auto c = candidates(replies, 1);
      if (c.empty()) break;
      auto& er = replies[c[rand(c.size())]].encrypted_results;
      er.erase(er.begin() + static_cast<std::ptrdiff_t>(rand(er.size())));
      out.tampered = true;
      break;
    }

    case Tamper::kDuplicateResult: {
      const auto c = candidates(replies, 1);
      if (c.empty()) break;
      auto& er = replies[c[rand(c.size())]].encrypted_results;
      er.push_back(er[rand(er.size())]);
      out.tampered = true;
      break;
    }

    case Tamper::kReorderResults: {
      const auto c = candidates(replies, 2);
      if (c.empty()) break;
      auto& er = replies[c[rand(c.size())]].encrypted_results;
      std::rotate(er.begin(), er.begin() + 1 + static_cast<std::ptrdiff_t>(
                                                  rand(er.size() - 1)),
                  er.end());
      out.tampered = true;  // tampered, but benign: must still verify
      break;
    }

    case Tamper::kForgeCiphertext: {
      const auto c = candidates(replies, 1);
      if (c.empty()) break;
      auto& er = replies[c[rand(c.size())]].encrypted_results;
      Bytes& victim = er[rand(er.size())];
      if (victim.empty()) break;
      victim[rand(victim.size())] ^= static_cast<std::uint8_t>(
          1 + rand(255));  // non-zero mask: guaranteed to change the byte
      out.tampered = true;
      break;
    }

    case Tamper::kTruncateCiphertext: {
      const auto c = candidates(replies, 1);
      if (c.empty()) break;
      auto& er = replies[c[rand(c.size())]].encrypted_results;
      Bytes& victim = er[rand(er.size())];
      if (victim.empty()) break;
      victim.pop_back();
      out.tampered = true;
      break;
    }

    case Tamper::kInjectResult: {
      // Bites even on empty result lists — a fabricated 16-byte record.
      Bytes fake(16);
      for (auto& b : fake) b = static_cast<std::uint8_t>(rand(256));
      replies[rand(replies.size())].encrypted_results.push_back(
          std::move(fake));
      out.tampered = true;
      break;
    }

    case Tamper::kEmptyClaim: {
      const auto c = candidates(replies, 1);
      if (c.empty()) break;
      replies[c[rand(c.size())]].encrypted_results.clear();
      out.tampered = true;
      break;
    }

    case Tamper::kSwapWitnesses: {
      if (replies.size() < 2) break;
      const std::size_t i = rand(replies.size());
      std::size_t k = rand(replies.size() - 1);
      if (k >= i) ++k;
      if (replies[i].witness == replies[k].witness) break;  // no-op swap
      std::swap(replies[i].witness, replies[k].witness);
      out.tampered = true;
      break;
    }

    case Tamper::kForgeWitness: {
      bigint::BigUint& w = replies[rand(replies.size())].witness;
      w = bigint::BigUint::add_mod(w, bigint::BigUint(1),
                                   honest_.accumulator_params().modulus);
      out.tampered = true;
      break;
    }

    case Tamper::kStaleReplay: {
      if (stale_.size() != replies.size()) break;  // record_stale not run
      bool differs = false;
      for (std::size_t i = 0; i < replies.size(); ++i)
        if (!(stale_[i].witness == replies[i].witness) ||
            stale_[i].encrypted_results != replies[i].encrypted_results)
          differs = true;
      if (!differs) break;  // nothing changed since the recording: not stale
      replies = stale_;
      out.tampered = true;
      break;
    }

    case Tamper::kWrongAccumulator: {
      // The "lazy cloud": presents the accumulator value itself as the
      // witness — i.e. a witness computed against the wrong (trivial)
      // accumulator. Verification needs witness^p == ac, so this only
      // passes if ac^p == ac (never, for a non-degenerate modulus).
      bigint::BigUint& w = replies[rand(replies.size())].witness;
      const bigint::BigUint& ac = honest_.accumulator_value();
      w = (w == ac) ? bigint::BigUint::add_mod(
                          ac, bigint::BigUint(1),
                          honest_.accumulator_params().modulus)
                    : ac;
      out.tampered = true;
      break;
    }

    case Tamper::kDropClause:
    case Tamper::kSwapClauseReplies:
    case Tamper::kStaleClauseVO:
      // Plan-only operations have no per-token reply to act on: honest
      // passthrough, tampered stays false so soaks skip them.
      break;
  }
  return out;
}

void MaliciousCloud::record_stale_plan(
    std::span<const ClauseRequest> requests) {
  stale_plan_ = honest_.search_plan(requests);
}

MaliciousCloud::PlanOutput MaliciousCloud::search_plan(
    std::span<const ClauseRequest> requests) const {
  PlanOutput out;
  switch (tamper_) {
    case Tamper::kDropClause: {
      out.replies = honest_.search_plan(requests);
      if (out.replies.empty()) break;
      out.replies.erase(out.replies.begin() + static_cast<std::ptrdiff_t>(
                                                  rand(out.replies.size())));
      out.tampered = true;
      break;
    }

    case Tamper::kSwapClauseReplies: {
      out.replies = honest_.search_plan(requests);
      if (out.replies.size() < 2) break;
      const std::size_t i = rand(out.replies.size());
      std::size_t k = rand(out.replies.size() - 1);
      if (k >= i) ++k;
      if (out.replies[i] == out.replies[k]) break;  // no-op swap
      std::swap(out.replies[i], out.replies[k]);
      out.tampered = true;
      break;
    }

    case Tamper::kStaleClauseVO: {
      out.replies = honest_.search_plan(requests);
      if (stale_plan_.size() != out.replies.size())
        break;  // record_stale_plan not run for this plan shape
      // Serve ONE clause from the pre-update recording — the other clauses
      // stay fresh, so only per-clause verification can catch it.
      std::vector<std::size_t> changed;
      for (std::size_t i = 0; i < out.replies.size(); ++i)
        if (!(stale_plan_[i] == out.replies[i])) changed.push_back(i);
      if (changed.empty()) break;  // nothing changed since recording
      const std::size_t victim = changed[rand(changed.size())];
      out.replies[victim] = stale_plan_[victim];
      out.tampered = true;
      break;
    }

    default: {
      // Route a single-reply taxonomy member into one victim clause; every
      // other clause answers honestly.
      const std::size_t victim = requests.empty() ? 0 : rand(requests.size());
      out.replies.reserve(requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (i == victim) {
          Output tok = search(requests[i].tokens);
          out.replies.push_back(ClauseReply{std::move(tok.replies)});
          out.tampered = tok.tampered;
        } else {
          out.replies.push_back(ClauseReply{honest_.search(requests[i].tokens)});
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace slicer::core
