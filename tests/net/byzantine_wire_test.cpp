// Byzantine soak at the protocol boundary: a tampering hook on the
// server's writer thread mutates serialized QUERY_PLAN reply frames (the
// protocol's one read reply) — frame-level
// corruption (dropped, truncated, oversized-length, unknown-opcode,
// duplicated frames) and semantic payload tampering (the MaliciousCloud
// taxonomy re-staged on wire bytes: flipped/dropped/injected results,
// swapped/forged witnesses, empty claims, replayed replies). Across 20
// (rig × adversary) seed combinations the client must detect every bite —
// a transport/decode error or a failed Algorithm 5 verification — with
// zero false accepts, and the benign cases (honest passthrough, reordered
// result lists) must verify and decrypt identically: zero false rejects.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "tests/core/test_rig.hpp"
#include "tests/net/plan_search.hpp"

namespace slicer::net {
namespace {

using core::MatchCondition;
using core::testing::Rig;
using testing::wire_search;

enum class WireTamper {
  kNone,
  kReorderResults,  // benign: MSet-Mu-Hash is order-insensitive
  kDropFrame,
  kTruncateFrame,
  kOversizeLength,
  kUnknownOpcode,
  kDuplicateFrame,
  kFlipResultByte,
  kDropResult,
  kInjectResult,
  kSwapWitness,
  kEmptyClaim,
  kForgeWitness,
  kReplyReplay,
};

constexpr WireTamper kAllWireTampers[] = {
    WireTamper::kReorderResults, WireTamper::kDropFrame,
    WireTamper::kTruncateFrame,  WireTamper::kOversizeLength,
    WireTamper::kUnknownOpcode,  WireTamper::kDuplicateFrame,
    WireTamper::kFlipResultByte, WireTamper::kDropResult,
    WireTamper::kInjectResult,   WireTamper::kSwapWitness,
    WireTamper::kEmptyClaim,     WireTamper::kForgeWitness,
    WireTamper::kReplyReplay,
};

const char* tamper_name(WireTamper t) {
  switch (t) {
    case WireTamper::kNone: return "none";
    case WireTamper::kReorderResults: return "reorder_results";
    case WireTamper::kDropFrame: return "drop_frame";
    case WireTamper::kTruncateFrame: return "truncate_frame";
    case WireTamper::kOversizeLength: return "oversize_length";
    case WireTamper::kUnknownOpcode: return "unknown_opcode";
    case WireTamper::kDuplicateFrame: return "duplicate_frame";
    case WireTamper::kFlipResultByte: return "flip_result_byte";
    case WireTamper::kDropResult: return "drop_result";
    case WireTamper::kInjectResult: return "inject_result";
    case WireTamper::kSwapWitness: return "swap_witness";
    case WireTamper::kEmptyClaim: return "empty_claim";
    case WireTamper::kForgeWitness: return "forge_witness";
    case WireTamper::kReplyReplay: return "reply_replay";
  }
  return "?";
}

bool tamper_is_benign(WireTamper t) {
  return t == WireTamper::kNone || t == WireTamper::kReorderResults;
}

/// Shared mutable tamper state: the hook is installed once (before
/// start()), the soak loop flips the mode per case.
struct TamperState {
  std::mutex mu;
  WireTamper mode = WireTamper::kNone;
  std::uint64_t seed = 0;
  Bytes recorded;  // kReplyReplay: the previously sent QUERY_PLAN reply
  std::map<WireTamper, int> bites;
};

/// Every TokenReply of a decoded QUERY_PLAN reply, in clause order.
std::vector<core::TokenReply*> token_replies(QueryPlanReply& reply) {
  std::vector<core::TokenReply*> out;
  for (core::ClauseReply& clause : reply.clauses)
    for (core::TokenReply& tr : clause.replies) out.push_back(&tr);
  return out;
}

/// The writer-thread hook: only kQueryPlanReply frames are tampered; the
/// handshake and APPLY path stay honest (the soak targets the read path).
std::vector<Bytes> tamper_frame(TamperState& st, const Bytes& frame) {
  const Frame f = decode_frame(frame);
  if (static_cast<Op>(f.opcode) != Op::kQueryPlanReply) return {frame};
  std::lock_guard lock(st.mu);
  const auto reencode = [&](const QueryPlanReply& reply) {
    return encode_frame(static_cast<std::uint8_t>(Op::kQueryPlanReply),
                        reply.serialize());
  };
  const auto bite = [&] { ++st.bites[st.mode]; };
  switch (st.mode) {
    case WireTamper::kNone:
      return {frame};
    case WireTamper::kReorderResults: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      bool changed = false;
      for (core::TokenReply* tr : trs) {
        if (tr->encrypted_results.size() >= 2) {
          std::reverse(tr->encrypted_results.begin(),
                       tr->encrypted_results.end());
          changed = true;
        }
      }
      if (changed) bite();
      return {reencode(reply)};
    }
    case WireTamper::kDropFrame:
      bite();
      return {};
    case WireTamper::kTruncateFrame: {
      bite();
      return {Bytes(frame.begin(), frame.begin() + frame.size() / 2)};
    }
    case WireTamper::kOversizeLength: {
      Bytes forged = frame;
      forged[0] = forged[1] = forged[2] = forged[3] = 0xFF;
      bite();
      return {forged};
    }
    case WireTamper::kUnknownOpcode: {
      Bytes forged = frame;
      forged[4] = 0x7F;
      bite();
      return {forged};
    }
    case WireTamper::kDuplicateFrame:
      bite();
      return {frame, frame};
    case WireTamper::kFlipResultByte: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      for (core::TokenReply* tr : trs) {
        if (!tr->encrypted_results.empty()) {
          Bytes& er = tr->encrypted_results.front();
          er[st.seed % er.size()] ^= 0x01;
          bite();
          break;
        }
      }
      return {reencode(reply)};
    }
    case WireTamper::kDropResult: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      for (core::TokenReply* tr : trs) {
        if (!tr->encrypted_results.empty()) {
          tr->encrypted_results.pop_back();
          bite();
          break;
        }
      }
      return {reencode(reply)};
    }
    case WireTamper::kInjectResult: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      if (!trs.empty()) {
        Bytes forged(16, static_cast<std::uint8_t>(st.seed));
        trs.front()->encrypted_results.push_back(std::move(forged));
        bite();
      }
      return {reencode(reply)};
    }
    case WireTamper::kSwapWitness: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      if (trs.size() >= 2 && !(trs[0]->witness == trs[1]->witness)) {
        std::swap(trs[0]->witness, trs[1]->witness);
        bite();
      }
      return {reencode(reply)};
    }
    case WireTamper::kEmptyClaim: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      for (core::TokenReply* tr : trs) {
        if (!tr->encrypted_results.empty()) {
          tr->encrypted_results.clear();
          bite();
          break;
        }
      }
      return {reencode(reply)};
    }
    case WireTamper::kForgeWitness: {
      QueryPlanReply reply = QueryPlanReply::deserialize(f.payload);
      const std::vector<core::TokenReply*> trs = token_replies(reply);
      if (!trs.empty()) {
        trs.front()->witness = trs.front()->witness + bigint::BigUint(1);
        bite();
      }
      return {reencode(reply)};
    }
    case WireTamper::kReplyReplay: {
      if (st.recorded.empty()) {
        st.recorded = frame;  // record the honest reply, pass it through
        return {frame};
      }
      bite();
      return {st.recorded};
    }
  }
  return {frame};
}

TEST(ByzantineWire, FullTaxonomyAcrossSeeds) {
  const std::vector<std::string> rig_seeds = {"wire-a", "wire-b"};
  constexpr int kAdversarySeedsPerRig = 10;

  auto state = std::make_shared<TamperState>();
  int combos = 0;

  for (const std::string& rig_seed : rig_seeds) {
    Rig rig = Rig::make(8, rig_seed);
    const std::vector<core::Record> records = {
        {1, 42}, {2, 42}, {3, 7},  {4, 99},  {5, 120}, {6, 42},
        {7, 13}, {8, 200}, {9, 55}, {10, 90}, {11, 33}, {12, 160}};
    const core::UpdateOutput update = rig.owner->insert(records);
    rig.user->refresh(rig.owner->export_user_state());

    SlicerServer server;
    server.add_tenant("soak", std::make_unique<core::CloudServer>(
                                  std::move(*rig.cloud)));
    rig.cloud.reset();
    server.set_frame_tamper(
        [state](const Bytes& frame) { return tamper_frame(*state, frame); });
    server.start();

    // Ship the database honestly (only kQueryPlanReply frames are tampered,
    // but keep the mode at kNone during setup regardless).
    {
      std::lock_guard lock(state->mu);
      state->mode = WireTamper::kNone;
    }
    ChannelConfig one_shot;
    one_shot.max_attempts = 1;
    one_shot.recv_timeout = std::chrono::milliseconds(150);
    {
      SlicerClientChannel setup(server.port(), "soak");
      ASSERT_EQ(setup.apply(update), rig.owner->primes().size());
    }

    for (int adv = 0; adv < kAdversarySeedsPerRig; ++adv, ++combos) {
      const std::uint64_t seed =
          0x5eedULL * 1000 + static_cast<std::uint64_t>(adv) +
          (rig_seed == "wire-a" ? 0 : 1'000'000);
      const std::uint64_t pivot =
          std::vector<std::uint64_t>{40, 12, 90, 54, 6}[adv % 5];
      const auto tokens = rig.user->make_tokens(pivot, MatchCondition::kGreater);
      const auto tokens2 =
          rig.user->make_tokens(pivot + 3, MatchCondition::kLess);
      ASSERT_GE(tokens.size(), 2u);

      // Honest baseline over the wire for this combo.
      {
        std::lock_guard lock(state->mu);
        state->mode = WireTamper::kNone;
      }
      std::vector<core::RecordId> honest_ids;
      {
        SlicerClientChannel ch(server.port(), "soak", one_shot);
        const auto honest = wire_search(ch, rig, tokens);
        ASSERT_TRUE(honest.verified);
        honest_ids = honest.ids;
      }

      for (const WireTamper tamper : kAllWireTampers) {
        {
          std::lock_guard lock(state->mu);
          state->mode = tamper;
          state->seed = seed;
          state->recorded.clear();
        }
        SlicerClientChannel ch(server.port(), "soak", one_shot);

        // kDuplicateFrame poisons the NEXT read; kReplyReplay records the
        // first reply and replays it for the second query. Both need a
        // two-query script where the SECOND query is the attacked one.
        const bool two_phase = tamper == WireTamper::kDuplicateFrame ||
                               tamper == WireTamper::kReplyReplay;
        bool detected = false;
        bool verified = false;
        std::vector<core::RecordId> ids;
        try {
          if (two_phase) {
            ASSERT_TRUE(wire_search(ch, rig, tokens).verified)
                << "setup query of " << tamper_name(tamper);
            verified = wire_search(ch, rig, tokens2).verified;
          } else {
            const auto answer = wire_search(ch, rig, tokens);
            verified = answer.verified;
            ids = answer.ids;
          }
        } catch (const Error&) {
          detected = true;  // transport/decode/protocol detection
        }

        if (tamper_is_benign(tamper)) {
          EXPECT_FALSE(detected)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          EXPECT_TRUE(verified)
              << "false reject: " << tamper_name(tamper) << " seed=" << seed;
          EXPECT_EQ(ids, honest_ids)
              << "benign tamper changed the result set: "
              << tamper_name(tamper);
        } else {
          EXPECT_TRUE(detected || !verified)
              << "false accept: " << tamper_name(tamper) << " seed=" << seed;
        }
      }
    }
    {
      std::lock_guard lock(state->mu);
      state->mode = WireTamper::kNone;
    }
    server.stop();
  }

  EXPECT_EQ(combos, 20);
  // Coverage: every taxonomy operation must have actually bitten in at
  // least half of the combinations.
  std::lock_guard lock(state->mu);
  for (const WireTamper tamper : kAllWireTampers)
    EXPECT_GE(state->bites[tamper], combos / 2)
        << tamper_name(tamper) << " rarely applied — soak lost coverage";
}

// Stale replay across an update, end to end over the wire: record a reply,
// let the owner insert (the accumulator moves), replay the recording. The
// honest cloud still answers old tokens under the new accumulator; only
// the replayed (stale-witness) reply must fail.
TEST(ByzantineWire, StaleReplayAcrossUpdate) {
  Rig rig = Rig::make(8, "wire-stale");
  const std::vector<core::Record> records = {{1, 42}, {2, 7},  {3, 99},
                                             {4, 120}, {5, 42}, {6, 13}};
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  auto state = std::make_shared<TamperState>();
  SlicerServer server;
  server.add_tenant("soak",
                    std::make_unique<core::CloudServer>(std::move(*rig.cloud)));
  rig.cloud.reset();
  server.set_frame_tamper(
      [state](const Bytes& frame) { return tamper_frame(*state, frame); });
  server.start();

  SlicerClientChannel ch(server.port(), "soak");
  ch.apply(update);

  const auto tokens = rig.user->make_tokens(40, MatchCondition::kGreater);
  {
    std::lock_guard lock(state->mu);
    state->mode = WireTamper::kReplyReplay;  // records the first reply
  }
  ASSERT_TRUE(wire_search(ch, rig, tokens).verified);

  // The owner inserts; the accumulator (and every witness) moves.
  {
    std::lock_guard lock(state->mu);
    state->mode = WireTamper::kNone;
  }
  const std::vector<core::Record> extra = {{100, 41}};
  const core::UpdateOutput growth = rig.owner->insert(extra);
  ch.apply(growth);

  // Honest answer for the OLD tokens under the NEW accumulator verifies...
  EXPECT_TRUE(wire_search(ch, rig, tokens).verified);

  // ...but the recorded pre-update reply, replayed on the wire, must fail.
  {
    std::lock_guard lock(state->mu);
    state->mode = WireTamper::kReplyReplay;
  }
  EXPECT_FALSE(wire_search(ch, rig, tokens).verified)
      << "stale replayed reply verified against the advanced accumulator";
}

}  // namespace
}  // namespace slicer::net
