// Single-condition searches over the wire. QUERY_PLAN is the protocol's
// one read opcode, so a search is a one-clause plan, verified with
// core::verify_plan against the owner's (trusted) shard values exactly as
// an in-process deployment would.
#pragma once

#include <algorithm>
#include <vector>

#include "core/verify.hpp"
#include "net/client.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::net::testing {

/// Outcome of one search round trip.
struct PlanSearch {
  bool verified = false;
  std::vector<core::RecordId> ids;  ///< sorted; filled only when verified
};

/// Sends `tokens` as a one-clause QUERY_PLAN, verifies the reply and, when
/// it verifies, decrypts it.
inline PlanSearch wire_search(SlicerClientChannel& ch,
                              const core::testing::Rig& rig,
                              const std::vector<core::SearchToken>& tokens) {
  PlanSearch out;
  QueryPlanRequest request;
  request.clauses.push_back(core::ClauseRequest{tokens});
  const QueryPlanReply reply = ch.query_plan(request);
  out.verified = core::verify_plan(rig.acc_params, rig.owner->shard_values(),
                                   request.clauses, reply.clauses,
                                   rig.config.prime_bits)
                     .verified;
  if (out.verified) {
    out.ids = rig.user->decrypt(reply.clauses.front().replies);
    std::sort(out.ids.begin(), out.ids.end());
  }
  return out;
}

}  // namespace slicer::net::testing
