// Client-side pieces of a wire query the benchmark assembles itself: the
// verified set combination up a compiled plan tree, and the plaintext
// oracle every verified answer is checked against.
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/query.hpp"

namespace perfbench {

using slicer::core::RecordId;

/// Evaluates a compiled plan's AND/OR tree over per-clause id sets (each
/// sorted and deduplicated). Children precede parents in plan.nodes, so one
/// forward pass suffices. Returns a sorted, deduplicated id list.
inline std::vector<RecordId> combine_plan(
    const slicer::core::ClausePlan& plan,
    const std::vector<std::vector<RecordId>>& clause_ids) {
  using Kind = slicer::core::PlanNode::Kind;
  if (plan.nodes.empty()) return {};
  std::vector<std::vector<RecordId>> node_ids(plan.nodes.size());
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const slicer::core::PlanNode& node = plan.nodes[n];
    if (node.kind == Kind::kClause) {
      node_ids[n] = clause_ids.at(node.clause);
    } else if (node.kind == Kind::kAnd || node.kind == Kind::kOr) {
      std::vector<RecordId> acc = node_ids.at(node.children.front());
      for (std::size_t c = 1; c < node.children.size(); ++c) {
        const std::vector<RecordId>& next = node_ids.at(node.children[c]);
        std::vector<RecordId> out;
        if (node.kind == Kind::kAnd) {
          std::set_intersection(acc.begin(), acc.end(), next.begin(),
                                next.end(), std::back_inserter(out));
        } else {
          std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                         std::back_inserter(out));
        }
        acc = std::move(out);
      }
      node_ids[n] = std::move(acc);
    }
  }
  return node_ids.at(plan.root);
}

/// Plaintext oracle: ids of the records `spec` selects, sorted.
inline std::vector<RecordId> oracle_ids(
    const slicer::core::QuerySpec& spec,
    const std::vector<slicer::core::MultiRecord>& records) {
  std::vector<RecordId> out;
  for (const auto& record : records)
    if (slicer::core::eval_spec(spec, record)) out.push_back(record.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
