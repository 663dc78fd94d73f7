// Boolean query planner: the Pred builder, compile_spec normalization
// (De Morgan / interval complement, clause dedup, empty intervals), single-
// leaf parity with the direct protocol, the combiner cache, and the
// verified aggregates.
#include "core/query.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "core/client.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::core {
namespace {

using testing::Rig;

// --- compile-time / pure tests (no rig) ---------------------------------

TEST(PredBuilder, ComposesSpecTrees) {
  const QuerySpec spec =
      Pred::attr("age").between(30, 40) && Pred::attr("dept").eq(7);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kAnd);
  ASSERT_EQ(spec.children.size(), 2u);
  EXPECT_EQ(spec.children[0].op, QuerySpec::Op::kBetween);
  EXPECT_EQ(spec.children[0].attribute, "age");
  EXPECT_EQ(spec.children[0].lo, 30u);
  EXPECT_EQ(spec.children[0].hi, 40u);
  EXPECT_EQ(spec.children[1].op, QuerySpec::Op::kEqual);
  EXPECT_EQ(spec.children[1].value, 7u);
}

TEST(PredBuilder, ChainedAndFlattensLeftDeep) {
  const QuerySpec spec = Pred::attr("a").eq(1) && Pred::attr("b").eq(2) &&
                         Pred::attr("c").eq(3);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kAnd);
  EXPECT_EQ(spec.children.size(), 3u);  // not a nested two-level tree
}

TEST(PredBuilder, DoubleNegationCancels) {
  const QuerySpec spec = !!Pred::attr("a").eq(1);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kLeaf);
}

TEST(PredBuilder, DefaultAttributeLeafIsEmptyName) {
  const QuerySpec spec = Pred::value().gt(9);
  EXPECT_EQ(spec.kind, QuerySpec::Kind::kLeaf);
  EXPECT_TRUE(spec.attribute.empty());
}

TEST(CompileSpec, PrimitiveLeafIsOneClause) {
  const PlanContext ctx{.default_attribute = "v"};
  const ClausePlan plan = compile_spec(Pred::value().gt(5), ctx);
  ASSERT_EQ(plan.clauses.size(), 1u);
  EXPECT_EQ(plan.clauses[0].attribute, "v");  // default substituted
  EXPECT_EQ(plan.clauses[0].value, 5u);
  EXPECT_EQ(plan.clauses[0].mc, MatchCondition::kGreater);
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kClause);
}

TEST(CompileSpec, DeduplicatesIdenticalClauses) {
  const PlanContext ctx;
  const ClausePlan plan =
      compile_spec(Pred::attr("a").eq(5) && Pred::attr("a").eq(5) &&
                       Pred::attr("a").eq(5),
                   ctx);
  EXPECT_EQ(plan.clauses.size(), 1u);
}

TEST(CompileSpec, NotIsCompiledAwayByIntervalComplement) {
  const PlanContext ctx;
  // ¬(v > 5) = (v < 5) ∨ (v = 5): two clauses, OR node, no NOT anywhere.
  const ClausePlan plan = compile_spec(!Pred::attr("a").gt(5), ctx);
  ASSERT_EQ(plan.clauses.size(), 2u);
  EXPECT_EQ(plan.clauses[0].mc, MatchCondition::kLess);
  EXPECT_EQ(plan.clauses[1].mc, MatchCondition::kEqual);
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kOr);
}

TEST(CompileSpec, DeMorganFlipsCombinatorUnderNot) {
  const PlanContext ctx;
  // ¬(a=1 ∧ b=2) = ¬(a=1) ∨ ¬(b=2): root must be an OR.
  const ClausePlan plan =
      compile_spec(!(Pred::attr("a").eq(1) && Pred::attr("b").eq(2)), ctx);
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kOr);
}

TEST(CompileSpec, EmptyIntervalMakesEmptyNode) {
  const PlanContext ctx;
  const ClausePlan plan = compile_spec(Pred::attr("a").between(7, 8), ctx);
  EXPECT_TRUE(plan.clauses.empty());
  EXPECT_EQ(plan.nodes[plan.root].kind, PlanNode::Kind::kEmpty);
  EXPECT_EQ(plan.empty_intervals, 1u);
}

TEST(CompileSpec, NegatedEmptyIntervalIsDomain) {
  const PlanContext ctx;
  // ¬(7 < v < 8) over "a" = every record carrying "a": (v > 0) ∨ (v = 0).
  const ClausePlan plan = compile_spec(!Pred::attr("a").between(7, 8), ctx);
  ASSERT_EQ(plan.clauses.size(), 2u);
  EXPECT_EQ(plan.clauses[0].mc, MatchCondition::kGreater);
  EXPECT_EQ(plan.clauses[0].value, 0u);
  EXPECT_EQ(plan.clauses[1].mc, MatchCondition::kEqual);
  EXPECT_EQ(plan.clauses[1].value, 0u);
  EXPECT_EQ(plan.empty_intervals, 0u);
}

TEST(CompileSpec, MalformedTreesThrowProtocolError) {
  const PlanContext ctx;
  QuerySpec childless_and;
  childless_and.kind = QuerySpec::Kind::kAnd;
  EXPECT_THROW(compile_spec(childless_and, ctx), ProtocolError);

  QuerySpec bad_not;
  bad_not.kind = QuerySpec::Kind::kNot;
  bad_not.children.resize(2);
  EXPECT_THROW(compile_spec(bad_not, ctx), ProtocolError);
}

TEST(EvalSpec, NegationIsAttributeScoped) {
  const MultiRecord with_age{1, {{"age", 30}}};
  const MultiRecord without_age{2, {{"dept", 7}}};
  const QuerySpec spec = !Pred::attr("age").eq(5);
  EXPECT_TRUE(eval_spec(spec, with_age));
  // No verifiable way to enumerate records never indexed under "age".
  EXPECT_FALSE(eval_spec(spec, without_age));
}

// --- execution tests (full rig) -----------------------------------------

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : rig_(Rig::make(8, "planner", {}, 2)) {
    rig_.cloud->apply(rig_.owner->build(db_));
    rig_.user->refresh(rig_.owner->export_user_state());
    client_.emplace(*rig_.user, *rig_.cloud, rig_.config.prime_bits);
  }

  /// Brute-force oracle: ids matching `spec` by plaintext evaluation.
  std::vector<RecordId> oracle(const QuerySpec& spec) const {
    std::vector<RecordId> out;
    for (const MultiRecord& r : db_)
      if (eval_spec(spec, r)) out.push_back(r.id);
    return out;
  }

  const std::vector<MultiRecord> db_ = {
      {1, {{"age", 30}, {"dept", 7}}},  {2, {{"age", 35}, {"dept", 7}}},
      {3, {{"age", 35}, {"dept", 9}}},  {4, {{"age", 60}, {"dept", 7}}},
      {5, {{"age", 41}, {"dept", 9}}},  {6, {{"age", 25}}},
      {7, {{"dept", 11}}},              {8, {{"age", 0}, {"dept", 3}}},
  };
  Rig rig_;
  std::optional<QueryClient> client_;
};

TEST_F(PlannerTest, ConjunctionAcrossAttributes) {
  const QuerySpec spec =
      Pred::attr("age").between(30, 40) && Pred::attr("dept").eq(7);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2}));
  EXPECT_EQ(r.ids, oracle(spec));
  EXPECT_EQ(r.clause_count, 3u);  // gt 30, lt 40, dept = 7
}

TEST_F(PlannerTest, DisjunctionAndNegation) {
  const QuerySpec spec =
      Pred::attr("dept").eq(9) || !Pred::attr("age").gt(29);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  // dept=9: {3,5}; ¬(age>29) = age<=29 among age-carriers: {6, 8}.
  EXPECT_EQ(r.ids, (std::vector<RecordId>{3, 5, 6, 8}));
  EXPECT_EQ(r.ids, oracle(spec));
}

TEST_F(PlannerTest, NestedTree) {
  const QuerySpec spec =
      (Pred::attr("age").gt(28) && Pred::attr("age").lt(42)) &&
      (Pred::attr("dept").eq(7) || Pred::attr("dept").eq(9));
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, oracle(spec));
  EXPECT_EQ(r.ids, (std::vector<RecordId>{1, 2, 3, 5}));
}

TEST_F(PlannerTest, EmptyIntervalBranchInsideOr) {
  // The kEmpty node contributes ∅ to the OR without erroring the plan.
  const QuerySpec spec =
      Pred::attr("age").between(40, 41) || Pred::attr("dept").eq(3);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{8}));
}

TEST_F(PlannerTest, WholePlanIsOneRoundTripWithSharedVerification) {
  const QuerySpec spec =
      Pred::attr("age").gt(28) && Pred::attr("dept").eq(7);
  const QueryResult r = client_->query(spec);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.clause_count, 2u);
  EXPECT_EQ(r.tokens_verified, r.token_count);
  EXPECT_EQ(r.token_detail.size(), r.token_count);
}

TEST_F(PlannerTest, SingleLeafQueryMatchesDirectSearch) {
  // A one-leaf spec is one clause: the planner adds nothing to the
  // protocol's own tokens → search → verify → decrypt round.
  const QueryResult planned = client_->query(Pred::attr("dept").eq(7));
  const auto tokens = rig_.user->make_tokens("dept", 7, MatchCondition::kEqual);
  const auto replies = rig_.cloud->search(tokens);
  EXPECT_TRUE(verify_query(rig_.acc_params, rig_.cloud->shard_values(),
                           tokens, replies, rig_.config.prime_bits)
                  .verified);
  auto direct = rig_.user->decrypt(replies);
  std::sort(direct.begin(), direct.end());
  EXPECT_TRUE(planned.verified);
  EXPECT_EQ(planned.clause_count, 1u);
  EXPECT_EQ(planned.token_count, tokens.size());
  EXPECT_EQ(planned.ids, direct);

  const auto interval = Pred::attr("age").between(30, 40);
  EXPECT_EQ(client_->query(interval).ids, oracle(interval));
}

TEST_F(PlannerTest, CombinerCacheServesRepeatedClauses) {
  const QuerySpec spec =
      Pred::attr("age").gt(28) && Pred::attr("dept").eq(7);
  const QueryResult first = client_->query(spec);
  EXPECT_EQ(first.cached_clauses, 0u);
  const QueryResult second = client_->query(spec);
  EXPECT_EQ(second.cached_clauses, second.clause_count);
  EXPECT_EQ(second.ids, first.ids);
  EXPECT_TRUE(second.verified);
  EXPECT_EQ(second.token_detail.size(), first.token_detail.size());
}

TEST_F(PlannerTest, CacheMissesAfterUpdate) {
  const QuerySpec spec = Pred::attr("dept").eq(7);
  client_->query(spec);
  // An update moves the accumulator digest; the cache key moves with it.
  rig_.ingest({{100, 35}});
  const QueryResult r = client_->query(spec);
  EXPECT_EQ(r.cached_clauses, 0u);
  EXPECT_TRUE(r.verified);
}

TEST_F(PlannerTest, CacheEvictsOldestBeyondCapacity) {
  // One more distinct clause than the cache holds: the oldest is evicted
  // first, the newest still hits.
  const auto clause = [](std::size_t i) {
    return Pred::attr(i % 2 == 0 ? "dept" : "age").eq(i / 2);
  };
  constexpr std::size_t kCap = QueryClient::kPlanCacheCapacity;
  for (std::size_t i = 0; i <= kCap; ++i)
    ASSERT_TRUE(client_->query(clause(i)).verified) << i;
  EXPECT_EQ(client_->query(clause(kCap)).cached_clauses, 1u);
  EXPECT_EQ(client_->query(clause(0)).cached_clauses, 0u);
}

TEST_F(PlannerTest, VerifiedCount) {
  const auto c = client_->count(Pred::attr("dept").eq(7));
  EXPECT_TRUE(c.verified);
  EXPECT_EQ(c.count, 3u);  // ids 1, 2, 4

  const auto all = client_->count(Pred::attr("dept").eq(7) ||
                                  !Pred::attr("dept").eq(7));
  EXPECT_TRUE(all.verified);
  EXPECT_EQ(all.count, 7u);  // every dept-carrier
}

TEST_F(PlannerTest, VerifiedMinMax) {
  const QuerySpec dept7 = Pred::attr("dept").eq(7);
  const auto mn = client_->min_value("age", dept7);
  EXPECT_TRUE(mn.verified);
  ASSERT_TRUE(mn.found);
  EXPECT_EQ(mn.value, 30u);
  EXPECT_EQ(mn.ids, (std::vector<RecordId>{1}));
  EXPECT_GT(mn.probes, 0u);

  const auto mx = client_->max_value("age", dept7);
  EXPECT_TRUE(mx.verified);
  ASSERT_TRUE(mx.found);
  EXPECT_EQ(mx.value, 60u);
  EXPECT_EQ(mx.ids, (std::vector<RecordId>{4}));
}

TEST_F(PlannerTest, MinMaxHandleNoMatchAndAttributeGaps) {
  // Matching records exist (id 7) but none of them carries "age": the
  // initial domain probe must report not-found instead of binary-searching
  // into a fabricated extreme.
  const auto gap = client_->min_value("age", Pred::attr("dept").eq(11));
  EXPECT_FALSE(gap.found);
  EXPECT_TRUE(gap.verified);

  const auto none = client_->max_value("age", Pred::attr("dept").eq(200));
  EXPECT_FALSE(none.found);
  EXPECT_TRUE(none.verified);
}

TEST_F(PlannerTest, MinFindsZero) {
  // Value 0 must be reachable (id 8 has age 0).
  const auto mn = client_->min_value("age", Pred::attr("dept").eq(3));
  ASSERT_TRUE(mn.found);
  EXPECT_EQ(mn.value, 0u);
  EXPECT_EQ(mn.ids, (std::vector<RecordId>{8}));
}

TEST_F(PlannerTest, VerifiedTopK) {
  const auto top = client_->top_k("age", Pred::attr("dept").eq(7), 2);
  EXPECT_TRUE(top.verified);
  ASSERT_EQ(top.groups.size(), 2u);
  EXPECT_EQ(top.groups[0].value, 60u);
  EXPECT_EQ(top.groups[0].ids, (std::vector<RecordId>{4}));
  EXPECT_EQ(top.groups[1].value, 35u);
  EXPECT_EQ(top.groups[1].ids, (std::vector<RecordId>{2}));

  // k larger than the distinct-value count: returns what exists.
  const auto all = client_->top_k("age", Pred::attr("dept").eq(9), 5);
  ASSERT_EQ(all.groups.size(), 2u);
  EXPECT_EQ(all.groups[0].value, 41u);
  EXPECT_EQ(all.groups[1].value, 35u);
}

// AND/OR of two specs combine their clause-verified sets on the client.
TEST_F(PlannerTest, SpecAndOrCombineVerifiedSets) {
  const QuerySpec a = Pred::attr("dept").eq(7);
  const QuerySpec b = Pred::attr("age").gt(33);
  const QueryResult both = client_->query(Pred(a) && Pred(b));
  EXPECT_TRUE(both.verified);
  EXPECT_EQ(both.ids, (std::vector<RecordId>{2, 4}));
  const QueryResult either = client_->query(Pred(a) || Pred(b));
  EXPECT_TRUE(either.verified);
  EXPECT_EQ(either.ids, (std::vector<RecordId>{1, 2, 3, 4, 5}));
}

// The single-attribute default path (Pred::value) against the classic rig.
TEST(PlannerDefaultAttr, DefaultAttributeSpecs) {
  Rig rig = Rig::make(8, "planner-default");
  rig.ingest({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 30}});
  QueryClient client(*rig.user, *rig.cloud, rig.config.prime_bits);

  const QueryResult r =
      client.query(Pred::value().between_inclusive(20, 30) ||
                   Pred::value().eq(40));
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.ids, (std::vector<RecordId>{2, 3, 4, 5}));

  const auto mx = client.max_value(Pred::value().lt(40));
  ASSERT_TRUE(mx.found);
  EXPECT_EQ(mx.value, 30u);
  EXPECT_EQ(mx.ids, (std::vector<RecordId>{3, 5}));
}

}  // namespace
}  // namespace slicer::core
