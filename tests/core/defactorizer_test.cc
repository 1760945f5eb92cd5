#include "core/defactorizer.h"

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "query/templates.h"

namespace wireframe {
namespace {

// Builds the Fig. 1 ideal AG by hand: A: {1,2,3}->5, B: 5->9, C: 9->{12..15}.
// `edit` may change the builder before it is frozen.
struct ChainFixture {
  QueryGraph q = ChainTemplate(3).Instantiate({0, 1, 2});
  AnswerGraph ag;

  explicit ChainFixture(void (*edit)(AnswerGraphBuilder&) = nullptr)
      : ag(Build(q, edit)) {}

  static AnswerGraph Build(const QueryGraph& q,
                           void (*edit)(AnswerGraphBuilder&)) {
    AnswerGraphBuilder b(q);
    for (NodeId w : {1, 2, 3}) b.Set(0).Add(w, 5);
    b.Set(1).Add(5, 9);
    for (NodeId z : {12, 13, 14, 15}) b.Set(2).Add(9, z);
    for (uint32_t e = 0; e < 3; ++e) b.MarkMaterialized(e);
    if (edit != nullptr) edit(b);
    return std::move(b).Freeze();
  }
};

EmbeddingPlan PlanOrder(std::vector<uint32_t> order) {
  EmbeddingPlan plan;
  plan.join_order = std::move(order);
  return plan;
}

TEST(DefactorizerTest, EnumeratesAllEmbeddings) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  CollectingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.value().emitted, 12u);
  EXPECT_EQ(sink.rows().size(), 12u);
  // Every row binds all four vars.
  for (const auto& row : sink.rows()) {
    ASSERT_EQ(row.size(), 4u);
    for (NodeId v : row) EXPECT_NE(v, kInvalidNode);
  }
}

TEST(DefactorizerTest, JoinOrderIsImmaterialOverIdealAg) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  std::set<std::vector<NodeId>> reference;
  {
    CollectingSink sink;
    ASSERT_TRUE(
        defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{}).ok());
    reference.insert(sink.rows().begin(), sink.rows().end());
  }
  for (const std::vector<uint32_t>& order :
       {std::vector<uint32_t>{2, 1, 0}, {1, 0, 2}, {1, 2, 0}, {2, 1, 0}}) {
    CollectingSink sink;
    ASSERT_TRUE(defac.Emit(PlanOrder(order), &sink, DefactorizerOptions{})
                    .ok());
    std::set<std::vector<NodeId>> got(sink.rows().begin(),
                                      sink.rows().end());
    EXPECT_EQ(got, reference);
  }
}

TEST(DefactorizerTest, BothEndpointsBoundFilters) {
  // 2-cycle: x -0-> y and x -1-> y; second edge acts as a filter.
  QueryGraph q;
  VarId x = q.AddVar("x"), y = q.AddVar("y");
  q.AddEdge(x, 0, y);
  q.AddEdge(x, 1, y);
  AnswerGraphBuilder b(q);
  b.Set(0).Add(1, 10);
  b.Set(0).Add(2, 20);
  b.Set(1).Add(1, 10);  // only (1,10) survives the second pattern
  b.MarkMaterialized(0);
  b.MarkMaterialized(1);
  const AnswerGraph ag = std::move(b).Freeze();
  Defactorizer defac(q, ag);
  CollectingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 1u);
  EXPECT_EQ(sink.rows()[0], (std::vector<NodeId>{1, 10}));
}

TEST(DefactorizerTest, BackwardExtension) {
  // Plan visits edge 1 first, then edge 0 must extend backwards into v0.
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({1, 0, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 12u);
}

TEST(DefactorizerTest, EmptyAgYieldsNothing) {
  QueryGraph q = ChainTemplate(2).Instantiate({0, 1});
  AnswerGraphBuilder b(q);
  b.MarkMaterialized(0);
  b.MarkMaterialized(1);
  const AnswerGraph ag = std::move(b).Freeze();
  Defactorizer defac(q, ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 0u);
}

TEST(DefactorizerTest, SinkCanStopEarly) {
  ChainFixture f;
  Defactorizer defac(f.q, f.ag);
  LimitSink sink(5);
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(sink.count(), 5u);
  EXPECT_LE(n.value().emitted, 6u);
}

TEST(DefactorizerTest, ExpiredDeadlineTimesOut) {
  // The deadline is checked on a stride; tiny outputs may finish first,
  // so force many tuples through a bigger AG.
  ChainFixture f([](AnswerGraphBuilder& b) {
    for (NodeId w = 100; w < 3000; ++w) b.Set(0).Add(w, 5);
  });
  Defactorizer defac(f.q, f.ag);
  CountingSink sink;
  DefactorizerOptions options;
  options.deadline = Deadline::AlreadyExpired();
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, options);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsTimedOut());
}

TEST(DefactorizerTest, TombstonedPairsAreSkipped) {
  ChainFixture f([](AnswerGraphBuilder& b) { b.Set(2).Erase(9, 15); });
  Defactorizer defac(f.q, f.ag);
  CountingSink sink;
  auto n = defac.Emit(PlanOrder({0, 1, 2}), &sink, DefactorizerOptions{});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().emitted, 9u);  // 3 * 1 * 3
}

}  // namespace
}  // namespace wireframe
