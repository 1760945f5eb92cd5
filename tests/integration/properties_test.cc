#include <set>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "query/shape.h"
#include "query/templates.h"

namespace wireframe {
namespace {

/// Verifies every emitted binding against the data graph directly: each
/// query edge must map to an actual triple.
class VerifyingSink : public Sink {
 public:
  VerifyingSink(const Database& db, const QueryGraph& q)
      : db_(&db), q_(&q) {}
  bool Emit(const std::vector<NodeId>& binding) override {
    ++count_;
    for (const QueryEdge& e : q_->edges()) {
      EXPECT_TRUE(
          db_->store().HasTriple(binding[e.src], e.label, binding[e.dst]))
          << "emitted binding is not a homomorphic embedding";
    }
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  const Database* db_;
  const QueryGraph* q_;
  uint64_t count_ = 0;
};

// Parameterized soundness sweep across query shapes.
class ShapeSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShapeSweepTest, EmbeddingsAreSoundAndDistinct) {
  auto [shape_kind, size] = GetParam();
  QueryTemplate tmpl = [&] {
    switch (shape_kind) {
      case 0:
        return ChainTemplate(size);
      case 1:
        return StarTemplate(size);
      default:
        return CycleTemplate(std::max(3, size));
    }
  }();
  std::vector<LabelId> labels;
  for (uint32_t s = 0; s < tmpl.num_slots; ++s) labels.push_back(s % 3);
  QueryGraph q = tmpl.Instantiate(labels);

  Database db = MakeRandomGraph(30, 3, 250, 9000 + shape_kind * 10 + size);
  Catalog cat = Catalog::Build(db.store());
  WireframeEngine engine;
  VerifyingSink sink(db, q);
  auto stats = engine.Run(db, cat, q, EngineOptions{}, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->output_tuples, sink.count());
}

std::string ShapeSweepName(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* const kKind[] = {"Chain", "Star", "Cycle"};
  return std::string(kKind[std::get<0>(info.param)]) +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 3, 4, 5)),
    ShapeSweepName);

// Distinctness: full-width bindings are emitted exactly once.
TEST(PropertiesTest, NoDuplicateEmbeddings) {
  Rng rng(246);
  for (int trial = 0; trial < 20; ++trial) {
    QueryGraph q = MakeRandomQuery(rng, 3, 5, 3);
    Database db = MakeRandomGraph(20, 3, 160, 700 + trial);
    Catalog cat = Catalog::Build(db.store());
    WireframeEngine engine;
    CollectingSink sink;
    ASSERT_TRUE(engine.Run(db, cat, q, EngineOptions{}, &sink).ok());
    std::set<std::vector<NodeId>> unique(sink.rows().begin(),
                                         sink.rows().end());
    EXPECT_EQ(unique.size(), sink.rows().size()) << "trial " << trial;
  }
}

// Monotonicity: adding a pattern can only shrink the result set.
TEST(PropertiesTest, AddingPatternsShrinksResults) {
  Database db = MakeRandomGraph(25, 3, 300, 99);
  Catalog cat = Catalog::Build(db.store());
  WireframeEngine engine;

  uint64_t prev = UINT64_MAX;
  for (uint32_t len = 1; len <= 4; ++len) {
    QueryGraph q = ChainTemplate(len).Instantiate(
        std::vector<LabelId>(len, 0));
    // Re-instantiate with alternating labels so joins are non-trivial.
    QueryGraph q2;
    for (uint32_t i = 0; i <= len; ++i) q2.AddVar("v" + std::to_string(i));
    for (uint32_t i = 0; i < len; ++i) q2.AddEdge(i, i % 2, i + 1);
    CountingSink sink;
    ASSERT_TRUE(engine.Run(db, cat, q2, EngineOptions{}, &sink).ok());
    // Projections of a longer chain's results onto the shorter prefix are
    // a subset, so counts cannot grow faster than fanout; the robust
    // check is: empty prefix => empty extension.
    if (prev == 0) {
      EXPECT_EQ(sink.count(), 0u);
    }
    prev = sink.count();
  }
}

// The AG of a sub-query (prefix of the plan) contains the pairs needed by
// the full query: removing the last pattern never removes support.
TEST(PropertiesTest, SubqueryAgContainsFullQueryProjections) {
  Database db = MakeRandomGraph(25, 2, 220, 55);
  Catalog cat = Catalog::Build(db.store());

  QueryGraph full;
  VarId a = full.AddVar("a"), b = full.AddVar("b"), c = full.AddVar("c");
  full.AddEdge(a, 0, b);
  full.AddEdge(b, 1, c);

  QueryGraph prefix;
  VarId a2 = prefix.AddVar("a"), b2 = prefix.AddVar("b");
  prefix.AddEdge(a2, 0, b2);

  WireframeEngine engine;
  CountingSink sink1, sink2;
  auto full_detail =
      engine.RunDetailed(db, cat, full, EngineOptions{}, &sink1);
  auto prefix_detail =
      engine.RunDetailed(db, cat, prefix, EngineOptions{}, &sink2);
  ASSERT_TRUE(full_detail.ok());
  ASSERT_TRUE(prefix_detail.ok());
  // Every pair the full query kept for edge 0 must appear in the
  // single-pattern query's AG (which is just the label's edge list).
  full_detail->ag->Set(0).ForEachPair([&](NodeId u, NodeId v) {
    EXPECT_TRUE(prefix_detail->ag->Set(0).Contains(u, v));
  });
  EXPECT_LE(full_detail->ag->Set(0).Size(),
            prefix_detail->ag->Set(0).Size());
}

}  // namespace
}  // namespace wireframe
