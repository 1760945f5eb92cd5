// Property tests of answer-graph generation across shapes, seeds, and
// option combinations.

#include <gtest/gtest.h>

#include "core/generator.h"
#include "datagen/synthetic.h"
#include "testutil/phase1.h"

namespace wireframe {
namespace {

using testutil::PlanWithChords;

class GeneratorPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

/// True iff node c sits on v's side of at least one pair in every
/// materialized edge set incident to v (aliveness, read off the frozen
/// AG's counts).
bool AliveInFrozen(const AnswerGraph& ag, VarId v, NodeId c) {
  for (uint32_t f : ag.IncidentSets(v)) {
    if (!ag.IsMaterialized(f)) continue;
    const uint32_t count = ag.SrcVar(f) == v ? ag.Set(f).SrcCount(c)
                                             : ag.Set(f).DstCount(c);
    if (count == 0) return false;
  }
  return true;
}

TEST_P(GeneratorPropertyTest, InvariantsHoldOnRandomInstances) {
  auto [seed, lookahead] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 15; ++trial) {
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    Database db = MakeRandomGraph(25, 3, 180, seed * 100 + trial);
    Catalog cat = Catalog::Build(db.store());
    AgPlan plan = PlanWithChords(q, cat);

    GeneratorOptions options;
    options.lookahead = lookahead;
    AgGenerator gen(db, cat);
    auto result = gen.Generate(q, plan, options);
    ASSERT_TRUE(result.ok());
    const AnswerGraph& ag = *result->ag;

    // 1. Every AG pair is a real data edge with the right label.
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      const QueryEdge& qe = q.Edge(e);
      ag.Set(e).ForEachPair([&](NodeId u, NodeId v) {
        EXPECT_TRUE(db.store().HasTriple(u, qe.label, v));
      });
    }
    // 2. Arc consistency: every pair endpoint is alive.
    for (uint32_t e = 0; e < ag.NumEdgeSets(); ++e) {
      if (!ag.IsMaterialized(e)) continue;
      ag.Set(e).ForEachPair([&](NodeId u, NodeId v) {
        EXPECT_TRUE(AliveInFrozen(ag, ag.SrcVar(e), u));
        EXPECT_TRUE(AliveInFrozen(ag, ag.DstVar(e), v));
      });
    }
    // 3. Walk accounting: at least one walk per surviving pair.
    EXPECT_GE(result->edge_walks, ag.TotalQueryEdgePairs());
  }
}

TEST_P(GeneratorPropertyTest, LookaheadNeverChangesTheAg) {
  auto [seed, lookahead] = GetParam();
  if (lookahead) GTEST_SKIP() << "pairing handled by the other param";
  Rng rng(seed + 77);
  for (int trial = 0; trial < 10; ++trial) {
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 5, 3);
    Database db = MakeRandomGraph(22, 3, 160, seed * 31 + trial);
    Catalog cat = Catalog::Build(db.store());
    AgPlan plan = PlanWithChords(q, cat);

    AgGenerator gen(db, cat);
    GeneratorOptions plain, ahead;
    ahead.lookahead = true;
    auto r1 = gen.Generate(q, plan, plain);
    auto r2 = gen.Generate(q, plan, ahead);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      ASSERT_EQ(r1->ag->Set(e).Size(), r2->ag->Set(e).Size())
          << "seed " << seed << " trial " << trial << " edge " << e;
      r1->ag->Set(e).ForEachPair([&](NodeId u, NodeId v) {
        EXPECT_TRUE(r2->ag->Set(e).Contains(u, v));
      });
    }
  }
}

TEST_P(GeneratorPropertyTest, DeterministicAcrossRuns) {
  auto [seed, lookahead] = GetParam();
  Rng rng(seed + 13);
  QueryGraph q = MakeRandomQuery(rng, 4, 5, 3);
  Database db = MakeRandomGraph(30, 3, 250, seed);
  Catalog cat = Catalog::Build(db.store());
  AgPlan plan = PlanWithChords(q, cat);
  GeneratorOptions options;
  options.lookahead = lookahead;
  AgGenerator gen(db, cat);
  auto r1 = gen.Generate(q, plan, options);
  auto r2 = gen.Generate(q, plan, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->edge_walks, r2->edge_walks);
  EXPECT_EQ(r1->pairs_burned, r2->pairs_burned);
  EXPECT_EQ(r1->ag->TotalQueryEdgePairs(), r2->ag->TotalQueryEdgePairs());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorPropertyTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_lookahead" : "_plain");
    });

}  // namespace
}  // namespace wireframe
