// Phase 1's fork rule (core/fork_rule.h) decides only where each step
// runs: inline, or forked onto the pool. Whichever path every extension
// level, chord pass, burnback drain and the freeze take, the frozen
// answer graph (every query edge and chord), edge_walks and pairs_burned
// must equal the single-threaded run's. Each instance runs at 1, 2 and 4
// threads under the default rule and with the test-only override that
// forces every step onto the parallel path (smoke label: the TSan job
// races the forced paths).

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fork_rule.h"
#include "core/generator.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "testutil/phase1.h"
#include "util/random.h"

namespace wireframe {
namespace {

struct Phase1Run {
  std::vector<std::set<uint64_t>> sets;
  uint64_t edge_walks = 0;
  uint64_t pairs_burned = 0;
  uint64_t chord_pairs = 0;
};

Phase1Run Generate(const Database& db, const Catalog& cat,
                   const QueryGraph& q, const AgPlan& plan, bool lookahead,
                   uint32_t threads, bool force) {
  ThreadPool pool(threads);
  GeneratorOptions options;
  options.lookahead = lookahead;
  options.pool = &pool;
  options.force_parallel = force;
  auto result = AgGenerator(db, cat).Generate(q, plan, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Phase1Run run;
  if (!result.ok()) return run;
  run.sets = testutil::AgPairs(*result->ag);
  run.edge_walks = result->edge_walks;
  run.pairs_burned = result->pairs_burned;
  run.chord_pairs = result->chord_pairs;
  return run;
}

/// Compares every (threads, rule) combination against the inline
/// single-threaded run, with and without the lookahead filter.
void ExpectPathInvariant(const Database& db, const Catalog& cat,
                         const QueryGraph& q, const std::string& what) {
  const AgPlan plan = testutil::PlanWithChords(q, cat);
  for (bool lookahead : {false, true}) {
    const Phase1Run serial =
        Generate(db, cat, q, plan, lookahead, 1, /*force=*/false);
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (bool force : {false, true}) {
        const Phase1Run run =
            Generate(db, cat, q, plan, lookahead, threads, force);
        const std::string where =
            what + " threads=" + std::to_string(threads) +
            (force ? " forced" : " default") +
            (lookahead ? " lookahead" : "");
        EXPECT_EQ(run.sets, serial.sets) << where;
        EXPECT_EQ(run.edge_walks, serial.edge_walks) << where;
        EXPECT_EQ(run.pairs_burned, serial.pairs_burned) << where;
        EXPECT_EQ(run.chord_pairs, serial.chord_pairs) << where;
      }
    }
  }
}

using Phase1ForkFig1Test = testutil::Fig1Fixture;
using Phase1ForkFig4Test = testutil::Fig4Fixture;

TEST_F(Phase1ForkFig1Test, Fig1IdenticalOnEveryPath) {
  ExpectPathInvariant(db_, cat_, query(), "fig1");
}

TEST_F(Phase1ForkFig4Test, Fig4IdenticalOnEveryPath) {
  ExpectPathInvariant(db_, cat_, query(), "fig4");
}

/// A random diamond (the paper's CQ_D: x→e, x→z, e→y, y→z) over labels
/// p0..p2.
QueryGraph RandomDiamond(Rng& rng, const Database& db) {
  auto label = [&] { return "p" + std::to_string(rng.Uniform(3)); };
  const std::string text = "select * where { ?x " + label() + " ?e . ?x " +
                           label() + " ?z . ?e " + label() + " ?y . ?y " +
                           label() + " ?z . }";
  auto q = SparqlParser::ParseAndBind(text, db);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return std::move(q).value();
}

TEST(Phase1ForkTest, RandomDiamondsIdenticalOnEveryPath) {
  Rng rng(14014);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(60, 3, 900, 14100 + trial);
    Catalog cat = Catalog::Build(db.store());
    const QueryGraph q = RandomDiamond(rng, db);
    ASSERT_FALSE(IsAcyclic(q));
    ExpectPathInvariant(db, cat, q, "diamond " + std::to_string(trial));
  }
}

TEST(Phase1ForkTest, RandomAcyclicIdenticalOnEveryPath) {
  Rng rng(14015);
  int acyclic_seen = 0;
  for (int trial = 0; acyclic_seen < 6; ++trial) {
    ASSERT_LT(trial, 60) << "random workload produced too few trees";
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 6, 3);
    if (!IsAcyclic(q)) continue;
    ++acyclic_seen;
    Database db = MakeRandomGraph(40, 3, 500, 14200 + trial);
    Catalog cat = Catalog::Build(db.store());
    ExpectPathInvariant(db, cat, q, "acyclic " + std::to_string(trial));
  }
}

// Large enough that the default rule forks some steps and not others at
// 2 and 4 threads: thousands of distinct subjects per label on the cold
// start, a chord join over thousands of pairs, a five-figure freeze.
TEST(Phase1ForkTest, LargeDiamondMixesPathsIdentically) {
  Database db = MakeRandomGraph(6000, 3, 36000, 14300);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?x p0 ?e . ?x p1 ?z . ?e p2 ?y . ?y p0 ?z . }", db);
  ASSERT_TRUE(q.ok());
  ExpectPathInvariant(db, cat, *q, "large diamond");
}

TEST(ForkRuleTest, ForksFromTwoMorselsPerThread) {
  ThreadPool pool(4);
  const ForkRule rule(&pool);
  EXPECT_EQ(rule.Floor(256), 2u * 256u * 4u);
  EXPECT_FALSE(rule.Forks(2047, 256));  // one item below the floor
  EXPECT_TRUE(rule.Forks(2048, 256));   // exactly at it
  EXPECT_EQ(rule.pool(), &pool);
}

TEST(ForkRuleTest, ForceForksAnyNonEmptyInput) {
  ThreadPool pool(2);
  const ForkRule rule(&pool, /*force=*/true);
  EXPECT_EQ(rule.Floor(256), 1u);
  EXPECT_FALSE(rule.Forks(0, 256));
  EXPECT_TRUE(rule.Forks(1, 256));
}

TEST(ForkRuleTest, NeverForksWithoutAMultiThreadedPool) {
  ThreadPool single(1);
  for (const ForkRule& rule :
       {ForkRule(), ForkRule(nullptr, /*force=*/true),
        ForkRule(&single, /*force=*/true)}) {
    EXPECT_EQ(rule.pool(), nullptr);
    EXPECT_FALSE(rule.Forks(UINT64_MAX - 1, 1));
  }
}

}  // namespace
}  // namespace wireframe
