// Chord-parallel equivalence: materializing chords sharded over endpoint
// candidates (like regular edge extension) must produce exactly the chord
// sets, |AG|, and embeddings of the serial path, for every thread count.
// Phase 1 runs with the fork rule's test-only override, so every chord
// pass forks even on fixture-sized inputs and the TSan job (smoke label)
// races the parallel chord paths.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "testutil/phase1.h"

namespace wireframe {
namespace {

struct ChordRun {
  std::set<std::vector<NodeId>> rows;
  /// Every frozen edge set, query edges and chords.
  std::vector<std::set<uint64_t>> sets;
  uint64_t ag_pairs = 0;
  uint64_t chord_pairs = 0;
  bool cyclic = false;
};

/// Phase 1 as the engine plans it, forced onto the parallel paths at
/// `threads`, then phase 2 over the resulting AG through the engine.
ChordRun RunWf(const Database& db, const Catalog& cat, const QueryGraph& q,
               uint32_t threads) {
  ThreadPool pool(threads);
  GeneratorOptions gen_options;
  gen_options.lookahead = WireframeOptions().lookahead;
  gen_options.pool = &pool;
  gen_options.force_parallel = true;
  auto gen = AgGenerator(db, cat).Generate(
      q, testutil::PlanWithChords(q, cat), gen_options);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();
  ChordRun run;
  run.cyclic = !AnalyzeShape(q).acyclic;
  if (!gen.ok()) return run;
  run.sets = testutil::AgPairs(*gen->ag);
  run.ag_pairs = gen->ag->TotalQueryEdgePairs();
  run.chord_pairs = gen->chord_pairs;

  WireframeEngine engine;
  CollectingSink sink;
  EngineOptions options;
  options.threads = threads;
  auto detail = engine.RunOverAg(q, *gen->ag, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  run.rows = {sink.rows().begin(), sink.rows().end()};
  return run;
}

using ChordParallelFig4Test = testutil::Fig4Fixture;

TEST_F(ChordParallelFig4Test, Fig4ChordAgreesAcrossThreadCounts) {
  const ChordRun serial = RunWf(db_, cat_, query(), 1);
  EXPECT_TRUE(serial.cyclic);
  for (uint32_t threads : {2u, 4u}) {
    const ChordRun parallel = RunWf(db_, cat_, query(), threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs);
    EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs);
    EXPECT_EQ(parallel.sets, serial.sets) << "threads=" << threads;
  }
}

// A 4-cycle over a dense random graph: the chord's first-triangle
// frontier spans many morsels, so the forced parallel passes shard
// across threads, including the intersection pass.
TEST(ChordParallelTest, DenseSquareSpansManyMorsels) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(IsAcyclic(*q));

  const ChordRun serial = RunWf(db, cat, *q, 1);
  EXPECT_GT(serial.chord_pairs, 0u) << "the square must materialize a chord";
  for (uint32_t threads : {2u, 4u}) {
    const ChordRun parallel = RunWf(db, cat, *q, threads);
    EXPECT_EQ(parallel.rows, serial.rows) << "threads=" << threads;
    EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs) << "threads=" << threads;
    EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs)
        << "threads=" << threads;
    EXPECT_EQ(parallel.sets, serial.sets) << "threads=" << threads;
  }
}

// Randomized cyclic instances: chord contents must be thread-count
// invariant on every shape the triangulator produces.
TEST(ChordParallelTest, RandomCyclicInstancesAgree) {
  Rng rng(424242);
  int cyclic_seen = 0;
  for (int trial = 0; trial < 12 || cyclic_seen < 3; ++trial) {
    ASSERT_LT(trial, 40) << "random workload failed to produce cycles";
    Database db = MakeRandomGraph(40, 3, 800, 11000 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    if (IsAcyclic(q)) continue;
    ++cyclic_seen;

    const ChordRun serial = RunWf(db, cat, q, 1);
    for (uint32_t threads : {2u, 4u}) {
      const ChordRun parallel = RunWf(db, cat, q, threads);
      EXPECT_EQ(parallel.rows, serial.rows)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.ag_pairs, serial.ag_pairs)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.chord_pairs, serial.chord_pairs)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(parallel.sets, serial.sets)
          << "trial " << trial << " threads " << threads;
    }
  }
}

// An expired deadline inside chord materialization must surface as
// TimedOut on the amortized probe, serial and parallel alike.
TEST(ChordParallelTest, ChordMaterializationHonorsDeadline) {
  Database db = MakeRandomGraph(80, 3, 6000, 778);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  for (uint32_t threads : {1u, 4u}) {
    WireframeEngine engine;
    CountingSink sink;
    EngineOptions options;
    options.threads = threads;
    options.deadline = Deadline::AlreadyExpired();
    auto stats = engine.Run(db, cat, *q, options, &sink);
    ASSERT_FALSE(stats.ok());
    EXPECT_TRUE(stats.status().IsTimedOut()) << stats.status().ToString();
  }
}

}  // namespace
}  // namespace wireframe
