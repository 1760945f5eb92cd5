// Freeze equivalence: the frozen AnswerGraph that phase 1 ends with must
// hold what phase 2 needs, no more and no less. Checked on the paper
// fixtures and randomized workloads, pipelined and bushy, at 1, 2 and 4
// threads:
//   - rows equal those of all four baseline engines;
//   - every edge set is identical across thread counts;
//   - each query-edge set equals the projection of the baseline rows
//     onto that edge's (src, dst) for acyclic queries (the ideal AG), and
//     contains it for cyclic ones.

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/engine.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "util/hash.h"

namespace wireframe {
namespace {

using Rows = std::set<std::vector<NodeId>>;
using EdgeSets = std::vector<std::set<uint64_t>>;

struct WfRun {
  Rows rows;
  uint64_t ag_pairs = 0;
  EdgeSets edge_sets;
};

WfRun RunWf(const Database& db, const Catalog& cat, const QueryGraph& q,
            uint32_t threads, bool bushy) {
  WireframeOptions wf_options;
  wf_options.bushy_phase2 = bushy;
  WireframeEngine engine(wf_options);
  CollectingSink sink;
  EngineOptions options;
  options.threads = threads;
  auto detail = engine.RunDetailed(db, cat, q, options, &sink);
  EXPECT_TRUE(detail.ok()) << detail.status().ToString();
  WfRun run;
  run.rows = {sink.rows().begin(), sink.rows().end()};
  if (detail.ok()) {
    run.ag_pairs = detail->stats.ag_pairs;
    run.edge_sets.resize(detail->ag->NumEdgeSets());
    for (uint32_t e = 0; e < detail->ag->NumEdgeSets(); ++e) {
      detail->ag->Set(e).ForEachPair([&](NodeId u, NodeId v) {
        run.edge_sets[e].insert(PackPair(u, v));
      });
    }
  }
  return run;
}

/// The four baseline engines' rows; fails the test unless they agree.
Rows BaselineRows(const Database& db, const Catalog& cat,
                  const QueryGraph& q, const char* what) {
  Rows reference;
  bool first = true;
  for (const char* name : {"PG", "VT", "MD", "NJ"}) {
    auto engine = MakeEngine(name);
    CollectingSink sink;
    auto stats = engine->Run(db, cat, q, EngineOptions{}, &sink);
    EXPECT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    Rows rows(sink.rows().begin(), sink.rows().end());
    if (first) {
      reference = std::move(rows);
      first = false;
    } else {
      EXPECT_EQ(rows, reference) << what << " engine " << name;
    }
  }
  return reference;
}

void ExpectFrozenAgSound(const Database& db, const Catalog& cat,
                         const QueryGraph& q, const char* what) {
  const Rows baseline = BaselineRows(db, cat, q, what);
  EdgeSets projection(q.NumEdges());
  for (const std::vector<NodeId>& row : baseline) {
    for (uint32_t e = 0; e < q.NumEdges(); ++e) {
      projection[e].insert(PackPair(row[q.Edge(e).src], row[q.Edge(e).dst]));
    }
  }
  const bool acyclic = IsAcyclic(q);

  for (const bool bushy : {false, true}) {
    const WfRun reference = RunWf(db, cat, q, 1, bushy);
    for (uint32_t threads : {1u, 2u, 4u}) {
      const WfRun run =
          threads == 1 ? reference : RunWf(db, cat, q, threads, bushy);
      SCOPED_TRACE(testing::Message() << what << " threads " << threads
                                      << (bushy ? " bushy" : " pipelined"));
      EXPECT_EQ(run.rows, baseline);
      EXPECT_EQ(run.ag_pairs, reference.ag_pairs);
      ASSERT_EQ(run.edge_sets.size(), reference.edge_sets.size());
      for (size_t e = 0; e < reference.edge_sets.size(); ++e) {
        EXPECT_EQ(run.edge_sets[e], reference.edge_sets[e])
            << "edge set " << e;
      }
      ASSERT_GE(run.edge_sets.size(), projection.size());
      for (uint32_t e = 0; e < q.NumEdges(); ++e) {
        if (acyclic) {
          EXPECT_EQ(run.edge_sets[e], projection[e]) << "edge " << e;
        } else {
          for (uint64_t pair : projection[e]) {
            EXPECT_TRUE(run.edge_sets[e].count(pair) > 0)
                << "edge " << e << " lost an embedding's pair";
          }
        }
      }
    }
  }
}

using FreezeFig1Test = testutil::Fig1Fixture;
using FreezeFig4Test = testutil::Fig4Fixture;

TEST_F(FreezeFig1Test, Fig1FrozenAgMatchesBaselines) {
  ExpectFrozenAgSound(db_, cat_, query(), "fig1");
}

TEST_F(FreezeFig4Test, Fig4FrozenAgMatchesBaselines) {
  ExpectFrozenAgSound(db_, cat_, query(), "fig4");
}

TEST(FreezeEquivalenceTest, RandomInstancesMatchAcrossAllEngines) {
  Rng rng(20260801);
  int cyclic_seen = 0, acyclic_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 9200 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(3), 5, 3);
    (IsAcyclic(q) ? acyclic_seen : cyclic_seen) += 1;
    ExpectFrozenAgSound(db, cat, q, "random");
  }
  EXPECT_GT(cyclic_seen + acyclic_seen, 0);
}

TEST(FreezeEquivalenceTest, ChainBlowupMatches) {
  Database db = MakeChainBlowupGraph(200, 200, /*noise=*/30);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  ASSERT_TRUE(q.ok());
  ExpectFrozenAgSound(db, cat, *q, "chain blowup");
  EXPECT_EQ(RunWf(db, cat, *q, 1, false).rows.size(), 200u * 200u);
}

// The bushy executor's leaf scans and leaf merges read the frozen CSR.
TEST(FreezeEquivalenceTest, BushyExecutorMatchesOverFrozenAg) {
  Rng rng(607);
  for (int trial = 0; trial < 4; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 4100 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    ExpectFrozenAgSound(db, cat, q, "bushy random");
  }
}

// Chord filters in phase 2 intersect and probe the frozen chord sets;
// cyclic results must equal the baselines'.
TEST(FreezeEquivalenceTest, DenseSquareChordFiltersMatch) {
  Database db = MakeRandomGraph(80, 3, 6000, 777);
  Catalog cat = Catalog::Build(db.store());
  auto q = SparqlParser::ParseAndBind(
      "select * where { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }", db);
  ASSERT_TRUE(q.ok());
  ExpectFrozenAgSound(db, cat, *q, "dense square");
}

}  // namespace
}  // namespace wireframe
