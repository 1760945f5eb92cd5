// Phase 2 under the engine's fork rule (core/fork_rule.h): the rule
// decides only where each step runs. Whichever path the defactorizer's
// root partition, the bushy executor's gather, probe and emit, and every
// counting-DP sweep take, the rows, the DefactorizerStats and the
// aggregate results must equal the inline run's. Each instance runs with
// the test-only override that forces every step with any input onto a
// 2- and a 4-thread pool (smoke label: the TSan job races the forced
// paths). LIMIT, an expired deadline and a cancel must stop every worker.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bushy_executor.h"
#include "core/defactorizer.h"
#include "core/fork_rule.h"
#include "core/generator.h"
#include "core/wireframe.h"
#include "datagen/synthetic.h"
#include "exec/aggregate_executor.h"
#include "planner/aggregate_planner.h"
#include "planner/bushy_planner.h"
#include "planner/embedding_planner.h"
#include "query/parser.h"
#include "query/shape.h"
#include "testutil/fixtures.h"
#include "testutil/phase1.h"
#include "util/random.h"

namespace wireframe {
namespace {

using Rows = std::vector<std::vector<NodeId>>;

constexpr uint32_t kThreadCounts[] = {2, 4};

/// The frozen answer graph the engine builds (chords included).
std::unique_ptr<AnswerGraph> BuildAg(const Database& db, const Catalog& cat,
                                     const QueryGraph& q) {
  auto result = AgGenerator(db, cat).Generate(
      q, testutil::PlanWithChords(q, cat), GeneratorOptions{});
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result->ag) : nullptr;
}

QueryGraph Parse(const std::string& text, const Database& db) {
  auto q = SparqlParser::ParseAndBind(text, db);
  EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  return std::move(q).value();
}

struct Phase2Run {
  Status status;
  Rows rows;  // sorted
  DefactorizerStats stats;
};

Phase2Run Finish(Result<DefactorizerStats> result, CollectingSink& sink) {
  Phase2Run run;
  run.status = result.status();
  run.rows = sink.rows();
  std::sort(run.rows.begin(), run.rows.end());
  if (result.ok()) run.stats = *result;
  return run;
}

Phase2Run Defactorize(const QueryGraph& q, const AnswerGraph& ag,
                      const ForkRule& fork) {
  auto plan = EmbeddingPlanner(q).PlanJoinOrder(ag.Stats());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  CollectingSink sink;
  DefactorizerOptions options;
  options.fork = fork;
  return Finish(Defactorizer(q, ag).Emit(*plan, &sink, options), sink);
}

Phase2Run RunBushy(const QueryGraph& q, const AnswerGraph& ag,
                   const ForkRule& fork) {
  auto plan = BushyPlanner(q).Plan(ag.Stats());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  CollectingSink sink;
  BushyExecutorOptions options;
  options.fork = fork;
  return Finish(BushyExecutor(q, ag).Emit(*plan, &sink, options), sink);
}

using Runner = Phase2Run (*)(const QueryGraph&, const AnswerGraph&,
                             const ForkRule&);

/// Runs `run` inline and forced onto 2 and 4 threads: rows and every
/// counter but `forked` must agree, and a forced run with rows forked.
void ExpectPathInvariant(Runner run, const QueryGraph& q,
                         const AnswerGraph& ag, const std::string& what) {
  const Phase2Run serial = run(q, ag, ForkRule());
  ASSERT_TRUE(serial.status.ok()) << what << ": " << serial.status.ToString();
  EXPECT_FALSE(serial.stats.forked) << what;
  EXPECT_EQ(serial.stats.emitted, serial.rows.size()) << what;
  for (uint32_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const Phase2Run forked = run(q, ag, ForkRule(&pool, /*force=*/true));
    const std::string where = what + " threads=" + std::to_string(threads);
    ASSERT_TRUE(forked.status.ok()) << where << ": "
                                    << forked.status.ToString();
    EXPECT_TRUE(forked.stats.forked || serial.rows.empty()) << where;
    EXPECT_EQ(forked.rows, serial.rows) << where;
    EXPECT_EQ(forked.stats.emitted, serial.stats.emitted) << where;
    EXPECT_EQ(forked.stats.extensions, serial.stats.extensions) << where;
    EXPECT_EQ(forked.stats.chord_rejections, serial.stats.chord_rejections)
        << where;
  }
}

/// A random diamond (the paper's CQ_D: x→e, x→z, e→y, y→z) over labels
/// p0..p2.
QueryGraph RandomDiamond(Rng& rng, const Database& db) {
  auto label = [&] { return "p" + std::to_string(rng.Uniform(3)); };
  return Parse("select * where { ?x " + label() + " ?e . ?x " + label() +
                   " ?z . ?e " + label() + " ?y . ?y " + label() +
                   " ?z . }",
               db);
}

// ---------------------------------------------------------------------
// Defactorizer

using Phase2ForkFig1Test = testutil::Fig1Fixture;
using Phase2ForkFig4Test = testutil::Fig4Fixture;

TEST_F(Phase2ForkFig1Test, DefactorizerIdenticalOnEveryPath) {
  auto ag = BuildAg(db_, cat_, query());
  ExpectPathInvariant(&Defactorize, query(), *ag, "fig1");
}

TEST_F(Phase2ForkFig4Test, DefactorizerIdenticalOnEveryPath) {
  auto ag = BuildAg(db_, cat_, query());
  ExpectPathInvariant(&Defactorize, query(), *ag, "fig4");
}

TEST(Phase2ForkTest, DefactorizerAcyclicIdenticalOnEveryPath) {
  Rng rng(16001);
  int acyclic_seen = 0;
  for (int trial = 0; acyclic_seen < 6; ++trial) {
    ASSERT_LT(trial, 60) << "random workload produced too few trees";
    QueryGraph q = MakeRandomQuery(rng, 2 + rng.Uniform(4), 6, 3);
    if (!IsAcyclic(q)) continue;
    ++acyclic_seen;
    Database db = MakeRandomGraph(40, 3, 500, 16100 + trial);
    Catalog cat = Catalog::Build(db.store());
    auto ag = BuildAg(db, cat, q);
    ExpectPathInvariant(&Defactorize, q, *ag,
                        "acyclic " + std::to_string(trial));
  }
}

// Diamonds carry a materialized chord that the defactorizer checks by
// span intersection at the depth that binds its second endpoint.
TEST(Phase2ForkTest, DefactorizerDiamondsIdenticalOnEveryPath) {
  Rng rng(16002);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(60, 3, 900, 16200 + trial);
    Catalog cat = Catalog::Build(db.store());
    const QueryGraph q = RandomDiamond(rng, db);
    auto ag = BuildAg(db, cat, q);
    ExpectPathInvariant(&Defactorize, q, *ag,
                        "diamond " + std::to_string(trial));
  }
}

// A chord between the first join edge's own endpoints is checked at
// depth 0: per root on the inline path, as one batched prefilter over
// the whole root list on the forked path. The triangulator never adds
// such a chord, so the test copies a generated diamond AG and adds one
// that keeps every other first-edge pair, next to the diamond's own
// intersect chord.
TEST(Phase2ForkTest, DefactorizerDepthZeroChordIdenticalOnEveryPath) {
  Database db = MakeRandomGraph(60, 3, 1200, 16300);
  Catalog cat = Catalog::Build(db.store());
  const QueryGraph q = Parse(
      "select * where { ?x p0 ?e . ?x p1 ?z . ?e p2 ?y . ?y p0 ?z . }", db);
  auto generated = BuildAg(db, cat, q);
  auto plan = EmbeddingPlanner(q).PlanJoinOrder(generated->Stats());
  ASSERT_TRUE(plan.ok());
  const QueryEdge& first = q.Edge(plan->join_order[0]);

  AnswerGraphBuilder builder(q);
  for (uint32_t slot = 0; slot < generated->NumEdgeSets(); ++slot) {
    if (!generated->IsMaterialized(slot)) continue;
    const uint32_t into =
        slot < q.NumEdges()
            ? slot
            : builder.AddChordSlot(generated->SrcVar(slot),
                                   generated->DstVar(slot));
    generated->Set(slot).ForEachPair(
        [&](NodeId u, NodeId v) { builder.Set(into).Add(u, v); });
    builder.MarkMaterialized(into);
  }
  // Reversed orientation: the prefilter must key the chord's CSR on the
  // first edge's dst.
  const uint32_t depth0 = builder.AddChordSlot(first.dst, first.src);
  uint64_t i = 0;
  generated->Set(plan->join_order[0]).ForEachPair([&](NodeId u, NodeId v) {
    if (i++ % 2 == 0) builder.Set(depth0).Add(v, u);
  });
  builder.MarkMaterialized(depth0);
  const AnswerGraph ag = std::move(builder).Freeze();

  const Phase2Run serial = Defactorize(q, ag, ForkRule());
  ASSERT_TRUE(serial.status.ok());
  EXPECT_GT(serial.stats.chord_rejections, 0u);
  ExpectPathInvariant(&Defactorize, q, ag, "depth-0 chord");
}

TEST(Phase2ForkTest, DefactorizerChainSpansManyMorsels) {
  Database db = MakeChainBlowupGraph(300, 300, /*noise=*/20);
  Catalog cat = Catalog::Build(db.store());
  const QueryGraph q =
      Parse("select * where { ?w A ?x . ?x B ?y . ?y C ?z . }", db);
  auto ag = BuildAg(db, cat, q);
  ExpectPathInvariant(&Defactorize, q, *ag, "chain");
}

// ---------------------------------------------------------------------
// Bushy executor: leaf-merge gathers, hash-join probes, the emit scan.

TEST(Phase2ForkTest, BushyStarOfStarsIdenticalOnEveryPath) {
  for (uint64_t seed : {16400u, 16401u}) {
    Database db = MakeRandomGraph(40, 3, 400, seed);
    Catalog cat = Catalog::Build(db.store());
    const QueryGraph q = Parse(
        "select * where { ?r p0 ?a . ?r p0 ?b . ?r p1 ?m . ?m p2 ?x . "
        "?m p2 ?y . }",
        db);
    auto ag = BuildAg(db, cat, q);
    ExpectPathInvariant(&RunBushy, q, *ag,
                        "star of stars " + std::to_string(seed));
  }
}

TEST(Phase2ForkTest, BushyRandomIdenticalOnEveryPath) {
  Rng rng(16005);
  for (int trial = 0; trial < 6; ++trial) {
    Database db = MakeRandomGraph(30, 3, 300, 16500 + trial);
    Catalog cat = Catalog::Build(db.store());
    QueryGraph q = MakeRandomQuery(rng, 3 + rng.Uniform(3), 5, 3);
    auto ag = BuildAg(db, cat, q);
    ExpectPathInvariant(&RunBushy, q, *ag,
                        "bushy " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------
// Counting DP: tree sweeps and the single-chord cycle sweep.

AggregatePlan PlanDp(const QueryGraph& q, const AnswerGraph& ag) {
  return AggregatePlanner(q).Plan(q.aggregate(),
                                  AggregateExecutor::MaterializedChords(ag));
}

Result<AggregateResult> RunDp(const QueryGraph& q, const AnswerGraph& ag,
                              AggregateExecutorOptions options) {
  return AggregateExecutor(q, ag).Run(PlanDp(q, ag), q.aggregate(), options);
}

/// Returns false, running nothing, when the planner declines the DP.
bool ExpectDpPathInvariant(const Database& db, const Catalog& cat,
                           const std::string& text) {
  const QueryGraph q = Parse(text, db);
  auto ag = BuildAg(db, cat, q);
  if (PlanDp(q, *ag).mode == AggregateMode::kEnumerate) return false;
  auto serial = RunDp(q, *ag, AggregateExecutorOptions{});
  EXPECT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
  if (!serial.ok()) return true;
  for (uint32_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    AggregateExecutorOptions options;
    options.fork = ForkRule(&pool, /*force=*/true);
    auto forked = RunDp(q, *ag, options);
    const std::string where = text + " threads=" + std::to_string(threads);
    EXPECT_TRUE(forked.ok()) << where << ": " << forked.status().ToString();
    if (!forked.ok()) continue;
    EXPECT_EQ(forked->value, serial->value) << where;
    EXPECT_EQ(forked->ask, serial->ask) << where;
    EXPECT_EQ(forked->groups, serial->groups) << where;
  }
  return true;
}

TEST(Phase2ForkTest, TreeDpIdenticalOnEveryPath) {
  Database db = MakeChainBlowupGraph(300, 300, /*noise=*/20);
  Catalog cat = Catalog::Build(db.store());
  const std::string body = "{ ?w A ?x . ?x B ?y . ?y C ?z . }";
  EXPECT_TRUE(
      ExpectDpPathInvariant(db, cat, "select (count(*) as ?c) where " + body));
  EXPECT_TRUE(ExpectDpPathInvariant(
      db, cat, "select ?w (count(*) as ?c) where " + body + " group by ?w"));
  EXPECT_TRUE(ExpectDpPathInvariant(
      db, cat, "select (count(distinct ?z) as ?c) where " + body));
  EXPECT_TRUE(ExpectDpPathInvariant(db, cat, "ask " + body));
}

TEST(Phase2ForkTest, CycleDpIdenticalOnEveryPath) {
  Database db = MakeRandomGraph(80, 3, 3000, 16600);
  Catalog cat = Catalog::Build(db.store());
  const std::string body = "{ ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p0 ?a . }";
  EXPECT_TRUE(
      ExpectDpPathInvariant(db, cat, "select (count(*) as ?c) where " + body));
  EXPECT_TRUE(ExpectDpPathInvariant(db, cat, "ask " + body));
  // GROUP BY takes the DP only on a chord endpoint.
  int grouped = 0;
  for (const char* v : {"?a", "?b", "?c", "?d"}) {
    grouped += ExpectDpPathInvariant(db, cat,
                                     std::string("select ") + v +
                                         " (count(*) as ?n) where " + body +
                                         " group by " + v);
  }
  EXPECT_EQ(grouped, 2);
}

// ---------------------------------------------------------------------
// Stopping: a declined row, an expired deadline and a cancel stop every
// worker of a forced run.

class Phase2StopTest : public ::testing::Test {
 protected:
  Phase2StopTest()
      : db_(MakeChainBlowupGraph(400, 400, /*noise=*/10)),
        cat_(Catalog::Build(db_.store())),
        query_(Parse("select * where { ?w A ?x . ?x B ?y . ?y C ?z . }",
                     db_)),
        ag_(BuildAg(db_, cat_, query_)),
        pool_(4) {}

  Result<DefactorizerStats> Defactorize(Sink* sink,
                                        DefactorizerOptions options) {
    auto plan = EmbeddingPlanner(query_).PlanJoinOrder(ag_->Stats());
    EXPECT_TRUE(plan.ok());
    options.fork = ForkRule(&pool_, /*force=*/true);
    return Defactorizer(query_, *ag_).Emit(*plan, sink, options);
  }

  Result<DefactorizerStats> Bushy(Sink* sink, BushyExecutorOptions options) {
    auto plan = BushyPlanner(query_).Plan(ag_->Stats());
    EXPECT_TRUE(plan.ok());
    options.fork = ForkRule(&pool_, /*force=*/true);
    return BushyExecutor(query_, *ag_).Emit(*plan, sink, options);
  }

  Result<AggregateResult> Count(AggregateExecutorOptions options) {
    QueryGraph q = Parse(
        "select (count(*) as ?c) where { ?w A ?x . ?x B ?y . ?y C ?z . }",
        db_);
    options.fork = ForkRule(&pool_, /*force=*/true);
    return RunDp(q, *ag_, options);
  }

  static constexpr uint64_t kRows = 400u * 400u;

  Database db_;
  Catalog cat_;
  QueryGraph query_;
  std::unique_ptr<AnswerGraph> ag_;
  ThreadPool pool_;
};

/// Reads its rows (so a shard copies them) and sets `cancel` on its
/// `at`-th row.
class CancellingSink : public Sink {
 public:
  CancellingSink(std::atomic<bool>* cancel, uint64_t at)
      : cancel_(cancel), at_(at) {}
  bool Emit(const std::vector<NodeId>&) override {
    if (++count_ == at_) cancel_->store(true);
    return true;
  }
  uint64_t count() const override { return count_; }

 private:
  std::atomic<bool>* cancel_;
  uint64_t at_;
  uint64_t count_ = 0;
};

TEST_F(Phase2StopTest, LimitSinkStopsEveryWorker) {
  LimitSink defac_sink(10);
  auto defac = Defactorize(&defac_sink, DefactorizerOptions{});
  ASSERT_TRUE(defac.ok()) << defac.status().ToString();
  EXPECT_TRUE(defac->forked);
  EXPECT_EQ(defac_sink.count(), 10u);
  EXPECT_EQ(defac->emitted, 10u);

  LimitSink bushy_sink(10);
  auto bushy = Bushy(&bushy_sink, BushyExecutorOptions{});
  ASSERT_TRUE(bushy.ok()) << bushy.status().ToString();
  EXPECT_TRUE(bushy->forked);
  EXPECT_EQ(bushy_sink.count(), 10u);
  EXPECT_EQ(bushy->emitted, 10u);
}

TEST_F(Phase2StopTest, RowBudgetStaysExactOverACountingSink) {
  for (uint64_t budget : {1u, 999u, 40000u}) {
    CountingSink inner;
    RowBudgetSink sink(&inner, budget);
    auto stats = Defactorize(&sink, DefactorizerOptions{});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(inner.count(), budget);
    EXPECT_EQ(sink.count(), budget);
    EXPECT_TRUE(sink.exhausted()) << "budget " << budget;
  }
  CountingSink all;
  auto stats = Defactorize(&all, DefactorizerOptions{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(all.count(), kRows);
  EXPECT_EQ(stats->emitted, kRows);
}

// The enumerate-then-count fold of COUNT(*) and ASK reads only counts, so
// forked shards hand it counts and no rows.
TEST_F(Phase2StopTest, CountOnlyAggregateFoldMatchesTheInlineRun) {
  for (const char* text :
       {"select (count(*) as ?c) where { ?w A ?x . ?x B ?y . ?y C ?z . }",
        "ask { ?w A ?x . ?x B ?y . ?y C ?z . }"}) {
    const QueryGraph q = Parse(text, db_);
    EnumeratingAggregateSink fold(q.aggregate());
    ASSERT_TRUE(fold.ReadsOnlyCount()) << text;
    auto stats = Defactorize(&fold, DefactorizerOptions{});
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->forked);
    const AggregateResult result = fold.TakeResult();
    if (q.aggregate().kind == AggregateKind::kAsk) {
      EXPECT_TRUE(result.ask);
      EXPECT_EQ(stats->emitted, 1u);
    } else {
      EXPECT_EQ(result.value, AggregateValue::FromU64(kRows));
    }
  }
}

TEST_F(Phase2StopTest, ExpiredDeadlineStopsEveryWorker) {
  CountingSink sink;
  DefactorizerOptions defac;
  defac.deadline = Deadline::AlreadyExpired();
  auto d = Defactorize(&sink, defac);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsTimedOut()) << d.status().ToString();

  BushyExecutorOptions bushy;
  bushy.deadline = Deadline::AlreadyExpired();
  auto b = Bushy(&sink, bushy);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsTimedOut()) << b.status().ToString();

  AggregateExecutorOptions dp;
  dp.deadline = Deadline::AlreadyExpired();
  auto c = Count(dp);
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsTimedOut()) << c.status().ToString();
  EXPECT_EQ(sink.count(), 0u);
}

TEST_F(Phase2StopTest, CancelStopsEveryWorker) {
  std::atomic<bool> cancel{true};
  CountingSink sink;
  DefactorizerOptions defac;
  defac.cancel = &cancel;
  auto d = Defactorize(&sink, defac);
  ASSERT_FALSE(d.ok());
  EXPECT_TRUE(d.status().IsCancelled()) << d.status().ToString();

  BushyExecutorOptions bushy;
  bushy.cancel = &cancel;
  auto b = Bushy(&sink, bushy);
  ASSERT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsCancelled()) << b.status().ToString();

  AggregateExecutorOptions dp;
  dp.cancel = &cancel;
  auto c = Count(dp);
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsCancelled()) << c.status().ToString();
  EXPECT_EQ(sink.count(), 0u);
}

TEST_F(Phase2StopTest, CancelMidRunStopsEveryWorker) {
  std::atomic<bool> cancel{false};
  CancellingSink sink(&cancel, 1000);
  DefactorizerOptions options;
  options.cancel = &cancel;
  auto stats = Defactorize(&sink, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCancelled()) << stats.status().ToString();
  EXPECT_LT(sink.count(), kRows);
}

// ---------------------------------------------------------------------
// The default rule through the engine: a fixture-sized query at four
// threads runs inline; roots that clear the floor fork.

TEST_F(Phase2ForkFig1Test, FixtureSizedQueryRunsInline) {
  CountingSink sink;
  EngineOptions options;
  options.threads = 4;
  auto detail = WireframeEngine().RunDetailed(db_, cat_, query(), options,
                                              &sink);
  ASSERT_TRUE(detail.ok()) << detail.status().ToString();
  EXPECT_EQ(sink.count(), 12u);
  EXPECT_FALSE(detail->phase2_stats.forked);
}

TEST(Phase2ForkTest, RootsAboveTheFloorFork) {
  // About 1,800 pairs on either edge, against a floor of 2 x 64 x 4 = 512
  // first-edge pairs at four threads.
  Database db = MakeRandomGraph(2000, 3, 6000, 16700);
  Catalog cat = Catalog::Build(db.store());
  const QueryGraph q = Parse("select * where { ?x p0 ?y . ?y p1 ?z . }", db);
  uint64_t rows = 0;
  for (uint32_t threads : {1u, 4u}) {
    CountingSink sink;
    EngineOptions options;
    options.threads = threads;
    auto detail = WireframeEngine().RunDetailed(db, cat, q, options, &sink);
    ASSERT_TRUE(detail.ok()) << detail.status().ToString();
    const uint32_t first = detail->embedding_plan.join_order[0];
    EXPECT_GE(detail->ag->Set(first).Size(), 512u);
    EXPECT_EQ(detail->phase2_stats.forked, threads == 4);
    if (threads == 1) rows = sink.count();
    EXPECT_EQ(sink.count(), rows);
    EXPECT_GT(rows, 0u);
  }
}

}  // namespace
}  // namespace wireframe
