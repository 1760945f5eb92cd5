// Mines the zipf-cache query pool with the paper's §5 miner (QueryMiner
// over DiamondTemplate) on the benchmark's data set and writes it as
// SPARQL text. The pool is generated once and kept in the repository, so
// a later change to src/query cannot change the benchmark's inputs.
//
// Usage: wf_perfbench_mine <out.sparql>
//
// A mined diamond is kept when its phase 1 does real work but stays
// within a narrow band of edge walks, result rows and AG bytes. The pool
// is then phase-1-bound like the paper's CQ_D rows, and homogeneous: the
// workload seed assigns the Zipf ranks, and with queries of similar cost
// no ranking makes a run much cheaper or dearer than another. From the
// candidates, kPoolSize are taken evenly across the edge-walk range. The
// AG cache quota written with the pool is kQuotaShare of the pool's total
// frozen AG bytes, so a run must evict.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "dataset.h"
#include "query/miner.h"
#include "query/templates.h"

using namespace wireframe;

namespace {

constexpr size_t kPoolSize = 48;
constexpr uint64_t kMinRows = 30;
constexpr uint64_t kMaxRows = 42;
constexpr uint64_t kMinEdgeWalks = 40000;
constexpr uint64_t kMaxEdgeWalks = 80000;
constexpr uint64_t kMaxAgBytes = 8 << 10;
constexpr double kQuotaShare = 0.6;

struct Candidate {
  std::string text;
  uint64_t rows = 0;
  uint64_t edge_walks = 0;
  uint64_t ag_bytes = 0;
};

std::string ToSparql(const QueryGraph& query, const Database& db) {
  std::string text = "select distinct * where { ";
  for (const QueryEdge& e : query.edges()) {
    text += "?" + query.VarName(e.src) + " " + db.labels().Term(e.label) +
            " ?" + query.VarName(e.dst) + " . ";
  }
  return text + "}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: wf_perfbench_mine <out.sparql>\n";
    return 2;
  }
  const YagoLikeConfig config = perfbench::BenchDataConfig();
  Database db = MakeYagoLike(config);
  Catalog catalog = Catalog::Build(db.store());

  const QueryTemplate tmpl = DiamondTemplate();
  MinerOptions options;
  options.max_queries = 100000;
  MinerReport report;
  Result<std::vector<MinedQuery>> mined =
      QueryMiner(db, catalog).Mine(tmpl, options, &report);
  if (!mined.ok()) {
    std::cerr << mined.status().ToString() << "\n";
    return 1;
  }

  std::vector<Candidate> candidates;
  WireframeEngine engine;
  for (const MinedQuery& m : *mined) {
    const QueryGraph query = tmpl.Instantiate(m.labels);
    CountingSink sink;
    Result<WireframeRunDetail> detail =
        engine.RunDetailed(db, catalog, query, EngineOptions{}, &sink);
    if (!detail.ok()) continue;
    const uint64_t rows = detail->stats.output_tuples;
    const uint64_t walks = detail->stats.edge_walks;
    const uint64_t ag_bytes = detail->ag->FrozenByteSize();
    if (rows < kMinRows || rows > kMaxRows || walks < kMinEdgeWalks ||
        walks > kMaxEdgeWalks || ag_bytes > kMaxAgBytes) {
      continue;
    }
    candidates.push_back({ToSparql(query, db), rows, walks, ag_bytes});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.edge_walks != b.edge_walks
                         ? a.edge_walks < b.edge_walks
                         : a.text < b.text;
            });
  std::cerr << report.mined << " diamonds mined, " << candidates.size()
            << " within bounds\n";
  if (candidates.size() < kPoolSize) {
    std::cerr << "too few candidates for a pool of " << kPoolSize << "\n";
    return 1;
  }

  std::vector<Candidate> pool;
  for (size_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(candidates[i * (candidates.size() - 1) / (kPoolSize - 1)]);
  }
  uint64_t total_bytes = 0;
  for (const Candidate& c : pool) total_bytes += c.ag_bytes;
  const uint64_t quota =
      static_cast<uint64_t>(kQuotaShare * static_cast<double>(total_bytes));

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::cerr << "cannot write " << argv[1] << "\n";
    return 1;
  }
  std::fprintf(out,
               "# zipf-cache query pool: %zu CQ_D queries mined by "
               "wf_perfbench_mine\n# (QueryMiner + DiamondTemplate) on the "
               "YAGO-like graph, scale %g, seed %llu.\n# Pool AG bytes: %llu; "
               "the AG cache quota below is %g of that.\n"
               "# One query per line: rows, edge walks and AG bytes of a cold "
               "WF run precede it.\n",
               pool.size(), config.scale,
               static_cast<unsigned long long>(config.seed),
               static_cast<unsigned long long>(total_bytes), kQuotaShare);
  std::fprintf(out, "@ag_cache_bytes %llu\n",
               static_cast<unsigned long long>(quota));
  for (const Candidate& c : pool) {
    std::fprintf(out, "# rows %llu, edge walks %llu, AG bytes %llu\n%s\n",
                 static_cast<unsigned long long>(c.rows),
                 static_cast<unsigned long long>(c.edge_walks),
                 static_cast<unsigned long long>(c.ag_bytes), c.text.c_str());
  }
  return std::fclose(out) == 0 ? 0 : 1;
}
