// The repository benchmark: four closed-loop workloads over the seeded
// YAGO-like graph, served by an in-process runtime::Server and, where the
// workload says so, a loopback net::SocketServer.
//
// Usage: wf_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --pool <zipf_pool.sparql>
//                     [--trace-out <spans.jsonl>] [--corrupt-row]
//
// Every answer is checked against a reference computed before timing by
// the backtracking baseline (NJ), which builds no answer graph. The last
// line of stdout is one JSON object: the end-to-end metrics (--trace 0)
// or the per-layer metrics of a traced run (--trace 1). The exit code is
// nonzero when any answer was wrong or any query failed. --corrupt-row
// alters one row of one result before it is checked; the benchmark's own
// test uses it to show the gate failing the run.

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/wireframe.h"
#include "dataset.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "query/canonical.h"
#include "query/parser.h"
#include "runtime/server.h"
#include "trace.h"
#include "util/span_kernels.h"
#include "util/thread_pool.h"

using namespace wireframe;
using namespace wireframe::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// AG cache lifetimes a cache workload measures, and each one's warm-up.
constexpr int kCacheEpochs = 4;
constexpr double kCacheWarmupSeconds = 1.0;
/// Requests whose spans a traced run writes out.
constexpr size_t kWrittenTraces = 5000;

// ---------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  const char* name;
  bool socket;
  int clients;
  bool ag_cache;
};

// Why each workload exists (see BENCHMARK.json and README.md):
//  - snowflake-socket loads the row path: sinks, ROW-BATCH encoding,
//    send-queue back-pressure and client decoding of every row;
//  - snowflake-embedded runs the same queries with no socket, the only
//    place a phase-2 or sink gain is not hidden behind the wire;
//  - zipf-cache is the only workload with repeated inputs, so the AG
//    cache hits, misses, fills single-flight and evicts; its misses are
//    phase-1-bound and half its draws are COUNT(*).
constexpr WorkloadSpec kWorkloads[] = {
    {"snowflake-socket", true, 1, false},
    {"snowflake-embedded", false, 1, false},
    {"zipf-cache", true, 4, true},
};

struct Request {
  std::string text;
  /// Index of the reference query this request is checked against.
  uint32_t base = 0;
  bool count = false;
  /// Reference column i is result column perm[i].
  std::vector<uint32_t> perm;
};

struct WorkloadPlan {
  /// Reference queries (SELECT DISTINCT * form).
  std::vector<std::string> base_text;
  std::vector<QueryGraph> base;
  /// One request stream per client, replayed cyclically.
  std::vector<std::vector<Request>> streams;
  /// Requests per pass: a measured phase ends on a pass boundary, so
  /// every run weighs each query the same. 0 = time-bounded only.
  size_t pass = 0;
};

std::string CountForm(const std::string& select_text) {
  const size_t where = select_text.find("where");
  return "select (count(*) as ?n) " + select_text.substr(where);
}

template <typename T>
void SeededShuffle(std::vector<T>* items, std::mt19937_64* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[(*rng)() % i]);
  }
}

/// Zipf(1) draws over `n` ranks.
class ZipfSampler {
 public:
  explicit ZipfSampler(size_t n) : cdf_(n) {
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(std::mt19937_64* rng) const {
    const double u =
        static_cast<double>((*rng)() >> 11) * (1.0 / 9007199254740992.0);
    return std::min<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One zipf-cache draw: the pool query with fresh variable names, its
/// triple patterns shuffled, as SELECT DISTINCT * or COUNT(*).
Result<Request> RenamedDraw(const ParsedQuery& parsed, const QueryGraph& base,
                            uint32_t base_index, const Database& db,
                            std::mt19937_64* rng) {
  std::map<std::string, std::string> rename;
  for (const ParsedQuery::Pattern& p : parsed.patterns) {
    for (const std::string* var : {&p.subject_var, &p.object_var}) {
      if (rename.count(*var) == 0) {
        rename[*var] = "v" + std::to_string(rename.size()) + "_" +
                       std::to_string((*rng)() % 100000);
      }
    }
  }
  std::vector<ParsedQuery::Pattern> patterns = parsed.patterns;
  SeededShuffle(&patterns, rng);
  Request request;
  request.base = base_index;
  request.count = ((*rng)() & 1) != 0;
  std::string body = "where { ";
  for (const ParsedQuery::Pattern& p : patterns) {
    body += "?" + rename[p.subject_var] + " " + p.predicate + " ?" +
            rename[p.object_var] + " . ";
  }
  body += "}";
  request.text = (request.count ? "select (count(*) as ?n) "
                                : "select distinct * ") +
                 body;
  WF_ASSIGN_OR_RETURN(QueryGraph bound,
                      SparqlParser::ParseAndBind(request.text, db));
  for (VarId v = 0; v < base.NumVars(); ++v) {
    request.perm.push_back(bound.FindVar(rename[base.VarName(v)]));
  }
  return request;
}

struct ZipfPool {
  std::vector<std::string> queries;
  uint64_t ag_cache_bytes = 0;
};

/// Reads the mined pool: '#' comments, one "@ag_cache_bytes N" line, one
/// SPARQL query per other non-empty line.
Result<ZipfPool> LoadPool(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read query pool " + path);
  ZipfPool pool;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("@ag_cache_bytes ", 0) == 0) {
      pool.ag_cache_bytes = std::stoull(line.substr(16));
      continue;
    }
    pool.queries.push_back(line);
  }
  if (pool.queries.empty() || pool.ag_cache_bytes == 0) {
    return Status::InvalidArgument("query pool " + path +
                                   " has no queries or no cache quota");
  }
  return pool;
}

Result<WorkloadPlan> MakePlan(const WorkloadSpec& spec, uint64_t seed,
                              const ZipfPool& pool, const Database& db) {
  WorkloadPlan plan;
  std::mt19937_64 rng(seed);
  const std::vector<std::string> table1 = Table1Queries();
  std::vector<Request> pass;
  if (!spec.ag_cache) {
    plan.base_text.assign(table1.begin(), table1.begin() + 5);
    for (uint32_t i = 0; i < 5; ++i) pass.push_back({table1[i], i, false, {}});
  } else {
    plan.base_text = pool.queries;
  }
  for (const std::string& text : plan.base_text) {
    WF_ASSIGN_OR_RETURN(QueryGraph bound, SparqlParser::ParseAndBind(text, db));
    plan.base.push_back(std::move(bound));
  }
  plan.streams.resize(spec.clients);
  if (!pass.empty()) {
    for (Request& r : pass) {
      r.perm = IdentityPerm(plan.base[r.base].NumVars());
    }
    plan.pass = pass.size();
    // Each pass is a fresh seeded permutation of the workload's queries.
    for (int pass_index = 0; pass_index < 400; ++pass_index) {
      SeededShuffle(&pass, &rng);
      plan.streams[0].insert(plan.streams[0].end(), pass.begin(),
                             pass.end());
    }
    return plan;
  }
  // zipf-cache: the seed picks which pool query gets which Zipf rank, and
  // every draw's renaming, pattern order and result form.
  std::vector<ParsedQuery> parsed;
  for (const std::string& text : plan.base_text) {
    WF_ASSIGN_OR_RETURN(ParsedQuery p, SparqlParser::Parse(text));
    parsed.push_back(std::move(p));
  }
  std::vector<uint32_t> rank_to_query(plan.base.size());
  for (uint32_t i = 0; i < rank_to_query.size(); ++i) rank_to_query[i] = i;
  SeededShuffle(&rank_to_query, &rng);
  const ZipfSampler zipf(plan.base.size());
  for (std::vector<Request>& stream : plan.streams) {
    for (int i = 0; i < 10000; ++i) {
      const uint32_t q = rank_to_query[zipf.Draw(&rng)];
      WF_ASSIGN_OR_RETURN(Request r,
                          RenamedDraw(parsed[q], plan.base[q], q, db, &rng));
      stream.push_back(std::move(r));
    }
  }
  return plan;
}

// ---------------------------------------------------------------------
// Set-up

/// Everything a run serves from. Built in place: the catalog and the
/// servers borrow the database.
struct Serving {
  double generate_seconds = 0.0;
  double catalog_seconds = 0.0;
  double ready_seconds = 0.0;
  Clock::time_point start = Clock::now();
  Database db;
  Catalog catalog;
  std::unique_ptr<runtime::Server> server;
  std::unique_ptr<net::SocketServer> socket;

  Serving()
      : db(Generate(&generate_seconds)),
        catalog(BuildCatalog(db, &catalog_seconds)) {}

 private:
  static Database Generate(double* seconds) {
    const Clock::time_point t = Clock::now();
    Database db = MakeYagoLike(BenchDataConfig());
    *seconds = Since(t);
    return db;
  }
  static Catalog BuildCatalog(const Database& db, double* seconds) {
    const Clock::time_point t = Clock::now();
    Catalog catalog = Catalog::Build(db.store());
    *seconds = Since(t);
    return catalog;
  }
};

/// (Re)starts the runtime server, and the socket server in front of it
/// when the workload uses one, dropping any previous ones (and with them
/// the AG cache).
Status StartServers(const WorkloadSpec& spec, const ZipfPool& pool,
                    Serving* serving) {
  serving->socket.reset();
  serving->server.reset();
  runtime::ServerOptions options;  // default pool: one thread per core
  if (spec.ag_cache) {
    options.runtime.admission.ag_cache_bytes = pool.ag_cache_bytes;
  }
  serving->server = std::make_unique<runtime::Server>(serving->db,
                                                      serving->catalog, options);
  if (spec.socket) {
    serving->socket =
        std::make_unique<net::SocketServer>(serving->server.get());
    WF_RETURN_NOT_OK(serving->socket->Start());
  }
  return Status::OK();
}

Result<std::unique_ptr<Serving>> SetUp(const WorkloadSpec& spec,
                                       const ZipfPool& pool) {
  auto serving = std::make_unique<Serving>();
  WF_RETURN_NOT_OK(StartServers(spec, pool, serving.get()));
  serving->ready_seconds = Since(serving->start);
  return serving;
}

// ---------------------------------------------------------------------
// Running requests

/// What the per-layer metrics sum over a traced phase.
struct LayerSums {
  double parse_bind = 0.0;
  double canonicalize = 0.0;
  double phase2_probe = 0.0;
  double overhead = 0.0;
  double sink = 0.0;
  double first_batch = 0.0;
  uint64_t first_batch_n = 0;
  uint64_t emits = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  uint64_t batches = 0;
  uint64_t edge_walks = 0;
  uint64_t ag_pairs = 0;
  uint64_t pairs_burned = 0;

  void Merge(const LayerSums& o) {
    parse_bind += o.parse_bind;
    canonicalize += o.canonicalize;
    phase2_probe += o.phase2_probe;
    overhead += o.overhead;
    sink += o.sink;
    first_batch += o.first_batch;
    first_batch_n += o.first_batch_n;
    emits += o.emits;
    rows += o.rows;
    bytes += o.bytes;
    batches += o.batches;
    edge_walks += o.edge_walks;
    ag_pairs += o.ag_pairs;
    pairs_burned += o.pairs_burned;
  }
};

struct PhaseResult {
  std::vector<double> latencies;  // seconds, completed requests
  std::vector<uint32_t> kinds;    // RequestKind of each latency
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  LayerSums sums;
  std::vector<RequestTrace> traces;

  void Merge(PhaseResult&& o) {
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    kinds.insert(kinds.end(), o.kinds.begin(), o.kinds.end());
    attempted += o.attempted;
    failed += o.failed;
    rows += o.rows;
    sums.Merge(o.sums);
    traces.insert(traces.end(), o.traces.begin(), o.traces.end());
  }
};

/// Query-layer, planner and phase-2 timings of one query form, measured
/// by calling each module directly before the traced phase (traced runs
/// only). Timing the query layer here, not between requests, keeps the
/// server's clean-up of the previous result out of it.
struct Probe {
  double parse_bind_seconds = 0.0;
  double canonicalize_seconds = 0.0;
  double plan_seconds = 0.0;
  double phase2_seconds = 0.0;
};

/// AG cache counters of the default tenant.
struct CacheCounts {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  /// Adds the change from `before` to `after`.
  void Add(const CacheCounts& after, const CacheCounts& before) {
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    evictions += after.evictions - before.evictions;
  }
  double HitRatio() const {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  }
};

CacheCounts CacheCountsOf(const runtime::Server& server) {
  const runtime::TenantStats t = server.runtime().stats().tenants[0];
  return {t.cache_hits, t.cache_misses, t.cache_evictions};
}

struct Context {
  const WorkloadSpec* spec = nullptr;
  const WorkloadPlan* plan = nullptr;
  const std::vector<Fingerprint>* refs = nullptr;
  /// probes[base][count ? 1 : 0]
  std::vector<std::array<Probe, 2>> probes;
  Serving* serving = nullptr;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<size_t> cursor;  // next stream position per client
  Clock::time_point run_start;
  std::atomic<bool> corrupt_pending{false};
  std::atomic<int> reported_mismatches{0};
};

/// One query form: the reference query and whether it is asked as
/// COUNT(*).
uint32_t RequestKind(const Request& req) {
  return req.base * 2 + (req.count ? 1 : 0);
}

void ReportMismatch(Context& ctx, const Request& req,
                    const std::string& detail) {
  if (ctx.reported_mismatches.fetch_add(1) < 5) {
    std::cerr << "WRONG RESULT for " << (req.count ? "COUNT of " : "")
              << "reference query " << req.base << ": " << detail
              << "\n  query: " << req.text << "\n";
  }
}

/// Checks one answer against its reference. Returns false (and reports)
/// on any difference.
bool CheckAnswer(Context& ctx, const Request& req,
                 const runtime::QueryReport& report, const Fingerprint& got) {
  const Fingerprint& ref = (*ctx.refs)[req.base];
  if (report.outcome != runtime::QueryOutcome::kCompleted) {
    ReportMismatch(ctx, req,
                   std::string("outcome ") +
                       runtime::QueryOutcomeName(report.outcome) + ": " +
                       report.status.ToString());
    return false;
  }
  if (req.count) {
    if (!report.has_aggregate ||
        !(report.aggregate.value == AggregateValue::FromU64(ref.rows))) {
      ReportMismatch(ctx, req,
                     "COUNT " + report.aggregate.value.ToString() +
                         ", reference " + std::to_string(ref.rows));
      return false;
    }
    return true;
  }
  if (!(got == ref)) {
    ReportMismatch(ctx, req,
                   "got " + got.ToString() + ", reference " + ref.ToString());
    return false;
  }
  return true;
}

runtime::QueryReport ReportOf(const runtime::QuerySession& session) {
  runtime::QueryReport report;
  report.admitted = true;
  report.outcome = session.outcome();
  report.status = session.status();
  report.stats = session.stats();
  report.cache_hit = session.cache_hit();
  report.has_aggregate = session.has_aggregate();
  report.aggregate = session.aggregate();
  report.rows = session.rows_emitted();
  report.queue_seconds = session.queue_seconds();
  report.run_seconds = session.run_seconds();
  return report;
}

/// Runs one request on client `c` and records it into `out`.
void RunRequest(Context& ctx, int c, const Request& req, bool trace,
                PhaseResult* out) {
  const bool socket = ctx.spec->socket;
  RequestTrace t;
  LayerSums& sums = out->sums;
  if (trace) {
    if (socket) {
      const Clock::time_point r0 = Clock::now();
      if (ctx.clients[c]->Ping().ok()) t.seconds[kRoundTrip] = Since(r0);
    }
  }
  const bool corrupt = !req.count && ctx.corrupt_pending.exchange(false);
  ++out->attempted;

  Fingerprint got;
  runtime::QueryReport report;
  double latency = 0.0;
  bool transport_ok = true;
  uint64_t batches = 0;
  uint64_t bytes = 0;
  uint64_t emits = 0;
  double sink_seconds = 0.0;
  double first_batch = -1.0;
  uint32_t bad_width = 0;
  const Clock::time_point start = Clock::now();
  if (socket) {
    const size_t width = req.perm.size();
    auto hook = [&](const net::RowBatchFrame& batch) {
      const Clock::time_point h0 = Clock::now();
      if (batches == 0) {
        first_batch = std::chrono::duration<double>(h0 - start).count();
      }
      ++batches;
      bytes += net::kFrameHeaderBytes + 8 + batch.data.size() * sizeof(NodeId);
      if (batch.width != width) {
        bad_width = batch.width;
        return;
      }
      const size_t rows = batch.rows();
      for (size_t r = 0; r < rows; ++r) {
        const NodeId* row = batch.data.data() + r * width;
        if (corrupt && got.rows == 0) {
          std::vector<NodeId> altered(row, row + width);
          altered[0] ^= 1;
          got.Add(altered.data(), req.perm);
        } else {
          got.Add(row, req.perm);
        }
      }
      if (trace) sink_seconds += Since(h0);
    };
    Result<net::QueryResult> result = ctx.clients[c]->Run(req.text, hook);
    latency = Since(start);
    if (result.ok()) {
      report = std::move(result->report);
    } else {
      transport_ok = false;
      report.status = result.status();
    }
    emits = batches;
  } else {
    HashingSink sink(&req.perm, trace);
    if (corrupt) sink.CorruptRow(0);
    Result<std::shared_ptr<runtime::QuerySession>> session =
        ctx.serving->server->Submit(req.text, &sink);
    if (session.ok()) {
      (*session)->Wait();
      latency = Since(start);
      report = ReportOf(**session);
    } else {
      latency = Since(start);
      transport_ok = false;
      report.status = session.status();
    }
    got = sink.fingerprint();
    emits = sink.emits();
    batches = sink.emits();
    bytes = sink.count() * req.perm.size() * sizeof(NodeId);
    sink_seconds = sink.emit_seconds();
    if (trace && sink.emits() > 0) {
      first_batch =
          std::chrono::duration<double>(sink.first_emit() - start).count();
    }
  }

  if (!transport_ok || bad_width != 0) {
    ReportMismatch(ctx, req,
                   bad_width != 0
                       ? "rows of width " + std::to_string(bad_width) +
                             ", expected " + std::to_string(req.perm.size())
                       : "request failed: " + report.status.ToString());
    ++out->failed;
    return;
  }
  if (!CheckAnswer(ctx, req, report, got)) {
    ++out->failed;
    return;
  }
  const uint64_t rows = req.count ? 1 : got.rows;
  out->latencies.push_back(latency);
  out->kinds.push_back(RequestKind(req));
  out->rows += rows;
  if (!trace) return;

  t.start_seconds = std::chrono::duration<double>(start - ctx.run_start).count();
  t.seconds[kRequest] = latency;
  t.seconds[kQueueWait] = report.queue_seconds;
  t.seconds[kRun] = report.run_seconds;
  const Probe& probe = ctx.probes[req.base][req.count ? 1 : 0];
  // The server parses and binds every request, and canonicalizes it
  // inside the run when the AG cache is on.
  t.seconds[kParseBind] = probe.parse_bind_seconds;
  if (ctx.spec->ag_cache) t.seconds[kCanonicalize] = probe.canonicalize_seconds;
  if (!report.cache_hit) t.seconds[kPlan] = probe.plan_seconds;
  t.seconds[kPhase1] = report.stats.phase1_seconds;
  t.seconds[kBurnback] = report.stats.burnback_seconds;
  t.seconds[kFreeze] = report.stats.freeze_seconds;
  t.seconds[kPhase2] = report.stats.phase2_seconds;
  t.seconds[kAggregate] = report.stats.aggregate_seconds;
  // The socket client's verification runs while the server streams, so
  // it is no part of the server's phase 2; only the embedded sink is.
  if (!socket) t.seconds[kSink] = sink_seconds;
  out->traces.push_back(t);

  sums.parse_bind += probe.parse_bind_seconds;
  sums.canonicalize += probe.canonicalize_seconds;
  sums.phase2_probe += probe.phase2_seconds;
  sums.overhead +=
      std::max(0.0, latency - report.queue_seconds - report.run_seconds);
  sums.sink += sink_seconds;
  if (first_batch >= 0.0) {
    sums.first_batch += first_batch;
    ++sums.first_batch_n;
  }
  sums.emits += emits;
  if (!req.count) sums.rows += rows;
  sums.bytes += bytes;
  sums.batches += batches;
  sums.edge_walks += report.stats.edge_walks;
  sums.ag_pairs += report.stats.ag_pairs;
  sums.pairs_burned += report.stats.pairs_burned;
}

/// Runs every client in a closed loop until `seconds` have passed (and
/// the current pass is complete). Returns the merged result and the
/// phase's wall time.
PhaseResult RunPhase(Context& ctx, double seconds, bool trace,
                     double* wall_seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const int clients = ctx.spec->clients;
  std::vector<PhaseResult> results(clients);
  auto loop = [&](int c) {
    const std::vector<Request>& stream = ctx.plan->streams[c];
    size_t& cursor = ctx.cursor[c];
    bool first = true;
    while (first || Clock::now() < deadline ||
           (ctx.plan->pass != 0 && cursor % ctx.plan->pass != 0)) {
      first = false;
      RunRequest(ctx, c, stream[cursor % stream.size()], trace, &results[c]);
      ++cursor;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  *wall_seconds = Since(start);
  PhaseResult merged;
  for (PhaseResult& r : results) merged.Merge(std::move(r));
  return merged;
}

/// Measures plan and phase-2 time of every query form by calling the
/// engine directly: RunDetailed yields the plan time and the AG, and
/// RunOverAg over that AG is timed as phase 2. Answers are checked too.
Status MeasureProbes(Context& ctx) {
  const Serving& s = *ctx.serving;
  const WorkloadPlan& plan = *ctx.plan;
  ctx.probes.assign(plan.base.size(), {});
  std::vector<std::array<bool, 2>> used(plan.base.size(), {false, false});
  for (const std::vector<Request>& stream : plan.streams) {
    for (const Request& r : stream) used[r.base][r.count ? 1 : 0] = true;
  }
  EngineOptions options;
  options.threads = ThreadPool::ResolveThreads(0);
  WireframeEngine engine;
  for (size_t b = 0; b < plan.base.size(); ++b) {
    for (int form = 0; form < 2; ++form) {
      if (!used[b][form]) continue;
      const std::string text =
          form == 1 ? CountForm(plan.base_text[b]) : plan.base_text[b];
      // Median of a few calls each: one call takes microseconds.
      std::vector<double> parse_bind, canonicalize;
      QueryGraph query;
      for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        WF_ASSIGN_OR_RETURN(query, SparqlParser::ParseAndBind(text, s.db));
        parse_bind.push_back(Since(t0));
        t0 = Clock::now();
        const CanonicalQuery canon = CanonicalizeQuery(query);
        canonicalize.push_back(Since(t0));
      }
      CountingSink counting;
      WF_ASSIGN_OR_RETURN(
          WireframeRunDetail cold,
          engine.RunDetailed(s.db, s.catalog, query, options, &counting));
      const std::vector<uint32_t> perm = IdentityPerm(query.NumVars());
      HashingSink sink(&perm, /*timed=*/false);
      const Clock::time_point t = Clock::now();
      WF_ASSIGN_OR_RETURN(WireframeRunDetail warm,
                          engine.RunOverAg(query, *cold.ag, options, &sink));
      ctx.probes[b][form] = {Median(parse_bind), Median(canonicalize),
                             cold.plan_seconds, Since(t)};
      const Fingerprint& ref = (*ctx.refs)[b];
      const bool ok =
          form == 1 ? warm.aggregate.value == AggregateValue::FromU64(ref.rows)
                    : sink.fingerprint() == ref;
      if (!ok) {
        return Status::Internal("engine probe of reference query " +
                                std::to_string(b) + " disagrees with NJ");
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Reporting

/// The median request latency, taken over request kinds: each kind's
/// median, then the median of those weighted by each kind's share of
/// requests. It equals the plain median when kinds do not overlap in
/// latency; unlike the plain median it does not jump when two kinds of
/// similar cost (Table-1 rows 2 and 5 here) trade places around the
/// middle rank.
double KindMedian(const std::vector<double>& latencies,
                  const std::vector<uint32_t>& kinds) {
  std::map<uint32_t, std::vector<double>> by_kind;
  for (size_t i = 0; i < latencies.size(); ++i) {
    by_kind[kinds[i]].push_back(latencies[i]);
  }
  std::vector<std::pair<double, size_t>> medians;  // (median, requests)
  for (const auto& [kind, v] : by_kind) medians.push_back({Median(v), v.size()});
  std::sort(medians.begin(), medians.end());
  const double half = static_cast<double>(latencies.size()) / 2.0;
  double requests = 0.0;
  for (const auto& [median, count] : medians) {
    requests += static_cast<double>(count);
    if (requests >= half) return median;
  }
  return 0.0;
}

struct TailLatency {
  double percentile = 0.0;
  double seconds = 0.0;
  size_t beyond = 0;
};

/// The highest of the percentiles 50, 90 and 99 (nearest rank) that
/// still has at least ten samples beyond it. The ladder keeps a workload
/// on one percentile from run to run, since its sample count stays well
/// inside one step; the eleventh-slowest sample itself, or p99.9, would
/// mostly measure the host's rare scheduling stalls.
TailLatency Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  TailLatency tail;
  const size_t n = v.size();
  if (n == 0) return tail;
  for (double p : {99.0, 90.0, 50.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))));
    tail = {p, v[rank - 1], n - rank};
    if (tail.beyond >= 10) break;
  }
  return tail;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pool;
  std::string trace_out;
  bool corrupt_row = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-row") {
      args->corrupt_row = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = value == "1";
      } else if (flag == "--pool") {
        args->pool = value;
      } else if (flag == "--trace-out") {
        args->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty() && !args->pool.empty() && args->seconds > 0;
}

int Fail(const std::string& message) {
  std::cerr << "wf_perfbench: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: wf_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --pool <file> [--trace-out <file>] [--corrupt-row]");
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Fail("unknown workload " + args.workload);
  Result<ZipfPool> pool = LoadPool(args.pool);
  if (!pool.ok()) return Fail(pool.status().ToString());

  // Set up several times and keep the last server; setup_s is the median.
  std::vector<double> setup, generate, catalog_build;
  std::unique_ptr<Serving> serving;
  for (int i = 0; i < kSetups; ++i) {
    serving.reset();
    Result<std::unique_ptr<Serving>> s = SetUp(*spec, *pool);
    if (!s.ok()) return Fail("set-up: " + s.status().ToString());
    serving = std::move(s).value();
    setup.push_back(serving->ready_seconds);
    generate.push_back(serving->generate_seconds);
    catalog_build.push_back(serving->catalog_seconds);
  }

  Result<WorkloadPlan> plan = MakePlan(*spec, args.seed, *pool, serving->db);
  if (!plan.ok()) return Fail("workload: " + plan.status().ToString());
  Result<std::vector<Fingerprint>> refs =
      ComputeReferences(serving->db, serving->catalog, plan->base);
  if (!refs.ok()) return Fail("reference: " + refs.status().ToString());

  Context ctx;
  ctx.spec = spec;
  ctx.plan = &*plan;
  ctx.refs = &*refs;
  ctx.serving = serving.get();
  ctx.cursor.assign(spec->clients, 0);
  ctx.corrupt_pending = args.corrupt_row;
  if (args.trace) {
    const Status probed = MeasureProbes(ctx);
    if (!probed.ok()) return Fail(probed.ToString());
  }

  // The AG cache keeps whatever gathered hits early in its life, so one
  // cache lifetime's hit ratio depends on its first few hundred draws. A
  // cache workload therefore measures several lifetimes, each on fresh
  // servers after its own warm-up, and pools them. Other workloads warm
  // up with one pass and measure once.
  const int epochs = spec->ag_cache ? kCacheEpochs : 1;
  const double warmup = spec->ag_cache ? kCacheWarmupSeconds : 0.0;
  const double epoch_seconds =
      (args.trace ? args.seconds / 2 : args.seconds) / epochs;
  PhaseResult warm, measured, traced;
  double measured_wall = 0.0;
  double traced_wall = 0.0;
  double cpu = 0.0;
  CacheCounts measured_cache, traced_cache;
  ctx.run_start = Clock::now();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) {
      const Status restarted = StartServers(*spec, *pool, serving.get());
      if (!restarted.ok()) return Fail("restart: " + restarted.ToString());
    }
    if (spec->socket) {
      ctx.clients.clear();
      for (int c = 0; c < spec->clients; ++c) {
        Result<std::unique_ptr<net::Client>> client =
            net::Client::Connect(serving->socket->address().ToString());
        if (!client.ok()) {
          return Fail("connect: " + client.status().ToString());
        }
        ctx.clients.push_back(std::move(client).value());
      }
    }
    double wall = 0.0;
    warm.Merge(RunPhase(ctx, warmup, false, &wall));

    const double cpu0 = CpuSeconds();
    const CacheCounts cache0 = CacheCountsOf(*serving->server);
    measured.Merge(RunPhase(ctx, epoch_seconds, false, &wall));
    measured_cache.Add(CacheCountsOf(*serving->server), cache0);
    cpu += CpuSeconds() - cpu0;
    measured_wall += wall;

    if (args.trace) {
      const CacheCounts cache1 = CacheCountsOf(*serving->server);
      traced.Merge(RunPhase(ctx, epoch_seconds, true, &wall));
      traced_cache.Add(CacheCountsOf(*serving->server), cache1);
      traced_wall += wall;
    }
    for (std::unique_ptr<net::Client>& client : ctx.clients) {
      (void)client->Goodbye();
    }
    ctx.clients.clear();
    if (serving->socket != nullptr) serving->socket->Stop();
  }

  // Every answer of the run counts, the warm-up's included.
  const uint64_t attempted =
      warm.attempted + measured.attempted + traced.attempted;
  const uint64_t failed = warm.failed + measured.failed + traced.failed;
  const bool correct = failed == 0;
  const double completed = static_cast<double>(measured.latencies.size());
  const double qps = completed / measured_wall;
  const TailLatency tail = Tail(measured.latencies);

  // Provenance, so numbers from another box or build are never compared
  // by accident.
  std::cout << "{\"provenance\": {\"workload\": " << JsonString(spec->name)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu_features\": " << JsonString(KernelCpuFeaturesMeta())
            << ", \"build_type\": " << JsonString(WF_PERFBENCH_BUILD_TYPE)
            << ", \"pool_threads\": " << ThreadPool::ResolveThreads(0)
            << ", \"clients\": " << spec->clients
            << ", \"scale\": " << Num(BenchDataConfig().scale)
            << ", \"triples\": " << serving->db.store().NumTriples()
            << ", \"data_seed\": " << BenchDataConfig().seed
            << ", \"workload_seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << "}, \"latency_tail\": {\"percentile\": " << Num(tail.percentile)
            << ", \"samples\": " << measured.latencies.size()
            << ", \"beyond\": " << tail.beyond
            << "}, \"ag_cache\": {\"hits\": " << measured_cache.hits
            << ", \"misses\": " << measured_cache.misses
            << ", \"evictions\": " << measured_cache.evictions
            << "}, \"failed_ratio\": "
            << Num(attempted == 0 ? 0.0
                                  : static_cast<double>(failed) /
                                        static_cast<double>(attempted))
            << "}\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"qps", qps, "1/s"},
        {"rows_per_s", static_cast<double>(measured.rows) / measured_wall,
         "1/s"},
        {"latency_p50_ms", KindMedian(measured.latencies, measured.kinds) * 1e3,
         "ms"},
        {"latency_tail_ms", tail.seconds * 1e3, "ms"},
        {"cpu_ms_per_query", cpu * 1e3 / completed, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const double n = static_cast<double>(traced.traces.size());
    std::array<double, kNumSpans> self{};
    double covered = 0.0;
    double total = 0.0;
    for (const RequestTrace& t : traced.traces) {
      const std::array<double, kNumSpans> s = SelfTimes(t);
      for (size_t i = 0; i < kNumSpans; ++i) self[i] += s[i];
      total += t.seconds[kRequest];
      covered += t.seconds[kRequest] - s[kRequest];
    }
    auto mean_ms = [&](SpanId s) { return self[s] * 1e3 / n; };
    const LayerSums& sums = traced.sums;
    const double traced_qps = n / traced_wall;
    metrics = {
        {"storage.generate_s", Median(generate), "s"},
        {"catalog.build_s", Median(catalog_build), "s"},
        {"query.parse_bind_us", sums.parse_bind * 1e6 / n, "us"},
        {"query.canonicalize_us", sums.canonicalize * 1e6 / n, "us"},
        {"planner.plan_ms", mean_ms(kPlan), "ms"},
        {"core.phase1_ms", mean_ms(kPhase1), "ms"},
        {"core.burnback_ms", mean_ms(kBurnback), "ms"},
        {"core.freeze_ms", mean_ms(kFreeze), "ms"},
        {"core.edge_walks", static_cast<double>(sums.edge_walks) / n, "count"},
        {"core.ag_pairs", static_cast<double>(sums.ag_pairs) / n, "count"},
        {"core.pairs_burned", static_cast<double>(sums.pairs_burned) / n,
         "count"},
        {"core.phase2_ms", sums.phase2_probe * 1e3 / n, "ms"},
        {"exec.aggregate_ms", mean_ms(kAggregate), "ms"},
        {"exec.sink_ms", sums.sink * 1e3 / n, "ms"},
        {"exec.rows_per_emit",
         sums.emits == 0 ? 0.0
                         : static_cast<double>(sums.rows) /
                               static_cast<double>(sums.emits),
         "count"},
        {"runtime.queue_wait_ms", mean_ms(kQueueWait), "ms"},
        {"runtime.run_ms", mean_ms(kRun), "ms"},
        {"runtime.ag_cache_hit_ratio", traced_cache.HitRatio(), "ratio"},
        {"runtime.ag_cache_evictions",
         static_cast<double>(traced_cache.evictions), "count"},
        {"net.round_trip_ms", mean_ms(kRoundTrip), "ms"},
        {"net.first_batch_ms",
         sums.first_batch_n == 0
             ? 0.0
             : sums.first_batch * 1e3 / static_cast<double>(sums.first_batch_n),
         "ms"},
        {"net.bytes_per_row",
         sums.rows == 0 ? 0.0
                        : static_cast<double>(sums.bytes) /
                              static_cast<double>(sums.rows),
         "bytes"},
        {"net.batches_per_query", static_cast<double>(sums.batches) / n,
         "count"},
        {"net.overhead_ms", sums.overhead * 1e3 / n, "ms"},
        {"trace.overhead_ratio", traced_qps / qps, "ratio"},
        {"trace.coverage_ratio", total > 0.0 ? covered / total : 0.0,
         "ratio"},
    };
    // The first kWrittenTraces requests are enough to inspect by hand and
    // keep the file small; the metrics above use every traced request.
    if (traced.traces.size() > kWrittenTraces) {
      traced.traces.resize(kWrittenTraces);
    }
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, traced.traces)) {
      std::cerr << "wf_perfbench: cannot write " << args.trace_out << "\n";
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
