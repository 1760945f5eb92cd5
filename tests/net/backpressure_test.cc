// Back-pressure contract of the socket front-end: a reader that drains
// one frame per 10 ms against a stream of thousands of rows must (a)
// keep the per-connection send buffer under the configured bound —
// the emitting sink suspends instead of buffering without limit — and
// (b) throttle ONLY its own query: a second connection's queries keep
// completing promptly, because the suspended sink blocks its own
// query's driver thread, never the shared pool. SMOKE: the TSan job
// runs this — the sink-suspend/writer/reader hand-off is the raciest
// path in src/net.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "datagen/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/server.h"
#include "util/timer.h"

namespace wireframe {
namespace net {
namespace {

constexpr uint64_t kSendBuffer = 32u << 10;

TEST(Backpressure, SlowReaderThrottlesOnlyItsOwnQuery) {
  // 22,500 embeddings of width 4 = ~360 KB of rows: an order of
  // magnitude past the 32 KB send buffer and the 8 KB client receive
  // buffer, so the stream MUST suspend many times.
  Database db = MakeChainBlowupGraph(150, 150, /*noise=*/10);
  Catalog catalog = Catalog::Build(db.store());
  runtime::ServerOptions server_options;
  server_options.runtime.admission.max_inflight = 2;
  server_options.timeout_seconds = 120.0;
  runtime::Server server(db, catalog, server_options);
  SocketServerOptions net_options;
  net_options.send_buffer_bytes = kSendBuffer;
  net_options.kernel_send_buffer_bytes = 16 << 10;
  net_options.rows_per_batch = 128;
  SocketServer net(&server, net_options);
  ASSERT_TRUE(net.Start().ok());
  const std::string address = net.address().ToString();
  const std::string blowup =
      "select * where { ?w A ?x . ?x B ?y . ?y C ?z . }";

  // The fast tenant: small row-budget queries in a closed loop on its
  // own connection until the slow stream finishes. Latencies and
  // failures are collected here and asserted on the main thread.
  std::atomic<bool> slow_done{false};
  std::vector<double> fast_ms;
  int fast_failures = 0;
  std::thread fast([&] {
    auto client = Client::Connect(address);
    if (!client.ok()) {
      ++fast_failures;
      return;
    }
    while (!slow_done.load(std::memory_order_relaxed)) {
      QueryFrame query;
      query.sparql = blowup;
      query.row_budget = 100;
      Stopwatch watch;
      auto result = (*client)->Run(query);
      fast_ms.push_back(watch.ElapsedMillis());
      if (!result.ok() ||
          result->report.outcome !=
              runtime::QueryOutcome::kBudgetExhausted) {
        ++fast_failures;
        break;
      }
    }
    (void)(*client)->Goodbye();
  });

  // The slow reader: ~10 ms per ROW-BATCH frame, tiny SO_RCVBUF so the
  // kernel cannot absorb the stream either.
  ClientOptions slow_options;
  slow_options.recv_buffer_bytes = 8 << 10;
  auto slow = Client::Connect(address, slow_options);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  auto result = (*slow)->Run(blowup, [](const RowBatchFrame&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  slow_done.store(true, std::memory_order_relaxed);

  // The slow stream itself completed, in order and in full.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->report.outcome, runtime::QueryOutcome::kCompleted);
  EXPECT_EQ(result->rows(), 22500u);

  // Buffer accounting, read before the connection closes: the stream
  // stalled at least once and the high-water mark respected the bound.
  const runtime::RuntimeStats stats = net.stats();
  uint64_t stalls = 0;
  uint64_t high_water = 0;
  for (const runtime::ConnectionStats& conn : stats.connections) {
    stalls += conn.send_stalls;
    high_water = std::max(high_water, conn.buffer_high_water);
    EXPECT_LE(conn.buffer_high_water, kSendBuffer)
        << "connection " << conn.id << " overran the send buffer";
  }
  EXPECT_GE(stalls, 1u);
  EXPECT_GT(high_water, 0u);

  EXPECT_TRUE((*slow)->Goodbye().ok());
  fast.join();

  // The other tenant was never starved: its closed loop kept finishing
  // small queries while the slow stream dripped for seconds. The bound
  // is deliberately loose (CI boxes stall); the point is "seconds, not
  // the slow stream's lifetime".
  EXPECT_EQ(fast_failures, 0);
  ASSERT_GE(fast_ms.size(), 1u);
  for (double ms : fast_ms) EXPECT_LT(ms, 30'000.0);
}

}  // namespace
}  // namespace net
}  // namespace wireframe
