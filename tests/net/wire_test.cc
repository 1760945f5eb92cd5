// Frame protocol round-trips and rejection paths of net/wire.h. Every
// decoder must (a) reproduce what the encoder wrote bit-exactly,
// (b) reject truncated payloads, and (c) reject trailing garbage —
// a frame that does not parse EXACTLY is malformed, full stop.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"

namespace wireframe {
namespace net {
namespace {

TEST(WireHeader, RoundTrip) {
  FrameHeader header;
  header.payload_length = 12345;
  header.type = FrameType::kRowBatch;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload_length, 12345u);
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->type, FrameType::kRowBatch);
}

TEST(WireHeader, RejectsBadVersion) {
  FrameHeader header;
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  bytes[4] = 99;
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
}

TEST(WireHeader, RejectsUnknownType) {
  FrameHeader header;
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  bytes[5] = 0;  // below kHello
  EXPECT_FALSE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
  bytes[5] = 42;  // above kGoodbye
  EXPECT_FALSE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
}

TEST(WireHeader, ChecksumDetectsAnySingleBitFlip) {
  const std::string payload = "select * where { ?x p ?y . }";
  std::string frame;
  AppendFrame(FrameType::kQuery, payload, &frame);
  auto header = DecodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->checksum,
            FrameChecksum(FrameType::kQuery, payload.data(),
                          payload.size()));
  EXPECT_TRUE(VerifyFramePayload(*header, payload).ok());
  // Every single-bit corruption of the payload must be caught — this is
  // what keeps a flipped bit in a QUERY from running as a different,
  // still-valid query.
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = payload;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      const Status status = VerifyFramePayload(*header, corrupt);
      ASSERT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(status.IsFrameCorrupt());
    }
  }
}

TEST(WireHeader, ChecksumDetectsAnyHeaderBitFlip) {
  // The checksum covers the six non-checksum header bytes too, so a
  // flipped type/length/version bit can never turn one valid frame into
  // a different valid one (HELLO must not arrive as AGGREGATE). Every
  // header corruption must fail typed: either the decode rejects it
  // outright (bad version / unknown type / oversize — readers wrap that
  // as kFrameCorrupt) or the checksum verify does.
  const std::string payload = "select * where { ?x p ?y . }";
  std::string frame;
  AppendFrame(FrameType::kHello, payload, &frame);
  for (size_t byte = 0; byte < 6; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto header = DecodeFrameHeader(corrupt.data(),
                                      kDefaultMaxFrameBytes);
      if (!header.ok()) continue;  // rejected before the payload: fine
      const Status status = VerifyFramePayload(*header, payload);
      ASSERT_FALSE(status.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_TRUE(status.IsFrameCorrupt());
    }
  }
}

TEST(WireHeader, EmptyPayloadStillChecksumsTheHeader) {
  // Even a payload-less frame carries a nonzero checksum: the six
  // header prefix bytes are covered, so a flipped PING type byte is
  // caught too.
  std::string frame;
  AppendFrame(FrameType::kPing, std::string(), &frame);
  auto header = DecodeFrameHeader(frame.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->checksum,
            FrameChecksum(FrameType::kPing, nullptr, 0));
  EXPECT_NE(header->checksum, 0u);
  EXPECT_TRUE(VerifyFramePayload(*header, std::string()).ok());
}

TEST(WireHeader, RejectsOversizedPayloadBeforeReadingIt) {
  FrameHeader header;
  header.payload_length = 0xffffffff;  // hostile length prefix
  header.type = FrameType::kQuery;
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(header, bytes);
  auto decoded = DecodeFrameHeader(bytes, kDefaultMaxFrameBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument());
  // The limit is named so clients can tell oversize from corruption.
  EXPECT_NE(decoded.status().message().find(
                std::to_string(kDefaultMaxFrameBytes)),
            std::string::npos)
      << decoded.status().ToString();
  // Exactly at the cap is fine.
  header.payload_length = kDefaultMaxFrameBytes;
  EncodeFrameHeader(header, bytes);
  EXPECT_TRUE(DecodeFrameHeader(bytes, kDefaultMaxFrameBytes).ok());
}

TEST(WireFrames, HelloRoundTrip) {
  auto decoded = DecodeHello(EncodeHello({"latency"}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->service_class, "latency");
  EXPECT_TRUE(DecodeHello(EncodeHello({""}))->service_class.empty());
}

TEST(WireFrames, HelloAckRoundTrip) {
  HelloAckFrame ack;
  ack.max_frame_bytes = 777;
  ack.rows_per_batch = 256;
  ack.resolved_service_class = "default";
  auto decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->max_frame_bytes, 777u);
  EXPECT_EQ(decoded->rows_per_batch, 256u);
  EXPECT_EQ(decoded->resolved_service_class, "default");
}

TEST(WireFrames, QueryRoundTrip) {
  QueryFrame query;
  query.sparql = "select * where { ?x p ?y . }";
  query.timeout_seconds = 2.5;
  query.row_budget = 1000;
  auto decoded = DecodeQuery(EncodeQuery(query));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sparql, query.sparql);
  EXPECT_EQ(decoded->timeout_seconds, 2.5);
  EXPECT_EQ(decoded->row_budget, 1000);
  // The inherit sentinels survive the trip too.
  QueryFrame inherit;
  inherit.sparql = "q";
  auto sentinel = DecodeQuery(EncodeQuery(inherit));
  ASSERT_TRUE(sentinel.ok());
  EXPECT_LT(sentinel->timeout_seconds, 0.0);
  EXPECT_LT(sentinel->row_budget, 0);
}

TEST(WireFrames, RowBatchRoundTrip) {
  RowBatchFrame batch;
  batch.width = 3;
  batch.data = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  RowBatchFrame decoded;
  ASSERT_TRUE(DecodeRowBatch(EncodeRowBatch(batch), &decoded).ok());
  EXPECT_EQ(decoded.width, 3u);
  EXPECT_EQ(decoded.rows(), 3u);
  EXPECT_EQ(decoded.data, batch.data);
}

TEST(WireFrames, RowBatchRejectsSizeMismatch) {
  RowBatchFrame batch;
  batch.width = 3;
  batch.data = {1, 2, 3, 4, 5, 6};
  std::string payload = EncodeRowBatch(batch);
  payload.resize(payload.size() - 1);  // truncate one byte
  RowBatchFrame decoded;
  EXPECT_FALSE(DecodeRowBatch(payload, &decoded).ok());
  EXPECT_FALSE(DecodeRowBatch(std::string(), &decoded).ok());
}

/// The two-copy encoding the one-copy writer must reproduce exactly.
std::string TwoCopyFrame(const RowBatchFrame& batch) {
  std::string frame;
  AppendFrame(FrameType::kRowBatch, EncodeRowBatch(batch), &frame);
  return frame;
}

TEST(RowBatchFrameWriter, ByteIdenticalToEncodeThenAppendFrame) {
  constexpr uint32_t kRowsPerBatch = 1024;  // SocketServer's default
  for (uint32_t width = 1; width <= 12; ++width) {
    RowBatchFrameWriter writer;
    writer.Reset(width, kRowsPerBatch);
    for (uint32_t rows : {0u, 1u, kRowsPerBatch}) {
      RowBatchFrame batch;
      batch.width = width;
      for (uint32_t i = 0; i < rows * width; ++i) {
        batch.data.push_back(i * 2654435761u + width);
      }
      // Fed in uneven pieces, through a writer reused across frames.
      size_t pos = 0;
      for (size_t piece = 1; pos < rows; ++piece) {
        const size_t n = std::min<size_t>(piece * piece, rows - pos);
        writer.Append(batch.data.data() + pos * width, n);
        pos += n;
      }
      EXPECT_EQ(writer.rows(), rows);
      const std::string frame = writer.Finish();
      EXPECT_EQ(frame, TwoCopyFrame(batch))
          << "width " << width << " rows " << rows;
      EXPECT_EQ(writer.rows(), 0u) << "Finish restarts the writer empty";
    }
  }
}

TEST(WireFrames, RowBatchDecodeReusesTheBatch) {
  RowBatchFrame batch;
  batch.width = 2;
  batch.data = {1, 2, 3, 4};
  RowBatchFrame reused;
  ASSERT_TRUE(DecodeRowBatch(EncodeRowBatch(batch), &reused).ok());
  EXPECT_EQ(reused.data, batch.data);
  batch.width = 1;
  batch.data = {9};
  ASSERT_TRUE(DecodeRowBatch(EncodeRowBatch(batch), &reused).ok());
  EXPECT_EQ(reused.width, 1u);
  EXPECT_EQ(reused.data, batch.data);
  EXPECT_FALSE(DecodeRowBatch(std::string("short"), &reused).ok());
}

TEST(WireFrames, AggregateRoundTrip) {
  AggregateResult result;
  result.kind = AggregateKind::kCount;
  result.value = {123456789, 42, false};
  result.factorized = true;
  result.groups = {{7, AggregateValue::FromU64(10)},
                   {9, AggregateValue::FromU64(32)}};
  auto decoded = DecodeAggregate(EncodeAggregate(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, AggregateKind::kCount);
  EXPECT_EQ(decoded->value, result.value);
  EXPECT_TRUE(decoded->factorized);
  EXPECT_EQ(decoded->groups, result.groups);

  AggregateResult ask;
  ask.kind = AggregateKind::kAsk;
  ask.ask = true;
  ask.fallback_reason = "cyclic shape";
  auto ask_decoded = DecodeAggregate(EncodeAggregate(ask));
  ASSERT_TRUE(ask_decoded.ok());
  EXPECT_TRUE(ask_decoded->ask);
  EXPECT_EQ(ask_decoded->fallback_reason, "cyclic shape");
}

TEST(WireFrames, AggregateRejectsHostileGroupCount) {
  // A group count far past the payload size must fail the preflight,
  // not drive a giant reserve().
  AggregateResult result;
  result.kind = AggregateKind::kCount;
  std::string payload = EncodeAggregate(result);
  payload[payload.size() - 4] = '\xff';
  payload[payload.size() - 3] = '\xff';
  payload[payload.size() - 2] = '\xff';
  payload[payload.size() - 1] = '\x7f';
  EXPECT_FALSE(DecodeAggregate(payload).ok());
}

TEST(WireFrames, ReportRoundTrip) {
  runtime::QueryReport report;
  report.index = 4;
  report.service_class = "batch";
  report.admitted = true;
  report.outcome = runtime::QueryOutcome::kTimedOut;
  report.status = Status::TimedOut("budget spent");
  report.cache_hit = true;
  report.rows = 4242;
  report.queue_seconds = 0.25;
  report.run_seconds = 1.5;
  report.retry_after_ms = 250;
  report.stats.output_tuples = 4242;
  report.stats.ag_pairs = 99;
  report.stats.phase1_seconds = 0.5;
  auto decoded = DecodeReport(EncodeReport(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->index, 4u);
  EXPECT_EQ(decoded->service_class, "batch");
  EXPECT_TRUE(decoded->admitted);
  EXPECT_EQ(decoded->outcome, runtime::QueryOutcome::kTimedOut);
  EXPECT_TRUE(decoded->status.IsTimedOut());
  EXPECT_EQ(decoded->status.message(), "budget spent");
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->rows, 4242u);
  EXPECT_EQ(decoded->queue_seconds, 0.25);
  EXPECT_EQ(decoded->run_seconds, 1.5);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  EXPECT_EQ(decoded->stats.output_tuples, 4242u);
  EXPECT_EQ(decoded->stats.ag_pairs, 99u);
  EXPECT_EQ(decoded->stats.phase1_seconds, 0.5);
}

TEST(WireFrames, ErrorRoundTrip) {
  ErrorFrame error;
  error.code = StatusCode::kResourceExhausted;
  error.message = "runtime saturated";
  auto decoded = DecodeError(EncodeError(error));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_TRUE(decoded->ToStatus().IsResourceExhausted());
  EXPECT_EQ(decoded->ToStatus().message(), "runtime saturated");
}

TEST(WireFrames, StatusRoundTrip) {
  StatusFrame status;
  status.running = 3;
  status.queued = 17;
  status.max_inflight = 4;
  status.max_queued = 32;
  status.overloaded = 1;
  status.retry_after_ms = 250;
  TenantLoadFrame latency;
  latency.name = "latency";
  latency.weight = 8;
  latency.running = 2;
  latency.queued = 5;
  latency.completed = 1000;
  latency.shed = 7;
  latency.brownout_rejected = 3;
  status.tenants.push_back(latency);
  status.tenants.push_back(TenantLoadFrame{});
  auto decoded = DecodeStatus(EncodeStatus(status));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->running, 3u);
  EXPECT_EQ(decoded->queued, 17u);
  EXPECT_EQ(decoded->max_inflight, 4u);
  EXPECT_EQ(decoded->max_queued, 32u);
  EXPECT_EQ(decoded->overloaded, 1u);
  EXPECT_EQ(decoded->retry_after_ms, 250u);
  ASSERT_EQ(decoded->tenants.size(), 2u);
  EXPECT_EQ(decoded->tenants[0].name, "latency");
  EXPECT_EQ(decoded->tenants[0].weight, 8u);
  EXPECT_EQ(decoded->tenants[0].running, 2u);
  EXPECT_EQ(decoded->tenants[0].queued, 5u);
  EXPECT_EQ(decoded->tenants[0].completed, 1000u);
  EXPECT_EQ(decoded->tenants[0].shed, 7u);
  EXPECT_EQ(decoded->tenants[0].brownout_rejected, 3u);
  EXPECT_TRUE(decoded->tenants[1].name.empty());
}

TEST(WireFrames, StatusRejectsHostileTenantCount) {
  StatusFrame status;
  std::string payload = EncodeStatus(status);
  // The tenant count is the last u32 before the (empty) tenant list.
  payload[payload.size() - 4] = '\xff';
  payload[payload.size() - 3] = '\xff';
  payload[payload.size() - 2] = '\xff';
  payload[payload.size() - 1] = '\x7f';
  EXPECT_FALSE(DecodeStatus(payload).ok());
}

TEST(WireFrames, ErrorCarriesTransportStatusCodes) {
  // The new transport-layer codes must survive the wire: a client that
  // branches on kOverloaded / kFrameCorrupt needs the typed code back,
  // not a collapsed kInternal.
  for (StatusCode code :
       {StatusCode::kConnectionRefused, StatusCode::kConnectionReset,
        StatusCode::kFrameCorrupt, StatusCode::kOverloaded,
        StatusCode::kRetryExhausted, StatusCode::kStreamBroken}) {
    ErrorFrame error;
    error.code = code;
    error.message = "typed";
    auto decoded = DecodeError(EncodeError(error));
    ASSERT_TRUE(decoded.ok()) << StatusCodeName(code);
    EXPECT_EQ(decoded->code, code);
  }
}

TEST(WireFrames, TrailingGarbageIsMalformedEverywhere) {
  EXPECT_FALSE(DecodeHello(EncodeHello({"x"}) + "junk").ok());
  EXPECT_FALSE(DecodeHelloAck(EncodeHelloAck({}) + "j").ok());
  QueryFrame query;
  query.sparql = "q";
  EXPECT_FALSE(DecodeQuery(EncodeQuery(query) + "j").ok());
  AggregateResult aggregate;
  EXPECT_FALSE(DecodeAggregate(EncodeAggregate(aggregate) + "j").ok());
  runtime::QueryReport report;
  EXPECT_FALSE(DecodeReport(EncodeReport(report) + "j").ok());
  EXPECT_FALSE(DecodeError(EncodeError({}) + "j").ok());
  EXPECT_FALSE(DecodeStatus(EncodeStatus({}) + "j").ok());
}

TEST(WireFrames, TruncationIsMalformedEverywhere) {
  QueryFrame query;
  query.sparql = "select * where { ?x p ?y . }";
  const std::string full = EncodeQuery(query);
  for (size_t n = 0; n < full.size(); ++n) {
    EXPECT_FALSE(DecodeQuery(full.substr(0, n)).ok()) << "len " << n;
  }
  runtime::QueryReport report;
  report.status = Status::ParseError("x");
  const std::string report_bytes = EncodeReport(report);
  for (size_t n = 0; n < report_bytes.size(); ++n) {
    EXPECT_FALSE(DecodeReport(report_bytes.substr(0, n)).ok())
        << "len " << n;
  }
}

TEST(WireFrames, AppendFrameProducesHeaderPlusPayload) {
  std::string out;
  AppendFrame(FrameType::kQuery, "abc", &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);
  auto header = DecodeFrameHeader(out.data(), kDefaultMaxFrameBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kQuery);
  EXPECT_EQ(header->payload_length, 3u);
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

}  // namespace
}  // namespace net
}  // namespace wireframe
