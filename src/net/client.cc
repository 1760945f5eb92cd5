#include "net/client.h"

#include <chrono>
#include <utility>

#include "net/fault_injection.h"

namespace wireframe {
namespace net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Poll slice while waiting for frames with liveness enabled: short
/// enough that ping deadlines are honored promptly.
constexpr int kLivenessSliceMs = 50;

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& address,
                                               ClientOptions options) {
  WF_ASSIGN_OR_RETURN(SocketAddress parsed, SocketAddress::Parse(address));
  WF_ASSIGN_OR_RETURN(Socket sock,
                      Socket::Connect(parsed, options.connect_timeout_ms,
                                      options.recv_buffer_bytes));
  if (options.fault_injector != nullptr) {
    sock.ArmFaults(options.fault_injector);
  }
  std::unique_ptr<Client> client(
      new Client(std::move(sock), std::move(options)));
  HelloFrame hello;
  hello.service_class = client->options_.service_class;
  WF_RETURN_NOT_OK(
      client->SendFrame(FrameType::kHello, EncodeHello(hello)));
  Frame ack;
  WF_RETURN_NOT_OK(client->ReadFrame(&ack));
  if (ack.type == FrameType::kError) {
    WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(ack.payload));
    return error.ToStatus();
  }
  if (ack.type != FrameType::kHelloAck) {
    return Status::Internal(
        std::string("expected HELLO-ACK, got ") + FrameTypeName(ack.type));
  }
  WF_ASSIGN_OR_RETURN(client->hello_, DecodeHelloAck(ack.payload));
  return client;
}

Status Client::SendFrame(FrameType type, const std::string& payload) {
  std::string frame;
  AppendFrame(type, payload, &frame);
  return sock_.WriteAll(frame.data(), frame.size(),
                        options_.io_timeout_ms);
}

Status Client::ReadFrame(Frame* frame) {
  char header_bytes[kFrameHeaderBytes];
  WF_RETURN_NOT_OK(sock_.ReadExact(header_bytes, kFrameHeaderBytes,
                                   options_.io_timeout_ms));
  Result<FrameHeader> header =
      DecodeFrameHeader(header_bytes, options_.max_frame_bytes);
  if (!header.ok()) {
    // The handshake already proved the server speaks our protocol, so
    // an undecodable header mid-session means the byte stream itself
    // went bad (lost or damaged bytes) — typed so retry policy treats
    // it as a broken stream, not a caller bug.
    return Status::FrameCorrupt("undecodable frame header (" +
                                header.status().message() + ")");
  }
  frame->type = header->type;
  frame->payload.resize(header->payload_length);
  if (header->payload_length > 0) {
    WF_RETURN_NOT_OK(sock_.ReadExact(frame->payload.data(),
                                     header->payload_length,
                                     options_.io_timeout_ms));
  }
  return VerifyFramePayload(*header, frame->payload);
}

Status Client::ReadFrameWithLiveness(Frame* frame) {
  if (options_.ping_interval_ms <= 0) return ReadFrame(frame);
  const int64_t start = NowMs();
  int64_t last_ping = start;
  for (;;) {
    Status ready = sock_.WaitReadable(kLivenessSliceMs);
    if (ready.ok()) return ReadFrame(frame);
    if (!ready.IsTimedOut()) return ready;
    const int64_t now = NowMs();
    if (options_.io_timeout_ms >= 0 &&
        now - start >= options_.io_timeout_ms) {
      return Status::TimedOut("read timed out");
    }
    // Any frame at all resets the clock (this function returns on each
    // one), so "silent past the ping timeout despite pings" can only
    // mean a dead or wedged peer — a live server answers PING with
    // PONG in stream order even while a query runs.
    if (options_.ping_timeout_ms > 0 &&
        now - start >= options_.ping_timeout_ms) {
      return Status::ConnectionReset(
          "peer unresponsive: no frame for " +
          std::to_string(now - start) + " ms despite pings");
    }
    if (now - last_ping >= options_.ping_interval_ms) {
      WF_RETURN_NOT_OK(SendFrame(FrameType::kPing, std::string()));
      last_ping = now;
    }
  }
}

Result<QueryResult> Client::Run(const QueryFrame& query,
                                const BatchHook& hook) {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kQuery, EncodeQuery(query)));
  QueryResult result;
  // One frame and one decoded batch serve the whole stream, so steady
  // state reads and decodes into reused capacity.
  Frame frame;
  RowBatchFrame batch;
  bool have_aggregate = false;
  AggregateResult aggregate;
  // Overall deadline for the whole query, PONG traffic included — see
  // ClientOptions::query_timeout_ms for why liveness alone cannot bound
  // this loop.
  const int64_t deadline =
      options_.query_timeout_ms > 0
          ? NowMs() + options_.query_timeout_ms
          : -1;
  for (;;) {
    if (deadline >= 0 && NowMs() >= deadline) {
      return Status::TimedOut(
          "query deadline exceeded after " +
          std::to_string(options_.query_timeout_ms) +
          " ms (peer alive but the result stream is not progressing)");
    }
    WF_RETURN_NOT_OK(ReadFrameWithLiveness(&frame));
    switch (frame.type) {
      case FrameType::kPong:
        break;  // liveness answer — not part of the query stream
      case FrameType::kRowBatch: {
        WF_RETURN_NOT_OK(DecodeRowBatch(frame.payload, &batch));
        if (hook) hook(batch);
        if (result.width == 0) result.width = batch.width;
        if (batch.width != result.width) {
          return Status::Internal("row batch width changed mid-stream");
        }
        result.data.insert(result.data.end(), batch.data.begin(),
                           batch.data.end());
        break;
      }
      case FrameType::kAggregate: {
        WF_ASSIGN_OR_RETURN(aggregate, DecodeAggregate(frame.payload));
        have_aggregate = true;
        break;
      }
      case FrameType::kReport: {
        WF_ASSIGN_OR_RETURN(result.report, DecodeReport(frame.payload));
        if (have_aggregate) result.report.aggregate = aggregate;
        return result;
      }
      case FrameType::kError: {
        WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
        return error.ToStatus();
      }
      default:
        return Status::Internal(std::string("unexpected ") +
                                FrameTypeName(frame.type) +
                                " frame in a query stream");
    }
  }
}

Status Client::SendCancel() {
  return SendFrame(FrameType::kCancel, std::string());
}

Status Client::Ping() {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kPing, std::string()));
  Frame frame;
  for (;;) {
    WF_RETURN_NOT_OK(ReadFrame(&frame));
    if (frame.type == FrameType::kPong) return Status::OK();
    if (frame.type == FrameType::kError) {
      WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
      return error.ToStatus();
    }
    // Anything else still in flight drains past the probe.
  }
}

Result<StatusFrame> Client::QueryStatus() {
  WF_RETURN_NOT_OK(SendFrame(FrameType::kStatus, std::string()));
  Frame frame;
  for (;;) {
    WF_RETURN_NOT_OK(ReadFrame(&frame));
    if (frame.type == FrameType::kStatus) {
      return DecodeStatus(frame.payload);
    }
    if (frame.type == FrameType::kError) {
      WF_ASSIGN_OR_RETURN(ErrorFrame error, DecodeError(frame.payload));
      return error.ToStatus();
    }
    if (frame.type == FrameType::kPong) continue;
    return Status::Internal(std::string("unexpected ") +
                            FrameTypeName(frame.type) +
                            " frame while awaiting STATUS");
  }
}

Status Client::Goodbye() {
  Status status = SendFrame(FrameType::kGoodbye, std::string());
  Frame frame;
  while (status.ok()) {
    status = ReadFrame(&frame);
    if (status.ok() && frame.type == FrameType::kGoodbye) break;
    // Anything still queued ahead of the GOODBYE drains through here.
  }
  sock_.Close();
  return status;
}

}  // namespace net
}  // namespace wireframe
