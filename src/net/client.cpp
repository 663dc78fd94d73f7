#include "net/client.hpp"

#include <thread>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace slicer::net {

namespace {

struct ClientMetrics {
  metrics::Counter& requests = metrics::counter("net.client.requests");
  metrics::Counter& retries = metrics::counter("net.client.retries");
  metrics::Counter& reconnects = metrics::counter("net.client.reconnects");
  metrics::Counter& throttled = metrics::counter("net.client.throttled");
  metrics::Histogram& request_ns = metrics::histogram("net.client.request_ns");
};

ClientMetrics& client_metrics() {
  static ClientMetrics m;
  return m;
}

}  // namespace

SlicerClientChannel::SlicerClientChannel(std::uint16_t port, std::string tenant,
                                         ChannelConfig config)
    : port_(port),
      tenant_(std::move(tenant)),
      config_(config),
      decoder_(config.max_frame_bytes) {
  connect_and_hello();
}

SlicerClientChannel::~SlicerClientChannel() = default;

void SlicerClientChannel::connect_and_hello() {
  sock_ = connect_loopback(port_, config_.connect_timeout);
  sock_.set_recv_timeout(config_.recv_timeout);
  sock_.set_send_timeout(config_.send_timeout);
  decoder_ = FrameDecoder(config_.max_frame_bytes);

  HelloRequest req;
  req.tenant = tenant_;
  sock_.send_all(encode_frame(static_cast<std::uint8_t>(Op::kHello),
                              req.serialize(), config_.max_frame_bytes));
  const Frame reply = read_frame();
  if (static_cast<Op>(reply.opcode) == Op::kError) {
    ErrorReply err = ErrorReply::deserialize(reply.payload);
    throw ServerError(std::move(err.code), err.message);
  }
  if (static_cast<Op>(reply.opcode) != Op::kHelloOk)
    throw NetError("unexpected hello reply opcode " +
                   std::to_string(reply.opcode));
  hello_ = HelloReply::deserialize(reply.payload);
}

Frame SlicerClientChannel::read_frame() {
  for (;;) {
    std::optional<Frame> frame = decoder_.next();
    if (frame.has_value()) return std::move(*frame);
    const Bytes chunk = sock_.recv_some();
    if (chunk.empty()) throw NetError("connection closed by server");
    decoder_.feed(chunk);
  }
}

Bytes SlicerClientChannel::roundtrip_once(Op op, BytesView payload) {
  trace::Span span("net.client.request");
  metrics::ScopedTimer timer(client_metrics().request_ns);
  sock_.send_all(encode_frame(static_cast<std::uint8_t>(op), payload,
                              config_.max_frame_bytes));
  const Frame reply = read_frame();
  if (static_cast<Op>(reply.opcode) == Op::kError) {
    ErrorReply err = ErrorReply::deserialize(reply.payload);
    throw ServerError(std::move(err.code), err.message);
  }
  if (static_cast<Op>(reply.opcode) != reply_op(op))
    throw NetError("reply opcode mismatch: got " +
                   std::to_string(reply.opcode) + " for " +
                   std::string(op_name(op)));
  return reply.payload;
}

std::uint64_t SlicerClientChannel::backoff_for(int attempt) const {
  std::uint64_t delay = config_.base_backoff_ms;
  for (int i = 0; i < attempt && delay < config_.max_backoff_ms; ++i)
    delay <<= 1;
  return delay < config_.max_backoff_ms ? delay : config_.max_backoff_ms;
}

Bytes SlicerClientChannel::roundtrip_idempotent(Op op, BytesView payload) {
  ++stats_.requests;
  client_metrics().requests.add();
  std::string last;
  bool reconnect_needed = false;
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      const std::uint64_t delay = backoff_for(attempt - 1);
      stats_.backoff_ms += delay;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      ++stats_.retries;
      client_metrics().retries.add();
      // A throttled reply left the connection healthy — backoff alone is
      // enough. Only a transport failure forces a reconnect + re-HELLO.
      if (reconnect_needed) {
        try {
          connect_and_hello();
          ++stats_.reconnects;
          client_metrics().reconnects.add();
          reconnect_needed = false;
        } catch (const NetError& e) {
          last = e.what();
          continue;
        }
      }
    }
    try {
      return roundtrip_once(op, payload);
    } catch (const NetError& e) {
      last = e.what();
      reconnect_needed = true;
    } catch (const ServerError& e) {
      // Per-tenant rate limiting is a retryable condition; every other
      // server-reported code means the request itself is at fault.
      if (e.code() != "throttled") throw;
      ++stats_.throttled;
      client_metrics().throttled.add();
      last = e.what();
    }
  }
  throw NetError(std::string(op_name(op)) + " failed after " +
                 std::to_string(config_.max_attempts) +
                 " attempts: " + (last.empty() ? "no attempt" : last));
}

std::uint64_t SlicerClientChannel::apply(const core::UpdateOutput& update) {
  ++stats_.requests;
  client_metrics().requests.add();
  const Bytes reply = roundtrip_once(Op::kApply, update.serialize());
  return ApplyReply::deserialize(reply).prime_count;
}

QueryPlanReply SlicerClientChannel::query_plan(
    const QueryPlanRequest& request) {
  const Bytes reply =
      roundtrip_idempotent(Op::kQueryPlan, request.serialize());
  return QueryPlanReply::deserialize(reply);
}

void SlicerClientChannel::ping() {
  roundtrip_idempotent(Op::kPing, BytesView{});
}

}  // namespace slicer::net
