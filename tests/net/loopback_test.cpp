// Loopback round-trips of the full wire protocol: every opcode against a
// live SlicerServer, under a single-lane and a multi-lane thread pool,
// plus the protocol-state machine (hello-first, duplicate hello, unknown
// tenant), connection limits, idle timeout + client reconnect, tenant
// isolation, and reply ordering under pipelining.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "core/verify.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "tests/core/test_rig.hpp"
#include "tests/net/plan_search.hpp"

namespace slicer::net {
namespace {

using core::MatchCondition;
using core::Record;
using core::testing::plain_query;
using core::testing::Rig;
using testing::wire_search;

std::vector<Record> sample_records() {
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < 24; ++i) out.push_back({i + 1, (i * 53) % 256});
  return out;
}

/// Moves the rig's cloud out for server-side hosting (the rig keeps the
/// owner/user roles; verification uses the owner's trusted shard values).
std::unique_ptr<core::CloudServer> take_cloud(Rig& rig) {
  auto cloud = std::make_unique<core::CloudServer>(std::move(*rig.cloud));
  rig.cloud.reset();
  return cloud;
}

void send_frame(Socket& sock, Op op, BytesView payload) {
  sock.send_all(encode_frame(static_cast<std::uint8_t>(op), payload));
}

/// A raw protocol endpoint: one socket plus the stream decoder that MUST
/// persist across reads (one recv chunk can carry several frames).
struct RawClient {
  Socket sock;
  FrameDecoder decoder;

  explicit RawClient(std::uint16_t port)
      : sock(connect_loopback(port, std::chrono::seconds(2))) {}

  void send(Op op, BytesView payload) { send_frame(sock, op, payload); }

  Frame read_frame() {
    for (;;) {
      std::optional<Frame> frame = decoder.next();
      if (frame.has_value()) return std::move(*frame);
      const Bytes chunk = sock.recv_some();
      if (chunk.empty()) throw NetError("closed");
      decoder.feed(chunk);
    }
  }
};

void run_every_opcode(std::size_t threads) {
  ThreadPool::ScopedPool pool(threads);
  Rig rig = Rig::make(8, "net-loopback", {}, 2);
  const auto records = sample_records();
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel ch(server.port(), "alpha");
  EXPECT_EQ(ch.hello().tenant, "alpha");
  EXPECT_EQ(ch.hello().shard_count, 2u);
  EXPECT_EQ(ch.hello().prime_count, 0u);

  ch.ping();  // kPing / kPong

  // kApply: the owner's batch ships over the wire; the reply's prime count
  // is the idempotency fingerprint.
  EXPECT_EQ(ch.apply(update), rig.owner->primes().size());
  EXPECT_EQ(server.tenant("alpha").prime_count(), rig.owner->primes().size());

  const auto tokens = rig.user->make_tokens(42, MatchCondition::kGreater);

  // kQueryPlan, one clause: a single-condition search, verified against
  // the owner's (trusted) shard values.
  const auto single = wire_search(ch, rig, tokens);
  EXPECT_TRUE(single.verified);
  EXPECT_EQ(single.ids, plain_query(records, 42, MatchCondition::kGreater));

  // kQueryPlan, two clauses: a whole batch in one round trip, verified per
  // clause through verify_plan.
  QueryPlanRequest plan;
  plan.clauses.resize(2);
  plan.clauses[0].tokens = tokens;
  plan.clauses[1].tokens = rig.user->make_tokens(42, MatchCondition::kLess);
  const QueryPlanReply plan_reply = ch.query_plan(plan);
  const core::PlanVerification pv =
      core::verify_plan(rig.acc_params, rig.owner->shard_values(),
                        plan.clauses, plan_reply.clauses,
                        rig.config.prime_bits);
  EXPECT_TRUE(pv.verified);
  ASSERT_EQ(plan_reply.clauses.size(), 2u);
  auto plan_ids = rig.user->decrypt(plan_reply.clauses[0].replies);
  std::sort(plan_ids.begin(), plan_ids.end());
  EXPECT_EQ(plan_ids, single.ids);  // clause 0 answers the same gt-42 query

  server.stop();
}

TEST(Loopback, EveryOpcodeSingleLane) { run_every_opcode(1); }
TEST(Loopback, EveryOpcodeFourLanes) { run_every_opcode(4); }

TEST(Loopback, DecodeTimeExcludesInlineHandling) {
  // A single-lane pool runs each handler inline on the reader thread, in
  // the middle of the framing loop. decode_ns must still time framing
  // alone: a slow handler (an APPLY that derives every witness) leaves it
  // far below handle_ns.
  ThreadPool::ScopedPool pool(1);
  const metrics::ScopedMetrics scoped;
  Rig rig = Rig::make(8, "net-decode", {}, 1);
  rig.cloud->precompute_witnesses();
  const core::UpdateOutput update = rig.owner->insert(sample_records());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();
  SlicerClientChannel ch(server.port(), "alpha");
  EXPECT_EQ(ch.apply(update), rig.owner->primes().size());
  server.stop();

  const auto& decode = metrics::histogram("net.server.decode_ns");
  const auto& handle = metrics::histogram("net.server.handle_ns");
  ASSERT_GT(decode.count(), 0u);
  ASSERT_GT(handle.count(), 0u);
  EXPECT_LT(decode.sum() * 10, handle.sum())
      << "decode " << decode.sum() << " ns, handle " << handle.sum() << " ns";
}

TEST(Loopback, TenantIsolation) {
  Rig alpha = Rig::make(8, "net-tenant-a", {}, 1);
  Rig beta = Rig::make(8, "net-tenant-b", {}, 1);
  const auto records = sample_records();
  const core::UpdateOutput update = alpha.owner->insert(records);
  alpha.user->refresh(alpha.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(alpha));
  server.add_tenant("beta", take_cloud(beta));
  server.start();

  SlicerClientChannel ch_a(server.port(), "alpha");
  ch_a.apply(update);

  // Beta's database is untouched by alpha's APPLY.
  SlicerClientChannel ch_b(server.port(), "beta");
  EXPECT_EQ(ch_b.hello().prime_count, 0u);
  EXPECT_EQ(server.tenant("beta").prime_count(), 0u);
  EXPECT_EQ(server.tenant("alpha").prime_count(),
            alpha.owner->primes().size());

  // Alpha still answers verified queries with beta connected.
  const auto tokens = alpha.user->make_tokens(100, MatchCondition::kLess);
  EXPECT_TRUE(wire_search(ch_a, alpha, tokens).verified);
}

TEST(Loopback, UnknownTenantRejected) {
  Rig rig = Rig::make(8, "net-unknown-tenant");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();
  try {
    SlicerClientChannel ch(server.port(), "nobody");
    FAIL() << "hello for an unknown tenant must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "hello");
  }
}

TEST(Loopback, HelloMustComeFirst) {
  Rig rig = Rig::make(8, "net-hello-first");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.send(Op::kPing, BytesView{});
  const Frame reply = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "hello");
  // The server closes the connection after the protocol violation.
  EXPECT_TRUE(raw.sock.recv_some().empty());
}

TEST(Loopback, DuplicateHelloRejected) {
  Rig rig = Rig::make(8, "net-dup-hello");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel ch(server.port(), "alpha");
  // A second HELLO on the live channel is a protocol violation.
  try {
    RawClient raw(server.port());
    HelloRequest req;
    req.tenant = "alpha";
    raw.send(Op::kHello, req.serialize());
    ASSERT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kHelloOk);
    raw.send(Op::kHello, req.serialize());
    const Frame reply = raw.read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
    EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "protocol");
  } catch (const NetError& e) {
    FAIL() << e.what();
  }
}

TEST(Loopback, MalformedFramingClosesWithDecodeError) {
  Rig rig = Rig::make(8, "net-bad-frame");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  const Bytes forged = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};  // 4 GiB length
  raw.sock.send_all(forged);
  const Frame reply = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "decode");
  EXPECT_TRUE(raw.sock.recv_some().empty());
}

TEST(Loopback, ConnectionLimitRejectsWithBusy) {
  Rig rig = Rig::make(8, "net-conn-limit");
  ServerConfig config;
  config.max_connections = 1;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel first(server.port(), "alpha");
  first.ping();
  try {
    SlicerClientChannel second(server.port(), "alpha");
    FAIL() << "second connection must be rejected at max_connections=1";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), "busy");
  }
  // The surviving channel is unaffected.
  first.ping();
}

TEST(Loopback, IdleTimeoutThenClientReconnects) {
  Rig rig = Rig::make(8, "net-idle");
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(150);
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  ChannelConfig ch_config;
  ch_config.max_attempts = 3;
  ch_config.base_backoff_ms = 1;
  SlicerClientChannel ch(server.port(), "alpha", ch_config);
  ch.ping();
  // Let the server expire the connection, then issue an idempotent request:
  // the channel reconnects (fresh HELLO) and the request succeeds.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ch.ping();
  EXPECT_GE(ch.stats().reconnects, 1u);
  EXPECT_GE(ch.stats().retries, 1u);
}

TEST(Loopback, PipelinedRepliesKeepRequestOrder) {
  ThreadPool::ScopedPool pool(4);
  Rig rig = Rig::make(8, "net-pipeline");
  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  HelloRequest req;
  req.tenant = "alpha";
  raw.send(Op::kHello, req.serialize());
  ASSERT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kHelloOk);

  // A burst of pings followed by a malformed QUERY_PLAN payload: the replies
  // must arrive strictly in request order (pongs first, then the error)
  // even though the handlers run concurrently on the pool.
  constexpr int kPings = 8;
  for (int i = 0; i < kPings; ++i) raw.send(Op::kPing, BytesView{});
  raw.send(Op::kQueryPlan, str_bytes("not a query plan payload"));
  for (int i = 0; i < kPings; ++i) {
    EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong) << i;
  }
  const Frame last = raw.read_frame();
  ASSERT_EQ(static_cast<Op>(last.opcode), Op::kError);
  EXPECT_EQ(ErrorReply::deserialize(last.payload).code, "decode");
}

TEST(Loopback, ConcurrentClientsAllVerify) {
  ThreadPool::ScopedPool pool(4);
  Rig rig = Rig::make(8, "net-concurrent", {}, 2);
  const auto records = sample_records();
  const core::UpdateOutput update = rig.owner->insert(records);
  rig.user->refresh(rig.owner->export_user_state());

  SlicerServer server;
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  SlicerClientChannel seed(server.port(), "alpha");
  seed.apply(update);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 3;
  // Token generation mutates DataUser state — pre-generate on this thread;
  // the worker threads only exercise the channel and the pure verifier.
  std::vector<std::vector<core::SearchToken>> queries;
  for (int i = 0; i < kClients * kQueriesPerClient; ++i) {
    queries.push_back(rig.user->make_tokens(
        static_cast<std::uint64_t>(40 + 7 * i), MatchCondition::kGreater));
  }
  std::vector<std::thread> clients;
  std::atomic<int> verified{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SlicerClientChannel ch(server.port(), "alpha");
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const auto& tokens = queries[c * kQueriesPerClient + q];
        if (wire_search(ch, rig, tokens).verified) verified.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(verified.load(), kClients * kQueriesPerClient);
}

TEST(Loopback, StopUnblocksLiveConnections) {
  Rig rig = Rig::make(8, "net-stop");
  auto server = std::make_unique<SlicerServer>();
  server->add_tenant("alpha", take_cloud(rig));
  server->start();
  const std::uint16_t port = server->port();
  SlicerClientChannel ch(port, "alpha");
  ch.ping();
  server->stop();  // must not hang with the channel still open
  ChannelConfig one_shot;
  one_shot.max_attempts = 1;
  EXPECT_THROW(SlicerClientChannel(port, "alpha", one_shot).ping(), Error);
  server.reset();
}

}  // namespace
}  // namespace slicer::net
