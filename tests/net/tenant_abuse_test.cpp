// Per-tenant abuse control (token-bucket throttling, misbehavior scoring,
// disconnect-and-ban) plus server timeout/teardown edges: idle-timeout
// striking mid-frame, stop() racing an inflight APPLY, and busy-rejection
// while the connection table churns. Runs under `ctest -L net` so the TSan
// job chases the reader/pool/writer interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "tests/core/test_rig.hpp"

namespace slicer::net {
namespace {

using core::Record;
using core::testing::Rig;

std::unique_ptr<core::CloudServer> take_cloud(Rig& rig) {
  auto cloud = std::make_unique<core::CloudServer>(std::move(*rig.cloud));
  rig.cloud.reset();
  return cloud;
}

/// Raw endpoint (frame decoder persists across reads).
struct RawClient {
  Socket sock;
  FrameDecoder decoder;

  explicit RawClient(std::uint16_t port)
      : sock(connect_loopback(port, std::chrono::seconds(2))) {
    sock.set_recv_timeout(std::chrono::seconds(5));
  }

  void send(Op op, BytesView payload) {
    sock.send_all(encode_frame(static_cast<std::uint8_t>(op), payload));
  }

  Frame read_frame() {
    for (;;) {
      std::optional<Frame> frame = decoder.next();
      if (frame.has_value()) return std::move(*frame);
      const Bytes chunk = sock.recv_some();
      if (chunk.empty()) throw NetError("closed");
      decoder.feed(chunk);
    }
  }

  void hello(const std::string& tenant) {
    HelloRequest req;
    req.tenant = tenant;
    send(Op::kHello, req.serialize());
    const Frame reply = read_frame();
    ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kHelloOk);
  }
};

ErrorReply expect_error(RawClient& raw) {
  const Frame reply = raw.read_frame();
  EXPECT_EQ(static_cast<Op>(reply.opcode), Op::kError);
  return ErrorReply::deserialize(reply.payload);
}

// --- token-bucket throttling --------------------------------------------

TEST(TenantAbuse, EmptyBucketThrottlesWithoutClosing) {
  Rig rig = Rig::make(8, "net-throttle");
  ServerConfig config;
  config.tenant_qps = 1;
  config.tenant_burst = 2;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  // A burst past the bucket: at 1 qps only ~burst of these can pass.
  constexpr int kPings = 8;
  for (int i = 0; i < kPings; ++i) raw.send(Op::kPing, BytesView{});
  int pongs = 0, throttled = 0;
  for (int i = 0; i < kPings; ++i) {
    const Frame reply = raw.read_frame();
    if (static_cast<Op>(reply.opcode) == Op::kPong) {
      ++pongs;
    } else {
      ASSERT_EQ(static_cast<Op>(reply.opcode), Op::kError);
      EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "throttled");
      ++throttled;
    }
  }
  EXPECT_GE(pongs, 2);      // the burst allowance
  EXPECT_GE(throttled, 1);  // the flood hit the limiter
  // Throttling is not a protocol violation: no score, connection alive.
  EXPECT_EQ(server.tenant_misbehavior("alpha"), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1'200));
  raw.send(Op::kPing, BytesView{});  // refilled: admitted again
  EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong);
}

TEST(TenantAbuse, ChannelAbsorbsThrottlingWithBackoff) {
  Rig rig = Rig::make(8, "net-throttle-retry");
  ServerConfig config;
  config.tenant_qps = 4;
  config.tenant_burst = 1;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  ChannelConfig ch_config;
  ch_config.max_attempts = 8;
  ch_config.base_backoff_ms = 100;
  SlicerClientChannel ch(server.port(), "alpha", ch_config);
  for (int i = 0; i < 4; ++i) ch.ping();  // every one eventually lands
  EXPECT_GE(ch.stats().throttled, 1u);
  EXPECT_GT(ch.stats().backoff_ms, 0u);
  // Backoff, not reconnect: the server never closed the connection.
  EXPECT_EQ(ch.stats().reconnects, 0u);
}

TEST(TenantAbuse, FloodFaultDrainsTheBucket) {
  Rig rig = Rig::make(8, "net-flood");
  ServerConfig config;
  config.tenant_qps = 1'000;  // generous: only the fault can starve it
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  {
    ScopedFaultPlan plan("net.tenant.flood=always");
    for (int i = 0; i < 3; ++i) {
      raw.send(Op::kPing, BytesView{});
      EXPECT_EQ(expect_error(raw).code, "throttled") << i;
    }
  }
  // Plan disarmed: the bucket refills (50 ms at 1000 qps is plenty) and
  // service resumes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  raw.send(Op::kPing, BytesView{});
  EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong);
}

// --- misbehavior scoring and bans ---------------------------------------

TEST(TenantAbuse, UnknownOpcodesAccumulateIntoDisconnectAndBan) {
  Rig rig = Rig::make(8, "net-ban-opcode");
  ServerConfig config;
  config.ban_threshold = 40;  // four unknown opcodes
  config.ban_duration = std::chrono::milliseconds(400);
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  // The retired read opcodes — SEARCH (0x03), SEARCH_AGGREGATED (0x04),
  // FETCH (0x05) and PROVE (0x06) — score like any other unknown opcode.
  for (const std::uint8_t op : {0x03, 0x04, 0x05, 0x06}) {
    raw.send(static_cast<Op>(op), BytesView{});
    EXPECT_EQ(expect_error(raw).code, "protocol") << int{op};
  }
  // The fourth strike tripped the ban: the server closed the connection.
  EXPECT_THROW(raw.read_frame(), NetError);
  EXPECT_TRUE(server.tenant_banned("alpha"));
  EXPECT_EQ(server.tenant_misbehavior("alpha"), 0u);  // reset by the ban

  // Reconnecting cannot launder the ban: HELLO itself is refused.
  RawClient again(server.port());
  HelloRequest req;
  req.tenant = "alpha";
  again.send(Op::kHello, req.serialize());
  EXPECT_EQ(expect_error(again).code, "banned");
  EXPECT_THROW(again.read_frame(), NetError);

  // Bans expire: after ban_duration the tenant is served again.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  EXPECT_FALSE(server.tenant_banned("alpha"));
  RawClient healed(server.port());
  healed.hello("alpha");
  healed.send(Op::kPing, BytesView{});
  EXPECT_EQ(static_cast<Op>(healed.read_frame().opcode), Op::kPong);
}

TEST(TenantAbuse, OversizedPayloadScoresHeavily) {
  Rig rig = Rig::make(8, "net-ban-oversize");
  ServerConfig config;
  config.max_request_bytes = 64;
  config.ban_threshold = 40;  // one oversized payload suffices
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  raw.send(Op::kPing, Bytes(100, 0xAB));
  const ErrorReply err = expect_error(raw);
  EXPECT_EQ(err.code, "protocol");
  EXPECT_NE(err.message.find("oversized"), std::string::npos);
  EXPECT_THROW(raw.read_frame(), NetError);  // disconnect-and-ban
  EXPECT_TRUE(server.tenant_banned("alpha"));
}

TEST(TenantAbuse, UndecodablePayloadScoresOnTheTenant) {
  Rig rig = Rig::make(8, "net-score-decode");
  SlicerServer server;  // default threshold: scoring only, no ban yet
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  raw.send(Op::kQueryPlan, str_bytes("not a query plan payload"));
  EXPECT_EQ(expect_error(raw).code, "decode");
  EXPECT_EQ(server.tenant_misbehavior("alpha"), 20u);
  EXPECT_FALSE(server.tenant_banned("alpha"));
  raw.send(Op::kPing, BytesView{});  // still served
  EXPECT_EQ(static_cast<Op>(raw.read_frame().opcode), Op::kPong);
}

TEST(TenantAbuse, MisbehaviorFollowsTheTenantAcrossConnections) {
  // Malformed *framing* kills each connection, but the score outlives it:
  // a reconnect-and-send-garbage loop converges on a ban.
  Rig rig = Rig::make(8, "net-ban-framing");
  ServerConfig config;
  config.ban_threshold = 60;  // three malformed streams
  config.max_frame_bytes = 1 << 16;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  const Bytes forged = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};  // 4 GiB length
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(server.tenant_banned("alpha")) << i;
    RawClient raw(server.port());
    raw.hello("alpha");
    raw.sock.send_all(forged);
    EXPECT_EQ(expect_error(raw).code, "decode") << i;
    EXPECT_THROW(raw.read_frame(), NetError);
  }
  EXPECT_TRUE(server.tenant_banned("alpha"));
}

TEST(TenantAbuse, OneTenantsBanDoesNotTouchItsNeighbour) {
  Rig alpha = Rig::make(8, "net-iso-a");
  Rig beta = Rig::make(8, "net-iso-b");
  ServerConfig config;
  config.ban_threshold = 10;  // a single unknown opcode
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(alpha));
  server.add_tenant("beta", take_cloud(beta));
  server.start();

  RawClient bad(server.port());
  bad.hello("alpha");
  bad.send(static_cast<Op>(0x7F), BytesView{});
  EXPECT_EQ(expect_error(bad).code, "protocol");
  EXPECT_TRUE(server.tenant_banned("alpha"));

  // The neighbour never notices.
  EXPECT_FALSE(server.tenant_banned("beta"));
  SlicerClientChannel ch(server.port(), "beta");
  ch.ping();
}

// --- timeout / teardown edges -------------------------------------------

TEST(TenantAbuse, IdleTimeoutStrikesMidFrame) {
  // A peer that stalls *inside* a frame (header promised more bytes than
  // it sends) must be reaped by the idle timeout, not hang the reader.
  Rig rig = Rig::make(8, "net-midframe");
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(150);
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  RawClient raw(server.port());
  raw.hello("alpha");
  const Bytes full =
      encode_frame(static_cast<std::uint8_t>(Op::kQueryPlan), Bytes(64, 0x01));
  raw.sock.send_all(BytesView(full.data(), full.size() / 2));  // stall here
  // The server times the connection out and closes it without a reply.
  EXPECT_THROW(raw.read_frame(), NetError);

  // The listener is unaffected: a well-behaved client connects and works.
  SlicerClientChannel ch(server.port(), "alpha");
  ch.ping();
}

TEST(TenantAbuse, StopRacesInflightApply) {
  // stop() while APPLY handlers are mid-execution on the pool: teardown
  // must drain them (they touch tenant state) before freeing anything.
  ThreadPool::ScopedPool pool(4);
  for (int round = 0; round < 4; ++round) {
    Rig rig = Rig::make(8, "net-stop-race");
    const std::vector<Record> records = {{1, 11}, {2, 22}, {3, 33},
                                         {4, 44}, {5, 55}, {6, 66}};
    const core::UpdateOutput update = rig.owner->insert(records);
    SlicerServer server;
    server.add_tenant("alpha", take_cloud(rig));
    server.start();

    std::atomic<bool> sent{false};
    std::thread client([&] {
      try {
        SlicerClientChannel ch(server.port(), "alpha");
        sent.store(true);
        ch.apply(update);  // may complete or die with the server — both fine
      } catch (const Error&) {
      }
      sent.store(true);
    });
    while (!sent.load()) std::this_thread::yield();
    server.stop();  // must not hang, crash, or race the handler
    client.join();
  }
}

TEST(TenantAbuse, BusyRejectionWhileConnectionsChurn) {
  // Connections opened and closed in quick succession against a tiny
  // max_connections: every accept is either served or rejected with
  // kError/"busy" — never hung, never crashed — and the slot is reusable
  // after a close.
  Rig rig = Rig::make(8, "net-churn");
  ServerConfig config;
  config.max_connections = 2;
  SlicerServer server(config);
  server.add_tenant("alpha", take_cloud(rig));
  server.start();

  // 1 = served, 0 = rejected (busy frame or closed while a previous
  // socket lingered unreaped).
  auto try_once = [&]() -> int {
    RawClient raw(server.port());
    HelloRequest req;
    req.tenant = "alpha";
    raw.send(Op::kHello, req.serialize());
    try {
      Frame reply = raw.read_frame();
      if (static_cast<Op>(reply.opcode) == Op::kError) {
        EXPECT_EQ(ErrorReply::deserialize(reply.payload).code, "busy");
        return 0;
      }
      EXPECT_EQ(static_cast<Op>(reply.opcode), Op::kHelloOk);
      raw.send(Op::kPing, BytesView{});
      return static_cast<Op>(raw.read_frame().opcode) == Op::kPong ? 1 : 0;
    } catch (const NetError&) {
      return 0;
    }
    // Socket closed on return; the acceptor reaps it on its next pass.
  };
  int served = 0;
  for (int i = 0; i < 12; ++i) served += try_once();
  EXPECT_GT(served, 0);
  // The slot always comes back once lingering sockets are reaped.
  int final_ok = 0;
  for (int attempt = 0; attempt < 20 && final_ok == 0; ++attempt) {
    final_ok = try_once();
    if (final_ok == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(final_ok, 1);
}

}  // namespace
}  // namespace slicer::net
