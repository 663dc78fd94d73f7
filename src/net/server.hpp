// SlicerServer: a standalone TCP front-end over CloudServer.
//
// Deployment shape (one process, loopback TCP):
//
//   acceptor thread ──accept──▶ per-connection reader thread
//                                  │  FrameDecoder + strict payload decode
//                                  │  hello → tenant binding (inline)
//                                  ▼
//                        ThreadPool::submit(handler)   ← SLICER_NET_THREADS
//                                  │                      admission slots
//                                  ▼
//                     per-connection writer thread
//                        (seq-ordered reply queue → send_all)
//
// Requests are decoded on the connection's reader thread and dispatched to
// the process-wide ThreadPool, so an expensive request (a bulk APPLY, a
// many-token query plan) from one tenant never blocks another
// tenant's reader. Replies are staged in a per-connection sequence-ordered
// queue drained by a dedicated writer thread: handlers complete in any
// order, but each connection observes replies in request order, and a slow
// or stalled verifier only backs up its own writer (kernel send timeout
// bounds the stall; the dispatch slots it holds are released the moment
// its replies are staged, not when they hit the wire).
//
// Tenancy: every connection starts with a HELLO frame naming a tenant; the
// tenant's CloudServer is guarded by a shared_mutex — QUERY_PLAN reads run
// concurrently (CloudServer is internally thread-safe for const access),
// APPLY takes the tenant exclusively. Tenants are registered
// before start() and never share state.
//
// Backpressure and limits: at most `max_connections` live connections
// (excess accepts get a kError/"busy" frame and an immediate close); at
// most `dispatch_concurrency` requests in the pool at once — the admission
// slot is acquired on the reader thread, so a flooding client is paused in
// its own socket buffer (TCP backpressure) instead of ballooning the queue.
//
// Per-tenant abuse control: every tenant owns a token bucket
// (tenant_qps / tenant_burst; qps 0 = unlimited) consulted on the reader thread before dispatch — an
// empty bucket gets a kError/"throttled" reply and the connection stays
// open (the client backs off and retries). Misbehavior accrues on the
// tenant, not the connection: malformed frames and undecodable payloads
// post-HELLO score +20, unknown opcodes +10, oversized payloads (above
// max_request_bytes) +40; crossing ban_threshold bans the tenant for
// ban_duration — every further request (and every reconnect HELLO) is
// answered kError/"banned" and the connection is closed. Because the score
// lives on the tenant, a one-tenant flood cannot consume another tenant's
// admission budget, and reconnect-and-misbehave loops still converge on a
// ban. The `net.tenant.flood` fault site drains the firing tenant's bucket
// (and throttles the hit request) so the Byzantine soak can starve one
// tenant on demand and assert a victim tenant's latency stays bounded.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace slicer::net {

/// SlicerServer tuning. Field defaults are the production values;
/// dispatch_concurrency additionally honours an environment knob.
struct ServerConfig {
  /// TCP port to bind on 127.0.0.1. 0 lets the kernel assign an ephemeral
  /// port (read it back via port() — the test/bench default).
  std::uint16_t port = 0;

  /// Live-connection cap; accepts beyond it are answered with a
  /// kError/"busy" frame and closed.
  std::size_t max_connections = 64;

  /// Cap on requests concurrently dispatched into the thread pool.
  /// 0 defers to the SLICER_NET_THREADS knob (default: the pool's lane
  /// count), clamped to [1, 4096].
  std::size_t dispatch_concurrency = 0;

  /// Reader-side receive timeout: a connection idle (or mid-frame-stalled)
  /// longer than this is closed.
  std::chrono::milliseconds idle_timeout{30'000};

  /// Writer-side kernel send timeout: bounds how long a stalled peer can
  /// pin its writer thread.
  std::chrono::milliseconds send_timeout{10'000};

  /// Frame-size bound enforced on receive (forged lengths) and send.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;

  /// Per-tenant sustained request rate (token-bucket refill, requests per
  /// second). 0 = unlimited admission.
  std::size_t tenant_qps = 0;

  /// Token-bucket capacity: the burst a tenant may issue before the
  /// sustained rate applies. Ignored when admission is unlimited.
  std::size_t tenant_burst = 32;

  /// Misbehavior score at which a tenant is banned (malformed frame or
  /// undecodable payload +20, unknown opcode +10, oversized payload +40).
  std::size_t ban_threshold = 100;

  /// How long a ban lasts; while banned, every request and every HELLO
  /// from the tenant is answered kError/"banned" and the connection closed.
  std::chrono::milliseconds ban_duration{60'000};

  /// Soft per-request payload bound: a frame whose payload exceeds this
  /// scores oversized-payload misbehavior (+40) instead of being
  /// processed. 0 defers to max_frame_bytes (i.e. only the hard framing
  /// bound applies, which kills the stream outright).
  std::size_t max_request_bytes = 0;
};

/// The wire-protocol server. Lifecycle: construct → add_tenant()* →
/// start() → (serve) → stop() (idempotent; the destructor calls it).
class SlicerServer {
 public:
  explicit SlicerServer(ServerConfig config = {});
  ~SlicerServer();
  SlicerServer(const SlicerServer&) = delete;
  SlicerServer& operator=(const SlicerServer&) = delete;

  /// Registers a tenant database. Must be called before start().
  void add_tenant(const std::string& name,
                  std::unique_ptr<core::CloudServer> cloud);

  /// Read access to a tenant's CloudServer (test assertions against
  /// server-side state). Unsynchronized — call only while no APPLY can be
  /// in flight. Throws ProtocolError for an unknown tenant.
  const core::CloudServer& tenant(const std::string& name) const;

  /// Binds, listens and spawns the acceptor. Throws NetError when the
  /// port cannot be bound.
  void start();

  /// Stops accepting, unblocks every connection, waits for all dispatched
  /// handlers to finish, and joins all threads. Idempotent.
  void stop();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Whether a tenant is currently banned (diagnostics/tests). Throws
  /// ProtocolError for an unknown tenant.
  bool tenant_banned(const std::string& name) const;

  /// A tenant's current misbehavior score (diagnostics/tests; resets to 0
  /// when a ban trips). Throws ProtocolError for an unknown tenant.
  std::size_t tenant_misbehavior(const std::string& name) const;

  /// Byzantine test hook: maps each outgoing reply frame to the list of
  /// frames actually written (empty = drop, >1 = duplicate/inject, mutated
  /// bytes = corruption). Runs on writer threads with the frame already
  /// sequence-ordered, so a stateful hook can also delay/reorder across a
  /// connection's replies. Set before start(); pass nullptr to clear.
  using FrameTamper = std::function<std::vector<Bytes>(const Bytes& frame)>;
  void set_frame_tamper(FrameTamper tamper);

 private:
  struct Tenant;
  struct Connection;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace slicer::net
