// The epoll-based TCP front end of the SchedulingService.
//
// Multi-reactor design: ServerConfig::io_threads event-loop threads
// each own a private epoll instance, a wake eventfd, a buffer pool and
// a connection table. Reactor 0 additionally owns the listening
// socket; accepted connections are sharded round-robin across
// reactors (a cross-thread handoff posts the fd into the target
// reactor's completion queue and rings its eventfd). After the
// handoff a connection is confined to one reactor thread for life, so
// per-connection state needs no locking -- exactly the single-reactor
// discipline, replicated N times.
//
// Incoming bytes accumulate in each connection's FrameBuffer (the one
// frame reader in codec.hpp), which hands out every complete frame in
// order; solve requests are decoded and handed to
// SchedulingService::submit_async, so admission control, tenant
// quotas, queue deadlines, memoization and metrics all apply unchanged
// to network traffic. Completions are posted -- from whichever worker
// thread finished the solve -- into the owning reactor's outbox,
// drained through its eventfd, so responses go out as they complete,
// in any order; clients correlate them by request id.
//
// Zero-copy exact-hit fast path: when the service exposes a WireCache
// (ServiceConfig::wire_cache_capacity), the raw body bytes of every
// solve_request are first looked up in it. On a hit the memoized,
// fully encoded response frame is copied straight into the
// connection's pooled output chunk and the request id is patched in
// place -- no decode, no queue hop, no re-encode, no per-frame
// allocation. Misses take the normal path, and the completion
// callback memoizes the encoded template for the next verbatim
// duplicate. Fast-path responses carry queue_delay_ms = solve_ms = 0
// and CacheOutcome::hit_exact, and are counted only in the service's
// wire_fastpath_hits metric (they never enter admission control -- by
// design: the whole point is to spend nothing on them).
//
// Transport counters (frames, connections, protocol errors, ...) are
// rows of the service's MetricsRegistry table, so the stats frame
// serves them alongside the service's own (servers sharing one service
// share these rows, max_connections included).
//
// Output is chunked: each connection's outbuf is a deque of pooled
// buffers flushed with one gathered sendmsg (writev-style iovec) per
// syscall, and drained chunks return to the reactor's pool.
//
// Error handling follows the frame/stream split: a malformed *body*
// (frame boundaries still sound) answers with an error frame echoing
// the request id and keeps the connection -- handle_frame turns every
// CodecError its dispatch throws into that one reply; a malformed
// *header* (magic/version/type/length) desynchronizes the byte stream,
// so the server sends one error frame (id 0) and closes after
// flushing. Idle connections are closed after
// ServerConfig::idle_timeout_ms without traffic.
//
// stop() is graceful: the listener closes immediately, queued frames
// already dispatched keep their worker slots, every reactor
// independently waits for its in-flight solves and flushes its
// outbufs (each bounded by drain_grace_ms), and only then do the
// sockets close. The destructor calls stop(). Completion callbacks
// capture only the shared_ptr-owned CompletionQueue, never the Server
// itself, so a solve that outlives the grace period posts into state
// that outlives the Server and is simply dropped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "service/service.hpp"
#include "service/wire_cache.hpp"
#include "util/buffer_pool.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

namespace medcc::net {

struct ServerConfig {
  /// Dotted-quad IPv4 address to bind; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; Server::port() reports the choice.
  std::uint16_t port = 0;
  int backlog = 64;
  /// Reactor (event-loop) threads; 0 = hardware concurrency. Each
  /// accepted connection is pinned to one reactor round-robin.
  std::size_t io_threads = 1;
  std::size_t max_connections = 1024;
  std::size_t max_frame_body = kDefaultMaxBody;
  /// High-water mark on a connection's unflushed output. Past it the
  /// server stops reading from that connection until the buffer flushes,
  /// so a client that pipelines requests but never reads cannot grow
  /// server memory without bound. 0 = unlimited.
  std::size_t max_conn_outbuf = 4 * 1024 * 1024;
  /// Close connections with no traffic for this long; 0 = never. Also
  /// reaps connections whose unflushed output has made no progress for
  /// this long (a peer that stopped reading).
  double idle_timeout_ms = 0.0;
  /// stop(): how long each reactor keeps flushing responses after the
  /// last in-flight solve completes before closing connections hard.
  double drain_grace_ms = 5000.0;
  /// Cap on solves dispatched-but-unanswered per connection. A frame
  /// past the cap is answered immediately with a structured
  /// RejectReason::flow_control response instead of queueing unbounded
  /// worker-side state -- the connection stays healthy and the client
  /// sees exactly which request was shed. 0 = unlimited (the
  /// compatible default; the service's bounded queue still applies).
  std::size_t max_inflight_frames = 0;
  /// Name reported in hello and cluster_status responses ("" = unset).
  std::string node_id{};
  /// Cluster hooks, filled by the cluster layer (src/cluster) so the
  /// net layer stays free of a dependency on it.
  ///
  /// Applies one replicated cache record (repl_insert body payload);
  /// returns whether it was applied. nullptr = replication not
  /// offered: hello responses omit kFeatureReplication and repl_insert
  /// frames are acked with applied = false.
  std::function<bool(std::string_view payload)> repl_apply{};
  /// Source of the node's membership/replication view for
  /// cluster_status requests. nullptr = answer with an empty peer list
  /// (a single-node server is a degenerate one-replica cluster).
  std::function<ClusterStatus()> cluster_status{};
  /// Request tracer (docs/observability.md). nullptr = tracing not
  /// offered: hello responses omit kFeatureTracing, traced_solve_request
  /// frames are still answered (the trace prefix is stripped and
  /// ignored) and trace_dump requests return an empty dump. Not owned;
  /// must outlive the server.
  obs::Tracer* tracer = nullptr;
};

class Server {
public:
  /// Binds, listens, and starts the reactor threads. Throws NetError
  /// when the socket cannot be set up. `service` must outlive the
  /// server.
  Server(service::SchedulingService& service, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The locally bound TCP port (resolves port = 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The number of reactor threads actually running.
  [[nodiscard]] std::size_t reactor_count() const { return reactors_.size(); }

  /// Graceful shutdown: stop accepting, drain in-flight solves, flush
  /// outgoing frames, close. Idempotent; safe from any non-IO thread.
  void stop();

private:
  struct Connection {
    util::FdHandle fd;
    std::uint64_t serial = 0;
    FrameBuffer inbuf;
    /// Unflushed output: pooled chunks, front partially sent.
    std::deque<std::string> outq;
    std::size_t out_head = 0;   ///< bytes of outq.front() already sent
    std::size_t out_bytes = 0;  ///< total unsent bytes across outq
    std::chrono::steady_clock::time_point last_activity;
    std::size_t pending = 0;  ///< solves dispatched, response not yet queued
    bool close_after_flush = false;
    bool want_write = false;
    bool reading = true;      ///< false once the stream is poisoned
    bool read_paused = false;  ///< outbuf over the high-water mark
  };

  /// Cross-thread state of one reactor, shared with the submit_async
  /// callbacks (and, for handoffs, with reactor 0's accept path).
  /// Owned via shared_ptr so a callback firing after the Server is
  /// destroyed (a solve outliving drain_grace_ms) still posts into
  /// live memory; the response is then dropped with the queue.
  struct CompletionQueue {
    /// Creates the wake eventfd; throws NetError when that fails.
    CompletionQueue();
    /// Closes any handed-off sockets no reactor ever adopted.
    ~CompletionQueue();

    util::Mutex mutex;
    std::vector<std::pair<std::uint64_t, std::string>> items
        MEDCC_GUARDED_BY(mutex);
    /// Accepted connections (serial, fd) awaiting adoption by the
    /// owning reactor thread.
    std::vector<std::pair<std::uint64_t, int>> handoffs
        MEDCC_GUARDED_BY(mutex);
    /// Dispatched solves whose callback has not yet run.
    std::size_t outstanding MEDCC_GUARDED_BY(mutex) = 0;
    /// The eventfd the reactor sleeps on. Const after construction:
    /// workers write it and the reactor reads it without the mutex,
    /// which is safe because the descriptor value never changes and
    /// eventfd operations are kernel-synchronized.
    const util::FdHandle wake_fd;

    /// Worker-side: enqueue the encoded response (empty = drop),
    /// decrement outstanding, and wake the reactor.
    void post(std::uint64_t serial, std::string bytes)
        MEDCC_EXCLUDES(mutex);
    /// Acceptor-side: pass ownership of an accepted socket to this
    /// reactor and wake it.
    void hand_off(std::uint64_t serial, int fd) MEDCC_EXCLUDES(mutex);
  };

  /// One event-loop thread's world. Everything except `completions` is
  /// confined to that thread once it starts (the constructor sets the
  /// structures up before any thread runs).
  struct Reactor {
    std::size_t index = 0;
    util::FdHandle epoll_fd;
    std::shared_ptr<CompletionQueue> completions;
    util::BufferPool pool;  // internally locked; used by this thread only
    std::unordered_map<std::uint64_t, Connection> connections;
    std::thread thread;  // started last in the constructor
  };

  void io_loop(Reactor& r);
  void accept_ready(Reactor& r);  // runs on reactor 0 only
  /// Registers a just-accepted (or handed-off) socket with `r`.
  void adopt_connection(Reactor& r, std::uint64_t serial, int fd);
  void conn_readable(Reactor& r, Connection& conn);
  /// Parses and handles every complete frame buffered in conn.inbuf;
  /// stops early when the stream is poisoned or reading is paused.
  void process_inbuf(Reactor& r, Connection& conn);
  void conn_writable(Reactor& r, Connection& conn);
  /// Handles one complete frame; may queue output or dispatch a solve.
  /// A body that fails to decode is answered with an error frame.
  void handle_frame(Reactor& r, Connection& conn, const FrameHeader& header,
                    std::string_view body);
  /// Shared tail of solve_request and traced_solve_request: wire-cache
  /// fast path keyed on the inner (trace-free) request bytes, flow
  /// control, decode, dispatch. `trace` is invalid for untraced frames;
  /// `started_ns` anchors the request/decode spans when span-captured.
  void handle_solve(Reactor& r, Connection& conn, std::uint64_t request_id,
                    std::string_view inner, obs::TraceContext trace,
                    std::int64_t started_ns);
  void queue_output(Reactor& r, Connection& conn, std::string bytes);
  /// Fast path: copies a memoized response frame into the tail pooled
  /// chunk and patches the request id in place.
  void queue_cached_frame(Reactor& r, Connection& conn,
                          const std::string& frame, std::uint64_t id);
  /// Returns the tail output chunk with at least `need` spare bytes,
  /// acquiring a pooled chunk when the current tail is full.
  [[nodiscard]] std::string& output_chunk(Reactor& r, Connection& conn,
                                          std::size_t need);
  /// Common tail of the queue_* methods: arm EPOLLOUT and apply the
  /// outbuf high-water mark.
  void after_output(Reactor& r, Connection& conn);
  /// Retires `sent` flushed bytes, releasing drained chunks to the pool.
  void advance_outq(Reactor& r, Connection& conn, std::size_t sent);
  void update_epoll(Reactor& r, Connection& conn);
  void close_connection(Reactor& r, std::uint64_t serial);
  /// Moves completed responses and handed-off sockets from the
  /// cross-thread queue onto this reactor's state (reactor thread only).
  void drain_outbox(Reactor& r);
  void wake(Reactor& r);

  service::SchedulingService& service_;
  /// The service's registry; transport counters are rows of its table.
  service::MetricsRegistry& metrics_;
  ServerConfig config_;
  /// Borrowed from the service (which outlives the server); nullptr
  /// when the fast path is disabled.
  service::WireCache* wire_cache_ = nullptr;
  util::FdHandle listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  /// Serial source shared by all reactors (reactor 0 assigns serials
  /// at accept; they tag epoll events and correlate completions).
  std::atomic<std::uint64_t> next_serial_{0};
  /// Round-robin cursor for sharding accepted connections.
  std::atomic<std::size_t> round_robin_{0};

  /// Sized in the constructor before any thread starts, structurally
  /// immutable afterwards. Last member: stop() joins the reactor
  /// threads before anything above is torn down.
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace medcc::net
