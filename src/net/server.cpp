#include "net/server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <string_view>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/log.hpp"

namespace medcc::net {

namespace {

using service::Counter;

// epoll user-data tags; connection serials start above the reserved ones.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;
constexpr std::uint64_t kFirstSerial = 2;

constexpr std::size_t kRecvChunk = 64 * 1024;
/// Chunks gathered into one sendmsg; outq rarely holds more.
constexpr std::size_t kMaxWriteIov = 16;

double ms_since(std::chrono::steady_clock::time_point then,
                std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - then).count();
}

}  // namespace

Server::CompletionQueue::CompletionQueue()
    : wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!wake_fd) throw NetError("server: eventfd failed");
}

Server::CompletionQueue::~CompletionQueue() {
  const util::MutexLock lock(mutex);
  for (const auto& [serial, fd] : handoffs) {
    (void)serial;
    ::close(fd);
  }
}

void Server::CompletionQueue::post(std::uint64_t serial, std::string bytes) {
  {
    const util::MutexLock lock(mutex);
    if (!bytes.empty()) items.emplace_back(serial, std::move(bytes));
    --outstanding;
  }
  // The eventfd lives as long as this queue, so this write is safe even
  // after the Server (and its epoll) are gone; it is then simply unread.
  const std::uint64_t one = 1;
  (void)!::write(wake_fd.get(), &one, sizeof(one));
}

void Server::CompletionQueue::hand_off(std::uint64_t serial, int fd) {
  {
    const util::MutexLock lock(mutex);
    handoffs.emplace_back(serial, fd);
  }
  const std::uint64_t one = 1;
  (void)!::write(wake_fd.get(), &one, sizeof(one));
}

Server::Server(service::SchedulingService& service, ServerConfig config)
    : service_(service),
      metrics_(service.metrics()),
      config_(std::move(config)),
      wire_cache_(service.wire_cache()) {
  listen_fd_.reset(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            0));
  if (!listen_fd_) throw NetError("server: socket() failed");
  int one = 1;
  (void)::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1)
    throw NetError("server: invalid bind address " + config_.bind_address);
  if (::bind(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw NetError("server: bind to " + config_.bind_address + ":" +
                   std::to_string(config_.port) + " failed: " +
                   std::strerror(errno));
  if (::listen(listen_fd_.get(), config_.backlog) != 0)
    throw NetError("server: listen failed");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0)
    throw NetError("server: getsockname failed");
  port_ = ntohs(bound.sin_port);

  const std::size_t io_threads =
      config_.io_threads != 0
          ? config_.io_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Build every reactor (epoll + eventfd + pool) before starting any
  // thread, so a mid-construction throw only has FdHandles to unwind.
  reactors_.reserve(io_threads);
  for (std::size_t i = 0; i < io_threads; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->index = i;
    reactor->epoll_fd.reset(::epoll_create1(EPOLL_CLOEXEC));
    if (!reactor->epoll_fd) throw NetError("server: epoll_create1 failed");
    reactor->completions = std::make_shared<CompletionQueue>();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(reactor->epoll_fd.get(), EPOLL_CTL_ADD,
                    reactor->completions->wake_fd.get(), &ev) != 0)
      throw NetError("server: epoll_ctl(wake) failed");
    if (i == 0) {
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTag;
      if (::epoll_ctl(reactor->epoll_fd.get(), EPOLL_CTL_ADD,
                      listen_fd_.get(), &ev) != 0)
        throw NetError("server: epoll_ctl(listen) failed");
    }
    reactors_.push_back(std::move(reactor));
  }

  next_serial_.store(kFirstSerial, std::memory_order_relaxed);
  try {
    for (auto& reactor : reactors_)
      reactor->thread =
          std::thread([this, raw = reactor.get()] { io_loop(*raw); });
  } catch (...) {
    stop();  // joins whatever did start
    throw;
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& reactor : reactors_) wake(*reactor);
  for (auto& reactor : reactors_)
    if (reactor->thread.joinable()) reactor->thread.join();
  // All reactor threads are gone; close handed-off sockets that no
  // reactor adopted before exiting (accept raced the shutdown).
  for (auto& reactor : reactors_) {
    std::vector<std::pair<std::uint64_t, int>> orphans;
    {
      const util::MutexLock lock(reactor->completions->mutex);
      orphans.swap(reactor->completions->handoffs);
    }
    for (const auto& [serial, fd] : orphans) {
      (void)serial;
      ::close(fd);
      metrics_.sub(Counter::connections_active);
    }
  }
}

void Server::wake(Reactor& r) {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  (void)!::write(r.completions->wake_fd.get(), &one, sizeof(one));
}

void Server::io_loop(Reactor& r) {
  bool listener_open = (r.index == 0);
  auto grace_deadline = std::chrono::steady_clock::time_point::max();
  std::array<epoll_event, 64> events{};

  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);

    int timeout_ms = -1;
    if (stopping) {
      timeout_ms = 10;
    } else if (config_.idle_timeout_ms > 0.0) {
      timeout_ms = static_cast<int>(
          std::clamp(config_.idle_timeout_ms / 2.0, 5.0, 250.0));
    }

    const int n = ::epoll_wait(r.epoll_fd.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) {
      util::log_error("net server: epoll_wait failed: ", std::strerror(errno));
      break;
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (tag == kWakeTag) {
        std::uint64_t counter = 0;
        (void)!::read(r.completions->wake_fd.get(), &counter,
                      sizeof(counter));
        continue;
      }
      if (tag == kListenTag) {
        if (!stopping) accept_ready(r);
        continue;
      }
      const auto it = r.connections.find(tag);
      if (it == r.connections.end()) continue;  // closed earlier this batch
      Connection& conn = it->second;
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(r, tag);
        continue;
      }
      if ((mask & EPOLLIN) != 0) conn_readable(r, conn);
      // conn_readable may have closed the connection; re-find before write.
      const auto again = r.connections.find(tag);
      if (again != r.connections.end() && (mask & EPOLLOUT) != 0)
        conn_writable(r, again->second);
    }

    drain_outbox(r);

    if (config_.idle_timeout_ms > 0.0 && !r.connections.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<std::uint64_t> idle;
      // last_activity advances on every recv and every send that makes
      // progress, so this reaps both silent connections and peers that
      // stopped reading while we still hold unflushed output for them.
      for (const auto& [serial, conn] : r.connections)
        if (conn.pending == 0 &&
            ms_since(conn.last_activity, now) > config_.idle_timeout_ms)
          idle.push_back(serial);
      for (const std::uint64_t serial : idle) {
        metrics_.add(Counter::idle_closed);
        close_connection(r, serial);
      }
    }

    if (stopping) {
      if (listener_open) {
        (void)::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, listen_fd_.get(),
                          nullptr);
        listen_fd_.close();
        listener_open = false;
      }
      if (grace_deadline == std::chrono::steady_clock::time_point::max())
        grace_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(static_cast<long>(
                             std::max(0.0, config_.drain_grace_ms)));
      // Each reactor drains independently: its own dispatched solves,
      // its own outbufs. No cross-reactor barrier is needed because a
      // connection's whole life is confined to one reactor.
      bool in_flight;
      {
        const util::MutexLock lock(r.completions->mutex);
        in_flight = r.completions->outstanding > 0 ||
                    !r.completions->items.empty() ||
                    !r.completions->handoffs.empty();
      }
      const bool flushed = std::all_of(
          r.connections.begin(), r.connections.end(),
          [](const auto& entry) { return entry.second.out_bytes == 0; });
      if ((!in_flight && flushed) ||
          std::chrono::steady_clock::now() >= grace_deadline)
        break;
    }
  }

  metrics_.sub(Counter::connections_active, r.connections.size());
  r.connections.clear();
}

void Server::accept_ready(Reactor& r) {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    if (metrics_.value(Counter::connections_active) >=
        config_.max_connections) {
      ::close(fd);
      continue;
    }
    util::set_tcp_nodelay(fd);
    const std::uint64_t serial = next_serial_.fetch_add(1);
    metrics_.add(Counter::connections_accepted);
    metrics_.add(Counter::connections_active);
    const std::size_t target =
        reactors_.size() == 1
            ? 0
            : round_robin_.fetch_add(1, std::memory_order_relaxed) %
                  reactors_.size();
    if (target == r.index) {
      adopt_connection(r, serial, fd);
    } else {
      // Ownership of fd passes to the target reactor's queue; the
      // eventfd write makes it adopt (or, at shutdown, stop() reaps).
      reactors_[target]->completions->hand_off(serial, fd);
    }
  }
}

void Server::adopt_connection(Reactor& r, std::uint64_t serial, int fd) {
  Connection conn;
  conn.fd.reset(fd);
  conn.serial = serial;
  conn.last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = serial;
  if (::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    // conn.fd closes the socket on return.
    metrics_.sub(Counter::connections_active);
    return;
  }
  r.connections.emplace(serial, std::move(conn));
}

void Server::conn_readable(Reactor& r, Connection& conn) {
  char chunk[kRecvChunk];
  for (;;) {
    const long n = util::recv_some(conn.fd.get(), chunk, sizeof(chunk));
    if (n > 0) {
      conn.inbuf.append(std::string_view(chunk, static_cast<std::size_t>(n)));
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Orderly shutdown or hard error: the peer is gone, so responses
    // still in flight have nowhere to go; drop the connection now.
    close_connection(r, conn.serial);
    return;
  }

  process_inbuf(r, conn);
}

void Server::process_inbuf(Reactor& r, Connection& conn) {
  // read_paused stops frame handling too: frames already buffered wait
  // until the outbuf flushes, at which point conn_writable resumes us.
  while (conn.reading && !conn.read_paused) {
    std::optional<FrameBuffer::Frame> frame;
    try {
      frame = conn.inbuf.next(config_.max_frame_body);
    } catch (const CodecError& e) {
      // Header-level corruption desynchronizes the stream: answer once,
      // stop reading, close after the error frame is flushed.
      metrics_.add(Counter::protocol_errors);
      conn.reading = false;
      conn.close_after_flush = true;
      queue_output(r, conn, encode_error(e.code(), e.what(), 0));
      return;
    }
    if (!frame) break;  // need more bytes
    handle_frame(r, conn, frame->header, frame->body);
  }
}

void Server::handle_frame(Reactor& r, Connection& conn,
                          const FrameHeader& header, std::string_view body) {
  metrics_.add(Counter::frames_in);
  try {
    switch (header.type) {
      case FrameType::solve_request: {
        handle_solve(r, conn, header.request_id, body, obs::TraceContext{},
                     obs::Tracer::now_ns());
        return;
      }
      case FrameType::traced_solve_request: {
        const std::int64_t started_ns = obs::Tracer::now_ns();
        const TracedSolveBody split = split_traced_solve_request(body);
        metrics_.add(Counter::traced_solves);
        // A tracerless server still answers: the prefix is pure metadata,
        // so it is stripped and forgotten rather than refused.
        handle_solve(
            r, conn, header.request_id, split.inner,
            config_.tracer != nullptr ? split.trace : obs::TraceContext{},
            started_ns);
        return;
      }
      case FrameType::trace_dump_request: {
        const std::uint32_t max_traces = decode_trace_dump_request(body);
        metrics_.add(Counter::trace_dumps);
        // A tracerless node answers with an all-zero dump (enabled =
        // false) so medcc_tracectl can sweep mixed clusters uniformly.
        TraceDump dump;
        dump.node_id = config_.node_id;
        if (config_.tracer != nullptr) {
          const obs::TracerSnapshot snap = config_.tracer->snapshot();
          dump.enabled = snap.enabled;
          dump.started = snap.started;
          dump.sampled = snap.sampled;
          dump.completed = snap.completed;
          dump.dropped = snap.dropped;
          dump.stages = snap.stages;
          if (max_traces > 0)
            dump.traces = config_.tracer->recent(max_traces);
        }
        queue_output(r, conn,
                     encode_trace_dump_response(dump, header.request_id));
        return;
      }
      case FrameType::stats_request: {
        std::string dump;
        switch (decode_stats_request(body)) {
          case StatsFormat::csv:
            dump = metrics_.dump_csv();
            break;
          case StatsFormat::prometheus:
            dump = metrics_.dump_prometheus();
            break;
          case StatsFormat::text:
            dump = metrics_.dump_text();
            break;
        }
        queue_output(r, conn, encode_stats_response(dump, header.request_id));
        return;
      }
      case FrameType::hello_request: {
        // Version/feature negotiation: grant the highest version both
        // sides speak and the feature intersection. Stateless -- the
        // extension frames police themselves (a v1 server never reaches
        // here; it rejected the frame at parse).
        const Hello offer = decode_hello_request(body);
        metrics_.add(Counter::hellos);
        Hello granted;
        granted.version = std::min(offer.version, kMaxVersion);
        const std::uint32_t features =
            (config_.repl_apply != nullptr ? kFeatureReplication : 0u) |
            (config_.tracer != nullptr ? kFeatureTracing : 0u);
        granted.features = offer.features & features;
        granted.node_id = config_.node_id;
        queue_output(r, conn,
                     encode_hello_response(granted, header.request_id));
        return;
      }
      case FrameType::repl_insert: {
        const ReplRecord record = decode_repl_insert(body);
        metrics_.add(Counter::repl_records_in);
        ReplAck ack;
        if (config_.repl_apply == nullptr) {
          ack.applied = false;
          ack.error = "replication not enabled on this node";
        } else {
          // Applying is a decode + sharded cache upsert -- cheap enough
          // for the reactor thread (no solver, no disk write).
          const std::int64_t apply_start = obs::Tracer::now_ns();
          ack.applied = config_.repl_apply(record.payload);
          if (config_.tracer != nullptr && record.trace.valid()) {
            // The record rode in on the origin request's trace: account
            // the apply against that id so one trace spans both nodes.
            config_.tracer->record_remote(record.trace,
                                          obs::Stage::repl_apply, apply_start,
                                          obs::Tracer::now_ns(),
                                          config_.node_id);
          }
          if (!ack.applied) ack.error = "record rejected";
        }
        queue_output(r, conn, encode_repl_ack(ack, header.request_id));
        return;
      }
      case FrameType::cluster_status_request: {
        ClusterStatus status;
        if (config_.cluster_status != nullptr) {
          status = config_.cluster_status();
        } else {
          // A server without a cluster layer is a one-replica cluster.
          status.node_id = config_.node_id;
          status.protocol_version = kMaxVersion;
        }
        queue_output(r, conn,
                     encode_cluster_status_response(status, header.request_id));
        return;
      }
      case FrameType::solve_response:
      case FrameType::stats_response:
      case FrameType::error:
      case FrameType::hello_response:
      case FrameType::repl_ack:
      case FrameType::cluster_status_response:
      case FrameType::trace_dump_response: {
        // Server-to-client frames arriving at the server: protocol abuse.
        metrics_.add(Counter::protocol_errors);
        conn.reading = false;
        conn.close_after_flush = true;
        queue_output(r, conn,
                     encode_error(WireError::unexpected_frame,
                                  "client sent a server-side frame type",
                                  header.request_id));
        return;
      }
    }
  } catch (const CodecError& e) {
    // Bad body, sound framing: answer this request, keep the stream.
    metrics_.add(Counter::protocol_errors);
    queue_output(r, conn, encode_error(e.code(), e.what(), header.request_id));
  }
}

void Server::handle_solve(Reactor& r, Connection& conn,
                          std::uint64_t request_id, std::string_view inner,
                          obs::TraceContext trace, std::int64_t started_ns) {
  obs::Tracer* const tracer = config_.tracer;
  if (stopping_.load(std::memory_order_acquire)) {
    service::SchedulingResponse response;
    response.status = service::ResponseStatus::rejected;
    response.reject_reason = service::RejectReason::shutting_down;
    queue_output(r, conn, encode_solve_response(response, request_id));
    return;
  }
  if (wire_cache_ != nullptr) {
    // Zero-copy exact-hit fast path: a verbatim duplicate of a
    // previously answered request is served from the memoized frame
    // without decoding the body or touching the service. Traced frames
    // key on the inner bytes, so traced and untraced duplicates share
    // one memo entry and one set of response bytes.
    if (const auto frame = wire_cache_->find(inner)) {
      metrics_.add(Counter::wire_fastpath_hits);
      if (tracer != nullptr && trace.valid()) {
        // Single-span, allocation-free accounting: the hit's duration
        // is already known, so no span buffer is opened (the <5%
        // fast-path budget, bench/net_throughput --trace-overhead).
        tracer->record_span(trace, obs::Stage::wire_fastpath, started_ns,
                            obs::Tracer::now_ns(), config_.node_id);
      }
      queue_cached_frame(r, conn, *frame, request_id);
      return;
    }
    metrics_.add(Counter::wire_fastpath_misses);
  }
  if (config_.max_inflight_frames > 0 &&
      conn.pending >= config_.max_inflight_frames) {
    // Connection-level flow control: shed THIS request with a
    // structured reject rather than queueing unbounded worker-side
    // state for one over-eager pipeliner. The client sees which
    // request was shed (echoed id) and can back off and resend.
    service::SchedulingResponse response;
    response.status = service::ResponseStatus::rejected;
    response.reject_reason = service::RejectReason::flow_control;
    metrics_.count_response(response);
    queue_output(r, conn, encode_solve_response(response, request_id));
    return;
  }
  // A budget sweep repeats one instance's bytes: the intern table hands
  // back the instance (and, worker-side, its print) decoded from the
  // same bytes before. A bad body throws to handle_frame.
  InternedRequest decoded =
      decode_solve_request_interned(inner, service_.instance_table());
  metrics_.add(decoded.intern_hit ? Counter::instance_intern_hits
                                  : Counter::instance_intern_misses);
  service::SchedulingRequest request = std::move(decoded.request);
  if (tracer != nullptr && trace.valid()) {
    request.trace = trace;
    request.trace_buffer = tracer->open(trace);
    tracer->record(request.trace_buffer, obs::Stage::decode, started_ns,
                   obs::Tracer::now_ns());
  }
  const std::uint64_t serial = conn.serial;
  const std::uint64_t id = request_id;
  // Copied out before submit_async so the lambda captures never race
  // the indeterminately sequenced std::move(request) argument.
  const obs::TraceContext trace_ctx = request.trace;
  std::shared_ptr<obs::Trace> trace_buffer = request.trace_buffer;
  {
    const util::MutexLock lock(r.completions->mutex);
    ++r.completions->outstanding;
  }
  ++conn.pending;
  // The callback captures the shared CompletionQueue, never `this`:
  // a solve that outlives stop()'s grace period (and possibly the
  // Server) still posts into live memory and is merely dropped. The
  // WireCache is service-owned, so `wire` outlives the callback too,
  // and the tracer outlives the service by the ServerConfig contract.
  service_.submit_async(
      std::move(request),
      [queue = r.completions, wire = wire_cache_, serial, id,
       key = wire_cache_ != nullptr ? std::string(inner) : std::string(),
       tracer, trace_ctx, buffer = std::move(trace_buffer), started_ns,
       origin = config_.node_id](
          service::SchedulingResponse response) mutable {
        std::string bytes;
        try {
          bytes = encode_solve_response(response, id);
        } catch (...) {
          // Encoding cannot fail short of OOM; drop rather than die.
        }
        if (wire != nullptr && response.ok()) {
          // Memoize the hit-count-independent template: id 0,
          // timings zeroed, outcome pinned to hit_exact -- every
          // other field is a deterministic function of the request
          // bytes, so the entry never needs invalidation. Inserted
          // before post() so a client that saw this response can
          // rely on its verbatim duplicate hitting the fast path.
          response.queue_delay_ms = 0.0;
          response.solve_ms = 0.0;
          response.cache = service::CacheOutcome::hit_exact;
          try {
            wire->insert(std::move(key), encode_solve_response(response, 0));
          } catch (...) {
            // Memoization is an optimization; never fail the reply.
          }
        }
        if (tracer != nullptr && trace_ctx.valid()) {
          // The edge-to-edge request span closes here, where the
          // response bytes exist; finish() then decides retention.
          tracer->record(buffer, obs::Stage::request, started_ns,
                         obs::Tracer::now_ns());
          tracer->finish(buffer, origin);
        }
        queue->post(serial, std::move(bytes));
      });
}

std::string& Server::output_chunk(Reactor& r, Connection& conn,
                                  std::size_t need) {
  if (!conn.outq.empty()) {
    std::string& tail = conn.outq.back();
    if (tail.capacity() - tail.size() >= need) return tail;
  }
  conn.outq.push_back(r.pool.acquire());
  std::string& fresh = conn.outq.back();
  if (fresh.capacity() < need) fresh.reserve(need);
  return fresh;
}

void Server::queue_output(Reactor& r, Connection& conn, std::string bytes) {
  metrics_.add(Counter::frames_out);
  conn.out_bytes += bytes.size();
  if (bytes.size() >= r.pool.buffer_capacity()) {
    // An oversized frame becomes its own chunk: moving the string in is
    // cheaper than copying it into several pooled chunks.
    conn.outq.push_back(std::move(bytes));
  } else {
    output_chunk(r, conn, bytes.size()).append(bytes);
  }
  after_output(r, conn);
}

void Server::queue_cached_frame(Reactor& r, Connection& conn,
                                const std::string& frame, std::uint64_t id) {
  metrics_.add(Counter::frames_out);
  // The frame lands contiguously in one chunk so its request id can be
  // patched in place.
  std::string& chunk = output_chunk(r, conn, frame.size());
  const std::size_t at = chunk.size();
  chunk.append(frame);
  set_request_id(chunk.data() + at, id);
  conn.out_bytes += frame.size();
  after_output(r, conn);
}

void Server::after_output(Reactor& r, Connection& conn) {
  bool rearm = false;
  if (!conn.want_write) {
    conn.want_write = true;
    rearm = true;
  }
  if (config_.max_conn_outbuf > 0 && !conn.read_paused &&
      conn.out_bytes > config_.max_conn_outbuf) {
    conn.read_paused = true;
    metrics_.add(Counter::backpressure_paused);
    rearm = true;
  }
  if (rearm) update_epoll(r, conn);
}

void Server::update_epoll(Reactor& r, Connection& conn) {
  epoll_event ev{};
  ev.events = ((conn.reading && !conn.read_paused) ? EPOLLIN : 0u) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.serial;
  (void)::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

void Server::advance_outq(Reactor& r, Connection& conn, std::size_t sent) {
  conn.out_bytes -= sent;
  while (sent > 0) {
    std::string& front = conn.outq.front();
    const std::size_t avail = front.size() - conn.out_head;
    if (sent < avail) {
      conn.out_head += sent;
      return;
    }
    sent -= avail;
    r.pool.release(std::move(front));
    conn.outq.pop_front();
    conn.out_head = 0;
  }
}

void Server::conn_writable(Reactor& r, Connection& conn) {
  while (conn.out_bytes > 0) {
    // Gather the unflushed chunks into one vectored send.
    std::array<iovec, kMaxWriteIov> iov{};
    std::size_t n_iov = 0;
    std::size_t head = conn.out_head;
    for (std::string& chunk : conn.outq) {
      if (n_iov == iov.size()) break;
      if (chunk.size() > head) {
        iov[n_iov].iov_base = chunk.data() + head;
        iov[n_iov].iov_len = chunk.size() - head;
        ++n_iov;
      }
      head = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(conn.fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      advance_outq(r, conn, static_cast<std::size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_connection(r, conn.serial);
    return;
  }
  conn.want_write = false;
  if (conn.close_after_flush) {
    close_connection(r, conn.serial);
    return;
  }
  const bool resume = conn.read_paused;
  conn.read_paused = false;
  update_epoll(r, conn);
  // Level-triggered EPOLLIN will not re-fire for bytes we already hold,
  // so frames buffered while paused are handled here.
  if (resume) process_inbuf(r, conn);
}

void Server::close_connection(Reactor& r, std::uint64_t serial) {
  const auto it = r.connections.find(serial);
  if (it == r.connections.end()) return;
  (void)::epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, it->second.fd.get(),
                    nullptr);
  for (std::string& chunk : it->second.outq) r.pool.release(std::move(chunk));
  r.connections.erase(it);
  metrics_.sub(Counter::connections_active);
}

void Server::drain_outbox(Reactor& r) {
  std::vector<std::pair<std::uint64_t, std::string>> ready;
  std::vector<std::pair<std::uint64_t, int>> adopted;
  {
    const util::MutexLock lock(r.completions->mutex);
    ready.swap(r.completions->items);
    adopted.swap(r.completions->handoffs);
  }
  // Adopt handed-off sockets first: a response can only be for a
  // connection this reactor already owns, but ordering it this way
  // keeps the invariant obvious.
  for (const auto& [serial, fd] : adopted) adopt_connection(r, serial, fd);
  for (auto& [serial, bytes] : ready) {
    const auto it = r.connections.find(serial);
    if (it == r.connections.end()) {
      metrics_.add(Counter::dropped_responses);
      continue;
    }
    if (it->second.pending > 0) --it->second.pending;
    queue_output(r, it->second, std::move(bytes));
  }
}

}  // namespace medcc::net
