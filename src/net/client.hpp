// Blocking client for the MED-CC wire protocol.
//
// One Client owns one TCP connection. connect() retries with
// exponential backoff (util::Backoff). Every call -- solve(),
// solve_batch(), stats(), hello(), repl_insert_batch(),
// cluster_status(), trace_dump() -- is one pipelined request-reply
// exchange: connect, send the whole burst, then read one reply per
// request off the connection's FrameBuffer and match it by request id,
// so a slow solve never blocks the ones behind it server-side. solve()
// is a batch of one.
//
// Faults: an error frame echoing a request's id is that request's
// answer (a `failed` response, an unapplied ack, or NetError from the
// admin calls). Every stream fault -- connect or send failure, a
// timeout, a closed connection, a reply with an unknown or duplicate
// id, an error frame with id 0 (the server could not frame our bytes),
// a bad reply header or an undecodable reply body -- leaves the stream
// position unknown, so the client closes the connection and throws
// NetError (carrying the codec's text for the last two); the next call
// reconnects. ClusterClient fails over on exactly these. hello() alone
// reads an id-0 version refusal as a v1 peer.
//
// Deadlines: one ClientConfig::request_timeout_ms bound covers each
// whole exchange (0 = wait forever). Per-request *queue* deadlines
// (SchedulingRequest::deadline_ms) are enforced server-side and come
// back as ordinary rejected responses.
//
// The client is not thread-safe: callers wanting concurrency open one
// Client per thread (the server multiplexes them all on one epoll loop).
//
// MultiClient is the load-generation counterpart: one thread driving
// many connections with a bounded pipeline window each, sending
// verbatim copies of a single pre-encoded request (only the header id
// differs per send). bench/net_throughput uses it to saturate the
// multi-reactor server and its wire-cache fast path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.hpp"
#include "service/request.hpp"
#include "util/socket.hpp"

namespace medcc::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// connect() attempts before giving up.
  std::size_t connect_attempts = 5;
  /// Bound on each TCP connection-establishment attempt, so a
  /// black-holed host cannot hang the caller for the kernel default
  /// (minutes); 0 = no bound.
  double connect_timeout_ms = 10000.0;
  /// Exponential backoff between connect attempts.
  double backoff_initial_ms = 10.0;
  double backoff_cap_ms = 1000.0;
  /// Wall-clock bound on one request/response exchange; 0 = no bound.
  double request_timeout_ms = 0.0;
  std::size_t max_frame_body = kDefaultMaxBody;
};

class Client {
public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establishes the connection, retrying with backoff. No-op when
  /// already connected. Throws NetError after the final failed attempt.
  void connect();
  [[nodiscard]] bool connected() const { return fd_.valid(); }
  void close();

  /// One round trip. Protocol-level faults that the server scopes to
  /// this request (an error frame echoing our id) come back as a
  /// `failed` response carrying the fault text; stream faults close the
  /// connection and throw NetError. A request carrying a valid trace
  /// context goes out as a traced_solve_request (v2 tracing feature)
  /// -- the response bytes are identical either way.
  [[nodiscard]] service::SchedulingResponse solve(
      const service::SchedulingRequest& request);

  /// Pipelines all requests on this connection, then collects the
  /// responses (which the server may produce in any order) back into
  /// request order.
  [[nodiscard]] std::vector<service::SchedulingResponse> solve_batch(
      const std::vector<service::SchedulingRequest>& requests);

  /// The server's metrics dump (docs/service.md) over the wire.
  [[nodiscard]] std::string stats(StatsFormat format = StatsFormat::text);

  /// Version/feature negotiation (docs/cluster.md). Sends `offer` and
  /// returns what the server granted. A pre-v2 peer answers the
  /// unknown frame with a protocol error and closes; that comes back
  /// as Hello{version = 1, features = 0} (the caller's signal to stay
  /// on the v1 feature set) with the connection closed. Stream faults
  /// still throw NetError.
  [[nodiscard]] Hello hello(const Hello& offer);

  /// Pipelines one repl_insert per record (encoded cache record +
  /// optional trace context) and collects the acks back into record
  /// order. Replication is a v2-only exchange: call hello() first and
  /// only replicate when the peer granted kVersion2 +
  /// kFeatureReplication; only attach trace contexts when it also
  /// granted kFeatureTracing.
  [[nodiscard]] std::vector<ReplAck> repl_insert_batch(
      const std::vector<ReplRecord>& records);

  /// The server's membership/replication view (medcc_clusterctl).
  [[nodiscard]] ClusterStatus cluster_status();

  /// Reads back the server's tracer state: counters, per-stage
  /// aggregates, and up to `max_traces` retained traces (newest first;
  /// 0 = counters only). A tracerless server answers with enabled =
  /// false. Tracing is a v2-only exchange, gated like replication.
  [[nodiscard]] TraceDump trace_dump(std::uint32_t max_traces = 64);

private:
  struct Deadline;  // steady-clock deadline helper (see client.cpp)
  using OnReply = std::function<void(
      std::size_t slot, const FrameHeader& header, std::string_view body)>;

  /// The one request-reply exchange every call above goes through.
  /// Stamps frames[i] (encoded with id 0) with a fresh request id,
  /// connects, sends the frames as one burst and hands each reply to
  /// `on_reply` with the index of the request it answers -- all under
  /// one deadline. Any fault closes the connection; stream faults,
  /// codec faults included, throw NetError.
  void exchange(std::vector<std::string> frames, const OnReply& on_reply);
  /// exchange() of one request whose reply must be a `type` frame;
  /// returns it decoded by `decode`. An error frame answering it
  /// becomes NetError naming `what`. Defined in client.cpp.
  template <class T>
  T call(std::string frame, FrameType type, const char* what,
         T (*decode)(std::string_view));
  void send_bytes(std::string_view bytes, const Deadline& deadline);
  /// Reads until one whole frame is buffered; its body stays valid
  /// until the next read.
  FrameBuffer::Frame read_frame(const Deadline& deadline);

  ClientConfig config_;
  util::FdHandle fd_;
  FrameBuffer inbuf_;  ///< received bytes not yet handed out as frames
  std::uint64_t next_id_ = 1;
};

// -- load generation -------------------------------------------------------

struct MultiClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Connections driven concurrently by the one calling thread.
  std::size_t connections = 4;
  /// In-flight (pipelined) requests per connection.
  std::size_t window = 16;
  /// Bound on each TCP connection establishment; 0 = no bound.
  double connect_timeout_ms = 10000.0;
  std::size_t max_frame_body = kDefaultMaxBody;
  /// When set, every send goes out as a traced_solve_request with a
  /// freshly minted context (patched in place next to the request id,
  /// leaving the inner body verbatim so the server's wire cache still
  /// hits). bench/net_throughput --trace-overhead uses this to price
  /// tracing on the fast path. Not owned; must outlive run().
  obs::Tracer* tracer = nullptr;
};

/// Aggregate outcome of one MultiClient::run.
struct LoadStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;      ///< solve_response frames received
  std::uint64_t failed = 0;  ///< error frames received
  double wall_seconds = 0.0;
  /// Enqueue-to-response latency of every completed request, in
  /// arrival order (unsorted).
  std::vector<double> latency_seconds;
};

/// Single-threaded pipelined load generator over several connections.
/// Not thread-safe; benchmarks run one MultiClient per thread.
class MultiClient {
public:
  MultiClient();
  explicit MultiClient(MultiClientConfig config);

  /// Encodes `request` once and sends `total` verbatim copies -- the
  /// request id in the frame header is patched per send, so every body
  /// is byte-identical, which is exactly what the server's wire-cache
  /// fast path keys on. Keeps up to `window` requests in flight per
  /// connection; returns once every response has arrived. Throws
  /// NetError on connect or stream failure.
  [[nodiscard]] LoadStats run(const service::SchedulingRequest& request,
                              std::size_t total);

private:
  struct Conn;  // per-connection pipeline state (see client.cpp)

  MultiClientConfig config_;
};

}  // namespace medcc::net
