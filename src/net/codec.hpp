// The MED-CC binary wire protocol: a versioned, length-prefixed
// framing plus the message bodies that carry SchedulingRequest /
// SchedulingResponse, a metrics (stats) exchange, a structured error
// frame, and -- since protocol version 2 -- the cluster extension
// (hello handshake, cache replication, cluster status).
//
// Every frame starts with a fixed 20-byte header, all integers
// little-endian regardless of host byte order:
//
//   offset  size  field
//   0       4     magic 0x4343444D ("MDCC" as bytes 4D 44 43 43)
//   4       2     protocol version (1 or 2; see below)
//   6       2     frame type (FrameType)
//   8       8     request id (client-chosen; echoed on the response)
//   16      4     body length in bytes (bounded by max_body)
//   20      n     body
//
// Version rules keep v1 peers interoperable: the original frame types
// (solve/stats/error, 1..5) are ALWAYS stamped version 1, so a v1
// server accepts every frame a v2 client sends on the ordinary solve
// path. The cluster extension types (6..11) are stamped version 2; a
// v1 peer that receives one rejects it with a bad_version (or
// bad_frame_type) error frame and closes, which is exactly the signal
// the hello handshake uses to detect a pre-v2 peer and fall back.
// Conversely a v2 parser rejects a version-2 header on a legacy frame
// type, so the version byte stays meaningful under fuzzing.
//
// Responses correlate to requests purely by request id, so a server may
// answer out of order and a client may pipeline many requests on one
// connection (Client::solve_batch does exactly that).
//
// Decoding is fuzz-resistant by construction: every read goes through a
// bounds-checked WireReader (the util/bytes.hpp reader, shared with the
// persistence formats), element counts are validated against the
// bytes actually present before any allocation, and all failures --
// truncation, bad magic/version, oversized prefixes, malformed bodies,
// trailing garbage -- surface as a structured CodecError, never as UB.
// The full byte-layout tables live in docs/net.md.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "service/instance_table.hpp"
#include "service/request.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace medcc::net {

/// Transport-level failure (connect, send, recv, orderly close).
class NetError : public Error {
public:
  explicit NetError(const std::string& what) : Error(what) {}
};

inline constexpr std::uint32_t kMagic = 0x4343444Du;  // "MDCC"
inline constexpr std::uint16_t kVersion = 1;
/// Protocol version carrying the cluster extension (hello handshake,
/// replication, cluster status). kMaxVersion is what hello offers.
inline constexpr std::uint16_t kVersion2 = 2;
inline constexpr std::uint16_t kMaxVersion = kVersion2;
inline constexpr std::size_t kHeaderSize = 20;
/// Default ceiling on one frame body; oversized length prefixes are
/// rejected before any buffering happens.
inline constexpr std::size_t kDefaultMaxBody = 64u << 20;

enum class FrameType : std::uint16_t {
  solve_request = 1,
  solve_response = 2,
  stats_request = 3,
  stats_response = 4,
  error = 5,
  // -- version 2 (cluster extension) --
  hello_request = 6,           ///< version/feature negotiation
  hello_response = 7,
  repl_insert = 8,             ///< push one cache record to a peer
  repl_ack = 9,
  cluster_status_request = 10, ///< membership/replication inspection
  cluster_status_response = 11,
  // -- version 2 (tracing extension, kFeatureTracing) --
  traced_solve_request = 12,   ///< solve_request + trace-context prefix
  trace_dump_request = 13,     ///< admin: read back retained traces
  trace_dump_response = 14,
};

/// Wire error codes carried by FrameType::error (and by CodecError).
enum class WireError : std::uint16_t {
  truncated = 1,        ///< body/frame shorter than its own length fields
  bad_magic = 2,        ///< first four bytes are not "MDCC"
  bad_version = 3,      ///< protocol version this peer does not speak
  bad_frame_type = 4,   ///< frame type outside the known range
  oversized_frame = 5,  ///< length prefix exceeds the configured max body
  bad_body = 6,         ///< body decoded to an invalid message/instance
  trailing_bytes = 7,   ///< body longer than its message
  limit_exceeded = 8,   ///< an element count exceeds a protocol limit
  unexpected_frame = 9, ///< valid frame in the wrong direction/state
  shutting_down = 10,   ///< server is draining; retry elsewhere/later
};

[[nodiscard]] const char* to_string(WireError code);

/// Malformed-bytes failure; carries the WireError taxonomy so servers
/// can answer with a matching error frame.
class CodecError : public Error {
public:
  CodecError(WireError code, const std::string& what)
      : Error(what), code_(code) {}
  [[nodiscard]] WireError code() const { return code_; }

private:
  WireError code_;
};

/// Byte-reader policy of the wire codec: truncation, over-limit lengths
/// and trailing bytes become CodecError(truncated | limit_exceeded |
/// trailing_bytes).
struct WireFail {
  [[noreturn]] static void fail(util::ByteFault fault, const char* what);
};

/// Bounds-checked reader every decoder below reads its body through.
using WireReader = util::ByteReader<WireFail>;

struct FrameHeader {
  FrameType type = FrameType::error;
  /// Header version the frame arrived with (1 for the legacy types,
  /// 2 for the cluster extension; the parser enforces the pairing).
  std::uint16_t version = kVersion;
  std::uint64_t request_id = 0;
  std::uint32_t body_size = 0;
};

/// Parses the fixed header at the start of `buffer`. Returns nullopt
/// when fewer than kHeaderSize bytes are available (read more);
/// throws CodecError on bad magic/version/type or an oversized prefix.
[[nodiscard]] std::optional<FrameHeader> parse_frame_header(
    std::string_view buffer, std::size_t max_body = kDefaultMaxBody);

/// The one reader of frames off a byte stream (server, client and load
/// generator alike). Received bytes go in with append(); next() hands
/// out each complete frame in order without copying it. Consumed bytes
/// are dropped at the next append(), so a pipelined burst costs one
/// compaction per receive rather than one per frame.
class FrameBuffer {
public:
  struct Frame {
    FrameHeader header;
    /// Views into the buffer; valid until the next append() or clear().
    std::string_view body;
  };

  void append(std::string_view bytes);
  /// The next complete frame, or nullopt while bytes are missing.
  /// Throws CodecError on a bad header, as parse_frame_header() does;
  /// the stream is then desynchronized and the frame stays unconsumed.
  [[nodiscard]] std::optional<Frame> next(
      std::size_t max_body = kDefaultMaxBody);
  void clear();

private:
  std::string bytes_;
  std::size_t head_ = 0;  ///< start of the first unconsumed frame
};

/// Wraps `body` in a frame, stamping the version the type belongs to
/// (1 for solve/stats/error, 2 for the cluster extension).
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::uint64_t request_id,
                                       std::string_view body);

/// Overwrites, in place, the request id of the encoded frame that starts
/// at `frame` (the little-endian u64 at header offset 8).
inline void set_request_id(char* frame, std::uint64_t request_id) {
  util::store_le64(frame + 8, request_id);
}

// -- solve ----------------------------------------------------------------

/// Full frame for one SchedulingRequest (instance, budget, solver,
/// config, tenant, deadline). The instance travels as its workflow
/// structure, VM catalog, billing/network scalars, and the exact
/// execution-time matrix of the computing modules, so the decoded
/// instance reproduces TE/CE bit-for-bit whether the original came from
/// Instance::from_model or Instance::from_matrix.
[[nodiscard]] std::string encode_solve_request(
    const service::SchedulingRequest& request, std::uint64_t request_id);

/// Decodes a solve_request body (bytes after the header). Throws
/// CodecError (WireError::bad_body and friends) on malformed input,
/// including instances that fail workflow validation.
[[nodiscard]] service::SchedulingRequest decode_solve_request(
    std::string_view body);

/// A solve_request decoded through an InstanceTable.
struct InternedRequest {
  service::SchedulingRequest request;
  /// The instance came from the table (no instance decode, no build).
  bool intern_hit = false;
};

/// decode_solve_request() for the serving path: decodes the scalar
/// prefix, then looks the instance section (every byte after `tenant`)
/// up in `instances`. A hit reuses the entry decoded from the same
/// bytes; a miss decodes as decode_solve_request() does and interns the
/// result only once it has fully validated. Either way
/// `request.interned` names the entry. Throws exactly what
/// decode_solve_request() throws for the same body.
[[nodiscard]] InternedRequest decode_solve_request_interned(
    std::string_view body, service::InstanceTable& instances);

/// Full frame for one SchedulingResponse. The schedule, MED, cost and
/// iteration count travel bit-exactly; the CpmResult timing detail is
/// deliberately not shipped (clients re-derive it with sched::evaluate
/// when they need it).
[[nodiscard]] std::string encode_solve_response(
    const service::SchedulingResponse& response, std::uint64_t request_id);

[[nodiscard]] service::SchedulingResponse decode_solve_response(
    std::string_view body);

// -- trace context (tracing extension, protocol v2) ------------------------

/// Fixed wire size of one trace context: u64 id hi, u64 id lo, u8 flags
/// (bit 0 = sampled). In a traced_solve_request the context is the
/// first kTraceContextSize bytes of the body, immediately followed by a
/// verbatim solve_request body -- servers key the wire cache on the
/// inner bytes, so traced and untraced duplicates share cache entries.
inline constexpr std::size_t kTraceContextSize = 17;

/// Appends the 17-byte wire form of `context` to `out`.
void append_trace_context(std::string& out, const obs::TraceContext& context);
/// Decodes one trace context through `reader` (throws on truncation).
[[nodiscard]] obs::TraceContext read_trace_context(WireReader& reader);

/// Full frame wrapping one solve_request body behind a trace context.
[[nodiscard]] std::string encode_traced_solve_request(
    const service::SchedulingRequest& request,
    const obs::TraceContext& context, std::uint64_t request_id);

/// A traced_solve_request body split into its two parts. `inner` views
/// into the caller's buffer (the verbatim solve_request body bytes).
struct TracedSolveBody {
  obs::TraceContext trace;
  std::string_view inner;
};

/// Splits a traced_solve_request body; throws CodecError(truncated)
/// when the trace prefix does not fit. The inner body is NOT decoded.
[[nodiscard]] TracedSolveBody split_traced_solve_request(
    std::string_view body);

// -- stats ----------------------------------------------------------------

enum class StatsFormat : std::uint8_t { text = 0, csv = 1, prometheus = 2 };

[[nodiscard]] std::string encode_stats_request(StatsFormat format,
                                               std::uint64_t request_id);
[[nodiscard]] StatsFormat decode_stats_request(std::string_view body);

[[nodiscard]] std::string encode_stats_response(std::string_view dump,
                                                std::uint64_t request_id);
[[nodiscard]] std::string decode_stats_response(std::string_view body);

// -- error ----------------------------------------------------------------

struct WireFault {
  WireError code = WireError::bad_body;
  std::string message;
};

[[nodiscard]] std::string encode_error(WireError code,
                                       std::string_view message,
                                       std::uint64_t request_id);
[[nodiscard]] WireFault decode_error(std::string_view body);

// -- hello (version negotiation, protocol v2) ------------------------------

/// Feature bits advertised in the hello exchange. A peer may only rely
/// on a feature both sides advertised.
inline constexpr std::uint32_t kFeatureReplication = 1u << 0;
/// Trace-context propagation: traced_solve_request frames, the
/// repl_insert trace suffix, and the trace_dump admin exchange.
inline constexpr std::uint32_t kFeatureTracing = 1u << 1;

/// What one side of the handshake offers (request) or granted
/// (response). The negotiated version is min(client max, server max).
struct Hello {
  std::uint16_t version = kMaxVersion;
  std::uint32_t features = 0;
  /// Human-chosen node name ("" when unset); inspection only.
  std::string node_id;
};

[[nodiscard]] std::string encode_hello_request(const Hello& hello,
                                               std::uint64_t request_id);
[[nodiscard]] Hello decode_hello_request(std::string_view body);

[[nodiscard]] std::string encode_hello_response(const Hello& hello,
                                                std::uint64_t request_id);
[[nodiscard]] Hello decode_hello_response(std::string_view body);

// -- replication (protocol v2) ---------------------------------------------

/// Ceiling on one replicated cache-record payload. Far above any entry
/// the service produces today, far below the frame body limit.
inline constexpr std::size_t kMaxReplPayload = 16u << 20;

/// One replicated cache record off the wire: the opaque payload plus
/// the trace context of the solve that produced it (invalid id when
/// the sender was untraced or pre-tracing).
struct ReplRecord {
  std::string payload;
  obs::TraceContext trace;
};

/// Frame for one replicated cache record. The payload is the opaque
/// service::persistence cache-record encoding (docs/FORMATS.md) -- the
/// same bytes the durable store journals, so replication and
/// persistence share one record codec. A valid `trace` context is
/// appended as a 17-byte suffix (decoders accept both forms, so a
/// tracing sender interoperates with a pre-tracing v2 peer).
[[nodiscard]] std::string encode_repl_insert(
    std::string_view payload, std::uint64_t request_id,
    const obs::TraceContext& trace = {});
[[nodiscard]] ReplRecord decode_repl_insert(std::string_view body);

struct ReplAck {
  bool applied = false;
  /// Reason when !applied ("" otherwise).
  std::string error;
};

[[nodiscard]] std::string encode_repl_ack(const ReplAck& ack,
                                          std::uint64_t request_id);
[[nodiscard]] ReplAck decode_repl_ack(std::string_view body);

// -- cluster status (protocol v2) ------------------------------------------

/// One replication peer as seen by the answering node.
struct ClusterPeerStatus {
  std::string address;       ///< "host:port"
  std::string state;         ///< "connected" | "connecting" | "down" | "v1-peer"
  std::uint16_t peer_version = 0;  ///< negotiated version; 0 = no handshake yet
  std::uint64_t queued = 0;        ///< records waiting in the bounded queue
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t dropped = 0;       ///< bounded-queue overflow drops
  std::uint64_t send_errors = 0;
};

/// The membership/replication view medcc_clusterctl renders.
struct ClusterStatus {
  std::string node_id;
  std::uint16_t protocol_version = kMaxVersion;
  std::uint64_t repl_applied = 0;       ///< records applied from peers
  std::uint64_t repl_apply_errors = 0;
  std::vector<ClusterPeerStatus> peers;
};

[[nodiscard]] std::string encode_cluster_status_request(
    std::uint64_t request_id);

[[nodiscard]] std::string encode_cluster_status_response(
    const ClusterStatus& status, std::uint64_t request_id);
[[nodiscard]] ClusterStatus decode_cluster_status_response(
    std::string_view body);

// -- trace dump (tracing extension, protocol v2) ---------------------------

/// One node's tracer state as read back by medcc_tracectl: the counter
/// snapshot, the per-stage aggregate breakdown, and the retained
/// completed traces (bounded; newest first as the server dumped them).
struct TraceDump {
  std::string node_id;
  bool enabled = false;
  std::uint64_t started = 0;
  std::uint64_t sampled = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::array<obs::StageStat, obs::kStageCount> stages{};
  std::vector<obs::TraceRecord> traces;
};

/// Ceilings on a trace_dump_response, keeping hostile dumps bounded.
inline constexpr std::uint64_t kMaxDumpTraces = 4096;
inline constexpr std::uint64_t kMaxDumpSpans = 1024;

/// `max_traces` caps how many retained traces the server returns
/// (0 = counters and stage aggregates only).
[[nodiscard]] std::string encode_trace_dump_request(std::uint32_t max_traces,
                                                    std::uint64_t request_id);
[[nodiscard]] std::uint32_t decode_trace_dump_request(std::string_view body);

[[nodiscard]] std::string encode_trace_dump_response(
    const TraceDump& dump, std::uint64_t request_id);
[[nodiscard]] TraceDump decode_trace_dump_response(std::string_view body);

}  // namespace medcc::net
