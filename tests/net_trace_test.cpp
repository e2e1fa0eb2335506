// Wire-level behaviour of the tracing extension: the 17-byte trace
// context codec and its flag validation, traced_solve_request framing
// (a verbatim solve_request body behind the prefix), the repl_insert
// trace suffix, the trace_dump exchange, and the end-to-end contract
// over loopback -- a traced solve lands in the server's trace dump,
// the stage rows of the metrics table sample traced requests only,
// response bytes are identical with tracing on and off (fresh solve
// AND wire-cache hit), and a tracerless server still answers traced
// frames.
#include "net/codec.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "util/bytes.hpp"
#include "util/socket.hpp"
#include "workflow/patterns.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

namespace {

using medcc::net::Client;
using medcc::net::ClientConfig;
using medcc::net::CodecError;
using medcc::net::FrameHeader;
using medcc::net::FrameType;
using medcc::net::NetError;
using medcc::net::Server;
using medcc::net::ServerConfig;
using medcc::net::TraceDump;
using medcc::net::WireError;
using medcc::net::WireReader;
using medcc::obs::Stage;
using medcc::obs::Span;
using medcc::obs::TraceContext;
using medcc::obs::TraceId;
using medcc::obs::TraceRecord;
using medcc::obs::Tracer;
using medcc::sched::Instance;
using medcc::service::Counter;
using medcc::service::Latency;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;

std::shared_ptr<const Instance> example_instance() {
  return std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
}

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget, std::string solver = "cg") {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = std::move(solver);
  return req;
}

ClientConfig client_for(const Server& server) {
  ClientConfig config;
  config.port = server.port();
  return config;
}

/// A bare blocking TCP connection, as in net_server_test: lets a test
/// choose its own request ids and see raw response frames.
class RawConn {
public:
  explicit RawConn(std::uint16_t port) {
    fd_.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd_.valid()) throw NetError("raw socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0)
      throw NetError("raw connect failed");
  }

  void send(std::string_view bytes) {
    ASSERT_TRUE(medcc::util::send_all(fd_.get(), bytes.data(), bytes.size()));
  }

  /// Reads one full frame (blocking) and returns its raw bytes, header
  /// included; returns "" on orderly EOF.
  std::string read_raw_frame() {
    for (;;) {
      const auto parsed = medcc::net::parse_frame_header(buffer_);
      if (parsed && buffer_.size() >=
                        medcc::net::kHeaderSize + parsed->body_size) {
        std::string frame =
            buffer_.substr(0, medcc::net::kHeaderSize + parsed->body_size);
        buffer_.erase(0, medcc::net::kHeaderSize + parsed->body_size);
        return frame;
      }
      char chunk[4096];
      const long n = medcc::util::recv_some(fd_.get(), chunk, sizeof(chunk));
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  medcc::util::FdHandle fd_;
  std::string buffer_;
};

// -- trace-context codec ---------------------------------------------------

TEST(TraceCodec, ContextRoundTripsBothFlagStates) {
  for (const bool sampled : {false, true}) {
    const TraceContext context{TraceId{0x1122334455667788ull,
                                       0x99aabbccddeeff00ull},
                               sampled};
    std::string wire;
    medcc::net::append_trace_context(wire, context);
    ASSERT_EQ(wire.size(), medcc::net::kTraceContextSize);

    WireReader reader(wire);
    const TraceContext back = medcc::net::read_trace_context(reader);
    EXPECT_TRUE(reader.done());
    EXPECT_EQ(back.id, context.id);
    EXPECT_EQ(back.sampled, sampled);
  }
}

TEST(TraceCodec, UnknownContextFlagBitsAreRejected) {
  // Reserved flag bits must fail loudly, not be silently dropped --
  // that is what lets a future flag be added safely.
  std::string wire;
  medcc::net::append_trace_context(wire, TraceContext{TraceId{1, 2}, true});
  wire[16] = static_cast<char>(0x02);  // unknown bit, sampled bit clear
  WireReader reader(wire);
  try {
    (void)medcc::net::read_trace_context(reader);
    FAIL() << "unknown flag bits decoded";
  } catch (const CodecError& error) {
    EXPECT_EQ(error.code(), WireError::bad_body);
  }
}

TEST(TraceCodec, TruncatedContextThrowsTruncated) {
  std::string wire;
  medcc::net::append_trace_context(wire, TraceContext{TraceId{1, 2}, true});
  wire.resize(medcc::net::kTraceContextSize - 1);
  WireReader reader(wire);
  EXPECT_THROW((void)medcc::net::read_trace_context(reader), CodecError);
}

TEST(TraceCodec, TracedSolveBodyIsContextPlusVerbatimInnerBody) {
  const SchedulingRequest request = request_for(example_instance(), 57.0);
  const TraceContext context{TraceId{0xdead, 0xbeef}, true};

  const std::string untraced =
      medcc::net::encode_solve_request(request, 42);
  const std::string traced =
      medcc::net::encode_traced_solve_request(request, context, 42);

  const auto untraced_header = medcc::net::parse_frame_header(untraced);
  const auto traced_header = medcc::net::parse_frame_header(traced);
  ASSERT_TRUE(untraced_header && traced_header);
  EXPECT_EQ(traced_header->type, FrameType::traced_solve_request);
  EXPECT_EQ(traced_header->version, medcc::net::kVersion2);
  EXPECT_EQ(traced_header->request_id, 42u);

  const std::string_view traced_body =
      std::string_view(traced).substr(medcc::net::kHeaderSize);
  const auto split = medcc::net::split_traced_solve_request(traced_body);
  EXPECT_EQ(split.trace.id, context.id);
  EXPECT_TRUE(split.trace.sampled);
  // The inner bytes ARE a solve_request body, bit for bit -- this is
  // what lets the server key its wire cache on the inner bytes so
  // traced and untraced duplicates share one entry.
  EXPECT_EQ(split.inner,
            std::string_view(untraced).substr(medcc::net::kHeaderSize));
}

TEST(TraceCodec, TracedSolveBodyShorterThanPrefixThrows) {
  EXPECT_THROW(
      (void)medcc::net::split_traced_solve_request("short"),
      CodecError);
}

TEST(TraceCodec, ReplInsertCarriesAnOptionalTraceSuffix) {
  const std::string payload = "opaque-cache-record-bytes";

  // Untraced form: no suffix, decodes to an invalid context.
  const std::string plain = medcc::net::encode_repl_insert(payload, 7);
  const auto plain_record = medcc::net::decode_repl_insert(
      std::string_view(plain).substr(medcc::net::kHeaderSize));
  EXPECT_EQ(plain_record.payload, payload);
  EXPECT_FALSE(plain_record.trace.valid());

  // Traced form: the context rides a 17-byte suffix.
  const TraceContext context{TraceId{0xaa, 0xbb}, true};
  const std::string traced =
      medcc::net::encode_repl_insert(payload, 7, context);
  EXPECT_EQ(traced.size(), plain.size() + medcc::net::kTraceContextSize);
  const auto traced_record = medcc::net::decode_repl_insert(
      std::string_view(traced).substr(medcc::net::kHeaderSize));
  EXPECT_EQ(traced_record.payload, payload);
  EXPECT_EQ(traced_record.trace.id, context.id);
  EXPECT_TRUE(traced_record.trace.sampled);
}

/// A dump with every counter set and one slow two-span trace.
TraceDump sample_dump() {
  TraceDump dump;
  dump.node_id = "node-7";
  dump.enabled = true;
  dump.started = 1000;
  dump.sampled = 16;
  dump.completed = 14;
  dump.dropped = 986;
  TraceRecord record;
  record.id = TraceId{0x123, 0x456};
  record.origin = "node-7";
  record.started_ns = 1'000'000;
  record.total_ns = 42'000;
  record.slow = true;
  record.spans.push_back(Span{Stage::decode, 1'000'000, 1'001'000});
  record.spans.push_back(Span{Stage::solve, 1'001'000, 1'042'000});
  dump.traces.push_back(record);
  return dump;
}

/// Every field of `back` equals `dump`'s.
void expect_same_dump(const TraceDump& back, const TraceDump& dump) {
  EXPECT_EQ(back.node_id, dump.node_id);
  EXPECT_EQ(back.enabled, dump.enabled);
  EXPECT_EQ(back.started, dump.started);
  EXPECT_EQ(back.sampled, dump.sampled);
  EXPECT_EQ(back.completed, dump.completed);
  EXPECT_EQ(back.dropped, dump.dropped);
  ASSERT_EQ(back.traces.size(), dump.traces.size());
  for (std::size_t t = 0; t < dump.traces.size(); ++t) {
    const TraceRecord& a = back.traces[t];
    const TraceRecord& b = dump.traces[t];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.origin, b.origin);
    EXPECT_EQ(a.started_ns, b.started_ns);
    EXPECT_EQ(a.total_ns, b.total_ns);
    EXPECT_EQ(a.slow, b.slow);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].stage, b.spans[i].stage);
      EXPECT_EQ(a.spans[i].start_ns, b.spans[i].start_ns);
      EXPECT_EQ(a.spans[i].end_ns, b.spans[i].end_ns);
    }
  }
}

TEST(TraceCodec, TraceDumpRoundTripsCountersAndTraces) {
  const TraceDump dump = sample_dump();
  const std::string frame = medcc::net::encode_trace_dump_response(dump, 9);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->type, FrameType::trace_dump_response);
  EXPECT_EQ(header->version, medcc::net::kVersion2);

  const TraceDump back = medcc::net::decode_trace_dump_response(
      std::string_view(frame).substr(medcc::net::kHeaderSize));
  expect_same_dump(back, dump);
}

TEST(TraceCodec, DumpWithTheOlderStageBlockDecodesToTheSameDump) {
  // Builds whose tracer kept per-stage aggregates sent one (u64 count,
  // u64 total_ns) entry per stage, 11 of them, where the encoder now
  // writes an empty block. Such a dump decodes to the same counters
  // and traces.
  const TraceDump dump = sample_dump();
  const std::string frame = medcc::net::encode_trace_dump_response(dump, 9);
  const std::string_view body =
      std::string_view(frame).substr(medcc::net::kHeaderSize);
  // node_id (u32 length + bytes), the enabled flag, four u64 counters.
  const std::size_t block = 4 + dump.node_id.size() + 1 + 4 * 8;
  ASSERT_EQ(body.substr(block, 4), std::string_view("\0\0\0\0", 4));

  medcc::util::ByteWriter stages;
  stages.u32(11);
  for (std::uint64_t s = 0; s < 11; ++s) {
    stages.u64(s + 1);           // count
    stages.u64(1000 * (s + 1));  // total_ns
  }
  const std::string older = std::string(body.substr(0, block)) +
                            stages.bytes() +
                            std::string(body.substr(block + 4));
  EXPECT_EQ(older.size(), body.size() + 11 * 16);
  expect_same_dump(medcc::net::decode_trace_dump_response(older), dump);
}

TEST(TraceCodec, TraceDumpRequestRoundTrips) {
  const std::string frame = medcc::net::encode_trace_dump_request(128, 5);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header);
  EXPECT_EQ(header->type, FrameType::trace_dump_request);
  EXPECT_EQ(medcc::net::decode_trace_dump_request(
                std::string_view(frame).substr(medcc::net::kHeaderSize)),
            128u);
}

// -- end-to-end over loopback ----------------------------------------------

TEST(NetTrace, TracedSolveLandsInTheServersTraceDump) {
  Tracer::Config trace_config;
  trace_config.sample_every = 1;
  Tracer tracer(trace_config);

  ServiceConfig service_config;
  service_config.threads = 1;
  service_config.tracer = &tracer;
  SchedulingService service(service_config);

  ServerConfig server_config;
  server_config.node_id = "dump-node";
  server_config.tracer = &tracer;
  Server server(service, server_config);
  Client client(client_for(server));

  SchedulingRequest request = request_for(example_instance(), 57.0);
  request.trace = TraceContext{TraceId{0x1234, 0x5678}, true};
  const SchedulingResponse response = client.solve(request);
  ASSERT_TRUE(response.ok()) << response.error;

  const TraceDump dump = client.trace_dump(64);
  EXPECT_EQ(dump.node_id, "dump-node");
  EXPECT_TRUE(dump.enabled);
  ASSERT_GE(dump.traces.size(), 1u);
  bool found = false;
  for (const TraceRecord& record : dump.traces) {
    if (!(record.id == request.trace.id)) continue;
    found = true;
    EXPECT_EQ(record.origin, "dump-node");
    // The journey through the service shows up as distinct stages.
    bool saw_request = false;
    for (const Span& span : record.spans)
      saw_request |= span.stage == Stage::request;
    EXPECT_TRUE(saw_request);
  }
  EXPECT_TRUE(found) << "trace id not present in dump";
}

TEST(NetTrace, StageRowsSampleTracedRequestsOnly) {
  // No span capture at all: the stage rows of the metrics table sample
  // every traced request at a tracing node, buffered or not.
  Tracer tracer({.sample_every = 0, .slow_ms = 0.0});
  ServiceConfig service_config;
  service_config.threads = 1;
  service_config.tracer = &tracer;
  SchedulingService service(service_config);
  ServerConfig server_config;
  server_config.tracer = &tracer;
  Server server(service, server_config);
  Client client(client_for(server));

  const auto count = [&service](Latency row) {
    return service.metrics().snapshot()[row].count();
  };
  const auto expect_counts = [&](std::uint64_t request, std::uint64_t miss,
                                 std::uint64_t fastpath, const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(count(Latency::stage_request), request);
    EXPECT_EQ(count(Latency::stage_decode), miss);
    EXPECT_EQ(count(Latency::stage_cache_lookup), miss);
    EXPECT_EQ(count(Latency::stage_solve), miss);
    EXPECT_EQ(count(Latency::stage_wire_fastpath), fastpath);
    EXPECT_EQ(count(Latency::stage_repl_push), 0u);   // no replicator
    EXPECT_EQ(count(Latency::stage_repl_apply), 0u);  // no peer
  };
  // An untraced miss and its untraced verbatim repeat: no stage row.
  const SchedulingRequest untraced = request_for(example_instance(), 57.0);
  ASSERT_TRUE(client.solve(untraced).ok());
  ASSERT_TRUE(client.solve(untraced).ok());
  EXPECT_EQ(service.metrics().value(Counter::wire_fastpath_hits), 1u);
  expect_counts(0, 0, 0, "untraced");

  // A traced miss: one sample in each stage it passes through.
  SchedulingRequest traced = request_for(example_instance(), 60.0);
  traced.trace = TraceContext{TraceId{0x51, 0x52}, false};
  ASSERT_TRUE(client.solve(traced).ok());
  expect_counts(1, 1, 0, "traced miss");

  // Its traced verbatim repeat is a wire-cache hit: wire_fastpath only.
  ASSERT_TRUE(client.solve(traced).ok());
  EXPECT_EQ(service.metrics().value(Counter::wire_fastpath_hits), 2u);
  expect_counts(1, 1, 1, "traced repeat");

  // Rows only: the tracer retained nothing.
  EXPECT_TRUE(tracer.recent(8).empty());
}

TEST(NetTrace, ResponseBytesAreIdenticalWithTracingOnAndOff) {
  // Two fresh, frozen-clock server+service pairs: one untraced, one
  // traced. The SAME logical request must produce bit-identical
  // response frames -- tracing must never leak into response bytes.
  const auto frozen = [] { return std::chrono::steady_clock::time_point{}; };

  ServiceConfig untraced_service_config;
  untraced_service_config.threads = 1;
  untraced_service_config.clock = frozen;
  SchedulingService untraced_service(untraced_service_config);
  Server untraced_server(untraced_service);

  Tracer::Config trace_config;
  trace_config.sample_every = 1;
  Tracer tracer(trace_config);
  ServiceConfig traced_service_config;
  traced_service_config.threads = 1;
  traced_service_config.clock = frozen;
  traced_service_config.tracer = &tracer;
  SchedulingService traced_service(traced_service_config);
  ServerConfig traced_server_config;
  traced_server_config.tracer = &tracer;
  Server traced_server(traced_service, traced_server_config);

  const SchedulingRequest request = request_for(example_instance(), 57.0);
  const TraceContext context{TraceId{0x77, 0x88}, true};
  constexpr std::uint64_t kRequestId = 4242;

  RawConn untraced_conn(untraced_server.port());
  RawConn traced_conn(traced_server.port());

  // Fresh solve.
  untraced_conn.send(medcc::net::encode_solve_request(request, kRequestId));
  traced_conn.send(
      medcc::net::encode_traced_solve_request(request, context, kRequestId));
  const std::string untraced_fresh = untraced_conn.read_raw_frame();
  const std::string traced_fresh = traced_conn.read_raw_frame();
  ASSERT_FALSE(untraced_fresh.empty());
  EXPECT_EQ(traced_fresh, untraced_fresh);

  // Wire-cache hit: the duplicate is served off the raw-bytes memo
  // (traced via the allocation-free single-span path). The memoized
  // template intentionally differs from the fresh response (timings
  // zeroed, outcome pinned to hit_exact), but traced and untraced
  // must still agree bit for bit.
  untraced_conn.send(medcc::net::encode_solve_request(request, kRequestId));
  traced_conn.send(
      medcc::net::encode_traced_solve_request(request, context, kRequestId));
  const std::string untraced_hit = untraced_conn.read_raw_frame();
  const std::string traced_hit = traced_conn.read_raw_frame();
  ASSERT_FALSE(untraced_hit.empty());
  EXPECT_EQ(traced_hit, untraced_hit);
  EXPECT_GE(traced_service.metrics().value(Counter::wire_fastpath_hits), 1u);
  EXPECT_GE(untraced_service.metrics().value(Counter::wire_fastpath_hits), 1u);
}

TEST(NetTrace, TracerlessServerStillAnswersTracedFrames) {
  // A v2 server without a tracer strips and ignores the trace prefix:
  // traced clients interoperate, and the dump comes back empty.
  SchedulingService service({.threads = 1});
  Server server(service);  // no tracer
  Client client(client_for(server));

  SchedulingRequest request = request_for(example_instance(), 57.0);
  request.trace = TraceContext{TraceId{0xaaaa, 0xbbbb}, true};
  const SchedulingResponse response = client.solve(request);
  EXPECT_TRUE(response.ok()) << response.error;

  const TraceDump dump = client.trace_dump(64);
  EXPECT_FALSE(dump.enabled);
  EXPECT_EQ(dump.started, 0u);
  EXPECT_EQ(dump.traces.size(), 0u);
}

}  // namespace
