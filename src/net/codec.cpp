#include "net/codec.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sched/instance.hpp"
#include "workflow/workflow.hpp"

namespace medcc::net {

namespace {

// Structural ceilings, far above every workload in the repo but small
// enough that a hostile count can never drive a pathological allocation
// (expect_fits additionally ties counts to the bytes actually present).
constexpr std::size_t kMaxString = 1u << 20;
constexpr std::uint64_t kMaxModules = 1u << 20;
constexpr std::uint64_t kMaxTypes = 1u << 12;
constexpr std::uint64_t kMaxEdges = 1u << 22;

[[noreturn]] void fail(WireError code, const std::string& what) {
  throw CodecError(code, what);
}

}  // namespace

const char* to_string(WireError code) {
  switch (code) {
    case WireError::truncated: return "truncated";
    case WireError::bad_magic: return "bad_magic";
    case WireError::bad_version: return "bad_version";
    case WireError::bad_frame_type: return "bad_frame_type";
    case WireError::oversized_frame: return "oversized_frame";
    case WireError::bad_body: return "bad_body";
    case WireError::trailing_bytes: return "trailing_bytes";
    case WireError::limit_exceeded: return "limit_exceeded";
    case WireError::unexpected_frame: return "unexpected_frame";
    case WireError::shutting_down: return "shutting_down";
  }
  return "unknown";
}

void WireFail::fail(util::ByteFault fault, const char* what) {
  WireError code = WireError::truncated;
  switch (fault) {
    case util::ByteFault::truncated: code = WireError::truncated; break;
    case util::ByteFault::too_long: code = WireError::limit_exceeded; break;
    case util::ByteFault::trailing: code = WireError::trailing_bytes; break;
  }
  throw CodecError(code, std::string("wire: ") + what);
}

// -- framing --------------------------------------------------------------

namespace {

/// The header version each frame type must carry: the legacy exchange
/// stays byte-identical to protocol 1, the cluster extension is
/// stamped 2 so pre-v2 peers reject it with a clean bad_version.
std::uint16_t version_for(FrameType type) {
  return static_cast<std::uint16_t>(type) <=
                 static_cast<std::uint16_t>(FrameType::error)
             ? kVersion
             : kVersion2;
}

}  // namespace

std::optional<FrameHeader> parse_frame_header(std::string_view buffer,
                                              std::size_t max_body) {
  if (buffer.size() < kHeaderSize) return std::nullopt;
  WireReader reader(buffer.substr(0, kHeaderSize));
  const std::uint32_t magic = reader.u32();
  if (magic != kMagic) fail(WireError::bad_magic, "wire: bad frame magic");
  const std::uint16_t version = reader.u16();
  if (version < kVersion || version > kMaxVersion)
    fail(WireError::bad_version,
         "wire: unsupported protocol version " + std::to_string(version));
  const std::uint16_t raw_type = reader.u16();
  const auto last_type =
      static_cast<std::uint16_t>(FrameType::trace_dump_response);
  if (raw_type < static_cast<std::uint16_t>(FrameType::solve_request) ||
      raw_type > last_type)
    fail(WireError::bad_frame_type,
         "wire: unknown frame type " + std::to_string(raw_type));
  // A type must travel under its own version: a v2 header on a legacy
  // frame (or vice versa) is as malformed as an unknown version.
  if (version != version_for(static_cast<FrameType>(raw_type)))
    fail(WireError::bad_version,
         "wire: frame type " + std::to_string(raw_type) +
             " does not belong to protocol version " +
             std::to_string(version));
  FrameHeader header;
  header.type = static_cast<FrameType>(raw_type);
  header.version = version;
  header.request_id = reader.u64();
  header.body_size = reader.u32();
  if (header.body_size > max_body)
    fail(WireError::oversized_frame,
         "wire: body length " + std::to_string(header.body_size) +
             " exceeds the frame limit");
  return header;
}

void FrameBuffer::append(std::string_view bytes) {
  bytes_.erase(0, head_);
  head_ = 0;
  bytes_.append(bytes);
}

std::optional<FrameBuffer::Frame> FrameBuffer::next(std::size_t max_body) {
  const std::string_view rest = std::string_view(bytes_).substr(head_);
  const auto header = parse_frame_header(rest, max_body);
  if (!header || rest.size() - kHeaderSize < header->body_size)
    return std::nullopt;
  head_ += kHeaderSize + header->body_size;
  return Frame{*header, rest.substr(kHeaderSize, header->body_size)};
}

void FrameBuffer::clear() {
  bytes_.clear();
  head_ = 0;
}

std::string encode_frame(FrameType type, std::uint64_t request_id,
                         std::string_view body) {
  MEDCC_EXPECTS(body.size() <= kDefaultMaxBody);
  util::ByteWriter writer;
  writer.u32(kMagic);
  writer.u16(version_for(type));
  writer.u16(static_cast<std::uint16_t>(type));
  writer.u64(request_id);
  writer.u32(static_cast<std::uint32_t>(body.size()));
  std::string out = writer.take();
  out.append(body.data(), body.size());
  return out;
}

// -- solve request --------------------------------------------------------

namespace {

void encode_instance(util::ByteWriter& writer,
                     const sched::Instance& instance) {
  const auto& wf = instance.workflow();
  const auto& graph = wf.graph();
  const auto& catalog = instance.catalog();

  writer.f64(instance.billing().quantum());
  writer.f64(instance.network().bandwidth);
  writer.f64(instance.network().link_delay);
  writer.f64(instance.network().transfer_cost_rate);

  writer.u32(static_cast<std::uint32_t>(catalog.size()));
  for (const auto& type : catalog.types()) {
    writer.str(type.name);
    writer.f64(type.processing_power);
    writer.f64(type.cost_rate);
  }

  writer.u32(static_cast<std::uint32_t>(wf.module_count()));
  for (workflow::NodeId i = 0; i < wf.module_count(); ++i) {
    const auto& mod = wf.module(i);
    writer.str(mod.name);
    writer.u8(mod.is_fixed() ? 1 : 0);
    writer.f64(mod.is_fixed() ? *mod.fixed_time : mod.workload);
  }

  writer.u32(static_cast<std::uint32_t>(graph.edge_count()));
  for (dag::EdgeId e = 0; e < graph.edge_count(); ++e) {
    const auto& edge = graph.edge(e);
    writer.u32(static_cast<std::uint32_t>(edge.src));
    writer.u32(static_cast<std::uint32_t>(edge.dst));
    writer.f64(wf.data_size(e));
  }

  // The exact TE rows of the computing modules (ascending module id):
  // decoding rebuilds through Instance::from_matrix, so measured-matrix
  // and analytic-model instances round-trip identically.
  const auto computing = wf.computing_modules();
  writer.u32(static_cast<std::uint32_t>(computing.size()));
  writer.u32(static_cast<std::uint32_t>(catalog.size()));
  for (const workflow::NodeId i : computing)
    for (std::size_t j = 0; j < catalog.size(); ++j)
      writer.f64(instance.time(i, j));
}

/// Reads a number the solvers compute with (the budget, the deadline,
/// every instance number). The CPM and cost recurrences require finite
/// inputs, so NaN and +-inf are malformed.
double finite_f64(WireReader& reader) {
  const double value = reader.f64();
  if (!std::isfinite(value))
    fail(WireError::bad_body, "wire: non-finite number in request");
  return value;
}

std::shared_ptr<const sched::Instance> decode_instance(WireReader& reader) {
  const double quantum = finite_f64(reader);
  cloud::NetworkModel network;
  network.bandwidth = finite_f64(reader);
  network.link_delay = finite_f64(reader);
  network.transfer_cost_rate = finite_f64(reader);

  const std::uint32_t type_count = reader.u32();
  if (type_count > kMaxTypes)
    fail(WireError::limit_exceeded, "wire: too many VM types");
  reader.expect_fits(type_count, /*name len*/ 4 + 2 * 8);
  std::vector<cloud::VmType> types;
  types.reserve(type_count);
  for (std::uint32_t j = 0; j < type_count; ++j) {
    cloud::VmType type;
    type.name = reader.str(kMaxString);
    type.processing_power = finite_f64(reader);
    type.cost_rate = finite_f64(reader);
    types.push_back(std::move(type));
  }

  const std::uint32_t module_count = reader.u32();
  if (module_count > kMaxModules)
    fail(WireError::limit_exceeded, "wire: too many modules");
  reader.expect_fits(module_count, 4 + 1 + 8);

  // Workflow/billing validation failures (cycles, negative workloads,
  // duplicate edges, bad quantum, ...) are recoverable medcc::Errors
  // raised by the model classes themselves; surface every one of them as
  // the protocol's structured bad_body fault. CodecErrors (which also
  // derive from Error) keep their own taxonomy.
  try {
    workflow::Workflow wf;
    wf.reserve(module_count);  // expect_fits bounds it by the body
    std::size_t computing_count = 0;
    for (std::uint32_t i = 0; i < module_count; ++i) {
      std::string name = reader.str(kMaxString);
      const std::uint8_t kind = reader.u8();
      const double value = finite_f64(reader);
      if (kind > 1) fail(WireError::bad_body, "wire: unknown module kind");
      if (kind == 1) {
        (void)wf.add_fixed_module(std::move(name), value);
      } else {
        (void)wf.add_module(std::move(name), value);
        ++computing_count;
      }
    }

    const std::uint32_t edge_count = reader.u32();
    if (edge_count > kMaxEdges)
      fail(WireError::limit_exceeded, "wire: too many edges");
    reader.expect_fits(edge_count, 4 + 4 + 8);
    wf.reserve(module_count, edge_count);
    for (std::uint32_t e = 0; e < edge_count; ++e) {
      const std::uint32_t src = reader.u32();
      const std::uint32_t dst = reader.u32();
      const double data_size = finite_f64(reader);
      if (src >= module_count || dst >= module_count || src == dst)
        fail(WireError::bad_body, "wire: edge endpoint out of range");
      (void)wf.add_dependency(src, dst, data_size);
    }

    const std::uint32_t rows = reader.u32();
    const std::uint32_t cols = reader.u32();
    if (rows != computing_count || cols != type_count)
      fail(WireError::bad_body, "wire: time-matrix shape mismatch");
    reader.expect_fits(static_cast<std::uint64_t>(rows) * cols, 8);
    std::vector<std::vector<double>> times(rows, std::vector<double>(cols));
    for (auto& row : times)
      for (double& cell : row) cell = finite_f64(reader);

    return std::make_shared<const sched::Instance>(sched::Instance::from_matrix(
        std::move(wf), cloud::VmCatalog(std::move(types)), times,
        cloud::BillingPolicy(quantum), network));
  } catch (const CodecError&) {
    throw;
  } catch (const Error& e) {
    fail(WireError::bad_body, std::string("wire: invalid instance: ") +
                                  e.what());
  }
}

/// Reads the scalar prefix of a solve_request body: everything before
/// the instance section.
service::SchedulingRequest decode_solve_prefix(WireReader& reader) {
  service::SchedulingRequest request;
  request.budget = finite_f64(reader);
  request.deadline_ms = finite_f64(reader);
  request.solver = reader.str(kMaxString);
  request.config = reader.str(kMaxString);
  request.tenant = reader.str(kMaxString);
  return request;
}

}  // namespace

std::string encode_solve_request(const service::SchedulingRequest& request,
                                 std::uint64_t request_id) {
  MEDCC_EXPECTS(request.instance != nullptr);
  util::ByteWriter writer(kMaxString);
  writer.f64(request.budget);
  writer.f64(request.deadline_ms);
  writer.str(request.solver);
  writer.str(request.config);
  writer.str(request.tenant);
  encode_instance(writer, *request.instance);
  return encode_frame(FrameType::solve_request, request_id, writer.bytes());
}

service::SchedulingRequest decode_solve_request(std::string_view body) {
  WireReader reader(body);
  service::SchedulingRequest request = decode_solve_prefix(reader);
  request.instance = decode_instance(reader);
  reader.expect_done();
  return request;
}

InternedRequest decode_solve_request_interned(
    std::string_view body, service::InstanceTable& instances) {
  WireReader reader(body);
  InternedRequest out{decode_solve_prefix(reader)};
  service::SchedulingRequest& request = out.request;
  const std::string_view section =
      body.substr(body.size() - reader.remaining());
  const std::size_t section_hash = service::InstanceTable::hash(section);
  if (auto entry = instances.find(section, section_hash)) {
    request.instance = entry->instance();
    request.interned = std::move(entry);
    out.intern_hit = true;
    return out;
  }
  request.instance = decode_instance(reader);
  reader.expect_done();
  request.interned =
      std::make_shared<const service::InternedInstance>(request.instance);
  instances.insert(std::string(section), section_hash, request.interned);
  return out;
}

// -- trace context / traced solve ------------------------------------------

void append_trace_context(std::string& out, const obs::TraceContext& context) {
  util::ByteWriter writer;
  writer.u64(context.id.hi);
  writer.u64(context.id.lo);
  writer.u8(context.sampled ? 1 : 0);
  out.append(writer.bytes());
}

obs::TraceContext read_trace_context(WireReader& reader) {
  obs::TraceContext context;
  context.id.hi = reader.u64();
  context.id.lo = reader.u64();
  const std::uint8_t flags = reader.u8();
  if ((flags & ~1u) != 0)
    fail(WireError::bad_body, "wire: unknown trace-context flags");
  context.sampled = (flags & 1u) != 0;
  return context;
}

std::string encode_traced_solve_request(
    const service::SchedulingRequest& request,
    const obs::TraceContext& context, std::uint64_t request_id) {
  // Body = 17-byte trace prefix + a verbatim solve_request body, so
  // servers can key the wire cache on (and decoders reuse) the inner
  // bytes unchanged.
  const std::string inner = encode_solve_request(request, request_id);
  std::string body;
  body.reserve(kTraceContextSize + inner.size() - kHeaderSize);
  append_trace_context(body, context);
  body.append(inner, kHeaderSize, inner.size() - kHeaderSize);
  return encode_frame(FrameType::traced_solve_request, request_id, body);
}

TracedSolveBody split_traced_solve_request(std::string_view body) {
  WireReader reader(body);
  TracedSolveBody split;
  split.trace = read_trace_context(reader);
  split.inner = reader.view(reader.remaining());
  return split;
}

// -- solve response -------------------------------------------------------

std::string encode_solve_response(const service::SchedulingResponse& response,
                                  std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.u8(static_cast<std::uint8_t>(response.status));
  writer.u8(static_cast<std::uint8_t>(response.reject_reason));
  writer.u8(static_cast<std::uint8_t>(response.cache));
  writer.u8(0);  // reserved
  writer.str(response.solver);
  writer.str(response.error);
  writer.u64(response.result.iterations);
  writer.f64(response.result.eval.med);
  writer.f64(response.result.eval.cost);
  writer.f64(response.queue_delay_ms);
  writer.f64(response.solve_ms);
  const auto& schedule = response.result.schedule.type_of;
  writer.u32(static_cast<std::uint32_t>(schedule.size()));
  for (const std::size_t type : schedule)
    writer.u32(static_cast<std::uint32_t>(type));
  return encode_frame(FrameType::solve_response, request_id, writer.bytes());
}

service::SchedulingResponse decode_solve_response(std::string_view body) {
  WireReader reader(body);
  service::SchedulingResponse response;
  const std::uint8_t status = reader.u8();
  const std::uint8_t reason = reader.u8();
  const std::uint8_t cache = reader.u8();
  (void)reader.u8();  // reserved
  if (status > static_cast<std::uint8_t>(service::ResponseStatus::failed))
    fail(WireError::bad_body, "wire: unknown response status");
  if (reason > static_cast<std::uint8_t>(service::RejectReason::flow_control))
    fail(WireError::bad_body, "wire: unknown reject reason");
  if (cache >
      static_cast<std::uint8_t>(service::CacheOutcome::hit_isomorphic))
    fail(WireError::bad_body, "wire: unknown cache outcome");
  response.status = static_cast<service::ResponseStatus>(status);
  response.reject_reason = static_cast<service::RejectReason>(reason);
  response.cache = static_cast<service::CacheOutcome>(cache);
  response.solver = reader.str(kMaxString);
  response.error = reader.str(kMaxString);
  response.result.iterations = reader.u64();
  response.result.eval.med = reader.f64();
  response.result.eval.cost = reader.f64();
  response.queue_delay_ms = reader.f64();
  response.solve_ms = reader.f64();
  const std::uint32_t schedule_len = reader.u32();
  if (schedule_len > kMaxModules)
    fail(WireError::limit_exceeded, "wire: schedule too long");
  reader.expect_fits(schedule_len, 4);
  response.result.schedule.type_of.resize(schedule_len);
  for (std::size_t& type : response.result.schedule.type_of)
    type = reader.u32();
  reader.expect_done();
  return response;
}

// -- stats ----------------------------------------------------------------

std::string encode_stats_request(StatsFormat format,
                                 std::uint64_t request_id) {
  util::ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(format));
  return encode_frame(FrameType::stats_request, request_id, writer.bytes());
}

StatsFormat decode_stats_request(std::string_view body) {
  WireReader reader(body);
  const std::uint8_t format = reader.u8();
  if (format > static_cast<std::uint8_t>(StatsFormat::prometheus))
    fail(WireError::bad_body, "wire: unknown stats format");
  reader.expect_done();
  return static_cast<StatsFormat>(format);
}

std::string encode_stats_response(std::string_view dump,
                                  std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.str(dump);
  return encode_frame(FrameType::stats_response, request_id, writer.bytes());
}

std::string decode_stats_response(std::string_view body) {
  WireReader reader(body);
  std::string dump = reader.str(kMaxString);
  reader.expect_done();
  return dump;
}

// -- error ----------------------------------------------------------------

std::string encode_error(WireError code, std::string_view message,
                         std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.u16(static_cast<std::uint16_t>(code));
  writer.str(message);
  return encode_frame(FrameType::error, request_id, writer.bytes());
}

WireFault decode_error(std::string_view body) {
  WireReader reader(body);
  WireFault fault;
  const std::uint16_t code = reader.u16();
  if (code < static_cast<std::uint16_t>(WireError::truncated) ||
      code > static_cast<std::uint16_t>(WireError::shutting_down))
    fail(WireError::bad_body, "wire: unknown error code");
  fault.code = static_cast<WireError>(code);
  fault.message = reader.str(kMaxString);
  reader.expect_done();
  return fault;
}

// -- hello ----------------------------------------------------------------

namespace {

std::string encode_hello(FrameType type, const Hello& hello,
                         std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.u16(hello.version);
  writer.u32(hello.features);
  writer.str(hello.node_id);
  return encode_frame(type, request_id, writer.bytes());
}

Hello decode_hello(std::string_view body) {
  WireReader reader(body);
  Hello hello;
  hello.version = reader.u16();
  if (hello.version < kVersion)
    fail(WireError::bad_body, "wire: hello with version 0");
  hello.features = reader.u32();
  hello.node_id = reader.str(kMaxString);
  reader.expect_done();
  return hello;
}

}  // namespace

std::string encode_hello_request(const Hello& hello,
                                 std::uint64_t request_id) {
  return encode_hello(FrameType::hello_request, hello, request_id);
}

Hello decode_hello_request(std::string_view body) {
  return decode_hello(body);
}

std::string encode_hello_response(const Hello& hello,
                                  std::uint64_t request_id) {
  return encode_hello(FrameType::hello_response, hello, request_id);
}

Hello decode_hello_response(std::string_view body) {
  return decode_hello(body);
}

// -- replication ----------------------------------------------------------

std::string encode_repl_insert(std::string_view payload,
                               std::uint64_t request_id,
                               const obs::TraceContext& trace) {
  // The payload travels as a length-prefixed string under the record
  // ceiling (above kMaxString). A valid trace context rides as a
  // fixed-size suffix so pre-tracing decoders that reject it do so
  // with a clean trailing_bytes.
  util::ByteWriter writer(kMaxReplPayload);
  writer.str(payload);
  std::string body = writer.take();
  if (trace.valid()) append_trace_context(body, trace);
  return encode_frame(FrameType::repl_insert, request_id, body);
}

ReplRecord decode_repl_insert(std::string_view body) {
  WireReader reader(body);
  ReplRecord record;
  record.payload = reader.str(kMaxReplPayload);
  if (reader.remaining() == kTraceContextSize)
    record.trace = read_trace_context(reader);
  reader.expect_done();
  return record;
}

std::string encode_repl_ack(const ReplAck& ack, std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.u8(ack.applied ? 1 : 0);
  writer.str(ack.error);
  return encode_frame(FrameType::repl_ack, request_id, writer.bytes());
}

ReplAck decode_repl_ack(std::string_view body) {
  WireReader reader(body);
  ReplAck ack;
  const std::uint8_t applied = reader.u8();
  if (applied > 1) fail(WireError::bad_body, "wire: unknown repl_ack status");
  ack.applied = applied == 1;
  ack.error = reader.str(kMaxString);
  reader.expect_done();
  return ack;
}

// -- cluster status -------------------------------------------------------

namespace {

/// Guard on the peer list (far above any real deployment).
constexpr std::uint64_t kMaxPeers = 1u << 12;

}  // namespace

std::string encode_cluster_status_request(std::uint64_t request_id) {
  return encode_frame(FrameType::cluster_status_request, request_id, {});
}

std::string encode_cluster_status_response(const ClusterStatus& status,
                                           std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.str(status.node_id);
  writer.u16(status.protocol_version);
  writer.u64(status.repl_applied);
  writer.u64(status.repl_apply_errors);
  writer.u32(static_cast<std::uint32_t>(status.peers.size()));
  for (const ClusterPeerStatus& peer : status.peers) {
    writer.str(peer.address);
    writer.str(peer.state);
    writer.u16(peer.peer_version);
    writer.u64(peer.queued);
    writer.u64(peer.sent);
    writer.u64(peer.acked);
    writer.u64(peer.dropped);
    writer.u64(peer.send_errors);
  }
  return encode_frame(FrameType::cluster_status_response, request_id,
                      writer.bytes());
}

ClusterStatus decode_cluster_status_response(std::string_view body) {
  WireReader reader(body);
  ClusterStatus status;
  status.node_id = reader.str(kMaxString);
  status.protocol_version = reader.u16();
  status.repl_applied = reader.u64();
  status.repl_apply_errors = reader.u64();
  const std::uint32_t peer_count = reader.u32();
  if (peer_count > kMaxPeers)
    fail(WireError::limit_exceeded, "wire: too many peers");
  reader.expect_fits(peer_count, /*two strings + counters*/ 4 + 4 + 2 + 5 * 8);
  status.peers.reserve(peer_count);
  for (std::uint32_t i = 0; i < peer_count; ++i) {
    ClusterPeerStatus peer;
    peer.address = reader.str(kMaxString);
    peer.state = reader.str(kMaxString);
    peer.peer_version = reader.u16();
    peer.queued = reader.u64();
    peer.sent = reader.u64();
    peer.acked = reader.u64();
    peer.dropped = reader.u64();
    peer.send_errors = reader.u64();
    status.peers.push_back(std::move(peer));
  }
  reader.expect_done();
  return status;
}

// -- trace dump -----------------------------------------------------------

std::string encode_trace_dump_request(std::uint32_t max_traces,
                                      std::uint64_t request_id) {
  util::ByteWriter writer;
  writer.u32(max_traces);
  return encode_frame(FrameType::trace_dump_request, request_id,
                      writer.bytes());
}

std::uint32_t decode_trace_dump_request(std::string_view body) {
  WireReader reader(body);
  const std::uint32_t max_traces = reader.u32();
  reader.expect_done();
  return max_traces;
}

std::string encode_trace_dump_response(const TraceDump& dump,
                                       std::uint64_t request_id) {
  util::ByteWriter writer(kMaxString);
  writer.str(dump.node_id);
  writer.u8(dump.enabled ? 1 : 0);
  writer.u64(dump.started);
  writer.u64(dump.sampled);
  writer.u64(dump.completed);
  writer.u64(dump.dropped);
  writer.u32(static_cast<std::uint32_t>(dump.stages.size()));
  for (const obs::StageStat& stat : dump.stages) {
    writer.u64(stat.count);
    writer.u64(stat.total_ns);
  }
  writer.u32(static_cast<std::uint32_t>(dump.traces.size()));
  for (const obs::TraceRecord& trace : dump.traces) {
    writer.u64(trace.id.hi);
    writer.u64(trace.id.lo);
    writer.str(trace.origin);
    writer.u64(static_cast<std::uint64_t>(trace.started_ns));
    writer.u64(static_cast<std::uint64_t>(trace.total_ns));
    writer.u8(trace.slow ? 1 : 0);
    writer.u32(static_cast<std::uint32_t>(trace.spans.size()));
    for (const obs::Span& span : trace.spans) {
      writer.u8(static_cast<std::uint8_t>(span.stage));
      writer.u64(static_cast<std::uint64_t>(span.start_ns));
      writer.u64(static_cast<std::uint64_t>(span.end_ns));
    }
  }
  return encode_frame(FrameType::trace_dump_response, request_id,
                      writer.bytes());
}

TraceDump decode_trace_dump_response(std::string_view body) {
  WireReader reader(body);
  TraceDump dump;
  dump.node_id = reader.str(kMaxString);
  const std::uint8_t enabled = reader.u8();
  if (enabled > 1) fail(WireError::bad_body, "wire: bad trace_dump flag");
  dump.enabled = enabled == 1;
  dump.started = reader.u64();
  dump.sampled = reader.u64();
  dump.completed = reader.u64();
  dump.dropped = reader.u64();
  const std::uint32_t stage_count = reader.u32();
  // A newer peer may report stages this build does not know; extra
  // entries are read and dropped, missing ones stay zero.
  if (stage_count > 256)
    fail(WireError::limit_exceeded, "wire: too many trace stages");
  reader.expect_fits(stage_count, 16);
  for (std::uint32_t s = 0; s < stage_count; ++s) {
    const std::uint64_t count = reader.u64();
    const std::uint64_t total_ns = reader.u64();
    if (s < obs::kStageCount) dump.stages[s] = obs::StageStat{count, total_ns};
  }
  const std::uint32_t trace_count = reader.u32();
  if (trace_count > kMaxDumpTraces)
    fail(WireError::limit_exceeded, "wire: too many traces in dump");
  reader.expect_fits(trace_count, 8 + 8 + 4 + 8 + 8 + 1 + 4);
  dump.traces.reserve(trace_count);
  for (std::uint32_t t = 0; t < trace_count; ++t) {
    obs::TraceRecord trace;
    trace.id.hi = reader.u64();
    trace.id.lo = reader.u64();
    trace.origin = reader.str(kMaxString);
    trace.started_ns = static_cast<std::int64_t>(reader.u64());
    trace.total_ns = static_cast<std::int64_t>(reader.u64());
    const std::uint8_t slow = reader.u8();
    if (slow > 1) fail(WireError::bad_body, "wire: bad trace slow flag");
    trace.slow = slow == 1;
    const std::uint32_t span_count = reader.u32();
    if (span_count > kMaxDumpSpans)
      fail(WireError::limit_exceeded, "wire: too many spans in trace");
    reader.expect_fits(span_count, 1 + 8 + 8);
    trace.spans.reserve(span_count);
    for (std::uint32_t s = 0; s < span_count; ++s) {
      const std::uint8_t stage = reader.u8();
      if (stage >= obs::kStageCount)
        fail(WireError::bad_body, "wire: unknown span stage");
      obs::Span span;
      span.stage = static_cast<obs::Stage>(stage);
      span.start_ns = static_cast<std::int64_t>(reader.u64());
      span.end_ns = static_cast<std::int64_t>(reader.u64());
      trace.spans.push_back(span);
    }
    dump.traces.push_back(std::move(trace));
  }
  reader.expect_done();
  return dump;
}

}  // namespace medcc::net
