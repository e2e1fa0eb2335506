// Byte-level pin of both binary codecs: the hex of one encoding of
// every wire frame type, of a cache-record payload and of a record-file
// image, checked in at tests/golden/codec_bytes.txt. A change to the
// little-endian primitive layer (util/bytes.hpp) or to any message
// layout shows up here as a diff. Every pinned input also round-trips:
// decoding it and encoding the result reproduces the same bytes.
//
// Regenerate (only when a format change is intended) with
//   MEDCC_UPDATE_GOLDEN=1 ./codec_bytes_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/cost_model.hpp"
#include "expr/instance_gen.hpp"
#include "net/codec.hpp"
#include "obs/trace.hpp"
#include "persist/record_file.hpp"
#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"

namespace {

namespace net = medcc::net;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;

constexpr std::uint64_t kRequestId = 0x0102030405060708u;

SchedulingRequest example_request() {
  SchedulingRequest req;
  req.instance = std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
  req.budget = 57.0;
  req.solver = "cg";
  req.config = "trace=1";
  req.tenant = "tenant-a";
  req.deadline_ms = 125.5;
  return req;
}

/// Size 2 of Table IV, (m, |Ew|, n) = (10, 17, 4), seed 7.
SchedulingRequest table4_request() {
  medcc::util::Prng rng(7);
  SchedulingRequest req;
  req.instance = std::make_shared<const Instance>(
      medcc::expr::make_instance(medcc::expr::table4_sizes()[1], rng));
  req.budget = 321.25;
  req.solver = "gain3";
  return req;
}

medcc::obs::TraceContext trace_context() {
  medcc::obs::TraceContext context;
  context.id.hi = 0x1122334455667788u;
  context.id.lo = 0x99AABBCCDDEEFF00u;
  context.sampled = true;
  return context;
}

/// The solved entry the service would cache for example_request().
medcc::service::CacheEntry solved_entry() {
  const SchedulingRequest req = example_request();
  const auto* solver =
      medcc::sched::SolverRegistry::built_in().find(req.solver);
  EXPECT_NE(solver, nullptr);
  auto entry = medcc::service::ResultCache::make_entry(
      medcc::service::fingerprint(req), (*solver)(*req.instance, req.budget));
  entry.hits = 3;
  return entry;
}

SchedulingResponse solved_response() {
  SchedulingResponse response;
  response.status = medcc::service::ResponseStatus::ok;
  response.cache = medcc::service::CacheOutcome::miss;
  response.solver = "cg";
  response.result = solved_entry().result;
  response.queue_delay_ms = 0.25;
  response.solve_ms = 1.5;
  return response;
}

net::ClusterStatus cluster_status() {
  net::ClusterStatus status;
  status.node_id = "node-a";
  status.repl_applied = 12;
  status.repl_apply_errors = 1;
  net::ClusterPeerStatus peer;
  peer.address = "10.0.0.2:7000";
  peer.state = "connected";
  peer.peer_version = 2;
  peer.queued = 3;
  peer.sent = 40;
  peer.acked = 37;
  peer.dropped = 0;
  peer.send_errors = 2;
  status.peers.push_back(peer);
  peer.address = "10.0.0.3:7000";
  peer.state = "v1-peer";
  peer.peer_version = 1;
  status.peers.push_back(peer);
  return status;
}

net::TraceDump trace_dump() {
  net::TraceDump dump;
  dump.node_id = "node-a";
  dump.enabled = true;
  dump.started = 640;
  dump.sampled = 10;
  dump.completed = 2;
  dump.dropped = 1;
  for (std::size_t s = 0; s < dump.stages.size(); ++s)
    dump.stages[s] = medcc::obs::StageStat{s + 1, 1000 * (s + 1)};
  medcc::obs::TraceRecord trace;
  trace.id = trace_context().id;
  trace.origin = "client";
  trace.started_ns = 5'000'000;
  trace.total_ns = 420'000;
  trace.slow = true;
  trace.spans = {{medcc::obs::Stage::request, 5'000'000, 5'420'000},
                 {medcc::obs::Stage::solve, 5'100'000, 5'300'000}};
  dump.traces.push_back(trace);
  trace.id.lo = 7;
  trace.origin = "node-a";
  trace.slow = false;
  trace.spans = {{medcc::obs::Stage::decode, 1, 2}};
  dump.traces.push_back(trace);
  return dump;
}

std::string_view body_of(const std::string& frame) {
  return std::string_view(frame).substr(net::kHeaderSize);
}

/// One pinned encoding: its name and bytes.
struct Pinned {
  std::string name;
  std::string bytes;
  bool frame = true;  ///< a wire frame (else a persistence encoding)
};

/// Encodes every pinned input, asserting on the way that each decodes
/// back to an object that re-encodes to the very same bytes.
std::vector<Pinned> pinned_encodings() {
  std::vector<Pinned> out;
  const auto pin = [&out](std::string name, std::string bytes,
                          bool frame = true) {
    out.push_back({std::move(name), std::move(bytes), frame});
    return out.back().bytes;
  };
  const auto header_ok = [](const std::string& frame, net::FrameType type) {
    const auto header = net::parse_frame_header(frame);
    EXPECT_TRUE(header.has_value());
    if (!header) return;
    EXPECT_EQ(header->type, type);
    EXPECT_EQ(header->request_id, kRequestId);
    EXPECT_EQ(header->body_size, frame.size() - net::kHeaderSize);
  };

  for (const auto& [name, req] :
       {std::pair{"solve_request example6", example_request()},
        std::pair{"solve_request table4 size 2 seed 7", table4_request()}}) {
    const std::string frame =
        pin(name, net::encode_solve_request(req, kRequestId));
    header_ok(frame, net::FrameType::solve_request);
    EXPECT_EQ(net::encode_solve_request(
                  net::decode_solve_request(body_of(frame)), kRequestId),
              frame)
        << name;
  }

  {
    const std::string frame =
        pin("traced_solve_request example6",
            net::encode_traced_solve_request(example_request(),
                                             trace_context(), kRequestId));
    header_ok(frame, net::FrameType::traced_solve_request);
    const auto split = net::split_traced_solve_request(body_of(frame));
    EXPECT_EQ(split.trace.id, trace_context().id);
    EXPECT_TRUE(split.trace.sampled);
    EXPECT_EQ(net::encode_traced_solve_request(
                  net::decode_solve_request(split.inner), split.trace,
                  kRequestId),
              frame);
  }

  {
    const std::string frame = pin(
        "solve_response", net::encode_solve_response(solved_response(),
                                                     kRequestId));
    header_ok(frame, net::FrameType::solve_response);
    EXPECT_EQ(net::encode_solve_response(
                  net::decode_solve_response(body_of(frame)), kRequestId),
              frame);
  }

  {
    const std::string frame = pin(
        "stats_request",
        net::encode_stats_request(net::StatsFormat::prometheus, kRequestId));
    header_ok(frame, net::FrameType::stats_request);
    EXPECT_EQ(net::encode_stats_request(
                  net::decode_stats_request(body_of(frame)), kRequestId),
              frame);
  }

  {
    const std::string frame =
        pin("stats_response",
            net::encode_stats_response("requests_total 7\n", kRequestId));
    header_ok(frame, net::FrameType::stats_response);
    EXPECT_EQ(net::encode_stats_response(
                  net::decode_stats_response(body_of(frame)), kRequestId),
              frame);
  }

  {
    const std::string frame =
        pin("error", net::encode_error(net::WireError::limit_exceeded,
                                       "too many modules", kRequestId));
    header_ok(frame, net::FrameType::error);
    const auto fault = net::decode_error(body_of(frame));
    EXPECT_EQ(net::encode_error(fault.code, fault.message, kRequestId), frame);
  }

  const net::Hello hello{net::kMaxVersion,
                         net::kFeatureReplication | net::kFeatureTracing,
                         "node-a"};
  {
    const std::string frame =
        pin("hello_request", net::encode_hello_request(hello, kRequestId));
    header_ok(frame, net::FrameType::hello_request);
    EXPECT_EQ(net::encode_hello_request(
                  net::decode_hello_request(body_of(frame)), kRequestId),
              frame);
  }
  {
    const std::string frame =
        pin("hello_response", net::encode_hello_response(hello, kRequestId));
    header_ok(frame, net::FrameType::hello_response);
    EXPECT_EQ(net::encode_hello_response(
                  net::decode_hello_response(body_of(frame)), kRequestId),
              frame);
  }

  const std::string record =
      pin("cache_record example6 cg",
          medcc::service::encode_cache_record(solved_entry()), false);
  EXPECT_EQ(medcc::service::encode_cache_record(
                medcc::service::decode_cache_record(record)),
            record);

  for (const bool traced : {false, true}) {
    const std::string frame = pin(
        traced ? "repl_insert traced" : "repl_insert untraced",
        net::encode_repl_insert(record, kRequestId,
                                traced ? trace_context()
                                       : medcc::obs::TraceContext{}));
    header_ok(frame, net::FrameType::repl_insert);
    const auto decoded = net::decode_repl_insert(body_of(frame));
    EXPECT_EQ(decoded.payload, record);
    EXPECT_EQ(decoded.trace.valid(), traced);
    EXPECT_EQ(net::encode_repl_insert(decoded.payload, kRequestId,
                                      decoded.trace),
              frame);
  }

  {
    const std::string frame =
        pin("repl_ack",
            net::encode_repl_ack({false, "cache disabled"}, kRequestId));
    header_ok(frame, net::FrameType::repl_ack);
    EXPECT_EQ(net::encode_repl_ack(net::decode_repl_ack(body_of(frame)),
                                   kRequestId),
              frame);
  }

  {
    const std::string frame = pin(
        "cluster_status_request",
        net::encode_cluster_status_request(kRequestId));
    header_ok(frame, net::FrameType::cluster_status_request);
    EXPECT_EQ(frame.size(), net::kHeaderSize);
  }
  {
    const std::string frame =
        pin("cluster_status_response",
            net::encode_cluster_status_response(cluster_status(), kRequestId));
    header_ok(frame, net::FrameType::cluster_status_response);
    EXPECT_EQ(net::encode_cluster_status_response(
                  net::decode_cluster_status_response(body_of(frame)),
                  kRequestId),
              frame);
  }

  {
    const std::string frame = pin(
        "trace_dump_request", net::encode_trace_dump_request(64, kRequestId));
    header_ok(frame, net::FrameType::trace_dump_request);
    EXPECT_EQ(net::encode_trace_dump_request(
                  net::decode_trace_dump_request(body_of(frame)), kRequestId),
              frame);
  }
  {
    const std::string frame =
        pin("trace_dump_response",
            net::encode_trace_dump_response(trace_dump(), kRequestId));
    header_ok(frame, net::FrameType::trace_dump_response);
    EXPECT_EQ(net::encode_trace_dump_response(
                  net::decode_trace_dump_response(body_of(frame)),
                  kRequestId),
              frame);
  }

  {
    const std::vector<std::string> payloads = {record, "second payload"};
    const std::string image = pin(
        "record_file journal two payloads",
        medcc::persist::encode_record_file(medcc::persist::kJournalMagic,
                                           payloads),
        false);
    const auto parsed =
        medcc::persist::parse_record_file(image, medcc::persist::kJournalMagic);
    EXPECT_FALSE(parsed.truncated);
    EXPECT_EQ(parsed.valid_bytes, image.size());
    EXPECT_EQ(parsed.payloads, payloads);
    EXPECT_EQ(medcc::persist::encode_record_file(
                  medcc::persist::kJournalMagic, parsed.payloads),
              image);
  }
  return out;
}

/// "== name (n bytes)" then the bytes as lowercase hex, 32 per line.
std::string render(const std::vector<Pinned>& pinned) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::ostringstream out;
  for (const Pinned& p : pinned) {
    out << "== " << p.name << " (" << p.bytes.size() << " bytes)\n";
    for (std::size_t i = 0; i < p.bytes.size(); ++i) {
      const auto byte = static_cast<unsigned char>(p.bytes[i]);
      out << kDigits[byte >> 4] << kDigits[byte & 0xF];
      if (i % 32 == 31 || i + 1 == p.bytes.size()) out << '\n';
    }
  }
  return out.str();
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "codec_bytes.txt";
}

TEST(CodecBytes, EveryFrameTypeIsPinned) {
  std::vector<net::FrameType> seen;
  for (const Pinned& p : pinned_encodings()) {
    if (!p.frame) continue;
    const auto header = net::parse_frame_header(p.bytes);
    ASSERT_TRUE(header.has_value()) << p.name;
    seen.push_back(header->type);
  }
  for (auto t = static_cast<std::uint16_t>(net::FrameType::solve_request);
       t <= static_cast<std::uint16_t>(net::FrameType::trace_dump_response);
       ++t) {
    EXPECT_NE(std::find(seen.begin(), seen.end(),
                        static_cast<net::FrameType>(t)),
              seen.end())
        << "frame type " << t << " has no pinned encoding";
  }
}

TEST(CodecBytes, EncodingsMatchGoldenFile) {
  const std::string actual = render(pinned_encodings());

  if (std::getenv("MEDCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(golden_path(), std::ios::binary);
    file << actual;
    ASSERT_TRUE(file.good()) << "failed to write " << golden_path();
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with MEDCC_UPDATE_GOLDEN=1 to create)";
  std::istringstream expected_lines(
      std::string(std::istreambuf_iterator<char>(in), {}));
  std::istringstream actual_lines(actual);
  std::string e_line;
  std::string a_line;
  for (int n = 1;; ++n) {
    const bool e_more = static_cast<bool>(std::getline(expected_lines, e_line));
    const bool a_more = static_cast<bool>(std::getline(actual_lines, a_line));
    if (!e_more && !a_more) break;
    ASSERT_TRUE(e_more && a_more && e_line == a_line)
        << "codec bytes diverge from golden at line " << n
        << "\n  expected: " << (e_more ? e_line : std::string("<eof>"))
        << "\n  actual:   " << (a_more ? a_line : std::string("<eof>"));
  }
}

}  // namespace
