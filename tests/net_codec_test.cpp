// Robustness and round-trip correctness of the MED-CC wire codec:
// frame-header parsing against truncation, bad magic/version/type and
// oversized length prefixes; the FrameBuffer stream reader fed whole,
// byte by byte and in random chunks; decode(encode(x)) field-identical (doubles
// compared bit-for-bit) for handcrafted and randomized instances;
// non-finite budget, deadline and instance numbers rejected as
// bad_body; byte chop/flip and random-bytes fuzz loops over every v1 and
// v2 body that must always surface as CodecError, never UB (the
// ASan+UBSan CI leg runs this binary).
#include "net/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/vm_type.hpp"
#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "service/request.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::net::CodecError;
using medcc::net::FrameHeader;
using medcc::net::FrameType;
using medcc::net::StatsFormat;
using medcc::net::WireError;
using medcc::net::WireReader;
using medcc::sched::Instance;
using medcc::service::CacheOutcome;
using medcc::service::RejectReason;
using medcc::service::ResponseStatus;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::util::ByteWriter;

void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

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

/// Field-identical comparison of two instances, doubles bit-for-bit.
void expect_instances_identical(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.module_count(), b.module_count());
  ASSERT_EQ(a.type_count(), b.type_count());
  for (std::size_t i = 0; i < a.module_count(); ++i) {
    const auto& ma = a.workflow().module(i);
    const auto& mb = b.workflow().module(i);
    EXPECT_EQ(ma.name, mb.name);
    ASSERT_EQ(ma.is_fixed(), mb.is_fixed());
    if (ma.is_fixed())
      expect_bits_equal(*ma.fixed_time, *mb.fixed_time);
    else
      expect_bits_equal(ma.workload, mb.workload);
  }
  for (std::size_t j = 0; j < a.type_count(); ++j) {
    EXPECT_EQ(a.catalog().type(j).name, b.catalog().type(j).name);
    expect_bits_equal(a.catalog().type(j).processing_power,
                      b.catalog().type(j).processing_power);
    expect_bits_equal(a.catalog().type(j).cost_rate,
                      b.catalog().type(j).cost_rate);
  }
  ASSERT_EQ(a.workflow().graph().edge_count(),
            b.workflow().graph().edge_count());
  for (std::size_t e = 0; e < a.workflow().graph().edge_count(); ++e) {
    EXPECT_EQ(a.workflow().graph().edge(e).src,
              b.workflow().graph().edge(e).src);
    EXPECT_EQ(a.workflow().graph().edge(e).dst,
              b.workflow().graph().edge(e).dst);
    expect_bits_equal(a.workflow().data_size(e), b.workflow().data_size(e));
    expect_bits_equal(a.edge_time(e), b.edge_time(e));
  }
  expect_bits_equal(a.billing().quantum(), b.billing().quantum());
  expect_bits_equal(a.network().bandwidth, b.network().bandwidth);
  expect_bits_equal(a.network().link_delay, b.network().link_delay);
  expect_bits_equal(a.network().transfer_cost_rate,
                    b.network().transfer_cost_rate);
  // The decoded TE/CE tables must be bit-identical: this is what makes
  // remote solves byte-identical to in-process ones.
  for (std::size_t i = 0; i < a.module_count(); ++i)
    for (std::size_t j = 0; j < a.type_count(); ++j) {
      expect_bits_equal(a.time(i, j), b.time(i, j));
      expect_bits_equal(a.cost(i, j), b.cost(i, j));
    }
}

// -- frame header ---------------------------------------------------------

TEST(NetCodec, FrameHeaderRoundTrips) {
  const std::string frame =
      medcc::net::encode_frame(FrameType::solve_request, 42, "abc");
  ASSERT_EQ(frame.size(), medcc::net::kHeaderSize + 3);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, FrameType::solve_request);
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->body_size, 3u);
}

TEST(NetCodec, ShortBufferAsksForMoreBytes) {
  const std::string frame =
      medcc::net::encode_frame(FrameType::stats_request, 1, "");
  for (std::size_t len = 0; len < medcc::net::kHeaderSize; ++len)
    EXPECT_FALSE(medcc::net::parse_frame_header(
                     std::string_view(frame).substr(0, len))
                     .has_value())
        << "prefix length " << len;
}

TEST(NetCodec, BadMagicRejected) {
  std::string frame = medcc::net::encode_frame(FrameType::error, 0, "");
  frame[0] = 'X';
  try {
    (void)medcc::net::parse_frame_header(frame);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::bad_magic);
  }
}

TEST(NetCodec, BadVersionRejected) {
  std::string frame = medcc::net::encode_frame(FrameType::error, 0, "");
  frame[4] = 99;  // version lives at offset 4
  try {
    (void)medcc::net::parse_frame_header(frame);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::bad_version);
  }
}

TEST(NetCodec, BadFrameTypeRejected) {
  // 15 is the first value past the v2 cluster + tracing types (6-14).
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{15},
                                  std::uint8_t{200}}) {
    std::string frame = medcc::net::encode_frame(FrameType::error, 0, "");
    frame[6] = static_cast<char>(type);  // frame type lives at offset 6
    try {
      (void)medcc::net::parse_frame_header(frame);
      FAIL() << "expected CodecError for type " << int(type);
    } catch (const CodecError& err) {
      EXPECT_EQ(err.code(), WireError::bad_frame_type);
    }
  }
}

TEST(NetCodec, VersionTypePairingEnforced) {
  // A v1 header on a v2-only type (and vice versa) is rejected from
  // the header alone, as a version fault -- a v1 peer can never be
  // handed a cluster frame it cannot parse.
  std::string v1_cluster = medcc::net::encode_frame(FrameType::error, 0, "");
  v1_cluster[6] = 6;  // hello_request under version 1
  try {
    (void)medcc::net::parse_frame_header(v1_cluster);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::bad_version);
  }

  std::string v2_legacy = medcc::net::encode_frame(FrameType::error, 0, "");
  v2_legacy[4] = 2;  // error frame stamped with the cluster version
  try {
    (void)medcc::net::parse_frame_header(v2_legacy);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::bad_version);
  }
}

TEST(NetCodec, OversizedLengthPrefixRejectedBeforeBuffering) {
  std::string frame = medcc::net::encode_frame(FrameType::solve_request, 7, "");
  // Patch the length prefix (offset 16, little-endian u32) to 4 GiB-ish.
  frame[16] = static_cast<char>(0xFF);
  frame[17] = static_cast<char>(0xFF);
  frame[18] = static_cast<char>(0xFF);
  frame[19] = static_cast<char>(0x7F);
  try {
    (void)medcc::net::parse_frame_header(frame, /*max_body=*/1 << 20);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::oversized_frame);
  }
}

// -- frame buffer ---------------------------------------------------------

/// Eight frames of mixed types and sizes, as one pipelined byte stream.
std::string mixed_stream() {
  SchedulingResponse response;
  response.status = ResponseStatus::rejected;
  response.reject_reason = RejectReason::queue_full;
  medcc::net::Hello hello;
  hello.node_id = "node-a";
  return medcc::net::encode_solve_request(example_request(), 1) +
         medcc::net::encode_stats_request(StatsFormat::csv, 2) +
         medcc::net::encode_solve_response(response, 3) +
         medcc::net::encode_error(WireError::bad_body, "no such thing", 4) +
         medcc::net::encode_hello_request(hello, 5) +
         medcc::net::encode_repl_insert("record-bytes", 6) +
         medcc::net::encode_cluster_status_request(7) +
         medcc::net::encode_stats_response("", 8);
}

/// One frame as the buffer handed it out, detached from its storage.
struct SeenFrame {
  FrameType type;
  std::uint64_t id;
  std::string body;
  bool operator==(const SeenFrame&) const = default;
};

/// Feeds `stream` to a FrameBuffer in chunks of the sizes `chunk` picks
/// and drains every complete frame after each append.
std::vector<SeenFrame> read_in_chunks(
    std::string_view stream, const std::function<std::size_t()>& chunk) {
  medcc::net::FrameBuffer buffer;
  std::vector<SeenFrame> seen;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t n = std::min(chunk(), stream.size() - at);
    buffer.append(stream.substr(at, n));
    at += n;
    while (const auto frame = buffer.next())
      seen.push_back({frame->header.type, frame->header.request_id,
                      std::string(frame->body)});
  }
  EXPECT_FALSE(buffer.next().has_value());
  return seen;
}

TEST(NetCodec, FrameBufferYieldsTheSameFramesHoweverTheBytesArrive) {
  const std::string stream = mixed_stream();
  const auto whole = read_in_chunks(stream, [&] { return stream.size(); });
  ASSERT_EQ(whole.size(), 8u);
  for (std::size_t i = 0; i < whole.size(); ++i)
    EXPECT_EQ(whole[i].id, i + 1);
  EXPECT_EQ(whole[0].type, FrameType::solve_request);
  EXPECT_EQ(medcc::net::decode_solve_request(whole[0].body).tenant,
            "tenant-a");
  EXPECT_EQ(whole[7].type, FrameType::stats_response);

  EXPECT_EQ(read_in_chunks(stream, [] { return std::size_t{1}; }), whole);
  medcc::util::Prng rng(2024);
  EXPECT_EQ(read_in_chunks(stream,
                           [&] {
                             return static_cast<std::size_t>(
                                 rng.uniform_int(1, 300));
                           }),
            whole);
}

TEST(NetCodec, FrameBufferStopsAtABadHeaderAfterTheGoodFrames) {
  std::string stream = mixed_stream();
  stream.resize(stream.size() -
                medcc::net::encode_stats_response("", 8).size());
  stream += std::string(medcc::net::kHeaderSize, 'X');  // bad magic
  for (const std::size_t chunk : {stream.size(), std::size_t{1}}) {
    medcc::net::FrameBuffer buffer;
    std::size_t frames = 0;
    try {
      for (std::size_t at = 0; at < stream.size(); at += chunk) {
        buffer.append(std::string_view(stream).substr(at, chunk));
        while (buffer.next()) ++frames;
      }
      FAIL() << "expected CodecError";
    } catch (const CodecError& err) {
      EXPECT_EQ(err.code(), WireError::bad_magic);
    }
    EXPECT_EQ(frames, 7u);
  }
}

// -- solve round trips ----------------------------------------------------

TEST(NetCodec, SolveRequestRoundTripsFieldIdentical) {
  const SchedulingRequest original = example_request();
  const std::string frame = medcc::net::encode_solve_request(original, 9);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, FrameType::solve_request);
  EXPECT_EQ(header->request_id, 9u);

  const SchedulingRequest decoded = medcc::net::decode_solve_request(
      std::string_view(frame).substr(medcc::net::kHeaderSize));
  expect_bits_equal(decoded.budget, original.budget);
  expect_bits_equal(decoded.deadline_ms, original.deadline_ms);
  EXPECT_EQ(decoded.solver, original.solver);
  EXPECT_EQ(decoded.config, original.config);
  EXPECT_EQ(decoded.tenant, original.tenant);
  ASSERT_NE(decoded.instance, nullptr);
  expect_instances_identical(*decoded.instance, *original.instance);
}

TEST(NetCodec, RandomizedInstancesRoundTripDifferential) {
  medcc::util::Prng rng(0xC0DECu);
  for (int round = 0; round < 20; ++round) {
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = static_cast<std::size_t>(rng.uniform_int(2, 12));
    spec.edges = static_cast<std::size_t>(rng.uniform_int(1, 30));
    spec.data_size_min = 0.5;
    spec.data_size_max = 20.0;
    spec.weighted_endpoints = (round % 2) == 0;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    const std::size_t types = static_cast<std::size_t>(rng.uniform_int(1, 5));
    std::vector<VmType> catalog;
    for (std::size_t j = 0; j < types; ++j)
      catalog.push_back(VmType{"vt" + std::to_string(j),
                               rng.uniform_real(1.0, 30.0),
                               rng.uniform_real(0.5, 8.0)});
    SchedulingRequest req;
    req.instance = std::make_shared<const Instance>(Instance::from_model(
        std::move(wf), VmCatalog(std::move(catalog)),
        medcc::cloud::BillingPolicy(rng.uniform_real(0.1, 2.0)),
        medcc::cloud::NetworkModel{rng.uniform_real(1.0, 10.0),
                                   rng.uniform_real(0.0, 1.0),
                                   rng.uniform_real(0.0, 0.2)}));
    req.budget = rng.uniform_real(1.0, 500.0);
    req.solver = (round % 3 == 0) ? "gain3" : "cg";
    req.tenant = "t" + std::to_string(round % 4);

    const std::string frame = medcc::net::encode_solve_request(req, 1);
    const auto decoded = medcc::net::decode_solve_request(
        std::string_view(frame).substr(medcc::net::kHeaderSize));
    expect_bits_equal(decoded.budget, req.budget);
    EXPECT_EQ(decoded.solver, req.solver);
    EXPECT_EQ(decoded.tenant, req.tenant);
    expect_instances_identical(*decoded.instance, *req.instance);

    // Re-encoding the decoded request must reproduce the exact bytes.
    EXPECT_EQ(medcc::net::encode_solve_request(decoded, 1), frame);
  }
}

TEST(NetCodec, SolveResponseRoundTripsFieldIdentical) {
  SchedulingResponse original;
  original.status = ResponseStatus::ok;
  original.reject_reason = RejectReason::none;
  original.solver = "gain3";
  original.cache = CacheOutcome::hit_isomorphic;
  original.queue_delay_ms = 0.125;
  original.solve_ms = 3.875;
  original.result.iterations = 17;
  original.result.eval.med = 6.77215;
  original.result.eval.cost = 56.0000001;
  original.result.schedule.type_of = {2, 1, 0, 2, 2, 1};

  const std::string frame = medcc::net::encode_solve_response(original, 5);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, FrameType::solve_response);

  const SchedulingResponse decoded = medcc::net::decode_solve_response(
      std::string_view(frame).substr(medcc::net::kHeaderSize));
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.reject_reason, original.reject_reason);
  EXPECT_EQ(decoded.solver, original.solver);
  EXPECT_EQ(decoded.cache, original.cache);
  EXPECT_EQ(decoded.error, original.error);
  EXPECT_EQ(decoded.result.iterations, original.result.iterations);
  EXPECT_EQ(decoded.result.schedule.type_of, original.result.schedule.type_of);
  expect_bits_equal(decoded.result.eval.med, original.result.eval.med);
  expect_bits_equal(decoded.result.eval.cost, original.result.eval.cost);
  expect_bits_equal(decoded.queue_delay_ms, original.queue_delay_ms);
  expect_bits_equal(decoded.solve_ms, original.solve_ms);
}

TEST(NetCodec, RejectionAndFailureResponsesRoundTrip) {
  SchedulingResponse rejected;
  rejected.status = ResponseStatus::rejected;
  rejected.reject_reason = RejectReason::tenant_quota;
  rejected.solver = "cg";
  {
    const std::string frame = medcc::net::encode_solve_response(rejected, 1);
    const auto decoded = medcc::net::decode_solve_response(
        std::string_view(frame).substr(medcc::net::kHeaderSize));
    EXPECT_EQ(decoded.status, ResponseStatus::rejected);
    EXPECT_EQ(decoded.reject_reason, RejectReason::tenant_quota);
  }

  SchedulingResponse failed;
  failed.status = ResponseStatus::failed;
  failed.error = "critical_greedy: budget 1 below least-cost schedule";
  {
    const std::string frame = medcc::net::encode_solve_response(failed, 2);
    const auto decoded = medcc::net::decode_solve_response(
        std::string_view(frame).substr(medcc::net::kHeaderSize));
    EXPECT_EQ(decoded.status, ResponseStatus::failed);
    EXPECT_EQ(decoded.error, failed.error);
  }
}

// -- stats / error frames -------------------------------------------------

TEST(NetCodec, StatsFramesRoundTrip) {
  const std::string req = medcc::net::encode_stats_request(StatsFormat::csv, 3);
  EXPECT_EQ(medcc::net::decode_stats_request(
                std::string_view(req).substr(medcc::net::kHeaderSize)),
            StatsFormat::csv);

  const std::string dump = "requests_total 7\ncache_hit_rate 0.4\n";
  const std::string resp = medcc::net::encode_stats_response(dump, 3);
  EXPECT_EQ(medcc::net::decode_stats_response(
                std::string_view(resp).substr(medcc::net::kHeaderSize)),
            dump);
}

TEST(NetCodec, ErrorFrameRoundTrips) {
  const std::string frame = medcc::net::encode_error(
      WireError::limit_exceeded, "module count 9999999 over limit", 11);
  const auto header = medcc::net::parse_frame_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, FrameType::error);
  const auto fault = medcc::net::decode_error(
      std::string_view(frame).substr(medcc::net::kHeaderSize));
  EXPECT_EQ(fault.code, WireError::limit_exceeded);
  EXPECT_EQ(fault.message, "module count 9999999 over limit");
}

// -- hostile bytes --------------------------------------------------------

/// The body of an encoded frame.
std::string body_of(const std::string& frame) {
  return frame.substr(medcc::net::kHeaderSize);
}

/// One valid body of every request/response a peer decodes, v1 and v2,
/// with the decoder that reads it.
struct BodyCase {
  const char* name;
  std::string body;
  std::function<void(std::string_view)> decode;
};

std::vector<BodyCase> valid_bodies() {
  namespace net = medcc::net;
  const medcc::obs::TraceContext trace{{0x1122, 0x3344}, true};
  net::ClusterStatus status;
  status.node_id = "node-a";
  status.peers.push_back({"10.0.0.2:7000", "connected", 2, 1, 2, 3, 4, 5});
  net::TraceDump dump;
  dump.node_id = "node-a";
  dump.enabled = true;
  dump.traces.push_back(
      {trace.id, "client", 10, 20, true,
       {{medcc::obs::Stage::request, 10, 30},
        {medcc::obs::Stage::solve, 12, 28}}});
  return {
      {"solve_request",
       body_of(net::encode_solve_request(example_request(), 1)),
       [](std::string_view b) { (void)net::decode_solve_request(b); }},
      {"traced_solve_request",
       body_of(net::encode_traced_solve_request(example_request(), trace, 1)),
       [](std::string_view b) {
         (void)net::decode_solve_request(
             net::split_traced_solve_request(b).inner);
       }},
      {"hello_request",
       body_of(net::encode_hello_request({2, net::kFeatureTracing, "a"}, 1)),
       [](std::string_view b) { (void)net::decode_hello_request(b); }},
      {"hello_response",
       body_of(net::encode_hello_response({2, net::kFeatureTracing, "b"}, 1)),
       [](std::string_view b) { (void)net::decode_hello_response(b); }},
      {"repl_insert", body_of(net::encode_repl_insert("record-bytes", 1)),
       [](std::string_view b) { (void)net::decode_repl_insert(b); }},
      {"repl_insert traced",
       body_of(net::encode_repl_insert("record-bytes", 1, trace)),
       [](std::string_view b) {
         // Cutting exactly the suffix off leaves a valid untraced body,
         // so a decode that lost the context counts as a failure here.
         if (!net::decode_repl_insert(b).trace.valid())
           throw CodecError(WireError::truncated, "trace suffix lost");
       }},
      {"repl_ack", body_of(net::encode_repl_ack({false, "no cache"}, 1)),
       [](std::string_view b) { (void)net::decode_repl_ack(b); }},
      {"cluster_status_response",
       body_of(net::encode_cluster_status_response(status, 1)),
       [](std::string_view b) {
         (void)net::decode_cluster_status_response(b);
       }},
      {"trace_dump_request", body_of(net::encode_trace_dump_request(16, 1)),
       [](std::string_view b) { (void)net::decode_trace_dump_request(b); }},
      {"trace_dump_response", body_of(net::encode_trace_dump_response(dump, 1)),
       [](std::string_view b) { (void)net::decode_trace_dump_response(b); }},
  };
}

TEST(NetCodec, EveryTruncationOfAValidBodyThrowsCodecError) {
  for (const BodyCase& c : valid_bodies()) {
    ASSERT_NO_THROW(c.decode(c.body)) << c.name;
    const std::string_view body = c.body;
    for (std::size_t len = 0; len < body.size(); ++len) {
      EXPECT_THROW(c.decode(body.substr(0, len)), CodecError)
          << c.name << " prefix length " << len;
    }
  }
}

TEST(NetCodec, TrailingBytesRejected) {
  const std::string frame =
      medcc::net::encode_solve_request(example_request(), 1);
  std::string body(std::string_view(frame).substr(medcc::net::kHeaderSize));
  body.push_back('\0');
  try {
    (void)medcc::net::decode_solve_request(body);
    FAIL() << "expected CodecError";
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::trailing_bytes);
  }
}

TEST(NetCodec, HostileElementCountsDoNotAllocate) {
  // A body claiming 2^20-1 modules backed by only a handful of bytes
  // must die in expect_fits, not in an allocation.
  ByteWriter w;
  w.f64(10.0);   // budget
  w.f64(0.0);    // deadline
  w.str("cg");   // solver
  w.str("");     // config
  w.str("");     // tenant
  w.f64(1.0);    // billing quantum
  w.f64(0.0);    // bandwidth
  w.f64(0.0);    // link delay
  w.f64(0.0);    // transfer cost rate
  w.u32(1);      // catalog size
  w.str("vt0");
  w.f64(1.0);
  w.f64(1.0);
  w.u32((1u << 20) - 1);  // hostile module count
  EXPECT_THROW((void)medcc::net::decode_solve_request(w.bytes()), CodecError);
}

/// A minimal valid solve-request body (fixed entry -> one computing
/// module, one VM type) whose `poisoned`-th number (budget, deadline,
/// then the instance's), counted in wire order, is replaced by `poison`.
/// Out-of-range indices poison nothing.
std::string request_body_with(std::size_t poisoned, double poison) {
  std::size_t slot = 0;
  ByteWriter w;
  const auto number = [&](double value) {
    w.f64(slot++ == poisoned ? poison : value);
  };
  number(10.0);  // budget
  number(0.0);   // deadline
  w.str("cg");
  w.str("");
  w.str("");
  number(1.0);  // billing quantum
  number(2.0);  // bandwidth
  number(0.5);  // link delay
  number(0.1);  // transfer cost rate
  w.u32(1);     // catalog size
  w.str("vt0");
  number(3.0);  // processing power
  number(1.0);  // cost rate
  w.u32(2);     // modules
  w.str("entry");
  w.u8(1);      // fixed
  number(0.0);  // fixed duration
  w.str("work");
  w.u8(0);      // computing
  number(12.0);  // workload
  w.u32(1);     // edges
  w.u32(0);
  w.u32(1);
  number(4.0);  // data size
  w.u32(1);     // time-matrix rows
  w.u32(1);     // time-matrix cols
  number(4.0);  // T(E_11)
  return w.take();
}

TEST(NetCodec, NonFiniteInstanceNumbersRejectedAsBadBody) {
  constexpr std::size_t kNumbers = 12;
  ASSERT_NO_THROW((void)medcc::net::decode_solve_request(
      request_body_with(kNumbers, 0.0)));
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    for (std::size_t slot = 0; slot < kNumbers; ++slot) {
      try {
        (void)medcc::net::decode_solve_request(request_body_with(slot, poison));
        ADD_FAILURE() << "number " << slot << " = " << poison << " decoded";
      } catch (const CodecError& err) {
        EXPECT_EQ(err.code(), WireError::bad_body)
            << "number " << slot << " = " << poison;
      }
    }
  }
}

TEST(NetCodec, RandomBytesNeverCrashDecoders) {
  medcc::util::Prng rng(0xFAFFu);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes(static_cast<std::size_t>(rng.uniform_int(0, 256)), '\0');
    for (auto& c : bytes)
      c = static_cast<char>(rng.uniform_int(0, 255));
    // Any outcome but a CodecError (or clean success) is a bug.
    try { (void)medcc::net::parse_frame_header(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_solve_request(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_solve_response(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_stats_request(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_stats_response(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_error(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_hello_request(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_hello_response(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_repl_insert(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_repl_ack(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_cluster_status_response(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_trace_dump_request(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::decode_trace_dump_response(bytes); }
    catch (const CodecError&) {}
    try { (void)medcc::net::split_traced_solve_request(bytes); }
    catch (const CodecError&) {}
  }
}

TEST(NetCodec, ByteFlipsOfAValidRequestNeverCrash) {
  const std::string frame =
      medcc::net::encode_solve_request(example_request(), 1);
  const std::string_view body =
      std::string_view(frame).substr(medcc::net::kHeaderSize);
  medcc::util::Prng rng(0xF11Bu);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated(body);
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    try {
      const auto decoded = medcc::net::decode_solve_request(mutated);
      // A mutation may survive decoding; the result must still be a
      // coherent request object.
      ASSERT_NE(decoded.instance, nullptr);
    } catch (const CodecError&) {
      // structured rejection: exactly what the codec promises
    }
  }
}

// -- primitives -----------------------------------------------------------

TEST(NetCodec, WireReaderBoundsChecksEveryRead) {
  const std::string three_bytes = "abc";
  WireReader r(three_bytes);
  EXPECT_THROW((void)r.u32(), CodecError);

  ByteWriter w;
  w.u32(100);  // string claims 100 bytes; only 2 follow
  std::string claim = w.take() + "ab";
  WireReader r2(claim);
  EXPECT_THROW((void)r2.str(1 << 20), CodecError);

  ByteWriter w3;
  w3.str("0123456789");
  WireReader r3(w3.bytes());
  EXPECT_THROW((void)r3.str(4), CodecError);  // over the caller's max_len
}

TEST(NetCodec, DoublesTravelBitExactly) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::denorm_min(),
                           6.772151898734177};
  ByteWriter w;
  for (const double v : values) w.f64(v);
  WireReader r(w.bytes());
  for (const double v : values) expect_bits_equal(r.f64(), v);
  r.expect_done();
}

}  // namespace
