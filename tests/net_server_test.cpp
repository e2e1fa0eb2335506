// Loopback end-to-end behaviour of the net/ stack: a real epoll server
// in front of a real SchedulingService, driven by the blocking client
// over 127.0.0.1 -- single solves byte-identical to in-process
// submission, pipelined batches answered out of order, queue-deadline
// expiry and tenant-quota rejection crossing the wire intact, stats
// frames, malformed-byte handling on a raw socket, a pipelined burst
// answered alike whether sent whole or byte by byte, the client's v1
// hello downgrade against a scripted peer, and graceful shutdown
// draining an in-flight solve.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "expr/instance_gen.hpp"
#include "fake_peer.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "service/service.hpp"
#include "util/prng.hpp"
#include "util/socket.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::net::Client;
using medcc::net::ClientConfig;
using medcc::net::FrameHeader;
using medcc::net::FrameType;
using medcc::net::NetError;
using medcc::net::Server;
using medcc::net::ServerConfig;
using medcc::net::WireError;
using medcc::sched::Instance;
using medcc::service::Counter;
using medcc::service::RejectReason;
using medcc::service::ResponseStatus;
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

void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

ClientConfig client_for(const Server& server) {
  ClientConfig config;
  config.port = server.port();
  return config;
}

// A registry whose "block" solver parks on a latch, as in service_test.
class BlockingRegistryFixture {
public:
  BlockingRegistryFixture() {
    registry_.register_solver(
        "block", [this](const Instance& inst, double budget) {
          started_.count_down();
          release_future_.wait();
          return medcc::sched::critical_greedy(inst, budget);
        });
  }

  void wait_until_blocked() { started_.wait(); }
  void release() { release_.set_value(); }
  [[nodiscard]] const medcc::sched::SolverRegistry& registry() const {
    return registry_;
  }

private:
  std::latch started_{1};
  std::promise<void> release_;
  std::shared_future<void> release_future_{release_.get_future().share()};
  // The built-ins, sweeps included, with "block" on top.
  medcc::sched::SolverRegistry registry_{
      medcc::sched::SolverRegistry::built_in()};
};

TEST(NetServer, SolveOverLoopbackByteIdenticalToInProcess) {
  SchedulingService service({.threads = 2});
  Server server(service);
  Client client(client_for(server));

  const auto inst = example_instance();
  const SchedulingResponse remote = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(remote.ok()) << remote.error;

  // A fresh in-process service (empty cache) must agree bit-for-bit.
  SchedulingService local({.threads = 1});
  const SchedulingResponse in_process =
      local.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(remote.result.schedule, in_process.result.schedule);
  EXPECT_EQ(remote.result.iterations, in_process.result.iterations);
  expect_bits_equal(remote.result.eval.med, in_process.result.eval.med);
  expect_bits_equal(remote.result.eval.cost, in_process.result.eval.cost);
  EXPECT_EQ(remote.solver, in_process.solver);

  // And the wire bytes themselves must be reproducible: with the
  // wall-clock telemetry zeroed, encoding both responses under the same
  // id yields identical frames.
  SchedulingResponse remote_norm = remote;
  SchedulingResponse local_norm = in_process;
  remote_norm.queue_delay_ms = local_norm.queue_delay_ms = 0.0;
  remote_norm.solve_ms = local_norm.solve_ms = 0.0;
  EXPECT_EQ(medcc::net::encode_solve_response(remote_norm, 1),
            medcc::net::encode_solve_response(local_norm, 1));
}

/// The value of one "name value" line of a text stats dump; -1 if absent.
long long text_metric(const std::string& dump, const std::string& name) {
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line))
    if (line.rfind(name + " ", 0) == 0)
      return std::stoll(line.substr(name.size() + 1));
  return -1;
}

// The paper's evaluation protocol served over the wire: one instance at
// all 20 budget levels under cg and gain3. The instance is decoded once
// and interned; the other 39 requests reuse it, and every answer still
// equals an in-process solve of a request that carries no table entry.
TEST(NetServer, ServedBudgetSweepDecodesTheInstanceOnce) {
  SchedulingService service({.threads = 2});
  Server server(service);
  Client client(client_for(server));
  SchedulingService local({.threads = 1});

  medcc::util::Prng rng(2013);
  const auto inst = std::make_shared<const Instance>(
      medcc::expr::make_instance(medcc::expr::table4_sizes()[3], rng));
  const auto budgets = medcc::sched::budget_levels(
      medcc::sched::cost_bounds(*inst), 20);
  ASSERT_EQ(budgets.size(), 20u);
  for (const std::string solver : {"cg", "gain3"}) {
    for (const double budget : budgets) {
      SCOPED_TRACE(solver + " B=" + std::to_string(budget));
      const SchedulingResponse remote =
          client.solve(request_for(inst, budget, solver));
      const SchedulingRequest in_process_request =
          request_for(inst, budget, solver);
      ASSERT_EQ(in_process_request.interned, nullptr);
      const SchedulingResponse in_process =
          local.submit(in_process_request).get();
      ASSERT_TRUE(remote.ok()) << remote.error;
      ASSERT_TRUE(in_process.ok()) << in_process.error;
      EXPECT_EQ(remote.cache, in_process.cache);
      EXPECT_EQ(remote.result.schedule, in_process.result.schedule);
      EXPECT_EQ(remote.result.iterations, in_process.result.iterations);
      expect_bits_equal(remote.result.eval.med, in_process.result.eval.med);
      expect_bits_equal(remote.result.eval.cost, in_process.result.eval.cost);
    }
  }
  const std::string stats = client.stats();
  EXPECT_EQ(text_metric(stats, "instance_intern_misses"), 1);
  EXPECT_EQ(text_metric(stats, "instance_intern_hits"), 39);
  EXPECT_EQ(service.instance_table().stats().size, 1u);
}

// A 20-level cg + gain3 sweep interleaved over 33 instances, one more
// than the intern table holds, visited forwards then backwards at
// alternate levels: entries are evicted and re-decoded, so their solver
// sweeps are rebuilt, while most requests reuse a live one. Every
// response is byte-identical to encoding the in-process solver's result.
TEST(NetServer, SweepAcrossInternEvictionIsByteIdentical) {
  SchedulingService service({.threads = 2});
  Server server(service);
  Client client(client_for(server));

  constexpr std::size_t kInstances = medcc::service::kInstanceTableCapacity + 1;
  medcc::util::Prng rng(25);
  std::vector<std::shared_ptr<const Instance>> instances;
  std::vector<std::vector<double>> budgets;
  for (std::size_t k = 0; k < kInstances; ++k) {
    instances.push_back(std::make_shared<const Instance>(
        medcc::expr::make_instance(medcc::expr::table4_sizes()[3], rng)));
    budgets.push_back(medcc::sched::budget_levels(
        medcc::sched::cost_bounds(*instances.back()), 20));
  }
  const medcc::sched::SolverRegistry& solvers =
      medcc::sched::SolverRegistry::built_in();
  std::uint64_t id = 1;
  for (std::size_t level = 0; level < 20; ++level) {
    for (std::size_t visit = 0; visit < kInstances; ++visit) {
      const std::size_t k =
          level % 2 == 0 ? visit : kInstances - 1 - visit;
      for (const std::string solver : {"cg", "gain3"}) {
        const double budget = budgets[k][level];
        SCOPED_TRACE(solver + " instance " + std::to_string(k) +
                     " level " + std::to_string(level));
        SchedulingResponse remote =
            client.solve(request_for(instances[k], budget, solver));
        ASSERT_TRUE(remote.ok()) << remote.error;
        SchedulingResponse local;
        local.status = ResponseStatus::ok;
        local.cache = medcc::service::CacheOutcome::miss;
        local.solver = solver;
        local.result = (*solvers.find(solver))(*instances[k], budget);
        remote.queue_delay_ms = remote.solve_ms = 0.0;
        EXPECT_EQ(medcc::net::encode_solve_response(remote, id),
                  medcc::net::encode_solve_response(local, id));
        ++id;
      }
    }
  }
  const std::string stats = client.stats();
  const long long builds = text_metric(stats, "solver_sweep_builds");
  const long long reuses = text_metric(stats, "solver_sweep_reuses");
  EXPECT_GT(builds, static_cast<long long>(2 * kInstances));  // rebuilds
  EXPECT_GT(reuses, builds);
  EXPECT_EQ(builds + reuses, static_cast<long long>(2 * 20 * kInstances));
}

TEST(NetServer, CacheAndRejectionTaxonomyCrossTheWire) {
  SchedulingService service({.threads = 1});
  Server server(service);
  Client client(client_for(server));
  const auto inst = example_instance();

  const auto first = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.cache, medcc::service::CacheOutcome::miss);
  const auto second = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.cache, medcc::service::CacheOutcome::hit_exact);

  const auto unknown = client.solve(request_for(inst, 57.0, "frobnicate"));
  EXPECT_EQ(unknown.status, ResponseStatus::rejected);
  EXPECT_EQ(unknown.reject_reason, RejectReason::unknown_solver);

  const auto infeasible = client.solve(request_for(inst, 1.0));
  EXPECT_EQ(infeasible.status, ResponseStatus::failed);
  EXPECT_FALSE(infeasible.error.empty());
}

TEST(NetServer, BatchPipelinesAndReordersByRequestId) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 2;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));
  Server server(service);
  Client client(client_for(server));

  const auto inst = example_instance();
  std::vector<SchedulingRequest> batch;
  batch.push_back(request_for(inst, 57.0, "block"));  // finishes last
  batch.push_back(request_for(inst, 57.0, "cg"));     // finishes first
  batch.push_back(request_for(inst, 57.0, "no-such-solver"));

  // Release the blocked solver only after it is certainly parked, so
  // the cg response overtakes it on the wire.
  std::thread releaser([&fixture] {
    fixture.wait_until_blocked();
    fixture.release();
  });
  const auto responses = client.solve_batch(batch);
  releaser.join();

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok()) << responses[0].error;
  EXPECT_TRUE(responses[1].ok()) << responses[1].error;
  EXPECT_EQ(responses[2].status, ResponseStatus::rejected);
  EXPECT_EQ(responses[2].reject_reason, RejectReason::unknown_solver);
}

TEST(NetServer, QueueDeadlineExpiryCrossesTheWire) {
  BlockingRegistryFixture fixture;
  std::atomic<std::int64_t> now_ns{0};
  ServiceConfig config;
  config.threads = 1;
  config.registry = &fixture.registry();
  config.clock = [&now_ns] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(now_ns.load()));
  };
  SchedulingService service(std::move(config));
  Server server(service);
  Client client(client_for(server));

  const auto inst = example_instance();
  std::vector<SchedulingRequest> batch;
  batch.push_back(request_for(inst, 57.0, "block"));
  auto tight = request_for(inst, 57.0);
  tight.deadline_ms = 5.0;
  batch.push_back(std::move(tight));

  std::thread releaser([&fixture, &service, &now_ns] {
    fixture.wait_until_blocked();
    // The frames are pipelined: wait until the tight request has
    // actually been admitted behind the blocked worker before letting
    // time pass, or the worker could pick it up with zero queue delay.
    while (service.metrics().value(Counter::queue_depth) < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    now_ns.store(10'000'000);  // 10 ms pass while queued
    fixture.release();
  });
  const auto responses = client.solve_batch(batch);
  releaser.join();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok()) << responses[0].error;
  EXPECT_EQ(responses[1].status, ResponseStatus::rejected);
  EXPECT_EQ(responses[1].reject_reason, RejectReason::deadline_expired);
  EXPECT_GE(responses[1].queue_delay_ms, 10.0);
}

TEST(NetServer, TenantQuotaRejectionCrossesTheWire) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 1;
  config.max_inflight_per_tenant = 1;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));
  Server server(service);
  Client client(client_for(server));

  const auto inst = example_instance();
  auto hog = request_for(inst, 57.0, "block");
  hog.tenant = "greedy";
  auto excess = request_for(inst, 57.0);
  excess.tenant = "greedy";
  auto other = request_for(inst, 57.0);
  other.tenant = "patient";

  std::thread releaser([&fixture, &service] {
    fixture.wait_until_blocked();
    // Hold the quota slot until the pipelined excess request has been
    // rejected at admission; releasing earlier would free the slot and
    // let it through.
    while (service.metrics().value(Counter::tenant_quota_rejections) < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fixture.release();
  });
  const auto responses = client.solve_batch({hog, excess, other});
  releaser.join();

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok()) << responses[0].error;
  EXPECT_EQ(responses[1].status, ResponseStatus::rejected);
  EXPECT_EQ(responses[1].reject_reason, RejectReason::tenant_quota);
  EXPECT_TRUE(responses[2].ok()) << responses[2].error;
  EXPECT_EQ(service.metrics().value(Counter::tenant_quota_rejections), 1u);
}

TEST(NetServer, StatsFrameCarriesMetricsDump) {
  SchedulingService service({.threads = 1});
  Server server(service);
  Client client(client_for(server));
  (void)client.solve(request_for(example_instance(), 57.0));

  const std::string text = client.stats();
  EXPECT_NE(text.find("requests_total 1"), std::string::npos);
  EXPECT_NE(text.find("tenant_quota_rejections 0"), std::string::npos);

  const std::string csv = client.stats(medcc::net::StatsFormat::csv);
  EXPECT_EQ(csv.rfind("metric,value\n", 0), 0u);
}

TEST(NetServer, GracefulShutdownDrainsInFlightSolve) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 1;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));
  auto server = std::make_unique<Server>(service);
  const std::uint16_t port = server->port();

  Client client(client_for(*server));
  std::promise<SchedulingResponse> delivered;
  std::thread solver([&client, &delivered] {
    delivered.set_value(client.solve(
        request_for(example_instance(), 57.0, "block")));
  });
  fixture.wait_until_blocked();

  // stop() must wait for the in-flight solve and flush its response.
  std::thread stopper([&server] { server->stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fixture.release();
  stopper.join();
  solver.join();

  const SchedulingResponse response = delivered.get_future().get();
  EXPECT_TRUE(response.ok()) << response.error;

  // The listener is gone: a fresh connection is refused.
  ClientConfig refused;
  refused.port = port;
  refused.connect_attempts = 1;
  Client late(refused);
  EXPECT_THROW(late.connect(), NetError);
}

TEST(NetServer, LateCompletionAfterServerDestructionIsSafe) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 1;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));
  ServerConfig server_config;
  server_config.drain_grace_ms = 10.0;  // expire long before the solve ends
  auto server = std::make_unique<Server>(service, server_config);

  Client client(client_for(*server));
  std::thread solver([&client] {
    try {
      (void)client.solve(request_for(example_instance(), 57.0, "block"));
    } catch (const NetError&) {
      // Expected: the grace period lapses with the solve still parked,
      // so the server closes the connection under us.
    }
  });
  fixture.wait_until_blocked();

  // Destroy the Server while its completion callback has yet to run.
  // The callback must post into the shared completion queue, not the
  // dead Server -- ASan catches the use-after-free this regresses.
  server->stop();
  server.reset();
  fixture.release();
  service.drain();
  solver.join();
}

// -- raw-socket malformed-byte handling -----------------------------------

/// A bare blocking TCP connection for speaking deliberately broken
/// protocol at the server.
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

  /// Sends `bytes` one byte per write with Nagle off, so the frames
  /// reach the server in many small pieces.
  void send_bytewise(std::string_view bytes) {
    medcc::util::set_tcp_nodelay(fd_.get());
    for (std::size_t i = 0; i < bytes.size(); ++i) send(bytes.substr(i, 1));
  }

  /// Reads one full frame (blocking); returns false on orderly EOF.
  bool read_frame(FrameHeader& header, std::string& body) {
    for (;;) {
      const auto parsed = medcc::net::parse_frame_header(buffer_);
      if (parsed && buffer_.size() >= medcc::net::kHeaderSize +
                                          parsed->body_size) {
        header = *parsed;
        body = buffer_.substr(medcc::net::kHeaderSize, parsed->body_size);
        buffer_.erase(0, medcc::net::kHeaderSize + parsed->body_size);
        return true;
      }
      char chunk[4096];
      const long n = medcc::util::recv_some(fd_.get(), chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed its end (EOF observed).
  bool server_closed() {
    char chunk[64];
    for (;;) {
      const long n = medcc::util::recv_some(fd_.get(), chunk, sizeof(chunk));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

private:
  medcc::util::FdHandle fd_;
  std::string buffer_;
};

TEST(NetServer, MalformedBodyAnswersErrorFrameAndKeepsConnection) {
  SchedulingService service({.threads = 1});
  Server server(service);
  RawConn conn(server.port());

  // A sound frame whose body is garbage: the stream stays in sync, so
  // the server must answer with an error frame and keep the connection.
  conn.send(medcc::net::encode_frame(FrameType::solve_request, 77,
                                     "not a scheduling request"));
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(conn.read_frame(header, body));
  EXPECT_EQ(header.type, FrameType::error);
  EXPECT_EQ(header.request_id, 77u);
  const auto fault = medcc::net::decode_error(body);
  EXPECT_EQ(fault.code, WireError::limit_exceeded);  // garbage string length

  // The same connection still serves well-formed traffic.
  conn.send(medcc::net::encode_stats_request(medcc::net::StatsFormat::text, 78));
  ASSERT_TRUE(conn.read_frame(header, body));
  EXPECT_EQ(header.type, FrameType::stats_response);
  EXPECT_EQ(header.request_id, 78u);

  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters[Counter::protocol_errors], 1u);
}

TEST(NetServer, MalformedHeaderClosesConnectionAfterErrorFrame) {
  SchedulingService service({.threads = 1});
  Server server(service);
  RawConn conn(server.port());

  conn.send("this is definitely not the MDCC magic....");
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(conn.read_frame(header, body));
  EXPECT_EQ(header.type, FrameType::error);
  const auto fault = medcc::net::decode_error(body);
  EXPECT_EQ(fault.code, WireError::bad_magic);
  EXPECT_TRUE(conn.server_closed());
}

TEST(NetServer, WriteBackpressurePausesReadingAndRecovers) {
  SchedulingService service({.threads = 1});
  ServerConfig config;
  config.max_conn_outbuf = 128;  // force the high-water mark immediately
  Server server(service, config);
  RawConn conn(server.port());

  // Pipeline a burst of stats requests without reading anything back:
  // the response bytes pile up server-side, reading must pause at the
  // high-water mark, then resume as we drain -- and every buffered
  // request must still be answered exactly once.
  constexpr std::uint64_t kBurst = 50;
  std::string burst;
  for (std::uint64_t id = 1; id <= kBurst; ++id)
    burst +=
        medcc::net::encode_stats_request(medcc::net::StatsFormat::text, id);
  conn.send(burst);

  std::vector<bool> seen(kBurst + 1, false);
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    FrameHeader header;
    std::string body;
    ASSERT_TRUE(conn.read_frame(header, body));
    ASSERT_EQ(header.type, FrameType::stats_response);
    ASSERT_GE(header.request_id, 1u);
    ASSERT_LE(header.request_id, kBurst);
    EXPECT_FALSE(seen[header.request_id]);
    seen[header.request_id] = true;
  }
  EXPECT_GE(service.metrics().value(Counter::backpressure_paused), 1u);
}

TEST(NetServer, PipelinedBurstAnswersAlikeWholeOrByteByByte) {
  // Four solves whose answers the wire cache already holds (memoized as
  // a served solve would have left them) interleaved with four stats
  // requests. Every answer is then produced on the reactor thread in
  // frame order, so the bytes per id depend only on the frames, not on
  // where the stream was cut.
  const auto inst = example_instance();
  SchedulingService solver({.threads = 1});
  std::vector<std::pair<std::string, std::string>> memo;
  std::string burst;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    if (id % 2 == 0) {
      burst +=
          medcc::net::encode_stats_request(medcc::net::StatsFormat::text, id);
      continue;
    }
    const SchedulingRequest request =
        request_for(inst, 50.0 + static_cast<double>(id));
    SchedulingResponse response = solver.submit(request).get();
    ASSERT_TRUE(response.ok()) << response.error;
    response.queue_delay_ms = 0.0;
    response.solve_ms = 0.0;
    response.cache = medcc::service::CacheOutcome::hit_exact;
    const std::string frame = medcc::net::encode_solve_request(request, id);
    memo.emplace_back(frame.substr(medcc::net::kHeaderSize),
                      medcc::net::encode_solve_response(response, 0));
    burst += frame;
  }

  const auto answers = [&](bool bytewise) {
    SchedulingService service({.threads = 1});
    for (const auto& [body, frame] : memo)
      service.wire_cache()->insert(std::string_view(body), frame);
    Server server(service);
    RawConn conn(server.port());
    if (bytewise)
      conn.send_bytewise(burst);
    else
      conn.send(burst);
    std::map<std::uint64_t, std::string> by_id;
    for (int i = 0; i < 8; ++i) {
      FrameHeader header;
      std::string body;
      EXPECT_TRUE(conn.read_frame(header, body));
      by_id[header.request_id] =
          medcc::net::encode_frame(header.type, header.request_id, body);
    }
    EXPECT_EQ(service.metrics().value(Counter::wire_fastpath_hits), 4u);
    return by_id;
  };
  const auto whole = answers(false);
  ASSERT_EQ(whole.size(), 8u);
  EXPECT_EQ(whole.begin()->first, 1u);
  EXPECT_EQ(answers(true), whole);
}

// -- wire-cache fast path --------------------------------------------------

TEST(NetServer, FastPathServesByteIdenticalMemoizedFrame) {
  SchedulingService service({.threads = 1});
  Server server(service);
  RawConn conn(server.port());

  const auto inst = example_instance();
  const std::string request_frame =
      medcc::net::encode_solve_request(request_for(inst, 57.0), 5);

  // First occurrence: full path (decode, solve, encode); memoizes the
  // template frame on completion.
  conn.send(request_frame);
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(conn.read_frame(header, body));
  ASSERT_EQ(header.type, FrameType::solve_response);
  EXPECT_EQ(header.request_id, 5u);
  const SchedulingResponse first = medcc::net::decode_solve_response(body);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.cache, medcc::service::CacheOutcome::miss);
  EXPECT_EQ(service.metrics().value(Counter::wire_fastpath_hits), 0u);

  // Verbatim duplicate under a different id: must be served from the
  // wire cache, byte-identical to the memoized template with only the
  // request id patched.
  std::string duplicate = request_frame;
  duplicate[8] = 9;  // little-endian id 9 (upper bytes stay zero)
  conn.send(duplicate);
  ASSERT_TRUE(conn.read_frame(header, body));
  ASSERT_EQ(header.type, FrameType::solve_response);
  EXPECT_EQ(header.request_id, 9u);

  SchedulingResponse norm = first;
  norm.queue_delay_ms = 0.0;
  norm.solve_ms = 0.0;
  norm.cache = medcc::service::CacheOutcome::hit_exact;
  // Reassembling the received frame from its parsed parts reproduces
  // the raw bytes (the header has no other degrees of freedom).
  EXPECT_EQ(medcc::net::encode_frame(header.type, header.request_id, body),
            medcc::net::encode_solve_response(norm, 9));

  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::wire_fastpath_hits], 1u);
  EXPECT_EQ(snap[Counter::wire_fastpath_misses], 1u);  // the priming request
  // The fast path never entered the service: one request total.
  EXPECT_EQ(snap[Counter::requests_total], 1u);
}

/// One Prometheus exposition sample line, split into its parts.
struct PromSample {
  std::string name;
  std::string labels;  ///< the "{...}" block, or empty
  std::string value;
};

/// Splits `line` as `name{labels} value`: a name of [a-zA-Z_:] then
/// [a-zA-Z0-9_:]*, an optional brace block with no brace inside, one
/// space, and a value of one or more non-space characters running to the
/// end of the line. nullopt when the line has another shape.
std::optional<PromSample> split_sample(const std::string& line) {
  const auto name_char = [](char c, bool first) {
    const auto u = static_cast<unsigned char>(c);
    return std::isalpha(u) != 0 || c == '_' || c == ':' ||
           (!first && std::isdigit(u) != 0);
  };
  std::size_t i = 0;
  while (i < line.size() && name_char(line[i], i == 0)) ++i;
  if (i == 0) return std::nullopt;
  PromSample sample;
  sample.name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find_first_of("{}", i + 1);
    if (close == std::string::npos || line[close] != '}') return std::nullopt;
    sample.labels = line.substr(i, close + 1 - i);
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return std::nullopt;
  sample.value = line.substr(i + 1);
  if (sample.value.empty() ||
      sample.value.find_first_of(" \t\n\r\f\v") != std::string::npos)
    return std::nullopt;
  return sample;
}

TEST(NetServer, PrometheusSampleSplitterAcceptsOnlySampleLines) {
  const auto plain = split_sample("medcc_requests_total 12");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->name, "medcc_requests_total");
  EXPECT_EQ(plain->labels, "");
  EXPECT_EQ(plain->value, "12");
  const auto labelled = split_sample(R"(a:b_1{x="1",y="a b"} 0.5)");
  ASSERT_TRUE(labelled.has_value());
  EXPECT_EQ(labelled->name, "a:b_1");
  EXPECT_EQ(labelled->labels, R"({x="1",y="a b"})");
  EXPECT_EQ(labelled->value, "0.5");
  for (const char* bad :
       {"", "1abc 2", "abc", "abc ", "abc  2", "abc 2 3", "abc{x} ",
        "abc{x 2", "abc{x{y}} 2", "abc{}x 2", "a-b 2", "abc 2\t"})
    EXPECT_FALSE(split_sample(bad).has_value()) << bad;
}

// A live Prometheus scrape through the stats frame is well formed and
// carries the transport rows next to the service's own.
TEST(NetServer, LivePrometheusScrapeIsWellFormedAndCarriesTransport) {
  SchedulingService service({.threads = 1});
  Server server(service);
  Client client(client_for(server));
  const auto inst = example_instance();
  ASSERT_TRUE(client.solve(request_for(inst, 57.0)).ok());  // solved
  ASSERT_TRUE(client.solve(request_for(inst, 57.0)).ok());  // wire hit
  const std::string scrape =
      client.stats(medcc::net::StatsFormat::prometheus);

  std::map<std::string, std::string> typed;  // family -> type
  std::set<std::string> seen;
  std::map<std::string, double> value_of;
  std::istringstream lines(scrape);
  std::string line;
  while (std::getline(lines, line)) {
    SCOPED_TRACE(line);
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family;
      std::string type;
      fields >> family >> type;
      EXPECT_TRUE(typed.emplace(family, type).second) << "family typed twice";
      continue;
    }
    const std::optional<PromSample> sample = split_sample(line);
    ASSERT_TRUE(sample.has_value()) << "not a sample";
    const std::string& name = sample->name;
    const std::string key = name + sample->labels;
    EXPECT_TRUE(seen.insert(key).second) << "series repeats";
    std::size_t used = 0;
    value_of[key] = std::stod(sample->value, &used);
    EXPECT_EQ(used, sample->value.size()) << "value is not a number";
    // A histogram's samples carry a suffix on the family name.
    std::string family = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"})
      if (!typed.contains(family) && name.ends_with(suffix))
        family = name.substr(0, name.size() - suffix.size());
    EXPECT_TRUE(typed.contains(family)) << "sample before its # TYPE";
  }
  EXPECT_GT(value_of["medcc_frames_total{direction=\"in\"}"], 0.0);
  EXPECT_DOUBLE_EQ(value_of["medcc_wire_fastpath_total{outcome=\"hit\"}"],
                   1.0);
  EXPECT_DOUBLE_EQ(value_of["medcc_protocol_errors_total"], 0.0);
}

TEST(NetServer, FastPathAbsentWhenWireCacheDisabled) {
  ServiceConfig config;
  config.threads = 1;
  config.wire_cache_capacity = 0;
  SchedulingService service(std::move(config));
  Server server(service);
  Client client(client_for(server));

  const auto inst = example_instance();
  const auto first = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(first.ok()) << first.error;
  const auto second = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(second.ok()) << second.error;
  // The result cache still answers, but through the full service path.
  EXPECT_EQ(second.cache, medcc::service::CacheOutcome::hit_exact);
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::wire_fastpath_hits], 0u);
  EXPECT_EQ(snap[Counter::wire_fastpath_misses], 0u);
  EXPECT_EQ(snap[Counter::requests_total], 2u);
}

// -- multi-reactor ---------------------------------------------------------

TEST(NetServer, MultiReactorShardsConnectionsAndServesAll) {
  SchedulingService service({.threads = 2});
  ServerConfig config;
  config.io_threads = 3;
  Server server(service, config);
  EXPECT_EQ(server.reactor_count(), 3u);

  // More connections than reactors, so every reactor owns at least one
  // (round-robin sharding); each connection does a solve and a stats
  // exchange.
  const auto inst = example_instance();
  constexpr std::size_t kClients = 6;
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(client_for(server)));
    const auto response = clients[i]->solve(request_for(inst, 57.0));
    ASSERT_TRUE(response.ok()) << response.error;
  }
  for (auto& client : clients)
    EXPECT_NE(client->stats().find("requests_total"), std::string::npos);

  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters[Counter::connections_accepted], kClients);
  EXPECT_EQ(counters[Counter::connections_active], kClients);
  EXPECT_EQ(counters[Counter::frames_in], 2 * kClients);
  EXPECT_EQ(counters[Counter::frames_out], 2 * kClients);
  // Identical bodies: every solve after the first rides the fast path.
  EXPECT_EQ(counters[Counter::wire_fastpath_hits], kClients - 1);

  server.stop();
  EXPECT_EQ(service.metrics().value(Counter::connections_active), 0u);
}

TEST(NetServer, FlowControlRejectsExcessInflightFrames) {
  BlockingRegistryFixture fixture;
  ServiceConfig service_config;
  service_config.threads = 1;
  service_config.registry = &fixture.registry();
  SchedulingService service(std::move(service_config));
  ServerConfig server_config;
  server_config.max_inflight_frames = 1;
  Server server(service, server_config);

  const auto inst = example_instance();
  RawConn conn(server.port());
  // Two pipelined solves on one connection: the first occupies the
  // single in-flight slot (parked in the solver), so the second must be
  // shed with a structured flow_control rejection -- not a close, not
  // an error frame.
  conn.send(medcc::net::encode_solve_request(request_for(inst, 57.0, "block"),
                                             1));
  fixture.wait_until_blocked();
  conn.send(medcc::net::encode_solve_request(request_for(inst, 57.0), 2));

  FrameHeader header;
  std::string body;
  ASSERT_TRUE(conn.read_frame(header, body));
  ASSERT_EQ(header.type, FrameType::solve_response);
  EXPECT_EQ(header.request_id, 2u);
  const SchedulingResponse shed = medcc::net::decode_solve_response(body);
  EXPECT_EQ(shed.status, ResponseStatus::rejected);
  EXPECT_EQ(shed.reject_reason, RejectReason::flow_control);

  // The occupant finishes normally once released: the connection and
  // its first request survived the shedding.
  fixture.release();
  ASSERT_TRUE(conn.read_frame(header, body));
  EXPECT_EQ(header.request_id, 1u);
  EXPECT_TRUE(medcc::net::decode_solve_response(body).ok());
  EXPECT_EQ(service.metrics().value(Counter::rejected_flow_control), 1u);
}

TEST(NetServer, HelloNegotiatesVersionAndFeatures) {
  SchedulingService service({.threads = 1});
  ServerConfig with_repl;
  with_repl.node_id = "alpha";
  with_repl.repl_apply = [](std::string_view) { return true; };
  Server server(service, with_repl);

  Client client(client_for(server));
  medcc::net::Hello offer;
  offer.version = medcc::net::kMaxVersion;
  offer.features = medcc::net::kFeatureReplication;
  offer.node_id = "tester";
  const auto granted = client.hello(offer);
  EXPECT_EQ(granted.version, medcc::net::kVersion2);
  EXPECT_EQ(granted.features & medcc::net::kFeatureReplication,
            medcc::net::kFeatureReplication);
  EXPECT_EQ(granted.node_id, "alpha");
  EXPECT_EQ(service.metrics().value(Counter::hellos), 1u);

  // Without a replication hook the feature bit is masked off.
  SchedulingService plain_service({.threads = 1});
  Server plain(plain_service);
  Client plain_client(client_for(plain));
  EXPECT_EQ(plain_client.hello(offer).features &
                medcc::net::kFeatureReplication,
            0u);

  // A v1 offer is granted v1 (the server never talks up).
  offer.version = 1;
  Client v1_client(client_for(server));
  EXPECT_EQ(v1_client.hello(offer).version, 1u);
}

TEST(NetServer, HelloToAV1PeerDowngradesAndNextCallReconnects) {
  // A v1 node cannot frame the v2 hello: it answers with a stream-level
  // error frame (request id 0) and closes the connection.
  medcc::test::FakePeer v1_peer(medcc::net::encode_error(
      WireError::bad_frame_type, "wire: unknown frame type 6", 0));
  ClientConfig config;
  config.port = v1_peer.port();
  config.request_timeout_ms = 10000.0;
  Client client(config);
  medcc::net::Hello offer;
  offer.features = medcc::net::kFeatureReplication;

  const auto granted = client.hello(offer);
  EXPECT_EQ(granted.version, medcc::net::kVersion);
  EXPECT_EQ(granted.features, 0u);
  EXPECT_FALSE(client.connected());

  const auto again = client.hello(offer);
  EXPECT_EQ(again.version, medcc::net::kVersion);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(v1_peer.answered(), 2u);  // one connection per call
}

TEST(NetServer, ReplInsertRestoresEntryServedByteIdentically) {
  const auto inst = example_instance();
  // Origin: solve once, capture the replication payload.
  std::string payload;
  ServiceConfig origin_config;
  origin_config.threads = 1;
  origin_config.on_cache_insert = [&payload](std::string bytes,
                                             medcc::obs::TraceContext) {
    payload = std::move(bytes);
  };
  SchedulingService origin(std::move(origin_config));
  const auto solved = origin.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(solved.ok());
  ASSERT_FALSE(payload.empty());

  // Receiver: a server whose repl_apply restores into its service.
  SchedulingService receiver({.threads = 1});
  ServerConfig receiver_config;
  receiver_config.repl_apply = [&receiver](std::string_view bytes) {
    return receiver.apply_replicated_record(bytes);
  };
  Server server(receiver, receiver_config);
  Client client(client_for(server));

  const auto acks = client.repl_insert_batch({{payload, {}}});
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].applied) << acks[0].error;
  EXPECT_EQ(receiver.metrics().value(Counter::repl_records_in), 1u);
  EXPECT_EQ(receiver.metrics().value(Counter::repl_applied), 1u);

  // The receiver never solved, yet serves the duplicate byte-exactly.
  const auto hit = client.solve(request_for(inst, 57.0));
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_EQ(hit.cache, medcc::service::CacheOutcome::hit_exact);
  EXPECT_EQ(hit.result.schedule, solved.result.schedule);
  expect_bits_equal(hit.result.eval.med, solved.result.eval.med);
  expect_bits_equal(hit.result.eval.cost, solved.result.eval.cost);

  // Garbage records are acked applied=false, stream intact.
  const auto bad = client.repl_insert_batch({{"not a cache record", {}}});
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_FALSE(bad[0].applied);
  EXPECT_FALSE(bad[0].error.empty());

  // A node without the hook refuses politely instead of closing.
  SchedulingService no_repl({.threads = 1});
  Server no_repl_server(no_repl);
  Client no_repl_client(client_for(no_repl_server));
  const auto refused = no_repl_client.repl_insert_batch({{payload, {}}});
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_FALSE(refused[0].applied);
}

TEST(NetServer, ClusterStatusServedFromHookAndDefault) {
  SchedulingService service({.threads = 1});
  ServerConfig config;
  config.node_id = "beta";
  config.cluster_status = [] {
    medcc::net::ClusterStatus status;
    status.node_id = "beta";
    status.repl_applied = 7;
    medcc::net::ClusterPeerStatus peer;
    peer.address = "127.0.0.1:9999";
    peer.state = "connected";
    peer.peer_version = 2;
    peer.sent = 3;
    peer.acked = 3;
    status.peers.push_back(std::move(peer));
    return status;
  };
  Server server(service, config);
  Client client(client_for(server));

  const auto status = client.cluster_status();
  EXPECT_EQ(status.node_id, "beta");
  EXPECT_EQ(status.repl_applied, 7u);
  ASSERT_EQ(status.peers.size(), 1u);
  EXPECT_EQ(status.peers[0].state, "connected");
  EXPECT_EQ(status.peers[0].acked, 3u);

  // Hook-less server: a one-replica cluster.
  SchedulingService solo_service({.threads = 1});
  ServerConfig solo_config;
  solo_config.node_id = "solo";
  Server solo(solo_service, solo_config);
  Client solo_client(client_for(solo));
  const auto solo_status = solo_client.cluster_status();
  EXPECT_EQ(solo_status.node_id, "solo");
  EXPECT_EQ(solo_status.protocol_version, medcc::net::kMaxVersion);
  EXPECT_TRUE(solo_status.peers.empty());
}

TEST(NetServer, ServerSideClusterFramesFromClientAreAbuse) {
  SchedulingService service({.threads = 1});
  Server server(service);
  RawConn conn(server.port());
  medcc::net::ReplAck ack;
  ack.applied = true;
  conn.send(medcc::net::encode_repl_ack(ack, 5));
  FrameHeader header;
  std::string body;
  ASSERT_TRUE(conn.read_frame(header, body));
  EXPECT_EQ(header.type, FrameType::error);
  EXPECT_EQ(medcc::net::decode_error(body).code, WireError::unexpected_frame);
  EXPECT_TRUE(conn.server_closed());
}

TEST(NetServer, IdleConnectionsAreReaped) {
  SchedulingService service({.threads = 1});
  ServerConfig config;
  config.idle_timeout_ms = 50.0;
  Server server(service, config);
  RawConn conn(server.port());
  // Send nothing; the sweep must close us within a few periods.
  EXPECT_TRUE(conn.server_closed());
  // Allow the counter update to land before asserting.
  for (int i = 0;
       i < 100 && service.metrics().value(Counter::idle_closed) == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(service.metrics().value(Counter::idle_closed), 1u);
}

}  // namespace
