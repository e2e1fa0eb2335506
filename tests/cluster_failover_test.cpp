// Failover across a 3-replica in-process cluster: tenant-sharded
// ClusterClient traffic, one replica hard-stopped while load is
// running, zero lost responses, and byte-identical results from the
// survivors' replicated caches. A replica that answers with a corrupt
// frame is failed over like any other stream fault. The multi-threaded
// kill-mid-load test doubles as the TSan stress for the cluster
// subsystem.
#include "net/cluster_client.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/replicator.hpp"
#include "fake_peer.hpp"
#include "net/endpoint.hpp"
#include "net/server.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::cluster::ClusterConfig;
using medcc::cluster::Replicator;
using medcc::net::ClusterClient;
using medcc::net::ClusterClientConfig;
using medcc::net::Endpoint;
using medcc::net::Server;
using medcc::net::ServerConfig;
using medcc::sched::Instance;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;

std::shared_ptr<const Instance> example_instance() {
  return std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
}

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget, std::string tenant) {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = "cg";
  req.tenant = std::move(tenant);
  return req;
}

void expect_identical(const SchedulingResponse& a,
                      const SchedulingResponse& b) {
  EXPECT_EQ(a.result.schedule, b.result.schedule);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.eval.med),
            std::bit_cast<std::uint64_t>(b.result.eval.med));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.eval.cost),
            std::bit_cast<std::uint64_t>(b.result.eval.cost));
}

/// A full-mesh 3-replica cluster living in this process.
class ClusterFixture {
public:
  static constexpr std::size_t kNodes = 3;

  ClusterFixture() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto& node = nodes_[i];
      node.repl_slot =
          std::make_shared<std::atomic<Replicator*>>(nullptr);
      ServiceConfig service_config;
      service_config.threads = 2;
      service_config.queue_capacity = 4096;
      service_config.on_cache_insert =
          [slot = node.repl_slot](std::string payload,
                                  medcc::obs::TraceContext trace) {
        if (auto* repl = slot->load(std::memory_order_acquire))
          repl->publish(payload, trace);
      };
      node.service =
          std::make_unique<SchedulingService>(std::move(service_config));
      ServerConfig server_config;
      server_config.io_threads = 1;
      server_config.node_id = "node" + std::to_string(i);
      server_config.repl_apply = [svc = node.service.get()](
                                     std::string_view payload) {
        return svc->apply_replicated_record(payload);
      };
      node.server =
          std::make_unique<Server>(*node.service, server_config);
      endpoints_.push_back({"127.0.0.1", node.server->port()});
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      ClusterConfig cluster_config;
      cluster_config.node_id = "node" + std::to_string(i);
      for (std::size_t j = 0; j < kNodes; ++j)
        if (j != i) cluster_config.peers.push_back(endpoints_[j]);
      nodes_[i].replicator =
          std::make_unique<Replicator>(std::move(cluster_config));
      nodes_[i].repl_slot->store(nodes_[i].replicator.get(),
                                 std::memory_order_release);
      nodes_[i].replicator->start();
    }
  }

  ~ClusterFixture() {
    for (auto& node : nodes_) {
      node.replicator->stop();
      node.server->stop();
      node.service->shutdown();
    }
  }

  [[nodiscard]] ClusterClientConfig client_config() const {
    ClusterClientConfig config;
    config.endpoints = endpoints_;
    config.down_cooldown_ms = 100.0;
    return config;
  }

  /// True when every replication queue is drained and acked.
  [[nodiscard]] bool replication_settled() const {
    for (const auto& node : nodes_)
      for (const auto& peer : node.replicator->status().peers)
        if (peer.queued != 0 || peer.sent != peer.acked) return false;
    return true;
  }

  void await_settled() {
    for (int i = 0; i < 1000; ++i) {
      if (replication_settled()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "replication did not settle";
  }

  void stop_node(std::size_t index) { nodes_[index].server->stop(); }

  [[nodiscard]] const SchedulingService& service(std::size_t index) const {
    return *nodes_[index].service;
  }

private:
  struct Node {
    std::shared_ptr<std::atomic<Replicator*>> repl_slot;
    std::unique_ptr<SchedulingService> service;
    std::unique_ptr<Server> server;
    std::unique_ptr<Replicator> replicator;
  };
  Node nodes_[kNodes];
  std::vector<Endpoint> endpoints_;
};

TEST(ClusterFailover, SurvivorServesByteIdenticalReplicatedHit) {
  ClusterFixture cluster;
  ClusterClient client(cluster.client_config());
  const auto inst = example_instance();

  const std::string tenant = "tenant-of-interest";
  const auto primed = client.solve(request_for(inst, 57.0, tenant));
  ASSERT_TRUE(primed.ok()) << primed.error;
  cluster.await_settled();

  // Hard-stop the tenant's primary; the ring walk must land on a
  // survivor whose replicated cache answers identically.
  const std::size_t primary = client.primary_index(tenant);
  cluster.stop_node(primary);
  const auto failed_over = client.solve(request_for(inst, 57.0, tenant));
  ASSERT_TRUE(failed_over.ok()) << failed_over.error;
  expect_identical(failed_over, primed);

  std::uint64_t failovers = 0;
  for (const auto& stat : client.stats()) failovers += stat.failovers;
  EXPECT_GE(failovers, 1u);
  EXPECT_TRUE(client.stats()[primary].down);

  // Subsequent solves for the tenant keep working without the primary.
  for (int i = 0; i < 3; ++i) {
    const auto again = client.solve(request_for(inst, 57.0, tenant));
    ASSERT_TRUE(again.ok());
    expect_identical(again, primed);
  }
}

TEST(ClusterFailover, CorruptReplyFromPrimaryFailsOverToSurvivor) {
  // The tenant's primary is a scripted replica that answers with a
  // frame whose header is garbage: a stream fault like any other, so
  // the ring walk must carry the request to the real replica.
  medcc::test::FakePeer corrupt(std::string(medcc::net::kHeaderSize, 'X'));
  SchedulingService service({.threads = 1});
  Server survivor(service);
  ClusterClientConfig config;
  config.endpoints = {{"127.0.0.1", corrupt.port()},
                      {"127.0.0.1", survivor.port()}};
  config.request_timeout_ms = 10000.0;
  ClusterClient client(config);
  std::string tenant;
  for (int i = 0; tenant.empty(); ++i)
    if (client.primary_index("tenant-" + std::to_string(i)) == 0)
      tenant = "tenant-" + std::to_string(i);

  const auto response =
      client.solve(request_for(example_instance(), 57.0, tenant));
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(corrupt.answered(), 1u);
  const auto stats = client.stats();
  EXPECT_EQ(stats[0].errors, 1u);
  EXPECT_TRUE(stats[0].down);
  EXPECT_EQ(stats[1].ok, 1u);
  EXPECT_EQ(stats[1].failovers, 1u);
}

TEST(ClusterFailover, KillMidLoadLosesNoResponses) {
  ClusterFixture cluster;
  const auto inst = example_instance();
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 40;  // half before the kill, half after

  // Prime every tenant and record the reference result to compare
  // against (solves are deterministic, so every later answer -- cached,
  // replicated, or re-solved -- must be bit-identical).
  std::vector<SchedulingResponse> reference;
  {
    ClusterClient primer(cluster.client_config());
    for (std::size_t t = 0; t < kTenants; ++t) {
      reference.push_back(
          primer.solve(request_for(inst, 57.0, "tenant-" + std::to_string(t))));
      ASSERT_TRUE(reference.back().ok()) << reference.back().error;
    }
  }
  cluster.await_settled();

  // Every thread arrives at the latch halfway through its quota; the
  // main thread then stops node 0 while the second halves are still in
  // flight -- a genuine kill under load.
  std::latch halfway(kThreads);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClusterClient client(cluster.client_config());
      bool arrived = false;
      for (std::size_t k = 0; k < kPerThread; ++k) {
        if (!arrived && k >= kPerThread / 2) {
          halfway.count_down();
          arrived = true;
        }
        const std::size_t tenant = (t + k) % kTenants;
        try {
          const auto response = client.solve(
              request_for(inst, 57.0, "tenant-" + std::to_string(tenant)));
          if (!response.ok()) {
            ADD_FAILURE() << "lost response: " << response.error;
            failed.store(true);
            return;
          }
          expect_identical(response, reference[tenant]);
        } catch (const std::exception& ex) {
          ADD_FAILURE() << "lost response: " << ex.what();
          failed.store(true);
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      if (!arrived) halfway.count_down();
    });
  }
  halfway.wait();
  cluster.stop_node(0);
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
}

}  // namespace
