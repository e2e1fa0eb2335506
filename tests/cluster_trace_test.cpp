// Trace propagation across a 3-replica in-process cluster: ONE trace
// id, minted once at the client edge, must name the whole journey --
// the solve on the tenant's primary, the replication apply on each
// peer, and (after the primary is hard-stopped) the client's failover
// retry onto a survivor. The primary's repl_push and each peer's
// repl_apply also land in that node's stage rows of the metrics table.
// This is the acceptance scenario of the observability PR, driven
// in-process instead of via medcc_tracectl.
#include "net/cluster_client.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/replicator.hpp"
#include "net/client.hpp"
#include "net/endpoint.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::cluster::ClusterConfig;
using medcc::cluster::Replicator;
using medcc::net::Client;
using medcc::net::ClientConfig;
using medcc::net::ClusterClient;
using medcc::net::ClusterClientConfig;
using medcc::net::Endpoint;
using medcc::net::Server;
using medcc::net::ServerConfig;
using medcc::net::TraceDump;
using medcc::obs::Stage;
using medcc::obs::Span;
using medcc::obs::TraceId;
using medcc::obs::TraceRecord;
using medcc::obs::Tracer;
using medcc::sched::Instance;
using medcc::service::Latency;
using medcc::service::SchedulingRequest;
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

bool has_stage(const TraceRecord& record, Stage stage) {
  for (const Span& span : record.spans)
    if (span.stage == stage) return true;
  return false;
}

/// Records with the given id, from a tracer's retained ring.
std::vector<TraceRecord> records_with_id(const Tracer& tracer,
                                         const TraceId& id) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& record : tracer.recent(256))
    if (record.id == id) out.push_back(record);
  return out;
}

/// The 3-replica fixture of cluster_failover_test, with a sample-every
/// tracer on every node so each request's journey is fully retained.
class TracedClusterFixture {
public:
  static constexpr std::size_t kNodes = 3;

  TracedClusterFixture() {
    Tracer::Config trace_config;
    trace_config.sample_every = 1;  // retain everything
    for (std::size_t i = 0; i < kNodes; ++i) {
      auto& node = nodes_[i];
      node.tracer = std::make_unique<Tracer>(trace_config);
      node.repl_slot =
          std::make_shared<std::atomic<Replicator*>>(nullptr);
      ServiceConfig service_config;
      service_config.threads = 2;
      service_config.queue_capacity = 4096;
      service_config.tracer = node.tracer.get();
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
      server_config.tracer = node.tracer.get();
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

  ~TracedClusterFixture() {
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

  /// Waits until replication is idle and peers acked at least
  /// `min_acked` records in all. Idle alone is not enough: a burst
  /// popped off a peer queue but not yet acked reads as queued == 0,
  /// sent == acked.
  void await_settled(std::uint64_t min_acked) {
    for (int i = 0; i < 1000; ++i) {
      bool settled = true;
      std::uint64_t acked = 0;
      for (const auto& node : nodes_)
        for (const auto& peer : node.replicator->status().peers) {
          if (peer.queued != 0 || peer.sent != peer.acked) settled = false;
          acked += peer.acked;
        }
      if (settled && acked >= min_acked) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "replication did not settle";
  }

  void stop_node(std::size_t index) { nodes_[index].server->stop(); }

  [[nodiscard]] const Tracer& tracer(std::size_t index) const {
    return *nodes_[index].tracer;
  }
  /// Samples in one of a node's metrics rows.
  [[nodiscard]] std::uint64_t samples(std::size_t index, Latency row) const {
    return nodes_[index].service->metrics().snapshot()[row].count();
  }
  [[nodiscard]] std::uint16_t port(std::size_t index) const {
    return endpoints_[index].port;
  }

private:
  struct Node {
    std::unique_ptr<Tracer> tracer;
    std::shared_ptr<std::atomic<Replicator*>> repl_slot;
    std::unique_ptr<SchedulingService> service;
    std::unique_ptr<Server> server;
    std::unique_ptr<Replicator> replicator;
  };
  Node nodes_[kNodes];
  std::vector<Endpoint> endpoints_;
};

TEST(ClusterTrace, OneIdSpansClientSolveAndEveryReplicationApply) {
  TracedClusterFixture cluster;
  Tracer::Config client_trace_config;
  client_trace_config.sample_every = 1;
  Tracer client_tracer(client_trace_config);
  ClusterClientConfig config = cluster.client_config();
  config.tracer = &client_tracer;
  ClusterClient client(config);

  const std::string tenant = "traced-tenant";
  const auto response =
      client.solve(request_for(example_instance(), 57.0, tenant));
  ASSERT_TRUE(response.ok()) << response.error;
  cluster.await_settled(/*min_acked=*/TracedClusterFixture::kNodes - 1);

  // The client minted exactly one context and retained its record.
  const std::vector<TraceRecord> minted = client_tracer.recent(8);
  ASSERT_EQ(minted.size(), 1u);
  const TraceId id = minted[0].id;
  ASSERT_TRUE(id.valid());
  EXPECT_TRUE(has_stage(minted[0], Stage::client_attempt));

  // The primary served the solve under the SAME id...
  const std::size_t primary = client.primary_index(tenant);
  const auto on_primary = records_with_id(cluster.tracer(primary), id);
  ASSERT_GE(on_primary.size(), 1u);
  bool primary_served = false;
  for (const TraceRecord& record : on_primary)
    primary_served |= has_stage(record, Stage::request);
  EXPECT_TRUE(primary_served);
  EXPECT_EQ(cluster.samples(primary, Latency::stage_repl_push), 1u);

  // ...and both peers adopted it when they applied the replicated
  // record: one id, three nodes, no correlation joins needed.
  for (std::size_t i = 0; i < TracedClusterFixture::kNodes; ++i) {
    if (i == primary) continue;
    const auto on_peer = records_with_id(cluster.tracer(i), id);
    ASSERT_GE(on_peer.size(), 1u)
        << "peer node" << i << " has no record of trace " << id.to_hex();
    bool applied = false;
    for (const TraceRecord& record : on_peer)
      applied |= has_stage(record, Stage::repl_apply);
    EXPECT_TRUE(applied) << "peer node" << i << " lacks a repl_apply span";
    EXPECT_EQ(cluster.samples(i, Latency::stage_repl_apply), 1u)
        << "peer node" << i;
  }
}

TEST(ClusterTrace, FailoverRetryKeepsOneIdFromClientToSurvivor) {
  TracedClusterFixture cluster;
  Tracer::Config client_trace_config;
  client_trace_config.sample_every = 1;
  Tracer client_tracer(client_trace_config);
  ClusterClientConfig config = cluster.client_config();
  config.tracer = &client_tracer;
  ClusterClient client(config);

  const std::string tenant = "failover-tenant";
  const auto primed =
      client.solve(request_for(example_instance(), 57.0, tenant));
  ASSERT_TRUE(primed.ok()) << primed.error;
  cluster.await_settled(/*min_acked=*/TracedClusterFixture::kNodes - 1);

  // Hard-stop the tenant's primary, then solve again: the ring walk
  // retries onto a survivor, and the whole detour must carry one id.
  const std::size_t primary = client.primary_index(tenant);
  cluster.stop_node(primary);
  const auto failed_over =
      client.solve(request_for(example_instance(), 57.0, tenant));
  ASSERT_TRUE(failed_over.ok()) << failed_over.error;

  const std::vector<TraceRecord> minted = client_tracer.recent(8);
  ASSERT_GE(minted.size(), 2u);  // primed + failed-over
  const TraceRecord& retry = minted[0];  // newest first
  const TraceId id = retry.id;
  EXPECT_TRUE(has_stage(retry, Stage::client_attempt));
  EXPECT_TRUE(has_stage(retry, Stage::client_failover))
      << "client retained no failover span for the retried solve";

  // Exactly one survivor answered, under the same id.
  std::size_t survivors_with_id = 0;
  for (std::size_t i = 0; i < TracedClusterFixture::kNodes; ++i) {
    if (i == primary) continue;
    for (const TraceRecord& record :
         records_with_id(cluster.tracer(i), id))
      if (has_stage(record, Stage::request) ||
          has_stage(record, Stage::wire_fastpath))
        ++survivors_with_id;
  }
  EXPECT_GE(survivors_with_id, 1u);

  // The same journey is visible over the wire, exactly as
  // medcc_tracectl would render it: dump each survivor and find the id.
  bool dumped = false;
  for (std::size_t i = 0; i < TracedClusterFixture::kNodes; ++i) {
    if (i == primary) continue;
    ClientConfig dump_config;
    dump_config.port = cluster.port(i);
    Client dump_client(dump_config);
    const TraceDump dump = dump_client.trace_dump(256);
    EXPECT_TRUE(dump.enabled);
    for (const TraceRecord& record : dump.traces)
      if (record.id == id) dumped = true;
  }
  EXPECT_TRUE(dumped)
      << "trace " << id.to_hex() << " absent from every survivor's dump";
}

}  // namespace
