// The replication channel end-to-end, in process: a Replicator pushing
// locally solved cache records from an origin service into a real
// receiver server over loopback TCP -- hello negotiation, record
// delivery and byte-identical serving, the v1-peer downgrade path,
// down-peer bookkeeping, and bounded-queue overflow.
#include "cluster/replicator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "net/server.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::cluster::ClusterConfig;
using medcc::cluster::ClusterError;
using medcc::cluster::Replicator;
using medcc::net::Server;
using medcc::net::ServerConfig;
using medcc::sched::Instance;
using medcc::service::CacheOutcome;
using medcc::service::Counter;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;

std::shared_ptr<const Instance> example_instance() {
  return std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
}

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget) {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = "cg";
  return req;
}

void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

/// Polls `predicate` for up to ~5s.
template <typename Pred>
bool eventually(Pred predicate) {
  for (int i = 0; i < 1000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ClusterReplication, PushesSolvedRecordsToPeerServedByteIdentically) {
  // Receiver: a real server applying replicated records.
  SchedulingService receiver({.threads = 1});
  ServerConfig receiver_config;
  receiver_config.node_id = "receiver";
  receiver_config.repl_apply = [&receiver](std::string_view payload) {
    return receiver.apply_replicated_record(payload);
  };
  Server server(receiver, receiver_config);

  // Origin: every locally solved miss is published to the replicator.
  ClusterConfig cluster_config;
  cluster_config.node_id = "origin";
  cluster_config.peers = {{"127.0.0.1", server.port()}};
  Replicator replicator(cluster_config);
  ServiceConfig origin_config;
  origin_config.threads = 1;
  origin_config.on_cache_insert = [&replicator](std::string payload,
                                               medcc::obs::TraceContext trace) {
    replicator.publish(payload, trace);
  };
  SchedulingService origin(std::move(origin_config));
  replicator.start();

  const auto inst = example_instance();
  const auto solved = origin.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(solved.ok()) << solved.error;

  ASSERT_TRUE(eventually([&] {
    return receiver.metrics().value(Counter::repl_applied) >= 1;
  }));

  // The channel handshook at v2 and every record is acked. (The
  // receiver can observe the apply before the sender books the ack, so
  // the sender-side counters are polled, not snapshotted.)
  ASSERT_TRUE(eventually([&] {
    const auto now = replicator.status();
    return now.peers[0].sent >= 1 && now.peers[0].acked >= 1;
  }));
  const auto status = replicator.status();
  EXPECT_EQ(status.node_id, "origin");
  ASSERT_EQ(status.peers.size(), 1u);
  EXPECT_EQ(status.peers[0].state, "connected");
  EXPECT_EQ(status.peers[0].peer_version, 2u);
  EXPECT_EQ(status.peers[0].dropped, 0u);

  // The receiver never solved, yet serves the duplicate byte-exactly.
  const auto hit = receiver.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_EQ(hit.cache, CacheOutcome::hit_exact);
  EXPECT_EQ(hit.result.schedule, solved.result.schedule);
  expect_bits_equal(hit.result.eval.med, solved.result.eval.med);
  expect_bits_equal(hit.result.eval.cost, solved.result.eval.cost);

  replicator.stop();
}

TEST(ClusterReplication, PeerWithoutReplicationIsHeldAsV1Peer) {
  // A server with no repl_apply hook grants the hello but masks off the
  // replication feature -- the sender must park instead of pushing.
  SchedulingService plain({.threads = 1});
  Server server(plain);

  ClusterConfig cluster_config;
  cluster_config.node_id = "origin";
  cluster_config.peers = {{"127.0.0.1", server.port()}};
  Replicator replicator(cluster_config);
  replicator.start();

  ASSERT_TRUE(eventually([&] {
    return replicator.status().peers[0].state == "v1-peer";
  }));
  replicator.publish("some record");
  const auto status = replicator.status();
  EXPECT_EQ(status.peers[0].sent, 0u);
  EXPECT_GE(status.peers[0].queued, 1u);
  replicator.stop();
}

TEST(ClusterReplication, UnreachablePeerGoesDownAndQueuesStayBounded) {
  // Grab a port nobody listens on by binding a throwaway server first.
  std::uint16_t dead_port = 0;
  {
    SchedulingService scratch({.threads = 1});
    Server scratch_server(scratch);
    dead_port = scratch_server.port();
  }

  ClusterConfig cluster_config;
  cluster_config.node_id = "origin";
  cluster_config.peers = {{"127.0.0.1", dead_port}};
  cluster_config.queue_capacity = 2;
  cluster_config.connect_timeout_ms = 100.0;
  cluster_config.backoff_initial_ms = 10.0;
  cluster_config.backoff_cap_ms = 50.0;
  Replicator replicator(cluster_config);
  replicator.start();
  ASSERT_TRUE(eventually([&] {
    return replicator.status().peers[0].state == "down";
  }));

  // Overflow drops the OLDEST record in favour of the freshest.
  for (int i = 0; i < 5; ++i)
    replicator.publish("record-" + std::to_string(i));
  const auto status = replicator.status();
  EXPECT_LE(status.peers[0].queued, 2u);
  EXPECT_GE(status.peers[0].dropped, 3u);
  replicator.stop();
}

TEST(ClusterReplication, StartAndStopAreIdempotent) {
  ClusterConfig cluster_config;
  cluster_config.peers = {{"127.0.0.1", 1}};  // never contacted
  cluster_config.connect_timeout_ms = 50.0;
  Replicator replicator(cluster_config);
  EXPECT_EQ(replicator.peer_count(), 1u);
  replicator.start();
  replicator.start();
  replicator.stop();
  replicator.stop();  // second stop is a no-op; destructor another
}

TEST(ClusterReplication, ConstructorValidatesConfig) {
  ClusterConfig bad;
  bad.peers = {{"127.0.0.1", 1}, {"127.0.0.1", 1}};
  EXPECT_THROW(Replicator{bad}, ClusterError);
  ClusterConfig zero_queue;
  zero_queue.peers = {{"127.0.0.1", 1}};
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(Replicator{zero_queue}, ClusterError);
}

}  // namespace
