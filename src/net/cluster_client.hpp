// Cluster-aware client: one logical connection to N medcc_server
// replicas.
//
// Routing is a consistent-hash ring: every endpoint contributes
// `virtual_nodes` points keyed by its "host:port" text, and a tenant id
// hashes to the first point at-or-after it (wrapping). That gives each
// tenant a stable primary replica -- so its requests keep hitting the
// same warm cache -- while adding or removing one endpoint only remaps
// the tenants whose arc it owned.
//
// Failover: when the primary fails at the transport level (connect or
// stream fault, a corrupt reply included -- every such fault is a
// NetError from Client), the client marks it down for `down_cooldown_ms`,
// walks the ring to the next distinct live endpoint, and retries the
// request there. Retrying is safe because solves are deterministic and
// server-side idempotent (a duplicate request is a cache hit). When
// replication seeded the peer's cache (docs/cluster.md), the failover
// target answers warm -- the 3-replica failover test asserts
// byte-identical results. Down peers are retried after the cooldown
// (and immediately when every candidate is down, so a full outage
// still surfaces the real error rather than "all marked down").
//
// Like Client, a ClusterClient is NOT thread-safe: callers wanting
// concurrency open one per thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/client.hpp"
#include "net/endpoint.hpp"

namespace medcc::net {

struct ClusterClientConfig {
  /// Replica endpoints; at least one. Order is insignificant (routing
  /// is by hash), but duplicates are rejected.
  std::vector<Endpoint> endpoints;
  /// Ring points per endpoint; more points = smoother tenant spread.
  std::size_t virtual_nodes = 64;
  /// Per-exchange wall-clock bound, as ClientConfig; 0 = no bound.
  double request_timeout_ms = 0.0;
  double connect_timeout_ms = 10000.0;
  /// Connect attempts per endpoint per solve; kept low so failover to
  /// the next replica is fast (the ring walk is the retry loop).
  std::size_t connect_attempts = 1;
  double backoff_initial_ms = 10.0;
  double backoff_cap_ms = 200.0;
  /// How long a transport-failed endpoint is skipped before being
  /// probed again.
  double down_cooldown_ms = 1000.0;
  std::size_t max_frame_body = kDefaultMaxBody;
  /// Injectable time source for the down-cooldown (tests).
  std::function<std::chrono::steady_clock::time_point()> clock{};
  /// When set, every logical solve carries ONE trace context across all
  /// of its failover attempts (minted here unless the request already
  /// has one), so a retried request keeps a single trace id from the
  /// first attempt through the survivor that answered. The client
  /// records client_attempt / client_failover spans into this tracer
  /// under origin "client". Not owned; must outlive the ClusterClient.
  obs::Tracer* tracer = nullptr;
};

class ClusterClient {
public:
  /// Per-endpoint outcome counters (stable endpoint order = config
  /// order).
  struct EndpointStats {
    Endpoint endpoint;
    std::uint64_t sent = 0;       ///< solve attempts routed here
    std::uint64_t ok = 0;         ///< responses returned to the caller
    std::uint64_t errors = 0;     ///< transport faults (marked down)
    std::uint64_t failovers = 0;  ///< attempts arriving via the ring walk
    bool down = false;            ///< inside the cooldown window now
  };

  explicit ClusterClient(ClusterClientConfig config);

  /// Routes by request.tenant, failing over along the ring; returns
  /// the first replica's response. Throws NetError only when every
  /// endpoint failed (carrying the last transport error).
  [[nodiscard]] service::SchedulingResponse solve(
      const service::SchedulingRequest& request);

  /// The endpoint index `tenant` routes to first.
  [[nodiscard]] std::size_t primary_index(std::string_view tenant) const;
  /// Full failover order for `tenant`: every endpoint index exactly
  /// once, ring order starting at the primary.
  [[nodiscard]] std::vector<std::size_t> route(std::string_view tenant) const;

  [[nodiscard]] const std::vector<Endpoint>& endpoints() const {
    return endpoints_;
  }
  [[nodiscard]] std::vector<EndpointStats> stats() const;

private:
  struct Peer {
    std::unique_ptr<Client> client;
    std::chrono::steady_clock::time_point down_until{};
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t failovers = 0;
  };
  struct Node {
    std::uint64_t hash = 0;
    std::size_t index = 0;
  };

  const ClusterClientConfig config_;  // immutable after construction
  std::vector<Endpoint> endpoints_;
  std::function<std::chrono::steady_clock::time_point()> clock_;
  std::vector<Node> ring_;  ///< sorted by hash; built once
  std::vector<Peer> peers_;
};

}  // namespace medcc::net
