// The concurrent MED-CC scheduling service: one entry point that turns
// the library's one-shot solvers into an overload-safe, observable,
// memoized request path.
//
// Request lifecycle:
//   submit() -> admission control (bounded queue; reject queue_full /
//   shutting_down / unknown_solver / invalid_request with an immediately
//   resolved future) -> worker picks the request up (queue-deadline
//   check) -> fingerprint -> result cache (exact or isomorphic hit) or
//   registry solve -> invariant verification (MEDCC_CHECK_INVARIANTS
//   builds) -> response + metrics.
//
// Responses are futures so callers overlap requests freely; rejected
// requests resolve without touching a worker. drain() waits for every
// admitted request; shutdown() additionally stops admission, and the
// destructor performs it implicitly. All entry points are thread-safe.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "persist/store.hpp"
#include "sched/solver_registry.hpp"
#include "service/cache.hpp"
#include "service/instance_table.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "service/wire_cache.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace medcc::service {

struct ServiceConfig {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Maximum admitted-but-not-yet-solving requests; submissions beyond
  /// it are rejected with RejectReason::queue_full.
  std::size_t queue_capacity = 256;
  /// Result-cache entries across all shards; 0 disables memoization.
  std::size_t cache_capacity = 4096;
  /// Encoded-frame memo entries for the network fast path (see
  /// service/wire_cache.hpp). Active only when the result cache is
  /// enabled -- the wire cache is a byte-level extension of it; 0
  /// disables the fast path.
  std::size_t wire_cache_capacity = 1024;
  /// Queue deadline applied when a request does not set its own;
  /// 0 = requests wait indefinitely.
  double default_deadline_ms = 0.0;
  /// Maximum admitted-or-solving requests per tenant id; the excess is
  /// rejected with RejectReason::tenant_quota. 0 = unlimited. The empty
  /// tenant ("") counts as one tenant like any other.
  std::size_t max_inflight_per_tenant = 0;
  /// Directory for durable cache persistence (snapshot + journal, see
  /// src/persist). Empty disables persistence; requires the cache to be
  /// enabled. On construction the service warm-starts from whatever the
  /// directory holds, tolerating torn tails from a previous crash.
  std::string cache_dir{};
  /// Seconds between background snapshots when there is anything new;
  /// <= 0 leaves only size-triggered and shutdown flushes.
  double snapshot_interval_s = 30.0;
  /// Journal size triggering an immediate snapshot + rotation.
  std::size_t journal_rotate_bytes = 4u << 20;
  /// fsync the journal on every insertion (crash-safe; turn off for
  /// throughput at the cost of losing the tail on power failure).
  bool persist_fsync = true;
  /// Injectable time source (tests freeze it); default steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock{};
  /// Seconds a cache entry may answer lookups after its (re-)insertion;
  /// 0 disables expiry. Expired entries are evicted lazily on lookup
  /// and swept in bulk by the persistence flusher (or sweep_expired()).
  /// Applies to the wire cache too, so the fast path cannot outlive the
  /// result it memoized. Counted by the cache_expired metric.
  std::int64_t cache_ttl_s = 0;
  /// Injectable seconds source for TTL accounting (tests age entries
  /// without sleeping); default steady clock.
  std::function<std::int64_t()> cache_clock{};
  /// Invoked after a locally solved MISS is inserted into the cache,
  /// with the encoded cache record (service/persistence.hpp codec) --
  /// the bytes a replicator pushes to peers -- and the trace context of
  /// the request that produced it (invalid id = untraced), so the
  /// replication hop stays on the request's trace. NOT invoked for
  /// cache hits, restores, or entries applied from peers
  /// (apply_replicated_record), which is what keeps replication
  /// loop-free: only the origin node publishes an entry. Called on a
  /// worker thread; must be cheap (enqueue, don't send).
  std::function<void(std::string payload, obs::TraceContext trace)>
      on_cache_insert{};
  /// Request tracer (docs/observability.md); nullptr = untraced. The
  /// service records queue_wait / cache_lookup / solve /
  /// persist_append / repl_push spans against each request's trace.
  /// Not owned; must outlive the service.
  obs::Tracer* tracer = nullptr;
  /// Solver table; nullptr = sched::SolverRegistry::built_in().
  const sched::SolverRegistry* registry = nullptr;
};

class SchedulingService {
public:
  explicit SchedulingService(ServiceConfig config = {});
  ~SchedulingService();

  SchedulingService(const SchedulingService&) = delete;
  SchedulingService& operator=(const SchedulingService&) = delete;

  /// Submits one request. Always returns a valid future: admission
  /// rejections resolve it immediately with status == rejected.
  [[nodiscard]] std::future<SchedulingResponse> submit(
      SchedulingRequest request);

  /// Callback flavour of submit() for callers that multiplex completions
  /// themselves (the net/ server correlates responses by request id).
  /// `done` is invoked exactly once -- synchronously, on the submitting
  /// thread, for admission rejections, otherwise on a worker thread --
  /// and must not throw.
  void submit_async(SchedulingRequest request,
                    std::function<void(SchedulingResponse)> done);

  /// Submits every request in order (the batch API the network layer
  /// pipelines over one connection). Each element is admitted
  /// independently: a rejection of one does not affect the others.
  [[nodiscard]] std::vector<std::future<SchedulingResponse>> submit_batch(
      std::vector<SchedulingRequest> requests);

  /// Blocks until every admitted request has been answered.
  void drain();

  /// Stops admission (new submits resolve shutting_down), drains the
  /// queue, and parks the workers. Idempotent.
  void shutdown();

  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable registry access for front ends that record service-level
  /// outcomes the service itself cannot see (the network server's
  /// encoded-frame fast path answers without entering submit()).
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] bool cache_enabled() const { return cache_ != nullptr; }
  /// Encoded-frame memo for the network fast path; nullptr when
  /// disabled. The cache outlives any server using it: it is owned by
  /// the service, which by contract outlives its front ends.
  [[nodiscard]] WireCache* wire_cache() { return wire_cache_.get(); }
  /// Decoded instances keyed by their wire bytes (always on; see
  /// service/instance_table.hpp). Like wire_cache(), it outlives the
  /// front ends that use it.
  [[nodiscard]] InstanceTable& instance_table() { return instances_; }
  [[nodiscard]] bool persistence_enabled() const { return store_ != nullptr; }
  /// Cache occupancy counters; zeros when the cache is disabled.
  [[nodiscard]] ResultCache::Stats cache_stats() const;
  /// Durable-store counters; zeros when persistence is disabled.
  [[nodiscard]] persist::DurableStore::Stats persist_stats() const;
  /// Forces a snapshot + journal rotation now (persistence must be
  /// enabled). Throws persist::PersistError on IO failure.
  void flush_persistence();

  /// Applies one replicated cache record (the bytes a peer's
  /// on_cache_insert produced). Decodes and restores it into the result
  /// cache -- after which a duplicate of the original request answers
  /// as an exact hit, byte-identical to the origin's response. Does NOT
  /// re-publish through on_cache_insert (the origin pushes to the full
  /// peer set) and does not journal eagerly (the next snapshot exports
  /// it). Returns false -- and counts repl_apply_errors -- on a
  /// malformed record or when the cache is disabled; never throws.
  bool apply_replicated_record(std::string_view payload);

  /// Evicts every TTL-expired cache entry now; returns how many were
  /// dropped. Runs automatically before each persistence snapshot; this
  /// entry point serves cacheless-persistence setups and tests.
  std::size_t sweep_expired();
  [[nodiscard]] std::size_t thread_count() const {
    return pool_.thread_count();
  }

private:
  struct Ticket;  // one admitted request's state

  void run(Ticket& ticket);
  [[nodiscard]] SchedulingResponse solve(const SchedulingRequest& request);
  [[nodiscard]] bool acquire_tenant_slot(const std::string& tenant);
  void release_tenant_slot(const std::string& tenant);

  const ServiceConfig config_;  // immutable after construction
  const sched::SolverRegistry& registry_;
  /// Set once in the constructor, then only called (std::function call
  /// through a const path is safe for concurrent use).
  MEDCC_NOT_GUARDED std::function<std::chrono::steady_clock::time_point()>
      clock_;
  /// Internally synchronized (atomic counters + SharedMutex).
  MEDCC_NOT_GUARDED MetricsRegistry metrics_;
  /// Pointer set once in the constructor; the cache itself is sharded
  /// and internally locked.
  MEDCC_NOT_GUARDED std::unique_ptr<ResultCache> cache_;
  /// Encoded-frame memo, same ownership discipline as cache_.
  MEDCC_NOT_GUARDED std::unique_ptr<WireCache> wire_cache_;
  /// Internally locked.
  MEDCC_NOT_GUARDED InstanceTable instances_{kInstanceTableCapacity};
  /// Durable snapshot + journal behind the cache; internally locked.
  /// Declared before pool_ so workers finish before it is destroyed.
  MEDCC_NOT_GUARDED std::unique_ptr<persist::DurableStore> store_;
  std::atomic<bool> accepting_{true};
  /// Admitted-but-not-yet-running requests (the bounded queue).
  std::atomic<std::size_t> pending_{0};
  /// Admitted-or-solving requests per tenant (quota accounting).
  util::Mutex tenant_mutex_;
  std::unordered_map<std::string, std::size_t> tenant_inflight_
      MEDCC_GUARDED_BY(tenant_mutex_);
  /// Internally synchronized worker pool.
  MEDCC_NOT_GUARDED util::ThreadPool pool_;  // last member: joined first
};

}  // namespace medcc::service
