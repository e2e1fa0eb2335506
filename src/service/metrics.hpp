// Metrics registry of the scheduling service and its network front end:
// lock-free atomic counters on the request path plus fixed-bucket
// latency histograms, rendered as text, CSV or Prometheus exposition.
//
// Every metric is declared once, as one enum value and one row of the
// table below; the three writers are one loop each over the table.
// Counters are monotonically increasing totals; gauges (queue depth,
// open connections) go up and down. Every counter is a
// util::PaddedAtomic -- a relaxed atomic alone on its cache line -- so
// concurrent requests on different cores never false-share a line.
// Latency histograms use 40 exponential buckets from 1 microsecond up
// (factor 2), recorded in seconds into per-thread shards that are
// folded only at snapshot time; p50/p95/p99/p999 are estimated from
// bucket counts with util::Histogram's mid-point rank interpolation,
// so a percentile is accurate to within one bucket width (~2x at the
// recorded magnitude).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/request.hpp"
#include "util/mutex.hpp"
#include "util/padded.hpp"
#include "util/stats.hpp"

namespace medcc::service {

/// Counter and gauge ids, in rendering order; kCounterRows holds one
/// row per id.
enum class Counter : std::uint8_t {
  requests_total,
  responses_ok,
  responses_failed,
  cache_hits_exact,
  cache_hits_isomorphic,
  cache_misses,
  cache_bypass,
  wire_fastpath_hits,
  wire_fastpath_misses,
  rejected_queue_full,
  rejected_shutting_down,
  rejected_deadline,
  rejected_unknown_solver,
  rejected_invalid,
  tenant_quota_rejections,
  rejected_flow_control,
  queue_depth,
  queue_depth_peak,
  persist_loaded_entries,
  persist_load_errors,
  persist_journal_appends,
  persist_replay_truncations,
  persist_flushes,
  cache_expired,
  repl_applied,
  repl_apply_errors,
  // Transport, bumped by net::Server.
  connections_accepted,
  connections_active,
  frames_in,
  frames_out,
  protocol_errors,
  idle_closed,
  dropped_responses,
  backpressure_paused,
  hellos,
  repl_records_in,
  traced_solves,
  trace_dumps,
  instance_intern_hits,
  instance_intern_misses,
  solver_sweep_builds,
  solver_sweep_reuses,
};

/// Latency histogram ids (seconds), in rendering order.
enum class Latency : std::uint8_t {
  queue_delay,
  solve,
  total,
  persist_load,
  persist_flush,
};

enum class MetricKind : std::uint8_t { counter, gauge, histogram };

/// One row of the metrics table. Rows sharing a Prometheus family are
/// emitted together at the family's first row, under its help text.
struct MetricRow {
  std::string_view name;    ///< text/CSV name
  std::string_view family;  ///< Prometheus family
  std::string_view label;   ///< inner label pair (`outcome="miss"`) or ""
  std::string_view help;    ///< Prometheus help of the family
  MetricKind kind;
};

/// One row per Counter, in enum order.
inline constexpr auto kCounterRows = std::to_array<MetricRow>({
  {"requests_total", "medcc_requests_total", "", "Requests admitted or rejected", MetricKind::counter},
  {"responses_ok", "medcc_responses_total", "status=\"ok\"", "Responses by outcome", MetricKind::counter},
  {"responses_failed", "medcc_responses_total", "status=\"failed\"", "Responses by outcome", MetricKind::counter},
  {"cache_hits_exact", "medcc_cache_events_total", "outcome=\"hit_exact\"", "Result-cache outcomes", MetricKind::counter},
  {"cache_hits_isomorphic", "medcc_cache_events_total", "outcome=\"hit_isomorphic\"", "Result-cache outcomes", MetricKind::counter},
  {"cache_misses", "medcc_cache_events_total", "outcome=\"miss\"", "Result-cache outcomes", MetricKind::counter},
  {"cache_bypass", "medcc_cache_events_total", "outcome=\"bypass\"", "Result-cache outcomes", MetricKind::counter},
  {"wire_fastpath_hits", "medcc_wire_fastpath_total", "outcome=\"hit\"", "Wire-cache zero-copy fast path outcomes", MetricKind::counter},
  {"wire_fastpath_misses", "medcc_wire_fastpath_total", "outcome=\"miss\"", "Wire-cache zero-copy fast path outcomes", MetricKind::counter},
  {"rejected_queue_full", "medcc_rejected_total", "reason=\"queue_full\"", "Rejections by reason", MetricKind::counter},
  {"rejected_shutting_down", "medcc_rejected_total", "reason=\"shutting_down\"", "Rejections by reason", MetricKind::counter},
  {"rejected_deadline", "medcc_rejected_total", "reason=\"deadline_expired\"", "Rejections by reason", MetricKind::counter},
  {"rejected_unknown_solver", "medcc_rejected_total", "reason=\"unknown_solver\"", "Rejections by reason", MetricKind::counter},
  {"rejected_invalid", "medcc_rejected_total", "reason=\"invalid_request\"", "Rejections by reason", MetricKind::counter},
  {"tenant_quota_rejections", "medcc_rejected_total", "reason=\"tenant_quota\"", "Rejections by reason", MetricKind::counter},
  {"rejected_flow_control", "medcc_rejected_total", "reason=\"flow_control\"", "Rejections by reason", MetricKind::counter},
  {"queue_depth", "medcc_queue_depth", "", "Requests currently queued", MetricKind::gauge},
  {"queue_depth_peak", "medcc_queue_depth_peak", "", "High-water queue depth", MetricKind::gauge},
  {"persist_loaded_entries", "medcc_persist_loaded_entries_total", "", "Cache entries warm-started from the durable store", MetricKind::counter},
  {"persist_load_errors", "medcc_persist_load_errors_total", "", "Warm-start load failures", MetricKind::counter},
  {"persist_journal_appends", "medcc_persist_journal_appends_total", "", "Journal appends", MetricKind::counter},
  {"persist_replay_truncations", "medcc_persist_replay_truncations_total", "", "Torn journal tails cut at replay", MetricKind::counter},
  {"persist_flushes", "medcc_persist_flushes_total", "", "Snapshot flushes", MetricKind::counter},
  {"cache_expired", "medcc_cache_events_total", "outcome=\"expired\"", "Result-cache outcomes", MetricKind::counter},
  {"repl_applied", "medcc_repl_applied_total", "", "Replicated records applied from peers", MetricKind::counter},
  {"repl_apply_errors", "medcc_repl_apply_errors_total", "", "Replicated records that failed to apply", MetricKind::counter},
  {"connections_accepted", "medcc_connections_accepted_total", "", "TCP connections accepted", MetricKind::counter},
  {"connections_active", "medcc_connections_active", "", "TCP connections currently open", MetricKind::gauge},
  {"frames_in", "medcc_frames_total", "direction=\"in\"", "Frames by direction", MetricKind::counter},
  {"frames_out", "medcc_frames_total", "direction=\"out\"", "Frames by direction", MetricKind::counter},
  {"protocol_errors", "medcc_protocol_errors_total", "", "Malformed or unexpected frames", MetricKind::counter},
  {"idle_closed", "medcc_idle_closed_total", "", "Connections closed for idleness", MetricKind::counter},
  {"dropped_responses", "medcc_dropped_responses_total", "", "Responses finished after the peer left", MetricKind::counter},
  {"backpressure_paused", "medcc_backpressure_paused_total", "", "Reads paused at the output high-water mark", MetricKind::counter},
  {"hellos", "medcc_hellos_total", "", "Hello handshakes answered", MetricKind::counter},
  {"repl_records_in", "medcc_repl_records_in_total", "", "Replication frames received", MetricKind::counter},
  {"traced_solves", "medcc_traced_solves_total", "", "Traced solve requests received", MetricKind::counter},
  {"trace_dumps", "medcc_trace_dumps_total", "", "Trace dump requests answered", MetricKind::counter},
  {"instance_intern_hits", "medcc_instance_intern_total", "outcome=\"hit\"", "Decoded solve requests by instance-table outcome", MetricKind::counter},
  {"instance_intern_misses", "medcc_instance_intern_total", "outcome=\"miss\"", "Decoded solve requests by instance-table outcome", MetricKind::counter},
  {"solver_sweep_builds", "medcc_solver_sweep_total", "outcome=\"build\"", "Interned-instance solves by solver-sweep outcome", MetricKind::counter},
  {"solver_sweep_reuses", "medcc_solver_sweep_total", "outcome=\"reuse\"", "Interned-instance solves by solver-sweep outcome", MetricKind::counter},
});
inline constexpr std::size_t kCounters = kCounterRows.size();
static_assert(static_cast<std::size_t>(Counter::solver_sweep_reuses) + 1 ==
                  kCounters,
              "one row per Counter");

/// One row per Latency, in enum order.
inline constexpr auto kLatencyRows = std::to_array<MetricRow>({
  {"latency_queue_seconds", "medcc_latency_queue_seconds", "", "Admission-queue wait", MetricKind::histogram},
  {"latency_solve_seconds", "medcc_latency_solve_seconds", "", "Solver / cache-path execution", MetricKind::histogram},
  {"latency_total_seconds", "medcc_latency_total_seconds", "", "Admission-to-response latency", MetricKind::histogram},
  {"persist_load_seconds", "medcc_persist_load_seconds", "", "Warm-start load time", MetricKind::histogram},
  {"persist_flush_seconds", "medcc_persist_flush_seconds", "", "Snapshot flush time", MetricKind::histogram},
});
inline constexpr std::size_t kLatencies = kLatencyRows.size();
static_assert(static_cast<std::size_t>(Latency::persist_flush) + 1 ==
                  kLatencies,
              "one row per Latency");

/// Thread-safe fixed-bucket latency accumulator (seconds). Writers are
/// sharded by thread so concurrent record() calls from different
/// threads usually touch distinct cache lines; snapshot() folds the
/// shards into one histogram.
class LatencyRecorder {
public:
  LatencyRecorder();

  void record(double seconds);

  /// Folds the per-thread shards into an immutable util::Histogram
  /// (empty histogram when nothing was recorded yet).
  [[nodiscard]] util::Histogram snapshot() const;

private:
  struct alignas(util::kCacheLineSize) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
  };

  const std::vector<double> edges_;  // immutable after construction
  /// Sized once in the constructor; only the atomics mutate after.
  std::vector<Shard> shards_;
};

class MetricsRegistry {
public:
  /// One immutable view of every metric, taken atomically enough for
  /// monitoring (individual counters are exact; cross-counter skew is
  /// bounded by in-flight requests).
  struct Snapshot {
    /// Indexed by Counter; gauges are clamped at zero.
    std::array<std::uint64_t, kCounters> values{};
    /// Indexed by Latency.
    std::vector<util::Histogram> latency;
    std::map<std::string, std::uint64_t> per_solver;
    /// Per-solver end-to-end solve latency (seconds), keyed like
    /// per_solver; only solvers that completed at least one request
    /// appear.
    std::map<std::string, util::Histogram> per_solver_latency;

    [[nodiscard]] std::uint64_t operator[](Counter c) const {
      return values[static_cast<std::size_t>(c)];
    }
    [[nodiscard]] const util::Histogram& operator[](Latency l) const {
      return latency[static_cast<std::size_t>(l)];
    }

    /// hits / (hits + misses); 0 when the cache saw no traffic.
    [[nodiscard]] double cache_hit_rate() const;
  };

  void add(Counter c, std::uint64_t n = 1) { slot(c).add(n); }
  /// Lowers a gauge (queue_depth, connections_active); counters only
  /// ever add().
  void sub(Counter c, std::uint64_t n = 1) { slot(c).sub(n); }
  /// Current value of one counter, clamped at zero for gauges.
  [[nodiscard]] std::uint64_t value(Counter c) const;

  void record(Latency l, double seconds) {
    latency_[static_cast<std::size_t>(l)].record(seconds);
  }

  /// Per-solver request count. Callers pass registered solver names
  /// only: the name becomes a map key and a series name.
  void count_solver(std::string_view solver);
  void count_response(const SchedulingResponse& response);
  /// Per-solver latency breakdown (the solver that actually answered,
  /// so cache hits count toward the solver whose result they reused).
  void record_solver_latency(std::string_view solver, double seconds);

  /// Queue-depth gauge and its high-water mark, driven by the
  /// service's admission/dispatch path.
  void queue_entered();
  void queue_left() { sub(Counter::queue_depth); }

  [[nodiscard]] Snapshot snapshot() const;

  /// "name value" lines plus p50/p95/p99/p999 summaries, for logs and
  /// tables.
  [[nodiscard]] std::string dump_text() const;
  /// "metric,value" lines with a header, for CSV consumers.
  [[nodiscard]] std::string dump_csv() const;
  /// Prometheus text exposition format (# HELP/# TYPE lines, counters
  /// suffixed _total, histograms as cumulative le-buckets); scrapeable
  /// via the stats frame (StatsFormat::prometheus) or --metrics-dump.
  [[nodiscard]] std::string dump_prometheus() const;

private:
  util::PaddedAtomic<std::uint64_t>& slot(Counter c) {
    return counters_[static_cast<std::size_t>(c)];
  }

  /// Gauges wrap below zero as two's complement and are clamped on read.
  std::array<util::PaddedAtomic<std::uint64_t>, kCounters> counters_;

  mutable util::SharedMutex per_solver_mutex_;
  /// The map structure is guarded; the pointed-to counters are atomics,
  /// bumped under a shared lock.
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>,
           std::less<>>
      per_solver_ MEDCC_GUARDED_BY(per_solver_mutex_);
  /// Same double-checked discipline as per_solver_: the map structure
  /// is guarded, each LatencyRecorder is internally synchronized and
  /// recorded into under a shared lock.
  std::map<std::string, std::unique_ptr<LatencyRecorder>, std::less<>>
      per_solver_latency_ MEDCC_GUARDED_BY(per_solver_mutex_);

  /// Internally synchronized (atomic buckets).
  MEDCC_NOT_GUARDED std::array<LatencyRecorder, kLatencies> latency_;
};

}  // namespace medcc::service
