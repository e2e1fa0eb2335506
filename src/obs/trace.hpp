// Low-overhead per-request tracing for the serving stack.
//
// Every traced request gets a 128-bit trace id, minted at the client
// edge (or set explicitly on the request); servers adopt contexts off
// the wire rather than minting their own, so untraced legacy clients
// cost nothing. As the request moves through the stack --
// reactor decode, admission-queue wait, solver execution, cache lookup,
// persistence append, replication push/apply -- each stage records a
// Span {stage, start_ns, end_ns} against the request's Trace. The
// trace id travels with the request over the wire (a protocol-v2
// feature bit, docs/observability.md), so one id names the whole
// journey even across a ClusterClient failover retry and onto the
// replica that applies the replicated cache record.
//
// The tracer keeps spans only. Each server-side stage's distribution
// across requests is a latency row of the service's metrics table
// (service/metrics.hpp), recorded beside the span on traced requests.
//
// Cost model, hot path first:
//
//  * Span capture is head-sampled 1-in-N (Config::sample_every) at the
//    moment the trace id is minted; a sampled request carries a small
//    fixed-capacity span buffer (one allocation per sampled request).
//  * Slow outliers are never lost to sampling: when Config::slow_ms > 0
//    every request buffers spans, and finish() keeps any trace whose
//    wall time crosses the threshold even if head sampling said no.
//
// Completed traces land in a bounded ring (mutex-guarded -- finish()
// runs at most once per request, far off the per-stage hot path) that
// the trace_dump admin frame and tools/medcc_tracectl read back:
// recent traces and slowest-N.
//
// Thread contract: Tracer is fully thread-safe. A Trace's span buffer
// is append-only through an atomic cursor, so stages on different
// threads (worker vs reactor) may record concurrently; readers only
// see slots published by finish().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/padded.hpp"
#include "util/thread_annotations.hpp"

namespace medcc::obs {

/// 128-bit trace identifier; zero means "no trace".
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool valid() const { return hi != 0 || lo != 0; }
  /// 32 lowercase hex digits, hi first ("0000..0000" when invalid).
  [[nodiscard]] std::string to_hex() const;
  /// Parses exactly 32 hex digits; returns an invalid id on any junk.
  [[nodiscard]] static TraceId from_hex(std::string_view text);

  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// What travels with a request: the id plus the head-sampling verdict
/// made where the id was minted (so every hop agrees on whether to
/// buffer spans). 17 bytes on the wire: u64 hi, u64 lo, u8 flags.
struct TraceContext {
  TraceId id;
  bool sampled = false;

  [[nodiscard]] bool valid() const { return id.valid(); }
};

/// Pipeline stages a span can cover. Order is the wire encoding and the
/// dump order; append only.
enum class Stage : std::uint8_t {
  request = 0,       ///< whole request, edge to edge
  decode = 1,        ///< reactor-side frame decode
  queue_wait = 2,    ///< admission queue residency
  solve = 3,         ///< solver execution (cache misses only)
  cache_lookup = 4,  ///< result-cache probe (fingerprint + find)
  wire_fastpath = 5, ///< zero-copy wire-cache hit serve
  persist_append = 6,///< durable-store journal append
  repl_push = 7,     ///< replication publish on the solving node
  repl_apply = 8,    ///< replicated-record apply on a peer
  client_attempt = 9,///< one client send+wait (per failover attempt)
  client_failover = 10, ///< client-side failover pause + reroute
};

inline constexpr std::size_t kStageCount = 11;

[[nodiscard]] const char* to_string(Stage stage);

/// One timed interval inside a trace. Times are Tracer::now_ns()
/// (steady clock) on the recording node.
struct Span {
  Stage stage = Stage::request;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// The in-flight span buffer of one sampled (or slow-candidate)
/// request: fixed capacity, slots claimed with a relaxed atomic cursor
/// so concurrent stages never contend on a lock. Overflowing spans are
/// counted and dropped.
class Trace {
public:
  Trace(TraceId id, std::int64_t started_ns, std::size_t capacity);

  /// Thread-safe append; drops (and counts) once full.
  void add(Stage stage, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const TraceId& id() const { return id_; }
  [[nodiscard]] std::int64_t started_ns() const { return started_ns_; }
  /// Spans published so far (finish() is the only intended reader).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t overflow() const { return overflow_.load(); }

private:
  const TraceId id_;
  const std::int64_t started_ns_;
  std::atomic<std::uint32_t> size_{0};
  /// Slot i is written exactly once by the thread that claimed it; the
  /// relaxed cursor is enough because readers run after the request's
  /// completion callback (a happens-before edge the server provides).
  std::vector<Span> slots_;
  util::PaddedAtomic<std::uint64_t> overflow_;
};

/// One completed, retained trace as seen by trace_dump.
struct TraceRecord {
  TraceId id;
  std::string origin;  ///< node id (or "client") that finished it
  std::int64_t started_ns = 0;
  std::int64_t total_ns = 0;
  bool slow = false;   ///< kept by the slow gate, not head sampling
  std::vector<Span> spans;
};

/// The tracer's counters; cheap to take at any time.
struct TracerSnapshot {
  bool enabled = false;
  std::uint64_t started = 0;    ///< trace contexts minted
  std::uint64_t sampled = 0;    ///< head-sampled at mint time
  std::uint64_t completed = 0;  ///< traces retained in the ring
  std::uint64_t dropped = 0;    ///< finished but not retained
};

class Tracer {
public:
  struct Config {
    bool enabled = true;
    /// Head sampling: keep spans for 1 in N minted contexts (0 = none).
    std::uint32_t sample_every = 64;
    /// Always retain traces slower than this (0 = slow gate off).
    double slow_ms = 25.0;
    /// Bounded ring of retained completed traces (oldest evicted).
    std::size_t ring_capacity = 256;
    /// Span-buffer capacity per trace; excess spans are dropped.
    std::size_t max_spans = 32;
  };

  Tracer();  ///< default Config
  explicit Tracer(Config config);

  [[nodiscard]] bool enabled() const { return config_.enabled; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Steady-clock nanoseconds; the time base of every span.
  [[nodiscard]] static std::int64_t now_ns();

  /// Mints a fresh id + head-sampling verdict. Cheap (SplitMix64 over
  /// an atomic counter); returns an invalid context when disabled.
  [[nodiscard]] TraceContext new_context();

  /// Opens the span buffer for a request. Non-null when tracing is on
  /// and the request is head-sampled OR the slow gate is armed (every
  /// request is then a slow candidate). Null means: no spans kept.
  [[nodiscard]] std::shared_ptr<Trace> open(const TraceContext& context);

  /// Appends one span to `trace`'s buffer. Safe with trace == nullptr.
  static void record(const std::shared_ptr<Trace>& trace, Stage stage,
                     std::int64_t start_ns, std::int64_t end_ns);

  /// Completes a trace: retains it in the ring when it was head-sampled
  /// or its wall time crossed slow_ms. Safe with trace == nullptr.
  void finish(const std::shared_ptr<Trace>& trace, std::string_view origin);

  /// Single-span retention for paths whose whole journey is one
  /// interval and whose duration is known up front: the zero-copy
  /// wire-cache hit, and a peer's repl_apply, which is keyed by the
  /// ORIGINAL trace id so dumps across nodes correlate. Retains a
  /// one-span ring entry when the context was sampled OR the interval
  /// crossed the slow gate. No span buffer, no allocation -- this is
  /// what keeps tracing within its <5% fast-path budget
  /// (bench/net_throughput --trace-overhead).
  void record_span(const TraceContext& context, Stage stage,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::string_view origin);

  [[nodiscard]] TracerSnapshot snapshot() const;
  /// Most recent retained traces, newest first, at most `limit`.
  [[nodiscard]] std::vector<TraceRecord> recent(std::size_t limit) const;
  /// Slowest retained traces, slowest first, at most `limit`.
  [[nodiscard]] std::vector<TraceRecord> slowest(std::size_t limit) const;

private:
  /// The 1-in-N head-sampling choice, re-derivable from the id alone.
  /// The id is uniform, so "lo % N == 0" is unbiased; for the common
  /// power-of-two N a precomputed mask avoids the integer division on
  /// the mint path.
  [[nodiscard]] bool head_sampled(const TraceId& id) const {
    if (config_.sample_every == 0) return false;
    if (sample_mask_ != 0) return (id.lo & sample_mask_) == 0;
    return id.lo % config_.sample_every == 0;
  }

  void retain(TraceRecord record) MEDCC_EXCLUDES(ring_mutex_);

  const Config config_;
  /// sample_every - 1 when sample_every is a power of two, else 0.
  const std::uint64_t sample_mask_;
  /// Per-tracer id-stream salt (process clock + instance address),
  /// fixed at construction so minting pays no clock read.
  const std::uint64_t salt_;
  /// Contexts minted; doubles as the id-stream sequence (new_context).
  util::PaddedAtomic<std::uint64_t> started_;
  util::PaddedAtomic<std::uint64_t> sampled_;
  util::PaddedAtomic<std::uint64_t> completed_;
  util::PaddedAtomic<std::uint64_t> dropped_;

  mutable util::Mutex ring_mutex_;
  std::deque<TraceRecord> ring_ MEDCC_GUARDED_BY(ring_mutex_);
};

}  // namespace medcc::obs
