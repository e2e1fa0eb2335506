#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

namespace medcc::obs {

namespace {

/// SplitMix64 finalizer: a full-avalanche bijection, so distinct inputs
/// give distinct, well-spread ids. Statistical (not cryptographic)
/// uniqueness is all a trace id needs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t thread_seed() {
  // Hashed once per thread: this sits on the mint path, where a fresh
  // std::hash<std::thread::id> per call is measurable. The avalanche
  // matters too -- raw thread hashes are often near-adjacent
  // pointers whose small XOR deltas would let two threads' id streams
  // overlap (see new_context).
  static thread_local const std::uint64_t seed =
      mix64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return seed;
}

/// Clock-derived entropy folded into every id, computed once: minting
/// must not pay a clock read per request.
std::uint64_t process_salt() {
  static const std::uint64_t salt = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return salt;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void hex16(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kDigits[(v >> shift) & 0xF]);
}

}  // namespace

std::string TraceId::to_hex() const {
  std::string out;
  out.reserve(32);
  hex16(out, hi);
  hex16(out, lo);
  return out;
}

TraceId TraceId::from_hex(std::string_view text) {
  if (text.size() != 32) return {};
  TraceId id;
  for (int i = 0; i < 16; ++i) {
    const int d = hex_digit(text[static_cast<std::size_t>(i)]);
    if (d < 0) return {};
    id.hi = (id.hi << 4) | static_cast<std::uint64_t>(d);
  }
  for (int i = 16; i < 32; ++i) {
    const int d = hex_digit(text[static_cast<std::size_t>(i)]);
    if (d < 0) return {};
    id.lo = (id.lo << 4) | static_cast<std::uint64_t>(d);
  }
  return id;
}

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::request: return "request";
    case Stage::decode: return "decode";
    case Stage::queue_wait: return "queue_wait";
    case Stage::solve: return "solve";
    case Stage::cache_lookup: return "cache_lookup";
    case Stage::wire_fastpath: return "wire_fastpath";
    case Stage::persist_append: return "persist_append";
    case Stage::repl_push: return "repl_push";
    case Stage::repl_apply: return "repl_apply";
    case Stage::client_attempt: return "client_attempt";
    case Stage::client_failover: return "client_failover";
  }
  return "unknown";
}

// -- Trace ----------------------------------------------------------------

Trace::Trace(TraceId id, std::int64_t started_ns, std::size_t capacity)
    : id_(id), started_ns_(started_ns), slots_(std::max<std::size_t>(capacity, 1)) {}

void Trace::add(Stage stage, std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint32_t slot = size_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= slots_.size()) {
    overflow_.add();
    return;
  }
  slots_[slot] = Span{stage, start_ns, end_ns};
}

std::vector<Span> Trace::spans() const {
  const std::uint32_t n = std::min<std::uint32_t>(
      size_.load(std::memory_order_relaxed),
      static_cast<std::uint32_t>(slots_.size()));
  return {slots_.begin(), slots_.begin() + n};
}

// -- Tracer ---------------------------------------------------------------

Tracer::Tracer() : Tracer(Config()) {}

Tracer::Tracer(Config config)
    : config_(config),
      sample_mask_(config.sample_every != 0 &&
                           (config.sample_every &
                            (config.sample_every - 1)) == 0
                       ? config.sample_every - 1
                       : 0),
      // The clock decorrelates processes, the address decorrelates
      // tracers within one process (two edge tracers minting on the
      // same thread must not collide); both folded in once, at
      // construction, so minting pays neither.
      salt_(mix64(process_salt() ^
                  static_cast<std::uint64_t>(
                      reinterpret_cast<std::uintptr_t>(this)))) {}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceContext Tracer::new_context() {
  if (!config_.enabled) return {};
  // One relaxed fetch_add is the whole synchronization cost: the mint
  // sequence doubles as the `started` counter, and the two mix64
  // avalanches of consecutive stream positions give independent,
  // well-spread halves (exactly the SplitMix64 construction).
  const std::uint64_t seq = started_.fetch_add(1);
  const std::uint64_t stream = (seq ^ salt_ ^ thread_seed()) * 2;
  TraceContext context;
  context.id.hi = mix64(stream);
  context.id.lo = mix64(stream + 1);
  if (!context.id.valid()) context.id.lo = 1;  // astronomically unlikely
  context.sampled = head_sampled(context.id);
  if (context.sampled) sampled_.add();
  return context;
}

std::shared_ptr<Trace> Tracer::open(const TraceContext& context) {
  if (!config_.enabled || !context.valid()) return nullptr;
  // Slow capture needs the spans before anyone knows the request is
  // slow, so an armed slow gate buffers every request. The allocation
  // sits on paths already paying queue hops or solver calls; the
  // zero-copy fast path opens no buffer for unsampled requests.
  if (!context.sampled && config_.slow_ms <= 0.0) return nullptr;
  return std::make_shared<Trace>(context.id, now_ns(), config_.max_spans);
}

void Tracer::record(const std::shared_ptr<Trace>& trace, Stage stage,
                    std::int64_t start_ns, std::int64_t end_ns) {
  if (trace != nullptr) trace->add(stage, start_ns, end_ns);
}

void Tracer::finish(const std::shared_ptr<Trace>& trace,
                    std::string_view origin) {
  if (trace == nullptr) return;
  TraceRecord record;
  record.id = trace->id();
  record.origin.assign(origin);
  record.started_ns = trace->started_ns();
  record.spans = trace->spans();
  std::int64_t end = record.started_ns;
  for (const Span& span : record.spans) end = std::max(end, span.end_ns);
  record.total_ns = end - record.started_ns;
  const bool slow =
      config_.slow_ms > 0.0 &&
      static_cast<double>(record.total_ns) >= config_.slow_ms * 1e6;
  // Head-sampled traces are re-derivable from the id (see new_context);
  // everything else in the ring earned its place by being slow.
  const bool sampled = head_sampled(record.id);
  if (!sampled && !slow) {
    dropped_.add();
    return;
  }
  record.slow = slow && !sampled;
  retain(std::move(record));
}

void Tracer::record_span(const TraceContext& context, Stage stage,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::string_view origin) {
  if (!config_.enabled || !context.valid()) return;
  const bool slow =
      config_.slow_ms > 0.0 &&
      static_cast<double>(end_ns - start_ns) >= config_.slow_ms * 1e6;
  // The duration is already known, so the slow gate needs no buffered
  // spans here -- the unsampled, not-slow common case returns without
  // having allocated anything.
  if (!context.sampled && !slow) return;
  TraceRecord record;
  record.id = context.id;
  record.origin.assign(origin);
  record.started_ns = start_ns;
  record.total_ns = end_ns - start_ns;
  record.slow = slow && !context.sampled;
  record.spans.push_back(Span{stage, start_ns, end_ns});
  retain(std::move(record));
}

void Tracer::retain(TraceRecord record) {
  util::MutexLock lock(ring_mutex_);
  ring_.push_back(std::move(record));
  while (ring_.size() > config_.ring_capacity) ring_.pop_front();
  completed_.add();
}

TracerSnapshot Tracer::snapshot() const {
  TracerSnapshot snap;
  snap.enabled = config_.enabled;
  snap.started = started_.load();
  snap.sampled = sampled_.load();
  snap.completed = completed_.load();
  snap.dropped = dropped_.load();
  return snap;
}

std::vector<TraceRecord> Tracer::recent(std::size_t limit) const {
  util::MutexLock lock(ring_mutex_);
  std::vector<TraceRecord> out;
  const std::size_t n = std::min(limit, ring_.size());
  out.reserve(n);
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < n; ++it)
    out.push_back(*it);
  return out;
}

std::vector<TraceRecord> Tracer::slowest(std::size_t limit) const {
  std::vector<TraceRecord> out;
  {
    util::MutexLock lock(ring_mutex_);
    out.assign(ring_.begin(), ring_.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.total_ns > b.total_ns;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace medcc::obs
