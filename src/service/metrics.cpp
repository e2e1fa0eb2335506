#include "service/metrics.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

namespace medcc::service {

namespace {

constexpr double kFirstBucket = 1e-6;  // 1 microsecond
constexpr double kGrowth = 2.0;
constexpr std::size_t kBuckets = 40;   // up to ~1.1e6 seconds
/// Latency shards per recorder. Shard choice is a thread-id hash, so
/// this bounds -- not eliminates -- collisions; 8 shards keep two busy
/// threads apart with high probability without inflating the fold cost.
constexpr std::size_t kLatencyShards = 8;

Counter cache_counter(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::hit_exact:
      return Counter::cache_hits_exact;
    case CacheOutcome::hit_isomorphic:
      return Counter::cache_hits_isomorphic;
    case CacheOutcome::miss:
      return Counter::cache_misses;
    case CacheOutcome::bypass:
      break;
  }
  return Counter::cache_bypass;
}

Counter reject_counter(RejectReason reason) {
  switch (reason) {
    case RejectReason::queue_full:
      return Counter::rejected_queue_full;
    case RejectReason::shutting_down:
      return Counter::rejected_shutting_down;
    case RejectReason::deadline_expired:
      return Counter::rejected_deadline;
    case RejectReason::unknown_solver:
      return Counter::rejected_unknown_solver;
    case RejectReason::tenant_quota:
      return Counter::tenant_quota_rejections;
    case RejectReason::flow_control:
      return Counter::rejected_flow_control;
    case RejectReason::invalid_request:
    case RejectReason::none:
      break;
  }
  return Counter::rejected_invalid;
}

/// Stable per-thread shard seed, hashed once per thread.
std::size_t thread_shard_seed() {
  thread_local const std::size_t seed =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return seed;
}

}  // namespace

LatencyRecorder::LatencyRecorder()
    : edges_(util::Histogram::exponential(kFirstBucket, kGrowth, kBuckets)
                 .edges()),
      shards_(kLatencyShards) {
  for (Shard& shard : shards_)
    shard.buckets = std::vector<std::atomic<std::uint64_t>>(kBuckets);
}

void LatencyRecorder::record(double seconds) {
  Shard& shard = shards_[thread_shard_seed() % shards_.size()];
  std::size_t b = 0;
  while (b + 1 < shard.buckets.size() && seconds >= edges_[b + 1]) ++b;
  shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
}

util::Histogram LatencyRecorder::snapshot() const {
  util::Histogram hist(edges_);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    std::uint64_t n = 0;
    for (const Shard& shard : shards_)
      n += shard.buckets[b].load(std::memory_order_relaxed);
    hist.add_bucket(b, n);
  }
  return hist;
}

double MetricsRegistry::Snapshot::cache_hit_rate() const {
  const std::uint64_t hits =
      (*this)[Counter::cache_hits_exact] +
      (*this)[Counter::cache_hits_isomorphic];
  const std::uint64_t seen = hits + (*this)[Counter::cache_misses];
  if (seen == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(seen);
}

void MetricsRegistry::count_solver(std::string_view solver) {
  {
    const util::ReaderMutexLock lock(per_solver_mutex_);
    const auto it = per_solver_.find(solver);
    if (it != per_solver_.end()) {
      it->second->fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  const util::WriterMutexLock lock(per_solver_mutex_);
  auto& slot = per_solver_[std::string(solver)];
  if (slot == nullptr)
    slot = std::make_unique<std::atomic<std::uint64_t>>(0);
  slot->fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::count_response(const SchedulingResponse& response) {
  switch (response.status) {
    case ResponseStatus::ok:
      add(Counter::responses_ok);
      add(cache_counter(response.cache));
      break;
    case ResponseStatus::failed:
      add(Counter::responses_failed);
      add(cache_counter(response.cache));
      break;
    case ResponseStatus::rejected:
      add(reject_counter(response.reject_reason));
      break;
  }
}

void MetricsRegistry::record_solver_latency(std::string_view solver,
                                            double seconds) {
  {
    const util::ReaderMutexLock lock(per_solver_mutex_);
    const auto it = per_solver_latency_.find(solver);
    if (it != per_solver_latency_.end()) {
      it->second->record(seconds);
      return;
    }
  }
  const util::WriterMutexLock lock(per_solver_mutex_);
  auto& slot = per_solver_latency_[std::string(solver)];
  if (slot == nullptr) slot = std::make_unique<LatencyRecorder>();
  slot->record(seconds);
}

std::uint64_t MetricsRegistry::value(Counter c) const {
  const auto i = static_cast<std::size_t>(c);
  const std::uint64_t v = counters_[i].load();
  if (kCounterRows[i].kind != MetricKind::gauge) return v;
  return static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(v)));
}

void MetricsRegistry::queue_entered() {
  const std::uint64_t depth = slot(Counter::queue_depth).fetch_add(1) + 1;
  auto& peak = slot(Counter::queue_depth_peak);
  std::uint64_t seen = peak.load();
  while (seen < depth && !peak.compare_exchange_weak(seen, depth)) {
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  for (std::size_t i = 0; i < kCounters; ++i)
    s.values[i] = value(static_cast<Counter>(i));
  s.latency.reserve(kLatencies);
  for (const LatencyRecorder& recorder : latency_)
    s.latency.push_back(recorder.snapshot());
  {
    const util::ReaderMutexLock lock(per_solver_mutex_);
    for (const auto& [name, counter] : per_solver_)
      s.per_solver[name] = counter->load(std::memory_order_relaxed);
    for (const auto& [name, recorder] : per_solver_latency_)
      s.per_solver_latency.emplace(name, recorder->snapshot());
  }
  return s;
}

namespace {

void emit_histogram(std::ostringstream& out, char sep, std::string_view name,
                    const util::Histogram& hist) {
  out << name << "_count" << sep << hist.count() << '\n';
  // Suffix spelled explicitly: "p999" means the 99.9th percentile and
  // must not collapse to "p99" through an integer cast of 99.9.
  const std::pair<const char*, double> quantiles[] = {
      {"_p50", 50.0}, {"_p95", 95.0}, {"_p99", 99.0}, {"_p999", 99.9}};
  for (const auto& [suffix, p] : quantiles)
    out << name << suffix << sep << (hist.empty() ? 0.0 : hist.quantile(p))
        << '\n';
}

std::string render(const MetricsRegistry::Snapshot& s, bool csv) {
  std::ostringstream out;
  if (csv) out << "metric,value\n";
  const char sep = csv ? ',' : ' ';
  for (std::size_t i = 0; i < kCounters; ++i) {
    out << kCounterRows[i].name << sep << s.values[i] << '\n';
    if (static_cast<Counter>(i) == Counter::cache_bypass)
      out << "cache_hit_rate" << sep << s.cache_hit_rate() << '\n';
  }
  for (const auto& [name, count] : s.per_solver)
    out << "requests_solver_" << name << sep << count << '\n';
  for (std::size_t i = 0; i < kLatencies; ++i) {
    emit_histogram(out, sep, kLatencyRows[i].name, s.latency[i]);
    if (static_cast<Latency>(i) == Latency::total)
      for (const auto& [name, hist] : s.per_solver_latency)
        emit_histogram(out, sep, "latency_solver_" + name + "_seconds", hist);
  }
  return out.str();
}

// -- Prometheus text exposition -------------------------------------------

std::string_view type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter:
      return "counter";
    case MetricKind::gauge:
      return "gauge";
    case MetricKind::histogram:
      break;
  }
  return "histogram";
}

void prom_metric(std::ostringstream& out, std::string_view name,
                 std::string_view help, MetricKind kind) {
  out << "# HELP " << name << ' ' << help << '\n'
      << "# TYPE " << name << ' ' << type_name(kind) << '\n';
}

/// One histogram as cumulative le-buckets. `labels` is the inner label
/// list without braces ("" or `solver="cg"`). The _sum series is
/// approximated from bucket midpoints (the recorder keeps counts, not
/// sums); the relative error is bounded by the bucket growth factor.
/// Interior zero-delta buckets are skipped -- the cumulative form
/// loses nothing by omission and the page stays small.
void prom_histogram(std::ostringstream& out, std::string_view name,
                    const util::Histogram& hist,
                    std::string_view labels = {}) {
  const std::string bucket_open =
      labels.empty() ? std::string("{")
                     : "{" + std::string(labels) + ",";
  const std::string plain =
      labels.empty() ? std::string() : "{" + std::string(labels) + "}";
  const auto& edges = hist.edges();
  std::uint64_t cumulative = 0;
  double sum = 0.0;
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    cumulative += hist.bucket(b);
    sum += static_cast<double>(hist.bucket(b)) *
           (edges[b] + edges[b + 1]) / 2.0;
    if (hist.bucket(b) == 0) continue;
    out << name << "_bucket" << bucket_open << "le=\"" << edges[b + 1]
        << "\"} " << cumulative << '\n';
  }
  out << name << "_bucket" << bucket_open << "le=\"+Inf\"} " << hist.count()
      << '\n'
      << name << "_sum" << plain << ' ' << sum << '\n'
      << name << "_count" << plain << ' ' << hist.count() << '\n';
}

/// Emits a counter row's whole family at the family's first row, so a
/// family's series stay together whatever their text order.
void prom_family(std::ostringstream& out, const MetricsRegistry::Snapshot& s,
                 std::size_t first) {
  const MetricRow& head = kCounterRows[first];
  for (std::size_t i = 0; i < first; ++i)
    if (kCounterRows[i].family == head.family) return;  // already emitted
  prom_metric(out, head.family, head.help, head.kind);
  for (std::size_t i = first; i < kCounters; ++i) {
    const MetricRow& r = kCounterRows[i];
    if (r.family != head.family) continue;
    out << r.family;
    if (!r.label.empty()) out << '{' << r.label << '}';
    out << ' ' << s.values[i] << '\n';
  }
}

std::string render_prometheus(const MetricsRegistry::Snapshot& s) {
  std::ostringstream out;
  for (std::size_t i = 0; i < kCounters; ++i) prom_family(out, s, i);
  prom_metric(out, "medcc_requests_by_solver_total", "Requests per solver",
              MetricKind::counter);
  for (const auto& [name, count] : s.per_solver)
    out << "medcc_requests_by_solver_total{solver=\"" << name << "\"} "
        << count << '\n';
  for (std::size_t i = 0; i < kLatencies; ++i) {
    const MetricRow& r = kLatencyRows[i];
    prom_metric(out, r.family, r.help, r.kind);
    prom_histogram(out, r.family, s.latency[i]);
    if (static_cast<Latency>(i) != Latency::total) continue;
    prom_metric(out, "medcc_latency_by_solver_seconds",
                "Per-solver solve latency", MetricKind::histogram);
    for (const auto& [name, hist] : s.per_solver_latency)
      prom_histogram(out, "medcc_latency_by_solver_seconds", hist,
                     "solver=\"" + name + "\"");
  }
  return out.str();
}

}  // namespace

std::string MetricsRegistry::dump_text() const {
  return render(snapshot(), /*csv=*/false);
}

std::string MetricsRegistry::dump_csv() const {
  return render(snapshot(), /*csv=*/true);
}

std::string MetricsRegistry::dump_prometheus() const {
  return render_prometheus(snapshot());
}

}  // namespace medcc::service
