// Golden-file tests for the three metrics renderings: a
// MetricsRegistry driven with a fixed, deterministic sequence of
// requests, responses and latency samples must render byte-for-byte
// the Prometheus exposition, the text dump and the CSV dump checked in
// at tests/golden/metrics_{prometheus,text,csv}.txt. Any format drift
// -- renamed series, reordered lines or labels, changed histogram
// buckets -- breaks dashboards and scrapers silently, so it must show
// up here as a diff instead.
//
// To regenerate after an INTENTIONAL format change:
//   MEDCC_UPDATE_GOLDEN=1 ./service_metrics_prometheus_test
#include "service/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "service/request.hpp"

namespace {

using medcc::service::CacheOutcome;
using medcc::service::Counter;
using medcc::service::kCounterRows;
using medcc::service::kCounters;
using medcc::service::kLatencyRows;
using medcc::service::Latency;
using medcc::service::MetricKind;
using medcc::service::MetricRow;
using medcc::service::MetricsRegistry;
using medcc::service::RejectReason;
using medcc::service::ResponseStatus;
using medcc::service::SchedulingResponse;

std::filesystem::path golden_path(const char* file) {
  return std::filesystem::path(__FILE__).parent_path() / "golden" / file;
}

SchedulingResponse response_with(ResponseStatus status, CacheOutcome cache,
                                 RejectReason reason = RejectReason::none) {
  SchedulingResponse response;
  response.status = status;
  response.cache = cache;
  response.reject_reason = reason;
  return response;
}

/// Drives every counter family at least once, with distinct values so
/// a transposed counter cannot cancel out in the rendered text.
void drive(MetricsRegistry& metrics) {
  metrics.add(Counter::requests_total, 9);
  for (int i = 0; i < 5; ++i) metrics.count_solver("cg");
  for (int i = 0; i < 3; ++i) metrics.count_solver("pcp");
  metrics.count_solver("greedy");

  // ok: one exact hit, one isomorphic hit, two misses, one bypass.
  metrics.count_response(
      response_with(ResponseStatus::ok, CacheOutcome::hit_exact));
  metrics.count_response(
      response_with(ResponseStatus::ok, CacheOutcome::hit_isomorphic));
  metrics.count_response(
      response_with(ResponseStatus::ok, CacheOutcome::miss));
  metrics.count_response(
      response_with(ResponseStatus::ok, CacheOutcome::miss));
  metrics.count_response(
      response_with(ResponseStatus::ok, CacheOutcome::bypass));
  // One solver failure (still a cache miss).
  metrics.count_response(
      response_with(ResponseStatus::failed, CacheOutcome::miss));
  // One rejection of every reason the service can produce.
  for (const RejectReason reason :
       {RejectReason::queue_full, RejectReason::shutting_down,
        RejectReason::deadline_expired, RejectReason::unknown_solver,
        RejectReason::invalid_request, RejectReason::tenant_quota,
        RejectReason::flow_control})
    metrics.count_response(
        response_with(ResponseStatus::rejected, CacheOutcome::bypass, reason));

  // Latency samples at spread-out magnitudes: each lands in a distinct
  // histogram bucket, so bucket-edge drift shows as a diff.
  metrics.record(Latency::queue_delay, 10e-6);
  metrics.record(Latency::queue_delay, 250e-6);
  metrics.record(Latency::solve, 1e-3);
  metrics.record(Latency::solve, 30e-3);
  metrics.record(Latency::solve, 1.5);
  metrics.record(Latency::total, 2e-3);
  metrics.record(Latency::total, 40e-3);
  metrics.record_solver_latency("cg", 1e-3);
  metrics.record_solver_latency("cg", 30e-3);
  metrics.record_solver_latency("pcp", 5e-3);

  metrics.add(Counter::wire_fastpath_hits, 2);
  metrics.add(Counter::wire_fastpath_misses);

  metrics.add(Counter::persist_loaded_entries, 12);
  metrics.add(Counter::persist_load_errors);
  metrics.record(Latency::persist_load, 7e-3);
  metrics.add(Counter::persist_journal_appends, 4);
  metrics.add(Counter::persist_replay_truncations);
  metrics.add(Counter::persist_flushes);
  metrics.record(Latency::persist_flush, 3e-3);
  metrics.add(Counter::cache_expired, 2);

  metrics.add(Counter::repl_applied, 2);
  metrics.add(Counter::repl_apply_errors);

  // Leave a live queue gauge: 3 entered, 1 left -> depth 2, peak 3.
  metrics.queue_entered();
  metrics.queue_entered();
  metrics.queue_entered();
  metrics.queue_left();

  // Transport and instance-table rows: 126, 127, ... in table order,
  // and the open connections gauge lowered by 2 so sub() shows too.
  for (auto i = static_cast<std::size_t>(Counter::connections_accepted);
       i < kCounters; ++i)
    metrics.add(static_cast<Counter>(i), 100 + i);
  metrics.sub(Counter::connections_active, 2);
}

/// Compares `actual` with tests/golden/`file` byte for byte, or
/// rewrites the golden when MEDCC_UPDATE_GOLDEN is set.
void expect_matches_golden(const char* file, const std::string& actual) {
  const auto path = golden_path(file);
  if (std::getenv("MEDCC_UPDATE_GOLDEN") != nullptr) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with MEDCC_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();

  if (actual != expected.str()) {
    // Point at the first diverging line -- a full 200-line dump diff is
    // unreadable in test output.
    std::istringstream a(actual);
    std::istringstream e(expected.str());
    std::string a_line;
    std::string e_line;
    int line = 0;
    while (true) {
      const bool a_more = static_cast<bool>(std::getline(a, a_line));
      const bool e_more = static_cast<bool>(std::getline(e, e_line));
      ++line;
      if (!a_more && !e_more) break;
      if (!a_more || !e_more || a_line != e_line) {
        FAIL() << file << " diverges from golden at line " << line
               << "\n  expected: "
               << (e_more ? e_line : std::string("<eof>"))
               << "\n  actual:   "
               << (a_more ? a_line : std::string("<eof>"))
               << "\n(regenerate with MEDCC_UPDATE_GOLDEN=1 if intentional)";
      }
    }
  }
}

TEST(MetricsPrometheus, ExpositionMatchesGoldenFile) {
  MetricsRegistry metrics;
  drive(metrics);
  expect_matches_golden("metrics_prometheus.txt", metrics.dump_prometheus());
}

TEST(MetricsPrometheus, TextDumpMatchesGoldenFile) {
  MetricsRegistry metrics;
  drive(metrics);
  expect_matches_golden("metrics_text.txt", metrics.dump_text());
}

TEST(MetricsPrometheus, CsvDumpMatchesGoldenFile) {
  MetricsRegistry metrics;
  drive(metrics);
  expect_matches_golden("metrics_csv.txt", metrics.dump_csv());
}

// The golden file pins the full format; these pin the semantic bits a
// scraper relies on even if the golden is regenerated carelessly.
TEST(MetricsPrometheus, ExpositionCarriesTheDrivenValues) {
  MetricsRegistry metrics;
  drive(metrics);
  const std::string dump = metrics.dump_prometheus();

  EXPECT_NE(dump.find("medcc_requests_total 9"), std::string::npos);
  EXPECT_NE(dump.find("medcc_responses_total{status=\"ok\"} 5"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_responses_total{status=\"failed\"} 1"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_cache_events_total{outcome=\"miss\"} 3"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_wire_fastpath_total{outcome=\"hit\"} 2"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_rejected_total{reason=\"tenant_quota\"} 1"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_queue_depth 2"), std::string::npos);
  EXPECT_NE(dump.find("medcc_queue_depth_peak 3"), std::string::npos);
  EXPECT_NE(dump.find("medcc_requests_by_solver_total{solver=\"cg\"} 5"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_repl_applied_total 2"), std::string::npos);
  EXPECT_NE(dump.find("medcc_frames_total{direction=\"in\"} 128"),
            std::string::npos);
  EXPECT_NE(dump.find("medcc_connections_active 125"), std::string::npos);
  // Counter discipline: every medcc_* counter series ends in _total.
  EXPECT_EQ(dump.find("medcc_requests_by_solver{"), std::string::npos);
}

/// Lines of `dump` that start with `prefix`.
int lines_starting_with(const std::string& dump, const std::string& prefix) {
  std::istringstream lines(dump);
  std::string line;
  int n = 0;
  while (std::getline(lines, line))
    if (line.rfind(prefix, 0) == 0) ++n;
  return n;
}

/// Prometheus series of a counter row: family plus its label, if any.
std::string series(const MetricRow& row) {
  std::string out(row.family);
  if (!row.label.empty()) out += "{" + std::string(row.label) + "}";
  return out;
}

// The table is the catalogue: every row renders exactly once in each
// writer, and no two rows can collide in any of them.
TEST(MetricsTable, EveryRowRendersExactlyOnceAndNoRowsCollide) {
  MetricsRegistry metrics;
  drive(metrics);
  const std::string text = metrics.dump_text();
  const std::string csv = metrics.dump_csv();
  const std::string prom = metrics.dump_prometheus();

  std::set<std::string_view> names;
  std::set<std::pair<std::string_view, std::string_view>> series_keys;
  std::map<std::string_view, const MetricRow*> family_head;
  for (const MetricRow& row : kCounterRows) {
    SCOPED_TRACE(std::string(row.name));
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate text name";
    EXPECT_TRUE(series_keys.insert({row.family, row.label}).second)
        << "duplicate (family, label)";
    EXPECT_EQ(lines_starting_with(text, std::string(row.name) + " "), 1);
    EXPECT_EQ(lines_starting_with(csv, std::string(row.name) + ","), 1);
    EXPECT_EQ(lines_starting_with(prom, series(row) + " "), 1);
    // Rows of one family share its help and type; counters end _total.
    const auto [head, fresh] = family_head.emplace(row.family, &row);
    EXPECT_EQ(head->second->help, row.help);
    EXPECT_EQ(head->second->kind, row.kind);
    EXPECT_EQ(row.family.ends_with("_total"),
              row.kind == MetricKind::counter);
    if (fresh) {
      EXPECT_EQ(lines_starting_with(prom, "# TYPE " + std::string(row.family) +
                                              " "),
                1);
    }
  }
  for (const MetricRow& row : kLatencyRows) {
    SCOPED_TRACE(std::string(row.name));
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate text name";
    EXPECT_TRUE(series_keys.insert({row.family, row.label}).second)
        << "duplicate (family, label)";
    EXPECT_EQ(row.kind, MetricKind::histogram);
    EXPECT_EQ(lines_starting_with(text, std::string(row.name) + "_count "), 1);
    EXPECT_EQ(lines_starting_with(csv, std::string(row.name) + "_count,"), 1);
    EXPECT_EQ(lines_starting_with(prom, std::string(row.family) + "_count "),
              1);
    EXPECT_EQ(lines_starting_with(
                  prom, "# TYPE " + std::string(row.family) + " histogram"),
              1);
  }
  EXPECT_EQ(names.size(), kCounters + kLatencyRows.size());
}

}  // namespace
