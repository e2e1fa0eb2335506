// In-process, single-thread replay of a workload's exact request bytes
// through the serving path's public functions, in the server's order:
//
//   WireCache::find -> decode_solve_request -> fingerprint ->
//   ResultCache::find (+ remap_schedule on an isomorphic hit) ->
//   solver -> ResultCache::insert -> DurableStore::append ->
//   encode_solve_response -> WireCache::insert
//
// With tracing on, every call gets a span (name, start, end, parent)
// under one root span per request; spans stay in memory until the run
// ends. Probes time the layers a workload's request path does not reach
// (instance build, the two CPM engines, unused solvers, persistence) on
// the workload's own problems, as root spans of their own, so every
// per-layer metric is measured on every workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

struct ReplayOptions {
  /// Measured-list requests replayed after the warm-up.
  std::size_t measured_prefix = 0;
  /// Seed directory of a durable workload (copied, never modified).
  std::string seed_dir;
  /// Scratch directory the replay may create and delete files in.
  std::string scratch_dir;
  /// Record spans and run the layer probes.
  bool traced = false;
};

struct ReplayResult {
  std::vector<Span> spans;
  /// Wall time of the request-path replay (warm-up + prefix).
  double path_seconds = 0.0;
  /// Spans of the measured prefix's requests are
  /// [first_measured_span, path_span_end); probe spans follow.
  std::size_t first_measured_span = 0;
  std::size_t path_span_end = 0;
  std::size_t measured_requests = 0;
  /// MED returned for each measured-prefix request, in list order.
  std::vector<double> measured_med;
  /// Sum of Result::iterations per solver over every replay solve.
  std::map<std::string, std::uint64_t> iterations;
  /// Construction time of SchedulingService on a seeded directory.
  double warm_start_ms = 0.0;
  /// Mean ns per call of each CPM engine, one sample per instance.
  std::vector<double> kernel_makespan_ns;
  std::vector<double> legacy_makespan_ns;
};

[[nodiscard]] ReplayResult replay(const Workload& w,
                                  const ReplayOptions& options);

}  // namespace perfbench
