// Per-layer metrics and the traced table, computed from the replay's
// spans: self time = span duration minus the time its child spans cover.
#pragma once

#include <filesystem>
#include <vector>

#include "common.hpp"
#include "replay.hpp"

namespace perfbench {

/// Replay self time of the serving-path layers per measured request, us.
[[nodiscard]] double accounted_us_per_req(const ReplayResult& traced);

/// The span-derived per-layer metrics (the caller adds the load-run
/// ones). `plain` is the same replay with spans off (trace overhead).
[[nodiscard]] std::vector<Metric> layer_metrics(const ReplayResult& traced,
                                                const ReplayResult& plain,
                                                double server_cpu_us_per_req);

/// Prints one row per span name, then the CPU accounting line.
void print_traced_table(const ReplayResult& traced,
                        double server_cpu_us_per_req);

/// Writes every span as "index name start_ns end_ns parent" (TSV).
void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& file);

/// Prints the end-to-end metrics as a table.
void print_summary(const std::vector<Metric>& metrics);

}  // namespace perfbench
