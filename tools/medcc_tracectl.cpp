// Trace inspection tool: asks each listed medcc_server replica for its
// tracer state over the trace_dump admin frame and prints one block
// per node -- counters, the per-stage latency distributions (read
// from the node's metrics table over the stats frame), and (on
// request) recent or slowest retained traces with their span trees.
//
// Usage: medcc_tracectl --nodes HOST:PORT,... [--timeout MS]
//                       [--recent N] [--slowest N] [--stages]
//                       [--metrics]
//
//   --recent N    print the N most recently retained traces per node
//   --slowest N   print the N slowest retained traces per node
//   --stages      print each server-side stage's count, p50 and p99
//                 from the node's metrics rows (default when no other
//                 view is requested). queue_wait and persist_append
//                 count every request, the other stages traced ones;
//                 stages with no samples are skipped
//   --metrics     also fetch and print the node's Prometheus metrics
//                 exposition (stats frame, StatsFormat::prometheus)
//
// Exit status: 0 when every node answered, 1 when at least one was
// unreachable (its block says so and the remaining nodes are still
// queried), 2 on usage errors.
//
// Sample output (one node, one retained trace):
//
//   node medcc-a at 127.0.0.1:7101: tracing on (v2, features repl+trace)
//     started 4096  sampled 64  completed 64  dropped 4032
//     stage solve  count=17  p50_ms=0.024  p99_ms=0.768
//     trace 7f3a...c2 total_ms=31.402 slow origin=medcc-a spans=5
//       request        31.402ms @ +0.000ms
//       queue_wait      2.120ms @ +0.310ms
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/endpoint.hpp"
#include "obs/trace.hpp"
#include "service/metrics.hpp"
#include "util/flags.hpp"

namespace {

constexpr const char* kUsage =
    "usage: medcc_tracectl --nodes HOST:PORT,... [--timeout MS]\n"
    "                      [--recent N] [--slowest N] [--stages]"
    " [--metrics]\n";

struct Options {
  std::vector<medcc::net::Endpoint> nodes;
  double timeout_ms = 5000.0;
  std::uint32_t recent = 0;
  std::uint32_t slowest = 0;
  bool stages = false;
  bool metrics = false;
};

std::vector<medcc::net::Endpoint> parse_nodes(std::string_view list) {
  std::vector<medcc::net::Endpoint> nodes;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::string_view token = list.substr(
        begin, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - begin);
    auto endpoint = medcc::net::parse_endpoint(token);
    if (!endpoint)
      throw std::invalid_argument("bad endpoint '" + std::string(token) + "'");
    nodes.push_back(*std::move(endpoint));
    if (comma == std::string_view::npos) break;
    begin = comma + 1;
  }
  return nodes;
}

std::string format_ms(std::int64_t ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buffer;
}

/// Each server-side stage and the metrics row that holds its
/// distribution. The client_* stages have none.
using medcc::obs::Stage;
using medcc::service::Latency;
constexpr std::pair<Stage, Latency> kStageRows[] = {
    {Stage::request, Latency::stage_request},
    {Stage::decode, Latency::stage_decode},
    {Stage::queue_wait, Latency::queue_delay},
    {Stage::solve, Latency::stage_solve},
    {Stage::cache_lookup, Latency::stage_cache_lookup},
    {Stage::wire_fastpath, Latency::stage_wire_fastpath},
    {Stage::persist_append, Latency::persist_append},
    {Stage::repl_push, Latency::stage_repl_push},
    {Stage::repl_apply, Latency::stage_repl_apply},
};

/// The value of one "name value" line of a text stats dump; 0 when
/// the dump has no such line.
double dump_value(const std::string& dump, const std::string& name) {
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line))
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::stod(line.substr(name.size() + 1));
  return 0.0;
}

void print_stages(const std::string& dump) {
  for (const auto& [stage, row] : kStageRows) {
    const std::string name(
        medcc::service::kLatencyRows[static_cast<std::size_t>(row)].name);
    const double count = dump_value(dump, name + "_count");
    if (count <= 0.0) continue;
    char line[96];
    std::snprintf(line, sizeof(line), "  count=%.0f  p50_ms=%.3f  p99_ms=%.3f",
                  count, dump_value(dump, name + "_p50") * 1e3,
                  dump_value(dump, name + "_p99") * 1e3);
    std::cout << "  stage " << medcc::obs::to_string(stage) << line << "\n";
  }
}

void print_trace(const medcc::obs::TraceRecord& trace) {
  std::cout << "  trace " << trace.id.to_hex() << " total_ms="
            << format_ms(trace.total_ns) << (trace.slow ? " slow" : "")
            << " origin=" << (trace.origin.empty() ? "?" : trace.origin)
            << " spans=" << trace.spans.size() << "\n";
  for (const medcc::obs::Span& span : trace.spans)
    std::cout << "    " << medcc::obs::to_string(span.stage) << "  "
              << format_ms(span.duration_ns()) << "ms @ +"
              << format_ms(span.start_ns - trace.started_ns) << "ms\n";
}

/// Queries one node and prints its block; false when unreachable.
bool report(const medcc::net::Endpoint& node, const Options& opt) {
  medcc::net::ClientConfig config;
  config.host = node.host;
  config.port = node.port;
  config.connect_timeout_ms = opt.timeout_ms;
  config.request_timeout_ms = opt.timeout_ms;
  try {
    medcc::net::Client client(std::move(config));
    medcc::net::Hello offer;
    offer.version = medcc::net::kMaxVersion;
    offer.features =
        medcc::net::kFeatureReplication | medcc::net::kFeatureTracing;
    offer.node_id = "medcc_tracectl";
    const medcc::net::Hello granted = client.hello(offer);
    if (granted.version < medcc::net::kVersion2) {
      std::cout << "node at " << medcc::net::to_string(node)
                << ": protocol v" << granted.version
                << " (no tracing support)\n";
      return true;
    }
    const std::uint32_t want = std::max(opt.recent, opt.slowest);
    const medcc::net::TraceDump dump = client.trace_dump(want);
    std::cout << "node " << dump.node_id << " at "
              << medcc::net::to_string(node) << ": tracing "
              << (dump.enabled ? "on" : "off") << " (v" << granted.version
              << ", features "
              << ((granted.features & medcc::net::kFeatureReplication) != 0
                      ? "repl"
                      : "")
              << ((granted.features & medcc::net::kFeatureTracing) != 0
                      ? "+trace"
                      : "")
              << ")\n"
              << "  started " << dump.started << "  sampled " << dump.sampled
              << "  completed " << dump.completed << "  dropped "
              << dump.dropped << "\n";
    if (opt.stages) print_stages(client.stats(medcc::net::StatsFormat::text));
    if (opt.slowest > 0) {
      std::vector<medcc::obs::TraceRecord> traces = dump.traces;
      std::stable_sort(traces.begin(), traces.end(),
                       [](const medcc::obs::TraceRecord& a,
                          const medcc::obs::TraceRecord& b) {
                         return a.total_ns > b.total_ns;
                       });
      if (traces.size() > opt.slowest) traces.resize(opt.slowest);
      std::cout << "  slowest " << traces.size() << " of " << dump.completed
                << " retained:\n";
      for (const medcc::obs::TraceRecord& trace : traces) print_trace(trace);
    }
    if (opt.recent > 0) {
      std::size_t shown = 0;
      std::cout << "  recent traces (newest first):\n";
      for (const medcc::obs::TraceRecord& trace : dump.traces) {
        if (shown++ >= opt.recent) break;
        print_trace(trace);
      }
    }
    if (opt.metrics)
      std::cout << client.stats(medcc::net::StatsFormat::prometheus);
    return true;
  } catch (const std::exception& ex) {
    std::cout << "node at " << medcc::net::to_string(node)
              << ": unreachable (" << ex.what() << ")\n";
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--nodes" && i + 1 < argc) {
        opt.nodes = parse_nodes(argv[++i]);
      } else if (arg == "--timeout" && i + 1 < argc) {
        opt.timeout_ms = medcc::util::parse_flag_double(argv[++i]);
      } else if (arg == "--recent" && i + 1 < argc) {
        opt.recent = static_cast<std::uint32_t>(
            medcc::util::parse_flag_size(argv[++i]));
      } else if (arg == "--slowest" && i + 1 < argc) {
        opt.slowest = static_cast<std::uint32_t>(
            medcc::util::parse_flag_size(argv[++i]));
      } else if (arg == "--stages") {
        opt.stages = true;
      } else if (arg == "--metrics") {
        opt.metrics = true;
      } else {
        std::cerr << kUsage;
        return 2;
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "medcc_tracectl: " << ex.what() << "\n" << kUsage;
    return 2;
  }
  if (opt.nodes.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  // Counters + stage breakdown is the default view.
  if (!opt.stages && opt.recent == 0 && opt.slowest == 0 && !opt.metrics)
    opt.stages = true;

  bool all_ok = true;
  for (const medcc::net::Endpoint& node : opt.nodes)
    if (!report(node, opt)) all_ok = false;
  return all_ok ? 0 : 1;
}
