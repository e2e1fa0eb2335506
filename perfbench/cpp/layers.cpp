#include "layers.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace perfbench {
namespace {

double duration_ns(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns);
}

/// Self time of every span, ns.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = duration_ns(spans[i]);
  for (const Span& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= duration_ns(s);
  return self;
}

/// Durations (ns) of the spans called `name` on the request path, or --
/// when the path never reached that layer -- of its probe spans.
std::vector<double> samples(const ReplayResult& r, const std::string& name) {
  std::vector<double> path, probe;
  for (const Span& s : r.spans) {
    if (name != s.name) continue;
    (s.parent >= 0 ? path : probe).push_back(duration_ns(s));
  }
  return path.empty() ? probe : path;
}

}  // namespace

double accounted_us_per_req(const ReplayResult& traced) {
  double ns = 0.0;
  for (std::size_t i = traced.first_measured_span; i < traced.path_span_end; ++i)
    if (traced.spans[i].parent >= 0) ns += duration_ns(traced.spans[i]);
  return traced.measured_requests > 0
             ? ns / 1e3 / static_cast<double>(traced.measured_requests)
             : 0.0;
}

std::vector<Metric> layer_metrics(const ReplayResult& traced,
                                  const ReplayResult& plain,
                                  double server_cpu_us_per_req) {
  std::vector<Metric> out;
  const auto q = [&](const std::string& metric, const std::string& span,
                     double p, double scale, const std::string& unit) {
    out.push_back({metric, quantile(samples(traced, span), p) / scale, unit});
  };
  q("net.decode_us_p50", "net.decode", 0.5, 1e3, "us");
  q("net.decode_us_p90", "net.decode", 0.9, 1e3, "us");
  q("net.encode_us_p50", "net.encode", 0.5, 1e3, "us");
  out.push_back({"net.unaccounted_us_per_req",
                 server_cpu_us_per_req - accounted_us_per_req(traced), "us"});
  q("service.fingerprint_us_p50", "service.fingerprint", 0.5, 1e3, "us");
  q("service.fingerprint_us_p90", "service.fingerprint", 0.9, 1e3, "us");
  q("service.cache_find_us_p50", "service.cache_find", 0.5, 1e3, "us");
  q("service.cache_insert_us_p50", "service.cache_insert", 0.5, 1e3, "us");
  q("service.wire_find_ns_p50", "net.wire_find", 0.5, 1.0, "ns");
  q("sched.instance_build_us_p50", "probe.instance_build", 0.5, 1e3, "us");
  q("sched.cg.solve_us_p50", "sched.cg.solve", 0.5, 1e3, "us");
  q("sched.cg.solve_us_p90", "sched.cg.solve", 0.9, 1e3, "us");
  q("sched.gain3.solve_us_p50", "sched.gain3.solve", 0.5, 1e3, "us");
  q("sched.gain2.solve_us_p50", "sched.gain2.solve", 0.5, 1e3, "us");
  q("sched.gain2.solve_us_p90", "sched.gain2.solve", 0.9, 1e3, "us");
  q("sched.loss2.solve_us_p50", "sched.loss2.solve", 0.5, 1e3, "us");
  q("sched.loss2.solve_us_p90", "sched.loss2.solve", 0.9, 1e3, "us");
  for (const char* solver : {"cg", "gain3", "gain2", "loss2"}) {
    const auto it = traced.iterations.find(solver);
    out.push_back({std::string("sched.") + solver + ".iterations_total",
                   it == traced.iterations.end()
                       ? 0.0
                       : static_cast<double>(it->second),
                   "count"});
  }
  out.push_back(
      {"dag.kernel_makespan_ns", quantile(traced.kernel_makespan_ns, 0.5), "ns"});
  out.push_back(
      {"dag.legacy_makespan_ns", quantile(traced.legacy_makespan_ns, 0.5), "ns"});
  q("persist.append_us_p50", "persist.append", 0.5, 1e3, "us");
  q("persist.append_us_p90", "persist.append", 0.9, 1e3, "us");
  out.push_back({"persist.warm_start_ms", traced.warm_start_ms, "ms"});
  out.push_back({"obs.trace_overhead_pct",
                 plain.path_seconds > 0.0
                     ? (traced.path_seconds / plain.path_seconds - 1.0) * 100.0
                     : 0.0,
                 "%"});
  return out;
}

void print_traced_table(const ReplayResult& traced,
                        double server_cpu_us_per_req) {
  const auto self = self_times(traced.spans);
  struct Row {
    std::vector<double> self_ns;
    double measured_ns = 0.0;
    bool probe = false;
  };
  std::map<std::string, Row> rows;
  std::vector<std::string> order;
  for (std::size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& s = traced.spans[i];
    const bool probe = i >= traced.path_span_end;
    const std::string name = std::string(probe ? "probe:" : "") + s.name;
    auto [it, fresh] = rows.try_emplace(name);
    if (fresh) order.push_back(name);
    it->second.self_ns.push_back(self[i]);
    it->second.probe = probe;
    if (i >= traced.first_measured_span && i < traced.path_span_end)
      it->second.measured_ns += self[i];
  }
  const double measured =
      static_cast<double>(std::max<std::size_t>(1, traced.measured_requests));
  std::printf("traced replay: %zu spans, %zu measured requests\n",
              traced.spans.size(), traced.measured_requests);
  std::printf("%-28s %9s %12s %12s %12s %14s\n", "span (self time)", "samples",
              "p50_us", "p90_us", "mean_us", "measured_us/req");
  for (const std::string& name : order) {
    const Row& row = rows[name];
    std::printf("%-28s %9zu %12.3f %12.3f %12.3f %14.3f\n", name.c_str(),
                row.self_ns.size(), quantile(row.self_ns, 0.5) / 1e3,
                quantile(row.self_ns, 0.9) / 1e3, mean(row.self_ns) / 1e3,
                row.measured_ns / 1e3 / measured);
  }
  const double accounted = accounted_us_per_req(traced);
  std::printf(
      "accounting per measured request: layer self time %.3f us + "
      "unaccounted %.3f us = server cpu %.3f us\n",
      accounted, server_cpu_us_per_req - accounted, server_cpu_us_per_req);
}

void write_spans(const std::vector<Span>& spans,
                 const std::filesystem::path& file) {
  std::ofstream out(file);
  out << "index\tname\tstart_ns\tend_ns\tparent\n";
  for (std::size_t i = 0; i < spans.size(); ++i)
    out << i << '\t' << spans[i].name << '\t' << spans[i].start_ns << '\t'
        << spans[i].end_ns << '\t' << spans[i].parent << '\n';
}

void print_summary(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-26s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace perfbench
