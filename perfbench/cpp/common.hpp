// Small helpers shared by the benchmark's translation units: a
// monotonic nanosecond clock, order statistics, and a minimal JSON
// writer for the one-line run record.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile, `q` in [0, 1]; 0 when `values` is empty.
/// Sorts a copy, so callers keep their sample order.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One named metric with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision number (JSON has no NaN/Inf; those become null).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

[[nodiscard]] inline std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + json_escape(ms[i].name) + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" +
           json_escape(ms[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
