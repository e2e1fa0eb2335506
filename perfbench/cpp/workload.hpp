// Seeded request streams for the three serving workloads.
//
// Every request is a pre-encoded solve_request frame ("template") plus
// the budget patched into it at send time, so a stream of tens of
// thousands of never-seen (instance, budget, solver) triples costs one
// encode per (instance, solver) rather than one per request. Never-seen
// problems are drawn from the seeded generator as the run asks for them,
// so a stream never runs out however fast the server answers. The same
// seed always yields the same frames in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/instance.hpp"
#include "service/request.hpp"

namespace perfbench {

/// What the server is expected to do with a request.
enum class Kind : std::uint8_t {
  exact,  ///< verbatim repeat of an answered request (wire/exact hit)
  twin,   ///< module- and catalog-permuted twin (isomorphic hit)
  miss,   ///< never-seen problem (fresh solve)
};

/// One (instance, solver) pair, encoded once.
struct Template {
  /// Full solve_request frame with request id 0.
  std::string frame;
  std::shared_ptr<const medcc::sched::Instance> instance;
  std::string solver;
  /// The budget encoded in `frame`.
  double budget = 0.0;
  /// The paper's 20 budget levels between Cmin and Cmax of `instance`.
  std::vector<double> levels;
};

struct Request {
  std::uint32_t tmpl = 0;
  /// Patched into the frame (solve_request body offset 0).
  double budget = 0.0;
  /// Template whose MED this request must reproduce bit-for-bit: the
  /// base problem for twins and exact repeats, itself otherwise.
  std::uint32_t base = 0;
  Kind kind = Kind::miss;
  /// Enters med_ratio (a fixed, seed-determined set of distinct
  /// problems, so the ratio does not depend on throughput).
  bool in_ratio = false;
};

struct Workload {
  std::string name;
  std::size_t connections = 1;
  std::size_t window = 1;
  /// Server runs with --cache-dir on a directory seeded beforehand.
  bool durable = false;
  std::vector<Template> templates;
  /// Sent at the end of every set-up, pass after pass: a pass starts
  /// only when every answer of the previous one has arrived.
  std::vector<std::vector<Request>> warmup;
  /// The pass whose answers are the reference bytes and MEDs (must come
  /// from the wire fast path); warmup.size() when there is none.
  std::size_t reference_pass = 0;
  /// Request i of the measured phase. A cyclic list restarts from the
  /// top; otherwise `next_measured` extends the list as far as asked.
  /// The returned reference is valid until the next call.
  const Request& measured_at(std::size_t i);
  /// The measured requests drawn so far (all of them when cyclic).
  std::vector<Request> measured;
  bool cyclic = false;
  /// Draws measured request number measured.size() (non-cyclic lists).
  std::function<Request(Workload&)> next_measured;
  /// Measured requests flagged in_ratio, all among the first ones drawn;
  /// med_ratio is complete only when every one of them was answered.
  std::size_t ratio_requests = 0;
  /// Problems solved into the seed directory before the first set-up.
  std::vector<medcc::service::SchedulingRequest> seed_problems;
};

/// Builds `name` ("hit_exact", "miss_sweep", "mixed_durable") for
/// `seed`. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Appends `t.frame` to `out` with `id` and `budget` patched in.
void append_frame(std::string& out, const Template& t, double budget,
                  std::uint64_t id);

/// The bytes of one request exactly as the load generator sends them.
[[nodiscard]] std::string frame_of(const Workload& w, const Request& r,
                                   std::uint64_t id);

}  // namespace perfbench
