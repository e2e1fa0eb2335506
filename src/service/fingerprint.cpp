#include "service/fingerprint.hpp"

#include <algorithm>
#include <bit>

#include "service/instance_table.hpp"
#include "util/prng.hpp"

namespace medcc::service {

namespace {

/// One SplitMix64 scramble of `x` -- the mixing primitive for all hashes.
std::uint64_t mix(std::uint64_t x) {
  return util::splitmix64(x);
}

/// Folds `value` into the running hash `h` (order-dependent chain).
std::uint64_t chain(std::uint64_t h, std::uint64_t value) {
  return mix(h ^ mix(value));
}

/// Bit pattern of a double with -0.0 normalized to +0.0 so numerically
/// equal fields hash equal.
std::uint64_t double_bits(double x) {
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

std::uint64_t chain_double(std::uint64_t h, double x) {
  return chain(h, double_bits(x));
}

std::uint64_t chain_string(std::uint64_t h, std::string_view s) {
  h = chain(h, s.size());
  for (const char c : s) h = chain(h, static_cast<unsigned char>(c));
  return h;
}

/// Per-type canonical hash: structure only (power, rate), no name/index.
std::uint64_t hash_type(const cloud::VmType& type, std::uint64_t seed) {
  std::uint64_t h = chain(seed, 0x7479706573ULL);  // "types" tag
  h = chain_double(h, type.processing_power);
  h = chain_double(h, type.cost_rate);
  return h;
}

/// True when the sorted copy of `hashes` has no duplicates.
bool all_distinct(std::vector<std::uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end();
}

/// Runs the full Weisfeiler-Lehman labeling under `seed`. Returns the
/// final per-module labels; `state` receives the order-independent
/// chain over labels and type hashes, stopped before the scalars.
std::vector<std::uint64_t> label_run(const sched::Instance& inst,
                                     std::uint64_t seed,
                                     std::uint64_t& state) {
  const auto& wf = inst.workflow();
  const auto& graph = wf.graph();
  const std::size_t m = wf.module_count();
  const std::size_t n = inst.type_count();

  std::vector<std::uint64_t> type_hash(n);
  for (std::size_t j = 0; j < n; ++j)
    type_hash[j] = hash_type(inst.catalog().type(j), seed);

  // Initial label: the module's own rows of TE and CE, keyed by type hash
  // so the combination is invariant to catalog order.
  std::vector<std::uint64_t> label(m);
  for (workflow::NodeId i = 0; i < m; ++i) {
    std::uint64_t h = chain(seed, wf.module(i).is_fixed() ? 2u : 1u);
    std::uint64_t rows = 0;  // order-independent over types
    for (std::size_t j = 0; j < n; ++j) {
      std::uint64_t cell = chain(type_hash[j], 0x726f77ULL);  // "row" tag
      cell = chain_double(cell, inst.time(i, j));
      cell = chain_double(cell, inst.cost(i, j));
      rows += mix(cell);
    }
    label[i] = chain(h, rows);
  }

  // Refinement: each round folds in the multiset of labelled in- and
  // out-neighbourhoods (edge data size and transfer time included), so
  // after ~log2(m)+2 rounds a label encodes the module's whole
  // neighbourhood out to the graph's diameter on typical workflows.
  const int rounds =
      2 + std::bit_width(static_cast<std::uint64_t>(m) + 1);
  std::vector<std::uint64_t> next(m);
  for (int round = 0; round < rounds; ++round) {
    for (workflow::NodeId i = 0; i < m; ++i) {
      std::uint64_t in_sum = 0;
      for (const dag::EdgeId e : graph.in_edges(i)) {
        std::uint64_t h = chain(label[graph.edge(e).src], 0x696eULL);  // "in"
        h = chain_double(h, wf.data_size(e));
        h = chain_double(h, inst.edge_time(e));
        in_sum += mix(h);
      }
      std::uint64_t out_sum = 0;
      for (const dag::EdgeId e : graph.out_edges(i)) {
        std::uint64_t h =
            chain(label[graph.edge(e).dst], 0x6f7574ULL);  // "out"
        h = chain_double(h, wf.data_size(e));
        h = chain_double(h, inst.edge_time(e));
        out_sum += mix(h);
      }
      next[i] = chain(chain(label[i], in_sum), out_sum);
    }
    label.swap(next);
  }

  // Order-independent combination of labels and type hashes.
  std::uint64_t h = chain(seed, 0x6d656463ULL);  // "medc" tag
  h = chain(h, m);
  h = chain(h, graph.edge_count());
  h = chain(h, n);
  std::uint64_t module_sum = 0;
  for (const std::uint64_t l : label) module_sum += mix(l);
  h = chain(h, module_sum);
  std::uint64_t type_sum = 0;
  for (const std::uint64_t t : type_hash) type_sum += mix(t);
  state = chain(h, type_sum);
  return label;
}

/// Order-dependent hash of the instance layout, index for index,
/// stopped before the scalars.
std::uint64_t exact_state(const sched::Instance& inst) {
  const auto& wf = inst.workflow();
  const auto& graph = wf.graph();
  std::uint64_t h = 0x65786163ULL;  // "exac" tag
  h = chain(h, wf.module_count());
  h = chain(h, graph.edge_count());
  h = chain(h, inst.type_count());
  for (workflow::NodeId i = 0; i < wf.module_count(); ++i) {
    h = chain(h, wf.module(i).is_fixed() ? 2u : 1u);
    for (std::size_t j = 0; j < inst.type_count(); ++j) {
      h = chain_double(h, inst.time(i, j));
      h = chain_double(h, inst.cost(i, j));
    }
  }
  for (dag::EdgeId e = 0; e < graph.edge_count(); ++e) {
    h = chain(h, graph.edge(e).src);
    h = chain(h, graph.edge(e).dst);
    h = chain_double(h, wf.data_size(e));
    h = chain_double(h, inst.edge_time(e));
  }
  for (std::size_t j = 0; j < inst.type_count(); ++j) {
    h = chain_double(h, inst.catalog().type(j).processing_power);
    h = chain_double(h, inst.catalog().type(j).cost_rate);
  }
  return h;
}

/// The scalar part: budget, quantum, network, solver, config -- in this
/// order -- folded into one chain state of the print.
std::uint64_t chain_scalars(std::uint64_t h, const InstancePrint& print,
                            double budget, std::string_view solver,
                            std::string_view config) {
  h = chain_double(h, budget);
  h = chain_double(h, print.quantum);
  h = chain_double(h, print.network.bandwidth);
  h = chain_double(h, print.network.link_delay);
  h = chain_double(h, print.network.transfer_cost_rate);
  h = chain_string(h, solver);
  return chain_string(h, config);
}

}  // namespace

InstancePrint print_instance(const sched::Instance& instance) {
  InstancePrint print;
  print.module_hash = label_run(instance,
                                0x243f6a8885a308d3ULL,  // pi digits
                                print.hi_state);
  (void)label_run(instance,
                  0x13198a2e03707344ULL,  // more pi digits
                  print.lo_state);
  print.exact_state = exact_state(instance);
  print.quantum = instance.billing().quantum();
  print.network = instance.network();
  print.type_hash.resize(instance.type_count());
  for (std::size_t j = 0; j < instance.type_count(); ++j)
    print.type_hash[j] =
        hash_type(instance.catalog().type(j), 0x243f6a8885a308d3ULL);
  print.modules_distinct = all_distinct(print.module_hash);
  print.types_distinct = all_distinct(print.type_hash);
  return print;
}

FingerprintDetail finish_fingerprint(const InstancePrint& print,
                                     double budget, std::string_view solver,
                                     std::string_view config) {
  FingerprintDetail detail;
  detail.canonical.hi =
      chain_scalars(print.hi_state, print, budget, solver, config);
  detail.canonical.lo =
      chain_scalars(print.lo_state, print, budget, solver, config);
  detail.exact =
      chain_scalars(print.exact_state, print, budget, solver, config);
  detail.module_hash = print.module_hash;
  detail.type_hash = print.type_hash;
  detail.modules_distinct = print.modules_distinct;
  detail.types_distinct = print.types_distinct;
  detail.solver = std::string(solver);
  return detail;
}

FingerprintDetail fingerprint_instance(const sched::Instance& instance,
                                       double budget, std::string_view solver,
                                       std::string_view config) {
  return finish_fingerprint(print_instance(instance), budget, solver, config);
}

FingerprintDetail fingerprint(const SchedulingRequest& request) {
  MEDCC_EXPECTS(request.instance != nullptr);
  if (request.interned != nullptr) {
    MEDCC_EXPECTS(request.interned->instance() == request.instance);
    return finish_fingerprint(request.interned->print(), request.budget,
                              request.solver, request.config);
  }
  return fingerprint_instance(*request.instance, request.budget,
                              request.solver, request.config);
}

}  // namespace medcc::service
