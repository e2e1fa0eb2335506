#include "service/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "dag/flat_dag.hpp"
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

/// The two independently seeded label runs: canonical hi, then lo.
constexpr std::size_t kRuns = 2;
constexpr std::array<std::uint64_t, kRuns> kSeeds = {
    0x243f6a8885a308d3ULL,   // pi digits
    0x13198a2e03707344ULL};  // more pi digits

/// One value per label run, for one module or one VM type.
using Runs = std::array<std::uint64_t, kRuns>;

/// An edge whose data-size or transfer-time bits differ from the first
/// edge's, with the words it folds in.
struct OwnEdge {
  dag::NodeId src = 0;
  dag::NodeId dst = 0;
  std::uint64_t size_word = 0;  ///< mix(bits(data size))
  std::uint64_t link_word = 0;  ///< mix(bits(transfer time))
};

/// mix(chain(chain(h, x), y)) given mix(x) and mix(y): one cell's
/// contribution to a row sum, or one edge's to a neighbour's sum.
std::uint64_t fold_words(std::uint64_t h, std::uint64_t x_word,
                         std::uint64_t y_word) {
  return mix(mix(mix(h ^ x_word) ^ y_word));
}

/// Runs the full Weisfeiler-Lehman labeling under both seeds and fills
/// the print's two chain states (order-independent over labels and
/// type hashes, stopped before the scalars), the seed-0 module labels
/// and the seed-0 type hashes.
///
/// Per seed this is the textbook construction: a module's initial label
/// chains its kind with the sum over types of mix(chain(chain(chain(
/// type hash, "row"), time), cost)); each round replaces it by
/// chain(chain(label, in_sum), out_sum), where in_sum adds, over the
/// module's in-edges, mix(chain(chain(chain(src label, "in"), data
/// size), transfer time)), and out_sum likewise over out-edges with the
/// dst label and "out". Only the evaluation order differs, and no bit:
///  - every term that depends on neither the round nor the seed is
///    mixed once (the "row" tags per type, the time/cost words per cell,
///    the data-size/transfer-time words per edge), and chain(label, tag)
///    is taken once per module and round, not once per incident edge;
///  - an edge carrying the first edge's two words contributes a value
///    that depends only on its neighbour's label: `in_shared` /
///    `out_shared`, computed once per module and round. Each module's
///    sums start as the plain sum of those values over its neighbours,
///    gathered in registers; an edge with words of its own then adds the
///    difference between its real term and the shared value. In a
///    workflow without transfers every edge carries the first edge's
///    words, so an edge costs one add per round and direction;
///  - the sums are modular, so neither the order of the adds nor the
///    split into shared value plus difference changes a bit;
///  - the two seeds are independent chains, interleaved in one loop.
void label_runs(const sched::Instance& inst, InstancePrint& print) {
  const auto& wf = inst.workflow();
  const auto& graph = wf.graph();
  const dag::FlatDag& flat = inst.flat_dag();
  const std::size_t m = wf.module_count();
  const std::size_t n = inst.type_count();

  std::vector<Runs> type_hash(n);
  std::vector<Runs> row_tag(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t s = 0; s < kRuns; ++s) {
      type_hash[j][s] = hash_type(inst.catalog().type(j), kSeeds[s]);
      row_tag[j][s] = chain(type_hash[j][s], 0x726f77ULL);  // "row" tag
    }
  }

  // Initial label: the module's own rows of TE and CE, keyed by type hash
  // so the combination is invariant to catalog order.
  std::vector<Runs> label(m);
  for (workflow::NodeId i = 0; i < m; ++i) {
    const std::uint64_t kind = wf.module(i).is_fixed() ? 2u : 1u;
    Runs rows{};  // order-independent over types
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t time_word = mix(double_bits(inst.time(i, j)));
      const std::uint64_t cost_word = mix(double_bits(inst.cost(i, j)));
      for (std::size_t s = 0; s < kRuns; ++s)
        rows[s] += fold_words(row_tag[j][s], time_word, cost_word);
    }
    for (std::size_t s = 0; s < kRuns; ++s)
      label[i][s] = chain(chain(kSeeds[s], kind), rows[s]);
  }

  // The first edge's words, and every edge whose bits differ from them.
  std::uint64_t first_size_word = 0;
  std::uint64_t first_link_word = 0;
  std::vector<OwnEdge> own;
  if (graph.edge_count() > 0) {
    const std::uint64_t first_size_bits = double_bits(wf.data_size(0));
    const std::uint64_t first_link_bits = double_bits(inst.edge_time(0));
    first_size_word = mix(first_size_bits);
    first_link_word = mix(first_link_bits);
    for (dag::EdgeId e = 1; e < graph.edge_count(); ++e) {
      const std::uint64_t size_bits = double_bits(wf.data_size(e));
      const std::uint64_t link_bits = double_bits(inst.edge_time(e));
      if (size_bits == first_size_bits && link_bits == first_link_bits)
        continue;
      own.push_back(OwnEdge{graph.edge(e).src, graph.edge(e).dst,
                            mix(size_bits), mix(link_bits)});
    }
  }

  // Refinement: each round folds in the multiset of labelled in- and
  // out-neighbourhoods (edge data size and transfer time included), so
  // after ~log2(m)+2 rounds a label encodes the module's whole
  // neighbourhood out to the graph's diameter on typical workflows.
  const std::uint64_t in_word = mix(0x696eULL);     // "in"
  const std::uint64_t out_word = mix(0x6f7574ULL);  // "out"
  std::vector<Runs> in_tag(m);
  std::vector<Runs> out_tag(m);
  std::vector<Runs> in_shared(m);
  std::vector<Runs> out_shared(m);
  std::vector<Runs> in_sum(m);
  std::vector<Runs> out_sum(m);
  const int rounds =
      2 + std::bit_width(static_cast<std::uint64_t>(m) + 1);
  for (int round = 0; round < rounds; ++round) {
    for (workflow::NodeId i = 0; i < m; ++i) {
      for (std::size_t s = 0; s < kRuns; ++s) {
        in_tag[i][s] = mix(label[i][s] ^ in_word);
        out_tag[i][s] = mix(label[i][s] ^ out_word);
        in_shared[i][s] =
            fold_words(in_tag[i][s], first_size_word, first_link_word);
        out_shared[i][s] =
            fold_words(out_tag[i][s], first_size_word, first_link_word);
      }
    }
    for (workflow::NodeId i = 0; i < m; ++i) {
      Runs in{};
      for (const dag::FlatArc& arc : flat.in_arcs(i))
        for (std::size_t s = 0; s < kRuns; ++s) in[s] += in_shared[arc.node][s];
      Runs out{};
      for (const dag::FlatArc& arc : flat.out_arcs(i))
        for (std::size_t s = 0; s < kRuns; ++s)
          out[s] += out_shared[arc.node][s];
      in_sum[i] = in;
      out_sum[i] = out;
    }
    for (const OwnEdge& edge : own) {
      for (std::size_t s = 0; s < kRuns; ++s) {
        in_sum[edge.dst][s] +=
            fold_words(in_tag[edge.src][s], edge.size_word, edge.link_word) -
            in_shared[edge.src][s];
        out_sum[edge.src][s] +=
            fold_words(out_tag[edge.dst][s], edge.size_word, edge.link_word) -
            out_shared[edge.dst][s];
      }
    }
    for (workflow::NodeId i = 0; i < m; ++i)
      for (std::size_t s = 0; s < kRuns; ++s)
        label[i][s] = chain(chain(label[i][s], in_sum[i][s]), out_sum[i][s]);
  }

  // Order-independent combination of labels and type hashes, per seed.
  Runs state{};
  for (std::size_t s = 0; s < kRuns; ++s) {
    std::uint64_t h = chain(kSeeds[s], 0x6d656463ULL);  // "medc" tag
    h = chain(h, m);
    h = chain(h, graph.edge_count());
    h = chain(h, n);
    std::uint64_t module_sum = 0;
    for (const Runs& l : label) module_sum += mix(l[s]);
    h = chain(h, module_sum);
    std::uint64_t type_sum = 0;
    for (const Runs& t : type_hash) type_sum += mix(t[s]);
    state[s] = chain(h, type_sum);
  }
  print.hi_state = state[0];
  print.lo_state = state[1];
  print.module_hash.resize(m);
  for (workflow::NodeId i = 0; i < m; ++i) print.module_hash[i] = label[i][0];
  print.type_hash.resize(n);
  for (std::size_t j = 0; j < n; ++j) print.type_hash[j] = type_hash[j][0];
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
  label_runs(instance, print);
  print.exact_state = exact_state(instance);
  print.quantum = instance.billing().quantum();
  print.network = instance.network();
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
