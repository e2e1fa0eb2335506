// Differential test of a workflow's first touch -- Workflow::validate()
// and the Weisfeiler-Lehman instance print -- against verbatim copies of
// the implementations they replaced.
//
// The oracles below are the earlier validate() (with its reachability
// pass: one BFS from the entry plus one per module towards the exit) and
// the earlier per-seed, module-major label_run / exact_state. The current
// code must produce the same problem list, the same bad_body text through
// decode_solve_request, and the same InstancePrint bits on random DAGs,
// workflow patterns, edge-data variants and constructed invalid graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/vm_type.hpp"
#include "expr/instance_gen.hpp"
#include "net/codec.hpp"
#include "sched/instance.hpp"
#include "service/fingerprint.hpp"
#include "service/request.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::net::CodecError;
using medcc::net::WireError;
using medcc::sched::Instance;
using medcc::workflow::NodeId;
using medcc::workflow::Workflow;

// ---------------------------------------------------------------------------
// Oracle: the earlier Workflow::validate(), reachability pass included.

std::vector<std::string> oracle_validate(const Workflow& wf) {
  std::vector<std::string> problems;
  const auto& graph = wf.graph();
  if (wf.module_count() == 0) {
    problems.push_back("workflow has no modules");
    return problems;
  }
  if (!graph.is_acyclic())
    problems.push_back("dependency graph contains a cycle");

  const auto srcs = graph.sources();
  const auto snks = graph.sinks();
  if (srcs.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one entry module, found " << srcs.size();
    problems.push_back(os.str());
  }
  if (snks.size() != 1) {
    std::ostringstream os;
    os << "expected exactly one exit module, found " << snks.size();
    problems.push_back(os.str());
  }
  if (srcs.size() == 1 && snks.size() == 1 && graph.is_acyclic()) {
    const auto from_entry = graph.reachable_set(srcs.front());
    for (NodeId v = 0; v < wf.module_count(); ++v) {
      if (!from_entry[v]) {
        problems.push_back("module " + wf.module(v).name +
                           " unreachable from entry");
      } else if (v != snks.front() &&
                 !graph.reachable_set(v)[snks.front()]) {
        problems.push_back("module " + wf.module(v).name +
                           " cannot reach exit");
      }
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Oracle: the earlier per-seed label_run and exact_state.

std::uint64_t mix(std::uint64_t x) { return medcc::util::splitmix64(x); }

std::uint64_t chain(std::uint64_t h, std::uint64_t value) {
  return mix(h ^ mix(value));
}

std::uint64_t double_bits(double x) {
  if (x == 0.0) x = 0.0;
  return std::bit_cast<std::uint64_t>(x);
}

std::uint64_t chain_double(std::uint64_t h, double x) {
  return chain(h, double_bits(x));
}

std::uint64_t hash_type(const medcc::cloud::VmType& type,
                        std::uint64_t seed) {
  std::uint64_t h = chain(seed, 0x7479706573ULL);
  h = chain_double(h, type.processing_power);
  h = chain_double(h, type.cost_rate);
  return h;
}

bool all_distinct(std::vector<std::uint64_t> hashes) {
  std::sort(hashes.begin(), hashes.end());
  return std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end();
}

std::vector<std::uint64_t> oracle_label_run(const Instance& inst,
                                            std::uint64_t seed,
                                            std::uint64_t& state) {
  const auto& wf = inst.workflow();
  const auto& graph = wf.graph();
  const std::size_t m = wf.module_count();
  const std::size_t n = inst.type_count();

  std::vector<std::uint64_t> type_hash(n);
  for (std::size_t j = 0; j < n; ++j)
    type_hash[j] = hash_type(inst.catalog().type(j), seed);

  std::vector<std::uint64_t> label(m);
  for (NodeId i = 0; i < m; ++i) {
    std::uint64_t h = chain(seed, wf.module(i).is_fixed() ? 2u : 1u);
    std::uint64_t rows = 0;
    for (std::size_t j = 0; j < n; ++j) {
      std::uint64_t cell = chain(type_hash[j], 0x726f77ULL);
      cell = chain_double(cell, inst.time(i, j));
      cell = chain_double(cell, inst.cost(i, j));
      rows += mix(cell);
    }
    label[i] = chain(h, rows);
  }

  const int rounds = 2 + std::bit_width(static_cast<std::uint64_t>(m) + 1);
  std::vector<std::uint64_t> next(m);
  for (int round = 0; round < rounds; ++round) {
    for (NodeId i = 0; i < m; ++i) {
      std::uint64_t in_sum = 0;
      for (const auto e : graph.in_edges(i)) {
        std::uint64_t h = chain(label[graph.edge(e).src], 0x696eULL);
        h = chain_double(h, wf.data_size(e));
        h = chain_double(h, inst.edge_time(e));
        in_sum += mix(h);
      }
      std::uint64_t out_sum = 0;
      for (const auto e : graph.out_edges(i)) {
        std::uint64_t h = chain(label[graph.edge(e).dst], 0x6f7574ULL);
        h = chain_double(h, wf.data_size(e));
        h = chain_double(h, inst.edge_time(e));
        out_sum += mix(h);
      }
      next[i] = chain(chain(label[i], in_sum), out_sum);
    }
    label.swap(next);
  }

  std::uint64_t h = chain(seed, 0x6d656463ULL);
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

std::uint64_t oracle_exact_state(const Instance& inst) {
  const auto& wf = inst.workflow();
  const auto& graph = wf.graph();
  std::uint64_t h = 0x65786163ULL;
  h = chain(h, wf.module_count());
  h = chain(h, graph.edge_count());
  h = chain(h, inst.type_count());
  for (NodeId i = 0; i < wf.module_count(); ++i) {
    h = chain(h, wf.module(i).is_fixed() ? 2u : 1u);
    for (std::size_t j = 0; j < inst.type_count(); ++j) {
      h = chain_double(h, inst.time(i, j));
      h = chain_double(h, inst.cost(i, j));
    }
  }
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
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

medcc::service::InstancePrint oracle_print(const Instance& inst) {
  medcc::service::InstancePrint print;
  print.module_hash =
      oracle_label_run(inst, 0x243f6a8885a308d3ULL, print.hi_state);
  (void)oracle_label_run(inst, 0x13198a2e03707344ULL, print.lo_state);
  print.exact_state = oracle_exact_state(inst);
  print.type_hash.resize(inst.type_count());
  for (std::size_t j = 0; j < inst.type_count(); ++j)
    print.type_hash[j] =
        hash_type(inst.catalog().type(j), 0x243f6a8885a308d3ULL);
  print.modules_distinct = all_distinct(print.module_hash);
  print.types_distinct = all_distinct(print.type_hash);
  return print;
}

void expect_same_print(const Instance& inst) {
  const auto want = oracle_print(inst);
  const auto got = medcc::service::print_instance(inst);
  EXPECT_EQ(got.hi_state, want.hi_state);
  EXPECT_EQ(got.lo_state, want.lo_state);
  EXPECT_EQ(got.exact_state, want.exact_state);
  EXPECT_EQ(got.module_hash, want.module_hash);
  EXPECT_EQ(got.type_hash, want.type_hash);
  EXPECT_EQ(got.modules_distinct, want.modules_distinct);
  EXPECT_EQ(got.types_distinct, want.types_distinct);
}

/// The instance as a server decodes it: encoded, then decoded.
std::shared_ptr<const Instance> wire_round_trip(const Instance& inst) {
  medcc::service::SchedulingRequest request;
  request.instance = std::make_shared<const Instance>(inst);
  request.budget = 1.0;
  request.solver = "cg";
  const std::string frame = medcc::net::encode_solve_request(request, 1);
  return medcc::net::decode_solve_request(
             std::string_view(frame).substr(medcc::net::kHeaderSize))
      .instance;
}

// ---------------------------------------------------------------------------
// Raw graphs, built as a Workflow and as a solve-request body.

struct RawGraph {
  std::vector<bool> fixed;  ///< one entry per module
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

Workflow build(const RawGraph& raw) {
  Workflow wf;
  for (std::size_t i = 0; i < raw.fixed.size(); ++i) {
    const std::string name = "m" + std::to_string(i);
    (void)(raw.fixed[i] ? wf.add_fixed_module(name, 1.0)
                        : wf.add_module(name, 10.0 + static_cast<double>(i)));
  }
  for (const auto& [src, dst] : raw.edges) wf.add_dependency(src, dst, 2.0);
  return wf;
}

std::string body_for(const RawGraph& raw) {
  medcc::util::ByteWriter w;
  w.f64(10.0);  // budget
  w.f64(0.0);   // deadline
  w.str("cg");
  w.str("");
  w.str("");
  w.f64(1.0);  // billing quantum
  w.f64(0.0);  // bandwidth
  w.f64(0.0);  // link delay
  w.f64(0.0);  // transfer cost rate
  w.u32(1);    // catalog size
  w.str("vt0");
  w.f64(2.0);  // processing power
  w.f64(1.0);  // cost rate
  w.u32(static_cast<std::uint32_t>(raw.fixed.size()));
  std::uint32_t computing = 0;
  for (std::size_t i = 0; i < raw.fixed.size(); ++i) {
    w.str("m" + std::to_string(i));
    w.u8(raw.fixed[i] ? 1 : 0);
    w.f64(raw.fixed[i] ? 1.0 : 10.0 + static_cast<double>(i));
    if (!raw.fixed[i]) ++computing;
  }
  w.u32(static_cast<std::uint32_t>(raw.edges.size()));
  for (const auto& [src, dst] : raw.edges) {
    w.u32(src);
    w.u32(dst);
    w.f64(2.0);
  }
  w.u32(computing);  // time-matrix rows
  w.u32(1);          // time-matrix cols
  for (std::uint32_t r = 0; r < computing; ++r)
    w.f64(5.0 + static_cast<double>(r));
  return w.take();
}

/// The bad_body text decode_solve_request gives `raw`, or nullopt when it
/// decodes.
std::optional<std::string> decode_error(const RawGraph& raw) {
  try {
    (void)medcc::net::decode_solve_request(body_for(raw));
    return std::nullopt;
  } catch (const CodecError& err) {
    EXPECT_EQ(err.code(), WireError::bad_body);
    return std::string(err.what());
  }
}

/// The text ensure_valid() threw for `problems`, as the codec wraps it.
std::string wire_text(const std::vector<std::string>& problems) {
  std::ostringstream os;
  os << "wire: invalid instance: invalid workflow:";
  for (const auto& p : problems) os << ' ' << p << ';';
  return os.str();
}

void expect_same_verdict(const RawGraph& raw) {
  const auto wf = build(raw);
  const auto want = oracle_validate(wf);
  EXPECT_EQ(wf.validate().problems, want);
  const auto error = decode_error(raw);
  if (want.empty()) {
    EXPECT_FALSE(error.has_value()) << *error;
  } else {
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(*error, wire_text(want));
  }
}

// ---------------------------------------------------------------------------

TEST(FirstTouchDifferential, ConstructedGraphsKeepProblemsAndWireText) {
  // entry(0) -> 1 -> 2 -> exit(3), plus the variations below.
  const RawGraph chain_graph{{true, false, false, true},
                             {{0, 1}, {1, 2}, {2, 3}}};
  expect_same_verdict(chain_graph);

  // A cycle with one source and one sink: 0 -> 1 <-> 2 -> 3.
  expect_same_verdict({{true, false, false, true},
                       {{0, 1}, {1, 2}, {2, 1}, {2, 3}}});
  // A cycle with no source and no sink at all.
  expect_same_verdict({{false, false, false}, {{0, 1}, {1, 2}, {2, 0}}});
  // Two entries.
  expect_same_verdict({{true, true, false, true},
                       {{0, 2}, {1, 2}, {2, 3}}});
  // Two exits.
  expect_same_verdict({{true, false, true, true},
                       {{0, 1}, {1, 2}, {1, 3}}});
  // An isolated module: a second source and a second sink.
  expect_same_verdict({{true, false, true, false},
                       {{0, 1}, {1, 2}}});
  // A single module is its own entry and exit.
  expect_same_verdict({{false}, {}});
  // Two isolated modules.
  expect_same_verdict({{false, false}, {}});
}

TEST(FirstTouchDifferential, ParallelEdgeAndSelfLoopKeepWireText) {
  const auto parallel = decode_error(
      {{true, false, true}, {{0, 1}, {1, 2}, {0, 1}}});
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(*parallel, "wire: invalid instance: Dag: parallel edge rejected");
  const auto self_loop = decode_error(
      {{true, false, true}, {{0, 1}, {1, 1}, {1, 2}}});
  ASSERT_TRUE(self_loop.has_value());
  EXPECT_EQ(*self_loop, "wire: edge endpoint out of range");
}

TEST(FirstTouchDifferential, RandomGraphsKeepProblemsAndWireText) {
  // Small random digraphs, cycles allowed: every combination of cycle,
  // source count and sink count turns up many times.
  medcc::util::Prng rng(0xF17);
  for (int trial = 0; trial < 600; ++trial) {
    RawGraph raw;
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t i = 0; i < m; ++i)
      raw.fixed.push_back(rng.uniform_int(0, 3) == 0);
    for (std::uint32_t u = 0; u < m; ++u)
      for (std::uint32_t v = 0; v < m; ++v)
        if (u != v && rng.uniform_int(0, 9) < (v > u ? 4 : 1))
          raw.edges.emplace_back(u, v);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_verdict(raw);
  }
}

TEST(FirstTouchDifferential, RandomWorkflowsValidateAndPrintIdentically) {
  medcc::util::Prng rng(0x5EED);
  for (int trial = 0; trial < 120; ++trial) {
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = static_cast<std::size_t>(rng.uniform_int(2, 60));
    spec.edges = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(spec.modules *
                                                     (spec.modules - 1) / 2)));
    spec.weighted_endpoints = trial % 2 == 0;
    if (trial % 3 != 0) {
      spec.data_size_min = 0.5;
      spec.data_size_max = 30.0;
    }
    auto wf = medcc::workflow::random_workflow(spec, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(wf.validate().problems, oracle_validate(wf));
    medcc::cloud::NetworkModel network;
    if (trial % 4 != 0) {
      network.bandwidth = 4.0 + static_cast<double>(trial % 5);
      network.link_delay = 0.125 * static_cast<double>(trial % 3);
      network.transfer_cost_rate = 0.01;
    }
    auto catalog = medcc::cloud::random_linear_catalog(
        static_cast<std::size_t>(rng.uniform_int(1, 6)), 12, rng, 1.0, 1.0,
        0.25);
    const auto inst = Instance::from_model(
        std::move(wf), std::move(catalog),
        medcc::cloud::BillingPolicy::per_unit_time(), network);
    expect_same_print(inst);
    expect_same_print(*wire_round_trip(inst));
  }
}

TEST(FirstTouchDifferential, TableFourAndPatternsPrintIdentically) {
  const auto& sizes = medcc::expr::table4_sizes();
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    medcc::util::Prng rng(77 + k);
    const auto inst = medcc::expr::make_instance(sizes[k], rng);
    SCOPED_TRACE("size " + std::to_string(k + 1));
    expect_same_print(inst);
    expect_same_print(*wire_round_trip(inst));
  }
  medcc::util::Prng rng(31);
  std::vector<Workflow> shapes;
  shapes.push_back(medcc::workflow::montage_like(4, rng));
  shapes.push_back(medcc::workflow::epigenomics_like(2, 3, rng));
  shapes.push_back(medcc::workflow::cybershake_like(5, rng));
  shapes.push_back(medcc::workflow::ligo_like(2, 3, rng));
  shapes.push_back(medcc::workflow::sipht_like(5, rng));
  shapes.push_back(medcc::workflow::example6());
  for (auto& wf : shapes) {
    EXPECT_EQ(wf.validate().problems, oracle_validate(wf));
    expect_same_print(Instance::from_model(
        std::move(wf),
        medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.25)));
  }
}

/// A copy of `wf` whose edge e carries `data_of(e)`.
Workflow with_edge_data(const Workflow& wf,
                        const std::function<double(std::size_t)>& data_of) {
  Workflow out;
  for (std::size_t i = 0; i < wf.module_count(); ++i) {
    const auto& mod = wf.module(i);
    (void)(mod.is_fixed() ? out.add_fixed_module(mod.name, *mod.fixed_time)
                          : out.add_module(mod.name, mod.workload));
  }
  for (std::size_t e = 0; e < wf.dependency_count(); ++e)
    out.add_dependency(wf.graph().edge(e).src, wf.graph().edge(e).dst,
                       data_of(e));
  return out;
}

TEST(FirstTouchDifferential, PartlySharedEdgeWordsPrintIdentically) {
  medcc::util::Prng rng(4242);
  const auto base = medcc::expr::make_instance({20, 60, 4}, rng);
  medcc::cloud::NetworkModel network;
  network.bandwidth = 5.0;
  network.link_delay = 0.5;
  const std::vector<std::function<double(std::size_t)>> layouts = {
      // every edge alike
      [](std::size_t) { return 3.0; },
      // every other edge like the first
      [](std::size_t e) { return e % 2 == 0 ? 3.0 : 1.0 + 0.25 * e; },
      // the first edge unlike all the others, which agree
      [](std::size_t e) { return e == 0 ? 9.0 : 3.0; },
      // -0.0 on the first edge, +0.0 elsewhere: equal words
      [](std::size_t e) { return e == 0 ? -0.0 : 0.0; },
      // all distinct
      [](std::size_t e) { return 0.5 + static_cast<double>(e); },
  };
  for (std::size_t k = 0; k < layouts.size(); ++k) {
    SCOPED_TRACE("layout " + std::to_string(k));
    for (const bool instantaneous : {true, false}) {
      const auto inst = Instance::from_model(
          with_edge_data(base.workflow(), layouts[k]), base.catalog(),
          medcc::cloud::BillingPolicy::per_unit_time(),
          instantaneous ? medcc::cloud::NetworkModel{} : network);
      expect_same_print(inst);
      expect_same_print(*wire_round_trip(inst));
    }
  }
}

TEST(FirstTouchDifferential, SingleModulePrintsIdentically) {
  Workflow wf;
  (void)wf.add_module("only", 12.0);
  EXPECT_EQ(wf.validate().problems, oracle_validate(wf));
  expect_same_print(Instance::from_model(
      std::move(wf), medcc::cloud::VmCatalog(
                         {medcc::cloud::VmType{"a", 2.0, 1.0},
                          medcc::cloud::VmType{"b", 4.0, 3.0}})));
}

}  // namespace
