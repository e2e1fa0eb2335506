// Canonical-fingerprint invariants: permuted duplicates hash equal, any
// semantic field change hashes different, and the per-module labels
// support schedule re-mapping between permuted twins.
//
// A golden file (tests/golden/fingerprints.txt) pins every key bit for
// bit over the Table IV sizes (with and without edge data), the workflow
// patterns and the paper's example, so a refactor of the hashing cannot
// silently re-key every cache. Regenerate only for an intentional key
// change:
//   MEDCC_UPDATE_GOLDEN=1 ./service_fingerprint_test
#include "service/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/vm_type.hpp"
#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "sched/instance.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::service::fingerprint_instance;
using medcc::service::FingerprintDetail;
using medcc::sched::Instance;
using medcc::workflow::Workflow;

// The paper's example workflow (entry, w1..w6, exit) built in its natural
// module order.
Workflow diamond_forward() {
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto b = wf.add_module("b", 45.0);
  const auto c = wf.add_module("c", 75.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(a, b, 3.0);
  wf.add_dependency(a, c, 4.0);
  wf.add_dependency(b, exit, 5.0);
  wf.add_dependency(c, exit, 6.0);
  return wf;
}

// The same DAG with modules inserted in a different order and the edges
// declared in a different sequence.
Workflow diamond_permuted() {
  Workflow wf;
  const auto c = wf.add_module("c-renamed", 75.0);  // names must not matter
  const auto exit = wf.add_fixed_module("exit", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto b = wf.add_module("b", 45.0);
  wf.add_dependency(c, exit, 6.0);
  wf.add_dependency(b, exit, 5.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(a, c, 4.0);
  wf.add_dependency(a, b, 3.0);
  return wf;
}

VmCatalog catalog_forward() {
  return VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                    VmType{"large", 30.0, 8.0}});
}

VmCatalog catalog_permuted() {
  return VmCatalog({VmType{"L", 30.0, 8.0}, VmType{"S", 3.0, 1.0},
                    VmType{"M", 15.0, 4.0}});
}

FingerprintDetail fp(const Instance& inst, double budget = 50.0,
                     std::string_view solver = "cg",
                     std::string_view config = "") {
  return fingerprint_instance(inst, budget, solver, config);
}

TEST(Fingerprint, IdenticalInstancesHashEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  EXPECT_EQ(fa.canonical, fb.canonical);
  EXPECT_EQ(fa.exact, fb.exact);
  EXPECT_TRUE(fa.modules_distinct);
  EXPECT_TRUE(fa.types_distinct);
}

TEST(Fingerprint, PermutedModuleOrderHashesEqualButNotExact) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  EXPECT_EQ(fa.canonical, fb.canonical);
  EXPECT_NE(fa.exact, fb.exact);  // layouts differ index-for-index
}

TEST(Fingerprint, PermutedCatalogOrderHashesEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_forward(), catalog_permuted());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
  EXPECT_NE(fp(a).exact, fp(b).exact);
}

TEST(Fingerprint, BothPermutationsAtOnceHashEqual) {
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_permuted());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
}

TEST(Fingerprint, PermutedLabelsMatchModuleForModule) {
  // The canonical label of module "a" must be the same whatever its
  // NodeId is -- that is what re-mapping relies on.
  const auto a = Instance::from_model(diamond_forward(), catalog_forward());
  const auto b = Instance::from_model(diamond_permuted(), catalog_forward());
  const auto fa = fp(a);
  const auto fb = fp(b);
  ASSERT_TRUE(fa.modules_distinct);
  ASSERT_TRUE(fb.modules_distinct);
  // forward ids: entry=0 a=1 b=2 c=3 exit=4; permuted: c=0 exit=1 a=2
  // entry=3 b=4.
  EXPECT_EQ(fa.module_hash[0], fb.module_hash[3]);  // entry
  EXPECT_EQ(fa.module_hash[1], fb.module_hash[2]);  // a
  EXPECT_EQ(fa.module_hash[2], fb.module_hash[4]);  // b
  EXPECT_EQ(fa.module_hash[3], fb.module_hash[0]);  // c
  EXPECT_EQ(fa.module_hash[4], fb.module_hash[1]);  // exit
}

TEST(Fingerprint, WorkloadChangeHashesDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  Workflow other;
  {
    const auto entry = other.add_fixed_module("entry", 1.0);
    const auto a = other.add_module("a", 31.0);  // 30 -> 31
    const auto b = other.add_module("b", 45.0);
    const auto c = other.add_module("c", 75.0);
    const auto exit = other.add_fixed_module("exit", 1.0);
    other.add_dependency(entry, a, 2.0);
    other.add_dependency(a, b, 3.0);
    other.add_dependency(a, c, 4.0);
    other.add_dependency(b, exit, 5.0);
    other.add_dependency(c, exit, 6.0);
  }
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, TopologyChangeHashesDifferent) {
  Workflow other;
  const auto entry = other.add_fixed_module("entry", 1.0);
  const auto a = other.add_module("a", 30.0);
  const auto b = other.add_module("b", 45.0);
  const auto c = other.add_module("c", 75.0);
  const auto exit = other.add_fixed_module("exit", 1.0);
  other.add_dependency(entry, a, 2.0);
  other.add_dependency(a, b, 3.0);
  other.add_dependency(b, c, 4.0);  // chain instead of fork
  other.add_dependency(b, exit, 5.0);
  other.add_dependency(c, exit, 6.0);
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, CatalogChangeHashesDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto faster = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                 VmType{"large", 31.0, 8.0}}));  // 30 -> 31
  const auto pricier = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"small", 3.0, 1.5}, VmType{"medium", 15.0, 4.0},
                 VmType{"large", 30.0, 8.0}}));  // rate 1 -> 1.5
  EXPECT_NE(fp(base).canonical, fp(faster).canonical);
  EXPECT_NE(fp(base).canonical, fp(pricier).canonical);
}

TEST(Fingerprint, ScalarFieldChangesHashDifferent) {
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto base = fp(inst);
  EXPECT_NE(base.canonical, fp(inst, 51.0).canonical);           // budget
  EXPECT_NE(base.canonical, fp(inst, 50.0, "gain3").canonical);  // solver
  EXPECT_NE(base.canonical,
            fp(inst, 50.0, "cg", "tuned").canonical);  // config tag
}

TEST(Fingerprint, BillingAndNetworkChangesHashDifferent) {
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto continuous =
      Instance::from_model(diamond_forward(), catalog_forward(),
                           medcc::cloud::BillingPolicy::continuous());
  medcc::cloud::NetworkModel net;
  net.bandwidth = 10.0;
  net.link_delay = 0.5;
  const auto networked = Instance::from_model(
      diamond_forward(), catalog_forward(),
      medcc::cloud::BillingPolicy::per_unit_time(), net);
  EXPECT_NE(fp(base).canonical, fp(continuous).canonical);
  EXPECT_NE(fp(base).canonical, fp(networked).canonical);
}

TEST(Fingerprint, EdgeDataSizeChangeHashesDifferent) {
  Workflow other;
  const auto entry = other.add_fixed_module("entry", 1.0);
  const auto a = other.add_module("a", 30.0);
  const auto b = other.add_module("b", 45.0);
  const auto c = other.add_module("c", 75.0);
  const auto exit = other.add_fixed_module("exit", 1.0);
  other.add_dependency(entry, a, 2.0);
  other.add_dependency(a, b, 3.5);  // 3.0 -> 3.5
  other.add_dependency(a, c, 4.0);
  other.add_dependency(b, exit, 5.0);
  other.add_dependency(c, exit, 6.0);
  const auto base = Instance::from_model(diamond_forward(), catalog_forward());
  const auto inst = Instance::from_model(std::move(other), catalog_forward());
  EXPECT_NE(fp(base).canonical, fp(inst).canonical);
}

TEST(Fingerprint, SymmetricModulesAreDetectedAsNonRemappable) {
  // Two structurally identical parallel branches: the WL labels of the
  // twin modules coincide, so modules_distinct must be false and the
  // cache will refuse to re-map (exact hits still work).
  Workflow wf;
  const auto entry = wf.add_fixed_module("entry", 1.0);
  const auto a = wf.add_module("a", 30.0);
  const auto b = wf.add_module("b", 30.0);
  const auto exit = wf.add_fixed_module("exit", 1.0);
  wf.add_dependency(entry, a, 2.0);
  wf.add_dependency(entry, b, 2.0);
  wf.add_dependency(a, exit, 3.0);
  wf.add_dependency(b, exit, 3.0);
  const auto inst = Instance::from_model(std::move(wf), catalog_forward());
  EXPECT_FALSE(fp(inst).modules_distinct);
}

TEST(Fingerprint, DuplicateCatalogTypesAreDetected) {
  const auto inst = Instance::from_model(
      diamond_forward(),
      VmCatalog({VmType{"a", 3.0, 1.0}, VmType{"b", 3.0, 1.0}}));
  EXPECT_FALSE(fp(inst).types_distinct);
}

TEST(Fingerprint, LargerPatternPermutationProperty) {
  // montage_like from the same seed, then rebuilt with a rotated module
  // order via a manual copy, must canonically collide. Build the rotation
  // by re-adding modules in reverse id order.
  medcc::util::Prng rng(7);
  const auto wf = medcc::workflow::montage_like(4, rng);
  Workflow reversed;
  const std::size_t m = wf.module_count();
  std::vector<std::size_t> new_id(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto old_id = m - 1 - i;
    const auto& mod = wf.module(old_id);
    new_id[old_id] = mod.is_fixed()
                         ? reversed.add_fixed_module(mod.name, *mod.fixed_time)
                         : reversed.add_module(mod.name, mod.workload);
  }
  const auto& graph = wf.graph();
  for (std::size_t e = graph.edge_count(); e-- > 0;) {
    const auto& edge = graph.edge(e);
    reversed.add_dependency(new_id[edge.src], new_id[edge.dst],
                            wf.data_size(e));
  }
  const auto a = Instance::from_model(wf, catalog_forward());
  const auto b = Instance::from_model(std::move(reversed), catalog_forward());
  EXPECT_EQ(fp(a).canonical, fp(b).canonical);
  EXPECT_NE(fp(a).exact, fp(b).exact);
}

// ---------------------------------------------------------------------------
// Golden fingerprints.

struct NamedInstance {
  std::string name;
  Instance inst;
};

/// A copy of `wf` whose edge e carries `data_of(e)`.
template <typename DataOf>
Workflow with_edge_data(const Workflow& wf, DataOf&& data_of) {
  Workflow out;
  for (std::size_t i = 0; i < wf.module_count(); ++i) {
    const auto& mod = wf.module(i);
    (void)(mod.is_fixed() ? out.add_fixed_module(mod.name, *mod.fixed_time)
                          : out.add_module(mod.name, mod.workload));
  }
  const auto& graph = wf.graph();
  for (std::size_t e = 0; e < graph.edge_count(); ++e)
    out.add_dependency(graph.edge(e).src, graph.edge(e).dst, data_of(e));
  return out;
}

/// A link model under which every non-zero data size has its own
/// transfer time, so both edge words of the label runs vary per edge.
medcc::cloud::NetworkModel golden_network() {
  medcc::cloud::NetworkModel network;
  network.bandwidth = 8.0;
  network.link_delay = 0.25;
  network.transfer_cost_rate = 0.05;
  return network;
}

std::vector<NamedInstance> golden_instances() {
  std::vector<NamedInstance> out;
  out.push_back({"example6",
                 Instance::from_model(medcc::workflow::example6(),
                                      medcc::cloud::example_catalog())});
  const auto& sizes = medcc::expr::table4_sizes();
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    medcc::util::Prng rng(1000 + k);
    out.push_back({"t4s" + std::to_string(k + 1),
                   medcc::expr::make_instance(sizes[k], rng)});
  }
  // Table IV sizes whose edges carry random data over a finite link:
  // every edge has its own data size and transfer time.
  for (const std::size_t k : {0u, 4u, 9u, 14u}) {
    medcc::util::Prng rng(2000 + k);
    medcc::workflow::RandomWorkflowSpec spec;
    spec.modules = sizes[k].modules;
    spec.edges = sizes[k].edges;
    spec.data_size_min = 1.0;
    spec.data_size_max = 40.0;
    auto wf = medcc::workflow::random_workflow(spec, rng);
    auto catalog = medcc::cloud::random_linear_catalog(
        sizes[k].types, 4 * sizes[k].types, rng, 1.0, 1.0, 0.25);
    out.push_back({"t4s" + std::to_string(k + 1) + "net",
                   Instance::from_model(
                       std::move(wf), std::move(catalog),
                       medcc::cloud::BillingPolicy::per_unit_time(),
                       golden_network())});
  }
  {
    // Every third edge shares the first edge's data (and so its transfer
    // time); the rest carry their own.
    medcc::util::Prng rng(3001);
    const auto base = medcc::expr::make_instance(sizes[7], rng);
    auto wf = with_edge_data(base.workflow(), [](std::size_t e) {
      return e % 3 == 0 ? 2.5 : 1.0 + 0.5 * static_cast<double>(e);
    });
    out.push_back({"partial-shared",
                   Instance::from_model(
                       std::move(wf), base.catalog(),
                       medcc::cloud::BillingPolicy::per_unit_time(),
                       golden_network())});
  }
  {
    // The first edge differs from all others, which agree among
    // themselves.
    medcc::util::Prng rng(3002);
    const auto base = medcc::expr::make_instance(sizes[5], rng);
    auto wf = with_edge_data(base.workflow(), [](std::size_t e) {
      return e == 0 ? 7.5 : 1.25;
    });
    out.push_back({"first-differs",
                   Instance::from_model(
                       std::move(wf), base.catalog(),
                       medcc::cloud::BillingPolicy::per_unit_time(),
                       golden_network())});
  }
  medcc::util::Prng rng(31);
  std::vector<std::pair<std::string, Workflow>> shapes;
  shapes.emplace_back("montage", medcc::workflow::montage_like(4, rng));
  shapes.emplace_back("epigenomics",
                      medcc::workflow::epigenomics_like(2, 3, rng));
  shapes.emplace_back("cybershake", medcc::workflow::cybershake_like(5, rng));
  shapes.emplace_back("ligo", medcc::workflow::ligo_like(2, 3, rng));
  shapes.emplace_back("sipht", medcc::workflow::sipht_like(5, rng));
  for (auto& [name, wf] : shapes) {
    auto catalog =
        medcc::cloud::random_linear_catalog(4, 12, rng, 1.0, 1.0, 0.25);
    out.push_back(
        {name, Instance::from_model(std::move(wf), std::move(catalog))});
  }
  return out;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

/// Order-dependent digest of a label vector (FNV-1a over the words).
std::uint64_t digest(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v : values) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string golden_row(const FingerprintDetail& d) {
  return "hi=" + hex(d.canonical.hi) + " lo=" + hex(d.canonical.lo) +
         " exact=" + hex(d.exact) +
         " md=" + std::to_string(d.modules_distinct ? 1 : 0) +
         " td=" + std::to_string(d.types_distinct ? 1 : 0) +
         " mh=" + hex(digest(d.module_hash)) +
         " th=" + hex(digest(d.type_hash));
}

/// Calls `row(label, instance, budget, solver, config)` once per golden
/// row: every input at 3 budget levels x {cg, gain3} x config {"", "x"}.
template <typename Row>
void for_each_golden_row(Row&& row) {
  for (const auto& named : golden_instances()) {
    const auto budgets = medcc::sched::budget_levels(
        medcc::sched::cost_bounds(named.inst), 3);
    for (std::size_t b = 0; b < budgets.size(); ++b)
      for (const std::string_view solver : {"cg", "gain3"})
        for (const std::string_view config : {"", "x"})
          row(named.name + " B" + std::to_string(b + 1) + " " +
                  std::string(solver) + " cfg=" + std::string(config),
              named.inst, budgets[b], solver, config);
  }
}

std::filesystem::path golden_path() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "fingerprints.txt";
}

TEST(FingerprintGolden, KeysMatchGoldenFile) {
  std::ostringstream out;
  for_each_golden_row([&](const std::string& label, const Instance& inst,
                          double budget, std::string_view solver,
                          std::string_view config) {
    out << label << ": "
        << golden_row(fingerprint_instance(inst, budget, solver, config))
        << '\n';
  });
  const std::string actual = out.str();

  if (std::getenv("MEDCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(golden_path(), std::ios::binary);
    file << actual;
    ASSERT_TRUE(file.good()) << "failed to write " << golden_path();
    GTEST_SKIP() << "golden regenerated at " << golden_path();
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (run with MEDCC_UPDATE_GOLDEN=1 to create)";
  std::istringstream expected_lines(
      std::string(std::istreambuf_iterator<char>(in), {}));
  std::istringstream actual_lines(actual);
  std::string e_line;
  std::string a_line;
  for (int n = 1;; ++n) {
    const bool e_more = static_cast<bool>(std::getline(expected_lines, e_line));
    const bool a_more = static_cast<bool>(std::getline(actual_lines, a_line));
    if (!e_more && !a_more) break;
    ASSERT_TRUE(e_more && a_more && e_line == a_line)
        << "fingerprint diverges from golden at line " << n
        << "\n  expected: " << (e_more ? e_line : std::string("<eof>"))
        << "\n  actual:   " << (a_more ? a_line : std::string("<eof>"));
  }
}

TEST(FingerprintGolden, PrintOnceFinishPerRequestMatchesOneShot) {
  // One print per instance, finished for every (budget, solver, config)
  // row, must equal the one-shot fingerprint field for field.
  const Instance* printed = nullptr;
  medcc::service::InstancePrint print;
  int rows = 0;
  for_each_golden_row([&](const std::string& label, const Instance& inst,
                          double budget, std::string_view solver,
                          std::string_view config) {
    SCOPED_TRACE(label);
    if (printed != &inst) {
      print = medcc::service::print_instance(inst);
      printed = &inst;
    }
    const FingerprintDetail split =
        medcc::service::finish_fingerprint(print, budget, solver, config);
    const FingerprintDetail one_shot =
        fingerprint_instance(inst, budget, solver, config);
    EXPECT_EQ(split.canonical, one_shot.canonical);
    EXPECT_EQ(split.exact, one_shot.exact);
    EXPECT_EQ(split.module_hash, one_shot.module_hash);
    EXPECT_EQ(split.type_hash, one_shot.type_hash);
    EXPECT_EQ(split.modules_distinct, one_shot.modules_distinct);
    EXPECT_EQ(split.types_distinct, one_shot.types_distinct);
    EXPECT_EQ(split.solver, one_shot.solver);
    ++rows;
  });
  EXPECT_EQ(rows, 32 * 12);
}

}  // namespace
