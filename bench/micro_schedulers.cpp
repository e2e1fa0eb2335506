// Ablation A5: scheduler micro-benchmarks. Two modes:
//
//  * default: the google-benchmark suite below (runtime scaling of CPM,
//    Critical-Greedy, GAIN3, the simulator, instance generation and the
//    parallel budget sweep);
//  * --smoke / --json <path>: a hand-timed suite comparing the legacy
//    dag::makespan fitness path against the allocation-free CPM kernel
//    (dag/cpm_kernel.hpp) on a genetic-style evaluation batch, plus
//    wall-clock solve times per scheduler (plus per-solver rows for the
//    makespan-probing baselines: GAIN2, LOSS2 -- also over Table IV size
//    10's 20 budget levels -- the deadline solvers and a small exhaustive
//    search), plus the paper's 20-level budget sweep solved level by
//    level against the solvers' sweeps -- CG + GAIN3 through
//    expr::sweep_budgets, GAIN2 and LOSS2 through Gain2Sweep and
//    Loss2Sweep (sweep20, reported only), plus a workflow's first touch
//    on the serving path: decoding a solve_request body and printing the
//    decoded instance (first_touch, reported only). --json writes the
//    numbers as a machine-readable report (uploaded as a CI artifact);
//    --smoke shrinks the workload so the binary doubles as a ctest check,
//    and fails if the kernel is not at least 3x faster than the legacy
//    path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/vm_type.hpp"
#include "dag/cpm_kernel.hpp"
#include "expr/compare.hpp"
#include "net/codec.hpp"
#include "sched/annealing.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/deadline.hpp"
#include "sched/exhaustive.hpp"
#include "sched/gain_loss.hpp"
#include "sched/genetic.hpp"
#include "sched/pcp.hpp"
#include "service/fingerprint.hpp"
#include "sim/executor.hpp"
#include "workflow/patterns.hpp"
#include "workflow/random_workflow.hpp"

namespace {

medcc::sched::Instance instance_for(std::size_t m) {
  medcc::util::Prng rng(m * 2654435761u + 17);
  // Density and catalog size scale like the paper's Table IV settings.
  const std::size_t edges = m * (m - 1) / 4;
  const std::size_t types = 3 + m / 16;
  return medcc::expr::make_instance({m, edges, types}, rng);
}

void BM_Cpm(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto least = medcc::sched::least_cost_schedule(inst);
  const auto weights = medcc::sched::durations(inst, least);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::dag::compute_cpm(
        inst.workflow().graph(), weights, inst.edge_times()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Cpm)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_CpmKernel(benchmark::State& state) {
  // The same forward+backward evaluation through the reusable workspace:
  // no validation, no topo recompute, no per-call allocation.
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto least = medcc::sched::least_cost_schedule(inst);
  const auto weights = medcc::sched::durations(inst, least);
  medcc::dag::CpmWorkspace ws;
  for (auto _ : state) {
    medcc::dag::cpm_into(inst.flat_dag(), weights, ws);
    benchmark::DoNotOptimize(ws.makespan);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CpmKernel)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_CriticalGreedy(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sched::critical_greedy(inst, budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CriticalGreedy)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Gain3(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sched::gain3(inst, budget));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Gain3)->RangeMultiplier(4)->Range(16, 1024)->Complexity();

void BM_Simulate(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  const auto bounds = medcc::sched::cost_bounds(inst);
  const auto r = medcc::sched::critical_greedy(
      inst, 0.5 * (bounds.cmin + bounds.cmax));
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::sim::execute(inst, r.schedule));
  }
}
BENCHMARK(BM_Simulate)->RangeMultiplier(4)->Range(16, 256);

void BM_InstanceGeneration(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  medcc::util::Prng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        medcc::expr::make_instance({m, m * (m - 1) / 4, 5}, rng));
  }
}
BENCHMARK(BM_InstanceGeneration)->RangeMultiplier(4)->Range(16, 1024);

void BM_BudgetSweep20Levels(benchmark::State& state) {
  const auto inst = instance_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(medcc::expr::sweep_budgets(inst, 20));
  }
}
BENCHMARK(BM_BudgetSweep20Levels)->Arg(50)->Arg(100);

// ---------------------------------------------------------------------------
// Hand-timed mode (--smoke / --json)
// ---------------------------------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct FitnessReport {
  std::size_t modules = 0;
  std::size_t edges = 0;
  std::size_t batch = 0;
  std::size_t reps = 0;
  /// The seed's fitness path: durations() + a full compute_cpm per eval
  /// (dag::makespan delegated to compute_cpm before this optimisation).
  double legacy_us_per_eval = 0.0;
  /// The current forward-only dag::makespan (memoized topo order, no
  /// CpmResult) -- already part of this optimisation's satellite work.
  double makespan_us_per_eval = 0.0;
  double kernel_us_per_eval = 0.0;
  double speedup = 0.0;           ///< legacy (seed) vs kernel
  double speedup_makespan = 0.0;  ///< current dag::makespan vs kernel
};

/// Times a genetic-style fitness batch -- makespan of many random
/// schedules on one instance -- through the seed's legacy path (durations()
/// + compute_cpm, which validates, recomputes slack vectors and allocates
/// per call), the current forward-only dag::makespan, and the CPM kernel
/// (weights refilled into a reusable workspace, forward pass only, zero
/// allocations). All three must agree bitwise.
FitnessReport time_fitness_batch(const medcc::sched::Instance& inst,
                                 std::size_t batch, std::size_t reps) {
  FitnessReport report;
  report.modules = inst.module_count();
  report.edges = inst.workflow().graph().edge_count();
  report.batch = batch;
  report.reps = reps;

  medcc::util::Prng rng(99);
  std::vector<medcc::sched::Schedule> schedules(batch);
  for (auto& s : schedules) {
    s.type_of.resize(inst.module_count());
    for (std::size_t i = 0; i < inst.module_count(); ++i)
      s.type_of[i] = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(inst.type_count()) - 1));
  }

  const auto& graph = inst.workflow().graph();
  double legacy_sum = 0.0;
  const auto legacy_start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& s : schedules) {
      legacy_sum += medcc::dag::compute_cpm(graph,
                                            medcc::sched::durations(inst, s),
                                            inst.edge_times())
                        .makespan;
    }
  }
  const double legacy_seconds = seconds_since(legacy_start);

  double makespan_sum = 0.0;
  const auto makespan_start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& s : schedules) {
      makespan_sum += medcc::dag::makespan(
          graph, medcc::sched::durations(inst, s), inst.edge_times());
    }
  }
  const double makespan_seconds = seconds_since(makespan_start);

  const auto& flat = inst.flat_dag();
  medcc::dag::CpmWorkspace ws;
  ws.prepare(flat.node_count());
  double kernel_sum = 0.0;
  const auto kernel_start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& s : schedules) {
      for (std::size_t i = 0; i < inst.module_count(); ++i)
        ws.weights[i] = inst.time(i, s.type_of[i]);
      kernel_sum += medcc::dag::makespan_into(flat, ws);
    }
  }
  const double kernel_seconds = seconds_since(kernel_start);

  if (legacy_sum != kernel_sum || makespan_sum != kernel_sum) {
    std::cerr << "FAIL: kernel fitness diverged from the legacy path ("
              << kernel_sum << " vs " << legacy_sum << " / " << makespan_sum
              << ")\n";
    std::exit(1);
  }
  const double evals = static_cast<double>(batch * reps);
  report.legacy_us_per_eval = legacy_seconds / evals * 1e6;
  report.makespan_us_per_eval = makespan_seconds / evals * 1e6;
  report.kernel_us_per_eval = kernel_seconds / evals * 1e6;
  report.speedup =
      kernel_seconds > 0.0 ? legacy_seconds / kernel_seconds : 0.0;
  report.speedup_makespan =
      kernel_seconds > 0.0 ? makespan_seconds / kernel_seconds : 0.0;
  return report;
}

struct SolverReport {
  double critical_greedy_ms = 0.0;
  double genetic_ms = 0.0;
  double annealing_ms = 0.0;
};

/// Solvers that score every candidate move by a full makespan, each timed
/// as the median of `reps` solves on a fixed mid-size instance (the
/// exhaustive search on a small one) so before/after deltas of the CPM
/// evaluator underneath them are visible.
struct ProbeReport {
  std::size_t modules = 0;
  std::size_t exhaustive_modules = 0;
  std::size_t reps = 0;
  double gain2_ms = 0.0;
  double loss2_ms = 0.0;
  /// Table IV size 10, summed over its 20 budget levels: the shape of the
  /// serving benchmark's gain2/loss2 misses.
  double t4s10_gain2_sweep_ms = 0.0;
  double t4s10_loss2_sweep_ms = 0.0;
  double deadline_loss_ms = 0.0;
  double pcp_deadline_ms = 0.0;
  double exhaustive_ms = 0.0;
};

template <typename Solve>
double median_ms(std::size_t reps, Solve&& solve) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(solve());
    ms.push_back(seconds_since(start) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

ProbeReport time_probing_solvers(bool smoke) {
  using medcc::sched::GainLossVariant;
  ProbeReport report;
  report.modules = 60;
  report.exhaustive_modules = 18;
  report.reps = smoke ? 3 : 9;
  const auto inst = instance_for(report.modules);
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  const double fastest =
      medcc::sched::evaluate(inst, medcc::sched::fastest_schedule(inst)).med;
  const double slowest =
      medcc::sched::evaluate(inst, medcc::sched::least_cost_schedule(inst))
          .med;
  const double deadline = 0.5 * (fastest + slowest);

  report.gain2_ms = median_ms(report.reps, [&] {
    return medcc::sched::gain(inst, budget, GainLossVariant::V2);
  });
  report.loss2_ms = median_ms(report.reps, [&] {
    return medcc::sched::loss(inst, budget, GainLossVariant::V2);
  });
  medcc::util::Prng rng(10);
  const auto t4s10 =
      medcc::expr::make_instance(medcc::expr::table4_sizes()[9], rng);
  const auto levels =
      medcc::sched::budget_levels(medcc::sched::cost_bounds(t4s10), 20);
  report.t4s10_gain2_sweep_ms = median_ms(report.reps, [&] {
    double med = 0.0;
    for (const double level : levels)
      med += medcc::sched::gain(t4s10, level, GainLossVariant::V2).eval.med;
    return med;
  });
  report.t4s10_loss2_sweep_ms = median_ms(report.reps, [&] {
    double med = 0.0;
    for (const double level : levels)
      med += medcc::sched::loss(t4s10, level, GainLossVariant::V2).eval.med;
    return med;
  });
  report.deadline_loss_ms = median_ms(report.reps, [&] {
    return medcc::sched::deadline_loss(inst, deadline);
  });
  report.pcp_deadline_ms = median_ms(report.reps, [&] {
    return medcc::sched::pcp_deadline(inst, deadline);
  });

  const auto small = instance_for(report.exhaustive_modules);
  const auto small_bounds = medcc::sched::cost_bounds(small);
  const double small_budget = 0.5 * (small_bounds.cmin + small_bounds.cmax);
  report.exhaustive_ms = median_ms(report.reps, [&] {
    return medcc::sched::exhaustive_optimal(small, small_budget);
  });
  return report;
}

SolverReport time_solvers(const medcc::sched::Instance& inst, bool smoke) {
  const auto bounds = medcc::sched::cost_bounds(inst);
  const double budget = 0.5 * (bounds.cmin + bounds.cmax);
  SolverReport report;
  {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::critical_greedy(inst, budget));
    report.critical_greedy_ms = seconds_since(start) * 1e3;
  }
  {
    medcc::sched::GeneticOptions opts;
    if (smoke) {
      opts.population = 16;
      opts.generations = 10;
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::genetic(inst, budget, opts));
    report.genetic_ms = seconds_since(start) * 1e3;
  }
  {
    medcc::sched::AnnealingOptions opts;
    if (smoke) opts.iterations = 500;
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(medcc::sched::annealing(inst, budget, opts));
    report.annealing_ms = seconds_since(start) * 1e3;
  }
  return report;
}

/// One instance's 20 levels under one solver (or the paper's CG + GAIN3
/// pair), median of `reps`: the one-shot solver at every level against
/// the answers of its sweep, built once per rep inside the timing
/// (expr::sweep_budgets for CG + GAIN3, which answers from one CgSweep
/// and one Gain3Sweep). Wall-clock, reported only.
struct SweepReport {
  std::string instance;
  std::string solver;
  std::size_t modules = 0;
  std::size_t types = 0;
  std::size_t reps = 0;
  double per_level_ms = 0.0;
  double sweep_ms = 0.0;
  double speedup = 0.0;
};

/// `per_level` and `swept` each answer all of `budgets` and return the
/// sum of the MEDs.
template <typename PerLevel, typename Swept>
SweepReport time_sweep(const std::string& name, std::string solver,
                       const medcc::sched::Instance& inst, bool smoke,
                       PerLevel&& per_level, Swept&& swept) {
  SweepReport report;
  report.instance = name;
  report.solver = std::move(solver);
  report.modules = inst.module_count();
  report.types = inst.type_count();
  report.reps = smoke ? 3 : 9;
  report.per_level_ms = median_ms(report.reps, per_level);
  report.sweep_ms = median_ms(report.reps, swept);
  report.speedup =
      report.sweep_ms > 0.0 ? report.per_level_ms / report.sweep_ms : 0.0;
  return report;
}

/// The CG + GAIN3, GAIN2 and LOSS2 rows of one instance.
void time_sweeps_of(const std::string& name,
                    const medcc::sched::Instance& inst, bool smoke,
                    std::vector<SweepReport>& reports) {
  using medcc::sched::GainLossVariant;
  const auto budgets =
      medcc::sched::budget_levels(medcc::sched::cost_bounds(inst), 20);
  const auto answer_all = [&](const medcc::sched::BudgetSweep& sweep) {
    double med = 0.0;
    for (const double budget : budgets) med += sweep.answer(budget).eval.med;
    return med;
  };
  reports.push_back(time_sweep(
      name, "cg+gain3", inst, smoke,
      [&] {
        double med = 0.0;
        for (const double budget : budgets)
          med += medcc::sched::critical_greedy(inst, budget).eval.med +
                 medcc::sched::gain3(inst, budget).eval.med;
        return med;
      },
      [&] { return medcc::expr::sweep_budgets(inst, 20); }));
  reports.push_back(time_sweep(
      name, "gain2", inst, smoke,
      [&] {
        double med = 0.0;
        for (const double budget : budgets)
          med += medcc::sched::gain(inst, budget, GainLossVariant::V2).eval.med;
        return med;
      },
      [&] { return answer_all(medcc::sched::Gain2Sweep(inst)); }));
  reports.push_back(time_sweep(
      name, "loss2", inst, smoke,
      [&] {
        double med = 0.0;
        for (const double budget : budgets)
          med += medcc::sched::loss(inst, budget, GainLossVariant::V2).eval.med;
        return med;
      },
      [&] { return answer_all(medcc::sched::Loss2Sweep(inst)); }));
}

std::vector<SweepReport> time_sweeps(bool smoke) {
  std::vector<SweepReport> reports;
  medcc::util::Prng rng(20);
  time_sweeps_of(
      "table4_size20",
      medcc::expr::make_instance(medcc::expr::table4_sizes()[19], rng), smoke,
      reports);
  auto wf = medcc::workflow::epigenomics_like(24, 4, rng);
  auto catalog =
      medcc::cloud::random_linear_catalog(6, 12, rng, 1.0, 1.0, 0.25);
  time_sweeps_of(
      "epigenomics_24x4",
      medcc::sched::Instance::from_model(std::move(wf), std::move(catalog)),
      smoke, reports);
  return reports;
}

/// A workflow's first touch on the serving path, median of `reps`: the
/// decode of its solve_request body (instance build and validation
/// included) and the print of the decoded instance (both label runs and
/// the exact hash). Wall-clock, reported only.
struct FirstTouchReport {
  std::string instance;
  std::size_t modules = 0;
  std::size_t edges = 0;
  std::size_t types = 0;
  std::size_t reps = 0;
  double decode_us = 0.0;
  double print_us = 0.0;
};

FirstTouchReport time_first_touch(std::string name,
                                  medcc::sched::Instance inst, bool smoke) {
  FirstTouchReport report;
  report.instance = std::move(name);
  report.modules = inst.module_count();
  report.edges = inst.workflow().dependency_count();
  report.types = inst.type_count();
  report.reps = smoke ? 21 : 201;
  medcc::service::SchedulingRequest request;
  request.instance =
      std::make_shared<const medcc::sched::Instance>(std::move(inst));
  request.budget = 1.0;
  request.solver = "cg";
  const std::string frame = medcc::net::encode_solve_request(request, 1);
  const std::string_view body =
      std::string_view(frame).substr(medcc::net::kHeaderSize);
  report.decode_us = 1e3 * median_ms(report.reps, [&] {
    return medcc::net::decode_solve_request(body);
  });
  const auto decoded = medcc::net::decode_solve_request(body).instance;
  report.print_us = 1e3 * median_ms(report.reps, [&] {
    return medcc::service::print_instance(*decoded);
  });
  return report;
}

std::vector<FirstTouchReport> time_first_touches(bool smoke) {
  std::vector<FirstTouchReport> reports;
  const auto& sizes = medcc::expr::table4_sizes();
  for (const std::size_t k : {1u, 10u, 20u}) {
    medcc::util::Prng rng(30 + k);
    reports.push_back(time_first_touch(
        "table4_size" + std::to_string(k),
        medcc::expr::make_instance(sizes[k - 1], rng), smoke));
  }
  // Table IV size 10's shape with data on every edge over a finite link:
  // every edge carries its own data-size and transfer-time words.
  medcc::util::Prng rng(40);
  medcc::workflow::RandomWorkflowSpec spec;
  spec.modules = sizes[9].modules;
  spec.edges = sizes[9].edges;
  spec.data_size_min = 1.0;
  spec.data_size_max = 40.0;
  auto wf = medcc::workflow::random_workflow(spec, rng);
  auto catalog = medcc::cloud::random_linear_catalog(
      sizes[9].types, 4 * sizes[9].types, rng, 1.0, 1.0, 0.25);
  medcc::cloud::NetworkModel network;
  network.bandwidth = 8.0;
  network.link_delay = 0.25;
  reports.push_back(time_first_touch(
      "table4_size10_edge_data",
      medcc::sched::Instance::from_model(
          std::move(wf), std::move(catalog),
          medcc::cloud::BillingPolicy::per_unit_time(), network),
      smoke));
  return reports;
}

void write_json(const std::string& path, bool smoke,
                const FitnessReport& fitness, const SolverReport& solvers,
                const ProbeReport& probes,
                const std::vector<SweepReport>& sweeps,
                const std::vector<FirstTouchReport>& touches) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"bench\": \"micro_schedulers\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"fitness\": {\n"
      << "    \"modules\": " << fitness.modules << ",\n"
      << "    \"edges\": " << fitness.edges << ",\n"
      << "    \"batch\": " << fitness.batch << ",\n"
      << "    \"reps\": " << fitness.reps << ",\n"
      << "    \"legacy_us_per_eval\": " << fitness.legacy_us_per_eval << ",\n"
      << "    \"makespan_us_per_eval\": " << fitness.makespan_us_per_eval
      << ",\n"
      << "    \"kernel_us_per_eval\": " << fitness.kernel_us_per_eval << ",\n"
      << "    \"speedup\": " << fitness.speedup << ",\n"
      << "    \"speedup_vs_forward_only\": " << fitness.speedup_makespan
      << "\n"
      << "  },\n"
      << "  \"solvers\": {\n"
      << "    \"critical_greedy_ms\": " << solvers.critical_greedy_ms << ",\n"
      << "    \"genetic_ms\": " << solvers.genetic_ms << ",\n"
      << "    \"annealing_ms\": " << solvers.annealing_ms << "\n"
      << "  },\n"
      << "  \"probing_solvers\": {\n"
      << "    \"modules\": " << probes.modules << ",\n"
      << "    \"exhaustive_modules\": " << probes.exhaustive_modules << ",\n"
      << "    \"reps\": " << probes.reps << ",\n"
      << "    \"gain2_ms\": " << probes.gain2_ms << ",\n"
      << "    \"loss2_ms\": " << probes.loss2_ms << ",\n"
      << "    \"table4_size10_gain2_20_levels_ms\": "
      << probes.t4s10_gain2_sweep_ms << ",\n"
      << "    \"table4_size10_loss2_20_levels_ms\": "
      << probes.t4s10_loss2_sweep_ms << ",\n"
      << "    \"deadline_loss_ms\": " << probes.deadline_loss_ms << ",\n"
      << "    \"pcp_deadline_ms\": " << probes.pcp_deadline_ms << ",\n"
      << "    \"exhaustive_ms\": " << probes.exhaustive_ms << "\n"
      << "  },\n"
      << "  \"sweep20\": [\n";
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    const SweepReport& r = sweeps[k];
    out << "    {\"instance\": \"" << r.instance << "\", \"solver\": \""
        << r.solver << "\", \"modules\": " << r.modules
        << ", \"types\": " << r.types << ", \"reps\": " << r.reps
        << ", \"per_level_ms\": " << r.per_level_ms
        << ", \"sweep_ms\": " << r.sweep_ms << ", \"speedup\": " << r.speedup
        << "}" << (k + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"first_touch\": [\n";
  for (std::size_t k = 0; k < touches.size(); ++k) {
    const FirstTouchReport& r = touches[k];
    out << "    {\"instance\": \"" << r.instance << "\", \"modules\": "
        << r.modules << ", \"edges\": " << r.edges << ", \"types\": "
        << r.types << ", \"reps\": " << r.reps
        << ", \"decode_us\": " << r.decode_us
        << ", \"print_us\": " << r.print_us << "}"
        << (k + 1 < touches.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
}

int run_handtimed(const std::string& json_path, bool smoke) {
  const std::size_t modules = smoke ? 100 : 400;
  const std::size_t batch = smoke ? 32 : 64;
  const std::size_t reps = smoke ? 20 : 50;
  const auto inst = instance_for(modules);

  // Warm-up rep so lazy one-time costs (page faults, topo memoization)
  // hit neither side of the comparison.
  (void)time_fitness_batch(inst, batch, 1);
  const auto fitness = time_fitness_batch(inst, batch, reps);
  const auto solvers = time_solvers(inst, smoke);
  const auto probes = time_probing_solvers(smoke);
  const auto sweeps = time_sweeps(smoke);
  const auto touches = time_first_touches(smoke);

  std::cout << "fitness batch (m=" << fitness.modules
            << ", |Ew|=" << fitness.edges << ", " << fitness.batch << "x"
            << fitness.reps << " evals):\n"
            << "  legacy compute_cpm     : " << fitness.legacy_us_per_eval
            << " us/eval (the seed's fitness path)\n"
            << "  forward-only makespan  : " << fitness.makespan_us_per_eval
            << " us/eval\n"
            << "  cpm kernel             : " << fitness.kernel_us_per_eval
            << " us/eval\n"
            << "  speedup vs legacy      : " << fitness.speedup << "x\n"
            << "  speedup vs fwd-only    : " << fitness.speedup_makespan
            << "x\n"
            << "solve times: cg=" << solvers.critical_greedy_ms
            << " ms, genetic=" << solvers.genetic_ms
            << " ms, annealing=" << solvers.annealing_ms << " ms\n"
            << "probing solvers (m=" << probes.modules << ", median of "
            << probes.reps << "): gain2=" << probes.gain2_ms
            << " ms, loss2=" << probes.loss2_ms
            << " ms, deadline_loss=" << probes.deadline_loss_ms
            << " ms, pcp_deadline=" << probes.pcp_deadline_ms
            << " ms, exhaustive(m=" << probes.exhaustive_modules
            << ")=" << probes.exhaustive_ms << " ms\n"
            << "probing solvers, Table IV size 10 over its 20 budget levels: "
            << "gain2=" << probes.t4s10_gain2_sweep_ms
            << " ms, loss2=" << probes.t4s10_loss2_sweep_ms << " ms\n";
  for (const SweepReport& r : sweeps)
    std::cout << "sweep20 " << r.instance << " " << r.solver
              << " (m=" << r.modules << ", median of " << r.reps
              << "): per-level " << r.per_level_ms << " ms, swept "
              << r.sweep_ms << " ms (" << r.speedup << "x)\n";
  for (const FirstTouchReport& r : touches)
    std::cout << "first touch " << r.instance << " (m=" << r.modules
              << ", |Ew|=" << r.edges << ", median of " << r.reps
              << "): decode " << r.decode_us << " us, print " << r.print_us
              << " us\n";

  if (!json_path.empty())
    write_json(json_path, smoke, fitness, solvers, probes, sweeps, touches);

  if (smoke && fitness.speedup < 3.0) {
    std::cerr << "FAIL: kernel speedup " << fitness.speedup
              << "x below the 3x acceptance target\n";
    return 1;
  }
  std::cout << (smoke ? "smoke OK\n" : "OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "missing value after --json\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (smoke || !json_path.empty()) return run_handtimed(json_path, smoke);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
