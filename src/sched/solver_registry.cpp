#include "sched/solver_registry.hpp"

#include "sched/annealing.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/gain_loss.hpp"
#include "sched/genetic.hpp"

namespace medcc::sched {
namespace {

template <typename Sweep>
std::unique_ptr<const BudgetSweep> make_sweep(const Instance& inst) {
  return std::make_unique<Sweep>(inst);
}

}  // namespace

const SolverRegistry& SolverRegistry::built_in() {
  static const SolverRegistry registry = [] {
    SolverRegistry r;
    r.register_solver(
        "cg",
        [](const Instance& inst, double budget) {
          return critical_greedy(inst, budget);
        },
        &make_sweep<CgSweep>);
    for (const auto variant :
         {GainLossVariant::V1, GainLossVariant::V2, GainLossVariant::V3}) {
      const auto suffix = static_cast<int>(variant);
      // Sweeps for the served members only: gain1, loss1 and loss3 stay
      // one-shot.
      SweepFactory gain_sweep = nullptr;
      SweepFactory loss_sweep = nullptr;
      if (variant == GainLossVariant::V2) {
        gain_sweep = &make_sweep<Gain2Sweep>;
        loss_sweep = &make_sweep<Loss2Sweep>;
      } else if (variant == GainLossVariant::V3) {
        gain_sweep = &make_sweep<Gain3Sweep>;
      }
      r.register_solver("gain" + std::to_string(suffix),
                        [variant](const Instance& inst, double budget) {
                          return gain(inst, budget, variant);
                        },
                        gain_sweep);
      r.register_solver("loss" + std::to_string(suffix),
                        [variant](const Instance& inst, double budget) {
                          return loss(inst, budget, variant);
                        },
                        loss_sweep);
    }
    r.register_solver("genetic", [](const Instance& inst, double budget) {
      return genetic(inst, budget);
    });
    r.register_solver("annealing", [](const Instance& inst, double budget) {
      return annealing(inst, budget);
    });
    return r;
  }();
  return registry;
}

const SolverEntry* SolverRegistry::entry(std::string_view name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, entry] : solvers_) out.push_back(name);
  return out;
}

void SolverRegistry::register_solver(std::string name, SolverFn fn,
                                     SweepFactory sweep) {
  MEDCC_EXPECTS(!name.empty());
  MEDCC_EXPECTS(fn != nullptr);
  solvers_[std::move(name)] = SolverEntry{std::move(fn), sweep};
}

}  // namespace medcc::sched
