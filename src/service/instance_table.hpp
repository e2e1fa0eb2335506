// Intern table of decoded instances, keyed by their wire bytes.
//
// The paper evaluates each workflow across a budget sweep (20 levels,
// Table IV and Figs. 9-11), so a served sweep repeats one instance's
// bytes for every (budget, solver) pair. The InstanceTable maps the
// exact bytes of a solve_request's instance section to the instance
// decoded from them, so a repeat skips decode, the Instance/FlatDag
// build and -- through the entry's lazily computed InstancePrint --
// both WL label runs. Only the scalar part of the fingerprint is paid
// per request.
//
// Correctness rests on byte identity: an entry is inserted only after
// its bytes decoded and validated in full, and a lookup matches only
// the same bytes (hash plus full compare, ByteLru), so a hit inherits
// every check the original decode made. The table is one unsharded
// ByteLru of kInstanceTableCapacity entries: sharding a table this
// small would split a sweep's live instances unevenly and thrash.
// Entries are shared_ptrs, so a request in flight keeps its entry alive
// across eviction.
//
// An entry also holds the budget sweeps of the solvers asked about it
// (sched::SolverEntry::sweep: cg and gain3 among the built-ins), so a
// sweep's budget levels after the first miss pay only the per-budget
// part of the solve. A sweep is built on a worker on first use, at most
// once per (entry, factory), and answered without a lock after that.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "service/byte_lru.hpp"
#include "service/fingerprint.hpp"
#include "util/mutex.hpp"

namespace medcc::service {

/// One decoded instance plus its fingerprint print and solver sweeps,
/// each computed on first use (on a worker, never on the decoding
/// thread) and at most once.
class InternedInstance {
 public:
  explicit InternedInstance(std::shared_ptr<const sched::Instance> instance)
      : instance_(std::move(instance)) {}

  [[nodiscard]] const std::shared_ptr<const sched::Instance>& instance()
      const {
    return instance_;
  }

  /// The instance part of every fingerprint of this instance.
  [[nodiscard]] const InstancePrint& print() const {
    std::call_once(once_, [this] { print_ = print_instance(*instance_); });
    return print_;
  }

  /// The sweep `factory` builds on this instance; `built` tells whether
  /// this call built it.
  [[nodiscard]] const sched::BudgetSweep& sweep(sched::SweepFactory factory,
                                                bool& built) const {
    SweepSlot* slot = nullptr;
    {
      const util::MutexLock lock(slots_mutex_);
      for (const auto& s : slots_)
        if (s->factory == factory) slot = s.get();
      if (slot == nullptr)
        slot = slots_.emplace_back(std::make_unique<SweepSlot>(factory)).get();
    }
    built = false;
    std::call_once(slot->once, [&] {
      slot->sweep = factory(*instance_);
      built = true;
    });
    return *slot->sweep;
  }

 private:
  struct SweepSlot {
    explicit SweepSlot(sched::SweepFactory f) : factory(f) {}
    const sched::SweepFactory factory;
    std::once_flag once;
    /// Written once inside call_once, read-only after.
    std::unique_ptr<const sched::BudgetSweep> sweep;
  };

  const std::shared_ptr<const sched::Instance> instance_;
  mutable std::once_flag once_;
  /// Written once inside call_once, read-only after.
  MEDCC_NOT_GUARDED mutable InstancePrint print_;
  mutable util::Mutex slots_mutex_;
  /// One slot per factory asked; slots are never removed, so a pointer
  /// to one stays valid without the lock.
  mutable std::vector<std::unique_ptr<SweepSlot>> slots_
      MEDCC_GUARDED_BY(slots_mutex_);
};

/// Entries held by the table. An entry takes ~110 KB of heap on
/// average over the Table IV sizes and ~320 KB at the largest (m = 100),
/// before its sweeps.
inline constexpr std::size_t kInstanceTableCapacity = 32;

using InstanceTable = ByteLru<std::shared_ptr<const InternedInstance>>;

}  // namespace medcc::service
