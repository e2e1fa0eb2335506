// Canonical instance fingerprinting for the scheduling-service cache.
//
// Two requests that describe the same MED-CC problem -- even when their
// modules and VM types were added in a different order -- must map to the
// same cache key. The fingerprint therefore hashes *structure*, not
// indices: per-type hashes are combined order-independently, per-module
// labels start from the module's execution-time/cost rows (keyed by type
// hash, not type index) and are refined Weisfeiler-Lehman-style over the
// dependency edges until each label encodes the module's whole
// neighbourhood, and the canonical key is an order-independent
// combination of the final labels plus the scalar fields (budget,
// billing quantum, network model, solver id, solver config).
//
// The canonical key is 128 bits (two independently seeded label runs).
// An additional order-*dependent* `exact` hash distinguishes a verbatim
// duplicate from a permuted one: equal exact hashes let the cache return
// the stored Result byte-for-byte, while a canonical-only match serves a
// permuted duplicate by re-mapping the stored schedule through the
// per-module labels (see cache.hpp for the correctness argument).
//
// Module and VM-type *names* are display-only and deliberately excluded;
// workloads enter via the TE/CE rows they induce, so a from_matrix
// instance and a from_model instance with identical matrices coincide.
//
// The work splits in two. The instance part (the InstancePrint: both
// label runs, the type hashes and the exact hash, each stopped just
// before the scalars) depends on the instance alone; the scalar part
// folds budget, quantum, network, solver and config into those chain
// states in one fixed order. A budget sweep over one instance computes
// the print once (see service/instance_table.hpp) and pays only the
// scalar part per request; fingerprint_instance() composes the two, so
// both routes give bit-identical keys by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/cost_model.hpp"
#include "sched/instance.hpp"
#include "service/request.hpp"

namespace medcc::service {

/// 128-bit order-independent cache key.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint&) const = default;
};

/// Fingerprint plus the per-entity labels the cache needs to re-map a
/// permuted duplicate's schedule.
struct FingerprintDetail {
  Fingerprint canonical;
  /// Order-dependent hash; equality means the request layouts are
  /// identical index-for-index.
  std::uint64_t exact = 0;
  /// Final canonical label of every module (indexed by NodeId).
  std::vector<std::uint64_t> module_hash;
  /// Canonical hash of every VM type (indexed by catalog position).
  std::vector<std::uint64_t> type_hash;
  /// All module labels pairwise distinct (no structural symmetry left);
  /// required on both sides before a permuted hit may be re-mapped.
  bool modules_distinct = false;
  /// All type hashes pairwise distinct.
  bool types_distinct = false;
  /// Solver id the request named (metadata carried into cache entries
  /// for inspection tools; the canonical key already hashes it).
  std::string solver;
};

/// The instance part of a fingerprint: everything that does not depend
/// on the budget, solver or config.
struct InstancePrint {
  /// Chain states of the two seeded label runs (canonical hi / lo) and
  /// of the exact hash, each reached just before the budget is folded.
  std::uint64_t hi_state = 0;
  std::uint64_t lo_state = 0;
  std::uint64_t exact_state = 0;
  /// The instance's own scalars, folded after the budget.
  double quantum = 0.0;
  cloud::NetworkModel network;
  std::vector<std::uint64_t> module_hash;
  std::vector<std::uint64_t> type_hash;
  bool modules_distinct = false;
  bool types_distinct = false;
};

/// Computes the instance part (both WL label runs): the expensive half.
[[nodiscard]] InstancePrint print_instance(const sched::Instance& instance);

/// Folds the scalar part into `print`: the cheap half.
[[nodiscard]] FingerprintDetail finish_fingerprint(const InstancePrint& print,
                                                   double budget,
                                                   std::string_view solver,
                                                   std::string_view config);

/// Fingerprints (instance, budget, solver, config). `request.deadline_ms`
/// and `request.tenant` are quality-of-service knobs, not part of the
/// problem, and are excluded -- tenants share cached results. A request
/// decoded through the InstanceTable reuses its entry's print.
[[nodiscard]] FingerprintDetail fingerprint(const SchedulingRequest& request);

[[nodiscard]] FingerprintDetail fingerprint_instance(
    const sched::Instance& instance, double budget, std::string_view solver,
    std::string_view config);

/// Hash support for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& fp) const {
    return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace medcc::service
