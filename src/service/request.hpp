// The request/response API of the MED-CC scheduling service.
//
// One SchedulingRequest names an instance, a budget, and a registered
// solver; the service answers with a SchedulingResponse that either
// carries the solver's Result (possibly served from the fingerprint
// cache) or states precisely why no schedule was produced -- admission
// rejection, queue-deadline expiry, or a solver error such as an
// infeasible budget.
#pragma once

#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"

namespace medcc::service {

class InternedInstance;  // service/instance_table.hpp

/// One scheduling call: solve `instance` under `budget` with the solver
/// registered as `solver`.
struct SchedulingRequest {
  /// Shared so duplicate-heavy request streams never copy the instance;
  /// the service only reads it. Must be non-null.
  std::shared_ptr<const sched::Instance> instance;
  /// The InstanceTable entry `instance` was decoded into, or nullptr.
  /// Set by the network decode path; it lets fingerprint() reuse the
  /// entry's print across a budget sweep. When set, `instance` is the
  /// entry's instance.
  std::shared_ptr<const InternedInstance> interned;
  double budget = 0.0;
  /// Id in the service's SolverRegistry ("cg", "gain3", ...).
  std::string solver = "cg";
  /// Opaque solver-configuration tag. The service does not interpret it,
  /// but it participates in the instance fingerprint, so requests that
  /// expect differently-configured solvers never share cache entries.
  std::string config;
  /// Maximum time (milliseconds) the request may wait in the submission
  /// queue before solving starts; expired requests are answered with
  /// RejectReason::deadline_expired instead of being solved.
  /// 0 uses the service default.
  double deadline_ms = 0.0;
  /// Caller identity for per-tenant admission quotas
  /// (ServiceConfig::max_inflight_per_tenant). Like deadline_ms it is a
  /// quality-of-service knob, not part of the problem: it does not enter
  /// the cache fingerprint, so tenants share cached results. Empty names
  /// the anonymous tenant, which is quota-limited like any other.
  std::string tenant;
  /// Observability context (invalid id = untraced). Pure metadata: it
  /// does not enter the cache fingerprint or the response bytes, so
  /// traced and untraced duplicates share results bit-for-bit.
  obs::TraceContext trace;
  /// Span buffer when the request is span-captured (opened via
  /// obs::Tracer::open by the front end that minted/received the
  /// context); nullptr = aggregate-only accounting.
  std::shared_ptr<obs::Trace> trace_buffer;
};

enum class ResponseStatus {
  ok,        ///< result holds a verified schedule
  rejected,  ///< admission control or deadline refused the request
  failed,    ///< the solver threw (e.g. Infeasible); see error
};

enum class RejectReason {
  none,
  queue_full,        ///< bounded submission queue at capacity
  shutting_down,     ///< service drain/shutdown already started
  deadline_expired,  ///< spent longer than deadline_ms in the queue
  unknown_solver,    ///< no such id in the solver registry
  invalid_request,   ///< null instance, bad budget or NaN/negative deadline
  tenant_quota,      ///< tenant already at max_inflight_per_tenant
  flow_control,      ///< connection exceeded max_inflight_frames
};

/// How the response was produced (mirrored into the metrics registry).
enum class CacheOutcome {
  bypass,           ///< cache disabled
  miss,             ///< solved fresh (and inserted)
  hit_exact,        ///< identical request: stored Result returned verbatim
  hit_isomorphic,   ///< permuted duplicate: stored schedule remapped
};

struct SchedulingResponse {
  ResponseStatus status = ResponseStatus::rejected;
  RejectReason reject_reason = RejectReason::none;
  /// Exception text when status == failed.
  std::string error;
  /// The schedule and its evaluation; meaningful when status == ok.
  sched::Result result;
  CacheOutcome cache = CacheOutcome::bypass;
  /// Solver id that produced (or would have produced) the result.
  std::string solver;
  /// Time spent queued before the worker picked the request up.
  double queue_delay_ms = 0.0;
  /// Time spent solving (or fingerprinting + serving the cache hit).
  double solve_ms = 0.0;

  [[nodiscard]] bool ok() const { return status == ResponseStatus::ok; }
};

[[nodiscard]] const char* to_string(ResponseStatus status);
[[nodiscard]] const char* to_string(RejectReason reason);
[[nodiscard]] const char* to_string(CacheOutcome outcome);

}  // namespace medcc::service
