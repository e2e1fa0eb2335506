// End-to-end behaviour of the SchedulingService: solving through the
// registry, cache hit/miss accounting, byte-identical cached responses,
// bounded-queue rejection, deadline expiry under a frozen clock,
// rejection taxonomy, and metrics dumps.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verify.hpp"
#include "cloud/vm_type.hpp"
#include "expr/instance_gen.hpp"
#include "sched/bounds.hpp"
#include "sched/critical_greedy.hpp"
#include "sched/gain_loss.hpp"
#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::CacheOutcome;
using medcc::service::Counter;
using medcc::service::RejectReason;
using medcc::service::ResponseStatus;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;
using medcc::workflow::Workflow;

VmCatalog catalog() {
  return VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                    VmType{"large", 30.0, 8.0}});
}

// The paper's Fig. 2 example (entry, w1..w6, exit).
std::shared_ptr<const Instance> example_instance() {
  return std::make_shared<const Instance>(
      Instance::from_model(medcc::workflow::example6(), catalog()));
}

// An asymmetric diamond and its module/catalog-permuted twin.
std::shared_ptr<const Instance> diamond(bool permuted) {
  Workflow wf;
  if (permuted) {
    const auto c = wf.add_module("c", 75.0);
    const auto exit = wf.add_fixed_module("exit", 1.0);
    const auto a = wf.add_module("a", 30.0);
    const auto entry = wf.add_fixed_module("entry", 1.0);
    const auto b = wf.add_module("b", 45.0);
    wf.add_dependency(c, exit, 6.0);
    wf.add_dependency(b, exit, 5.0);
    wf.add_dependency(entry, a, 2.0);
    wf.add_dependency(a, c, 4.0);
    wf.add_dependency(a, b, 3.0);
    return std::make_shared<const Instance>(Instance::from_model(
        std::move(wf), VmCatalog({VmType{"large", 30.0, 8.0},
                                  VmType{"small", 3.0, 1.0},
                                  VmType{"medium", 15.0, 4.0}})));
  }
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
  return std::make_shared<const Instance>(
      Instance::from_model(std::move(wf), catalog()));
}

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget, std::string solver = "cg") {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = std::move(solver);
  return req;
}

// Bit-level equality for doubles without a floating-point comparison.
void expect_bits_equal(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

void expect_identical(const medcc::sched::Result& a,
                      const medcc::sched::Result& b) {
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.iterations, b.iterations);
  expect_bits_equal(a.eval.med, b.eval.med);
  expect_bits_equal(a.eval.cost, b.eval.cost);
}

TEST(Service, SolvesMatchingDirectSolverCall) {
  const auto inst = example_instance();
  SchedulingService service({.threads = 2});
  auto response = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.cache, CacheOutcome::miss);
  EXPECT_EQ(response.solver, "cg");

  const auto direct = medcc::sched::critical_greedy(*inst, 57.0);
  expect_identical(response.result, direct);

  medcc::analysis::VerifyOptions vopts;
  vopts.budget = 57.0;
  EXPECT_TRUE(medcc::analysis::verify_schedule(*inst, response.result.schedule,
                                               response.result.eval, vopts)
                  .ok());
}

TEST(Service, ExactDuplicateIsByteIdenticalCacheHit) {
  const auto inst = example_instance();
  SchedulingService service({.threads = 2});
  const auto first = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.cache, CacheOutcome::miss);

  const auto second = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.cache, CacheOutcome::hit_exact);
  expect_identical(second.result, first.result);

  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::cache_misses], 1u);
  EXPECT_EQ(snap[Counter::cache_hits_exact], 1u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.5);
}

TEST(Service, PermutedDuplicateServedIsomorphically) {
  SchedulingService service({.threads = 1});
  const auto solved = service.submit(request_for(diamond(false), 50.0)).get();
  ASSERT_TRUE(solved.ok());
  ASSERT_EQ(solved.cache, CacheOutcome::miss);

  const auto twin_inst = diamond(true);
  const auto twin = service.submit(request_for(twin_inst, 50.0)).get();
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(twin.cache, CacheOutcome::hit_isomorphic);
  // Same problem, so the re-mapped schedule must reproduce the same
  // delay and cost, and be feasible against the twin instance.
  EXPECT_DOUBLE_EQ(twin.result.eval.med, solved.result.eval.med);
  EXPECT_DOUBLE_EQ(twin.result.eval.cost, solved.result.eval.cost);
  EXPECT_EQ(twin.result.iterations, solved.result.iterations);

  medcc::analysis::VerifyOptions vopts;
  vopts.budget = 50.0;
  EXPECT_TRUE(medcc::analysis::verify_schedule(*twin_inst,
                                               twin.result.schedule,
                                               twin.result.eval, vopts)
                  .ok());
  EXPECT_EQ(service.metrics().value(Counter::cache_hits_isomorphic), 1u);
}

TEST(Service, CacheDisabledBypasses) {
  SchedulingService service({.threads = 1, .cache_capacity = 0});
  EXPECT_FALSE(service.cache_enabled());
  const auto inst = example_instance();
  for (int i = 0; i < 2; ++i) {
    const auto response = service.submit(request_for(inst, 57.0)).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.cache, CacheOutcome::bypass);
  }
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::cache_bypass], 2u);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.0);
}

TEST(Service, DistinctBudgetsDoNotShareEntries) {
  SchedulingService service({.threads = 1});
  const auto inst = example_instance();
  // The tightest feasible budget: every computing module on the
  // cheapest-rate type.
  medcc::sched::Schedule cheapest;
  cheapest.type_of.assign(inst->module_count(),
                          inst->catalog().cheapest_rate_index());
  const double cmin = medcc::sched::total_cost(*inst, cheapest);
  const auto cheap = service.submit(request_for(inst, cmin)).get();
  const auto rich = service.submit(request_for(inst, 4.0 * cmin)).get();
  ASSERT_TRUE(cheap.ok()) << cheap.error;
  ASSERT_TRUE(rich.ok()) << rich.error;
  EXPECT_EQ(cheap.cache, CacheOutcome::miss);
  EXPECT_EQ(rich.cache, CacheOutcome::miss);
  EXPECT_LE(cheap.result.eval.cost, cmin + 1e-9);
  EXPECT_GE(rich.result.eval.med + 1e-9, 0.0);
  EXPECT_LE(rich.result.eval.med, cheap.result.eval.med + 1e-9);
}

TEST(Service, UnknownSolverRejectedImmediately) {
  SchedulingService service({.threads = 1});
  const auto response =
      service.submit(request_for(example_instance(), 57.0, "no-such-solver"))
          .get();
  EXPECT_EQ(response.status, ResponseStatus::rejected);
  EXPECT_EQ(response.reject_reason, RejectReason::unknown_solver);
  EXPECT_EQ(service.metrics().value(Counter::rejected_unknown_solver), 1u);
}

// Solver names arrive from the wire unchecked: an unknown one must not
// grow the per-solver table or reach a dump, where a quote or newline
// would forge series.
TEST(Service, UnknownSolverNamesNeverReachMetrics) {
  SchedulingService service({.threads = 1});
  const std::string injected = "medcc_injected_total";
  for (const std::string& name :
       {std::string("no-such-solver"), std::string(64, 'x'),
        "evil\"} 1\n" + injected + " 999\nrequests_solver_forged"}) {
    const auto response =
        service.submit(request_for(example_instance(), 57.0, name)).get();
    EXPECT_EQ(response.reject_reason, RejectReason::unknown_solver);
  }
  const auto snap = service.metrics().snapshot();
  EXPECT_TRUE(snap.per_solver.empty());
  EXPECT_EQ(snap[Counter::rejected_unknown_solver], 3u);
  EXPECT_EQ(snap[Counter::requests_total], 3u);
  for (const std::string& dump :
       {service.metrics().dump_text(), service.metrics().dump_csv(),
        service.metrics().dump_prometheus()}) {
    EXPECT_EQ(dump.find(injected), std::string::npos) << dump;
    EXPECT_EQ(dump.find("forged"), std::string::npos) << dump;
    EXPECT_EQ(dump.find("xxxxxxxx"), std::string::npos) << dump;
    EXPECT_EQ(dump.find("no-such-solver"), std::string::npos) << dump;
  }
}

TEST(Service, InvalidRequestsRejected) {
  SchedulingService service({.threads = 1});
  SchedulingRequest null_instance;
  null_instance.budget = 57.0;
  EXPECT_EQ(service.submit(std::move(null_instance)).get().reject_reason,
            RejectReason::invalid_request);

  auto negative_budget = request_for(example_instance(), -1.0);
  EXPECT_EQ(service.submit(std::move(negative_budget)).get().reject_reason,
            RejectReason::invalid_request);

  auto nan_budget = request_for(example_instance(),
                                std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(service.submit(std::move(nan_budget)).get().reject_reason,
            RejectReason::invalid_request);

  auto negative_deadline = request_for(example_instance(), 57.0);
  negative_deadline.deadline_ms = -5.0;
  EXPECT_EQ(service.submit(std::move(negative_deadline)).get().reject_reason,
            RejectReason::invalid_request);

  auto nan_deadline = request_for(example_instance(), 57.0);
  nan_deadline.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service.submit(std::move(nan_deadline)).get().reject_reason,
            RejectReason::invalid_request);
  EXPECT_EQ(service.metrics().value(Counter::rejected_invalid), 5u);
}

TEST(Service, InfeasibleBudgetFailsWithSolverError) {
  SchedulingService service({.threads = 1});
  const auto response =
      service.submit(request_for(example_instance(), 1.0)).get();
  EXPECT_EQ(response.status, ResponseStatus::failed);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(service.metrics().value(Counter::responses_failed), 1u);
}

TEST(Service, ShutdownRejectsNewSubmissions) {
  SchedulingService service({.threads = 1});
  service.shutdown();
  const auto response =
      service.submit(request_for(example_instance(), 57.0)).get();
  EXPECT_EQ(response.status, ResponseStatus::rejected);
  EXPECT_EQ(response.reject_reason, RejectReason::shutting_down);
  service.shutdown();  // idempotent
}

// A registry whose "block" solver parks on a latch, for queue tests.
class BlockingRegistryFixture {
public:
  BlockingRegistryFixture() {
    registry_.register_solver(
        "block", [this](const Instance& inst, double budget) {
          started_.count_down();
          release_future_.wait();
          return medcc::sched::critical_greedy(inst, budget);
        });
  }

  void wait_until_blocked() { started_.wait(); }
  void release() { release_.set_value(); }
  [[nodiscard]] const medcc::sched::SolverRegistry& registry() const {
    return registry_;
  }

private:
  std::latch started_{1};
  std::promise<void> release_;
  std::shared_future<void> release_future_{release_.get_future().share()};
  // The built-ins, sweeps included, with "block" on top.
  medcc::sched::SolverRegistry registry_{
      medcc::sched::SolverRegistry::built_in()};
};

TEST(Service, BoundedQueueRejectsWhenFull) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 2;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));

  // Occupy the single worker, then fill the two queue slots.
  auto blocked =
      service.submit(request_for(example_instance(), 57.0, "block"));
  fixture.wait_until_blocked();
  std::vector<std::future<SchedulingResponse>> queued;
  queued.push_back(service.submit(request_for(example_instance(), 57.0)));
  queued.push_back(service.submit(request_for(example_instance(), 57.0)));

  // The queue is full now: further submissions bounce without blocking.
  const auto bounced =
      service.submit(request_for(example_instance(), 57.0)).get();
  EXPECT_EQ(bounced.status, ResponseStatus::rejected);
  EXPECT_EQ(bounced.reject_reason, RejectReason::queue_full);

  fixture.release();
  EXPECT_TRUE(blocked.get().ok());
  for (auto& f : queued) EXPECT_TRUE(f.get().ok());
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::rejected_queue_full], 1u);
  EXPECT_EQ(snap[Counter::queue_depth], 0u);
  EXPECT_GE(snap[Counter::queue_depth_peak], 2u);
}

TEST(Service, DeadlineExpiryUnderFrozenClock) {
  BlockingRegistryFixture fixture;
  std::atomic<std::int64_t> now_ns{0};
  ServiceConfig config;
  config.threads = 1;
  config.registry = &fixture.registry();
  config.clock = [&now_ns] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(now_ns.load()));
  };
  SchedulingService service(std::move(config));

  auto blocked =
      service.submit(request_for(example_instance(), 57.0, "block"));
  fixture.wait_until_blocked();

  auto tight = request_for(example_instance(), 57.0);
  tight.deadline_ms = 5.0;
  auto tight_future = service.submit(std::move(tight));

  auto loose = request_for(example_instance(), 57.0);
  loose.deadline_ms = 50.0;
  auto loose_future = service.submit(std::move(loose));

  // 10 ms pass while both requests sit behind the blocked worker.
  now_ns.store(10'000'000);
  fixture.release();
  EXPECT_TRUE(blocked.get().ok());

  const auto expired = tight_future.get();
  EXPECT_EQ(expired.status, ResponseStatus::rejected);
  EXPECT_EQ(expired.reject_reason, RejectReason::deadline_expired);
  EXPECT_GE(expired.queue_delay_ms, 10.0);

  const auto served = loose_future.get();
  EXPECT_TRUE(served.ok());
  EXPECT_EQ(service.metrics().value(Counter::rejected_deadline), 1u);
}

TEST(Service, DefaultDeadlineAppliesWhenRequestHasNone) {
  BlockingRegistryFixture fixture;
  std::atomic<std::int64_t> now_ns{0};
  ServiceConfig config;
  config.threads = 1;
  config.default_deadline_ms = 5.0;
  config.registry = &fixture.registry();
  config.clock = [&now_ns] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(now_ns.load()));
  };
  SchedulingService service(std::move(config));

  auto blocked =
      service.submit(request_for(example_instance(), 57.0, "block"));
  fixture.wait_until_blocked();
  auto queued = service.submit(request_for(example_instance(), 57.0));
  now_ns.store(10'000'000);
  fixture.release();
  EXPECT_TRUE(blocked.get().ok());
  EXPECT_EQ(queued.get().reject_reason, RejectReason::deadline_expired);
}

TEST(Service, TenantQuotaBoundsInflightPerTenant) {
  BlockingRegistryFixture fixture;
  ServiceConfig config;
  config.threads = 1;
  config.queue_capacity = 16;
  config.max_inflight_per_tenant = 2;
  config.registry = &fixture.registry();
  SchedulingService service(std::move(config));

  const auto tenant_request = [](std::string tenant, std::string solver) {
    auto req = request_for(example_instance(), 57.0, std::move(solver));
    req.tenant = std::move(tenant);
    return req;
  };

  // Tenant "a" fills its quota: one solving, one queued.
  auto blocked = service.submit(tenant_request("a", "block"));
  fixture.wait_until_blocked();
  auto queued = service.submit(tenant_request("a", "cg"));

  // The third "a" request bounces; tenant "b" is unaffected.
  const auto bounced = service.submit(tenant_request("a", "cg")).get();
  EXPECT_EQ(bounced.status, ResponseStatus::rejected);
  EXPECT_EQ(bounced.reject_reason, RejectReason::tenant_quota);
  auto other = service.submit(tenant_request("b", "cg"));

  fixture.release();
  EXPECT_TRUE(blocked.get().ok());
  EXPECT_TRUE(queued.get().ok());
  EXPECT_TRUE(other.get().ok());

  // Completions released the slots: "a" may submit again.
  EXPECT_TRUE(service.submit(tenant_request("a", "cg")).get().ok());

  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::tenant_quota_rejections], 1u);
  EXPECT_NE(service.metrics().dump_text().find("tenant_quota_rejections 1"),
            std::string::npos);
}

TEST(Service, TenantQuotaDisabledByDefault) {
  SchedulingService service({.threads = 1});
  const auto inst = example_instance();
  std::vector<std::future<SchedulingResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    auto req = request_for(inst, 57.0);
    req.tenant = "same-tenant";
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(service.metrics().value(Counter::tenant_quota_rejections), 0u);
}

TEST(Service, SubmitBatchAdmitsEachRequestIndependently) {
  SchedulingService service({.threads = 2});
  const auto inst = example_instance();
  std::vector<SchedulingRequest> batch;
  batch.push_back(request_for(inst, 57.0, "cg"));
  batch.push_back(request_for(inst, 57.0, "no-such-solver"));
  batch.push_back(request_for(inst, 57.0, "gain3"));

  auto futures = service.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 3u);
  EXPECT_TRUE(futures[0].get().ok());
  const auto rejected = futures[1].get();
  EXPECT_EQ(rejected.status, ResponseStatus::rejected);
  EXPECT_EQ(rejected.reject_reason, RejectReason::unknown_solver);
  EXPECT_TRUE(futures[2].get().ok());
}

TEST(Service, SubmitAsyncDeliversCallbackExactlyOnce) {
  SchedulingService service({.threads = 1});
  std::promise<SchedulingResponse> delivered;
  service.submit_async(request_for(example_instance(), 57.0),
                       [&delivered](SchedulingResponse response) {
                         delivered.set_value(std::move(response));
                       });
  const auto response = delivered.get_future().get();
  EXPECT_TRUE(response.ok()) << response.error;

  // Admission rejections invoke the callback synchronously.
  bool called = false;
  SchedulingRequest invalid;
  service.submit_async(std::move(invalid), [&called](SchedulingResponse r) {
    called = true;
    EXPECT_EQ(r.reject_reason, RejectReason::invalid_request);
  });
  EXPECT_TRUE(called);
}

TEST(Service, MetricsDumpContainsKeyLines) {
  SchedulingService service({.threads = 1});
  (void)service.submit(request_for(example_instance(), 57.0)).get();
  (void)service.submit(request_for(example_instance(), 57.0)).get();

  const auto text = service.metrics().dump_text();
  EXPECT_NE(text.find("requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("cache_hit_rate"), std::string::npos);
  EXPECT_NE(text.find("requests_solver_cg 2"), std::string::npos);
  EXPECT_NE(text.find("latency_total_seconds_p95"), std::string::npos);

  const auto csv = service.metrics().dump_csv();
  EXPECT_EQ(csv.rfind("metric,value\n", 0), 0u);
  EXPECT_NE(csv.find("responses_ok,2"), std::string::npos);
}

TEST(Service, CacheTtlExpiresEntriesUnderInjectedClock) {
  const auto inst = example_instance();
  std::int64_t now = 0;
  ServiceConfig config;
  config.threads = 1;
  config.cache_ttl_s = 10;
  config.cache_clock = [&now] { return now; };
  SchedulingService service(std::move(config));

  const auto first = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.cache, CacheOutcome::miss);

  now = 9;  // still fresh
  const auto warm = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, CacheOutcome::hit_exact);
  expect_identical(warm.result, first.result);

  now = 25;  // aged out: the duplicate is solved afresh
  const auto aged = service.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(aged.ok());
  EXPECT_EQ(aged.cache, CacheOutcome::miss);
  expect_identical(aged.result, first.result);  // solvers are deterministic

  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::cache_misses], 2u);
  EXPECT_GE(snap[Counter::cache_expired], 1u);
  EXPECT_NE(service.metrics().dump_text().find("cache_expired"),
            std::string::npos);
}

TEST(Service, SweepExpiredDropsAgedEntriesInBulk) {
  std::int64_t now = 0;
  ServiceConfig config;
  config.threads = 1;
  config.cache_ttl_s = 5;
  config.cache_clock = [&now] { return now; };
  SchedulingService service(std::move(config));

  ASSERT_TRUE(service.submit(request_for(example_instance(), 57.0)).get().ok());
  ASSERT_TRUE(service.submit(request_for(example_instance(), 58.0)).get().ok());
  EXPECT_EQ(service.sweep_expired(), 0u);
  now = 5;
  EXPECT_EQ(service.sweep_expired(), 2u);
  EXPECT_GE(service.metrics().value(Counter::cache_expired), 2u);
}

TEST(Service, OnCacheInsertFiresOnlyForLocalMisses) {
  const auto inst = example_instance();
  std::vector<std::string> published;
  ServiceConfig config;
  config.threads = 1;
  config.on_cache_insert = [&published](std::string payload,
                                        medcc::obs::TraceContext) {
    published.push_back(std::move(payload));
  };
  SchedulingService service(std::move(config));

  ASSERT_TRUE(service.submit(request_for(inst, 57.0)).get().ok());
  ASSERT_EQ(published.size(), 1u);  // the miss
  ASSERT_TRUE(service.submit(request_for(inst, 57.0)).get().ok());
  EXPECT_EQ(published.size(), 1u);  // the hit publishes nothing

  // Applying a replicated record must not re-publish either (that is
  // what keeps origin-pushes-to-full-mesh replication loop-free).
  SchedulingService receiver({.threads = 1});
  ASSERT_TRUE(receiver.apply_replicated_record(published.front()));
  EXPECT_EQ(published.size(), 1u);
}

TEST(Service, ApplyReplicatedRecordServesByteIdenticalHit) {
  const auto inst = example_instance();
  std::vector<std::string> published;
  ServiceConfig origin_config;
  origin_config.threads = 1;
  origin_config.on_cache_insert = [&published](std::string payload,
                                               medcc::obs::TraceContext) {
    published.push_back(std::move(payload));
  };
  SchedulingService origin(std::move(origin_config));
  const auto solved = origin.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(solved.ok());
  ASSERT_EQ(published.size(), 1u);

  SchedulingService receiver({.threads = 1});
  ASSERT_TRUE(receiver.apply_replicated_record(published.front()));
  const auto snap = receiver.metrics().snapshot();
  EXPECT_EQ(snap[Counter::repl_applied], 1u);
  EXPECT_EQ(snap[Counter::repl_apply_errors], 0u);

  // The receiver never solved, yet answers the duplicate exactly.
  const auto hit = receiver.submit(request_for(inst, 57.0)).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.cache, CacheOutcome::hit_exact);
  expect_identical(hit.result, solved.result);
}

TEST(Service, ApplyReplicatedRecordRejectsGarbage) {
  SchedulingService service({.threads = 1});
  EXPECT_FALSE(service.apply_replicated_record("not a cache record"));
  EXPECT_FALSE(service.apply_replicated_record(""));
  EXPECT_EQ(service.metrics().value(Counter::repl_apply_errors), 2u);

  // A cache-disabled service cannot apply records at all.
  SchedulingService uncached({.threads = 1, .cache_capacity = 0});
  EXPECT_FALSE(uncached.apply_replicated_record("anything"));
  EXPECT_EQ(uncached.metrics().value(Counter::repl_apply_errors), 1u);
}

TEST(Service, PerSolverCountsTracked) {
  SchedulingService service({.threads = 1});
  (void)service.submit(request_for(example_instance(), 57.0, "cg")).get();
  (void)service.submit(request_for(example_instance(), 57.0, "gain3")).get();
  (void)service.submit(request_for(example_instance(), 57.0, "gain3")).get();
  const auto snap = service.metrics().snapshot();
  ASSERT_TRUE(snap.per_solver.contains("cg"));
  ASSERT_TRUE(snap.per_solver.contains("gain3"));
  EXPECT_EQ(snap.per_solver.at("cg"), 1u);
  EXPECT_EQ(snap.per_solver.at("gain3"), 2u);
}

TEST(Service, EverySolverInRegistryServes) {
  SchedulingService service({.threads = 2});
  const auto inst = example_instance();
  std::vector<std::future<SchedulingResponse>> futures;
  const auto names = medcc::sched::SolverRegistry::built_in().names();
  futures.reserve(names.size());
  for (const auto& name : names)
    futures.push_back(service.submit(request_for(inst, 57.0, name)));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto response = futures[i].get();
    EXPECT_TRUE(response.ok())
        << names[i] << ": " << response.error;
    EXPECT_LE(response.result.eval.cost, 57.0 + 1e-9) << names[i];
  }
}

// One interned instance asked at the paper's 20 levels under cg and
// gain3: each solver's sweep is built once and answers the other 19
// levels, and every answer equals the plain solver's.
TEST(Service, InternedBudgetSweepBuildsEachSolverSweepOnce) {
  medcc::util::Prng rng(20);
  const auto inst = std::make_shared<const Instance>(
      medcc::expr::make_instance(medcc::expr::table4_sizes()[7], rng));
  const auto interned =
      std::make_shared<const medcc::service::InternedInstance>(inst);
  const auto budgets =
      medcc::sched::budget_levels(medcc::sched::cost_bounds(*inst), 20);
  SchedulingService service({.threads = 2});
  std::vector<std::future<SchedulingResponse>> futures;
  for (const double budget : budgets) {
    for (const std::string solver : {"cg", "gain3"}) {
      auto request = request_for(inst, budget, solver);
      request.interned = interned;
      futures.push_back(service.submit(std::move(request)));
    }
  }
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const double budget = budgets[k / 2];
    const auto response = futures[k].get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.cache, CacheOutcome::miss);
    expect_identical(response.result,
                     k % 2 == 0 ? medcc::sched::critical_greedy(*inst, budget)
                                : medcc::sched::gain3(*inst, budget));
  }
  EXPECT_EQ(service.metrics().value(Counter::solver_sweep_builds), 2u);
  EXPECT_EQ(service.metrics().value(Counter::solver_sweep_reuses), 38u);
}

// A registry that replaces cg replaces its sweep with it: interned cg
// requests are answered by the replacement, never from the built-in
// Critical-Greedy trajectory.
TEST(Service, ReplacedSolverIsNeverAnsweredFromBuiltInSweep) {
  medcc::sched::SolverRegistry registry =
      medcc::sched::SolverRegistry::built_in();
  registry.register_solver("cg", [](const Instance& inst, double budget) {
    return medcc::sched::gain3(inst, budget);
  });
  medcc::util::Prng rng(21);
  const auto inst = std::make_shared<const Instance>(
      medcc::expr::make_instance(medcc::expr::table4_sizes()[7], rng));
  const auto interned =
      std::make_shared<const medcc::service::InternedInstance>(inst);
  ServiceConfig config;
  config.threads = 1;
  config.registry = &registry;
  SchedulingService service(config);
  bool differs = false;  // the replacement is told apart somewhere
  for (const double budget :
       medcc::sched::budget_levels(medcc::sched::cost_bounds(*inst), 20)) {
    auto request = request_for(inst, budget, "cg");
    request.interned = interned;
    const auto response = service.submit(std::move(request)).get();
    ASSERT_TRUE(response.ok()) << response.error;
    expect_identical(response.result, medcc::sched::gain3(*inst, budget));
    differs = differs || response.result.schedule !=
                             medcc::sched::critical_greedy(*inst, budget)
                                 .schedule;
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(service.metrics().value(Counter::solver_sweep_builds), 0u);
  EXPECT_EQ(service.metrics().value(Counter::solver_sweep_reuses), 0u);
}

// The served set is the paper's solvers plus the two metaheuristics; an
// ablation-only Critical-Greedy variant is not a wire-visible name.
TEST(Service, ServedSolverSetIsPinned) {
  EXPECT_EQ(medcc::sched::SolverRegistry::built_in().names(),
            (std::vector<std::string>{"annealing", "cg", "gain1", "gain2",
                                      "gain3", "genetic", "loss1", "loss2",
                                      "loss3"}));
  SchedulingService service({.threads = 1});
  const auto response =
      service.submit(request_for(example_instance(), 57.0, "cg-ratio")).get();
  EXPECT_EQ(response.status, ResponseStatus::rejected);
  EXPECT_EQ(response.reject_reason, RejectReason::unknown_solver);
}

}  // namespace
