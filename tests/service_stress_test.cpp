// Multithreaded stress on the SchedulingService aimed at data races:
// concurrent clients over a duplicate-heavy request mix, metric readers
// racing the request path, and submissions racing shutdown. Run under
// -DMEDCC_SANITIZE=thread these must produce zero TSan reports.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cloud/vm_type.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::sched::Instance;
using medcc::service::Counter;
using medcc::service::RejectReason;
using medcc::service::ResponseStatus;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingResponse;
using medcc::service::SchedulingService;
using medcc::service::ServiceConfig;

struct Problem {
  std::shared_ptr<const Instance> instance;
  double budget = 0.0;
};

std::vector<Problem> instance_pool(std::size_t n) {
  std::vector<Problem> pool;
  pool.reserve(n);
  medcc::util::Prng rng(42);
  for (std::size_t i = 0; i < n; ++i) {
    auto wf = medcc::workflow::layered(/*layers=*/3, /*width=*/3,
                                       /*wl_min=*/10.0, /*wl_max=*/80.0, rng);
    auto inst = std::make_shared<const Instance>(Instance::from_model(
        std::move(wf), medcc::cloud::example_catalog()));
    // Cheapest-everywhere cost plus headroom keeps every request feasible.
    medcc::sched::Schedule cheapest;
    cheapest.type_of.assign(inst->module_count(),
                            inst->catalog().cheapest_rate_index());
    const double budget =
        medcc::sched::total_cost(*inst, cheapest) * 1.4 + 1.0;
    pool.push_back({std::move(inst), budget});
  }
  return pool;
}

SchedulingRequest make_request(const Problem& problem) {
  SchedulingRequest req;
  req.instance = problem.instance;
  req.budget = problem.budget;
  req.solver = "cg";
  return req;
}

TEST(ServiceStress, ConcurrentClientsDuplicateHeavyMix) {
  // 4 distinct instances, 4 clients x 50 requests each: most submissions
  // repeat an instance already solved, so the cache and its sharded LRU
  // lists see heavy concurrent hits alongside misses.
  const auto pool = instance_pool(4);
  ServiceConfig config;
  config.threads = 4;
  config.queue_capacity = 1024;  // accept everything: exact accounting
  SchedulingService service(std::move(config));

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 50;
  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::size_t> other_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      medcc::util::Prng rng(100 + c);
      std::vector<std::future<SchedulingResponse>> futures;
      futures.reserve(kPerClient);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const auto& problem = pool[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
        futures.push_back(service.submit(make_request(problem)));
      }
      for (auto& f : futures) {
        const auto response = f.get();
        if (response.ok())
          ok_count.fetch_add(1, std::memory_order_relaxed);
        else
          other_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.drain();

  EXPECT_EQ(ok_count.load() + other_count.load(), kClients * kPerClient);
  EXPECT_EQ(other_count.load(), 0u);
  const auto snap = service.metrics().snapshot();
  EXPECT_EQ(snap[Counter::requests_total], kClients * kPerClient);
  EXPECT_EQ(snap[Counter::responses_ok], kClients * kPerClient);
  // Only the first solve of each of the 4 instances can miss; everything
  // else must be served from the cache (exact hits here).
  EXPECT_EQ(snap[Counter::cache_misses] + snap[Counter::cache_hits_exact] +
                snap[Counter::cache_hits_isomorphic],
            kClients * kPerClient);
  EXPECT_GE(snap[Counter::cache_misses], 1u);
  // Concurrent workers can race the first solve of one instance (both
  // miss before either inserts), so up to `threads` misses per distinct
  // instance are legitimate; after the first insert completes, every
  // later request hits.
  EXPECT_LE(snap[Counter::cache_misses], pool.size() * 4);
  EXPECT_EQ(snap[Counter::queue_depth], 0u);
}

TEST(ServiceStress, MetricReadersRaceRequestPath) {
  const auto pool = instance_pool(2);
  SchedulingService service({.threads = 2, .queue_capacity = 1024});

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = service.metrics().snapshot();
        ASSERT_LE(snap[Counter::responses_ok], snap[Counter::requests_total]);
        ASSERT_FALSE(service.metrics().dump_text().empty());
        (void)service.cache_stats();
      }
    });
  }

  std::vector<std::future<SchedulingResponse>> futures;
  futures.reserve(100);
  for (std::size_t i = 0; i < 100; ++i)
    futures.push_back(service.submit(make_request(pool[i % 2])));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
}

TEST(ServiceStress, SubmissionsRacingShutdown) {
  // Clients keep submitting while another thread shuts the service down.
  // Every future must resolve: either served or rejected shutting_down /
  // queue_full; nothing may hang or crash, and accounting must add up.
  for (int round = 0; round < 5; ++round) {
    const auto pool = instance_pool(2);
    auto service =
        std::make_unique<SchedulingService>(ServiceConfig{.threads = 2});
    constexpr std::size_t kClients = 3;
    constexpr std::size_t kPerClient = 60;
    std::atomic<std::size_t> resolved{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        medcc::util::Prng rng(7 * round + c);
        for (std::size_t i = 0; i < kPerClient; ++i) {
          auto future = service->submit(
              make_request(pool[static_cast<std::size_t>(
                  rng.uniform_int(0, 1))]));
          const auto response = future.get();
          if (!response.ok()) {
            ASSERT_EQ(response.status, ResponseStatus::rejected);
            ASSERT_TRUE(
                response.reject_reason == RejectReason::shutting_down ||
                response.reject_reason == RejectReason::queue_full);
          }
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::thread stopper([&service] { service->shutdown(); });
    for (auto& t : clients) t.join();
    stopper.join();
    EXPECT_EQ(resolved.load(), kClients * kPerClient);
    const auto snap = service->metrics().snapshot();
    EXPECT_EQ(snap[Counter::requests_total], kClients * kPerClient);
    service.reset();  // destructor repeats shutdown; must be idempotent
  }
}

}  // namespace
