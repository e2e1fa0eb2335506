// Multi-client stress on the net/ stack, meant for the TSan CI leg:
// many client threads hammer one epoll server with single solves,
// pipelined batches, stats polls, and connection churn, all racing the
// service's worker pool; every response must come back ok and
// correctly correlated, and shutdown must stay graceful with
// connections still open.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "sched/instance.hpp"
#include "service/service.hpp"
#include "workflow/patterns.hpp"

namespace {

using medcc::net::Client;
using medcc::net::ClientConfig;
using medcc::net::Server;
using medcc::sched::Instance;
using medcc::service::Counter;
using medcc::service::SchedulingRequest;
using medcc::service::SchedulingService;

constexpr std::size_t kClientThreads = 6;
constexpr std::size_t kRoundsPerThread = 12;
constexpr std::size_t kBatchSize = 4;

SchedulingRequest request_for(std::shared_ptr<const Instance> inst,
                              double budget, std::string solver,
                              std::string tenant) {
  SchedulingRequest req;
  req.instance = std::move(inst);
  req.budget = budget;
  req.solver = std::move(solver);
  req.tenant = std::move(tenant);
  return req;
}

TEST(NetStress, ManyClientsManyBatchesAllCorrelated) {
  SchedulingService service(
      {.threads = 4, .queue_capacity = 1024, .cache_capacity = 64});
  Server server(service);

  const auto inst = std::make_shared<const Instance>(Instance::from_model(
      medcc::workflow::example6(), medcc::cloud::example_catalog()));
  const std::vector<std::string> solvers = {"cg", "gain3", "loss2"};

  std::atomic<std::uint64_t> ok_responses{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads + 1);
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientConfig config;
      config.port = server.port();
      Client client(config);
      const std::string tenant = "stress-" + std::to_string(t);
      for (std::size_t round = 0; round < kRoundsPerThread; ++round) {
        // Budgets vary per thread so the cache sees misses alongside
        // hits; all of them are feasible.
        const double budget = 57.0 + static_cast<double>((t + round) % 5);
        const auto& solver = solvers[(t + round) % solvers.size()];
        if (round % 3 == 0) {
          std::vector<SchedulingRequest> batch;
          for (std::size_t i = 0; i < kBatchSize; ++i)
            batch.push_back(request_for(inst, budget, solver, tenant));
          for (const auto& response : client.solve_batch(batch)) {
            if (response.ok())
              ++ok_responses;
            else
              ++failures;
          }
        } else {
          if (client.solve(request_for(inst, budget, solver, tenant)).ok())
            ++ok_responses;
          else
            ++failures;
          if (round % 4 == 1) client.close();  // churn: reconnects next round
        }
      }
    });
  }
  // One thread polls stats concurrently with the solve traffic.
  std::atomic<bool> stop_polling{false};
  threads.emplace_back([&] {
    ClientConfig config;
    config.port = server.port();
    Client client(config);
    while (!stop_polling.load()) {
      EXPECT_NE(client.stats().find("requests_total"), std::string::npos);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::size_t t = 0; t < kClientThreads; ++t) threads[t].join();
  stop_polling.store(true);
  threads.back().join();

  const std::uint64_t expected =
      kClientThreads *
      (kRoundsPerThread / 3 * kBatchSize + (kRoundsPerThread -
                                            kRoundsPerThread / 3));
  EXPECT_EQ(ok_responses.load(), expected);
  EXPECT_EQ(failures.load(), 0u);

  const auto counters = service.metrics().snapshot();
  EXPECT_EQ(counters[Counter::protocol_errors], 0u);
  EXPECT_EQ(counters[Counter::frames_in], counters[Counter::frames_out]);

  // Graceful stop with (possibly) open-but-idle connections.
  server.stop();
  EXPECT_EQ(service.metrics().value(Counter::connections_active), 0u);
}

}  // namespace
