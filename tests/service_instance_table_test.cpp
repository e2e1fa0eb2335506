// The instance intern table on the serving decode path: a hit returns
// the entry decoded from the very same bytes and nothing else, a failed
// decode never enters the table, eviction never pulls an instance out
// from under a request holding it, and the lazily computed print is
// computed once and equals the one-shot fingerprint under concurrency.
// decode_solve_request() is the oracle throughout.
#include "service/instance_table.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "expr/instance_gen.hpp"
#include "net/codec.hpp"
#include "sched/instance.hpp"
#include "service/fingerprint.hpp"
#include "service/request.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace {

using medcc::net::CodecError;
using medcc::net::WireError;
using medcc::sched::Instance;
using medcc::service::FingerprintDetail;
using medcc::service::InstanceTable;
using medcc::service::kInstanceTableCapacity;
using medcc::service::SchedulingRequest;

SchedulingRequest table4_request(std::size_t size_index, std::uint64_t seed,
                                 double budget = 40.0) {
  medcc::util::Prng rng(seed);
  SchedulingRequest request;
  request.instance =
      std::make_shared<const Instance>(medcc::expr::make_instance(
          medcc::expr::table4_sizes()[size_index], rng));
  request.budget = budget;
  request.solver = "cg";
  request.tenant = "t";
  return request;
}

/// The solve_request body (frame minus header) of `request`.
std::string body_of(const SchedulingRequest& request) {
  return medcc::net::encode_solve_request(request, 1)
      .substr(medcc::net::kHeaderSize);
}

/// Bytes before the instance section: budget, deadline, solver, config,
/// tenant.
std::size_t prefix_size(const SchedulingRequest& request) {
  medcc::util::ByteWriter writer;
  writer.f64(request.budget);
  writer.f64(request.deadline_ms);
  writer.str(request.solver);
  writer.str(request.config);
  writer.str(request.tenant);
  return writer.bytes().size();
}

/// The WireError `decode` throws, or nullopt when it returns.
template <typename Decode>
std::optional<WireError> error_of(Decode&& decode) {
  try {
    decode();
  } catch (const CodecError& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(InstanceTable, RepeatHitsTheEntryDecodedFromTheSameBytes) {
  InstanceTable table(kInstanceTableCapacity);
  SchedulingRequest request = table4_request(1, 7);
  const std::string first = body_of(request);
  request.budget = 55.0;
  request.solver = "gain3";
  const std::string second = body_of(request);  // same instance section

  const auto a = medcc::net::decode_solve_request_interned(first, table);
  const auto b = medcc::net::decode_solve_request_interned(second, table);
  EXPECT_FALSE(a.intern_hit);
  EXPECT_TRUE(b.intern_hit);
  EXPECT_EQ(a.request.interned, b.request.interned);
  EXPECT_EQ(b.request.instance, b.request.interned->instance());
  // The prefix is always decoded fresh.
  EXPECT_EQ(b.request.budget, 55.0);
  EXPECT_EQ(b.request.solver, "gain3");
  EXPECT_EQ(table.stats().size, 1u);
}

TEST(InstanceTable, ByteFlipsNeverReturnTheCachedEntry) {
  const SchedulingRequest request = table4_request(1, 11);
  const std::string body = body_of(request);
  const std::size_t start = prefix_size(request);
  ASSERT_LT(start, body.size());
  std::size_t rejected = 0;
  for (std::size_t pos = start; pos < body.size(); ++pos) {
    SCOPED_TRACE("byte " + std::to_string(pos));
    InstanceTable table(kInstanceTableCapacity);
    const auto original =
        medcc::net::decode_solve_request_interned(body, table);
    std::string mutated = body;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);

    std::optional<SchedulingRequest> fresh;
    const auto oracle_error = error_of(
        [&] { fresh = medcc::net::decode_solve_request(mutated); });
    std::optional<medcc::net::InternedRequest> via_table;
    const auto table_error = error_of([&] {
      via_table = medcc::net::decode_solve_request_interned(mutated, table);
    });
    ASSERT_EQ(table_error, oracle_error);
    if (oracle_error.has_value()) {
      ++rejected;
      EXPECT_EQ(table.stats().size, 1u) << "failed decode entered the table";
      continue;
    }
    EXPECT_FALSE(via_table->intern_hit);
    EXPECT_NE(via_table->request.interned, original.request.interned);
    EXPECT_EQ(medcc::net::encode_solve_request(via_table->request, 1),
              medcc::net::encode_solve_request(*fresh, 1));
    EXPECT_EQ(table.stats().size, 2u);
  }
  // Most flips break the instance; some (data sizes, times) survive.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, body.size() - start);
}

TEST(InstanceTable, FailedDecodesLeaveTheTableUnchanged) {
  InstanceTable table(kInstanceTableCapacity);
  const SchedulingRequest request = table4_request(0, 3);
  const std::string body = body_of(request);
  for (const std::size_t cut : {body.size() - 1, body.size() / 2,
                                prefix_size(request) + 3}) {
    const std::string_view cut_body = std::string_view(body).substr(0, cut);
    const auto oracle_error = error_of(
        [&] { (void)medcc::net::decode_solve_request(cut_body); });
    ASSERT_TRUE(oracle_error.has_value());
    EXPECT_EQ(error_of([&] {
                (void)medcc::net::decode_solve_request_interned(cut_body,
                                                                table);
              }),
              oracle_error);
    EXPECT_EQ(table.stats().size, 0u);
  }
}

TEST(InstanceTable, TrailingByteIsRejectedAfterAHit) {
  InstanceTable table(kInstanceTableCapacity);
  const std::string body = body_of(table4_request(1, 5));
  (void)medcc::net::decode_solve_request_interned(body, table);
  const std::string longer = body + '\0';
  EXPECT_EQ(error_of([&] { (void)medcc::net::decode_solve_request(longer); }),
            WireError::trailing_bytes);
  EXPECT_EQ(error_of([&] {
              (void)medcc::net::decode_solve_request_interned(longer, table);
            }),
            WireError::trailing_bytes);
  EXPECT_EQ(table.stats().size, 1u);
}

TEST(InstanceTable, EvictsTheOldestButNeverAnInstanceInFlight) {
  InstanceTable table(kInstanceTableCapacity);
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i <= kInstanceTableCapacity; ++i)
    bodies.push_back(body_of(table4_request(0, 100 + i)));

  // The oldest request is still in flight while the others arrive.
  const auto held = medcc::net::decode_solve_request_interned(bodies[0], table);
  for (std::size_t i = 1; i < bodies.size(); ++i)
    EXPECT_FALSE(
        medcc::net::decode_solve_request_interned(bodies[i], table).intern_hit);
  const auto stats = table.stats();
  EXPECT_EQ(stats.size, kInstanceTableCapacity);
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted entry still serves its request in full.
  const FingerprintDetail via_entry =
      medcc::service::fingerprint(held.request);
  const FingerprintDetail one_shot = medcc::service::fingerprint_instance(
      *held.request.instance, held.request.budget, held.request.solver,
      held.request.config);
  EXPECT_EQ(via_entry.canonical, one_shot.canonical);
  EXPECT_EQ(via_entry.exact, one_shot.exact);

  // It is gone from the table; the newest is still there.
  EXPECT_FALSE(
      medcc::net::decode_solve_request_interned(bodies[0], table).intern_hit);
  EXPECT_TRUE(medcc::net::decode_solve_request_interned(bodies.back(), table)
                  .intern_hit);
}

TEST(InstanceTable, ConcurrentFingerprintsShareOnePrint) {
  InstanceTable table(kInstanceTableCapacity);
  const SchedulingRequest base = table4_request(4, 17);
  const auto decoded =
      medcc::net::decode_solve_request_interned(body_of(base), table);
  const auto entry = decoded.request.interned;
  ASSERT_NE(entry, nullptr);

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<FingerprintDetail> got(kThreads);
  std::vector<const medcc::service::InstancePrint*> prints(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SchedulingRequest request = decoded.request;
      request.budget = 30.0 + t;
      request.solver = t % 2 == 0 ? "cg" : "gain3";
      start.arrive_and_wait();
      got[t] = medcc::service::fingerprint(request);
      prints[t] = &request.interned->print();
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    // One print object: call_once computes it once, and a second
    // concurrent computation would be a write race on the TSan leg.
    EXPECT_EQ(prints[t], prints[0]);
    const FingerprintDetail one_shot = medcc::service::fingerprint_instance(
        *entry->instance(), 30.0 + t, t % 2 == 0 ? "cg" : "gain3", "");
    EXPECT_EQ(got[t].canonical, one_shot.canonical);
    EXPECT_EQ(got[t].exact, one_shot.exact);
    EXPECT_EQ(got[t].module_hash, one_shot.module_hash);
    EXPECT_EQ(got[t].type_hash, one_shot.type_hash);
    EXPECT_EQ(got[t].modules_distinct, one_shot.modules_distinct);
    EXPECT_EQ(got[t].types_distinct, one_shot.types_distinct);
    EXPECT_EQ(got[t].solver, one_shot.solver);
  }
}

}  // namespace
