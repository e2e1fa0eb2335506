// ResultCache behaviour: exact vs isomorphic hits, schedule re-mapping
// across permuted twins, LRU eviction, sharding, and stats accounting.
#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "sched/instance.hpp"
#include "sched/schedule.hpp"
#include "service/fingerprint.hpp"
#include "workflow/workflow.hpp"

namespace {

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::sched::Result;
using medcc::sched::Schedule;
using medcc::service::fingerprint_instance;
using medcc::service::FingerprintDetail;
using medcc::service::remap_schedule;
using medcc::service::ResultCache;
using medcc::workflow::Workflow;

// Asymmetric diamond whose WL labels are all distinct (entry=0 a=1 b=2
// c=3 exit=4 in this insertion order).
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

// Same DAG, modules inserted as c=0 exit=1 a=2 entry=3 b=4.
Workflow diamond_permuted() {
  Workflow wf;
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
  return wf;
}

VmCatalog catalog_forward() {
  return VmCatalog({VmType{"small", 3.0, 1.0}, VmType{"medium", 15.0, 4.0},
                    VmType{"large", 30.0, 8.0}});
}

// Same three types in the order large, small, medium.
VmCatalog catalog_permuted() {
  return VmCatalog({VmType{"large", 30.0, 8.0}, VmType{"small", 3.0, 1.0},
                    VmType{"medium", 15.0, 4.0}});
}

FingerprintDetail fp_of(const Instance& inst, double budget) {
  return fingerprint_instance(inst, budget, "cg", "");
}

Result result_with(Schedule schedule, double med, double cost) {
  Result r;
  r.schedule = std::move(schedule);
  r.eval.med = med;
  r.eval.cost = cost;
  r.iterations = 3;
  return r;
}

TEST(ResultCache, MissThenExactHit) {
  ResultCache cache({.capacity = 8, .shards = 2});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = fp_of(inst, 50.0);
  EXPECT_FALSE(cache.find(fp).has_value());

  const auto stored = result_with(Schedule{{0, 2, 1, 2, 0}}, 6.5, 48.0);
  cache.insert(fp, stored);
  const auto hit = cache.find(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);
  EXPECT_EQ(hit->result.schedule, stored.schedule);
  EXPECT_EQ(hit->result.iterations, stored.iterations);
  EXPECT_TRUE(hit->remappable);
}

TEST(ResultCache, PermutedTwinHitsNonExactAndRemaps) {
  ResultCache cache({.capacity = 8, .shards = 2});
  const auto solved = Instance::from_model(diamond_forward(), catalog_forward());
  const auto asking =
      Instance::from_model(diamond_permuted(), catalog_permuted());
  const auto solved_fp = fp_of(solved, 50.0);
  const auto asking_fp = fp_of(asking, 50.0);
  ASSERT_EQ(solved_fp.canonical, asking_fp.canonical);

  // forward ids: entry=0 a=1 b=2 c=3 exit=4; assign a->small b->medium
  // c->large in the forward catalog (small=0 medium=1 large=2).
  cache.insert(solved_fp, result_with(Schedule{{0, 0, 1, 2, 0}}, 6.5, 48.0));
  const auto hit = cache.find(asking_fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->exact);
  ASSERT_TRUE(hit->remappable);

  const auto remapped = remap_schedule(*hit, asking_fp);
  ASSERT_TRUE(remapped.has_value());
  // permuted ids: c=0 exit=1 a=2 entry=3 b=4; permuted catalog:
  // large=0 small=1 medium=2.
  ASSERT_EQ(remapped->type_of.size(), 5u);
  EXPECT_EQ(remapped->type_of[2], 1u);  // a -> small
  EXPECT_EQ(remapped->type_of[4], 2u);  // b -> medium
  EXPECT_EQ(remapped->type_of[0], 0u);  // c -> large
}

TEST(ResultCache, SymmetricModulesAreNotRemappable) {
  // Two identical parallel branches: labels collide, so the entry must be
  // stored non-remappable and remap_schedule must refuse.
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
  const auto fp = fp_of(inst, 20.0);
  ASSERT_FALSE(fp.modules_distinct);

  ResultCache cache({.capacity = 4, .shards = 1});
  cache.insert(fp, result_with(Schedule{{0, 1, 2, 0}}, 4.0, 19.0));
  const auto hit = cache.find(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->exact);  // verbatim duplicates still work
  EXPECT_FALSE(hit->remappable);
  EXPECT_FALSE(remap_schedule(*hit, fp).has_value());
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache({.capacity = 2, .shards = 1});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp1 = fp_of(inst, 10.0);
  const auto fp2 = fp_of(inst, 20.0);
  const auto fp3 = fp_of(inst, 30.0);
  const auto r = result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0, 1.0);
  cache.insert(fp1, r);
  cache.insert(fp2, r);
  ASSERT_TRUE(cache.find(fp1).has_value());  // refresh fp1; fp2 is now LRU
  cache.insert(fp3, r);                      // evicts fp2
  EXPECT_TRUE(cache.find(fp1).has_value());
  EXPECT_FALSE(cache.find(fp2).has_value());
  EXPECT_TRUE(cache.find(fp3).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResultCache, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache({.capacity = 4, .shards = 1});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = fp_of(inst, 50.0);
  cache.insert(fp, result_with(Schedule{{0, 0, 0, 0, 0}}, 9.0, 10.0));
  cache.insert(fp, result_with(Schedule{{0, 2, 2, 2, 0}}, 3.0, 49.0));
  EXPECT_EQ(cache.stats().size, 1u);
  const auto hit = cache.find(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.schedule, (Schedule{{0, 2, 2, 2, 0}}));
}

TEST(ResultCache, ShardCountClampedToCapacity) {
  ResultCache tiny({.capacity = 2, .shards = 16});
  EXPECT_LE(tiny.shard_count(), 2u);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(ResultCache, TtlExpiresLazilyOnFind) {
  std::int64_t now = 0;
  std::size_t notified = 0;
  ResultCache cache({.capacity = 8,
                     .shards = 1,
                     .ttl_s = 10,
                     .clock = [&now] { return now; },
                     .on_expired = [&notified](std::size_t n) {
                       notified += n;
                     }});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = fp_of(inst, 50.0);
  cache.insert(fp, result_with(Schedule{{0, 1, 1, 1, 0}}, 5.0, 40.0));

  now = 9;  // inside the TTL
  EXPECT_TRUE(cache.find(fp).has_value());
  now = 10;  // exactly the TTL: expired
  EXPECT_FALSE(cache.find(fp).has_value());
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(notified, 1u);
}

TEST(ResultCache, SweepExpiredDropsOnlyAgedEntries) {
  std::int64_t now = 0;
  ResultCache cache({.capacity = 16,
                     .shards = 2,
                     .ttl_s = 10,
                     .clock = [&now] { return now; }});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  for (int b = 1; b <= 3; ++b)
    cache.insert(fp_of(inst, static_cast<double>(b)),
                 result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0, 1.0));
  now = 5;
  cache.insert(fp_of(inst, 99.0),
               result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0, 1.0));

  now = 12;  // the first three are >= 10s old, the fourth is 7s old
  EXPECT_EQ(cache.sweep_expired(), 3u);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().expired, 3u);
  EXPECT_TRUE(cache.find(fp_of(inst, 99.0)).has_value());
}

TEST(ResultCache, UpsertAndRestoreRestampTtl) {
  std::int64_t now = 0;
  ResultCache cache({.capacity = 8,
                     .shards = 1,
                     .ttl_s = 10,
                     .clock = [&now] { return now; }});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = fp_of(inst, 50.0);
  cache.insert(fp, result_with(Schedule{{0, 1, 1, 1, 0}}, 5.0, 40.0));

  now = 8;  // refreshing restarts the clock
  cache.insert(fp, result_with(Schedule{{0, 1, 1, 1, 0}}, 5.0, 40.0));
  now = 12;
  EXPECT_TRUE(cache.find(fp).has_value());

  // A restored (replicated / warm-started) entry gets a fresh TTL at
  // the receiving node regardless of what its origin stamped.
  auto entry = ResultCache::make_entry(
      fp_of(inst, 60.0), result_with(Schedule{{0, 2, 2, 2, 0}}, 3.0, 49.0));
  entry.inserted_at = -1000;
  now = 20;
  cache.restore(std::move(entry));
  now = 29;
  EXPECT_TRUE(cache.find(fp_of(inst, 60.0)).has_value());
  now = 30;
  EXPECT_FALSE(cache.find(fp_of(inst, 60.0)).has_value());
}

TEST(ResultCache, ZeroTtlNeverExpires) {
  std::int64_t now = 0;
  ResultCache cache({.capacity = 8,
                     .shards = 1,
                     .ttl_s = 0,
                     .clock = [&now] { return now; }});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = fp_of(inst, 50.0);
  cache.insert(fp, result_with(Schedule{{0, 1, 1, 1, 0}}, 5.0, 40.0));
  now = 1'000'000'000;
  EXPECT_EQ(cache.sweep_expired(), 0u);
  EXPECT_TRUE(cache.find(fp).has_value());
  EXPECT_EQ(cache.stats().expired, 0u);
}

// Characterization of the LRU under a scripted sequence of insert, find,
// restore, expiry under an injected clock and overflow, on two shards.
// Each entry is tagged by its budget (stored as the result's cost), so
// the script pins by tag: which entries overflow evicts, the order
// export_entries() replays (shard by shard, oldest first) with each
// entry's hit count, every Stats counter, and every cache_expired
// notification.
TEST(ResultCache, CharacterizationScript) {
  std::int64_t now = 0;
  std::vector<std::size_t> notified;
  ResultCache cache({.capacity = 6,
                     .shards = 2,
                     .ttl_s = 10,
                     .clock = [&now] { return now; },
                     .on_expired = [&notified](std::size_t n) {
                       notified.push_back(n);
                     }});
  ASSERT_EQ(cache.shard_count(), 2u);
  ASSERT_EQ(cache.capacity(), 6u);
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  const auto fp = [&inst](int tag) {
    return fp_of(inst, static_cast<double>(tag));
  };
  const auto put = [&cache, &fp](int tag) {
    cache.insert(fp(tag), result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0,
                                      static_cast<double>(tag)));
  };
  const auto found = [&cache, &fp](int tag) {
    const auto hit = cache.find(fp(tag));
    if (hit) {
      EXPECT_EQ(hit->result.eval.cost, static_cast<double>(tag));
    }
    return hit.has_value();
  };
  // {tag, hits} in export order.
  const auto exported = [&cache] {
    std::vector<std::pair<int, std::uint64_t>> out;
    for (const auto& entry : cache.export_entries())
      out.emplace_back(static_cast<int>(entry.result.eval.cost), entry.hits);
    return out;
  };
  using Export = std::vector<std::pair<int, std::uint64_t>>;
  const auto expect_stats = [&cache](std::uint64_t insertions,
                                     std::uint64_t evictions,
                                     std::uint64_t expired, std::size_t size) {
    const auto stats = cache.stats();
    EXPECT_EQ(stats.insertions, insertions);
    EXPECT_EQ(stats.evictions, evictions);
    EXPECT_EQ(stats.expired, expired);
    EXPECT_EQ(stats.size, size);
  };

  // Overflow: eight inserts into two shards of three.
  for (int tag = 1; tag <= 8; ++tag) put(tag);
  expect_stats(8, 2, 0, 6);
  // Tags 1, 2, 4, 5 and 7 share a shard, so 1 and 2 were its victims.
  EXPECT_EQ(exported(), (Export{{4, 0}, {5, 0}, {7, 0}, {3, 0}, {6, 0},
                                {8, 0}}));

  // Victims are the least recently used per shard; a find refreshes.
  EXPECT_FALSE(found(1));
  EXPECT_FALSE(found(2));
  EXPECT_TRUE(found(4));
  EXPECT_TRUE(found(3));
  EXPECT_TRUE(found(3));
  put(9);
  put(10);
  expect_stats(10, 4, 0, 6);
  EXPECT_EQ(exported(), (Export{{4, 1}, {9, 0}, {10, 0}, {6, 0}, {8, 0},
                                {3, 2}}));

  // Restore and re-insert upsert without counting an insertion, and
  // both restamp the TTL; a re-insert resets the hit count.
  now = 5;
  auto restored = ResultCache::make_entry(
      fp(11), result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0, 11.0));
  restored.hits = 7;
  cache.restore(std::move(restored));
  put(3);
  expect_stats(10, 5, 0, 6);
  EXPECT_EQ(exported(), (Export{{9, 0}, {10, 0}, {11, 7}, {6, 0}, {8, 0},
                                {3, 0}}));
  EXPECT_TRUE(notified.empty());

  // Expiry: a find at the TTL drops one lazily, the sweep the rest of
  // the entries stamped at 0; entries stamped at 5 survive.
  now = 10;
  EXPECT_FALSE(found(9));
  EXPECT_EQ(notified, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(found(11));
  EXPECT_EQ(cache.sweep_expired(), 3u);
  EXPECT_EQ(notified, (std::vector<std::size_t>{1, 3}));
  expect_stats(10, 5, 4, 2);
  EXPECT_EQ(exported(), (Export{{11, 8}, {3, 0}}));

  // A sweep with nothing stale notifies nobody.
  EXPECT_EQ(cache.sweep_expired(), 0u);
  EXPECT_EQ(notified, (std::vector<std::size_t>{1, 3}));
  now = 15;
  EXPECT_EQ(cache.sweep_expired(), 2u);
  EXPECT_EQ(notified, (std::vector<std::size_t>{1, 3, 2}));
  expect_stats(10, 5, 6, 0);
  EXPECT_TRUE(exported().empty());
}

TEST(ResultCache, ClearEmptiesEveryShard) {
  ResultCache cache({.capacity = 16, .shards = 4});
  const auto inst = Instance::from_model(diamond_forward(), catalog_forward());
  for (int b = 1; b <= 10; ++b)
    cache.insert(fp_of(inst, static_cast<double>(b)),
                 result_with(Schedule{{0, 0, 0, 0, 0}}, 1.0, 1.0));
  EXPECT_GT(cache.stats().size, 0u);
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.find(fp_of(inst, 1.0)).has_value());
}

}  // namespace
