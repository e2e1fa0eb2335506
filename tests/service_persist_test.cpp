// Durable-cache warm start through the SchedulingService: restart the
// service on the same directory and the warmed cache must answer
// byte-identically to the live solves that produced it, tolerate a
// journal torn by SIGKILL, and skip (not misread) records from a newer
// build. The cache-record codec itself is fed truncated, random and
// byte-flipped records, directly and through apply_replicated_record.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/vm_type.hpp"
#include "persist/record_file.hpp"
#include "sched/instance.hpp"
#include "sched/solver_registry.hpp"
#include "service/fingerprint.hpp"
#include "service/persistence.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"
#include "workflow/patterns.hpp"
#include "workflow/workflow.hpp"

namespace {

namespace fs = std::filesystem;

using medcc::cloud::VmCatalog;
using medcc::cloud::VmType;
using medcc::sched::Instance;
using medcc::service::CacheEntry;
using medcc::service::CacheOutcome;
using medcc::service::Counter;
using medcc::service::Latency;
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

/// Serializes the full result (schedule, iterations, eval doubles, CPM
/// timing vectors) through the persistence codec, so equal strings mean
/// bit-for-bit identical responses.
std::string result_bytes(const SchedulingResponse& response) {
  CacheEntry entry;
  entry.result = response.result;
  return medcc::service::encode_cache_record(entry);
}

class ServicePersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("medcc_service_persist_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig config() const {
    ServiceConfig c;
    c.threads = 1;
    c.cache_dir = dir_.string();
    c.snapshot_interval_s = 0.0;  // flushes only on demand / shutdown
    c.persist_fsync = false;      // keep the unit tests fast
    return c;
  }

  fs::path dir_;
};

TEST_F(ServicePersistTest, WarmStartServesByteIdenticalExactHits) {
  SchedulingResponse live_a;
  SchedulingResponse live_b;
  {
    SchedulingService service(config());
    ASSERT_TRUE(service.persistence_enabled());
    live_a = service.submit(request_for(example_instance(), 57.0)).get();
    live_b = service.submit(request_for(diamond(false), 50.0)).get();
    ASSERT_TRUE(live_a.ok()) << live_a.error;
    ASSERT_TRUE(live_b.ok()) << live_b.error;
    EXPECT_EQ(service.persist_stats().appends, 2u);
  }  // destructor shuts down and folds the journal into the snapshot

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap[Counter::persist_loaded_entries], 2u);
  EXPECT_EQ(snap[Counter::persist_load_errors], 0u);
  EXPECT_EQ(snap[Counter::persist_replay_truncations], 0u);

  const auto warm_a = warmed.submit(request_for(example_instance(), 57.0)).get();
  const auto warm_b = warmed.submit(request_for(diamond(false), 50.0)).get();
  ASSERT_TRUE(warm_a.ok());
  ASSERT_TRUE(warm_b.ok());
  EXPECT_EQ(warm_a.cache, CacheOutcome::hit_exact);
  EXPECT_EQ(warm_b.cache, CacheOutcome::hit_exact);
  EXPECT_EQ(result_bytes(warm_a), result_bytes(live_a));
  EXPECT_EQ(result_bytes(warm_b), result_bytes(live_b));
  EXPECT_EQ(warmed.metrics().value(Counter::cache_misses), 0u);

  const auto text = warmed.metrics().dump_text();
  EXPECT_NE(text.find("persist_loaded_entries 2"), std::string::npos);
  EXPECT_NE(text.find("persist_load_seconds"), std::string::npos);
}

TEST_F(ServicePersistTest, IsomorphicHitSurvivesRestart) {
  SchedulingResponse solved;
  {
    SchedulingService service(config());
    solved = service.submit(request_for(diamond(false), 50.0)).get();
    ASSERT_TRUE(solved.ok());
  }
  SchedulingService warmed(config());
  const auto twin = warmed.submit(request_for(diamond(true), 50.0)).get();
  ASSERT_TRUE(twin.ok());
  // The persisted assignment + remappable flag drive the re-mapping.
  EXPECT_EQ(twin.cache, CacheOutcome::hit_isomorphic);
  EXPECT_DOUBLE_EQ(twin.result.eval.med, solved.result.eval.med);
  EXPECT_DOUBLE_EQ(twin.result.eval.cost, solved.result.eval.cost);
}

TEST_F(ServicePersistTest, ShutdownFoldsJournalIntoSnapshot) {
  {
    SchedulingService service(config());
    const auto miss = service.submit(request_for(example_instance(), 57.0)).get();
    const auto hit = service.submit(request_for(example_instance(), 57.0)).get();
    ASSERT_EQ(miss.cache, CacheOutcome::miss);
    ASSERT_EQ(hit.cache, CacheOutcome::hit_exact);
    service.shutdown();
  }
  const auto snapshot = medcc::persist::read_record_file(
      dir_ / medcc::persist::kSnapshotFileName, medcc::persist::kSnapshotMagic);
  const auto journal = medcc::persist::read_record_file(
      dir_ / medcc::persist::kJournalFileName, medcc::persist::kJournalMagic);
  ASSERT_EQ(snapshot.payloads.size(), 1u);
  EXPECT_FALSE(snapshot.truncated);
  EXPECT_TRUE(journal.payloads.empty());  // rotated into the snapshot
  EXPECT_FALSE(journal.truncated);

  const CacheEntry entry =
      medcc::service::decode_cache_record(snapshot.payloads.front());
  EXPECT_EQ(entry.solver, "cg");
  EXPECT_EQ(entry.hits, 1u);  // the exact hit above is in the metadata
}

TEST_F(ServicePersistTest, TornJournalTailToleratedAndCounted) {
  {
    SchedulingService service(config());
    ASSERT_TRUE(
        service.submit(request_for(example_instance(), 57.0)).get().ok());
  }
  // SIGKILL mid-append: a partial record (too short for even its own
  // header) sits at the journal tail.
  {
    medcc::util::File journal =
        medcc::util::File::append(dir_ / medcc::persist::kJournalFileName);
    journal.write_all(medcc::persist::frame_record("torn").substr(0, 5));
  }

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap[Counter::persist_replay_truncations], 1u);
  EXPECT_EQ(snap[Counter::persist_loaded_entries], 1u);
  EXPECT_NE(
      warmed.metrics().dump_text().find("persist_replay_truncations 1"),
      std::string::npos);

  // The snapshot survived the torn journal: still an exact hit.
  const auto warm = warmed.submit(request_for(example_instance(), 57.0)).get();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, CacheOutcome::hit_exact);
}

TEST_F(ServicePersistTest, FutureVersionedRecordSkippedAsLoadError) {
  {
    SchedulingService service(config());
    ASSERT_TRUE(
        service.submit(request_for(example_instance(), 57.0)).get().ok());
  }
  // Simulate a rollback: a record written by a newer build (version 99)
  // sits in the snapshot next to one this build understands.
  auto snapshot = medcc::persist::read_record_file(
      dir_ / medcc::persist::kSnapshotFileName, medcc::persist::kSnapshotMagic);
  ASSERT_EQ(snapshot.payloads.size(), 1u);
  medcc::util::ByteWriter future;
  future.u16(99);
  snapshot.payloads.push_back(future.take());
  medcc::persist::write_record_file(dir_ / medcc::persist::kSnapshotFileName,
                                    medcc::persist::kSnapshotMagic,
                                    snapshot.payloads);

  SchedulingService warmed(config());
  const auto snap = warmed.metrics().snapshot();
  EXPECT_EQ(snap[Counter::persist_loaded_entries], 1u);
  EXPECT_EQ(snap[Counter::persist_load_errors], 1u);
  const auto warm = warmed.submit(request_for(example_instance(), 57.0)).get();
  EXPECT_EQ(warm.cache, CacheOutcome::hit_exact);
}

TEST_F(ServicePersistTest, FlushPersistenceSnapshotsOnDemand) {
  SchedulingService service(config());
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  EXPECT_EQ(service.persist_stats().appends, 1u);
  service.flush_persistence();
  const auto stats = service.persist_stats();
  EXPECT_GE(stats.flushes, 1u);
  EXPECT_EQ(stats.snapshot_records, 1u);
  EXPECT_EQ(stats.journal_bytes, medcc::persist::kFileHeaderSize);
  EXPECT_GE(service.metrics().value(Counter::persist_flushes), 1u);
}

TEST_F(ServicePersistTest, EachJournalAppendIsTimed) {
  SchedulingService service(config());
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  // One miss journaled, one exact hit that journals nothing.
  EXPECT_EQ(service.persist_stats().appends, 1u);
  EXPECT_EQ(service.metrics().snapshot()[Latency::persist_append].count(),
            1u);
}

TEST_F(ServicePersistTest, PersistenceDisabledWithoutDir) {
  ServiceConfig c;
  c.threads = 1;
  SchedulingService service(std::move(c));
  EXPECT_FALSE(service.persistence_enabled());
  EXPECT_EQ(service.persist_stats().appends, 0u);
  ASSERT_TRUE(
      service.submit(request_for(example_instance(), 57.0)).get().ok());
  EXPECT_EQ(service.metrics().value(Counter::persist_journal_appends), 0u);
}

// -- adversarial cache records ----------------------------------------------
//
// Replicas accept these bytes from peers and warm start reads them from
// disk: corrupt input must surface as PersistError (never UB -- the
// ASan+UBSan leg runs this binary) and never reach the cache.

/// The record the service caches (and replicates) for example6 at B=57.
std::string solved_record() {
  const SchedulingRequest req = request_for(example_instance(), 57.0);
  const auto* cg = medcc::sched::SolverRegistry::built_in().find("cg");
  return medcc::service::encode_cache_record(
      medcc::service::ResultCache::make_entry(
          medcc::service::fingerprint(req), (*cg)(*req.instance, req.budget)));
}

TEST(CacheRecordCodec, EveryStrictPrefixThrowsPersistError) {
  const std::string record = solved_record();
  ASSERT_NO_THROW((void)medcc::service::decode_cache_record(record));
  for (std::size_t len = 0; len < record.size(); ++len)
    EXPECT_THROW(
        (void)medcc::service::decode_cache_record(record.substr(0, len)),
        medcc::persist::PersistError)
        << "prefix length " << len;
}

TEST(CacheRecordCodec, RandomAndFlippedBytesThrowOrDecode) {
  const std::string record = solved_record();
  medcc::util::Prng rng(0xCAC4Eu);
  const auto byte = [&rng] {
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  for (int round = 0; round < 2000; ++round) {
    // Random bodies, half of them behind a valid version so decoding
    // gets past the first field.
    std::string random(static_cast<std::size_t>(rng.uniform_int(0, 256)),
                       '\0');
    for (char& c : random) c = byte();
    if (round % 2 == 0 && random.size() >= 2)
      random.replace(0, 2, "\x01\x00", 2);
    std::string flipped = record;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f)
      flipped[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flipped.size()) - 1))] = byte();
    // Any outcome but a PersistError (or a clean decode) is a bug.
    for (const std::string* bytes : {&random, &flipped}) {
      try {
        (void)medcc::service::decode_cache_record(*bytes);
      } catch (const medcc::persist::PersistError&) {
      }
    }
  }
}

TEST(CacheRecordCodec, ReplicatedPrefixesNeverReachTheCache) {
  ServiceConfig c;
  c.threads = 1;
  SchedulingService service(std::move(c));
  const std::string record = solved_record();
  for (std::size_t len = 0; len < record.size(); ++len) {
    const auto errors = service.metrics().value(Counter::repl_apply_errors);
    EXPECT_FALSE(service.apply_replicated_record(record.substr(0, len)))
        << "prefix length " << len;
    EXPECT_EQ(service.metrics().value(Counter::repl_apply_errors), errors + 1)
        << "prefix length " << len;
    EXPECT_EQ(service.cache_stats().size, 0u) << "prefix length " << len;
  }
  // The whole record applies, so the prefixes failed for being cut.
  EXPECT_TRUE(service.apply_replicated_record(record));
  EXPECT_EQ(service.cache_stats().size, 1u);
}

}  // namespace
