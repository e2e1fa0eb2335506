// The persistence subsystem: CRC-framed record files (torn-tail
// tolerance at every byte offset, corruption detection at every flipped
// byte) and the DurableStore snapshot + journal lifecycle, including
// appends that run while a flush builds its snapshot without the store
// lock.
#include "persist/store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "persist/record_file.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"

namespace medcc::persist {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> sample_payloads() {
  return {"alpha", std::string("\x00\x01\xffzz", 5), "",
          std::string(1000, 'q')};
}

/// Polls `done` every millisecond for up to five seconds.
bool eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// --------------------------------------------------------------------------
// Record-file framing

TEST(RecordFile, RoundTripsPayloads) {
  const auto payloads = sample_payloads();
  const std::string bytes = encode_record_file(kSnapshotMagic, payloads);
  const ReadResult read = parse_record_file(bytes, kSnapshotMagic);
  EXPECT_TRUE(read.exists);
  EXPECT_FALSE(read.truncated);
  EXPECT_EQ(read.payloads, payloads);
  EXPECT_EQ(read.valid_bytes, bytes.size());
}

TEST(RecordFile, EmptyImageIsEmptyNotTruncated) {
  const ReadResult read = parse_record_file("", kJournalMagic);
  EXPECT_TRUE(read.payloads.empty());
  EXPECT_FALSE(read.truncated);
}

TEST(RecordFile, ShortHeaderIsTruncated) {
  const std::string header = encode_file_header(kJournalMagic);
  for (std::size_t cut = 1; cut < header.size(); ++cut) {
    const ReadResult read =
        parse_record_file(header.substr(0, cut), kJournalMagic);
    EXPECT_TRUE(read.truncated) << "cut=" << cut;
    EXPECT_TRUE(read.payloads.empty());
    EXPECT_EQ(read.valid_bytes, 0u);
  }
}

TEST(RecordFile, EncodeIsHeaderPlusFramedRecords) {
  const auto payloads = sample_payloads();
  std::string concatenated = encode_file_header(kSnapshotMagic);
  for (const std::string& payload : payloads)
    concatenated += frame_record(payload);
  EXPECT_EQ(encode_record_file(kSnapshotMagic, payloads), concatenated);
  EXPECT_EQ(encode_record_file(kJournalMagic, {}),
            encode_file_header(kJournalMagic));
}

TEST(RecordFile, WrongMagicOrVersionThrows) {
  const std::string bytes = encode_record_file(kSnapshotMagic, {"x"});
  EXPECT_THROW((void)parse_record_file(bytes, kJournalMagic), PersistError);

  std::string future = bytes;
  future[4] = 2;  // bump the version field
  EXPECT_THROW((void)parse_record_file(future, kSnapshotMagic), PersistError);
}

TEST(RecordFile, OversizedLengthIsTruncatedNotAllocated) {
  std::string bytes = encode_file_header(kJournalMagic);
  util::ByteWriter w;
  w.u32(0x7fffffffu);  // length prefix far beyond the bound
  w.u32(0);
  bytes += w.take();
  const ReadResult read = parse_record_file(bytes, kJournalMagic, 1 << 20);
  EXPECT_TRUE(read.truncated);
  EXPECT_TRUE(read.payloads.empty());
  EXPECT_EQ(read.valid_bytes, kFileHeaderSize);
}

TEST(RecordFile, TornTailToleratedAtEveryByteOffset) {
  const std::string first = "intact-record";
  const std::string second = "the-one-that-tears";
  std::string bytes = encode_file_header(kJournalMagic);
  bytes += frame_record(first);
  const std::size_t prefix = bytes.size();
  bytes += frame_record(second);

  // A file cut exactly at the record boundary is clean...
  const ReadResult clean =
      parse_record_file(bytes.substr(0, prefix), kJournalMagic);
  EXPECT_FALSE(clean.truncated);
  EXPECT_EQ(clean.payloads, std::vector<std::string>{first});

  // ...and every partial suffix of the last record is a tolerated torn
  // tail: the intact prefix survives, nothing throws, nothing is UB.
  for (std::size_t cut = prefix + 1; cut < bytes.size(); ++cut) {
    const ReadResult read =
        parse_record_file(bytes.substr(0, cut), kJournalMagic);
    EXPECT_TRUE(read.truncated) << "cut=" << cut;
    EXPECT_EQ(read.payloads, std::vector<std::string>{first})
        << "cut=" << cut;
    EXPECT_EQ(read.valid_bytes, prefix) << "cut=" << cut;
  }
}

TEST(RecordFile, EveryFlippedByteOfLastRecordIsCaught) {
  const std::string first = "intact-record";
  const std::string second = "corruption-target";
  std::string bytes = encode_file_header(kJournalMagic);
  bytes += frame_record(first);
  const std::size_t prefix = bytes.size();
  bytes += frame_record(second);

  for (std::size_t i = prefix; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
    const ReadResult read = parse_record_file(corrupt, kJournalMagic);
    EXPECT_TRUE(read.truncated) << "flip at " << i;
    EXPECT_EQ(read.payloads, std::vector<std::string>{first})
        << "flip at " << i;
  }
}

// --------------------------------------------------------------------------
// DurableStore

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("medcc_persist_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreConfig config() const {
    StoreConfig c;
    c.dir = dir_;
    c.snapshot_interval_s = 0.0;  // no timer unless a test wants one
    c.journal_rotate_bytes = 0;   // no size trigger unless wanted
    c.fsync_appends = false;      // keep the unit tests fast
    return c;
  }

  /// A store whose snapshot source serves `table`.
  std::unique_ptr<DurableStore> make_store(
      StoreConfig c, const std::vector<std::string>* table) {
    return std::make_unique<DurableStore>(
        std::move(c), [table] { return *table; });
  }

  /// Copies the persistence directory as a crash at this instant would
  /// leave it, for loading later.
  fs::path crash_copy(const std::string& name) const {
    const fs::path copy = dir_.string() + "_" + name;
    fs::remove_all(copy);
    fs::copy(dir_, copy, fs::copy_options::recursive);
    return copy;
  }

  fs::path dir_;
  std::vector<std::string> table_;
};

/// What loading `dir` in a fresh store recovers.
std::vector<std::string> load_payloads(const fs::path& dir) {
  StoreConfig c;
  c.dir = dir;
  c.fsync_appends = false;
  DurableStore store(c, [] { return std::vector<std::string>{}; });
  return store.load().payloads;
}

/// Every payload of `returned` is among `loaded`.
void expect_superset(const std::vector<std::string>& loaded,
                     const std::vector<std::string>& returned,
                     const std::string& where) {
  const std::set<std::string> have(loaded.begin(), loaded.end());
  for (const std::string& payload : returned)
    EXPECT_TRUE(have.count(payload) == 1) << where << ": lost " << payload;
}

/// The `i`th payload appended by test thread `t`, unique across threads.
std::string thread_payload(int t, int i) {
  return "t" + std::to_string(t) + "-" + std::to_string(i);
}

/// A table guarded by its own lock, appended to the way the service
/// does it: insert first, then journal.
class LockedTable {
 public:
  void insert_then_append(DurableStore& store, const std::string& payload) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      rows_.push_back(payload);
    }
    store.append(payload);
  }
  std::vector<std::string> rows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return rows_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> rows_;
};

TEST_F(DurableStoreTest, FreshDirectoryLoadsEmpty) {
  auto store = make_store(config(), &table_);
  const LoadResult loaded = store->load();
  EXPECT_TRUE(loaded.payloads.empty());
  EXPECT_EQ(loaded.truncations, 0u);
  // The journal file now exists with a bare header.
  EXPECT_TRUE(util::file_exists(store->journal_path()));
  EXPECT_EQ(store->stats().journal_bytes, kFileHeaderSize);
}

TEST_F(DurableStoreTest, AppendsReplayAcrossRestart) {
  {
    auto store = make_store(config(), &table_);
    (void)store->load();
    store->append("one");
    store->append("two");
    EXPECT_EQ(store->stats().appends, 2u);
  }
  auto store = make_store(config(), &table_);
  const LoadResult loaded = store->load();
  EXPECT_EQ(loaded.payloads, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(loaded.journal_records, 2u);
  EXPECT_EQ(loaded.snapshot_records, 0u);
}

TEST_F(DurableStoreTest, FlushSnapshotsAndRotatesJournal) {
  table_ = {"A", "B"};
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->append("journal-entry");
  store->flush();
  EXPECT_EQ(store->stats().flushes, 1u);
  EXPECT_EQ(store->stats().snapshot_records, 2u);
  EXPECT_EQ(store->stats().journal_bytes, kFileHeaderSize);  // rotated

  auto reopened = make_store(config(), &table_);
  const LoadResult loaded = reopened->load();
  EXPECT_EQ(loaded.snapshot_records, 2u);
  EXPECT_EQ(loaded.journal_records, 0u);
  EXPECT_EQ(loaded.payloads, (std::vector<std::string>{"A", "B"}));
}

TEST_F(DurableStoreTest, SnapshotThenJournalOrderOnLoad) {
  table_ = {"old"};
  {
    auto store = make_store(config(), &table_);
    (void)store->load();
    store->flush();
    store->append("newer");
  }
  auto store = make_store(config(), &table_);
  const LoadResult loaded = store->load();
  // Journal payloads follow snapshot payloads so replaying in order
  // leaves the newest version of an upserted key.
  EXPECT_EQ(loaded.payloads, (std::vector<std::string>{"old", "newer"}));
}

TEST_F(DurableStoreTest, TornJournalTailIsCutAndCounted) {
  {
    auto store = make_store(config(), &table_);
    (void)store->load();
    store->append("kept");
    store->append("torn");
  }
  // SIGKILL mid-append: drop the last 3 bytes of the journal.
  {
    util::File f = util::File::append(dir_ / kJournalFileName);
    f.truncate(f.size() - 3);
  }
  auto store = make_store(config(), &table_);
  const LoadResult loaded = store->load();
  EXPECT_EQ(loaded.payloads, std::vector<std::string>{"kept"});
  EXPECT_EQ(loaded.truncations, 1u);

  // New appends land behind the repaired tail, not behind a bad CRC.
  store->append("after-repair");
  auto reopened = make_store(config(), &table_);
  const LoadResult again = reopened->load();
  EXPECT_EQ(again.payloads,
            (std::vector<std::string>{"kept", "after-repair"}));
  EXPECT_EQ(again.truncations, 0u);
}

TEST_F(DurableStoreTest, TornJournalAtEveryByteOffsetOfLastRecord) {
  {
    auto store = make_store(config(), &table_);
    (void)store->load();
    store->append("kept");
    store->append("torn");
  }
  const std::string full = util::read_file(dir_ / kJournalFileName);
  const std::size_t last_record_size = kRecordHeaderSize + 4;  // "torn"
  const std::size_t prefix = full.size() - last_record_size;
  for (std::size_t cut = prefix + 1; cut < full.size(); ++cut) {
    util::atomic_write_file(dir_ / kJournalFileName, full.substr(0, cut));
    auto store = make_store(config(), &table_);
    const LoadResult loaded = store->load();
    EXPECT_EQ(loaded.payloads, std::vector<std::string>{"kept"})
        << "cut=" << cut;
    EXPECT_EQ(loaded.truncations, 1u) << "cut=" << cut;
  }
}

TEST_F(DurableStoreTest, StaleTmpFilesAreIgnored) {
  // A crash between writing the snapshot temp file and renaming it
  // leaves a stale .tmp the next boot must overwrite.
  fs::create_directories(dir_);
  { util::File::create(dir_ / "snapshot.mdsp.tmp").write_all("garbage"); }
  table_ = {"T"};
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->flush();
  auto reopened = make_store(config(), &table_);
  EXPECT_EQ(reopened->load().payloads, std::vector<std::string>{"T"});
  EXPECT_FALSE(util::file_exists(dir_ / "snapshot.mdsp.tmp"));
}

TEST_F(DurableStoreTest, SizeTriggeredRotation) {
  StoreConfig c = config();
  c.journal_rotate_bytes = 64;  // a couple of appends
  table_ = {"S"};
  auto store = make_store(std::move(c), &table_);
  (void)store->load();
  store->start();
  for (int i = 0; i < 8; ++i) store->append("0123456789abcdef");
  EXPECT_TRUE(eventually([&] { return store->stats().flushes >= 1; }));
  store->stop();
  EXPECT_GE(store->stats().flushes, 1u);
}

TEST_F(DurableStoreTest, IntervalTriggeredFlush) {
  StoreConfig c = config();
  c.snapshot_interval_s = 0.02;
  std::atomic<int> flush_calls{0};
  c.on_flush = [&](double seconds) {
    EXPECT_GE(seconds, 0.0);
    flush_calls.fetch_add(1);
  };
  table_ = {"I"};
  auto store = make_store(std::move(c), &table_);
  (void)store->load();
  store->start();
  store->append("dirty");
  EXPECT_TRUE(eventually([&] { return flush_calls.load() >= 1; }));
  store->stop();
  auto reopened = make_store(config(), &table_);
  const LoadResult loaded = reopened->load();
  EXPECT_EQ(loaded.snapshot_records, 1u);
}

TEST_F(DurableStoreTest, FlushIfDirtySkipsWhenClean) {
  table_ = {"C"};
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->flush_if_dirty();  // fresh dir counts as dirty: writes snapshot
  const std::uint64_t flushes = store->stats().flushes;
  store->flush_if_dirty();  // nothing new
  EXPECT_EQ(store->stats().flushes, flushes);
  store->append("d");
  store->flush_if_dirty();
  EXPECT_EQ(store->stats().flushes, flushes + 1);
}

TEST_F(DurableStoreTest, ConcurrentAppendsSurviveFlushes) {
  StoreConfig c = config();
  c.journal_rotate_bytes = 512;  // a size-triggered flush every ~20 appends
  LockedTable table;
  DurableStore store(std::move(c), [&table] { return table.rows(); });
  (void)store.load();
  store.start();

  constexpr int kThreads = 3;
  constexpr int kPerThread = 300;
  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t)
    appenders.emplace_back([&store, &table, t] {
      for (int i = 0; i < kPerThread; ++i)
        table.insert_then_append(store, thread_payload(t, i));
    });
  // Explicit flushes race the flusher thread and the appends.
  std::thread flusher([&store] {
    for (int i = 0; i < 20; ++i) store.flush();
  });
  for (std::thread& appender : appenders) appender.join();
  flusher.join();
  store.stop();

  EXPECT_GE(store.stats().flushes, 20u);
  EXPECT_EQ(store.stats().appends, std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(store.stats().flush_errors, 0u);
  const std::vector<std::string> loaded = load_payloads(dir_);
  expect_superset(loaded, table.rows(), "after stop");
  EXPECT_EQ(std::set<std::string>(loaded.begin(), loaded.end()).size(),
            std::size_t{kThreads * kPerThread});
}

TEST_F(DurableStoreTest, EveryFlushLeavesTheAppendsThatReturned) {
  // One thread flushes and then copies the directory, as a crash right
  // after the flush would leave it, while others append. Each copy must
  // hold every append that returned before the copy began, including
  // those that landed while the flush ran.
  LockedTable table;
  DurableStore store(config(), [&table] { return table.rows(); });
  (void)store.load();

  constexpr int kThreads = 2;
  constexpr int kPerThread = 400;
  std::array<std::atomic<int>, kThreads> returned{};
  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t)
    appenders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        table.insert_then_append(store, thread_payload(t, i));
        returned[t].store(i + 1, std::memory_order_release);
      }
    });
  for (int round = 0; round < 10; ++round) {
    store.flush();
    std::array<int, kThreads> before{};
    for (int t = 0; t < kThreads; ++t)
      before[t] = returned[t].load(std::memory_order_acquire);
    const fs::path copy = crash_copy("after_flush");
    const std::vector<std::string> loaded = load_payloads(copy);
    fs::remove_all(copy);
    std::vector<std::string> expected;
    for (int t = 0; t < kThreads; ++t)
      for (int i = 0; i < before[t]; ++i)
        expected.push_back(thread_payload(t, i));
    expect_superset(loaded, expected, "round " + std::to_string(round));
  }
  for (std::thread& appender : appenders) appender.join();
}

TEST_F(DurableStoreTest, SnapshotSourceMayWaitOnAnAppendingThread) {
  LockedTable table;
  DurableStore store(config(), [&] {
    std::vector<std::string> rows = table.rows();
    std::thread appender(
        [&] { table.insert_then_append(store, "appended-by-source"); });
    appender.join();
    return rows;
  });
  (void)store.load();
  table.insert_then_append(store, "before");
  store.flush();  // the store lock is free while the source runs

  // "before" is in the snapshot; the source's own append was carried
  // into the fresh journal.
  const ReadResult snapshot = read_record_file(store.snapshot_path(),
                                               kSnapshotMagic);
  EXPECT_EQ(snapshot.payloads, std::vector<std::string>{"before"});
  const ReadResult journal = read_record_file(store.journal_path(),
                                              kJournalMagic);
  EXPECT_EQ(journal.payloads,
            std::vector<std::string>{"appended-by-source"});
  EXPECT_EQ(store.stats().journal_bytes, journal.valid_bytes);
}

TEST_F(DurableStoreTest, EveryCrashPointOfAFlushLoadsASuperset) {
  LockedTable table;
  std::vector<std::string> returned;  // appends that returned so far
  fs::path before_snapshot_rename;
  DurableStore* self = nullptr;
  DurableStore store(config(), [&] {
    // Export first, then let an append land mid-flush: it is missing
    // from this snapshot and must survive through the carried tail.
    std::vector<std::string> rows = table.rows();
    if (!before_snapshot_rename.empty()) return rows;  // the retry
    std::thread appender([&] {
      table.insert_then_append(*self, "mid-flush");
    });
    appender.join();
    returned.push_back("mid-flush");
    before_snapshot_rename = crash_copy("before_snapshot_rename");
    // A crash while the snapshot temp file is half written.
    util::File::create(before_snapshot_rename / "snapshot.mdsp.tmp")
        .write_all("torn");
    return rows;
  });
  self = &store;
  (void)store.load();
  for (const char* payload : {"a", "b", "c"}) {
    table.insert_then_append(store, payload);
    returned.emplace_back(payload);
  }

  // Block the journal replacement: the snapshot is renamed into place,
  // the journal is not -- exactly the disk a crash between the two
  // renames leaves.
  fs::create_directories(dir_ / "journal.mdjl.tmp");
  EXPECT_THROW(store.flush(), PersistError);
  expect_superset(load_payloads(before_snapshot_rename), returned,
                  "before the snapshot rename");
  const fs::path before_journal_rename = crash_copy("before_journal_rename");
  fs::remove_all(before_journal_rename / "journal.mdjl.tmp");
  util::File::create(before_journal_rename / "journal.mdjl.tmp")
      .write_all("torn");  // and the journal temp file half written
  expect_superset(load_payloads(before_journal_rename), returned,
                  "before the journal rename");
  EXPECT_EQ(read_record_file(before_journal_rename / kSnapshotFileName,
                             kSnapshotMagic)
                .payloads,
            (std::vector<std::string>{"a", "b", "c"}));

  // Unblocked, the next flush completes.
  fs::remove_all(dir_ / "journal.mdjl.tmp");
  store.flush();
  expect_superset(load_payloads(crash_copy("after_flush")), returned,
                  "after the flush");
  EXPECT_EQ(store.stats().flush_errors, 1u);
  EXPECT_EQ(store.stats().flushes, 1u);

  for (const char* suffix :
       {"before_snapshot_rename", "before_journal_rename", "after_flush"})
    fs::remove_all(dir_.string() + "_" + suffix);
}

TEST_F(DurableStoreTest, FailedSnapshotWriteKeepsTheOldJournal) {
  table_ = {"a", "b"};
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->append("a");
  store->append("b");
  fs::create_directories(dir_ / "snapshot.mdsp.tmp");  // blocks the write
  EXPECT_THROW(store->flush(), PersistError);
  EXPECT_EQ(store->stats().flush_errors, 1u);
  EXPECT_EQ(store->stats().flushes, 0u);

  store->append("after");
  EXPECT_EQ(store->stats().append_errors, 0u);
  store.reset();
  EXPECT_FALSE(util::file_exists(dir_ / kSnapshotFileName));
  EXPECT_EQ(load_payloads(dir_),
            (std::vector<std::string>{"a", "b", "after"}));
}

TEST_F(DurableStoreTest, FailedJournalReplacementKeepsTheOldJournal) {
  table_ = {"a", "b"};
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->append("a");
  store->append("b");
  fs::create_directories(dir_ / "journal.mdjl.tmp");  // blocks the rename
  EXPECT_THROW(store->flush(), PersistError);
  EXPECT_EQ(store->stats().flush_errors, 1u);

  store->append("after");
  EXPECT_EQ(store->stats().append_errors, 0u);
  store->flush_if_dirty();  // still dirty, still blocked: absorbed
  EXPECT_EQ(store->stats().flush_errors, 2u);
  store.reset();
  // The new snapshot, then the old journal, still open for "after".
  EXPECT_EQ(load_payloads(dir_),
            (std::vector<std::string>{"a", "b", "a", "b", "after"}));
}

TEST_F(DurableStoreTest, StopIsIdempotentAndRestartable) {
  auto store = make_store(config(), &table_);
  (void)store->load();
  store->start();
  store->stop();
  store->stop();
  store->start();
  store->stop();
}

}  // namespace
}  // namespace medcc::persist
