// The persistence subsystem: CRC-framed record files (torn-tail
// tolerance at every byte offset, corruption detection at every flipped
// byte) and the DurableStore snapshot + journal lifecycle.
#include "persist/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
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

  fs::path dir_;
  std::vector<std::string> table_;
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
