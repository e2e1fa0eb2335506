// DurableStore: crash-safe snapshot + journal persistence for an
// in-memory table of opaque record payloads (the service's result cache
// is the one client today).
//
// On-disk state inside one directory:
//
//   snapshot.mdsp  -- full dump of the table, replaced atomically
//                     (temp file + fsync + rename, util::atomic_file)
//   journal.mdjl   -- append-only log of the payloads added since the
//                     snapshot, fsynced per append by default, and
//                     replaced atomically too when a flush resets it
//
// Warm start: load() reads both files (tolerating torn tails -- replay
// stops at the first bad CRC, see record_file.hpp), returns snapshot
// payloads followed by journal payloads (newer last, so the caller's
// upsert order is correct), and cuts the journal back to its valid
// prefix so new appends land behind intact records.
//
// Steady state: the caller appends one payload per table insertion,
// AFTER applying the insertion to its in-memory table. A background
// flusher thread (start()/stop()) snapshots the whole table when the
// snapshot interval elapses with new appends, or as soon as the journal
// exceeds its rotation threshold. A flush takes the store lock only
// twice, briefly, so appends keep flowing while the snapshot is built:
//
//   1. start (locked)   -- appends from here on also copy their record
//                          into a carried tail;
//   2. snapshot (not locked) -- the source exports the table, and the
//                          image is framed, checksummed and atomically
//                          written over snapshot.mdsp;
//   3. end (locked)     -- journal.mdjl is atomically replaced by the
//                          header plus the carried tail and reopened for
//                          appends.
//
// Every append that returned before step 1 had already updated the
// table, so the export in step 2 sees it; every later one is in the
// carried tail. Until step 3 every append also lands in the old journal.
// Replay after any crash point is therefore a superset of the
// insertions whose append returned:
//
//   before the snapshot rename   old snapshot + old journal
//   before the journal rename    new snapshot + old journal (entries
//                                already in the snapshot replay again,
//                                which upserts absorb)
//   after it                     new snapshot + carried tail
//
// each read up to its first torn record. A failed snapshot write or
// journal replacement leaves the old journal open, and complete.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "persist/record_file.hpp"
#include "util/atomic_file.hpp"
#include "util/mutex.hpp"

namespace medcc::persist {

struct StoreConfig {
  /// Directory holding snapshot + journal; created on load() if absent.
  std::filesystem::path dir;
  /// Seconds between background snapshots (when there is anything new
  /// to flush); <= 0 disables the timer, leaving only size-triggered
  /// rotation and explicit flush() calls.
  double snapshot_interval_s = 30.0;
  /// Journal size (bytes) that triggers an immediate snapshot +
  /// rotation; 0 disables size-triggered rotation.
  std::size_t journal_rotate_bytes = 4u << 20;
  /// fsync the journal after every append. On: an insertion whose
  /// append returned survives SIGKILL. Off: faster, but a crash can
  /// lose the appends since the last sync.
  bool fsync_appends = true;
  /// Ceiling on one record payload (decode guard).
  std::size_t max_record_bytes = kDefaultMaxRecordBytes;
  /// Called after every successful flush with its duration in seconds
  /// (from any thread; must be thread-safe and must not throw).
  std::function<void(double seconds)> on_flush;
};

/// What a warm start recovered. Payloads are ordered snapshot-first,
/// journal-last, so applying them in order leaves the newest version of
/// a twice-present key.
struct LoadResult {
  std::vector<std::string> payloads;
  std::uint64_t snapshot_records = 0;
  std::uint64_t journal_records = 0;
  /// Torn tails dropped during replay (0, 1, or 2: snapshot, journal).
  std::uint64_t truncations = 0;
};

class DurableStore {
public:
  /// Produces the full current payload set of the table being
  /// persisted. Called from the flushing thread WITHOUT the store lock,
  /// one flush at a time, while appends continue: it must see every
  /// insertion whose append() returned before the flush began (the
  /// insert-then-append order gives that). It may append, or wait on
  /// threads that do, but must not flush, flush_if_dirty or stop this
  /// store.
  using SnapshotSource = std::function<std::vector<std::string>()>;

  DurableStore(StoreConfig config, SnapshotSource source);
  ~DurableStore();  // stops the flusher; does NOT flush implicitly

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Reads snapshot + journal and prepares the journal for appends.
  /// Must be called exactly once, before append()/flush()/start().
  /// Throws PersistError on IO failure or a wrong-kind file; torn tails
  /// are tolerated and counted, never thrown.
  [[nodiscard]] LoadResult load();

  /// Journals one insertion (framed with CRC-32, fsynced per config).
  /// IO failures are absorbed and counted (append_errors) -- journaling
  /// degrades, the caller's in-memory table keeps working.
  void append(std::string_view payload);

  /// Snapshots via the source and resets the journal to the records
  /// appended meanwhile. Synchronous, serialized with the flusher;
  /// throws PersistError on IO failure.
  void flush();
  /// flush(), but only when there is anything new, and absorbing IO
  /// failures (shutdown path).
  void flush_if_dirty();

  /// Starts / stops the background flusher thread. stop() is
  /// idempotent and implied by destruction.
  void start();
  void stop();

  struct Stats {
    std::uint64_t appends = 0;
    std::uint64_t append_errors = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flush_errors = 0;
    std::uint64_t snapshot_records = 0;  ///< records in the last flush
    std::uint64_t journal_bytes = 0;     ///< current journal size
    double last_flush_seconds = 0.0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::filesystem::path snapshot_path() const {
    return config_.dir / kSnapshotFileName;
  }
  [[nodiscard]] std::filesystem::path journal_path() const {
    return config_.dir / kJournalFileName;
  }

private:
  void flusher_main();
  /// The three steps of a flush; a no-op when `only_if_dirty` and
  /// nothing is new.
  void flush_serialized(bool only_if_dirty) MEDCC_REQUIRES(flush_mutex_);
  /// Atomically replaces the journal with `image` (a header plus whole
  /// records) and reopens it for appends.
  void replace_journal_locked(std::string_view image) MEDCC_REQUIRES(mutex_);
  /// A failed flush: stop carrying, stay dirty, count the error.
  void abandon_capture_locked() MEDCC_REQUIRES(mutex_);

  const StoreConfig config_;
  /// Set once in the constructor, then only called.
  MEDCC_NOT_GUARDED const SnapshotSource source_;

  /// Serializes flushes (flusher, flush(), flush_if_dirty()); taken
  /// before mutex_, never while holding it.
  util::Mutex flush_mutex_;

  mutable util::Mutex mutex_;
  util::File journal_ MEDCC_GUARDED_BY(mutex_);
  std::uint64_t journal_bytes_ MEDCC_GUARDED_BY(mutex_) = 0;
  /// Empty outside a flush. Between its start and end steps: the next
  /// journal's header, then every record appended since the start.
  std::string carried_ MEDCC_GUARDED_BY(mutex_);
  bool loaded_ MEDCC_GUARDED_BY(mutex_) = false;
  /// Insertions (or recovered journal records) not yet in the snapshot.
  bool dirty_ MEDCC_GUARDED_BY(mutex_) = false;
  bool flush_requested_ MEDCC_GUARDED_BY(mutex_) = false;
  bool stop_ MEDCC_GUARDED_BY(mutex_) = false;
  std::uint64_t snapshot_records_ MEDCC_GUARDED_BY(mutex_) = 0;
  double last_flush_seconds_ MEDCC_GUARDED_BY(mutex_) = 0.0;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> append_errors_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> flush_errors_{0};

  std::condition_variable wake_;
  /// Started by start(), joined by stop(); managed from the owner's
  /// control thread only.
  MEDCC_NOT_GUARDED std::thread flusher_;
};

}  // namespace medcc::persist
