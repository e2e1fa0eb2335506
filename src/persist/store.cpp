#include "persist/store.hpp"

#include <chrono>
#include <system_error>
#include <utility>

#include "util/error.hpp"

namespace medcc::persist {

namespace {

using Clock = std::chrono::steady_clock;

double to_seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

DurableStore::DurableStore(StoreConfig config, SnapshotSource source)
    : config_(std::move(config)), source_(std::move(source)) {
  MEDCC_EXPECTS(source_ != nullptr);
  MEDCC_EXPECTS(!config_.dir.empty());
}

DurableStore::~DurableStore() { stop(); }

LoadResult DurableStore::load() {
  const util::MutexLock lock(mutex_);
  MEDCC_EXPECTS(!loaded_);
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec)
    throw PersistError("persist: cannot create directory '" +
                       config_.dir.string() + "': " + ec.message());

  const ReadResult snapshot =
      read_record_file(snapshot_path(), kSnapshotMagic, config_.max_record_bytes);
  const ReadResult journal =
      read_record_file(journal_path(), kJournalMagic, config_.max_record_bytes);

  LoadResult result;
  result.snapshot_records = snapshot.payloads.size();
  result.journal_records = journal.payloads.size();
  result.truncations = (snapshot.truncated ? 1u : 0u) +
                       (journal.truncated ? 1u : 0u);
  result.payloads = snapshot.payloads;
  result.payloads.insert(result.payloads.end(), journal.payloads.begin(),
                         journal.payloads.end());

  try {
    if (!journal.exists || journal.valid_bytes < kFileHeaderSize) {
      // Missing, empty, or torn before the header: start a fresh journal.
      replace_journal_locked(encode_file_header(kJournalMagic));
    } else {
      journal_ = util::File::append(journal_path());
      if (journal.truncated) {
        // Cut the torn tail off so new appends land behind intact
        // records instead of hiding behind a bad CRC forever.
        journal_.truncate(journal.valid_bytes);
        journal_.sync();
      }
      journal_bytes_ = journal.valid_bytes;
    }
  } catch (const IoError& e) {
    throw PersistError(std::string("persist: ") + e.what());
  }

  // Anything recovered from the journal (or dropped from a torn tail)
  // deserves folding into a fresh snapshot at the next flush.
  dirty_ = !snapshot.exists || result.journal_records > 0 ||
           result.truncations > 0;
  loaded_ = true;
  return result;
}

void DurableStore::append(std::string_view payload) {
  // Framing (and its CRC) needs no lock.
  const std::string framed = frame_record(payload);
  bool request_flush = false;
  {
    const util::MutexLock lock(mutex_);
    MEDCC_EXPECTS(loaded_);
    try {
      journal_.write_all(framed);
      if (config_.fsync_appends) journal_.sync();
    } catch (const IoError&) {
      // Journaling degrades; the in-memory table stays authoritative.
      append_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // A flush is building a snapshot that may miss this record: it
    // also rides in the carried tail, the next journal.
    if (!carried_.empty()) carried_ += framed;
    journal_bytes_ += framed.size();
    dirty_ = true;
    appends_.fetch_add(1, std::memory_order_relaxed);
    if (config_.journal_rotate_bytes > 0 &&
        journal_bytes_ >= config_.journal_rotate_bytes && !flush_requested_) {
      flush_requested_ = true;
      request_flush = true;
    }
  }
  if (request_flush) wake_.notify_all();
}

void DurableStore::flush() {
  const util::MutexLock serial(flush_mutex_);
  flush_serialized(/*only_if_dirty=*/false);
}

void DurableStore::flush_if_dirty() {
  const util::MutexLock serial(flush_mutex_);
  try {
    flush_serialized(/*only_if_dirty=*/true);
  } catch (const PersistError&) {
    // Already counted by flush_serialized; shutdown must not throw.
  }
}

void DurableStore::flush_serialized(bool only_if_dirty) {
  const auto started = Clock::now();
  {
    // Start: appends from here on are carried into the next journal.
    const util::MutexLock lock(mutex_);
    MEDCC_EXPECTS(loaded_);
    if (only_if_dirty && !dirty_) return;
    carried_ = encode_file_header(kJournalMagic);
    dirty_ = false;
  }
  std::size_t records = 0;
  try {
    // Snapshot, without the store lock: every append that returned
    // before the start step updated the table first, so the source
    // sees it; later ones are carried.
    const std::vector<std::string> payloads = source_();
    records = payloads.size();
    write_record_file(snapshot_path(), kSnapshotMagic, payloads);
  } catch (...) {
    const util::MutexLock lock(mutex_);
    abandon_capture_locked();
    throw;
  }
  bool request_flush = false;
  double seconds = 0.0;
  {
    // End: the carried tail becomes the journal.
    const util::MutexLock lock(mutex_);
    try {
      replace_journal_locked(carried_);
    } catch (...) {
      abandon_capture_locked();
      throw;
    }
    carried_ = std::string();
    snapshot_records_ = records;
    flush_requested_ = config_.journal_rotate_bytes > 0 &&
                       journal_bytes_ >= config_.journal_rotate_bytes;
    request_flush = flush_requested_;
    seconds = to_seconds(Clock::now() - started);
    last_flush_seconds_ = seconds;
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  if (request_flush) wake_.notify_all();
  if (config_.on_flush != nullptr) config_.on_flush(seconds);
}

void DurableStore::abandon_capture_locked() {
  carried_ = std::string();
  dirty_ = true;  // the journal was not reset, so it still needs folding
  flush_errors_.fetch_add(1, std::memory_order_relaxed);
}

void DurableStore::replace_journal_locked(std::string_view image) {
  try {
    util::atomic_write_file(journal_path(), image);
    journal_ = util::File::append(journal_path());
  } catch (const IoError& e) {
    // Reopen whatever the path now holds: the old journal, which every
    // append kept reaching, or the new one if only the directory fsync
    // after the rename failed. Either is complete for the snapshot on
    // disk.
    try {
      journal_ = util::File::append(journal_path());
      journal_bytes_ = journal_.size();
    } catch (const IoError&) {
      // Keep the handle already open.
    }
    throw PersistError(std::string("persist: ") + e.what());
  }
  journal_bytes_ = image.size();
}

void DurableStore::start() {
  {
    const util::MutexLock lock(mutex_);
    MEDCC_EXPECTS(loaded_);
    stop_ = false;
  }
  MEDCC_EXPECTS(!flusher_.joinable());
  flusher_ = std::thread([this] { flusher_main(); });
}

void DurableStore::stop() {
  {
    const util::MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

void DurableStore::flusher_main() {
  const bool timed = config_.snapshot_interval_s > 0.0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(
          timed ? config_.snapshot_interval_s : 1.0));
  auto deadline = Clock::now() + interval;
  for (;;) {
    {
      util::MutexLock lock(mutex_);
      for (;;) {
        if (stop_) return;
        const auto now = Clock::now();
        const bool interval_due = timed && now >= deadline;
        if (interval_due) deadline = now + interval;
        if (flush_requested_ || (interval_due && dirty_)) break;
        // Explicit wait (not the predicate overload) so the
        // thread-safety analysis sees the guarded reads under the
        // capability.
        if (timed) {
          wake_.wait_until(lock.native(), deadline);
        } else {
          wake_.wait(lock.native());
        }
      }
    }
    // The flush itself runs without the store lock held here.
    try {
      const util::MutexLock serial(flush_mutex_);
      flush_serialized(/*only_if_dirty=*/false);
    } catch (const PersistError&) {
      // Counted; retry at the next trigger.
      const util::MutexLock lock(mutex_);
      flush_requested_ = false;
    }
  }
}

DurableStore::Stats DurableStore::stats() const {
  Stats stats;
  stats.appends = appends_.load(std::memory_order_relaxed);
  stats.append_errors = append_errors_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.flush_errors = flush_errors_.load(std::memory_order_relaxed);
  const util::MutexLock lock(mutex_);
  stats.snapshot_records = snapshot_records_;
  stats.journal_bytes = journal_bytes_;
  stats.last_flush_seconds = last_flush_seconds_;
  return stats;
}

}  // namespace medcc::persist
