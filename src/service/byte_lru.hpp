// A bounded LRU map keyed by exact byte strings.
//
// The one byte-keyed memo behind both front-end tables: the WireCache
// (request body -> encoded response frame, one ByteLru per shard) and
// the InstanceTable (instance-section bytes -> decoded instance). Keys
// are opaque bytes compared in full, so a hash collision can never
// alias two keys. Each key is hashed once per call -- callers that pick
// a shard from the hash pass it in -- and the hash is stored with the
// entry, so neither lookups nor evictions rehash a stored body.
//
// Values are nullable handles (shared_ptr): find() returns a copy, so a
// value handed out survives its entry's eviction. Internally locked;
// safe from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/mutex.hpp"

namespace medcc::service {

struct ByteLruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  std::size_t size = 0;
};

template <typename Value>
class ByteLru {
 public:
  /// Stamp threshold that expires nothing.
  static constexpr std::int64_t kNeverStale =
      std::numeric_limits<std::int64_t>::min();

  explicit ByteLru(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] static std::size_t hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  /// The value stored under `key` (whose hash() is `key_hash`), or an
  /// empty Value on a miss. Refreshes LRU order on a hit. An entry
  /// stamped at or before `stale_at` is dropped and counted expired.
  [[nodiscard]] Value find(std::string_view key, std::size_t key_hash,
                           std::int64_t stale_at = kNeverStale) {
    const util::MutexLock lock(mutex_);
    const auto it = index_.find(Key{key, key_hash});
    if (it == index_.end()) {
      ++stats_.misses;
      return Value{};
    }
    if (it->second->stamp <= stale_at) {
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.expired;
      ++stats_.misses;
      return Value{};
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Stores `value` under `key`, replacing any previous entry and
  /// evicting the least recently used one when full.
  void insert(std::string key, std::size_t key_hash, Value value,
              std::int64_t stamp = 0) {
    const util::MutexLock lock(mutex_);
    const auto it = index_.find(Key{key, key_hash});
    if (it != index_.end()) {
      it->second->value = std::move(value);
      it->second->stamp = stamp;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{std::move(key), key_hash, std::move(value), stamp});
    index_.emplace(Key{lru_.front().key, key_hash}, lru_.begin());
    ++stats_.insertions;
    if (lru_.size() > capacity_) {
      const Entry& tail = lru_.back();
      index_.erase(Key{tail.key, tail.hash});
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  [[nodiscard]] ByteLruStats stats() const {
    const util::MutexLock lock(mutex_);
    ByteLruStats out = stats_;
    out.size = lru_.size();
    return out;
  }

  void clear() {
    const util::MutexLock lock(mutex_);
    index_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::string key;
    std::size_t hash = 0;
    Value value;
    std::int64_t stamp = 0;
  };
  /// Index key: a view of Entry::key (stable, list nodes never move)
  /// plus its precomputed hash.
  struct Key {
    std::string_view bytes;
    std::size_t hash = 0;
    [[nodiscard]] bool operator==(const Key& other) const {
      return hash == other.hash && bytes == other.bytes;
    }
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const {
      return key.hash;
    }
  };

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_ MEDCC_GUARDED_BY(mutex_);
  std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash>
      index_ MEDCC_GUARDED_BY(mutex_);
  ByteLruStats stats_ MEDCC_GUARDED_BY(mutex_);
};

}  // namespace medcc::service
