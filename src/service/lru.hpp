// A bounded, TTL-aware LRU map, and the sharding in front of it.
//
// The one LRU behind the service's three memos: ResultCache
// (fingerprint -> cache entry) and WireCache (request-body bytes ->
// encoded response frame) are ShardedLrus; the InstanceTable
// (instance-section bytes -> decoded instance) is one Lru.
//
// A key is a byte string or a Fingerprint. Byte keys are compared in
// full, so a hash collision can never alias two keys. The caller hashes
// a key once and passes the hash in; the entry stores it, so neither
// lookups nor evictions rehash a stored key. Each entry is stamped with
// the cache-clock second of its last upsert, and a find or erase_stale()
// with threshold `stale_at` drops an entry stamped at or before it.
// Internally locked; safe from any thread.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

namespace medcc::service {

/// Counters of one Lru, or the sum over a ShardedLru's shards.
struct LruStats {
  std::uint64_t hits = 0;
  /// Lookups that found nothing, expired entries included.
  std::uint64_t misses = 0;
  /// New keys stored; upserts and restores are not counted.
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  std::size_t size = 0;
};

/// Stamp threshold that expires nothing.
inline constexpr std::int64_t kNeverStale =
    std::numeric_limits<std::int64_t>::min();

/// How a lookup ended.
enum class LruLookup { miss, hit, expired };

template <typename Key, typename Value>
class Lru {
 public:
  /// A view for byte-string keys, else the key itself.
  using KeyView = std::conditional_t<std::is_same_v<Key, std::string>,
                                     std::string_view, Key>;

  explicit Lru(std::size_t capacity) : capacity_(capacity) {}

  /// The hash byte-string keys are stored under.
  [[nodiscard]] static std::size_t hash(std::string_view bytes) {
    return std::hash<std::string_view>{}(bytes);
  }

  /// Looks `key` (whose hash is `key_hash`) up. On a hit, refreshes LRU
  /// order and runs `on_hit(Value&)` under the lock. An entry stamped at
  /// or before `stale_at` is dropped instead, and counted expired and
  /// missed.
  template <typename OnHit>
  LruLookup find(KeyView key, std::size_t key_hash, std::int64_t stale_at,
                 OnHit&& on_hit) {
    const util::MutexLock lock(mutex_);
    const auto it = index_.find(Slot{key, key_hash});
    if (it == index_.end()) {
      ++stats_.misses;
      return LruLookup::miss;
    }
    if (it->second->stamp <= stale_at) {
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.expired;
      ++stats_.misses;
      return LruLookup::expired;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    on_hit(it->second->value);
    return LruLookup::hit;
  }

  /// A copy of the value stored under `key`, or an empty Value.
  [[nodiscard]] Value find(KeyView key, std::size_t key_hash,
                           std::int64_t stale_at = kNeverStale) {
    Value out{};
    find(key, key_hash, stale_at, [&out](const Value& value) { out = value; });
    return out;
  }

  /// Stores `value` under `key`, stamped `stamp`, replacing any previous
  /// entry and evicting the least recently used one when full. A new key
  /// counts as an insertion unless `count_insertion` is false (a
  /// warm-start restore).
  void insert(Key key, std::size_t key_hash, Value value,
              std::int64_t stamp = 0, bool count_insertion = true) {
    const util::MutexLock lock(mutex_);
    const auto it = index_.find(Slot{KeyView(key), key_hash});
    if (it != index_.end()) {
      it->second->value = std::move(value);
      it->second->stamp = stamp;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{std::move(key), key_hash, std::move(value), stamp});
    index_.emplace(Slot{KeyView(lru_.front().key), key_hash}, lru_.begin());
    if (count_insertion) ++stats_.insertions;
    if (lru_.size() > capacity_) {
      const Entry& tail = lru_.back();
      index_.erase(Slot{KeyView(tail.key), tail.hash});
      lru_.pop_back();
      ++stats_.evictions;
    }
  }

  /// Drops every entry stamped at or before `stale_at`; returns how many.
  std::size_t erase_stale(std::int64_t stale_at) {
    const util::MutexLock lock(mutex_);
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->stamp > stale_at) {
        ++it;
        continue;
      }
      index_.erase(Slot{KeyView(it->key), it->hash});
      it = lru_.erase(it);
      ++dropped;
    }
    stats_.expired += dropped;
    return dropped;
  }

  /// Calls `visit(const Value&)` on every entry, least recently used
  /// first, so re-inserting them in order reproduces the LRU order.
  template <typename Visit>
  void for_each_oldest_first(Visit&& visit) const {
    const util::MutexLock lock(mutex_);
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) visit(it->value);
  }

  [[nodiscard]] LruStats stats() const {
    const util::MutexLock lock(mutex_);
    LruStats out = stats_;
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
    Key key;
    std::size_t hash = 0;
    Value value;
    std::int64_t stamp = 0;
  };
  /// Index key: a view of Entry::key (stable, list nodes never move)
  /// plus its precomputed hash.
  struct Slot {
    KeyView key;
    std::size_t hash = 0;
    [[nodiscard]] bool operator==(const Slot& other) const {
      return hash == other.hash && key == other.key;
    }
  };
  struct SlotHash {
    [[nodiscard]] std::size_t operator()(const Slot& slot) const {
      return slot.hash;
    }
  };

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_ MEDCC_GUARDED_BY(mutex_);
  std::unordered_map<Slot, typename std::list<Entry>::iterator, SlotHash>
      index_ MEDCC_GUARDED_BY(mutex_);
  LruStats stats_ MEDCC_GUARDED_BY(mutex_);
};

/// A capacity split over independently locked Lru shards, so concurrent
/// workers rarely contend, plus the clock and TTL every shard shares.
template <typename Key, typename Value>
class ShardedLru {
 public:
  using Shard = Lru<Key, Value>;

  /// `capacity` and `shards` are floored at 1, and the shard count is
  /// clamped to the capacity. A `ttl_s` of 0 disables expiry; an empty
  /// `clock` reads the steady clock in seconds.
  ShardedLru(std::size_t capacity, std::size_t shards, std::int64_t ttl_s,
             std::function<std::int64_t()> clock)
      : ttl_s_(ttl_s),
        clock_(clock ? std::move(clock) : steady_seconds) {
    capacity = std::max<std::size_t>(1, capacity);
    const std::size_t count = std::clamp<std::size_t>(shards, 1, capacity);
    shard_capacity_ = (capacity + count - 1) / count;
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      shards_.push_back(std::make_unique<Shard>(shard_capacity_));
  }

  /// The shard `selector` (a key hash, or a well-mixed word of the key)
  /// picks: shard `selector % shard_count()`.
  [[nodiscard]] Shard& shard(std::uint64_t selector) {
    return *shards_[selector % shards_.size()];
  }

  /// Cache-clock seconds: the stamp of an entry upserted now.
  [[nodiscard]] std::int64_t now() const { return clock_(); }

  /// The stamp at or before which an entry has outlived the TTL, as
  /// lookups made now see it.
  [[nodiscard]] std::int64_t stale_at() const {
    return ttl_s_ > 0 ? clock_() - ttl_s_ : kNeverStale;
  }

  /// Drops every entry that has outlived the TTL; returns how many.
  std::size_t erase_stale() {
    if (ttl_s_ <= 0) return 0;
    const std::int64_t threshold = stale_at();
    std::size_t dropped = 0;
    for (const auto& shard : shards_) dropped += shard->erase_stale(threshold);
    return dropped;
  }

  /// Lru::for_each_oldest_first over every shard in turn.
  template <typename Visit>
  void for_each_oldest_first(Visit&& visit) const {
    for (const auto& shard : shards_) shard->for_each_oldest_first(visit);
  }

  [[nodiscard]] LruStats stats() const {
    LruStats total;
    for (const auto& shard : shards_) {
      const LruStats one = shard->stats();
      total.hits += one.hits;
      total.misses += one.misses;
      total.insertions += one.insertions;
      total.evictions += one.evictions;
      total.expired += one.expired;
      total.size += one.size;
    }
    return total;
  }

  void clear() {
    for (const auto& shard : shards_) shard->clear();
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t capacity() const {
    return shard_capacity_ * shards_.size();
  }

 private:
  static std::int64_t steady_seconds() {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::int64_t ttl_s_ = 0;
  std::function<std::int64_t()> clock_;
  std::size_t shard_capacity_ = 0;
  /// Sized in the constructor, then structurally immutable (each shard
  /// locks itself).
  MEDCC_NOT_GUARDED std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace medcc::service
