#include "service/wire_cache.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace medcc::service {

namespace {

std::int64_t steady_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WireCache::WireCache() : WireCache(Config()) {}

WireCache::WireCache(Config config)
    : ttl_s_(config.ttl_s),
      clock_(config.clock ? std::move(config.clock) : steady_seconds) {
  capacity_ = std::max<std::size_t>(1, config.capacity);
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::min(config.shards, capacity_));
  const std::size_t per_shard = (capacity_ + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i)
    shards_.push_back(std::make_unique<Shard>(per_shard));
}

std::shared_ptr<const std::string> WireCache::find(
    std::string_view request_body) {
  const std::size_t key_hash = Shard::hash(request_body);
  return shard_for(key_hash).find(
      request_body, key_hash,
      ttl_s_ > 0 ? clock_() - ttl_s_ : Shard::kNeverStale);
}

void WireCache::insert_owned(std::string request_body, std::string frame) {
  const std::size_t key_hash = Shard::hash(request_body);
  shard_for(key_hash).insert(
      std::move(request_body), key_hash,
      std::make_shared<const std::string>(std::move(frame)), clock_());
}

WireCache::Stats WireCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    const Stats one = shard->stats();
    total.hits += one.hits;
    total.misses += one.misses;
    total.insertions += one.insertions;
    total.evictions += one.evictions;
    total.expired += one.expired;
    total.size += one.size;
  }
  return total;
}

void WireCache::clear() {
  for (const auto& shard : shards_) shard->clear();
}

}  // namespace medcc::service
