#include "service/cache.hpp"

#include <algorithm>

namespace medcc::service {

ResultCache::ResultCache(const Config& config)
    : on_expired_(config.on_expired),
      shards_(config.capacity, config.shards, config.ttl_s, config.clock) {
  MEDCC_EXPECTS(config.capacity > 0);
  MEDCC_EXPECTS(config.shards > 0);
  MEDCC_EXPECTS(config.ttl_s >= 0);
}

std::optional<CacheHit> ResultCache::find(const FingerprintDetail& fp) {
  const Fingerprint& key = fp.canonical;
  std::optional<CacheHit> hit;
  const LruLookup lookup = shards_.shard(key.hi).find(
      key, FingerprintHash{}(key), shards_.stale_at(),
      [&hit, &fp](CacheEntry& entry) {
        ++entry.hits;
        hit.emplace();
        hit->exact = entry.exact == fp.exact;
        hit->result = entry.result;
        hit->assignment = entry.assignment;
        hit->remappable = entry.remappable;
      });
  if (lookup == LruLookup::expired) notify_expired(1);
  return hit;
}

CacheEntry ResultCache::make_entry(const FingerprintDetail& fp,
                                   const sched::Result& result) {
  CacheEntry entry;
  entry.key = fp.canonical;
  entry.exact = fp.exact;
  entry.solver = fp.solver;
  entry.result = result;
  entry.remappable = fp.modules_distinct && fp.types_distinct;
  if (entry.remappable) {
    entry.assignment.reserve(fp.module_hash.size());
    for (std::size_t i = 0; i < fp.module_hash.size(); ++i) {
      MEDCC_EXPECTS(i < result.schedule.type_of.size());
      const std::size_t type = result.schedule.type_of[i];
      MEDCC_EXPECTS(type < fp.type_hash.size());
      entry.assignment.emplace_back(fp.module_hash[i], fp.type_hash[type]);
    }
    std::sort(entry.assignment.begin(), entry.assignment.end());
  }
  return entry;
}

void ResultCache::insert(const FingerprintDetail& fp,
                         const sched::Result& result) {
  upsert(make_entry(fp, result), /*count_insertion=*/true);
}

void ResultCache::insert(CacheEntry entry) {
  upsert(std::move(entry), /*count_insertion=*/true);
}

void ResultCache::restore(CacheEntry entry) {
  upsert(std::move(entry), /*count_insertion=*/false);
}

void ResultCache::upsert(CacheEntry entry, bool count_insertion) {
  entry.inserted_at = shards_.now();
  const Fingerprint key = entry.key;
  const std::int64_t stamp = entry.inserted_at;
  shards_.shard(key.hi).insert(key, FingerprintHash{}(key), std::move(entry),
                               stamp, count_insertion);
}

std::size_t ResultCache::sweep_expired() {
  const std::size_t dropped = shards_.erase_stale();
  notify_expired(dropped);
  return dropped;
}

std::vector<CacheEntry> ResultCache::export_entries() const {
  std::vector<CacheEntry> entries;
  shards_.for_each_oldest_first(
      [&entries](const CacheEntry& entry) { entries.push_back(entry); });
  return entries;
}

std::optional<sched::Schedule> remap_schedule(const CacheHit& hit,
                                              const FingerprintDetail& fp) {
  if (!hit.remappable || !fp.modules_distinct || !fp.types_distinct)
    return std::nullopt;
  if (hit.assignment.size() != fp.module_hash.size()) return std::nullopt;

  // type hash -> requesting catalog index
  std::vector<std::pair<std::uint64_t, std::size_t>> types;
  types.reserve(fp.type_hash.size());
  for (std::size_t j = 0; j < fp.type_hash.size(); ++j)
    types.emplace_back(fp.type_hash[j], j);
  std::sort(types.begin(), types.end());

  sched::Schedule schedule;
  schedule.type_of.resize(fp.module_hash.size(), 0);
  for (std::size_t i = 0; i < fp.module_hash.size(); ++i) {
    const auto label = fp.module_hash[i];
    const auto it = std::lower_bound(
        hit.assignment.begin(), hit.assignment.end(), label,
        [](const auto& pair, std::uint64_t l) { return pair.first < l; });
    if (it == hit.assignment.end() || it->first != label)
      return std::nullopt;
    const auto type_it = std::lower_bound(
        types.begin(), types.end(), it->second,
        [](const auto& pair, std::uint64_t t) { return pair.first < t; });
    if (type_it == types.end() || type_it->first != it->second)
      return std::nullopt;
    schedule.type_of[i] = type_it->second;
  }
  return schedule;
}

}  // namespace medcc::service
