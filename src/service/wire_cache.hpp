// Encoded-frame memo for the network fast path.
//
// The result cache (service/cache.hpp) memoizes *results*; every exact
// hit still pays request decode, a queue hop, fingerprinting, and
// response re-encode before bytes reach the wire. The WireCache
// memoizes one level lower: it maps the exact bytes of a solve_request
// frame body to the fully encoded solve_response frame, so a verbatim
// duplicate request can be answered by copying cached bytes straight
// into a connection outbuf and patching the request id in the frame
// header -- no decode, no solver, no re-encode.
//
// Entries store a *template* frame: request id 0 and the per-request
// timing fields (queue_delay_ms, solve_ms) zeroed, with the cache
// outcome pinned to hit_exact. Everything else in a response is a pure
// function of the request bytes (solvers are deterministic), so no
// invalidation is needed: the memoized fields are exactly the
// hit-count-independent ones. The frame is held behind a
// shared_ptr<const std::string> so find() hands bytes out without
// copying under the shard lock.
//
// Keys are opaque bytes -- the cache never parses them -- which keeps
// this layer free of any codec dependency. Sharded like ResultCache:
// one ByteLru (service/byte_lru.hpp) per shard, picked by the same
// hash the shard then looks the key up with. Safe from any thread.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/byte_lru.hpp"
#include "util/mutex.hpp"

namespace medcc::service {

class WireCache {
 public:
  struct Config {
    /// Entries across all shards; per-shard LRU eviction.
    std::size_t capacity = 1024;
    std::size_t shards = 8;
    /// Seconds a memoized frame may be served after insertion; 0
    /// disables expiry. Mirrors ResultCache so a TTL-configured service
    /// cannot serve fast-path bytes for an entry the result cache
    /// already dropped.
    std::int64_t ttl_s = 0;
    /// Injectable seconds source (tests); defaults to the steady clock.
    std::function<std::int64_t()> clock{};
  };

  using Stats = ByteLruStats;

  WireCache();
  explicit WireCache(Config config);

  /// Looks up the encoded template frame for the exact request-body
  /// bytes. Refreshes LRU order on hit; nullptr on miss. Equality is
  /// on the full byte string, so hash collisions cannot alias.
  [[nodiscard]] std::shared_ptr<const std::string> find(
      std::string_view request_body);

  /// Memoizes `frame` (an encoded template response, request id 0)
  /// under the request-body bytes, replacing any previous entry and
  /// evicting the shard's LRU tail when full.
  void insert(std::string_view request_body, std::string frame) {
    insert_owned(std::string(request_body), std::move(frame));
  }
  /// Same, taking ownership of an rvalue key instead of copying it.
  template <typename Key>
    requires std::same_as<Key, std::string>
  void insert(Key&& request_body, std::string frame) {
    insert_owned(std::move(request_body), std::move(frame));
  }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  using Shard = ByteLru<std::shared_ptr<const std::string>>;

  void insert_owned(std::string request_body, std::string frame);
  [[nodiscard]] Shard& shard_for(std::size_t key_hash) {
    return *shards_[key_hash % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::int64_t ttl_s_ = 0;
  std::function<std::int64_t()> clock_;
  /// Sized in the constructor, then structurally immutable (each shard
  /// locks itself).
  MEDCC_NOT_GUARDED std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace medcc::service
