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
// this layer free of any codec dependency. Sharded like ResultCache, on
// the one LRU (service/lru.hpp): the body's hash picks the shard, and
// the same hash finds the key in it. A caller that looks a body up and
// later memoizes its response hashes it once and passes the hash to
// both calls. Safe from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "service/lru.hpp"

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

  using Stats = LruStats;

  WireCache() : WireCache(Config()) {}
  explicit WireCache(Config config)
      : shards_(config.capacity, config.shards, config.ttl_s,
                std::move(config.clock)) {}

  /// The hash find() and insert() take for `request_body`.
  [[nodiscard]] static std::size_t hash(std::string_view request_body) {
    return Shard::hash(request_body);
  }

  /// Looks up the encoded template frame for the exact request-body
  /// bytes, whose hash() is `body_hash`. Refreshes LRU order on hit;
  /// nullptr on miss. Equality is on the full byte string, so hash
  /// collisions cannot alias.
  [[nodiscard]] std::shared_ptr<const std::string> find(
      std::string_view request_body, std::size_t body_hash) {
    return shards_.shard(body_hash).find(request_body, body_hash,
                                         shards_.stale_at());
  }
  [[nodiscard]] std::shared_ptr<const std::string> find(
      std::string_view request_body) {
    return find(request_body, hash(request_body));
  }

  /// Memoizes `frame` (an encoded template response, request id 0)
  /// under the request-body bytes, whose hash() is `body_hash`,
  /// replacing any previous entry and evicting the shard's LRU tail
  /// when full.
  void insert(std::string request_body, std::size_t body_hash,
              std::string frame) {
    shards_.shard(body_hash).insert(
        std::move(request_body), body_hash,
        std::make_shared<const std::string>(std::move(frame)), shards_.now());
  }
  void insert(std::string_view request_body, std::string frame) {
    insert(std::string(request_body), hash(request_body), std::move(frame));
  }

  [[nodiscard]] Stats stats() const { return shards_.stats(); }
  [[nodiscard]] std::size_t capacity() const { return shards_.capacity(); }
  void clear() { shards_.clear(); }

 private:
  using Shard = Lru<std::string, std::shared_ptr<const std::string>>;

  ShardedLru<std::string, std::shared_ptr<const std::string>> shards_;
};

}  // namespace medcc::service
