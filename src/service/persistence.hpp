// Codec between ResultCache entries and the opaque record payloads the
// persistence subsystem (src/persist) snapshots and journals.
//
// The payload carries the FULL cache entry -- key, exact hash, solver
// id, the complete sched::Result including the CPM timing detail
// (doubles via their IEEE-754 bit pattern), the re-mapping assignment,
// and hit metadata -- so a warmed entry answers an exact hit
// byte-identically to the live solve that produced it, in-process and
// over the wire.
//
// Decoding reads through persist::RecordReader (util/bytes.hpp): element
// counts are validated against the remaining bytes before any
// allocation, strings are length-capped, and every malformed shape
// throws persist::PersistError. A payload whose version is newer than
// this build also throws, so warm start skips it (counted as a load
// error) instead of misreading it.
#pragma once

#include <string>
#include <string_view>

#include "service/cache.hpp"

namespace medcc::service {

/// Version of the cache-record payload this build writes.
inline constexpr std::uint16_t kCacheRecordVersion = 1;

/// Decode guards (far above anything the service accepts today).
inline constexpr std::size_t kMaxPersistedModules = 1u << 20;
inline constexpr std::size_t kMaxPersistedString = 1u << 16;

/// Serializes one cache entry into a self-contained record payload.
[[nodiscard]] std::string encode_cache_record(const CacheEntry& entry);

/// Parses a record payload. Throws persist::PersistError on any
/// malformed or future-versioned payload.
[[nodiscard]] CacheEntry decode_cache_record(std::string_view payload);

}  // namespace medcc::service
