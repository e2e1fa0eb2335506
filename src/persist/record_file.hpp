// CRC32-framed record files: the on-disk container shared by the
// snapshot and the journal of the persistence subsystem.
//
// File layout (all integers little-endian; full tables in
// docs/FORMATS.md):
//
//   offset  size  field
//   0       4     magic ("MDSP" snapshot, "MDJL" journal)
//   4       2     format version (currently 1)
//   6       2     reserved (0)
//   8       ...   records, back to back
//
// Each record:
//
//   0       4     payload length in bytes (bounded by max_record_bytes)
//   4       4     CRC-32 (IEEE 802.3) of the payload bytes
//   8       n     payload (opaque to this layer)
//
// Reading is torn-tail tolerant by design: a record whose length field
// runs past the end of the file, whose CRC does not match, or whose
// length exceeds the configured bound marks the end of the valid prefix
// -- everything before it is returned, everything from it on is
// ignored, and `truncated` reports that a tail was dropped. A file
// shorter than its own header reads as empty-and-truncated. This is
// what makes a journal whose last append was cut short by a crash (or
// SIGKILL) replayable without UB: replay stops at the first bad CRC.
//
// A *wrong* file -- good length, bad magic or unsupported version -- is
// distinguished from a torn one and throws PersistError instead, so a
// snapshot accidentally pointed at a journal path fails loudly.
//
// Headers and record payloads are encoded with the shared little-endian
// layer (util/bytes.hpp); RecordReader is its bounds-checked reader with
// every fault surfacing as PersistError.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace medcc::persist {

/// Malformed persisted bytes (or a filesystem-level persistence
/// failure); decoding never exhibits UB, it throws this.
class PersistError : public Error {
public:
  explicit PersistError(const std::string& what) : Error(what) {}
};

/// Byte-reader policy of the persistence formats: every fault throws
/// PersistError.
struct RecordFail {
  [[noreturn]] static void fail(util::ByteFault fault, const char* what);
};

/// Bounds-checked reader for record-file headers and record payloads.
using RecordReader = util::ByteReader<RecordFail>;

inline constexpr std::uint32_t kSnapshotMagic = 0x5053444Du;  // "MDSP"
inline constexpr std::uint32_t kJournalMagic = 0x4C4A444Du;   // "MDJL"
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kFileHeaderSize = 8;
inline constexpr std::size_t kRecordHeaderSize = 8;
/// Default ceiling on one record payload; corrupt length prefixes are
/// treated as a torn tail before any allocation happens.
inline constexpr std::size_t kDefaultMaxRecordBytes = 64u << 20;

/// Canonical file names inside a persistence directory.
inline constexpr const char* kSnapshotFileName = "snapshot.mdsp";
inline constexpr const char* kJournalFileName = "journal.mdjl";

/// The 8-byte file header for `magic`.
[[nodiscard]] std::string encode_file_header(std::uint32_t magic);

/// One framed record: length + CRC-32 + payload.
[[nodiscard]] std::string frame_record(std::string_view payload);

struct ReadResult {
  std::vector<std::string> payloads;
  /// A torn or corrupt tail (bad CRC, short record, short header) was
  /// dropped after `valid_bytes`.
  bool truncated = false;
  /// Length of the longest valid prefix (header + whole records); the
  /// journal is cut back to this before new appends go behind it.
  std::uint64_t valid_bytes = 0;
  /// False when the file does not exist (payloads empty, not truncated).
  bool exists = false;
};

/// Parses an in-memory record-file image. Throws PersistError only for
/// a wrong file (bad magic / unsupported version on an intact header);
/// every torn shape is tolerated and reported via `truncated`.
[[nodiscard]] ReadResult parse_record_file(
    std::string_view bytes, std::uint32_t magic,
    std::size_t max_record_bytes = kDefaultMaxRecordBytes);

/// Loads and parses `path`; a missing file is an empty result with
/// exists == false. Throws PersistError on IO failure or wrong magic.
[[nodiscard]] ReadResult read_record_file(
    const std::filesystem::path& path, std::uint32_t magic,
    std::size_t max_record_bytes = kDefaultMaxRecordBytes);

/// Serializes header + records into one buffer, sized up front (for
/// atomic_write_file): the header followed by each frame_record().
[[nodiscard]] std::string encode_record_file(
    std::uint32_t magic, const std::vector<std::string>& payloads);

/// Atomically replaces `path` with a record file holding `payloads`
/// (temp file + fsync + rename via util::atomic_write_file).
void write_record_file(const std::filesystem::path& path, std::uint32_t magic,
                       const std::vector<std::string>& payloads);

}  // namespace medcc::persist
