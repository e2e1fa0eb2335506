#include "persist/record_file.hpp"

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace medcc::persist {

void RecordFail::fail(util::ByteFault /*fault*/, const char* what) {
  throw PersistError(std::string("persist: ") + what);
}

namespace {

void put_file_header(util::ByteWriter& writer, std::uint32_t magic) {
  writer.u32(magic);
  writer.u16(kFormatVersion);
  writer.u16(0);  // reserved
}

void put_record(util::ByteWriter& writer, std::string_view payload) {
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.u32(util::crc32(payload));
  writer.raw(payload);
}

}  // namespace

std::string encode_file_header(std::uint32_t magic) {
  util::ByteWriter writer;
  put_file_header(writer, magic);
  return writer.take();
}

std::string frame_record(std::string_view payload) {
  util::ByteWriter writer;
  writer.reserve(kRecordHeaderSize + payload.size());
  put_record(writer, payload);
  return writer.take();
}

ReadResult parse_record_file(std::string_view bytes, std::uint32_t magic,
                             std::size_t max_record_bytes) {
  ReadResult result;
  result.exists = true;
  if (bytes.empty()) {
    // A crash between creating the file and writing its header leaves
    // zero bytes; nothing was ever appended, so nothing was lost.
    return result;
  }
  if (bytes.size() < kFileHeaderSize) {
    result.truncated = true;
    return result;
  }
  RecordReader header(bytes.substr(0, kFileHeaderSize));
  const std::uint32_t seen_magic = header.u32();
  const std::uint16_t version = header.u16();
  (void)header.u16();  // reserved
  if (seen_magic != magic)
    throw PersistError("persist: wrong file magic (not the expected "
                       "snapshot/journal kind)");
  if (version != kFormatVersion)
    throw PersistError("persist: unsupported format version " +
                       std::to_string(version));

  std::size_t pos = kFileHeaderSize;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderSize) {
      result.truncated = true;
      break;
    }
    RecordReader record_header(bytes.substr(pos, kRecordHeaderSize));
    const std::uint32_t length = record_header.u32();
    const std::uint32_t crc = record_header.u32();
    if (length > max_record_bytes ||
        length > bytes.size() - pos - kRecordHeaderSize) {
      result.truncated = true;
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kRecordHeaderSize, length);
    if (util::crc32(payload) != crc) {
      result.truncated = true;
      break;
    }
    result.payloads.emplace_back(payload);
    pos += kRecordHeaderSize + length;
    result.valid_bytes = pos;
  }
  return result;
}

ReadResult read_record_file(const std::filesystem::path& path,
                            std::uint32_t magic,
                            std::size_t max_record_bytes) {
  if (!util::file_exists(path)) return {};
  std::string bytes;
  try {
    bytes = util::read_file(path);
  } catch (const IoError& e) {
    throw PersistError(std::string("persist: ") + e.what());
  }
  return parse_record_file(bytes, magic, max_record_bytes);
}

std::string encode_record_file(std::uint32_t magic,
                               const std::vector<std::string>& payloads) {
  std::size_t size = kFileHeaderSize;
  for (const std::string& payload : payloads)
    size += kRecordHeaderSize + payload.size();
  util::ByteWriter writer;
  writer.reserve(size);
  put_file_header(writer, magic);
  for (const std::string& payload : payloads) put_record(writer, payload);
  return writer.take();
}

void write_record_file(const std::filesystem::path& path, std::uint32_t magic,
                       const std::vector<std::string>& payloads) {
  try {
    util::atomic_write_file(path, encode_record_file(magic, payloads));
  } catch (const IoError& e) {
    throw PersistError(std::string("persist: ") + e.what());
  }
}

}  // namespace medcc::persist
