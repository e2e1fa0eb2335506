// Little-endian byte encoding: the one primitive layer under every
// binary format in medcc -- the wire protocol (net/codec.hpp), the
// CRC-framed record files (persist/record_file.hpp) and the cache-record
// payload they carry (service/persistence.hpp). Integers are
// little-endian regardless of host byte order, doubles travel as their
// IEEE-754 bit pattern (so every double round-trips bit-exactly), and
// strings carry a u32 length prefix.
//
// ByteReader is bounds-checked: every field goes through one length
// check, element counts can be tied to the bytes actually present
// (expect_fits) before anything is allocated, and every failure is
// reported through the reader's Fail policy instead of as UB. The policy
// keeps each boundary's own error type: the wire codec maps faults onto
// CodecError codes, the persistence layer throws PersistError.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.hpp"

namespace medcc::util {

/// Writes `v` as 8 little-endian bytes at `out`, patching a fixed-width
/// field of an already encoded buffer in place.
inline void store_le64(char* out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
}

/// Append-only little-endian encoder.
class ByteWriter {
public:
  /// str() requires its input to be at most `max_str` bytes long (the
  /// cap the matching decoder enforces); never more than a u32 prefix
  /// can describe.
  explicit ByteWriter(
      std::size_t max_str = std::numeric_limits<std::uint32_t>::max())
      : max_str_(std::min<std::size_t>(
            max_str, std::numeric_limits<std::uint32_t>::max())) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  /// IEEE-754 bits via the u64 path: round-trips every double bit-exactly.
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length prefix + raw bytes.
  void str(std::string_view s) {
    MEDCC_EXPECTS(s.size() <= max_str_);
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  /// Raw bytes, no prefix (a field whose length travels elsewhere).
  void raw(std::string_view s) { out_.append(s); }
  /// Sizes the buffer up front for an encoding of known length.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

private:
  template <typename T>
  void put(T v) {
    char le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i)
      le[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    out_.append(le, sizeof(T));
  }

  std::string out_;
  std::size_t max_str_;
};

/// Why a ByteReader refused its input.
enum class ByteFault : std::uint8_t {
  truncated,  ///< a field runs past the end of the buffer
  too_long,   ///< a length or element count exceeds its limit
  trailing,   ///< bytes left over after the message
};

/// Bounds-checked little-endian decoder over a borrowed buffer. `Fail`
/// provides `[[noreturn]] static void fail(ByteFault, const char* what)`,
/// which must throw; the reader never returns a value it did not read.
template <typename Fail>
class ByteReader {
public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(*take(1));
  }
  [[nodiscard]] std::uint16_t u16() { return get<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() {
    return std::bit_cast<double>(get<std::uint64_t>());
  }
  /// Reads a length-prefixed string of at most `max_len` bytes.
  [[nodiscard]] std::string str(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len)
      Fail::fail(ByteFault::too_long, "string length exceeds its limit");
    return std::string(view(len));
  }
  /// The next `n` bytes, uncopied (the view borrows the reader's buffer).
  [[nodiscard]] std::string_view view(std::size_t n) { return {take(n), n}; }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  /// Fails with ByteFault::trailing unless the buffer is exhausted.
  void expect_done() const {
    if (!done())
      Fail::fail(ByteFault::trailing, "trailing bytes after the message");
  }
  /// Fails with ByteFault::too_long when `count` elements of at least
  /// `min_bytes_each` cannot possibly fit in the remaining bytes -- the
  /// guard that keeps corrupt counts from driving huge allocations.
  void expect_fits(std::uint64_t count, std::size_t min_bytes_each) const {
    if (count > remaining() / std::max<std::size_t>(min_bytes_each, 1))
      Fail::fail(ByteFault::too_long,
                 "element count exceeds the bytes present");
  }

private:
  [[nodiscard]] const char* take(std::size_t n) {
    if (remaining() < n) Fail::fail(ByteFault::truncated, "truncated field");
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  template <typename T>
  [[nodiscard]] T get() {
    const char* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(
          v | static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i));
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace medcc::util
