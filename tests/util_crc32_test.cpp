// util::crc32 known answers: the check value of the IEEE 802.3 CRC-32,
// chaining through the seed at every split point, and agreement with a
// bytewise reference on random buffers at every start alignment.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/prng.hpp"

namespace medcc::util {
namespace {

/// The textbook one-table, one-byte-per-step CRC-32 over the reflected
/// polynomial 0xEDB88320, kept here as the reference every faster
/// implementation must agree with byte for byte.
std::uint32_t reference_crc32(std::string_view bytes, std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c >> 1) ^ ((c & 1u) != 0 ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (const char c : bytes)
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  return ~crc;
}

std::string random_bytes(Prng& rng, std::size_t size) {
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc32, CheckValueAndEmptyInput) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("", 0x12345678u), 0x12345678u);
}

TEST(Crc32, ChainsThroughTheSeedAtEverySplit) {
  Prng rng(32);
  const std::string bytes = random_bytes(rng, 300);
  const std::uint32_t whole = crc32(bytes);
  const std::string_view view(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    EXPECT_EQ(crc32(view.substr(split), crc32(view.substr(0, split))), whole)
        << "split=" << split;
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryAlignment) {
  Prng rng(8);
  // Eight bytes of lead-in let each buffer start at every offset modulo
  // 8 from the allocation's (aligned) start.
  for (int round = 0; round < 64; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    const std::string storage = random_bytes(rng, size + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(storage.data() + offset, size);
      const auto seed = static_cast<std::uint32_t>(rng());
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
          << "size=" << size << " offset=" << offset;
      EXPECT_EQ(crc32(bytes, seed), reference_crc32(bytes, seed))
          << "size=" << size << " offset=" << offset;
    }
  }
  // Every short length, where a sliced loop hands over to its tail.
  const std::string storage = random_bytes(rng, 40);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t size = 0; size + offset <= 32; ++size) {
      const std::string_view bytes(storage.data() + offset, size);
      EXPECT_EQ(crc32(bytes), reference_crc32(bytes))
          << "size=" << size << " offset=" << offset;
    }
}

}  // namespace
}  // namespace medcc::util
