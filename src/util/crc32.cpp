#include "util/crc32.hpp"

#include <array>
#include <cstddef>

namespace medcc::util {

namespace {

constexpr std::uint32_t kPolynomial = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8: kTables[0] is the classic one-byte table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kPolynomial : 0u);
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^
                     tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t left = bytes.size();
  std::uint32_t crc = ~seed;
  // Byte loads only, so the result is the same on any host byte order.
  for (; left >= 8; p += 8, left -= 8) {
    crc = kTables[7][(crc ^ p[0]) & 0xFFu] ^
          kTables[6][((crc >> 8) ^ p[1]) & 0xFFu] ^
          kTables[5][((crc >> 16) ^ p[2]) & 0xFFu] ^
          kTables[4][(crc >> 24) ^ p[3]] ^ kTables[3][p[4]] ^
          kTables[2][p[5]] ^ kTables[1][p[6]] ^ kTables[0][p[7]];
  }
  for (; left > 0; ++p, --left)
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

}  // namespace medcc::util
