#include "common/serializer.h"

#include <array>
#include <cstddef>

namespace scuba {

namespace {

constexpr uint32_t kCrcPolynomial = 0xEDB88320u;  // IEEE 802.3, reflected
constexpr size_t kCrcSlices = 16;

using CrcTables = std::array<std::array<uint32_t, 256>, kCrcSlices>;

/// Slicing-by-16 tables. kCrcTables[0] is the classic bytewise table;
/// kCrcTables[k][b] is the CRC register after byte b followed by k zero
/// bytes, so one lookup per byte of a 16-byte block advances the register
/// past the whole block. Built at compile time: no run-time initialisation.
constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? kCrcPolynomial ^ (c >> 1) : c >> 1;
    }
    t[0][b] = c;
  }
  for (size_t k = 1; k < kCrcSlices; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  // Byte j of a block is followed by 15 - j more bytes in it, hence table
  // 15 - j. Only the first four bytes overlap the running register.
  for (; n >= kCrcSlices; p += kCrcSlices, n -= kCrcSlices) {
    crc = kCrcTables[15][(p[0] ^ crc) & 0xFFu] ^
          kCrcTables[14][(p[1] ^ (crc >> 8)) & 0xFFu] ^
          kCrcTables[13][(p[2] ^ (crc >> 16)) & 0xFFu] ^
          kCrcTables[12][p[3] ^ (crc >> 24)] ^
          kCrcTables[11][p[4]] ^ kCrcTables[10][p[5]] ^
          kCrcTables[9][p[6]] ^ kCrcTables[8][p[7]] ^
          kCrcTables[7][p[8]] ^ kCrcTables[6][p[9]] ^
          kCrcTables[5][p[10]] ^ kCrcTables[4][p[11]] ^
          kCrcTables[3][p[12]] ^ kCrcTables[2][p[13]] ^
          kCrcTables[1][p[14]] ^ kCrcTables[0][p[15]];
  }
  for (; n > 0; ++p, --n) {
    crc = kCrcTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char ch : data) {
    hash ^= static_cast<uint8_t>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace scuba
