// Copyright 2026 The CrackStore Authors

#include "util/crc32.h"

#include <array>
#include <cstring>

namespace crackstore {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

/// Slice-by-8 tables: kTables[0] is the classic byte table; kTables[k][b] is
/// the CRC contribution of byte b followed by k zero bytes, so eight bytes
/// fold into the running CRC with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const Tables kTables = BuildTables();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~seed;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The word path reads the first input byte into the low byte of the word,
  // which is where the reflected CRC keeps its next byte; big-endian hosts
  // take the byte loop below for everything.
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    const uint32_t lo = static_cast<uint32_t>(word) ^ crc;
    const uint32_t hi = static_cast<uint32_t>(word >> 32);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
#endif
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace crackstore
