// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
// persistent block store uses for manifest records and block payloads, and
// the trailer of cluster checkpoints.
//
// Slicing-by-8: eight independent table lookups per 8 input bytes instead
// of one dependent lookup per byte, about 4x the byte-at-a-time speed.  A
// checkpoint checksums every stored block, so the checksum's speed bounds
// save and load time.  Header-only so the store library stays
// dependency-free.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace ear {

namespace detail {

// tables[0] is the classic byte table; tables[s][b] advances tables[0][b]
// by s more zero bytes.
inline const std::array<std::array<uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (size_t s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

inline uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace detail

// Incremental form: pass the previous return value as `seed` to continue a
// running checksum; the default starts a fresh one.
inline uint32_t crc32(std::span<const uint8_t> data, uint32_t seed = 0) {
  const auto& t = detail::crc32_tables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ detail::load_le32(p);
    const uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline uint32_t crc32(const void* data, size_t len, uint32_t seed = 0) {
  return crc32({static_cast<const uint8_t*>(data), len}, seed);
}

}  // namespace ear
