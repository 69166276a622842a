// Copyright 2026 The CrackStore Authors
//
// CRC-32 (ISO 3309 / zlib polynomial, reflected 0xEDB88320), slice-by-8:
// eight table lookups fold eight bytes per step on little-endian hosts, with
// a byte loop for the tail (and for big-endian hosts). Used by the journal,
// checkpoints and the MANIFEST to checksum what they write — both as
// corruption detection and as the honest CPU cost of durable logging.

#ifndef CRACKSTORE_UTIL_CRC32_H_
#define CRACKSTORE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace crackstore {

/// Computes CRC-32 of `data`, continuing from `seed` (0 for a fresh
/// computation). Streaming-safe: crc(a+b) == Crc32(b, Crc32(a)).
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace crackstore

#endif  // CRACKSTORE_UTIL_CRC32_H_
