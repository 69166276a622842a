// Copyright 2026 The CrackStore Authors
//
// Out-of-place radix partitioning: the one-pass build of a large cracker
// column. A plain build copies the tail and leaves the first query to crack
// all n rows; this pass instead scatters every value, with its oid, straight
// into one of 2^k equal-width value ranges, so the first queries crack
// pieces of about n/2^k rows. Schuhknecht, Jindal & Dittrich ("The Uncracked
// Pieces in Database Cracking", PVLDB 2013) measure the first query's cost
// against exactly this radix pass.
//
// The pass reads the source three times:
//   1. min/max (AggregateSpan);
//   2. a histogram over the ranges that also reduces each range's
//      (sum, min, max), so the index gets its edges' cut records for free;
//   3. a stable scatter through software write-combining buffers: per range
//      one cache line of the values array and one of the oids array,
//      flushed whole with streaming stores once complete, so the scatter
//      never reads the destination lines it is about to overwrite. Lines
//      follow each array's own address, so full flushes cover whole cache
//      lines whatever the arrays' alignment. Plain-store flushes serve
//      targets without SSE2 (and callers that ask for them).
//
// Ranges live in unsigned offset space: range p holds the values v with
// (uint64(v) - uint64(min)) >> shift == p. All edge arithmetic stays in
// uint64, so domains reaching INT64_MIN or INT64_MAX cannot wrap.

#ifndef CRACKSTORE_CORE_RADIX_PARTITION_H_
#define CRACKSTORE_CORE_RADIX_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace crackstore {

/// The most radix bits a partition pass takes (2^10 value ranges).
inline constexpr int kMaxPartitionBits = 10;

/// One value range of a radix partition: its slots and their reduction.
struct RadixRange {
  size_t begin = 0;  ///< first slot of the range in the output
  size_t count = 0;
  int64_t sum = 0;   ///< wrapping, like AggregateSpan's integer sum
  int64_t min = 0;   ///< meaningful when count > 0
  int64_t max = 0;
};

/// The layout a partition pass produced.
template <typename T>
struct RadixLayout {
  T min{};             ///< the column minimum
  unsigned shift = 0;  ///< log2 of a range's value width
  /// One entry per range that can hold a value: ((max - min) >> shift) + 1
  /// of them, at most 2^bits. Range 0 always holds min, the last one max;
  /// ranges in between may be empty.
  std::vector<RadixRange> ranges;

  /// The smallest value range p can hold, min + (p << shift): everything
  /// in ranges [0, p) is below it. Only valid for p < ranges.size().
  T Edge(size_t p) const {
    return static_cast<T>(static_cast<int64_t>(
        static_cast<uint64_t>(static_cast<int64_t>(min)) +
        (static_cast<uint64_t>(p) << shift)));
  }
};

/// Partitions src[0, n), whose oids are base, base + 1, ..., into at most
/// 2^bits value ranges (bits in [0, kMaxPartitionBits]). Writes the values
/// to `values` and their oids to `oids` (n slots each, disjoint from src)
/// in range order, keeping source order inside every range. `streaming`
/// asks for streaming-store flushes; they are used only where the target
/// has SSE2. T in {int32_t, int64_t}.
template <typename T>
RadixLayout<T> RadixPartition(const T* src, size_t n, Oid base, int bits,
                              T* values, Oid* oids, bool streaming);

extern template RadixLayout<int32_t> RadixPartition<int32_t>(
    const int32_t*, size_t, Oid, int, int32_t*, Oid*, bool);
extern template RadixLayout<int64_t> RadixPartition<int64_t>(
    const int64_t*, size_t, Oid, int, int64_t*, Oid*, bool);

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_RADIX_PARTITION_H_
