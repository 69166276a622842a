// Copyright 2026 The CrackStore Authors
//
// Runtime SIMD dispatch for the crack/scan kernels. The partition kernels
// are the hot path of the whole store (paper §3.4.2: reorganization cost
// rides along with query execution), so they come in three tiers:
//
//   kScalar      — the branchy Hoare / Dutch-national-flag reference in
//                  crack_kernels.h;
//   kPredicated  — block-wise predicated: a branchless scalar loop fills a
//                  64-bit out-of-register predicate bitmap per block, the
//                  consumer walks set bits with ctz/clz — no data-dependent
//                  branches in the scan;
//   kAvx2/kNeon  — the same bitmap frontier, but the block predicate is
//                  computed with vector compares + movemask (8/4 lanes).
//
// The vector tiers are *bit-identical* to the scalar kernel: bitmaps are
// consumed in exact Hoare order (lowest misplaced-left index paired with
// highest misplaced-right index), so split positions, the permuted layout,
// the oid map and the `writes` accounting all match the scalar reference
// exactly — determinism the experiments and the parity fuzz both rely on.
//
// Tier selection is runtime: cpuid (`__builtin_cpu_supports`) on x86,
// compile-time on ARM, overridable per process with CRACKSTORE_SIMD=
// scalar|predicated|avx2|neon (clamped to what the hardware supports).
// Call sites use the dispatch wrappers in crack_kernels.h; tests force
// tiers explicitly through the *Tier entry points below.

#ifndef CRACKSTORE_CORE_SIMD_DISPATCH_H_
#define CRACKSTORE_CORE_SIMD_DISPATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "storage/types.h"

namespace crackstore {

/// The reduction of one part a crack kernel wrote: the wrapping sum, the
/// min and the max of its values, folded by the same pass that places them.
/// An empty part keeps the identities, so parts fold without a count.
/// Integer kernels fill it identically in every tier (the sum wraps, min and
/// max are order-free); double kernels leave it empty, since a double sum
/// depends on the order of addition.
struct PartReduction {
  int64_t sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void Add(int64_t v) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) +
                               static_cast<uint64_t>(v));
    min = std::min(min, v);
    max = std::max(max, v);
  }
  void Merge(const PartReduction& o) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) +
                               static_cast<uint64_t>(o.sum));
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  bool operator==(const PartReduction& o) const {
    return sum == o.sum && min == o.min && max == o.max;
  }
};

/// Outcome of a two-way crack.
struct CrackSplit {
  size_t split = 0;      ///< first index of the right-hand partition
  uint64_t writes = 0;   ///< tuple writes performed (2 per swap)
  /// [0, split) and [split, n); see "Part reductions" below.
  PartReduction parts[2];
};

/// Outcome of a three-way crack.
struct Crack3Split {
  size_t first = 0;      ///< first index of the middle partition
  size_t second = 0;     ///< first index of the upper partition
  uint64_t writes = 0;   ///< tuple writes performed
  /// [0, first), [first, second) and [second, n).
  PartReduction parts[3];
};

/// Kernel implementation tiers, ordered by ambition.
enum class SimdTier : uint8_t {
  kScalar = 0,
  kPredicated = 1,
  kAvx2 = 2,
  kNeon = 3,
};

/// Stable lowercase name ("scalar", "predicated", "avx2", "neon").
const char* SimdTierName(SimdTier tier);

/// Parses a CRACKSTORE_SIMD-style name. Returns false on unknown input.
bool ParseSimdTier(const std::string& name, SimdTier* out);

/// True when this binary can execute `tier` on this machine.
bool SimdTierSupported(SimdTier tier);

/// The best tier the hardware supports (never consults the environment).
SimdTier BestSupportedSimdTier();

/// The tier the dispatch wrappers use: BestSupportedSimdTier(), unless
/// CRACKSTORE_SIMD names a supported tier to force. Unsupported requests
/// clamp to the best supported tier. Cached after the first call.
SimdTier ActiveSimdTier();

// ---------------------------------------------------------------------------
// Tier-explicit kernels, instantiated for int32_t / int64_t / double.
// `tier` must be supported (SimdTierSupported); the dispatch wrappers in
// crack_kernels.h guarantee this, tests should check before forcing.
// ---------------------------------------------------------------------------

// Part reductions. Every crack kernel returns the PartReduction of each part
// it wrote, equal in every tier: the sum of every part, the max of every
// part but the last and the min of every part but the first. Those are what
// a cut's record needs (the max left of it, the min right of it). The
// *outer* extremes — the min of the first part, the max of the last — are
// the extremes of the whole piece, which the records at its two ends
// already hold; a crack folds them only when `outer_extremes` asks (the
// column's first pass), and leaves them at the identities otherwise. AVX2
// has no 64-bit min/max: each int64 extreme costs a compare per vector, as
// much as the partition's own predicate, so each one skipped matters.

/// Partitions so values `< pivot` come first; split = first index >= pivot.
template <typename T>
CrackSplit CrackInTwoLtTier(T* data, Oid* oids, size_t n, T pivot,
                            SimdTier tier, bool outer_extremes = true);

/// Partitions so values `<= pivot` come first; split = first index > pivot.
template <typename T>
CrackSplit CrackInTwoLeTier(T* data, Oid* oids, size_t n, T pivot,
                            SimdTier tier, bool outer_extremes = true);

/// Three-way partition into [ below | middle | above ]. The scalar tier is
/// the single-pass Dutch-national-flag reference; vector tiers run two
/// crack-in-two passes (by `lo`, then by `hi` over the tail), so their
/// split positions match the scalar tier exactly while `writes` and the
/// intra-partition layout are deterministic per tier (predicated and the
/// vector tiers agree bit-for-bit with each other).
template <typename T>
Crack3Split CrackInThreeTier(T* data, Oid* oids, size_t n, T lo, bool lo_incl,
                             T hi, bool hi_incl, SimdTier tier,
                             bool outer_extremes = true);

// ---------------------------------------------------------------------------
// Bitmap utilities. Producers zero the tail bits of the last word, so
// consumers may popcount whole words.
// ---------------------------------------------------------------------------

inline size_t BitmapWords(size_t n) { return (n + 63) / 64; }

inline bool BitmapTest(const uint64_t* bm, size_t i) {
  return (bm[i >> 6] >> (i & 63)) & 1;
}

inline void BitmapSet(uint64_t* bm, size_t i) {
  bm[i >> 6] |= uint64_t{1} << (i & 63);
}

inline void BitmapClearBit(uint64_t* bm, size_t i) {
  bm[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

/// Population count over a bitmap covering `n` bits.
size_t BitmapCount(const uint64_t* bm, size_t n);

/// Sets every bit below `n`, zeroes the tail of the last word.
void BitmapFill(uint64_t* bm, size_t n);

/// Vectorized range predicate: bit i of `bm` = data[i] inside the range
///   (lo_incl ? v >= lo : v > lo) && (hi_incl ? v <= hi : v < hi),
/// with `has_lo` / `has_hi` disabling a side. Instantiated for
/// int32_t / int64_t / double; `tier` defaults to the active tier.
template <typename T>
void RangeMatchMask(const T* data, size_t n, bool has_lo, T lo, bool lo_incl,
                    bool has_hi, T hi, bool hi_incl, uint64_t* bm,
                    SimdTier tier);

template <typename T>
inline void RangeMatchMask(const T* data, size_t n, bool has_lo, T lo,
                           bool lo_incl, bool has_hi, T hi, bool hi_incl,
                           uint64_t* bm) {
  RangeMatchMask(data, n, has_lo, lo, lo_incl, has_hi, hi, hi_incl, bm,
                 ActiveSimdTier());
}

// ---------------------------------------------------------------------------
// Horizontal span reductions — the aggregate-pushdown kernels. One pass over
// a contiguous span computes count/sum/min/max together, so a pushed-down
// SUM/MIN/MAX/COUNT never materializes an oid list.
//
// Bit-identity across tiers is by construction:
//   * integer sums accumulate wrapping uint64 (modular arithmetic is
//     order-free, so lane-parallel partial sums match the scalar loop);
//   * double sums use one canonical 8-stride pattern in every tier —
//     acc[i & 7] += v, then acc[0..7] reduced left to right — which is
//     exactly two 4-lane AVX2 accumulators, so the vector tier performs the
//     *same* additions in the same order per stride;
//   * min/max are order-free (NaN-free data; the snapshot scan kernels
//     share this contract).
// The masked variants substitute the identity (+0.0 / 0 for sums, skipped
// for min/max) at masked-off positions inside the same pattern.
// ---------------------------------------------------------------------------

/// All reductions of one span. `sum_i`/`min_i`/`max_i` are filled for
/// integer instantiations (sum_i wraps mod 2^64), `sum_d`/`min_d`/`max_d`
/// for double. min/max are meaningful only when `count > 0`.
struct SpanAggregates {
  uint64_t count = 0;
  int64_t sum_i = 0;
  double sum_d = 0.0;
  int64_t min_i = 0;
  int64_t max_i = 0;
  double min_d = 0.0;
  double max_d = 0.0;
};

/// Reduces data[0, n). Instantiated for int32_t / int64_t / double.
template <typename T>
SpanAggregates AggregateSpanTier(const T* data, size_t n, SimdTier tier);

/// Reduces the rows of data[0, n) whose bit is set in `bm` (the
/// visibility-mask shape VisibleMask/RangeMatchMask produce).
template <typename T>
SpanAggregates AggregateSpanMaskedTier(const T* data, size_t n,
                                       const uint64_t* bm, SimdTier tier);

template <typename T>
inline SpanAggregates AggregateSpan(const T* data, size_t n) {
  return AggregateSpanTier(data, n, ActiveSimdTier());
}

template <typename T>
inline SpanAggregates AggregateSpanMasked(const T* data, size_t n,
                                          const uint64_t* bm) {
  return AggregateSpanMaskedTier(data, n, bm, ActiveSimdTier());
}

extern template CrackSplit CrackInTwoLtTier<int32_t>(int32_t*, Oid*, size_t,
                                                     int32_t, SimdTier, bool);
extern template CrackSplit CrackInTwoLtTier<int64_t>(int64_t*, Oid*, size_t,
                                                     int64_t, SimdTier, bool);
extern template CrackSplit CrackInTwoLtTier<double>(double*, Oid*, size_t,
                                                    double, SimdTier, bool);
extern template CrackSplit CrackInTwoLeTier<int32_t>(int32_t*, Oid*, size_t,
                                                     int32_t, SimdTier, bool);
extern template CrackSplit CrackInTwoLeTier<int64_t>(int64_t*, Oid*, size_t,
                                                     int64_t, SimdTier, bool);
extern template CrackSplit CrackInTwoLeTier<double>(double*, Oid*, size_t,
                                                    double, SimdTier, bool);
extern template Crack3Split CrackInThreeTier<int32_t>(int32_t*, Oid*, size_t,
                                                      int32_t, bool, int32_t,
                                                      bool, SimdTier, bool);
extern template Crack3Split CrackInThreeTier<int64_t>(int64_t*, Oid*, size_t,
                                                      int64_t, bool, int64_t,
                                                      bool, SimdTier, bool);
extern template Crack3Split CrackInThreeTier<double>(double*, Oid*, size_t,
                                                     double, bool, double,
                                                     bool, SimdTier, bool);
extern template void RangeMatchMask<int32_t>(const int32_t*, size_t, bool,
                                             int32_t, bool, bool, int32_t,
                                             bool, uint64_t*, SimdTier);
extern template void RangeMatchMask<int64_t>(const int64_t*, size_t, bool,
                                             int64_t, bool, bool, int64_t,
                                             bool, uint64_t*, SimdTier);
extern template void RangeMatchMask<double>(const double*, size_t, bool,
                                            double, bool, bool, double, bool,
                                            uint64_t*, SimdTier);
extern template SpanAggregates AggregateSpanTier<int32_t>(const int32_t*,
                                                          size_t, SimdTier);
extern template SpanAggregates AggregateSpanTier<int64_t>(const int64_t*,
                                                          size_t, SimdTier);
extern template SpanAggregates AggregateSpanTier<double>(const double*, size_t,
                                                         SimdTier);
extern template SpanAggregates AggregateSpanMaskedTier<int32_t>(
    const int32_t*, size_t, const uint64_t*, SimdTier);
extern template SpanAggregates AggregateSpanMaskedTier<int64_t>(
    const int64_t*, size_t, const uint64_t*, SimdTier);
extern template SpanAggregates AggregateSpanMaskedTier<double>(
    const double*, size_t, const uint64_t*, SimdTier);

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_SIMD_DISPATCH_H_
