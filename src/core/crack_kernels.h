// Copyright 2026 The CrackStore Authors
//
// Crack kernels: the in-place partition primitives at the bottom of the
// Ξ (selection) cracker. They implement the "shuffle-exchange sort over all
// tuples to cluster them according to their tail value" of paper §3.4.2,
// restricted to one pivot (crack-in-two) or a pivot pair (crack-in-three).
//
// All kernels optionally permute a parallel oid array (the cracker map) in
// lockstep, and report the number of tuple writes they performed so the
// experiments can account cost in deterministic units, and the reduction of
// every part they wrote (PartReduction), which the cracker index keeps as
// its cut records.
//
// This header holds the scalar reference kernels plus the public dispatch
// wrappers (CrackInTwoLt / CrackInTwoLe / CrackInThree): for int32/int64/
// double the wrappers route through the runtime-selected SIMD tier in
// simd_dispatch.h, every other type falls back to the scalar reference.
// The vector tiers of crack-in-two are bit-identical to the scalar kernel
// (same split, same layout, same writes) — see simd_dispatch.h.

#ifndef CRACKSTORE_CORE_CRACK_KERNELS_H_
#define CRACKSTORE_CORE_CRACK_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/simd_dispatch.h"
#include "obs/instruments.h"
#include "storage/types.h"
#include "util/macros.h"

namespace crackstore {

namespace internal {

template <typename T>
inline void SwapWithPayload(T* data, Oid* oids, size_t i, size_t j) {
  std::swap(data[i], data[j]);
  if (oids != nullptr) std::swap(oids[i], oids[j]);
}

/// Folds `v` into `part` for integer T; double parts stay empty (see
/// PartReduction).
template <typename T>
inline void FoldPart(PartReduction* part, T v) {
  if constexpr (std::is_integral_v<T>) part->Add(static_cast<int64_t>(v));
}

/// Budgeted Hoare partition pass over the open frontier [*lo_io, *hi_io):
/// the progressive-cracking primitive. Elements left of *lo_io already
/// satisfy `goes_left`, elements at or right of *hi_io already don't; this
/// pass advances both frontiers inward, stopping once `max_writes` tuple
/// writes have been spent (the check precedes each swap, so the overshoot
/// is at most one swap = 2 writes). Scanning is not budgeted — only data
/// movement is, matching how the policy layer accounts reorganization
/// cost. The partition is complete when *lo_io == *hi_io on return.
/// Every element a frontier passes is folded into `left` or `right`, so
/// across passes they reduce [begin, *lo_io) and [*hi_io, end). Returns the
/// writes performed.
template <typename T, typename GoesLeft>
size_t PartialPartition2(T* data, Oid* oids, size_t* lo_io, size_t* hi_io,
                         GoesLeft goes_left, size_t max_writes,
                         PartReduction* left, PartReduction* right) {
  size_t lo = *lo_io;
  size_t hi = *hi_io;
  size_t writes = 0;
  while (true) {
    while (lo < hi && goes_left(data[lo])) FoldPart(left, data[lo++]);
    while (lo < hi && !goes_left(data[hi - 1])) FoldPart(right, data[--hi]);
    if (lo >= hi) break;
    if (writes >= max_writes) break;
    SwapWithPayload(data, oids, lo, hi - 1);
    writes += 2;
    FoldPart(left, data[lo++]);
    FoldPart(right, data[--hi]);
  }
  *lo_io = lo;
  *hi_io = hi;
  return writes;
}

/// Hoare-style partition: elements satisfying `goes_left` end up in
/// [0, split), the rest in [split, n).
template <typename T, typename GoesLeft>
CrackSplit Partition2(T* data, Oid* oids, size_t n, GoesLeft goes_left) {
  CrackSplit out;
  size_t lo = 0;
  size_t hi = n;
  out.writes = PartialPartition2(data, oids, &lo, &hi, goes_left,
                                 std::numeric_limits<size_t>::max(),
                                 &out.parts[0], &out.parts[1]);
  out.split = lo;
  return out;
}

/// True for the element types that have vectorized kernel tiers.
template <typename T>
inline constexpr bool kHasSimdKernels = std::is_same_v<T, int32_t> ||
                                        std::is_same_v<T, int64_t> ||
                                        std::is_same_v<T, double>;

}  // namespace internal

/// Scalar reference: partitions so that values `< pivot` come first.
template <typename T>
CrackSplit CrackInTwoLtScalar(T* data, Oid* oids, size_t n, T pivot) {
  return internal::Partition2(data, oids, n,
                              [pivot](T v) { return v < pivot; });
}

/// Scalar reference: partitions so that values `<= pivot` come first.
template <typename T>
CrackSplit CrackInTwoLeScalar(T* data, Oid* oids, size_t n, T pivot) {
  return internal::Partition2(data, oids, n,
                              [pivot](T v) { return v <= pivot; });
}

/// Scalar reference: three-way partition (Dutch-national-flag) into
///   [ below | middle | above ]
/// where `middle` holds values v with
///   (lo_incl ? v >= lo : v > lo)  &&  (hi_incl ? v <= hi : v < hi).
/// A NaN is neither below nor in the middle, so it lands above, as in the
/// vector tiers' two passes. Degenerate pivot pairs (empty middle) are
/// allowed.
template <typename T>
Crack3Split CrackInThreeScalar(T* data, Oid* oids, size_t n, T lo,
                               bool lo_incl, T hi, bool hi_incl) {
  Crack3Split out;
  auto below = [lo, lo_incl](T v) { return lo_incl ? v < lo : v <= lo; };
  auto above = [hi, hi_incl](T v) { return !(hi_incl ? v <= hi : v < hi); };
  size_t lt = 0;   // next write position for `below`
  size_t gt = n;   // one past next write position for `above`
  size_t i = 0;
  // Each element is folded into its part when first examined at i.
  while (i < gt) {
    const T v = data[i];
    if (below(v)) {
      internal::FoldPart(&out.parts[0], v);
      if (i != lt) {
        internal::SwapWithPayload(data, oids, i, lt);
        out.writes += 2;
      }
      ++lt;
      ++i;
    } else if (above(v)) {
      internal::FoldPart(&out.parts[2], v);
      --gt;
      internal::SwapWithPayload(data, oids, i, gt);
      out.writes += 2;
    } else {
      internal::FoldPart(&out.parts[1], v);
      ++i;
    }
  }
  out.first = lt;
  out.second = gt;
  return out;
}

/// Partitions so that values `< pivot` come first. Returns the index of the
/// first element `>= pivot`, and the part reductions (the outer extremes
/// only if `outer_extremes`; see simd_dispatch.h). Dispatches to the active
/// SIMD tier.
template <typename T>
CrackSplit CrackInTwoLt(T* data, Oid* oids, size_t n, T pivot,
                        bool outer_extremes = true) {
  if constexpr (internal::kHasSimdKernels<T>) {
    const SimdTier tier = ActiveSimdTier();
    obs::RecordSimdCall(static_cast<int>(tier));
    return CrackInTwoLtTier(data, oids, n, pivot, tier, outer_extremes);
  } else {
    (void)outer_extremes;  // the scalar fallback folds every extreme
    obs::RecordSimdCall(static_cast<int>(SimdTier::kScalar));
    return CrackInTwoLtScalar(data, oids, n, pivot);
  }
}

/// Partitions so that values `<= pivot` come first. Returns the index of the
/// first element `> pivot`, and the part reductions as CrackInTwoLt does.
/// Dispatches to the active SIMD tier.
template <typename T>
CrackSplit CrackInTwoLe(T* data, Oid* oids, size_t n, T pivot,
                        bool outer_extremes = true) {
  if constexpr (internal::kHasSimdKernels<T>) {
    const SimdTier tier = ActiveSimdTier();
    obs::RecordSimdCall(static_cast<int>(tier));
    return CrackInTwoLeTier(data, oids, n, pivot, tier, outer_extremes);
  } else {
    (void)outer_extremes;  // the scalar fallback folds every extreme
    obs::RecordSimdCall(static_cast<int>(SimdTier::kScalar));
    return CrackInTwoLeScalar(data, oids, n, pivot);
  }
}

/// Three-way partition into [ below | middle | above ]; see
/// CrackInThreeScalar for the predicate semantics. Part reductions as
/// CrackInTwoLt. Dispatches to the active SIMD tier.
template <typename T>
Crack3Split CrackInThree(T* data, Oid* oids, size_t n, T lo, bool lo_incl,
                         T hi, bool hi_incl, bool outer_extremes = true) {
  if constexpr (internal::kHasSimdKernels<T>) {
    const SimdTier tier = ActiveSimdTier();
    obs::RecordSimdCall(static_cast<int>(tier));
    return CrackInThreeTier(data, oids, n, lo, lo_incl, hi, hi_incl, tier,
                            outer_extremes);
  } else {
    (void)outer_extremes;  // the scalar fallback folds every extreme
    obs::RecordSimdCall(static_cast<int>(SimdTier::kScalar));
    return CrackInThreeScalar(data, oids, n, lo, lo_incl, hi, hi_incl);
  }
}

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_CRACK_KERNELS_H_
