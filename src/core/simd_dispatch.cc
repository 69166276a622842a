// Copyright 2026 The CrackStore Authors
//
// Kernel tier implementations. The central piece is CrackMasked: a Hoare
// partition whose scans run over 64-element predicate bitmaps ("out of
// register" offset buffers) instead of per-element branches. Bits are
// consumed in exact Hoare order — lowest misplaced index on the left
// frontier swapped with the highest misplaced index on the right frontier —
// so every tier performs the *same* swap sequence as the scalar reference:
// identical split, identical permuted layout, identical writes. The tiers
// differ only in how the 64-bit block predicate is computed (branchless
// scalar, AVX2 movemask, NEON lane packing) and in how a retired chunk is
// folded into its part's reduction (equal in every tier: wrapping sums,
// order-free min/max).

#include "core/simd_dispatch.h"

#include <cstdlib>
#include <limits>
#include <type_traits>

#include "core/crack_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define CRACKSTORE_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define CRACKSTORE_NEON_TIER 1
#include <arm_neon.h>
#endif

namespace crackstore {
namespace {

constexpr size_t kChunk = 64;  // elements per predicate bitmap

struct CmpLt {
  template <typename T>
  static bool Pred(T v, T pivot) { return v < pivot; }
};
struct CmpLe {
  template <typename T>
  static bool Pred(T v, T pivot) { return v <= pivot; }
};

// Branchless scalar block predicate: the compiler lowers Pred to setcc, so
// the fill has no data-dependent branches (the predicated tier's whole
// advantage over the scalar reference on branchy mispredicting inputs).
template <typename T, typename C>
uint64_t PredicatedMask64(const T* p, T pivot) {
  uint64_t m = 0;
  for (size_t k = 0; k < kChunk; ++k) {
    m |= uint64_t(C::Pred(p[k], pivot)) << k;
  }
  return m;
}

#if CRACKSTORE_X86

// AVX2 block predicates. Compare direction is chosen so no pivot adjustment
// is ever needed (cmpgt(pivot, v) for Lt avoids the pivot-1 underflow at
// INT_MIN; ~cmpgt(v, pivot) gives Le). Unaligned loads throughout: Cut()
// cracks at arbitrary piece offsets. For doubles the ordered compares
// (_CMP_LT_OQ/_CMP_LE_OQ) send NaN right, matching the scalar predicate.

__attribute__((target("avx2")))
uint64_t Avx2LtI32(const int32_t* p, int32_t pivot) {
  const __m256i pv = _mm256_set1_epi32(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 8; ++k) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8 * k));
    __m256i c = _mm256_cmpgt_epi32(pv, v);
    m |= uint64_t(uint32_t(_mm256_movemask_ps(_mm256_castsi256_ps(c))))
         << (8 * k);
  }
  return m;
}

__attribute__((target("avx2")))
uint64_t Avx2LeI32(const int32_t* p, int32_t pivot) {
  const __m256i pv = _mm256_set1_epi32(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 8; ++k) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8 * k));
    __m256i c = _mm256_cmpgt_epi32(v, pv);
    uint32_t gt = uint32_t(_mm256_movemask_ps(_mm256_castsi256_ps(c)));
    m |= uint64_t(~gt & 0xFFu) << (8 * k);
  }
  return m;
}

__attribute__((target("avx2")))
uint64_t Avx2LtI64(const int64_t* p, int64_t pivot) {
  const __m256i pv = _mm256_set1_epi64x(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * k));
    __m256i c = _mm256_cmpgt_epi64(pv, v);
    m |= uint64_t(uint32_t(_mm256_movemask_pd(_mm256_castsi256_pd(c))))
         << (4 * k);
  }
  return m;
}

__attribute__((target("avx2")))
uint64_t Avx2LeI64(const int64_t* p, int64_t pivot) {
  const __m256i pv = _mm256_set1_epi64x(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4 * k));
    __m256i c = _mm256_cmpgt_epi64(v, pv);
    uint32_t gt = uint32_t(_mm256_movemask_pd(_mm256_castsi256_pd(c)));
    m |= uint64_t(~gt & 0xFu) << (4 * k);
  }
  return m;
}

__attribute__((target("avx2")))
uint64_t Avx2LtF64(const double* p, double pivot) {
  const __m256d pv = _mm256_set1_pd(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    __m256d v = _mm256_loadu_pd(p + 4 * k);
    __m256d c = _mm256_cmp_pd(v, pv, _CMP_LT_OQ);
    m |= uint64_t(uint32_t(_mm256_movemask_pd(c))) << (4 * k);
  }
  return m;
}

__attribute__((target("avx2")))
uint64_t Avx2LeF64(const double* p, double pivot) {
  const __m256d pv = _mm256_set1_pd(pivot);
  uint64_t m = 0;
  for (int k = 0; k < 16; ++k) {
    __m256d v = _mm256_loadu_pd(p + 4 * k);
    __m256d c = _mm256_cmp_pd(v, pv, _CMP_LE_OQ);
    m |= uint64_t(uint32_t(_mm256_movemask_pd(c))) << (4 * k);
  }
  return m;
}

template <typename T, typename C>
uint64_t Avx2Mask64(const T* p, T pivot) {
  constexpr bool lt = std::is_same_v<C, CmpLt>;
  if constexpr (std::is_same_v<T, int32_t>) {
    return lt ? Avx2LtI32(p, pivot) : Avx2LeI32(p, pivot);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return lt ? Avx2LtI64(p, pivot) : Avx2LeI64(p, pivot);
  } else {
    static_assert(std::is_same_v<T, double>);
    return lt ? Avx2LtF64(p, pivot) : Avx2LeF64(p, pivot);
  }
}

#endif  // CRACKSTORE_X86

#if CRACKSTORE_NEON_TIER

// NEON block predicates (AArch64): per-lane compare masks folded to bits
// via a weighted horizontal add.

template <typename T, typename C>
uint64_t NeonMask64(const T* p, T pivot) {
  constexpr bool lt = std::is_same_v<C, CmpLt>;
  uint64_t m = 0;
  if constexpr (std::is_same_v<T, int32_t>) {
    const int32x4_t pv = vdupq_n_s32(pivot);
    const uint32x4_t lane_bits = {1u, 2u, 4u, 8u};
    for (int k = 0; k < 16; ++k) {
      int32x4_t v = vld1q_s32(p + 4 * k);
      uint32x4_t c = lt ? vcltq_s32(v, pv) : vcleq_s32(v, pv);
      m |= uint64_t(vaddvq_u32(vandq_u32(c, lane_bits))) << (4 * k);
    }
  } else if constexpr (std::is_same_v<T, int64_t>) {
    const int64x2_t pv = vdupq_n_s64(pivot);
    const uint64x2_t lane_bits = {1u, 2u};
    for (int k = 0; k < 32; ++k) {
      int64x2_t v = vld1q_s64(p + 2 * k);
      uint64x2_t c = lt ? vcltq_s64(v, pv) : vcleq_s64(v, pv);
      m |= uint64_t(vaddvq_u64(vandq_u64(c, lane_bits))) << (2 * k);
    }
  } else {
    static_assert(std::is_same_v<T, double>);
    const float64x2_t pv = vdupq_n_f64(pivot);
    const uint64x2_t lane_bits = {1u, 2u};
    for (int k = 0; k < 32; ++k) {
      float64x2_t v = vld1q_f64(p + 2 * k);
      uint64x2_t c = lt ? vcltq_f64(v, pv) : vcleq_f64(v, pv);
      m |= uint64_t(vaddvq_u64(vandq_u64(c, lane_bits))) << (2 * k);
    }
  }
  return m;
}

#endif  // CRACKSTORE_NEON_TIER

// --- part reductions of the bitmap-frontier cracks --------------------------
// CrackMasked folds a 64-element chunk into its part when the chunk retires:
// its slots then hold their final values and are still in L1. The scalar
// suffix folds the rest, so every element is folded exactly once, by the
// crack's own pass. A LaneAcc keeps per-lane running state between chunks
// in memory (the partition loop is not compiled for the vector target) and
// folds its lanes once, at the end.

template <typename T>
struct LaneAcc {
  static constexpr size_t kLanes = 32 / sizeof(T);
  alignas(32) uint64_t sum[4] = {0, 0, 0, 0};
  alignas(32) T min[kLanes];
  alignas(32) T max[kLanes];
  bool any = false;

  LaneAcc() {
    for (size_t l = 0; l < kLanes; ++l) {
      min[l] = std::numeric_limits<T>::max();
      max[l] = std::numeric_limits<T>::lowest();
    }
  }

  PartReduction Finish() const {
    PartReduction out;
    if constexpr (std::is_integral_v<T>) {
      if (!any) return out;
      out.sum = int64_t(sum[0] + sum[1] + sum[2] + sum[3]);
      for (size_t l = 0; l < kLanes; ++l) {
        out.min = std::min(out.min, int64_t(min[l]));
        out.max = std::max(out.max, int64_t(max[l]));
      }
    }
    return out;
  }
};

// Fold functions take which extremes to fold: a crack folds the max of the
// parts left of a cut and the min of the parts right of it, and the outer
// ones only on request (see simd_dispatch.h).

template <typename T, bool kMin, bool kMax>
void FoldChunkScalar(const T* p, LaneAcc<T>* acc) {
  uint64_t s = 0;
  T mn = p[0], mx = p[0];
  for (size_t k = 0; k < kChunk; ++k) {
    s += uint64_t(int64_t(p[k]));
    if constexpr (kMin) mn = std::min(mn, p[k]);
    if constexpr (kMax) mx = std::max(mx, p[k]);
  }
  acc->sum[0] += s;
  if constexpr (kMin) acc->min[0] = std::min(acc->min[0], mn);
  if constexpr (kMax) acc->max[0] = std::max(acc->max[0], mx);
  acc->any = true;
}

#if CRACKSTORE_X86

template <bool kMin, bool kMax>
__attribute__((target("avx2")))
void Avx2FoldChunkI32(const int32_t* p, LaneAcc<int32_t>* acc) {
  __m256i s = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->sum));
  __m256i mn = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->min));
  __m256i mx = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->max));
  for (size_t k = 0; k < kChunk; k += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + k));
    if constexpr (kMin) mn = _mm256_min_epi32(mn, v);
    if constexpr (kMax) mx = _mm256_max_epi32(mx, v);
    s = _mm256_add_epi64(
        s, _mm256_add_epi64(
               _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
               _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1))));
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc->sum), s);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc->min), mn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc->max), mx);
  acc->any = true;
}

// AVX2 has no 64-bit min/max: compare + blend, in two independent chains
// so consecutive vectors do not wait on each other's blend.
template <bool kMin, bool kMax>
__attribute__((target("avx2")))
void Avx2FoldChunkI64(const int64_t* p, LaneAcc<int64_t>* acc) {
  __m256i s0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->sum));
  __m256i mn0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->min));
  __m256i mx0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(acc->max));
  __m256i s1 = _mm256_setzero_si256(), mn1 = mn0, mx1 = mx0;
  for (size_t k = 0; k < kChunk; k += 8) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + k));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + k + 4));
    s0 = _mm256_add_epi64(s0, v0);
    s1 = _mm256_add_epi64(s1, v1);
    if constexpr (kMin) {
      mn0 = _mm256_blendv_epi8(mn0, v0, _mm256_cmpgt_epi64(mn0, v0));
      mn1 = _mm256_blendv_epi8(mn1, v1, _mm256_cmpgt_epi64(mn1, v1));
    }
    if constexpr (kMax) {
      mx0 = _mm256_blendv_epi8(mx0, v0, _mm256_cmpgt_epi64(v0, mx0));
      mx1 = _mm256_blendv_epi8(mx1, v1, _mm256_cmpgt_epi64(v1, mx1));
    }
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc->sum),
                     _mm256_add_epi64(s0, s1));
  if constexpr (kMin) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(acc->min),
        _mm256_blendv_epi8(mn0, mn1, _mm256_cmpgt_epi64(mn0, mn1)));
  }
  if constexpr (kMax) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(acc->max),
        _mm256_blendv_epi8(mx0, mx1, _mm256_cmpgt_epi64(mx1, mx0)));
  }
  acc->any = true;
}

template <typename T, bool kMin, bool kMax>
void Avx2FoldChunk(const T* p, LaneAcc<T>* acc) {
  if constexpr (std::is_same_v<T, int32_t>) {
    Avx2FoldChunkI32<kMin, kMax>(p, acc);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    Avx2FoldChunkI64<kMin, kMax>(p, acc);
  } else {
    FoldChunkScalar<T, kMin, kMax>(p, acc);  // unused: double parts stay empty
  }
}

#endif  // CRACKSTORE_X86

// Bitmap-frontier Hoare partition. Maintains one 64-element predicate
// bitmap per frontier (left bits = misplaced !pred, right bits = misplaced
// pred); pairs lowest-left with highest-right — the exact swap sequence of
// internal::Partition2 — and retires a chunk when its bitmap drains. The
// chunks are kept disjoint; once the region between the frontiers dips
// below one chunk the scalar reference finishes the suffix (Hoare is
// memoryless, so the suffix swaps are unchanged). A retired chunk is folded
// into its part with FoldLeft / FoldRight; without kRight the right part is
// left empty (crack-in-three's first pass, whose right part the second pass
// reduces). The suffix folds every extreme; CrackTwoTierAs drops the ones
// not asked for. The body is always inlined into its tier's entry point, so
// the AVX2 entry compiles it, mask and fold calls included, for its target.
template <typename T, uint64_t (*MaskFn)(const T*, T), typename C,
          void (*FoldLeft)(const T*, LaneAcc<T>*),
          void (*FoldRight)(const T*, LaneAcc<T>*), bool kRight>
inline __attribute__((always_inline)) CrackSplit CrackMaskedBody(
    T* data, Oid* oids, size_t n, T pivot) {
  constexpr bool kFoldLeft = std::is_integral_v<T>;
  constexpr bool kFoldRight = kFoldLeft && kRight;
  CrackSplit out;
  LaneAcc<T> left, right;
  size_t lo = 0, hi = n;         // [0, lo) pred, [hi, n) !pred — retired
  uint64_t lmis = 0, rmis = 0;   // frontier bitmaps (0 = needs refill)
  size_t lbase = 0, rbase = 0;   // absolute base index of each bitmap
  bool small = false;
  while (!small) {
    while (lmis == 0) {
      if (hi - lo < 2 * kChunk) { small = true; break; }
      lmis = ~MaskFn(data + lo, pivot);
      lbase = lo;
      if (lmis == 0) {
        if constexpr (kFoldLeft) FoldLeft(data + lo, &left);
        lo += kChunk;
      }
    }
    if (small) break;
    while (rmis == 0) {
      if (hi - (lbase + kChunk) < kChunk) { small = true; break; }
      rbase = hi - kChunk;
      rmis = MaskFn(data + rbase, pivot);
      if (rmis == 0) {
        if constexpr (kFoldRight) FoldRight(data + rbase, &right);
        hi = rbase;
      }
    }
    if (small) break;
    while (lmis != 0 && rmis != 0) {
      size_t i = lbase + size_t(__builtin_ctzll(lmis));
      size_t tb = 63 - size_t(__builtin_clzll(rmis));
      internal::SwapWithPayload(data, oids, i, rbase + tb);
      out.writes += 2;
      lmis &= lmis - 1;
      rmis ^= uint64_t{1} << tb;
    }
    if (lmis == 0) {  // chunk is now all-pred
      if constexpr (kFoldLeft) FoldLeft(data + lbase, &left);
      lo = lbase + kChunk;
    }
    if (rmis == 0) {  // chunk is now all-!pred
      if constexpr (kFoldRight) FoldRight(data + rbase, &right);
      hi = rbase;
    }
  }
  // Note: while a frontier bitmap is live its base equals the retire
  // cursor, so [lo, hi) always covers every unretired (and unfolded)
  // element.
  CrackSplit tail = internal::Partition2(
      data + lo, oids != nullptr ? oids + lo : nullptr, hi - lo,
      [pivot](T v) { return C::Pred(v, pivot); });
  out.split = lo + tail.split;
  out.writes += tail.writes;
  out.parts[0] = left.Finish();
  out.parts[0].Merge(tail.parts[0]);
  if constexpr (kRight) {
    out.parts[1] = right.Finish();
    out.parts[1].Merge(tail.parts[1]);
  }
  return out;
}

// Left chunks always fold the max, right chunks the min; kLeftMin and
// kRightMax add the outer extremes.
template <typename T, uint64_t (*MaskFn)(const T*, T), typename C,
          bool kLeftMin, bool kRight, bool kRightMax>
CrackSplit CrackMasked(T* data, Oid* oids, size_t n, T pivot) {
  return CrackMaskedBody<T, MaskFn, C, FoldChunkScalar<T, kLeftMin, true>,
                         FoldChunkScalar<T, true, kRightMax>, kRight>(
      data, oids, n, pivot);
}

#if CRACKSTORE_X86
template <typename T, typename C, bool kLeftMin, bool kRight, bool kRightMax>
__attribute__((target("avx2"))) CrackSplit CrackMaskedAvx2(T* data, Oid* oids,
                                                          size_t n, T pivot) {
  return CrackMaskedBody<T, Avx2Mask64<T, C>, C,
                         Avx2FoldChunk<T, kLeftMin, true>,
                         Avx2FoldChunk<T, true, kRightMax>, kRight>(
      data, oids, n, pivot);
}
#endif

// One crack-in-two in `tier`. NEON folds retired chunks with the portable
// loop (the compiler vectorizes it); its reductions are the same values by
// construction. Without kRight the right part is not reduced at all. The
// extremes not asked for are reset to the identities, so every tier reports
// the same values whatever it folded on the way.
template <typename T, typename C, bool kLeftMin, bool kRight, bool kRightMax>
CrackSplit CrackTwoTierAs(T* data, Oid* oids, size_t n, T pivot,
                          SimdTier tier) {
  CrackSplit out;
  switch (tier) {
    case SimdTier::kScalar:
      out = internal::Partition2(data, oids, n, [pivot](T v) {
        return C::Pred(v, pivot);
      });
      break;
#if CRACKSTORE_X86
    case SimdTier::kAvx2:
      out = CrackMaskedAvx2<T, C, kLeftMin, kRight, kRightMax>(data, oids, n,
                                                              pivot);
      break;
#endif
#if CRACKSTORE_NEON_TIER
    case SimdTier::kNeon:
      out = CrackMasked<T, NeonMask64<T, C>, C, kLeftMin, kRight, kRightMax>(
          data, oids, n, pivot);
      break;
#endif
    default:
      out = CrackMasked<T, PredicatedMask64<T, C>, C, kLeftMin, kRight,
                        kRightMax>(data, oids, n, pivot);
      break;
  }
  if constexpr (!kLeftMin) out.parts[0].min = PartReduction{}.min;
  if constexpr (!kRight) {
    out.parts[1] = PartReduction{};
  } else if constexpr (!kRightMax) {
    out.parts[1].max = PartReduction{}.max;
  }
  return out;
}

template <typename T, typename C>
CrackSplit CrackTwoTier(T* data, Oid* oids, size_t n, T pivot, SimdTier tier,
                        bool outer_extremes) {
  return outer_extremes
             ? CrackTwoTierAs<T, C, true, true, true>(data, oids, n, pivot,
                                                      tier)
             : CrackTwoTierAs<T, C, false, true, false>(data, oids, n, pivot,
                                                        tier);
}

template <typename T, uint64_t (*LtFn)(const T*, T),
          uint64_t (*LeFn)(const T*, T)>
void RangeMaskBlocks(const T* data, size_t n, bool has_lo, T lo, bool lo_incl,
                     bool has_hi, T hi, bool hi_incl, uint64_t* bm) {
  size_t w = 0;
  size_t i = 0;
  for (; i + kChunk <= n; i += kChunk, ++w) {
    uint64_t m = ~uint64_t{0};
    if (has_lo) {
      m &= lo_incl ? ~LtFn(data + i, lo) : ~LeFn(data + i, lo);
    }
    if (has_hi) {
      m &= hi_incl ? LeFn(data + i, hi) : LtFn(data + i, hi);
    }
    bm[w] = m;
  }
  if (i < n) {
    uint64_t m = 0;
    for (size_t k = 0; i + k < n; ++k) {
      T v = data[i + k];
      bool ok = (!has_lo || (lo_incl ? v >= lo : v > lo)) &&
                (!has_hi || (hi_incl ? v <= hi : v < hi));
      m |= uint64_t(ok) << k;
    }
    bm[w] = m;
  }
}

// --- aggregate-pushdown reductions ----------------------------------------
// The canonical pattern every tier reproduces (see simd_dispatch.h): wrapping
// uint64 integer sums, the 8-stride double sum, order-free min/max. The
// scalar and predicated tiers share this implementation — a horizontal
// reduction has no data-dependent control flow for predication to remove
// (min/max lower to cmov/maxsd already) — and the NEON tier reuses it too:
// the reductions are bandwidth-bound, and keeping one non-x86 body keeps the
// parity contract trivial. AVX2 gets real vector bodies below.

template <typename T>
SpanAggregates AggCanonical(const T* p, size_t n, const uint64_t* bm) {
  SpanAggregates out;
  if constexpr (std::is_same_v<T, double>) {
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      bool ok = bm == nullptr || BitmapTest(bm, i);
      acc[i & 7] += ok ? p[i] : 0.0;
      if (ok) {
        ++out.count;
        if (p[i] < mn) mn = p[i];
        if (p[i] > mx) mx = p[i];
      }
    }
    double s = acc[0];
    for (int j = 1; j < 8; ++j) s += acc[j];
    out.sum_d = s;
    out.min_d = mn;
    out.max_d = mx;
  } else {
    uint64_t s = 0;
    T mn = std::numeric_limits<T>::max();
    T mx = std::numeric_limits<T>::min();
    for (size_t i = 0; i < n; ++i) {
      bool ok = bm == nullptr || BitmapTest(bm, i);
      if (ok) {
        s += uint64_t(int64_t(p[i]));
        ++out.count;
        if (p[i] < mn) mn = p[i];
        if (p[i] > mx) mx = p[i];
      }
    }
    out.sum_i = int64_t(s);
    out.min_i = mn;
    out.max_i = mx;
  }
  return out;
}

#if CRACKSTORE_X86

// Shared scalar tail + lane reduction for the AVX2 bodies. `i` is where the
// vector main loop stopped (a multiple of 8); the double tail continues the
// 8-stride pattern against the lane-extracted accumulators, so the whole
// span is summed exactly as the canonical body would.

__attribute__((target("avx2")))
SpanAggregates Avx2AggI32(const int32_t* p, size_t n, const uint64_t* bm) {
  SpanAggregates out;
  __m256i sum = _mm256_setzero_si256();
  __m256i mn = _mm256_set1_epi32(std::numeric_limits<int32_t>::max());
  __m256i mx = _mm256_set1_epi32(std::numeric_limits<int32_t>::min());
  const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    if (bm != nullptr) {
      uint32_t m8 = uint32_t(bm[i >> 6] >> (i & 63)) & 0xFFu;
      __m256i sel = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(int(m8)), lane_bits), lane_bits);
      out.count += uint64_t(__builtin_popcount(m8));
      mn = _mm256_min_epi32(mn, _mm256_blendv_epi8(mn, v, sel));
      mx = _mm256_max_epi32(mx, _mm256_blendv_epi8(mx, v, sel));
      v = _mm256_and_si256(v, sel);
    } else {
      out.count += 8;
      mn = _mm256_min_epi32(mn, v);
      mx = _mm256_max_epi32(mx, v);
    }
    __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
    __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
    sum = _mm256_add_epi64(sum, _mm256_add_epi64(lo, hi));
  }
  alignas(32) int64_t s4[4];
  alignas(32) int32_t mn8[8], mx8[8];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s4), sum);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(mn8), mn);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(mx8), mx);
  uint64_t s =
      uint64_t(s4[0]) + uint64_t(s4[1]) + uint64_t(s4[2]) + uint64_t(s4[3]);
  int32_t mnv = mn8[0], mxv = mx8[0];
  for (int j = 1; j < 8; ++j) {
    if (mn8[j] < mnv) mnv = mn8[j];
    if (mx8[j] > mxv) mxv = mx8[j];
  }
  for (; i < n; ++i) {
    bool ok = bm == nullptr || BitmapTest(bm, i);
    if (ok) {
      s += uint64_t(int64_t(p[i]));
      ++out.count;
      if (p[i] < mnv) mnv = p[i];
      if (p[i] > mxv) mxv = p[i];
    }
  }
  out.sum_i = int64_t(s);
  out.min_i = mnv;
  out.max_i = mxv;
  return out;
}

// Folds one 4-lane block into the running sum/min/max; masked-off lanes
// (sel clear) leave min/max alone and add 0. AVX2 has no 64-bit min/max:
// compare + blend.
__attribute__((target("avx2"))) inline void Avx2AggI64Block(
    __m256i v, const uint64_t* bm, size_t i, uint64_t* count, __m256i* sum,
    __m256i* mn, __m256i* mx) {
  __m256i vmin = v, vmax = v;
  if (bm != nullptr) {
    const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    uint32_t m4 = uint32_t(bm[i >> 6] >> (i & 63)) & 0xFu;
    __m256i sel = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(int64_t(m4)), lane_bits),
        lane_bits);
    *count += uint64_t(__builtin_popcount(m4));
    vmin = _mm256_blendv_epi8(*mn, v, sel);
    vmax = _mm256_blendv_epi8(*mx, v, sel);
    v = _mm256_and_si256(v, sel);
  } else {
    *count += 4;
  }
  *mn = _mm256_blendv_epi8(*mn, vmin, _mm256_cmpgt_epi64(*mn, vmin));
  *mx = _mm256_blendv_epi8(*mx, vmax, _mm256_cmpgt_epi64(vmax, *mx));
  *sum = _mm256_add_epi64(*sum, v);
}

// Two independent accumulator sets (blocks at i and i + 4), so one block's
// compare-and-blend does not wait on the previous block's.
__attribute__((target("avx2")))
SpanAggregates Avx2AggI64(const int64_t* p, size_t n, const uint64_t* bm) {
  SpanAggregates out;
  __m256i sum0 = _mm256_setzero_si256(), sum1 = sum0;
  __m256i mn0 = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  __m256i mx0 = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  __m256i mn1 = mn0, mx1 = mx0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Avx2AggI64Block(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), bm, i,
        &out.count, &sum0, &mn0, &mx0);
    Avx2AggI64Block(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + 4)), bm,
        i + 4, &out.count, &sum1, &mn1, &mx1);
  }
  if (i + 4 <= n) {
    Avx2AggI64Block(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), bm, i,
        &out.count, &sum0, &mn0, &mx0);
    i += 4;
  }
  alignas(32) int64_t s4[4], mn4[4], mx4[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(s4),
                      _mm256_add_epi64(sum0, sum1));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(mn4),
      _mm256_blendv_epi8(mn0, mn1, _mm256_cmpgt_epi64(mn0, mn1)));
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(mx4),
      _mm256_blendv_epi8(mx0, mx1, _mm256_cmpgt_epi64(mx1, mx0)));
  uint64_t s =
      uint64_t(s4[0]) + uint64_t(s4[1]) + uint64_t(s4[2]) + uint64_t(s4[3]);
  int64_t mnv = mn4[0], mxv = mx4[0];
  for (int j = 1; j < 4; ++j) {
    if (mn4[j] < mnv) mnv = mn4[j];
    if (mx4[j] > mxv) mxv = mx4[j];
  }
  for (; i < n; ++i) {
    bool ok = bm == nullptr || BitmapTest(bm, i);
    if (ok) {
      s += uint64_t(p[i]);
      ++out.count;
      if (p[i] < mnv) mnv = p[i];
      if (p[i] > mxv) mxv = p[i];
    }
  }
  out.sum_i = int64_t(s);
  out.min_i = mnv;
  out.max_i = mxv;
  return out;
}

__attribute__((target("avx2")))
SpanAggregates Avx2AggF64(const double* p, size_t n, const uint64_t* bm) {
  SpanAggregates out;
  // Two accumulators = strides 0..3 and 4..7 of the canonical pattern.
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  __m256d mn = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d mx = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  const __m256i lane_bits = _mm256_setr_epi64x(1, 2, 4, 8);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d v0 = _mm256_loadu_pd(p + i);
    __m256d v1 = _mm256_loadu_pd(p + i + 4);
    if (bm != nullptr) {
      uint32_t m8 = uint32_t(bm[i >> 6] >> (i & 63)) & 0xFFu;
      __m256d sel0 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(int64_t(m8 & 0xF)), lane_bits),
          lane_bits));
      __m256d sel1 = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
          _mm256_and_si256(_mm256_set1_epi64x(int64_t(m8 >> 4)), lane_bits),
          lane_bits));
      out.count += uint64_t(__builtin_popcount(m8));
      mn = _mm256_min_pd(mn, _mm256_blendv_pd(mn, v0, sel0));
      mn = _mm256_min_pd(mn, _mm256_blendv_pd(mn, v1, sel1));
      mx = _mm256_max_pd(mx, _mm256_blendv_pd(mx, v0, sel0));
      mx = _mm256_max_pd(mx, _mm256_blendv_pd(mx, v1, sel1));
      v0 = _mm256_and_pd(v0, sel0);  // masked-off lanes become +0.0
      v1 = _mm256_and_pd(v1, sel1);
    } else {
      out.count += 8;
      mn = _mm256_min_pd(mn, _mm256_min_pd(v0, v1));
      mx = _mm256_max_pd(mx, _mm256_max_pd(v0, v1));
    }
    a0 = _mm256_add_pd(a0, v0);
    a1 = _mm256_add_pd(a1, v1);
  }
  alignas(32) double acc[8], mn4[4], mx4[4];
  _mm256_storeu_pd(acc, a0);
  _mm256_storeu_pd(acc + 4, a1);
  _mm256_storeu_pd(mn4, mn);
  _mm256_storeu_pd(mx4, mx);
  double mnv = mn4[0], mxv = mx4[0];
  for (int j = 1; j < 4; ++j) {
    if (mn4[j] < mnv) mnv = mn4[j];
    if (mx4[j] > mxv) mxv = mx4[j];
  }
  for (; i < n; ++i) {
    bool ok = bm == nullptr || BitmapTest(bm, i);
    acc[i & 7] += ok ? p[i] : 0.0;
    if (ok) {
      ++out.count;
      if (p[i] < mnv) mnv = p[i];
      if (p[i] > mxv) mxv = p[i];
    }
  }
  double s = acc[0];
  for (int j = 1; j < 8; ++j) s += acc[j];
  out.sum_d = s;
  out.min_d = mnv;
  out.max_d = mxv;
  return out;
}

template <typename T>
SpanAggregates Avx2Agg(const T* p, size_t n, const uint64_t* bm) {
  if constexpr (std::is_same_v<T, int32_t>) {
    return Avx2AggI32(p, n, bm);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return Avx2AggI64(p, n, bm);
  } else {
    static_assert(std::is_same_v<T, double>);
    return Avx2AggF64(p, n, bm);
  }
}

#endif  // CRACKSTORE_X86

template <typename T>
SpanAggregates AggDispatch(const T* p, size_t n, const uint64_t* bm,
                           SimdTier tier) {
#if CRACKSTORE_X86
  if (tier == SimdTier::kAvx2) return Avx2Agg(p, n, bm);
#else
  (void)tier;
#endif
  return AggCanonical(p, n, bm);
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kPredicated: return "predicated";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kNeon: return "neon";
  }
  return "unknown";
}

bool ParseSimdTier(const std::string& name, SimdTier* out) {
  if (name == "scalar") { *out = SimdTier::kScalar; return true; }
  if (name == "predicated") { *out = SimdTier::kPredicated; return true; }
  if (name == "avx2") { *out = SimdTier::kAvx2; return true; }
  if (name == "neon") { *out = SimdTier::kNeon; return true; }
  return false;
}

bool SimdTierSupported(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
    case SimdTier::kPredicated:
      return true;
    case SimdTier::kAvx2:
#if CRACKSTORE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdTier::kNeon:
#if CRACKSTORE_NEON_TIER
      return true;
#else
      return false;
#endif
  }
  return false;
}

SimdTier BestSupportedSimdTier() {
  if (SimdTierSupported(SimdTier::kAvx2)) return SimdTier::kAvx2;
  if (SimdTierSupported(SimdTier::kNeon)) return SimdTier::kNeon;
  return SimdTier::kPredicated;
}

SimdTier ActiveSimdTier() {
  static const SimdTier tier = [] {
    const char* env = std::getenv("CRACKSTORE_SIMD");
    if (env != nullptr && *env != '\0') {
      SimdTier requested;
      if (ParseSimdTier(env, &requested) && SimdTierSupported(requested)) {
        return requested;
      }
      // Unknown or unsupported request: clamp to the best the hardware has.
    }
    return BestSupportedSimdTier();
  }();
  return tier;
}

size_t BitmapCount(const uint64_t* bm, size_t n) {
  size_t words = BitmapWords(n);
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += size_t(__builtin_popcountll(bm[w]));
  }
  return count;
}

void BitmapFill(uint64_t* bm, size_t n) {
  size_t words = BitmapWords(n);
  for (size_t w = 0; w < words; ++w) bm[w] = ~uint64_t{0};
  size_t tail = n & 63;
  if (words > 0 && tail != 0) bm[words - 1] = (uint64_t{1} << tail) - 1;
}

template <typename T>
CrackSplit CrackInTwoLtTier(T* data, Oid* oids, size_t n, T pivot,
                            SimdTier tier, bool outer_extremes) {
  return CrackTwoTier<T, CmpLt>(data, oids, n, pivot, tier, outer_extremes);
}

template <typename T>
CrackSplit CrackInTwoLeTier(T* data, Oid* oids, size_t n, T pivot,
                            SimdTier tier, bool outer_extremes) {
  return CrackTwoTier<T, CmpLe>(data, oids, n, pivot, tier, outer_extremes);
}

// The two passes of a vector-tier crack-in-three: split off `below` (its
// min folded only if kOuter; the remainder left unreduced, since the
// second pass reduces it), then split the remainder at the upper boundary
// (the middle part's min always, the upper part's max only if kOuter).
template <typename T, bool kOuter>
Crack3Split CrackThreeTwoPass(T* data, Oid* oids, size_t n, T lo,
                              bool lo_incl, T hi, bool hi_incl,
                              SimdTier tier) {
  Crack3Split out;
  CrackSplit below =
      lo_incl ? CrackTwoTierAs<T, CmpLt, kOuter, false, false>(data, oids, n,
                                                               lo, tier)
              : CrackTwoTierAs<T, CmpLe, kOuter, false, false>(data, oids, n,
                                                               lo, tier);
  out.first = below.split;
  T* mid = data + below.split;
  Oid* mid_oids = oids != nullptr ? oids + below.split : nullptr;
  size_t rest = n - below.split;
  CrackSplit upper =
      hi_incl ? CrackTwoTierAs<T, CmpLe, true, true, kOuter>(mid, mid_oids,
                                                             rest, hi, tier)
              : CrackTwoTierAs<T, CmpLt, true, true, kOuter>(mid, mid_oids,
                                                             rest, hi, tier);
  out.second = below.split + upper.split;
  out.writes = below.writes + upper.writes;
  out.parts[0] = below.parts[0];
  out.parts[1] = upper.parts[0];
  out.parts[2] = upper.parts[1];
  return out;
}

template <typename T>
Crack3Split CrackInThreeTier(T* data, Oid* oids, size_t n, T lo, bool lo_incl,
                             T hi, bool hi_incl, SimdTier tier,
                             bool outer_extremes) {
  if (tier == SimdTier::kScalar) {
    Crack3Split out =
        CrackInThreeScalar(data, oids, n, lo, lo_incl, hi, hi_incl);
    if (!outer_extremes) {
      out.parts[0].min = PartReduction{}.min;
      out.parts[2].max = PartReduction{}.max;
    }
    return out;
  }
  // Two crack-in-two passes: same split positions as the single-pass DNF.
  return outer_extremes
             ? CrackThreeTwoPass<T, true>(data, oids, n, lo, lo_incl, hi,
                                          hi_incl, tier)
             : CrackThreeTwoPass<T, false>(data, oids, n, lo, lo_incl, hi,
                                           hi_incl, tier);
}

template <typename T>
void RangeMatchMask(const T* data, size_t n, bool has_lo, T lo, bool lo_incl,
                    bool has_hi, T hi, bool hi_incl, uint64_t* bm,
                    SimdTier tier) {
  if (n == 0) return;
  switch (tier) {
    case SimdTier::kScalar: {
      size_t words = BitmapWords(n);
      for (size_t w = 0; w < words; ++w) bm[w] = 0;
      for (size_t i = 0; i < n; ++i) {
        T v = data[i];
        bool ok = (!has_lo || (lo_incl ? v >= lo : v > lo)) &&
                  (!has_hi || (hi_incl ? v <= hi : v < hi));
        if (ok) BitmapSet(bm, i);
      }
      return;
    }
    case SimdTier::kAvx2:
#if CRACKSTORE_X86
      RangeMaskBlocks<T, Avx2Mask64<T, CmpLt>, Avx2Mask64<T, CmpLe>>(
          data, n, has_lo, lo, lo_incl, has_hi, hi, hi_incl, bm);
      return;
#else
      break;
#endif
    case SimdTier::kNeon:
#if CRACKSTORE_NEON_TIER
      RangeMaskBlocks<T, NeonMask64<T, CmpLt>, NeonMask64<T, CmpLe>>(
          data, n, has_lo, lo, lo_incl, has_hi, hi, hi_incl, bm);
      return;
#else
      break;
#endif
    case SimdTier::kPredicated:
      break;
  }
  RangeMaskBlocks<T, PredicatedMask64<T, CmpLt>, PredicatedMask64<T, CmpLe>>(
      data, n, has_lo, lo, lo_incl, has_hi, hi, hi_incl, bm);
}

template <typename T>
SpanAggregates AggregateSpanTier(const T* data, size_t n, SimdTier tier) {
  return AggDispatch(data, n, nullptr, tier);
}

template <typename T>
SpanAggregates AggregateSpanMaskedTier(const T* data, size_t n,
                                       const uint64_t* bm, SimdTier tier) {
  return AggDispatch(data, n, bm, tier);
}

template CrackSplit CrackInTwoLtTier<int32_t>(int32_t*, Oid*, size_t, int32_t,
                                              SimdTier, bool);
template CrackSplit CrackInTwoLtTier<int64_t>(int64_t*, Oid*, size_t, int64_t,
                                              SimdTier, bool);
template CrackSplit CrackInTwoLtTier<double>(double*, Oid*, size_t, double,
                                             SimdTier, bool);
template CrackSplit CrackInTwoLeTier<int32_t>(int32_t*, Oid*, size_t, int32_t,
                                              SimdTier, bool);
template CrackSplit CrackInTwoLeTier<int64_t>(int64_t*, Oid*, size_t, int64_t,
                                              SimdTier, bool);
template CrackSplit CrackInTwoLeTier<double>(double*, Oid*, size_t, double,
                                             SimdTier, bool);
template Crack3Split CrackInThreeTier<int32_t>(int32_t*, Oid*, size_t, int32_t,
                                               bool, int32_t, bool, SimdTier,
                                               bool);
template Crack3Split CrackInThreeTier<int64_t>(int64_t*, Oid*, size_t, int64_t,
                                               bool, int64_t, bool, SimdTier,
                                               bool);
template Crack3Split CrackInThreeTier<double>(double*, Oid*, size_t, double,
                                              bool, double, bool, SimdTier,
                                              bool);
template void RangeMatchMask<int32_t>(const int32_t*, size_t, bool, int32_t,
                                      bool, bool, int32_t, bool, uint64_t*,
                                      SimdTier);
template void RangeMatchMask<int64_t>(const int64_t*, size_t, bool, int64_t,
                                      bool, bool, int64_t, bool, uint64_t*,
                                      SimdTier);
template void RangeMatchMask<double>(const double*, size_t, bool, double, bool,
                                     bool, double, bool, uint64_t*, SimdTier);
template SpanAggregates AggregateSpanTier<int32_t>(const int32_t*, size_t,
                                                   SimdTier);
template SpanAggregates AggregateSpanTier<int64_t>(const int64_t*, size_t,
                                                   SimdTier);
template SpanAggregates AggregateSpanTier<double>(const double*, size_t,
                                                  SimdTier);
template SpanAggregates AggregateSpanMaskedTier<int32_t>(const int32_t*,
                                                         size_t,
                                                         const uint64_t*,
                                                         SimdTier);
template SpanAggregates AggregateSpanMaskedTier<int64_t>(const int64_t*,
                                                         size_t,
                                                         const uint64_t*,
                                                         SimdTier);
template SpanAggregates AggregateSpanMaskedTier<double>(const double*, size_t,
                                                        const uint64_t*,
                                                        SimdTier);

}  // namespace crackstore
