// Copyright 2026 The CrackStore Authors
//
// Tests for the crack-in-two / crack-in-three partition kernels, including
// parameterized property sweeps over data shapes and pivots.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/crack_kernels.h"
#include "core/simd_dispatch.h"
#include "util/rng.h"

namespace crackstore {
namespace {

std::vector<int64_t> RandomData(size_t n, uint64_t seed, int64_t domain) {
  Pcg32 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(0, domain);
  return v;
}

std::vector<Oid> IdentityOids(size_t n) {
  std::vector<Oid> v(n);
  std::iota(v.begin(), v.end(), Oid{0});
  return v;
}

std::multiset<int64_t> AsMultiset(const std::vector<int64_t>& v) {
  return std::multiset<int64_t>(v.begin(), v.end());
}

TEST(CrackInTwoTest, LtPartitionsCorrectly) {
  std::vector<int64_t> data{5, 1, 9, 3, 7, 3, 0};
  auto orig = AsMultiset(data);
  CrackSplit split =
      CrackInTwoLt(data.data(), nullptr, data.size(), int64_t{4});
  for (size_t i = 0; i < split.split; ++i) EXPECT_LT(data[i], 4);
  for (size_t i = split.split; i < data.size(); ++i) EXPECT_GE(data[i], 4);
  EXPECT_EQ(AsMultiset(data), orig);
  EXPECT_EQ(split.split, 4u);  // {1,3,3,0}
}

TEST(CrackInTwoTest, LePartitionsCorrectly) {
  std::vector<int64_t> data{5, 4, 9, 4, 7, 3};
  CrackSplit split =
      CrackInTwoLe(data.data(), nullptr, data.size(), int64_t{4});
  EXPECT_EQ(split.split, 3u);  // {4,4,3}
  for (size_t i = 0; i < split.split; ++i) EXPECT_LE(data[i], 4);
  for (size_t i = split.split; i < data.size(); ++i) EXPECT_GT(data[i], 4);
}

TEST(CrackInTwoTest, EmptyInput) {
  std::vector<int64_t> data;
  CrackSplit split = CrackInTwoLt(data.data(), nullptr, 0, int64_t{4});
  EXPECT_EQ(split.split, 0u);
  EXPECT_EQ(split.writes, 0u);
}

TEST(CrackInTwoTest, AllLeft) {
  std::vector<int64_t> data{1, 2, 3};
  CrackSplit split =
      CrackInTwoLt(data.data(), nullptr, data.size(), int64_t{100});
  EXPECT_EQ(split.split, 3u);
  EXPECT_EQ(split.writes, 0u);  // nothing moved
}

TEST(CrackInTwoTest, AllRight) {
  std::vector<int64_t> data{5, 6, 7};
  CrackSplit split =
      CrackInTwoLt(data.data(), nullptr, data.size(), int64_t{0});
  EXPECT_EQ(split.split, 0u);
  EXPECT_EQ(split.writes, 0u);
}

TEST(CrackInTwoTest, OidsFollowValues) {
  std::vector<int64_t> data{5, 1, 9, 3};
  std::vector<Oid> oids = IdentityOids(4);
  std::vector<int64_t> orig = data;
  CrackInTwoLt(data.data(), oids.data(), data.size(), int64_t{4});
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], orig[oids[i]]);  // oid still names its source slot
  }
}

TEST(CrackInTwoTest, WriteCountMatchesSwaps) {
  // One swap needed: [9, 1] around pivot 5 -> [1, 9], 2 writes.
  std::vector<int64_t> data{9, 1};
  CrackSplit split =
      CrackInTwoLt(data.data(), nullptr, data.size(), int64_t{5});
  EXPECT_EQ(split.writes, 2u);
  EXPECT_EQ(split.split, 1u);
}

TEST(CrackInThreeTest, BasicThreeWay) {
  std::vector<int64_t> data{8, 2, 5, 9, 1, 5, 7, 0};
  auto orig = AsMultiset(data);
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(),
                                   int64_t{2}, true, int64_t{6}, true);
  for (size_t i = 0; i < split.first; ++i) EXPECT_LT(data[i], 2);
  for (size_t i = split.first; i < split.second; ++i) {
    EXPECT_GE(data[i], 2);
    EXPECT_LE(data[i], 6);
  }
  for (size_t i = split.second; i < data.size(); ++i) EXPECT_GT(data[i], 6);
  EXPECT_EQ(AsMultiset(data), orig);
}

TEST(CrackInThreeTest, ExclusiveBounds) {
  std::vector<int64_t> data{2, 3, 4, 5, 6, 2, 6};
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(),
                                   int64_t{2}, false, int64_t{6}, false);
  // middle = values in (2, 6)
  for (size_t i = split.first; i < split.second; ++i) {
    EXPECT_GT(data[i], 2);
    EXPECT_LT(data[i], 6);
  }
  EXPECT_EQ(split.second - split.first, 3u);  // {3,4,5}
}

TEST(CrackInThreeTest, PointRange) {
  std::vector<int64_t> data{3, 1, 3, 2, 3};
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(),
                                   int64_t{3}, true, int64_t{3}, true);
  EXPECT_EQ(split.second - split.first, 3u);  // three 3s clustered
  for (size_t i = split.first; i < split.second; ++i) EXPECT_EQ(data[i], 3);
}

TEST(CrackInThreeTest, EmptyMiddle) {
  std::vector<int64_t> data{1, 10, 2, 9};
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(),
                                   int64_t{5}, true, int64_t{5}, false);
  EXPECT_EQ(split.first, split.second);
}

TEST(CrackInThreeTest, EmptyInput) {
  std::vector<int64_t> data;
  Crack3Split split = CrackInThree(data.data(), nullptr, size_t{0},
                                   int64_t{1}, true, int64_t{2}, true);
  EXPECT_EQ(split.first, 0u);
  EXPECT_EQ(split.second, 0u);
}

TEST(CrackInThreeTest, OidsFollowValues) {
  std::vector<int64_t> data{8, 2, 5, 9, 1, 5, 7, 0};
  std::vector<Oid> oids = IdentityOids(8);
  std::vector<int64_t> orig = data;
  CrackInThree(data.data(), oids.data(), data.size(), int64_t{2}, true,
               int64_t{6}, true);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], orig[oids[i]]);
  }
}

TEST(CrackInThreeTest, WorksOnDoubles) {
  std::vector<double> data{0.5, 2.5, 1.5, 3.5};
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(), 1.0,
                                   true, 3.0, true);
  EXPECT_EQ(split.first, 1u);
  EXPECT_EQ(split.second, 3u);
}

TEST(CrackInThreeTest, WorksOnInt32) {
  std::vector<int32_t> data{5, 1, 3, 2, 4};
  Crack3Split split = CrackInThree(data.data(), nullptr, data.size(),
                                   int32_t{2}, true, int32_t{4}, true);
  for (size_t i = split.first; i < split.second; ++i) {
    EXPECT_GE(data[i], 2);
    EXPECT_LE(data[i], 4);
  }
}

// ---------------------------------------------------------------------------
// Property sweep: random data shapes x pivots, checking the partition
// invariants, multiset preservation and oid alignment.
// ---------------------------------------------------------------------------

class KernelPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, int64_t, uint64_t>> {
};

TEST_P(KernelPropertyTest, CrackInTwoInvariants) {
  auto [n, domain, seed] = GetParam();
  std::vector<int64_t> data = RandomData(n, seed, domain);
  std::vector<Oid> oids = IdentityOids(n);
  std::vector<int64_t> orig = data;
  auto orig_set = AsMultiset(data);
  Pcg32 rng(seed ^ 0xABCD);
  int64_t pivot = rng.NextInRange(-1, domain + 1);

  CrackSplit split = CrackInTwoLt(data.data(), oids.data(), n, pivot);
  ASSERT_LE(split.split, n);
  for (size_t i = 0; i < split.split; ++i) ASSERT_LT(data[i], pivot);
  for (size_t i = split.split; i < n; ++i) ASSERT_GE(data[i], pivot);
  ASSERT_EQ(AsMultiset(data), orig_set);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(data[i], orig[oids[i]]);
  // Each swap writes two tuples; never more than n writes total.
  ASSERT_LE(split.writes, n + 1);
}

TEST_P(KernelPropertyTest, CrackInThreeInvariants) {
  auto [n, domain, seed] = GetParam();
  std::vector<int64_t> data = RandomData(n, seed, domain);
  std::vector<Oid> oids = IdentityOids(n);
  std::vector<int64_t> orig = data;
  auto orig_set = AsMultiset(data);
  Pcg32 rng(seed ^ 0x1234);
  int64_t lo = rng.NextInRange(0, domain);
  int64_t hi = rng.NextInRange(lo, domain);
  bool lo_incl = rng.NextBounded(2) == 0;
  bool hi_incl = rng.NextBounded(2) == 0;

  Crack3Split split =
      CrackInThree(data.data(), oids.data(), n, lo, lo_incl, hi, hi_incl);
  ASSERT_LE(split.first, split.second);
  ASSERT_LE(split.second, n);
  auto below = [&](int64_t v) { return lo_incl ? v < lo : v <= lo; };
  auto above = [&](int64_t v) { return hi_incl ? v > hi : v >= hi; };
  for (size_t i = 0; i < split.first; ++i) ASSERT_TRUE(below(data[i]));
  for (size_t i = split.first; i < split.second; ++i) {
    ASSERT_FALSE(below(data[i]));
    ASSERT_FALSE(above(data[i]));
  }
  for (size_t i = split.second; i < n; ++i) ASSERT_TRUE(above(data[i]));
  ASSERT_EQ(AsMultiset(data), orig_set);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(data[i], orig[oids[i]]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelPropertyTest,
    ::testing::Combine(
        ::testing::Values<size_t>(1, 2, 10, 1000, 10000),     // n
        ::testing::Values<int64_t>(1, 10, 1000000),           // domain
        ::testing::Values<uint64_t>(1, 42, 20040901)));       // seed

// ---------------------------------------------------------------------------
// Tier parity fuzz: every supported vector tier must reproduce the scalar
// crack-in-two kernel *bit-for-bit* (split, writes, permuted layout, oid
// map — the bitmap-frontier scheme performs the exact Hoare swap sequence),
// and crack-in-three must agree on split positions plus all partition
// invariants. Randomized over sizes (odd tails around the 64-element block
// width), unaligned base offsets, duplicate-heavy / pre-sorted / reversed
// shapes and the with/without-oid-payload axis.
// ---------------------------------------------------------------------------

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

std::vector<SimdTier> VectorTiers() {
  std::vector<SimdTier> tiers;
  for (SimdTier t :
       {SimdTier::kPredicated, SimdTier::kAvx2, SimdTier::kNeon}) {
    if (SimdTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Shapes: 0 = random wide domain, 1 = duplicate-heavy, 2 = pre-sorted,
// 3 = reverse-sorted, 4 = NaN-sprinkled (doubles only).
template <typename T>
std::vector<T> FuzzData(size_t n, int shape, uint64_t seed) {
  Pcg32 rng(seed);
  int64_t domain = (shape == 1) ? 8 : 1000000;
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.NextInRange(-domain, domain));
  if (shape == 2) std::sort(v.begin(), v.end());
  if (shape == 3) std::sort(v.begin(), v.end(), std::greater<T>());
  if constexpr (std::is_same_v<T, double>) {
    if (shape == 4) {
      for (size_t i = 0; i < n; i += 7) {
        v[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return v;
}

template <typename T>
T FuzzPivot(const std::vector<T>& base, size_t offset, size_t n, Pcg32* rng) {
  T pivot;
  switch (rng->NextBounded(4)) {
    case 0: pivot = std::numeric_limits<T>::lowest(); break;
    case 1: pivot = std::numeric_limits<T>::max(); break;
    case 2:
      pivot = n > 0 ? base[offset + rng->NextBounded(uint32_t(n))] : T{0};
      break;
    default: pivot = static_cast<T>(rng->NextInRange(-1000000, 1000000));
  }
  if constexpr (std::is_same_v<T, double>) {
    if (std::isnan(pivot)) pivot = 0.0;
  }
  return pivot;
}

template <typename T>
void CrackTwoParityTrial(size_t n, size_t offset, bool with_oids, int shape,
                         bool le, uint64_t seed) {
  std::vector<T> base = FuzzData<T>(offset + n, shape, seed);
  Pcg32 rng(seed ^ 0x9E3779B97F4A7C15ull);
  T pivot = FuzzPivot(base, offset, n, &rng);

  std::vector<T> ref = base;
  std::vector<Oid> ref_oids = IdentityOids(offset + n);
  CrackSplit want =
      le ? CrackInTwoLeScalar(ref.data() + offset,
                              with_oids ? ref_oids.data() + offset : nullptr,
                              n, pivot)
         : CrackInTwoLtScalar(ref.data() + offset,
                              with_oids ? ref_oids.data() + offset : nullptr,
                              n, pivot);
  for (SimdTier tier : VectorTiers()) {
    SCOPED_TRACE(std::string("tier=") + SimdTierName(tier) +
                 " n=" + std::to_string(n) + " off=" + std::to_string(offset) +
                 " shape=" + std::to_string(shape) +
                 " le=" + std::to_string(le) +
                 " oids=" + std::to_string(with_oids));
    std::vector<T> got = base;
    std::vector<Oid> got_oids = IdentityOids(offset + n);
    CrackSplit s =
        le ? CrackInTwoLeTier(got.data() + offset,
                              with_oids ? got_oids.data() + offset : nullptr,
                              n, pivot, tier)
           : CrackInTwoLtTier(got.data() + offset,
                              with_oids ? got_oids.data() + offset : nullptr,
                              n, pivot, tier);
    ASSERT_EQ(s.split, want.split);
    ASSERT_EQ(s.writes, want.writes);
    ASSERT_EQ(got.size(), ref.size());
    // Zero-length trials have null data(), which memcmp must not receive.
    if (!got.empty()) {
      ASSERT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(T)),
                0);
    }
    if (with_oids) ASSERT_EQ(got_oids, ref_oids);
  }
}

template <typename T>
void CrackThreeParityTrial(size_t n, size_t offset, bool with_oids, int shape,
                           uint64_t seed) {
  std::vector<T> base = FuzzData<T>(offset + n, shape, seed);
  Pcg32 rng(seed ^ 0xC2B2AE3D27D4EB4Full);
  T lo = static_cast<T>(rng.NextInRange(-1000000, 1000000));
  T hi = static_cast<T>(rng.NextInRange(-1000000, 1000000));
  if (hi < lo) std::swap(lo, hi);
  bool lo_incl = rng.NextBounded(2) == 0;
  bool hi_incl = rng.NextBounded(2) == 0;

  std::vector<T> ref = base;
  Crack3Split want = CrackInThreeScalar(
      ref.data() + offset, static_cast<Oid*>(nullptr), n, lo, lo_incl, hi,
      hi_incl);
  auto below = [&](T v) { return lo_incl ? v < lo : v <= lo; };
  auto above = [&](T v) { return hi_incl ? v > hi : v >= hi; };

  std::vector<T> first_tier_data;
  std::vector<Oid> first_tier_oids;
  for (SimdTier tier : VectorTiers()) {
    SCOPED_TRACE(std::string("tier=") + SimdTierName(tier) +
                 " n=" + std::to_string(n) + " off=" + std::to_string(offset) +
                 " shape=" + std::to_string(shape));
    std::vector<T> got = base;
    std::vector<Oid> got_oids = IdentityOids(offset + n);
    Crack3Split s = CrackInThreeTier(
        got.data() + offset, with_oids ? got_oids.data() + offset : nullptr,
        n, lo, lo_incl, hi, hi_incl, tier);
    // Split positions match the scalar DNF reference exactly.
    ASSERT_EQ(s.first, want.first);
    ASSERT_EQ(s.second, want.second);
    const T* d = got.data() + offset;
    for (size_t i = 0; i < s.first; ++i) ASSERT_TRUE(below(d[i]));
    for (size_t i = s.first; i < s.second; ++i) {
      ASSERT_FALSE(below(d[i]));
      ASSERT_FALSE(above(d[i]));
    }
    for (size_t i = s.second; i < n; ++i) ASSERT_TRUE(above(d[i]));
    ASSERT_EQ(std::multiset<T>(got.begin(), got.end()),
              std::multiset<T>(base.begin(), base.end()));
    if (with_oids) {
      for (size_t i = 0; i < offset + n; ++i) {
        ASSERT_EQ(got[i], base[got_oids[i]]);
      }
    }
    // All vector tiers share the two-pass scheme: bit-identical output.
    if (first_tier_data.empty()) {
      first_tier_data = got;
      first_tier_oids = got_oids;
    } else {
      ASSERT_EQ(got, first_tier_data);
      if (with_oids) {
        ASSERT_EQ(got_oids, first_tier_oids);
      }
    }
  }
}

const size_t kFuzzSizes[] = {0,   1,   2,    63,   64,    65,   127, 128,
                             129, 191, 192,  255,  256,   1000, 4096, 4097};

TEST(KernelTierParityTest, CrackInTwoFuzz) {
  uint64_t seed = TestSeed(20260807);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  for (int trial = 0; trial < 150; ++trial) {
    size_t n = kFuzzSizes[rng.NextBounded(16)];
    size_t offset = rng.NextBounded(8);
    bool with_oids = rng.NextBounded(2) == 0;
    bool le = rng.NextBounded(2) == 0;
    uint64_t s = seed + uint64_t(trial) * 7919;
    switch (rng.NextBounded(3)) {
      case 0:
        CrackTwoParityTrial<int32_t>(n, offset, with_oids,
                                     int(rng.NextBounded(4)), le, s);
        break;
      case 1:
        CrackTwoParityTrial<int64_t>(n, offset, with_oids,
                                     int(rng.NextBounded(4)), le, s);
        break;
      default:
        CrackTwoParityTrial<double>(n, offset, with_oids,
                                    int(rng.NextBounded(5)), le, s);
    }
    if (HasFatalFailure()) return;
  }
}

TEST(KernelTierParityTest, CrackInThreeFuzz) {
  uint64_t seed = TestSeed(20260808);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = kFuzzSizes[rng.NextBounded(16)];
    size_t offset = rng.NextBounded(8);
    bool with_oids = rng.NextBounded(2) == 0;
    int shape = int(rng.NextBounded(4));
    uint64_t s = seed + uint64_t(trial) * 104729;
    switch (rng.NextBounded(3)) {
      case 0:
        CrackThreeParityTrial<int32_t>(n, offset, with_oids, shape, s);
        break;
      case 1:
        CrackThreeParityTrial<int64_t>(n, offset, with_oids, shape, s);
        break;
      default:
        CrackThreeParityTrial<double>(n, offset, with_oids, shape, s);
    }
    if (HasFatalFailure()) return;
  }
}

TEST(KernelTierParityTest, RangeMatchMaskAgreesWithScalar) {
  uint64_t seed = TestSeed(20260809);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = kFuzzSizes[rng.NextBounded(16)];
    std::vector<int64_t> data =
        FuzzData<int64_t>(n, int(rng.NextBounded(4)), seed + trial);
    int64_t lo = rng.NextInRange(-1000000, 1000000);
    int64_t hi = rng.NextInRange(lo, 1000000);
    bool lo_incl = rng.NextBounded(2) == 0;
    bool hi_incl = rng.NextBounded(2) == 0;
    bool has_lo = rng.NextBounded(4) != 0;
    bool has_hi = rng.NextBounded(4) != 0;

    std::vector<uint64_t> want(BitmapWords(n) + 1, 0);
    RangeMatchMask(data.data(), n, has_lo, lo, lo_incl, has_hi, hi, hi_incl,
                   want.data(), SimdTier::kScalar);
    for (SimdTier tier : VectorTiers()) {
      SCOPED_TRACE(std::string("tier=") + SimdTierName(tier) +
                   " n=" + std::to_string(n));
      std::vector<uint64_t> got(BitmapWords(n) + 1, 0);
      RangeMatchMask(data.data(), n, has_lo, lo, lo_incl, has_hi, hi, hi_incl,
                     got.data(), tier);
      ASSERT_EQ(got, want);
    }
    ASSERT_EQ(BitmapCount(want.data(), n),
              size_t(std::count_if(data.begin(), data.end(), [&](int64_t v) {
                return (!has_lo || (lo_incl ? v >= lo : v > lo)) &&
                       (!has_hi || (hi_incl ? v <= hi : v < hi));
              })));
    if (HasFatalFailure()) return;
  }
}

TEST(SimdDispatchTest, TierNamesRoundTrip) {
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kPredicated,
                     SimdTier::kAvx2, SimdTier::kNeon}) {
    SimdTier parsed;
    ASSERT_TRUE(ParseSimdTier(SimdTierName(t), &parsed));
    EXPECT_EQ(parsed, t);
  }
  SimdTier parsed;
  EXPECT_FALSE(ParseSimdTier("sse9000", &parsed));
  // Scalar and predicated are always available; the active tier must be
  // executable on this machine.
  EXPECT_TRUE(SimdTierSupported(SimdTier::kScalar));
  EXPECT_TRUE(SimdTierSupported(SimdTier::kPredicated));
  EXPECT_TRUE(SimdTierSupported(ActiveSimdTier()));
  EXPECT_TRUE(SimdTierSupported(BestSupportedSimdTier()));
}

}  // namespace
}  // namespace crackstore
