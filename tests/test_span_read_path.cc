// Copyright 2026 The CrackStore Authors
//
// Parity suite for the zero-materialization read path: OidSpanSet answers
// must describe exactly the same qualifying rows as the materialized oid
// lists, and the pushed-down aggregate kernels must reproduce the
// materialize-then-loop oracle bit for bit — across strategies, crack
// policies, SIMD tiers, and snapshot states. Randomized sessions print
// their seed; reproduce with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "core/oid_span_set.h"
#include "core/simd_dispatch.h"
#include "core/sorted_column.h"
#include "storage/bat.h"
#include "storage/relation.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

/// Base seed of the randomized sessions, overridable for reproduction.
uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// ---------------------------------------------------------------------------
// OidSpanSet structure.
// ---------------------------------------------------------------------------

TEST(OidSpanSetTest, AddSpanCoalescesAdjacent) {
  OidSpanSet set;
  set.BindIdentity(100);
  set.AddSpan(0, 10);
  set.AddSpan(10, 20);  // adjacent: coalesces
  set.AddSpan(25, 30);
  EXPECT_EQ(set.num_spans(), 2u);
  EXPECT_EQ(set.span_rows(), 25u);
  EXPECT_EQ(set.count(), 25u);
  std::vector<Oid> oids = set.ToOids();
  ASSERT_EQ(oids.size(), 25u);
  EXPECT_EQ(oids.front(), 100u);
  EXPECT_EQ(oids[19], 119u);
  EXPECT_EQ(oids[20], 125u);
  EXPECT_EQ(oids.back(), 129u);
}

TEST(OidSpanSetTest, ExceptionsAndExtras) {
  OidSpanSet set;
  set.BindIdentity(0);
  set.AddSpan(10, 20);
  set.MarkException(0);  // oid 10
  set.MarkException(5);  // oid 15
  set.MarkException(5);  // idempotent
  set.AddExtra(100);
  set.AddExtra(3);
  EXPECT_EQ(set.exceptions(), 2u);
  EXPECT_EQ(set.extras(), 2u);
  EXPECT_EQ(set.count(), 10u - 2u + 2u);
  std::vector<Oid> oids = set.ToOids();
  std::vector<Oid> expect{3, 11, 12, 13, 14, 16, 17, 18, 19, 100};
  EXPECT_EQ(oids, expect);
}

TEST(OidSpanSetTest, FromMatchBitmapFindsRuns) {
  const size_t n = 200;
  std::vector<uint64_t> bm(BitmapWords(n), 0);
  for (size_t i = 10; i < 20; ++i) BitmapSet(bm.data(), i);
  for (size_t i = 63; i < 66; ++i) BitmapSet(bm.data(), i);  // word straddle
  BitmapSet(bm.data(), 199);
  OidSpanSet set = OidSpanSet::FromMatchBitmap(bm.data(), n, /*base=*/1000);
  EXPECT_EQ(set.num_spans(), 3u);
  EXPECT_EQ(set.count(), 14u);
  std::vector<Oid> oids = set.ToOids();
  ASSERT_EQ(oids.size(), 14u);
  EXPECT_EQ(oids.front(), 1010u);
  EXPECT_EQ(oids[10], 1063u);
  EXPECT_EQ(oids.back(), 1199u);
}

TEST(OidSpanSetTest, IdentityIntersections) {
  OidSpanSet a;
  a.BindIdentity(0);
  a.AddSpan(0, 50);
  a.AddSpan(80, 120);
  OidSpanSet b;
  b.BindIdentity(0);
  b.AddSpan(40, 90);
  OidSpanSet both = IntersectIdentitySpanSets(a, b);
  EXPECT_EQ(both.count(), 10u + 10u);  // [40,50) + [80,90)
}

// A permuted set over a shuffled oid map of `map_rows` oids starting at
// `first_oid`: spans with starts and lengths that are not multiples of 64,
// scattered exceptions and unsorted extras. `rows` receives the set's rows
// in layout order, the per-row reference every block consumer must match.
OidSpanSet ScatteredSet(Pcg32* rng, size_t map_rows, Oid first_oid,
                        std::vector<Oid>* rows) {
  std::vector<Oid> map(map_rows);
  for (size_t i = 0; i < map_rows; ++i) map[i] = first_oid + i;
  for (size_t i = map_rows; i > 1; --i) {
    std::swap(map[i - 1], map[rng->NextBounded(static_cast<uint32_t>(i))]);
  }
  OidSpanSet set;
  set.BindOidMap(Bat::FromVector<Oid>(map));
  std::vector<Oid> spanned;
  for (size_t p = rng->NextBounded(70); p < map_rows;) {
    const size_t end = std::min(map_rows, p + 1 + rng->NextBounded(150));
    set.AddSpan(p, end);
    spanned.insert(spanned.end(), map.begin() + p, map.begin() + end);
    p = end + 1 + rng->NextBounded(90);
  }
  rows->clear();
  for (size_t i = 0; i < spanned.size(); ++i) {
    if (rng->NextBounded(5) == 0) {
      set.MarkException(i);
    } else {
      rows->push_back(spanned[i]);
    }
  }
  for (int e = 0; e < 70; ++e) {
    const Oid extra = first_oid + map_rows + rng->NextBounded(1000);
    if (std::find(rows->begin(), rows->end(), extra) != rows->end()) continue;
    set.AddExtra(extra);
    rows->push_back(extra);
  }
  return set;
}

// The block walk hands out exactly the per-row walk's rows, in layout
// order: no span block crosses a word of the exception bitmap, and the
// live mask carries the exceptions.
TEST(OidSpanSetTest, BlocksMatchThePerRowWalk) {
  Pcg32 rng(TestSeed(2201));
  for (Oid first_oid : {Oid{0}, Oid{777}, (Oid{1} << 33) + 5}) {
    std::vector<Oid> want;
    OidSpanSet set = ScatteredSet(&rng, 3000, first_oid, &want);
    std::vector<Oid> got;
    set.ForEachBlock([&](const OidBlock& block) {
      ASSERT_GE(block.n, 1u);
      ASSERT_LE(block.n, kBlockRows);
      ASSERT_EQ(block.live & ~BlockMask(block.n), 0u);
      ASSERT_NE(block.live, 0u);  // all-exception blocks are skipped
      for (uint64_t m = block.live; m != 0; m &= m - 1) {
        got.push_back(block.oids[__builtin_ctzll(m)]);
      }
    });
    EXPECT_EQ(got, want);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(set.ToOids(), want);
    EXPECT_EQ(set.count(), want.size());
  }
  // Identity spans: every block sits inside one bitmap word.
  OidSpanSet ident;
  ident.BindIdentity(1000);
  ident.AddSpan(5, 70);
  ident.AddSpan(71, 200);
  ident.MarkException(0);   // oid 1005
  ident.MarkException(65);  // oid 1071, the second span's first row
  std::vector<size_t> sizes;
  std::vector<Oid> oids;
  ident.ForEachBlock([&](const OidBlock& block) {
    sizes.push_back(block.n);
    for (uint64_t m = block.live; m != 0; m &= m - 1) {
      oids.push_back(block.oids[__builtin_ctzll(m)]);
    }
  });
  EXPECT_EQ(sizes, (std::vector<size_t>{64, 1, 63, 64, 2}));
  EXPECT_EQ(oids, ident.ToOids());
  EXPECT_EQ(oids.size(), 194u - 2u);
}

// Narrow keeps exactly the rows a per-row filter keeps: failing span rows
// become exceptions (rows already excluded stay excluded and are not
// counted twice), failing extras drop out.
TEST(OidSpanSetTest, NarrowMatchesAPerRowFilter) {
  Pcg32 rng(TestSeed(2202));
  for (Oid first_oid : {Oid{0}, Oid{4099}, (Oid{1} << 40) + 3}) {
    std::vector<Oid> rows;
    OidSpanSet set = ScatteredSet(&rng, 2500, first_oid, &rows);
    auto keep = [](Oid oid) { return oid % 3 != 1; };
    set.Narrow([&](const OidBlock& block) {
      uint64_t pass = 0;
      for (size_t i = 0; i < block.n; ++i) {
        pass |= uint64_t{keep(block.oids[i])} << i;
      }
      return pass;
    });
    std::vector<Oid> want;
    for (Oid oid : rows) {
      if (keep(oid)) want.push_back(oid);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(set.count(), want.size());
    EXPECT_EQ(set.ToOids(), want);
  }
}

// ToOids orders a permuted answer exactly like std::sort, below and above
// the radix cutoff, for oid ranges that need one to six 11-bit digits and
// for oids above 2^32.
TEST(OidSpanSetTest, ToOidsSortsLikeStdSort) {
  Pcg32 rng(TestSeed(2203));
  for (size_t n : {size_t{1}, size_t{2}, kRadixSortMinOids - 1,
                   kRadixSortMinOids, kRadixSortMinOids + 1, size_t{6000},
                   size_t{70000}}) {
    for (int bits : {8, 11, 12, 22, 23, 34, 45, 56, 64}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " bits=" + std::to_string(bits));
      const Oid base = bits == 64 ? 0 : (Oid{1} << 32) + 17;
      std::vector<Oid> map(n);
      for (Oid& oid : map) {
        const uint64_t r = rng.NextU64();
        oid = base + (bits == 64 ? r : r & ((uint64_t{1} << bits) - 1));
      }
      if (bits == 64 && n > 2) {
        map[0] = 0;
        map[1] = ~Oid{0};
      }
      OidSpanSet set;
      set.BindOidMap(Bat::FromVector<Oid>(map));
      set.AddSpan(0, n);
      std::vector<Oid> want = map;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(set.ToOids(), want);
      std::vector<Oid> direct = map;
      SortOids(&direct);
      ASSERT_EQ(direct, want);
    }
  }
}

// Coarse and progressive answers whose bounds land inside uncracked pieces
// are their conservative span with every value miss marked as an exception;
// deltas then add exception bits (tombstones) and extras (pending inserts).
TEST(AccessPathSpanTest, FuzzyAnswerIsOneSpanWithValueMissExceptions) {
  const size_t n = 20000;
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i + 1);
  Pcg32 rng(TestSeed(77));
  Shuffle(&values, &rng);
  for (CrackPolicy policy : {CrackPolicy::kCoarse, CrackPolicy::kProgressive}) {
    SCOPED_TRACE(CrackPolicyName(policy));
    auto bat = Bat::FromVector(values, "c");
    AccessPathConfig config;
    config.strategy = AccessStrategy::kCrack;
    config.policy.policy = policy;
    config.policy.min_piece_size = 2 * n;     // coarse: never cracks
    config.policy.progressive_budget = 0.01;  // progressive: stays open
    config.delta_merge.policy = DeltaMergePolicy::kThreshold;
    config.delta_merge.threshold_fraction = 0.5;  // deltas stay pending
    AccessPathConfig scan_config = config;
    scan_config.strategy = AccessStrategy::kScan;
    auto path = CreateColumnAccessPath(bat, config);
    auto scan = CreateColumnAccessPath(bat, scan_config);
    ASSERT_TRUE(path.ok() && scan.ok());
    const RangeBounds range = RangeBounds::Closed(5000, 5999);
    auto expect_fuzzy = [&](uint64_t extras) {
      AccessSelection sel = (*path)->Select(range, Delivery::kView, nullptr);
      AccessSelection ref = (*scan)->Select(range, Delivery::kView, nullptr);
      EXPECT_EQ(sel.count, ref.count);
      EXPECT_EQ(sel.span_set.num_spans(), 1u);
      EXPECT_GT(sel.span_set.exceptions(), 0u);
      EXPECT_EQ(sel.span_set.extras(), extras);
      EXPECT_EQ(sel.span_set.ToOids(), ref.span_set.ToOids());
      return sel;
    };
    expect_fuzzy(0);

    const Oid victim = static_cast<Oid>(
        std::find(values.begin(), values.end(), 5500) - values.begin());
    ASSERT_TRUE((*path)->Delete(victim).ok());
    ASSERT_TRUE((*scan)->Delete(victim).ok());
    const Oid inserted = n;
    bat->Append<int64_t>(5501);
    ASSERT_TRUE((*path)->Insert(Value(int64_t{5501}), inserted).ok());
    ASSERT_TRUE((*scan)->Insert(Value(int64_t{5501}), inserted).ok());
    ASSERT_EQ((*path)->pending_inserts(), 1u);
    AccessSelection sel = expect_fuzzy(1);
    EXPECT_EQ(sel.span_set.extra_oids(), std::vector<Oid>{inserted});
    ASSERT_EQ(sel.span_set.num_spans(), 1u);
    const OidSpan span = sel.span_set.spans()[0];
    const Oid* map = sel.span_set.oid_map()->TailData<Oid>();
    const size_t pos = static_cast<size_t>(
        std::find(map + span.begin, map + span.end, victim) -
        (map + span.begin));
    ASSERT_LT(pos, span.size());
    EXPECT_TRUE(sel.span_set.IsException(pos));
  }
}

// ---------------------------------------------------------------------------
// SIMD tier bit-identity for the aggregate kernels.
// ---------------------------------------------------------------------------

template <typename T>
void ExpectAggEqual(const SpanAggregates& a, const SpanAggregates& b,
                    const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.sum_i, b.sum_i) << what;
  EXPECT_EQ(a.min_i, b.min_i) << what;
  EXPECT_EQ(a.max_i, b.max_i) << what;
  // Doubles must be bit-identical (canonical accumulation order), not
  // merely approximately equal.
  EXPECT_EQ(a.sum_d, b.sum_d) << what;
  EXPECT_EQ(a.min_d, b.min_d) << what;
  EXPECT_EQ(a.max_d, b.max_d) << what;
}

template <typename T>
void TierParityOver(const std::vector<T>& data, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<uint64_t> bm(BitmapWords(data.size()), 0);
  for (size_t i = 0; i < data.size(); ++i) {
    if (rng.NextBounded(3) != 0) BitmapSet(bm.data(), i);
  }
  SpanAggregates base =
      AggregateSpanTier(data.data(), data.size(), SimdTier::kScalar);
  SpanAggregates base_masked = AggregateSpanMaskedTier(
      data.data(), data.size(), bm.data(), SimdTier::kScalar);
  for (SimdTier tier : {SimdTier::kPredicated, SimdTier::kAvx2,
                        SimdTier::kNeon}) {
    if (!SimdTierSupported(tier)) continue;
    ExpectAggEqual<T>(base,
                      AggregateSpanTier(data.data(), data.size(), tier),
                      std::string("plain tier ") + SimdTierName(tier));
    ExpectAggEqual<T>(base_masked,
                      AggregateSpanMaskedTier(data.data(), data.size(),
                                              bm.data(), tier),
                      std::string("masked tier ") + SimdTierName(tier));
  }
}

TEST(AggregateKernelTest, TiersBitIdentical) {
  uint64_t seed = TestSeed(1105);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  // Sizes straddle vector widths, bitmap words, and the empty case.
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{65},
                   size_t{1000}, size_t{4096}, size_t{4105}}) {
    std::vector<int32_t> v32(n);
    std::vector<int64_t> v64(n);
    std::vector<double> vd(n);
    for (size_t i = 0; i < n; ++i) {
      v32[i] = static_cast<int32_t>(rng.NextInRange(-100000, 100000));
      v64[i] = rng.NextInRange(-1000000, 1000000) * 1000003;
      vd[i] = static_cast<double>(rng.NextInRange(-1000000, 1000000)) / 7.0;
    }
    TierParityOver(v32, seed + n);
    TierParityOver(v64, seed + n + 1);
    TierParityOver(vd, seed + n + 2);
  }
}

// ---------------------------------------------------------------------------
// Span answers vs materialized answers, and aggregate pushdown vs the
// select-then-loop oracle, across strategy × policy × concurrency ×
// snapshot state.
// ---------------------------------------------------------------------------

struct SpanRow {
  int64_t c0;
  int64_t c1;
  bool live = true;
};

class SpanReadPathTest
    : public ::testing::TestWithParam<
          std::tuple<AccessStrategy, CrackPolicy, bool>> {};

TEST_P(SpanReadPathTest, RandomizedParityWithOracle) {
  auto [strategy, policy, concurrent] = GetParam();
  uint64_t seed = TestSeed(1106) + static_cast<uint64_t>(strategy) * 31 +
                  static_cast<uint64_t>(policy) * 7 + (concurrent ? 3 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  DbOptions opts;
  opts.strategy = strategy;
  opts.policy.policy = policy;
  opts.policy.min_piece_size = 64;
  opts.concurrent = concurrent;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;

  const size_t n0 = 1200;
  const int64_t domain = 2000;
  Pcg32 rng(seed);
  auto rel = *Relation::Create(
      "R", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
  std::vector<SpanRow> rows;
  for (size_t i = 0; i < n0; ++i) {
    SpanRow row{rng.NextInRange(1, domain), rng.NextInRange(1, domain)};
    ASSERT_TRUE(rel->AppendRow({Value(row.c0), Value(row.c1)}).ok());
    rows.push_back(row);
  }
  ASSERT_TRUE(store.AddTable(rel).ok());

  auto oracle_oids = [&](const RangeBounds& r) {
    std::vector<Oid> oids;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].live && r.Contains(rows[i].c0)) {
        oids.push_back(static_cast<Oid>(i));
      }
    }
    return oids;
  };
  auto oracle_agg = [&](const RangeBounds& r) {
    ColumnAggregates agg;
    for (const SpanRow& row : rows) {
      if (!row.live || !r.Contains(row.c0)) continue;
      ++agg.rows;
      agg.sum = static_cast<int64_t>(static_cast<uint64_t>(agg.sum) +
                                     static_cast<uint64_t>(row.c0));
      if (!agg.has_minmax) {
        agg.min = agg.max = row.c0;
        agg.has_minmax = true;
      } else {
        agg.min = std::min(agg.min, row.c0);
        agg.max = std::max(agg.max, row.c0);
      }
    }
    return agg;
  };
  auto random_range = [&]() {
    int64_t lo = rng.NextInRange(-20, domain + 20);
    return RangeBounds::Closed(lo, lo + rng.NextInRange(0, domain / 2));
  };

  for (int op = 0; op < 100; ++op) {
    uint32_t dice = rng.NextBounded(100);
    if (dice < 40) {
      // Selection parity: count, the span set and CollectOids must all
      // agree with the oracle, in every cell of the matrix.
      RangeBounds range = random_range();
      auto qr = store.SelectRange("R", "c0", range, Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      std::vector<Oid> expect = oracle_oids(range);
      ASSERT_EQ(qr->count, expect.size()) << "op " << op;
      EXPECT_EQ(qr->span_set.count(), qr->count) << "op " << op;
      EXPECT_EQ(qr->span_set.ToOids(), expect) << "op " << op;
      EXPECT_EQ(qr->CollectOids(), expect) << "op " << op;
      // A shared store's crack answers leave detached from the column.
      EXPECT_EQ(qr->span_set.detached(),
                concurrent && strategy == AccessStrategy::kCrack)
          << "op " << op;
    } else if (dice < 65) {
      // Aggregate pushdown parity (bit-identical to the oracle loop). Only
      // progressive cracks may refuse (their budget forbids exact cuts) —
      // the SQL layer falls back.
      RangeBounds range = random_range();
      auto agg = store.AggregateRange("R", "c0", range);
      if (agg.ok()) {
        ColumnAggregates expect = oracle_agg(range);
        ASSERT_EQ(agg->rows, expect.rows) << "op " << op;
        EXPECT_EQ(agg->sum, expect.sum) << "op " << op;
        ASSERT_EQ(agg->has_minmax, expect.has_minmax) << "op " << op;
        if (expect.has_minmax) {
          EXPECT_EQ(agg->min, expect.min) << "op " << op;
          EXPECT_EQ(agg->max, expect.max) << "op " << op;
        }
      } else {
        EXPECT_TRUE(agg.status().IsUnimplemented()) << agg.status().ToString();
        EXPECT_TRUE(strategy == AccessStrategy::kCrack &&
                    policy == CrackPolicy::kProgressive)
            << agg.status().ToString();
      }
    } else if (dice < 75) {
      // Conjunction parity (kView answers stay sorted ascending).
      RangeBounds r0 = random_range();
      RangeBounds r1 = random_range();
      auto qr = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}},
                                        Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      std::vector<Oid> expect;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].live && r0.Contains(rows[i].c0) &&
            r1.Contains(rows[i].c1)) {
          expect.push_back(static_cast<Oid>(i));
        }
      }
      ASSERT_EQ(qr->count, expect.size()) << "op " << op;
      EXPECT_EQ(qr->span_set.count(), qr->count) << "op " << op;
      EXPECT_EQ(qr->CollectOids(), expect) << "op " << op;
    } else if (dice < 88) {
      SpanRow row{rng.NextInRange(1, domain), rng.NextInRange(1, domain)};
      auto qr = store.Insert("R", {Value(row.c0), Value(row.c1)});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      rows.push_back(row);
    } else {
      int64_t lo = rng.NextInRange(1, domain);
      RangeBounds range = RangeBounds::Closed(lo, lo + 4);
      auto qr = store.Delete("R", {{"c0", range}});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      for (SpanRow& row : rows) {
        if (row.live && range.Contains(row.c0)) row.live = false;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Serial, SpanReadPathTest,
    ::testing::Combine(
        ::testing::Values(AccessStrategy::kCrack, AccessStrategy::kSort,
                          AccessStrategy::kScan),
        ::testing::Values(CrackPolicy::kStandard, CrackPolicy::kStochastic,
                          CrackPolicy::kCoarse, CrackPolicy::kAuto,
                          CrackPolicy::kProgressive),
        ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    Concurrent, SpanReadPathTest,
    ::testing::Combine(
        ::testing::Values(AccessStrategy::kCrack, AccessStrategy::kScan),
        ::testing::Values(CrackPolicy::kStandard, CrackPolicy::kStochastic,
                          CrackPolicy::kCoarse, CrackPolicy::kAuto,
                          CrackPolicy::kProgressive),
        ::testing::Values(true)));

// ---------------------------------------------------------------------------
// Snapshot divergence: an old snapshot's pushdown must fold overrides and
// hide rows exactly like its materialized read does.
// ---------------------------------------------------------------------------

TEST(SpanReadPathSnapshotTest, AggregatePushdownHonorsSnapshots) {
  DbOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
  for (int64_t v = 1; v <= 100; ++v) {
    ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  // Warm the cracker so the snapshot read sees a cracked column.
  ASSERT_TRUE(store.SelectRange("R", "c0", RangeBounds::Closed(20, 60)).ok());

  TxnId old_snap = *store.Begin();
  // Make the old snapshot diverge: bump a band, delete another.
  ASSERT_TRUE(
      store.Update("R", {{"c0", Value(int64_t{1000})}},
                   {{"c0", RangeBounds::Closed(10, 19)}})
          .ok());
  ASSERT_TRUE(store.Delete("R", {{"c0", RangeBounds::Closed(30, 39)}}).ok());

  // Old snapshot: still sees 1..100 intact.
  auto agg_old = store.AggregateRange("R", "c0", RangeBounds::Closed(1, 100),
                                      old_snap);
  ASSERT_TRUE(agg_old.ok()) << agg_old.status().ToString();
  EXPECT_EQ(agg_old->rows, 100u);
  EXPECT_EQ(agg_old->sum, 5050);
  EXPECT_EQ(agg_old->min, 1);
  EXPECT_EQ(agg_old->max, 100);

  // Latest: 10..19 moved to 1000 (out of range), 30..39 gone.
  auto agg_new = store.AggregateRange("R", "c0", RangeBounds::Closed(1, 100));
  ASSERT_TRUE(agg_new.ok()) << agg_new.status().ToString();
  EXPECT_EQ(agg_new->rows, 80u);
  EXPECT_EQ(agg_new->sum, 5050 - (10 + 19) * 10 / 2 - (30 + 39) * 10 / 2);
  // And the unbounded variant picks the relocated band back up.
  auto agg_all = store.AggregateRange("R", "c0", TypedRange::All());
  ASSERT_TRUE(agg_all.ok()) << agg_all.status().ToString();
  EXPECT_EQ(agg_all->rows, 90u);
  EXPECT_EQ(agg_all->max, 1000);
  ASSERT_TRUE(store.Commit(old_snap).ok());
}

// A kView answer on a sort store places each hidden row in its span by one
// binary search on the row's value and a walk of that value's run, never by
// walking the span: it matches the scan strategy and reads at most
// marked·(⌈log2 n⌉+1) + pending + 2⌈log2 n⌉ tuples.
TEST(SpanReadPathSnapshotTest, SortViewFindsHiddenRowsByValue) {
  TapestryOptions topts;
  topts.num_rows = 50000;
  topts.num_columns = 2;
  topts.seed = 1;
  DbOptions opts;
  opts.strategy = AccessStrategy::kSort;
  auto sort_db = *AdaptiveStore::Open(opts);
  opts.strategy = AccessStrategy::kScan;
  auto scan_db = *AdaptiveStore::Open(opts);
  for (AdaptiveStore* store : {sort_db.get(), scan_db.get()}) {
    ASSERT_TRUE(store->AddTable(*BuildTapestry("R", topts)).ok());
    // The first select builds the sorted copy.
    ASSERT_TRUE(
        store->SelectRange("R", "c0", RangeBounds::Closed(1, 100)).ok());
    ASSERT_TRUE(
        store->Delete("R", {{"c0", RangeBounds::Closed(19000, 19009)}}).ok());
    ASSERT_TRUE(
        store->Insert("R", {Value(int64_t{500}), Value(int64_t{7})}).ok());
  }
  const RangeBounds range = RangeBounds::Closed(100, 20000);
  auto sorted = sort_db->SelectRange("R", "c0", range, Delivery::kView);
  auto scanned = scan_db->SelectRange("R", "c0", range, Delivery::kView);
  ASSERT_TRUE(sorted.ok() && scanned.ok());
  EXPECT_EQ(sorted->count, 19901u - 10 + 1);
  EXPECT_EQ(sorted->count, scanned->count);
  const uint64_t marked = 10;
  const uint64_t pending =
      (*sort_db->AccessPathFor("R", "c0"))->pending_inserts();
  const uint64_t log2n = CeilLog2(topts.num_rows);
  EXPECT_LE(sorted->io.tuples_read,
            marked * (log2n + 1) + pending + 2 * log2n);
  EXPECT_EQ(std::move(*sorted).CollectOids(),
            std::move(*scanned).CollectOids());
}

// ---------------------------------------------------------------------------
// Cut records under the pushdown. A value-exact crack aggregate answers
// from the records at its span's two cuts minus the hidden rows it finds by
// value — with or without tombstones, active views, budgeted fusions and
// delta merges (whose replayed cracks refill the records). Every phase keeps
// bit parity with the row oracle.
// ---------------------------------------------------------------------------

/// Oracle for one int64 column: live oid -> value.
ColumnAggregates OracleAggregates(const std::map<Oid, int64_t>& live,
                                  const RangeBounds& r) {
  ColumnAggregates agg;
  for (const auto& [oid, v] : live) {
    if (!r.Contains(v)) continue;
    ++agg.rows;
    agg.sum = static_cast<int64_t>(static_cast<uint64_t>(agg.sum) +
                                   static_cast<uint64_t>(v));
    agg.min = agg.has_minmax ? std::min(agg.min, v) : v;
    agg.max = agg.has_minmax ? std::max(agg.max, v) : v;
    agg.has_minmax = true;
  }
  return agg;
}

/// The answer's values, and the record rule: a value-exact crack span is
/// answered from the records at its two cuts, so no span row is read —
/// every pushed-down row is a summary row, on a cold call too.
void ExpectSameAnswer(const ColumnAggregates& got,
                      const ColumnAggregates& want, const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  ASSERT_EQ(got.has_minmax, want.has_minmax) << what;
  if (want.has_minmax) {
    EXPECT_EQ(got.min, want.min) << what;
    EXPECT_EQ(got.max, want.max) << what;
  }
  EXPECT_EQ(got.summary_rows, got.pushdown_rows) << what;
}

class PushdownSummaryTest
    : public ::testing::TestWithParam<std::tuple<CrackPolicy, MergePolicyKind>> {
};

TEST_P(PushdownSummaryTest, PhasesKeepParityAndSummaryRules) {
  auto [policy, budget] = GetParam();
  uint64_t seed = TestSeed(1407) + static_cast<uint64_t>(policy) * 13 +
                  static_cast<uint64_t>(budget);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  const size_t n = 12 * 4096;
  const int64_t domain = 4 * static_cast<int64_t>(n);
  Pcg32 rng(seed);
  std::vector<int64_t> base(n);
  std::map<Oid, int64_t> live;
  for (size_t i = 0; i < n; ++i) {
    base[i] = rng.NextInRange(0, domain);
    live[i] = base[i];
  }
  AccessPathConfig config;
  config.policy.policy = policy;
  config.merge_budget.kind = budget;
  config.merge_budget.max_bounds = 16;
  std::shared_ptr<Bat> column = Bat::FromVector(base, "c0");
  auto made = CreateColumnAccessPath(column, config);
  ASSERT_TRUE(made.ok());
  ColumnAccessPath& path = **made;

  auto aggregate = [&](const RangeBounds& r, const std::string& what,
                       IoStats* io) {
    auto got = path.AggregateRange(r, io);
    EXPECT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    if (!got.ok()) return ColumnAggregates{};
    ExpectSameAnswer(*got, OracleAggregates(live, r), what);
    return *got;
  };
  auto random_range = [&] {
    int64_t lo = rng.NextInRange(-10, domain);
    return RangeBounds::Closed(lo, lo + rng.NextInRange(0, domain / 2));
  };
  const RangeBounds wide = RangeBounds::Closed(domain / 8, domain - domain / 8);

  // Clean: aggregates between selections (and fusions under the budget).
  // Every call reads no span row (ExpectSameAnswer); an immediate repeat
  // that cracks nothing — a budget may have fused one of its bounds, so it
  // may crack again — reads no tuple at all.
  for (int q = 0; q < 40; ++q) {
    RangeBounds r = q % 8 == 7 ? wide : random_range();
    if (rng.NextBounded(3) == 0) {
      (void)path.Select(random_range(), Delivery::kView, nullptr);
    }
    IoStats io;
    (void)aggregate(r, "clean " + std::to_string(q), &io);
    IoStats again_io;
    (void)aggregate(r, "clean repeat " + std::to_string(q), &again_io);
    if (again_io.cracks == 0) {
      EXPECT_EQ(again_io.tuples_read, 0u) << "clean repeat " << q;
    }
  }
  EXPECT_GT(aggregate(wide, "clean wide", nullptr).pushdown_rows, 0u);

  // Tombstones (updates leave the old row tombstoned and its new value
  // pending): answers still come from the records and take the tombstoned
  // rows out by value.
  for (int i = 0; i < 20; ++i) {
    Oid oid = rng.NextBounded(static_cast<uint32_t>(n));
    int64_t v = live[oid] + 1;
    // The owner's contract: base slot first, then the path.
    ASSERT_TRUE(column->SetNumeric(oid, v).ok());
    ASSERT_TRUE(path.Update(oid, Value(live[oid]), Value(v)).ok());
    live[oid] = v;
  }
  ASSERT_GT(path.pending_deletes(), 0u);
  for (int q = 0; q < 15; ++q) {
    RangeBounds r = q % 5 == 0 ? wide : random_range();
    (void)aggregate(r, "tombstones " + std::to_string(q), nullptr);
  }
  // The wide range under tombstones, twice: a merge budget may fuse cuts
  // after the first call, and the repeat still reads no span row.
  (void)aggregate(wide, "tombstones wide", nullptr);
  (void)aggregate(wide, "tombstones wide, repeat", nullptr);

  // A delta merge builds a new index whose replayed cracks fill its
  // records: the first call after it answers all span rows from them.
  ASSERT_TRUE(path.FlushDeltas().ok());
  ASSERT_EQ(path.pending_deletes() + path.pending_inserts(), 0u);
  EXPECT_GT(aggregate(wide, "after merge", nullptr).pushdown_rows, 0u);
  (void)aggregate(wide, "after merge, repeat", nullptr);

  // Pending inserts alone keep the clean branch; the pending fold adds them.
  Oid next = n;
  for (int i = 0; i < 30; ++i) {
    int64_t v = rng.NextInRange(0, domain);
    ASSERT_TRUE(path.Insert(Value(v), next).ok());
    live[next++] = v;
  }
  ASSERT_GT(path.pending_inserts(), 0u);
  ASSERT_EQ(path.pending_deletes(), 0u);
  (void)aggregate(wide, "pending", nullptr);
  for (int q = 0; q < 15; ++q) {
    (void)aggregate(random_range(), "pending " + std::to_string(q), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PushdownSummaryTest,
    ::testing::Combine(::testing::Values(CrackPolicy::kStandard,
                                         CrackPolicy::kStochastic,
                                         CrackPolicy::kCoarse),
                       ::testing::Values(MergePolicyKind::kNone,
                                         MergePolicyKind::kLeastRecentlyUsed,
                                         MergePolicyKind::kSmallestPieces)));

TEST(SpanReadPathSummaryTest, ActiveViewsKeepSummaries) {
  const size_t n = 12 * 4096;
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "serial");
    DbOptions opts;
    opts.concurrent = concurrent;
    auto db = *AdaptiveStore::Open(opts);
    AdaptiveStore& store = *db;
    auto rel = *Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
    std::map<Oid, int64_t> live;
    Pcg32 rng(1408);
    for (size_t i = 0; i < n; ++i) {
      int64_t v = rng.NextInRange(0, 4 * static_cast<int64_t>(n));
      ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
      live[i] = v;
    }
    ASSERT_TRUE(store.AddTable(rel).ok());
    const RangeBounds wide = RangeBounds::Closed(static_cast<int64_t>(n) / 2,
                                                 static_cast<int64_t>(3 * n));
    for (int q = 0; q < 2; ++q) {
      auto agg = store.AggregateRange("R", "c0", wide);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      // The cold call's cracks fill the records it reads, so it reads no
      // span row either, even through a concurrent store's always-active
      // view (ExpectSameAnswer).
      ExpectSameAnswer(*agg, OracleAggregates(live, wide), "before writes");
      EXPECT_GT(agg->pushdown_rows, 0u);
    }
    // After the first write every statement reads through an active view,
    // and the hidden rows come out of the span's records by value.
    TxnId old_snap = *store.Begin();
    ASSERT_TRUE(store.Insert("R", {Value(int64_t{2 * n})}).ok());
    ASSERT_TRUE(store.Delete("R", {{"c0", RangeBounds::Closed(
                                              static_cast<int64_t>(n),
                                              static_cast<int64_t>(n + 40))}})
                    .ok());
    std::map<Oid, int64_t> old_live = live;
    live[n] = static_cast<int64_t>(2 * n);
    for (auto it = live.begin(); it != live.end();) {
      const bool dead = it->second >= static_cast<int64_t>(n) &&
                        it->second <= static_cast<int64_t>(n + 40);
      it = dead ? live.erase(it) : std::next(it);
    }
    for (int q = 0; q < 2; ++q) {
      auto agg = store.AggregateRange("R", "c0", wide);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      ExpectSameAnswer(*agg, OracleAggregates(live, wide), "after a write");
      EXPECT_GT(agg->pushdown_rows, 0u);
      auto old_agg = store.AggregateRange("R", "c0", wide, old_snap);
      ASSERT_TRUE(old_agg.ok()) << old_agg.status().ToString();
      ExpectSameAnswer(*old_agg, OracleAggregates(old_live, wide),
                       "older snapshot");
      EXPECT_GT(old_agg->pushdown_rows, 0u);
    }
    ASSERT_TRUE(store.Commit(old_snap).ok());
  }
}

TEST(SpanReadPathSummaryTest, SharedLatchCallersReduceThroughSummaries) {
  const size_t n = 16 * 4096;
  const int64_t domain = 4 * static_cast<int64_t>(n);
  std::vector<int64_t> base(n);
  std::map<Oid, int64_t> live;
  Pcg32 rng(1409);
  for (size_t i = 0; i < n; ++i) {
    base[i] = rng.NextInRange(0, domain);
    live[i] = base[i];
  }
  AccessPathConfig config;
  config.concurrent = true;
  auto made = CreateColumnAccessPath(Bat::FromVector(base, "c0"), config);
  ASSERT_TRUE(made.ok());
  ColumnAccessPath& path = **made;
  // The owner builds the accelerator under its exclusive latch; after that
  // aggregates run under the shared one, beside cracking selections.
  (void)path.Select(RangeBounds::Closed(0, domain / 2), Delivery::kView,
                    nullptr);
  ASSERT_TRUE(path.SharedSelectReady());
  std::vector<RangeBounds> ranges;
  std::vector<ColumnAggregates> want;
  for (int i = 0; i < 8; ++i) {
    int64_t lo = rng.NextInRange(0, domain / 2);
    ranges.push_back(RangeBounds::Closed(lo, lo + domain / 3));
    want.push_back(OracleAggregates(live, ranges.back()));
  }
  std::vector<std::thread> threads;
  std::vector<uint64_t> summary_rows(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 local(1410 + t);
      for (int q = 0; q < 40; ++q) {
        size_t i = local.NextBounded(static_cast<uint32_t>(ranges.size()));
        if (t == 0 && q % 4 == 0) {
          int64_t lo = local.NextInRange(0, domain);
          (void)path.Select(RangeBounds::Closed(lo, lo + 1000),
                            Delivery::kView, nullptr);
        }
        auto agg = path.AggregateRange(ranges[i], nullptr);
        ASSERT_TRUE(agg.ok()) << agg.status().ToString();
        ExpectSameAnswer(*agg, want[i], "shared " + std::to_string(q));
        summary_rows[t] += agg->summary_rows;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  uint64_t total = 0;
  for (uint64_t s : summary_rows) total += s;
  EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------------
// Hidden extremes. A value-exact aggregate keeps its cut records under
// an active view and subtracts the hidden rows it finds by value; when a
// hidden row holds the span's MIN or MAX, only the piece holding it is
// rescanned. Every way a row hides is covered — a version-stamped delete, an
// update whose old copy is tombstoned in the span, rows appended past an
// older snapshot's horizon — plus a duplicated extreme with one copy hidden.
// ---------------------------------------------------------------------------

TEST(SpanReadPathSummaryTest, HiddenExtremesRescanOnlyTheirPiece) {
  const size_t n = 12 * 4096;
  // kThreshold: these few writes never merge.
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
  // Even values 2..2n, each once.
  auto perm = BuildPermutationColumn(n, 1411);
  std::map<Oid, int64_t> latest;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = 2 * perm->Get<int64_t>(i);
    ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
    latest[i] = v;
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  const RangeBounds span = RangeBounds::Closed(999, 40000);
  auto extreme = [&](bool want_min) {
    int64_t best = want_min ? INT64_MAX : INT64_MIN;
    for (const auto& [oid, v] : latest) {
      if (!span.Contains(v)) continue;
      best = want_min ? std::min(best, v) : std::max(best, v);
    }
    return best;
  };
  auto forget = [&](int64_t v) {
    for (auto it = latest.begin(); it != latest.end();) {
      it = it->second == v ? latest.erase(it) : std::next(it);
    }
  };
  // An older snapshot, then two rows appended past its horizon before the
  // column is first read: the lazy build puts both into the cracker column.
  // 999 is a new minimum of the span; 1000 duplicates the old minimum.
  TxnId old_snap = *store.Begin();
  std::map<Oid, int64_t> old_rows = latest;
  for (int64_t v : {int64_t{999}, int64_t{1000}}) {
    auto ins = store.Insert("R", {Value(v)});
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    latest[ins->inserted_oid] = v;
  }
  const Oid dup_oid = n + 1;
  // Crack the span into several pieces.
  for (int64_t lo : {int64_t{5000}, int64_t{15000}, int64_t{25000}}) {
    ASSERT_TRUE(
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 4999)).ok());
  }
  ASSERT_TRUE(store.AggregateRange("R", "c0", span).ok());

  auto check = [&](const std::string& what) {
    for (bool old : {false, true}) {
      SCOPED_TRACE(what + (old ? " (older snapshot)" : " (latest)"));
      auto agg = store.AggregateRange("R", "c0", span,
                                      old ? old_snap : kNoTxn);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      ExpectSameAnswer(*agg, OracleAggregates(old ? old_rows : latest, span),
                       what);
      // The span comes from its records; only the edge pieces holding a
      // hidden extreme are ever rescanned.
      EXPECT_LT(agg->io.tuples_read, agg->pushdown_rows / 2);
    }
  };
  check("rows past the older snapshot's horizon");  // its MIN is hidden

  // A version-stamped delete of the span's MAX (the old snapshot keeps it).
  int64_t max = extreme(/*want_min=*/false);
  ASSERT_TRUE(store.Delete("R", {{"c0", RangeBounds::Equal(max)}}).ok());
  forget(max);
  check("deleted MAX");

  // An update moves the new MAX out of the span: its old copy stays in the
  // span, tombstoned; the old snapshot re-admits it at its old value.
  max = extreme(/*want_min=*/false);
  ASSERT_TRUE(store.Update("R", {{"c0", Value(int64_t{1})}},
                           {{"c0", RangeBounds::Equal(max)}})
                  .ok());
  for (auto& [oid, v] : latest) {
    if (v == max) v = 1;
  }
  check("updated-away MAX");

  // The MIN deleted, then a duplicated MIN with one copy hidden, then with
  // both.
  ASSERT_TRUE(store.Delete("R", {{"c0", RangeBounds::Equal(999)}}).ok());
  forget(999);
  check("deleted MIN");
  ASSERT_TRUE(store.DeleteOids("R", {dup_oid}).ok());
  latest.erase(dup_oid);
  ASSERT_EQ(extreme(/*want_min=*/true), 1000);
  check("duplicated MIN, one copy hidden");
  ASSERT_TRUE(store.Delete("R", {{"c0", RangeBounds::Equal(1000)}}).ok());
  forget(1000);
  check("duplicated MIN, both copies hidden");
  ASSERT_TRUE(store.Commit(old_snap).ok());
}

// ---------------------------------------------------------------------------
// Hidden-candidate stream: a seeded INSERT/UPDATE/DELETE/BEGIN/COMMIT/
// ROLLBACK/VACUUM stream runs on a store answering over a value-ordered
// layout — a crack store under each pivot policy (coarse and progressive
// pieces answer from conservative spans) or a sort store — and on a scan
// store (the reference: it masks every base row), over int32, int64 and
// dictionary columns. After every step the two must agree on COUNT, SUM,
// MIN, MAX, the kView rows and the kMaterialize table, read in autocommit,
// from the open writer and from an older open reader — under every
// delta-merge policy, serial and concurrent.
// ---------------------------------------------------------------------------

/// The store a stream runs against the scan reference.
struct StreamStore {
  AccessStrategy strategy;
  CrackPolicy policy;  ///< meaningful for kCrack
};

void PrintTo(const StreamStore& s, std::ostream* os) {
  *os << AccessStrategyName(s.strategy) << "/" << CrackPolicyName(s.policy);
}

class HiddenCandidateStreamTest
    : public ::testing::TestWithParam<
          std::tuple<DeltaMergePolicy, StreamStore, bool>> {};

TEST_P(HiddenCandidateStreamTest, AnswersMatchTheScanStrategy) {
  auto [merge, kind, concurrent] = GetParam();
  const CrackPolicy policy = kind.policy;
  const uint64_t seed = TestSeed(2007) + static_cast<uint64_t>(merge) * 11 +
                        static_cast<uint64_t>(policy) * 5 +
                        (concurrent ? 1 : 0);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  const int64_t domain = 300;
  auto word = [](int64_t v) {
    return Value(StrFormat("w%03lld", static_cast<long long>(v)));
  };
  auto random_row = [&] {
    return std::vector<Value>{Value(static_cast<int32_t>(rng.NextInRange(
                                  1, domain))),
                              Value(rng.NextInRange(1, domain)),
                              word(rng.NextInRange(1, domain))};
  };
  const Schema schema({{"i", ValueType::kInt32},
                       {"l", ValueType::kInt64},
                       {"s", ValueType::kString}});
  const std::vector<std::string> columns{"i", "l", "s"};
  auto test_rel = *Relation::Create("T", schema);
  auto scan_rel = *Relation::Create("T", schema);
  for (int r = 0; r < 500; ++r) {
    std::vector<Value> row = random_row();
    ASSERT_TRUE(test_rel->AppendRow(row).ok());
    ASSERT_TRUE(scan_rel->AppendRow(row).ok());
  }
  DbOptions opts;
  opts.strategy = kind.strategy;
  opts.policy.policy = policy;
  opts.policy.min_piece_size = 32;
  opts.delta_merge.policy = merge;
  opts.delta_merge.threshold_fraction = 0.05;
  opts.concurrent = concurrent;
  auto test_db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *test_db;
  opts.strategy = AccessStrategy::kScan;
  auto scan_db = *AdaptiveStore::Open(opts);
  AdaptiveStore& scan = *scan_db;
  ASSERT_TRUE(store.AddTable(test_rel).ok());
  ASSERT_TRUE(scan.AddTable(scan_rel).ok());

  // Transactions open on both stores in lock step; ids may differ.
  struct Txn {
    TxnId store = kNoTxn;
    TxnId scan = kNoTxn;
    bool open() const { return store != kNoTxn; }
  };
  Txn writer, reader;
  auto begin = [&](Txn* t) {
    t->store = *store.Begin();
    t->scan = *scan.Begin();
  };
  auto range_on = [&](const std::string& column, int64_t width) {
    const int64_t lo = rng.NextInRange(0, domain);
    const int64_t hi = lo + rng.NextInRange(0, width);
    if (column == "s") return TypedRange::Closed(word(lo), word(hi));
    return TypedRange::Closed(Value(lo), Value(hi));
  };
  // Applies one write to both stores; outcomes must match.
  auto both = [&](const char* what, auto&& op) {
    auto a = op(&store, writer.store);
    auto b = op(&scan, writer.scan);
    ASSERT_EQ(a.ok(), b.ok()) << what;
    if (a.ok()) {
      ASSERT_EQ(a->count, b->count) << what;
    } else {
      ASSERT_EQ(a.status().code(), b.status().code()) << what;
    }
  };
  auto compare_reads = [&](const std::string& column, const TypedRange& range,
                           const Txn& txn, const std::string& what) {
    SCOPED_TRACE(what + " on " + column);
    auto count_a = store.SelectRange("T", column, range, Delivery::kCount,
                                     txn.store);
    auto count_b = scan.SelectRange("T", column, range, Delivery::kCount,
                                    txn.scan);
    ASSERT_TRUE(count_a.ok() && count_b.ok());
    ASSERT_EQ(count_a->count, count_b->count);
    auto view_a = store.SelectRange("T", column, range, Delivery::kView,
                                    txn.store);
    auto view_b = scan.SelectRange("T", column, range, Delivery::kView,
                                   txn.scan);
    ASSERT_TRUE(view_a.ok() && view_b.ok());
    ASSERT_EQ(view_a->count, count_b->count);
    ASSERT_EQ(std::move(*view_a).CollectOids(),
              std::move(*view_b).CollectOids());
    auto mat_a = store.SelectRange("T", column, range, Delivery::kMaterialize,
                                   txn.store);
    auto mat_b = scan.SelectRange("T", column, range, Delivery::kMaterialize,
                                  txn.scan);
    ASSERT_TRUE(mat_a.ok() && mat_b.ok());
    const Relation& ra = *mat_a->materialized;
    const Relation& rb = *mat_b->materialized;
    ASSERT_EQ(ra.num_rows(), rb.num_rows());
    for (size_t c = 0; c < columns.size(); ++c) {
      for (size_t r = 0; r < ra.num_rows(); ++r) {
        ASSERT_EQ(ra.column(c)->GetValue(r).ToString(),
                  rb.column(c)->GetValue(r).ToString())
            << "materialized row " << r << " column " << columns[c];
      }
    }
    if (column == "s") return;  // no string aggregate pushdown
    auto agg_a = store.AggregateRange("T", column, range, txn.store);
    auto agg_b = scan.AggregateRange("T", column, range, txn.scan);
    // Progressive cracks stay budgeted: their pushdown may decline.
    if (policy == CrackPolicy::kProgressive &&
        agg_a.status().IsUnimplemented()) {
      return;
    }
    ASSERT_TRUE(agg_a.ok()) << agg_a.status().ToString();
    ASSERT_TRUE(agg_b.ok()) << agg_b.status().ToString();
    ASSERT_EQ(agg_a->rows, agg_b->rows);
    ASSERT_EQ(agg_a->sum, agg_b->sum);
    ASSERT_EQ(agg_a->has_minmax, agg_b->has_minmax);
    if (agg_b->has_minmax) {
      ASSERT_EQ(agg_a->min, agg_b->min);
      ASSERT_EQ(agg_a->max, agg_b->max);
    }
  };
  auto contexts = [&] {
    std::vector<std::pair<Txn, std::string>> out{{Txn{}, "autocommit"}};
    if (writer.open()) out.emplace_back(writer, "writer");
    if (reader.open()) out.emplace_back(reader, "older reader");
    return out;
  };

  for (int step = 0; step < 160; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::string column = columns[rng.NextBounded(3)];
    switch (rng.NextBounded(10)) {
      case 0:
      case 1: {
        std::vector<Value> row = random_row();
        both("insert", [&](AdaptiveStore* st, TxnId txn) {
          return st->Insert("T", row, txn);
        });
        break;
      }
      case 2:
      case 3: {
        const std::string set_column = columns[rng.NextBounded(3)];
        std::vector<Value> row = random_row();
        const Value value = row[static_cast<size_t>(
            std::find(columns.begin(), columns.end(), set_column) -
            columns.begin())];
        const TypedRange where = range_on(column, 6);
        both("update", [&](AdaptiveStore* st, TxnId txn) {
          return st->Update("T", {{set_column, value}}, {{column, where}},
                            txn);
        });
        break;
      }
      case 4: {
        const TypedRange where = range_on(column, 3);
        both("delete", [&](AdaptiveStore* st, TxnId txn) {
          return st->Delete("T", {{column, where}}, txn);
        });
        break;
      }
      case 5:
        if (!writer.open()) {
          begin(&writer);
        } else if (rng.NextBounded(2) == 0) {
          const bool a = store.Commit(writer.store).ok();
          const bool b = scan.Commit(writer.scan).ok();
          ASSERT_EQ(a, b);
          writer = Txn{};
        } else {
          ASSERT_TRUE(store.Rollback(writer.store).ok());
          ASSERT_TRUE(scan.Rollback(writer.scan).ok());
          writer = Txn{};
        }
        break;
      case 6:
        if (reader.open()) {
          ASSERT_TRUE(store.Commit(reader.store).ok());
          ASSERT_TRUE(scan.Commit(reader.scan).ok());
        }
        begin(&reader);
        break;
      case 7: {
        auto a = store.Vacuum();
        auto b = scan.Vacuum();
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(a->rows_purged, b->rows_purged);
        break;
      }
      default:
        break;
    }
    // One random read every step; every column in every context every 20.
    std::vector<std::pair<Txn, std::string>> ctx = contexts();
    const auto& [txn, name] = ctx[rng.NextBounded(
        static_cast<uint32_t>(ctx.size()))];
    compare_reads(column, range_on(column, domain / 3), txn, name);
    if (step % 20 == 19) {
      for (const auto& [t, n] : ctx) {
        for (const std::string& c : columns) {
          compare_reads(c, range_on(c, domain), t, n);
        }
      }
    }
  }
  if (writer.open()) {
    ASSERT_TRUE(store.Rollback(writer.store).ok());
    ASSERT_TRUE(scan.Rollback(writer.scan).ok());
  }
  if (reader.open()) {
    ASSERT_TRUE(store.Commit(reader.store).ok());
    ASSERT_TRUE(scan.Commit(reader.scan).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HiddenCandidateStreamTest,
    ::testing::Combine(
        ::testing::Values(DeltaMergePolicy::kImmediate,
                          DeltaMergePolicy::kThreshold,
                          DeltaMergePolicy::kRippleOnSelect),
        ::testing::Values(
            StreamStore{AccessStrategy::kCrack, CrackPolicy::kStandard},
            StreamStore{AccessStrategy::kCrack, CrackPolicy::kStochastic},
            StreamStore{AccessStrategy::kCrack, CrackPolicy::kCoarse},
            StreamStore{AccessStrategy::kCrack, CrackPolicy::kProgressive},
            StreamStore{AccessStrategy::kSort, CrackPolicy::kStandard}),
        ::testing::Values(false, true)));

}  // namespace
}  // namespace crackstore
