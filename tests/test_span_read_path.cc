// Copyright 2026 The CrackStore Authors
//
// Parity suite for the zero-materialization read path: OidSpanSet answers
// must describe exactly the same qualifying rows as the materialized oid
// lists, and the pushed-down aggregate kernels must reproduce the
// materialize-then-loop oracle bit for bit — across strategies, crack
// policies, SIMD tiers, and snapshot states. Randomized sessions print
// their seed; reproduce with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "core/oid_set_ops.h"
#include "core/oid_span_set.h"
#include "core/simd_dispatch.h"
#include "storage/bat.h"
#include "storage/relation.h"
#include "util/rng.h"

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
  AdaptiveStoreOptions opts;
  opts.strategy = strategy;
  opts.policy.policy = policy;
  opts.policy.min_piece_size = 64;
  opts.concurrent = concurrent;
  AdaptiveStore store(opts);

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
      // Selection parity: count, CollectOids, and (when present) the span
      // set must all agree with the oracle.
      RangeBounds range = random_range();
      auto qr = store.SelectRange("R", "c0", range, Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      std::vector<Oid> expect = oracle_oids(range);
      ASSERT_EQ(qr->count, expect.size()) << "op " << op;
      EXPECT_EQ(qr->CollectOids(), expect) << "op " << op;
      if (qr->has_span_set) {
        EXPECT_EQ(qr->span_set.count(), qr->count) << "op " << op;
        EXPECT_EQ(qr->span_set.ToOids(), expect) << "op " << op;
      }
    } else if (dice < 65) {
      // Aggregate pushdown parity (bit-identical to the oracle loop); any
      // Unimplemented (progressive budgets, concurrent coarse pieces) is a
      // legal refusal — the SQL layer falls back.
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
      }
    } else if (dice < 75) {
      // Conjunction parity (kView answers stay sorted ascending).
      RangeBounds r0 = random_range();
      RangeBounds r1 = random_range();
      auto qr = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}},
                                        Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      uint64_t expect = 0;
      for (const SpanRow& row : rows) {
        if (row.live && r0.Contains(row.c0) && r1.Contains(row.c1)) ++expect;
      }
      ASSERT_EQ(qr->count, expect) << "op " << op;
      EXPECT_EQ(qr->CollectOids().size(), qr->count) << "op " << op;
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
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  AdaptiveStore store(opts);
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

// ---------------------------------------------------------------------------
// Piece summaries under the pushdown. The clean branch (no active view, no
// tombstones) answers from the cracker index's piece summaries; masked
// answers never do; a delta merge starts a fresh index without any. Every
// phase keeps bit parity with the row oracle.
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

void ExpectSameAnswer(const ColumnAggregates& got,
                      const ColumnAggregates& want, const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.sum, want.sum) << what;
  ASSERT_EQ(got.has_minmax, want.has_minmax) << what;
  if (want.has_minmax) {
    EXPECT_EQ(got.min, want.min) << what;
    EXPECT_EQ(got.max, want.max) << what;
  }
  EXPECT_LE(got.summary_rows, got.pushdown_rows) << what;
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
  const size_t n = 12 * CrackerIndex<int64_t>::kSummaryMinRows;
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
  auto made = CreateColumnAccessPath(Bat::FromVector(base, "c0"), config);
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
  // When an immediate repeat cracks nothing (a budget may have fused one of
  // its bounds), the rows it reports read are exactly those no summary
  // covered.
  for (int q = 0; q < 40; ++q) {
    RangeBounds r = q % 8 == 7 ? wide : random_range();
    if (rng.NextBounded(3) == 0) (void)path.Select(random_range(), false, nullptr);
    IoStats io;
    (void)aggregate(r, "clean " + std::to_string(q), &io);
    IoStats again_io;
    ColumnAggregates again =
        aggregate(r, "clean repeat " + std::to_string(q), &again_io);
    const uint64_t scanned = again.pushdown_rows - again.summary_rows;
    if (again_io.cracks == 0) {
      EXPECT_EQ(again_io.tuples_read, scanned) << "clean repeat " << q;
    } else {
      EXPECT_GT(again_io.tuples_read, scanned) << "clean repeat " << q;
    }
  }
  EXPECT_GT(aggregate(wide, "clean wide", nullptr).summary_rows, 0u);

  // Tombstones (updates leave the old row tombstoned and its new value
  // pending): every answer goes through the mask, never a summary.
  for (int i = 0; i < 20; ++i) {
    Oid oid = rng.NextBounded(static_cast<uint32_t>(n));
    int64_t v = live[oid] + 1;
    ASSERT_TRUE(path.Update(oid, Value(v)).ok());
    live[oid] = v;
  }
  ASSERT_GT(path.pending_deletes(), 0u);
  for (int q = 0; q < 15; ++q) {
    RangeBounds r = q % 5 == 0 ? wide : random_range();
    EXPECT_EQ(aggregate(r, "tombstones " + std::to_string(q), nullptr)
                  .summary_rows,
              0u)
        << "tombstones " << q;
  }

  // A delta merge builds a new index: it starts with no summaries, even
  // where the +1 updates left every piece the same size.
  ASSERT_TRUE(path.FlushDeltas().ok());
  ASSERT_EQ(path.pending_deletes() + path.pending_inserts(), 0u);
  EXPECT_EQ(aggregate(wide, "after merge", nullptr).summary_rows, 0u);
  EXPECT_GT(aggregate(wide, "after merge, repeat", nullptr).summary_rows, 0u);

  // Pending inserts alone keep the clean branch; the pending fold adds them.
  Oid next = n;
  for (int i = 0; i < 30; ++i) {
    int64_t v = rng.NextInRange(0, domain);
    ASSERT_TRUE(path.Insert(Value(v), next).ok());
    live[next++] = v;
  }
  ASSERT_GT(path.pending_inserts(), 0u);
  ASSERT_EQ(path.pending_deletes(), 0u);
  EXPECT_GT(aggregate(wide, "pending", nullptr).summary_rows, 0u);
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

TEST(SpanReadPathSummaryTest, ActiveViewsNeverUseSummaries) {
  const size_t n = 12 * CrackerIndex<int64_t>::kSummaryMinRows;
  for (bool concurrent : {false, true}) {
    SCOPED_TRACE(concurrent ? "concurrent" : "serial");
    AdaptiveStoreOptions opts;
    opts.concurrent = concurrent;
    AdaptiveStore store(opts);
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
      ExpectSameAnswer(*agg, OracleAggregates(live, wide), "before writes");
      // A concurrent store's view is always active.
      if (concurrent || q == 0) {
        EXPECT_EQ(agg->summary_rows, 0u);
      } else {
        EXPECT_GT(agg->summary_rows, 0u);
      }
    }
    // After the first write every statement reads through an active view.
    TxnId old_snap = *store.Begin();
    ASSERT_TRUE(store.Insert("R", {Value(int64_t{2 * n})}).ok());
    std::map<Oid, int64_t> old_live = live;
    live[n] = static_cast<int64_t>(2 * n);
    for (int q = 0; q < 2; ++q) {
      auto agg = store.AggregateRange("R", "c0", wide);
      ASSERT_TRUE(agg.ok()) << agg.status().ToString();
      ExpectSameAnswer(*agg, OracleAggregates(live, wide), "after a write");
      EXPECT_EQ(agg->summary_rows, 0u);
      auto old_agg = store.AggregateRange("R", "c0", wide, old_snap);
      ASSERT_TRUE(old_agg.ok()) << old_agg.status().ToString();
      ExpectSameAnswer(*old_agg, OracleAggregates(old_live, wide),
                       "older snapshot");
      EXPECT_EQ(old_agg->summary_rows, 0u);
    }
    ASSERT_TRUE(store.Commit(old_snap).ok());
  }
}

TEST(SpanReadPathSummaryTest, SharedLatchCallersReduceThroughSummaries) {
  const size_t n = 16 * CrackerIndex<int64_t>::kSummaryMinRows;
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
  (void)path.Select(RangeBounds::Closed(0, domain / 2), false, nullptr);
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
          (void)path.Select(RangeBounds::Closed(lo, lo + 1000), false, nullptr);
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

}  // namespace
}  // namespace crackstore
