// Copyright 2026 The CrackStore Authors
//
// Tests for the type-erased ColumnAccessPath layer: parity of every
// strategy × policy combination against a naive reference on randomized
// query sequences, pivot injection via ApplyPolicy, piece reporting and
// Explain output.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/access_path.h"
#include "storage/bat.h"
#include "util/rng.h"

namespace crackstore {
namespace {

/// A shuffled permutation column of 1..n.
template <typename T>
std::shared_ptr<Bat> PermutationColumn(size_t n, uint64_t seed) {
  std::vector<T> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<T>(i + 1);
  Pcg32 rng(seed);
  Shuffle(&values, &rng);
  return Bat::FromVector(values, "c");
}

/// Naive reference: the qualifying oids of `range` over `bat`.
template <typename T>
std::vector<Oid> ReferenceOids(const std::shared_ptr<Bat>& bat,
                               const RangeBounds& range) {
  std::vector<Oid> oids;
  const T* data = bat->TailData<T>();
  for (size_t i = 0; i < bat->size(); ++i) {
    if (range.Contains(static_cast<int64_t>(data[i]))) {
      oids.push_back(bat->head_base() + i);
    }
  }
  return oids;
}

std::vector<AccessPathConfig> AllConfigs() {
  std::vector<AccessPathConfig> configs;
  for (AccessStrategy strategy : {AccessStrategy::kScan, AccessStrategy::kCrack,
                                  AccessStrategy::kSort}) {
    for (CrackPolicy policy : {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                               CrackPolicy::kCoarse}) {
      AccessPathConfig config;
      config.strategy = strategy;
      config.policy.policy = policy;
      config.policy.min_piece_size = 64;  // small so policies bite at n=4000
      configs.push_back(config);
    }
  }
  return configs;
}

std::string ConfigName(const AccessPathConfig& config) {
  return std::string(AccessStrategyName(config.strategy)) + "/" +
         CrackPolicyName(config.policy.policy);
}

template <typename T>
void RunParity(uint64_t seed) {
  const size_t n = 4000;
  auto bat = PermutationColumn<T>(n, seed);
  for (const AccessPathConfig& config : AllConfigs()) {
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok()) << ConfigName(config);
    Pcg32 rng(seed + 1);
    for (int q = 0; q < 40; ++q) {
      int64_t lo = rng.NextInRange(-100, static_cast<int64_t>(n) + 100);
      int64_t hi = lo + rng.NextInRange(0, 600);
      RangeBounds range{lo, rng.NextBounded(2) == 0, hi,
                        rng.NextBounded(2) == 0};
      IoStats io;
      AccessSelection sel = (*path)->Select(range, Delivery::kView, &io);
      std::vector<Oid> expected = ReferenceOids<T>(bat, range);
      ASSERT_EQ(sel.count, expected.size())
          << ConfigName(config) << " query " << q;
      ASSERT_EQ(sel.span_set.ToOids(), expected)
          << ConfigName(config) << " query " << q;
    }
  }
}

TEST(AccessPathTest, ParityAcrossStrategiesAndPoliciesInt64) {
  RunParity<int64_t>(101);
}

TEST(AccessPathTest, ParityAcrossStrategiesAndPoliciesInt32) {
  RunParity<int32_t>(202);
}

TEST(AccessPathTest, ParityOnOneSidedAndEmptyRanges) {
  auto bat = PermutationColumn<int64_t>(2000, 7);
  for (const AccessPathConfig& config : AllConfigs()) {
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    for (const RangeBounds& range :
         {RangeBounds::All(), RangeBounds::AtMost(100),
          RangeBounds::GreaterThan(1900), RangeBounds::Equal(1234),
          RangeBounds::Closed(500, 400), RangeBounds::Open(10, 11)}) {
      IoStats io;
      AccessSelection sel = (*path)->Select(range, Delivery::kView, &io);
      EXPECT_EQ(sel.count, ReferenceOids<int64_t>(bat, range).size())
          << ConfigName(config);
    }
  }
}

TEST(AccessPathTest, OutOfDomainBoundsOnNarrowColumns) {
  // A non-sentinel bound beyond int32's domain must keep its meaning after
  // clamping: `v >= 3e9` matches nothing (not the INT32_MAX rows), while
  // the INT64_MIN/MAX sentinels still mean "unbounded".
  std::vector<int32_t> values{1, 5, INT32_MAX, INT32_MIN, 42};
  auto bat = Bat::FromVector(values, "edge");
  for (const AccessPathConfig& config : AllConfigs()) {
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats io;
    EXPECT_EQ((*path)
                  ->Select(RangeBounds::AtLeast(3000000000LL), Delivery::kView,
                           &io)
                  .count,
              0u)
        << ConfigName(config);
    EXPECT_EQ((*path)
                  ->Select(RangeBounds::AtMost(-3000000000LL), Delivery::kView,
                           &io)
                  .count,
              0u)
        << ConfigName(config);
    EXPECT_EQ(
        (*path)->Select(RangeBounds::All(), Delivery::kView, &io).count, 5u)
        << ConfigName(config);
    EXPECT_EQ((*path)
                  ->Select(RangeBounds::Closed(-4000000000LL, 4000000000LL),
                           Delivery::kView, &io)
                  .count,
              5u)
        << ConfigName(config);
  }
}

TEST(AccessPathTest, RejectsUnsupportedColumns) {
  // Strings are supported through the dictionary encoding since PR 3; raw
  // oid columns remain outside the factory.
  auto strings = Bat::Create(ValueType::kString, "s");
  AccessPathConfig config;
  EXPECT_TRUE(CreateColumnAccessPath(strings, config).ok());
  auto oids = Bat::Create(ValueType::kOid, "o");
  auto path = CreateColumnAccessPath(oids, config);
  EXPECT_TRUE(path.status().IsUnimplemented());
  EXPECT_TRUE(CreateColumnAccessPath(nullptr, config)
                  .status()
                  .IsInvalidArgument());
}

TEST(AccessPathTest, CrackPathBuildsLazily) {
  auto bat = PermutationColumn<int64_t>(1000, 3);
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  // No accelerator before the first query...
  EXPECT_EQ((*path)->NumPieces(), 1u);
  EXPECT_NE((*path)->Explain().find("no accelerator yet"), std::string::npos);
  // ...and the first query is charged the clone investment (n reads).
  IoStats io;
  (*path)->Select(RangeBounds::Closed(1, 10), Delivery::kView, &io);
  EXPECT_GE(io.tuples_read, 1000u);
  EXPECT_GT((*path)->NumPieces(), 1u);
}

TEST(AccessPathTest, ApplyPolicyInjectsPivot) {
  auto bat = PermutationColumn<int64_t>(1000, 5);
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  IoStats io;
  ASSERT_TRUE((*path)->ApplyPolicy({500, false}, &io).ok());
  EXPECT_EQ((*path)->NumPieces(), 2u);
  // The injected cut splits the column at value 500.
  std::vector<PieceInfo> pieces = (*path)->Pieces();
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 499u);  // values 1..499
  // Queries over the injected partitioning stay correct.
  AccessSelection sel = (*path)->Select(RangeBounds::Closed(450, 550),
                                        Delivery::kView, &io);
  EXPECT_EQ(sel.count, 101u);
}

TEST(AccessPathTest, ApplyPolicyUnimplementedWithoutPieceTable) {
  auto bat = PermutationColumn<int64_t>(100, 5);
  for (AccessStrategy strategy :
       {AccessStrategy::kScan, AccessStrategy::kSort}) {
    AccessPathConfig config;
    config.strategy = strategy;
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    EXPECT_TRUE((*path)->ApplyPolicy({50, false}).IsUnimplemented())
        << AccessStrategyName(strategy);
  }
}

TEST(AccessPathTest, ExplainNamesPathAndPolicy) {
  auto bat = PermutationColumn<int64_t>(500, 9);
  for (const AccessPathConfig& config : AllConfigs()) {
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats io;
    (*path)->Select(RangeBounds::Closed(100, 200), Delivery::kView, &io);
    std::string explain = (*path)->Explain();
    EXPECT_NE(explain.find(std::string("access path: ") +
                           AccessStrategyName(config.strategy)),
              std::string::npos)
        << ConfigName(config);
    if (config.strategy == AccessStrategy::kCrack) {
      EXPECT_NE(explain.find(std::string("policy=") +
                             CrackPolicyName(config.policy.policy)),
                std::string::npos)
          << ConfigName(config);
    }
  }
}

TEST(AccessPathTest, MergeBudgetEnforcedInsidePath) {
  auto bat = PermutationColumn<int64_t>(5000, 11);
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  config.merge_budget = MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 4};
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  Pcg32 rng(13);
  size_t dropped = 0;
  for (int q = 0; q < 30; ++q) {
    int64_t lo = rng.NextInRange(1, 4000);
    IoStats io;
    AccessSelection sel =
        (*path)->Select(RangeBounds::Closed(lo, lo + 500), Delivery::kView,
                        &io);
    EXPECT_EQ(sel.count, 501u);
    dropped += sel.bounds_dropped;
  }
  EXPECT_GT(dropped, 0u);
  // <= 4 bounds -> at most 9 pieces (each bound contributes <= 2 cuts).
  EXPECT_LE((*path)->NumPieces(), 9u);
}

// NaN lies in no range and sorts above every number, on every path. A
// 1,000-row double column with every tenth value NaN is read after each
// step — a pending NaN insert, tombstones on four NaN rows and one
// in-range row, a fold — and the crack and sort paths must answer every
// range (count and kView rows) as the scan path does. CI's forced-scalar
// lane runs it over the scalar crack-in-three.
TEST(AccessPathTest, NanLiesInNoRangeOnEveryPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = i % 10 == 0 ? nan : static_cast<double>(i);
  }
  const std::vector<AccessStrategy> strategies{
      AccessStrategy::kScan, AccessStrategy::kCrack, AccessStrategy::kSort};
  std::vector<std::shared_ptr<Bat>> bats;
  std::vector<std::unique_ptr<ColumnAccessPath>> paths;
  for (AccessStrategy strategy : strategies) {
    AccessPathConfig config;
    config.strategy = strategy;
    bats.push_back(Bat::FromVector(values, "d"));
    auto path = CreateColumnAccessPath(bats.back(), config);
    ASSERT_TRUE(path.ok());
    paths.push_back(std::move(*path));
  }
  const std::vector<RangeBounds> ranges{
      RangeBounds::Closed(100, 900), RangeBounds::Closed(0, 999),
      RangeBounds::All(), RangeBounds::HalfOpen(850, 1000),
      RangeBounds::Open(5, 15)};
  auto sorted_oids = [](const AccessSelection& sel) {
    std::vector<Oid> oids = sel.span_set.ToOids();
    std::sort(oids.begin(), oids.end());
    return oids;
  };
  auto check = [&](const char* step, uint64_t want) {
    SCOPED_TRACE(step);
    for (const RangeBounds& range : ranges) {
      const AccessSelection ref =
          paths[0]->Select(range, Delivery::kView, nullptr);
      for (size_t p = 1; p < paths.size(); ++p) {
        SCOPED_TRACE(AccessStrategyName(strategies[p]));
        EXPECT_EQ(paths[p]->Select(range, Delivery::kCount, nullptr).count,
                  ref.count);
        const AccessSelection view =
            paths[p]->Select(range, Delivery::kView, nullptr);
        EXPECT_EQ(view.count, ref.count);
        EXPECT_EQ(sorted_oids(view), sorted_oids(ref));
      }
    }
    EXPECT_EQ(
        paths[0]->Select(RangeBounds::Closed(100, 900), Delivery::kCount,
                         nullptr)
            .count,
        want);
  };
  check("fresh", 720);
  for (size_t p = 0; p < paths.size(); ++p) {
    bats[p]->Append<double>(nan);
    ASSERT_TRUE(paths[p]->Insert(Value(nan), 1000).ok());
  }
  check("pending NaN insert", 720);
  for (size_t p = 0; p < paths.size(); ++p) {
    for (Oid oid : {Oid{0}, Oid{100}, Oid{200}, Oid{990}, Oid{501}}) {
      ASSERT_TRUE(paths[p]->Delete(oid).ok());
    }
  }
  check("four NaN rows and one in-range row tombstoned", 719);
  for (size_t p = 0; p < paths.size(); ++p) {
    ASSERT_TRUE(paths[p]->FlushDeltas().ok());
  }
  check("folded", 719);
}

}  // namespace
}  // namespace crackstore
