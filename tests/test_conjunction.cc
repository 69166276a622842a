// Copyright 2026 The CrackStore Authors
//
// Tests for multi-attribute conjunctive selections through the
// AdaptiveStore (each conjunct cracks its own column; oid sets intersect).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/adaptive_store.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Relation> Table(uint64_t n = 3000, uint64_t seed = 31) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.num_columns = 3;
  opts.seed = seed;
  return *BuildTapestry("R", opts);
}

using ColumnRange = AdaptiveStore::ColumnRange;

TEST(ConjunctionTest, ValidatesInput) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(
      store.SelectConjunction("R", {}).status().IsInvalidArgument());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "R", {{"zz", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "X", {{"c0", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
}

TEST(ConjunctionTest, SingleConjunctDelegatesToSelectRange) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  auto result =
      store.SelectConjunction("R", {{"c0", RangeBounds::Closed(1, 100)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100u);
}

TEST(ConjunctionTest, CountMatchesNaive) {
  auto rel = Table();
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  RangeBounds r0 = RangeBounds::Closed(1, 1500);
  RangeBounds r1 = RangeBounds::Closed(1000, 2500);

  // Naive row-wise count.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  uint64_t expected = 0;
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    expected += r0.Contains(c0->Get<int64_t>(i)) &&
                r1.Contains(c1->Get<int64_t>(i));
  }

  auto result = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, expected);
}

TEST(ConjunctionTest, AllStrategiesAgree) {
  auto rel = Table();
  Pcg32 rng(17);
  for (int q = 0; q < 10; ++q) {
    int64_t a0 = rng.NextInRange(1, 2000);
    int64_t a1 = rng.NextInRange(1, 2000);
    std::vector<ColumnRange> conjuncts{
        {"c0", RangeBounds::Closed(a0, a0 + 800)},
        {"c1", RangeBounds::Closed(a1, a1 + 800)},
        {"c2", RangeBounds::AtLeast(500)}};

    uint64_t counts[3];
    int i = 0;
    for (AccessStrategy s : {AccessStrategy::kScan, AccessStrategy::kCrack,
                             AccessStrategy::kSort}) {
      AdaptiveStoreOptions opts;
      opts.strategy = s;
      opts.track_lineage = false;
      AdaptiveStore store(opts);
      ASSERT_TRUE(store.AddTable(rel).ok());
      auto result = store.SelectConjunction("R", conjuncts);
      ASSERT_TRUE(result.ok());
      counts[i++] = result->count;
    }
    EXPECT_EQ(counts[0], counts[1]) << "query " << q;
    EXPECT_EQ(counts[0], counts[2]) << "query " << q;
  }
}

TEST(ConjunctionTest, ViewDeliveryReturnsSortedOids) {
  auto rel = Table();
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto result = store.SelectConjunction(
      "R",
      {{"c0", RangeBounds::Closed(1, 500)}, {"c1", RangeBounds::Closed(1, 500)}},
      Delivery::kView);
  ASSERT_TRUE(result.ok());
  std::vector<Oid> oids = result->CollectOids();
  EXPECT_EQ(oids.size(), result->count);
  EXPECT_TRUE(std::is_sorted(oids.begin(), oids.end()));
  // Every returned oid satisfies both predicates.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  for (Oid oid : oids) {
    EXPECT_LE(c0->Get<int64_t>(static_cast<size_t>(oid)), 500);
    EXPECT_LE(c1->Get<int64_t>(static_cast<size_t>(oid)), 500);
  }
}

TEST(ConjunctionTest, CracksEveryReferencedColumn) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  ASSERT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(100, 900)},
                                      {"c1", RangeBounds::Closed(200, 800)}})
                  .ok());
  EXPECT_GT(*store.NumPieces("R", "c0"), 1u);
  EXPECT_GT(*store.NumPieces("R", "c1"), 1u);
  EXPECT_EQ(*store.NumPieces("R", "c2"), 1u);  // untouched column
}

TEST(ConjunctionTest, RepeatConjunctionGetsCheaper) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table(50000)).ok());
  std::vector<ColumnRange> conjuncts{{"c0", RangeBounds::Closed(1000, 5000)},
                                     {"c1", RangeBounds::Closed(2000, 6000)}};
  auto first = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(first.ok());
  auto second = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->count, second->count);
  // The repeat pays only the intersection, not the cracking.
  EXPECT_EQ(second->io.cracks, 0u);
  EXPECT_LT(second->io.tuples_read, first->io.tuples_read);
}

TEST(ConjunctionTest, EmptyIntersection) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  // c0 small and c0 large can't both hold (same column twice).
  auto result = store.SelectConjunction(
      "R", {{"c0", RangeBounds::AtMost(100)},
            {"c0", RangeBounds::AtLeast(2000)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST(ConjunctionTest, MaterializeUnimplementedHint) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(1, 10)},
                                      {"c1", RangeBounds::Closed(1, 10)}},
                                     Delivery::kMaterialize)
                  .status()
                  .IsUnimplemented());
}

}  // namespace
}  // namespace crackstore
