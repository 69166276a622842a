// Copyright 2026 The CrackStore Authors
//
// Tests for the AdaptiveStore facade: strategy equivalence, delivery modes,
// joins, group-bys, lineage integration and merge budgets.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/adaptive_store.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Relation> SmallTapestry(uint64_t n = 2000,
                                        uint64_t seed = 42) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.num_columns = 2;
  opts.seed = seed;
  return *BuildTapestry("R", opts);
}

AdaptiveStoreOptions WithStrategy(AccessStrategy s) {
  AdaptiveStoreOptions opts;
  opts.strategy = s;
  return opts;
}

TEST(AdaptiveStoreTest, AddAndLookupTables) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  EXPECT_TRUE(store.table("R").ok());
  EXPECT_TRUE(store.table("S").status().IsNotFound());
  EXPECT_TRUE(store.AddTable(SmallTapestry()).IsAlreadyExists());
  EXPECT_TRUE(store.AddTable(nullptr).IsInvalidArgument());
  EXPECT_EQ(store.TableNames(), std::vector<std::string>{"R"});
}

TEST(AdaptiveStoreTest, CountQueryOnPermutation) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto result = store.SelectRange("R", "c0", RangeBounds::Closed(100, 299));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 200u);  // permutation of 1..N
}

TEST(AdaptiveStoreTest, AllStrategiesAgreeOnCounts) {
  auto rel = SmallTapestry();
  AdaptiveStore scan(WithStrategy(AccessStrategy::kScan));
  AdaptiveStore crack(WithStrategy(AccessStrategy::kCrack));
  AdaptiveStore sort(WithStrategy(AccessStrategy::kSort));
  ASSERT_TRUE(scan.AddTable(rel).ok());
  ASSERT_TRUE(crack.AddTable(rel).ok());
  ASSERT_TRUE(sort.AddTable(rel).ok());

  Pcg32 rng(7);
  for (int q = 0; q < 25; ++q) {
    int64_t lo = rng.NextInRange(-50, 2100);
    int64_t hi = lo + rng.NextInRange(0, 500);
    RangeBounds range{lo, rng.NextBounded(2) == 0, hi,
                      rng.NextBounded(2) == 0};
    auto a = scan.SelectRange("R", "c0", range);
    auto b = crack.SelectRange("R", "c0", range);
    auto c = sort.SelectRange("R", "c0", range);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a->count, b->count) << "query " << q;
    EXPECT_EQ(a->count, c->count) << "query " << q;
  }
}

TEST(AdaptiveStoreTest, ViewDeliveryReturnsAlignedOids) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto result = store.SelectRange("R", "c0", RangeBounds::Closed(1, 50),
                                  Delivery::kView);
  ASSERT_TRUE(result.ok());
  auto rel = *store.table("R");
  auto c0 = *rel->column("c0");
  std::vector<Oid> oids = result->CollectOids();
  ASSERT_EQ(oids.size(), 50u);
  EXPECT_TRUE(std::is_sorted(oids.begin(), oids.end()));
  for (Oid oid : oids) {
    int64_t v = c0->Get<int64_t>(static_cast<size_t>(oid));
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
  }
}

TEST(AdaptiveStoreTest, ScanStrategyViewDeliversOidList) {
  AdaptiveStore store(WithStrategy(AccessStrategy::kScan));
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto result = store.SelectRange("R", "c0", RangeBounds::Closed(1, 10),
                                  Delivery::kView);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->span_set.identity());
  std::vector<Oid> oids = result->CollectOids();
  ASSERT_EQ(oids.size(), 10u);
  auto c0 = *(*store.table("R"))->column("c0");
  for (Oid oid : oids) {
    EXPECT_LE(c0->Get<int64_t>(static_cast<size_t>(oid)), 10);
  }
}

TEST(AdaptiveStoreTest, MaterializeBuildsCorrectRelation) {
  auto rel = SmallTapestry();
  for (AccessStrategy s : {AccessStrategy::kScan, AccessStrategy::kCrack,
                           AccessStrategy::kSort}) {
    AdaptiveStore store(WithStrategy(s));
    ASSERT_TRUE(store.AddTable(rel).ok());
    auto result = store.SelectRange("R", "c0", RangeBounds::Closed(10, 19),
                                    Delivery::kMaterialize);
    ASSERT_TRUE(result.ok()) << AccessStrategyName(s);
    ASSERT_NE(result->materialized, nullptr);
    EXPECT_EQ(result->materialized->num_rows(), 10u);
    // Every materialized row must be a genuine source row.
    std::set<int64_t> c0_values;
    auto mat_c0 = *result->materialized->column("c0");
    for (size_t i = 0; i < 10; ++i) {
      int64_t v = mat_c0->Get<int64_t>(i);
      EXPECT_GE(v, 10);
      EXPECT_LE(v, 19);
      c0_values.insert(v);
    }
    EXPECT_EQ(c0_values.size(), 10u);
  }
}

// kMaterialize gathers rows by oid, so a table whose oids do not start at 0
// still materializes exactly the qualifying rows, in every strategy and
// mode.
TEST(AdaptiveStoreTest, MaterializeHonorsTheOidBase) {
  for (AccessStrategy s : {AccessStrategy::kScan, AccessStrategy::kCrack,
                           AccessStrategy::kSort}) {
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE(std::string(AccessStrategyName(s)) +
                   (concurrent ? " concurrent" : " serial"));
      auto rel = *Relation::Create(
          "R", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
      for (size_t c = 0; c < rel->num_columns(); ++c) {
        rel->column(c)->set_head_base(1000);
      }
      for (int64_t i = 0; i < 20; ++i) {
        ASSERT_TRUE(rel->AppendRow({Value(i), Value(1000 + i)}).ok());
      }
      AdaptiveStoreOptions opts = WithStrategy(s);
      opts.concurrent = concurrent;
      AdaptiveStore store(opts);
      ASSERT_TRUE(store.AddTable(rel).ok());
      auto result = store.SelectRange("R", "c0", RangeBounds::Closed(10, 12),
                                      Delivery::kMaterialize);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_NE(result->materialized, nullptr);
      std::vector<std::vector<Value>> rows;
      for (size_t i = 0; i < result->materialized->num_rows(); ++i) {
        rows.push_back(result->materialized->GetRow(i));
      }
      ASSERT_EQ(rows.size(), 3u);
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i][0].ToInt64(), static_cast<int64_t>(10 + i));
        EXPECT_EQ(rows[i][1].ToInt64(), static_cast<int64_t>(1010 + i));
      }
    }
  }
}

TEST(AdaptiveStoreTest, MaterializedRowsKeepColumnAlignment) {
  AdaptiveStore store;
  auto rel = SmallTapestry();
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto result = store.SelectRange("R", "c0", RangeBounds::Closed(500, 520),
                                  Delivery::kMaterialize);
  ASSERT_TRUE(result.ok());
  // For each materialized row, (c0, c1) must be a pair that exists in R.
  std::map<int64_t, int64_t> source_pairs;
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    source_pairs[c0->Get<int64_t>(i)] = c1->Get<int64_t>(i);
  }
  auto mat = result->materialized;
  auto m0 = *mat->column("c0");
  auto m1 = *mat->column("c1");
  for (size_t i = 0; i < mat->num_rows(); ++i) {
    EXPECT_EQ(source_pairs.at(m0->Get<int64_t>(i)), m1->Get<int64_t>(i));
  }
}

TEST(AdaptiveStoreTest, CrackingGetsCheaperOverSequence) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry(50000)).ok());
  Pcg32 rng(9);
  uint64_t first = 0;
  uint64_t last = 0;
  for (int q = 0; q < 30; ++q) {
    int64_t lo = rng.NextInRange(1, 45000);
    auto result =
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 2500));
    ASSERT_TRUE(result.ok());
    if (q == 0) first = result->io.tuples_read;
    last = result->io.tuples_read;
  }
  EXPECT_LT(last, first / 4);
}

TEST(AdaptiveStoreTest, NumPiecesGrowsUnderCracking) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  EXPECT_EQ(*store.NumPieces("R", "c0"), 1u);
  ASSERT_TRUE(store.SelectRange("R", "c0", RangeBounds::Closed(10, 50)).ok());
  EXPECT_EQ(*store.NumPieces("R", "c0"), 3u);
  ASSERT_TRUE(
      store.SelectRange("R", "c0", RangeBounds::Closed(100, 200)).ok());
  EXPECT_GT(*store.NumPieces("R", "c0"), 3u);
}

TEST(AdaptiveStoreTest, MergeBudgetCapsBounds) {
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.merge_budget = MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 4};
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(SmallTapestry(10000)).ok());
  Pcg32 rng(11);
  for (int q = 0; q < 30; ++q) {
    int64_t lo = rng.NextInRange(1, 9000);
    auto result =
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 500));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, 501u);
  }
  // <= 4 bounds -> at most 9 pieces (each bound contributes <= 2 cuts).
  EXPECT_LE(*store.NumPieces("R", "c0"), 9u);
}

TEST(AdaptiveStoreTest, LineageTracksXiSplits) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  ASSERT_TRUE(
      store.SelectRange("R", "c0", RangeBounds::Closed(100, 200)).ok());
  const LineageGraph& lineage = store.lineage();
  ASSERT_GE(lineage.num_pieces(), 4u);  // root + 3 pieces
  // The root piece is the whole column and lossless-checkable.
  EXPECT_TRUE(lineage.CheckLossless(0).ok());
  EXPECT_EQ(lineage.Leaves(0).size(), 3u);
}

TEST(AdaptiveStoreTest, LineageDisabledWhenConfiguredOff) {
  AdaptiveStoreOptions opts;
  opts.track_lineage = false;
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  ASSERT_TRUE(
      store.SelectRange("R", "c0", RangeBounds::Closed(100, 200)).ok());
  EXPECT_EQ(store.lineage().num_pieces(), 0u);
}

TEST(AdaptiveStoreTest, SelectRangeValidatesInputs) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  EXPECT_TRUE(store.SelectRange("X", "c0", RangeBounds::Closed(1, 2))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store.SelectRange("R", "zz", RangeBounds::Closed(1, 2))
                  .status()
                  .IsNotFound());
}

TEST(AdaptiveStoreTest, JoinOidsMatchesAcrossStrategies) {
  TapestryOptions opts;
  opts.num_rows = 500;
  auto r = *BuildTapestry("R", opts);
  opts.seed += 1;
  auto s = *BuildTapestry("S", opts);

  AdaptiveStore crack(WithStrategy(AccessStrategy::kCrack));
  AdaptiveStore scan(WithStrategy(AccessStrategy::kScan));
  for (AdaptiveStore* store : {&crack, &scan}) {
    ASSERT_TRUE(store->AddTable(r).ok());
    ASSERT_TRUE(store->AddTable(s).ok());
  }
  auto a = crack.JoinOids("R", "c0", "S", "c0");
  auto b = scan.JoinOids("R", "c0", "S", "c0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Permutation x permutation: every tuple matches exactly once.
  EXPECT_EQ(a->size(), 500u);
  EXPECT_EQ(b->size(), 500u);
}

TEST(AdaptiveStoreTest, JoinEqualsCachesWedgeCrack) {
  TapestryOptions opts;
  opts.num_rows = 1000;
  auto r = *BuildTapestry("R", opts);
  opts.seed += 1;
  auto s = *BuildTapestry("S", opts);
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(r).ok());
  ASSERT_TRUE(store.AddTable(s).ok());

  auto first = store.JoinEquals("R", "c0", "S", "c0");
  ASSERT_TRUE(first.ok());
  auto second = store.JoinEquals("R", "c0", "S", "c0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->count, second->count);
  // The cached ^ crack means no new crack work on the repeat.
  EXPECT_EQ(second->io.cracks, 0u);
  EXPECT_LT(second->io.tuples_read, first->io.tuples_read);
}

TEST(AdaptiveStoreTest, GroupByAggregates) {
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kInt64}});
  auto rel = *Relation::Create("G", schema);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i % 4), Value(i)}).ok());
  }
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto counts = store.GroupBy("G", "g", "v", AggKind::kCount);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->size(), 4u);
  for (const auto& agg : *counts) EXPECT_EQ(agg.value, 25);
  auto sums = store.GroupBy("G", "g", "v", AggKind::kSum);
  ASSERT_TRUE(sums.ok());
  int64_t total = 0;
  for (const auto& agg : *sums) total += agg.value;
  EXPECT_EQ(total, 99 * 100 / 2);
}

TEST(AdaptiveStoreTest, ProjectRegistersPsiLineage) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto cracked = store.Project("R", {"c0"});
  ASSERT_TRUE(cracked.ok());
  EXPECT_EQ(cracked->projected->num_columns(), 2u);  // oid + c0
  bool saw_psi = false;
  for (size_t i = 0; i < store.lineage().num_pieces(); ++i) {
    saw_psi |= !store.lineage().piece(static_cast<PieceId>(i)).is_root &&
               store.lineage().piece(static_cast<PieceId>(i)).produced_by ==
                   CrackOp::kPsi;
  }
  EXPECT_TRUE(saw_psi);
}

TEST(AdaptiveStoreTest, TotalIoAccumulates) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  ASSERT_TRUE(store.SelectRange("R", "c0", RangeBounds::Closed(1, 10)).ok());
  EXPECT_GT(store.total_io().tuples_read, 0u);
  store.ResetTotalIo();
  EXPECT_EQ(store.total_io().tuples_read, 0u);
}

TEST(AdaptiveStoreTest, SentinelBoundsActAsOneSided) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto less = store.SelectRange("R", "c0", RangeBounds::AtMost(100));
  ASSERT_TRUE(less.ok());
  EXPECT_EQ(less->count, 100u);
  auto greater = store.SelectRange("R", "c0", RangeBounds::GreaterThan(1900));
  ASSERT_TRUE(greater.ok());
  EXPECT_EQ(greater->count, 100u);
  auto all = store.SelectRange("R", "c0", RangeBounds::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count, 2000u);
}

TEST(AdaptiveStoreTest, ExplainColumnReportsState) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto before = store.ExplainColumn("R", "c0");
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before->find("no accelerator yet"), std::string::npos);

  ASSERT_TRUE(
      store.SelectRange("R", "c0", RangeBounds::Closed(100, 200)).ok());
  auto after = store.ExplainColumn("R", "c0");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->find("3 pieces"), std::string::npos);
  EXPECT_NE(after->find("piece [0,"), std::string::npos);
  EXPECT_NE(after->find(">=100"), std::string::npos);

  EXPECT_TRUE(store.ExplainColumn("R", "zz").status().IsNotFound());
  EXPECT_TRUE(store.ExplainColumn("X", "c0").status().IsNotFound());
}

TEST(AdaptiveStoreTest, ExplainColumnSortStrategy) {
  AdaptiveStore store(WithStrategy(AccessStrategy::kSort));
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  ASSERT_TRUE(
      store.SelectRange("R", "c0", RangeBounds::Closed(10, 20)).ok());
  auto report = store.ExplainColumn("R", "c0");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("sorted copy present"), std::string::npos);
}

TEST(AdaptiveStoreTest, EqualRangeHelper) {
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(SmallTapestry()).ok());
  auto eq = store.SelectRange("R", "c0", RangeBounds::Equal(1234));
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->count, 1u);
}

}  // namespace
}  // namespace crackstore
