// Copyright 2026 The CrackStore Authors
//
// Tests for the row-store reference engine: delivery cost spread, SQL-level
// cracking, partitioned selects, chain joins and the plan-budget optimizer,
// with its selects and chain joins checked against the adaptive store.

#include <gtest/gtest.h>

#include <map>

#include "core/adaptive_store.h"
#include "engine/plan_optimizer.h"
#include "engine/rowstore_engine.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Relation> Tapestry(const std::string& name, uint64_t n,
                                   uint64_t seed = 1) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.seed = seed;
  return *BuildTapestry(name, opts);
}

TEST(PlanOptimizerTest, SmallChainsPlanFully) {
  PlanOptimizerOptions opts;
  opts.plan_budget = 10000;
  PlanDecision d = PlanChainJoin(4, opts);
  EXPECT_EQ(d.algo, JoinAlgo::kHash);
  EXPECT_FALSE(d.budget_exhausted);
  EXPECT_GT(d.plans_considered, 0u);
}

TEST(PlanOptimizerTest, LongChainsExhaustBudget) {
  PlanOptimizerOptions opts;
  opts.plan_budget = 10000;
  PlanDecision d = PlanChainJoin(40, opts);
  EXPECT_EQ(d.algo, JoinAlgo::kNestedLoop);
  EXPECT_TRUE(d.budget_exhausted);
  EXPECT_GE(d.plans_considered, opts.plan_budget);
}

TEST(PlanOptimizerTest, EnumerationGrowsWithChainLength) {
  PlanOptimizerOptions opts;
  opts.plan_budget = 1000000;
  uint64_t prev = 0;
  for (size_t k = 2; k <= 8; ++k) {
    PlanDecision d = PlanChainJoin(k, opts);
    EXPECT_GT(d.plans_considered, prev) << "k=" << k;
    prev = d.plans_considered;
  }
}

TEST(PlanOptimizerTest, TrivialCases) {
  PlanOptimizerOptions opts;
  EXPECT_EQ(PlanChainJoin(1, opts).algo, JoinAlgo::kHash);
  EXPECT_EQ(PlanChainJoin(0, opts).algo, JoinAlgo::kHash);
}

TEST(RowEngineTest, ImportAndCount) {
  RowEngine engine;
  auto table = engine.ImportRelation(*Tapestry("R", 1000));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1000u);
  EXPECT_TRUE(engine.ImportRelation(*Tapestry("R", 10)).status()
                  .IsAlreadyExists());
}

TEST(RowEngineTest, SelectCountCorrect) {
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry("R", 1000)).ok());
  auto run = engine.RunSelect("R", "c0", RangeBounds::Closed(1, 100),
                              Delivery::kCount);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->count, 100u);
}

TEST(RowEngineTest, DeliveryCostSpread) {
  // The Fig. 1 anatomy: materialize must cost more than print, print more
  // than count (in deterministic I/O units).
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry("R", 5000)).ok());
  RangeBounds range = RangeBounds::Closed(1, 2500);  // 50% selectivity
  auto count = engine.RunSelect("R", "c0", range, Delivery::kCount);
  auto print = engine.RunSelect("R", "c0", range, Delivery::kView);
  auto mat = engine.RunSelect("R", "c0", range, Delivery::kMaterialize);
  ASSERT_TRUE(count.ok() && print.ok() && mat.ok());
  EXPECT_EQ(count->count, print->count);
  EXPECT_EQ(count->count, mat->count);
  // Materialization writes pages + journal; count writes nothing.
  EXPECT_EQ(count->io.tuples_written, 0u);
  EXPECT_GT(mat->io.tuples_written, 0u);
  EXPECT_GT(mat->io.journal_writes, 0u);
  EXPECT_GT(print->bytes_shipped, 0u);
  EXPECT_EQ(count->bytes_shipped, 0u);
}

TEST(RowEngineTest, MaterializeRegistersResultTable) {
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry("R", 100)).ok());
  ASSERT_TRUE(engine
                  .RunSelect("R", "c0", RangeBounds::Closed(1, 10),
                             Delivery::kMaterialize, "newR")
                  .ok());
  auto result = engine.catalog().GetRowTable("newR");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 10u);
  // Re-running with the same result name replaces the table.
  ASSERT_TRUE(engine
                  .RunSelect("R", "c0", RangeBounds::Closed(1, 20),
                             Delivery::kMaterialize, "newR")
                  .ok());
  EXPECT_EQ((*engine.catalog().GetRowTable("newR"))->num_rows(), 20u);
}

TEST(RowEngineTest, SqlLevelCrackSplitsLosslessly) {
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry("R", 1000)).ok());
  auto run = engine.CrackTableSql("R", "c0", RangeBounds::AtMost(300), "Rp");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->count, 300u);
  auto in_frag = engine.catalog().GetRowTable("Rp_in");
  auto out_frag = engine.catalog().GetRowTable("Rp_out");
  ASSERT_TRUE(in_frag.ok() && out_frag.ok());
  EXPECT_EQ((*in_frag)->num_rows(), 300u);
  EXPECT_EQ((*out_frag)->num_rows(), 700u);
  // Two full scans + two materializations; strictly more expensive than one
  // plain materializing select.
  EXPECT_GE(run->io.tuples_read, 2000u);
  EXPECT_GE(run->io.journal_writes, 1000u);
}

TEST(RowEngineTest, PartitionedSelectPrunesFragments) {
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry("R", 1000)).ok());
  ASSERT_TRUE(
      engine.CrackTableSql("R", "c0", RangeBounds::AtMost(300), "Rp").ok());

  // A query inside the in-fragment's bounds touches only 300 tuples.
  auto pruned = engine.RunSelectPartitioned("Rp", "c0",
                                            RangeBounds::Closed(100, 200),
                                            Delivery::kCount);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->count, 101u);
  EXPECT_LE(pruned->io.tuples_read, 300u);

  // A straddling query touches both fragments but still answers correctly.
  auto both = engine.RunSelectPartitioned("Rp", "c0",
                                          RangeBounds::Closed(250, 350),
                                          Delivery::kCount);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->count, 101u);

  // Printing streams the surviving rows; materializing is refused.
  auto print = engine.RunSelectPartitioned("Rp", "c0",
                                           RangeBounds::Closed(250, 350),
                                           Delivery::kView);
  ASSERT_TRUE(print.ok());
  EXPECT_EQ(print->count, 101u);
  EXPECT_GT(print->bytes_shipped, 0u);
  EXPECT_TRUE(engine
                  .RunSelectPartitioned("Rp", "c0",
                                        RangeBounds::Closed(250, 350),
                                        Delivery::kMaterialize)
                  .status()
                  .IsUnimplemented());
}

TEST(RowEngineTest, ChainJoinHashCountsPaths) {
  RowEngine engine;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine
                    .ImportRelation(*Tapestry("T" + std::to_string(i), 200,
                                              /*seed=*/10 + i))
                    .ok());
  }
  auto run = engine.RunChainJoin({"T0", "T1", "T2"}, "c1", "c0");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->join_algo, JoinAlgo::kHash);
  // Permutation chains: every tuple continues exactly once.
  EXPECT_EQ(run->count, 200u);
  EXPECT_TRUE(engine.RunChainJoin({"T0"}, "c1", "c0").status()
                  .IsInvalidArgument());
}

TEST(RowEngineTest, ChainJoinNestedLoopAgrees) {
  RowEngineOptions opts;
  opts.optimizer.plan_budget = 1;  // force the nested-loop fallback
  RowEngine engine(opts);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine
                    .ImportRelation(*Tapestry("T" + std::to_string(i), 60,
                                              /*seed=*/20 + i))
                    .ok());
  }
  auto run = engine.RunChainJoin({"T0", "T1", "T2"}, "c1", "c0");
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->join_algo, JoinAlgo::kNestedLoop);
  EXPECT_EQ(run->count, 60u);
}

TEST(RowEngineTest, DeadlineTruncatesRunaways) {
  RowEngineOptions opts;
  opts.optimizer.plan_budget = 1;
  opts.statement_deadline_seconds = 0.05;
  RowEngine engine(opts);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    .ImportRelation(*Tapestry("T" + std::to_string(i), 2000,
                                              /*seed=*/30 + i))
                    .ok());
  }
  std::vector<std::string> tables;
  for (int i = 0; i < 4; ++i) tables.push_back("T" + std::to_string(i));
  auto run = engine.RunChainJoin(tables, "c1", "c0");
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->truncated);
  EXPECT_LT(run->count, 2000u);  // stopped before completing
}

// Fig. 1's column line is the scan store: every delivery counts the rows
// the row engine counts.
TEST(RowEngineTest, SelectAgreesWithScanStore) {
  auto rel = Tapestry("R", 2000, /*seed=*/5);
  RowEngine row_engine;
  ASSERT_TRUE(row_engine.ImportRelation(*rel).ok());
  DbOptions opts;
  opts.strategy = AccessStrategy::kScan;
  auto store = *AdaptiveStore::Open(opts);
  ASSERT_TRUE(store->AddTable(rel).ok());

  const RangeBounds range = RangeBounds::Closed(100, 600);
  for (Delivery delivery :
       {Delivery::kCount, Delivery::kView, Delivery::kMaterialize}) {
    auto row_run = row_engine.RunSelect("R", "c0", range, delivery);
    auto col_run = store->SelectRange("R", "c0", range, delivery);
    ASSERT_TRUE(row_run.ok() && col_run.ok());
    EXPECT_EQ(row_run->count, col_run->count);
  }
}

/// The number of join paths through the chain tables[0] ⋈ tables[1] ⋈ ...
/// on c1 = c0, composed from the store's pairwise joins: paths[oid] counts
/// the paths ending at that row of the current table.
Result<uint64_t> StoreChainPaths(AdaptiveStore* store,
                                 const std::vector<std::string>& tables) {
  CRACK_ASSIGN_OR_RETURN(std::vector<Oid> first, store->LiveOids(tables[0]));
  std::map<Oid, uint64_t> paths;
  for (Oid oid : first) paths[oid] = 1;
  for (size_t t = 1; t < tables.size(); ++t) {
    CRACK_ASSIGN_OR_RETURN(
        std::vector<OidPair> pairs,
        store->JoinOids(tables[t - 1], "c1", tables[t], "c0"));
    std::map<Oid, uint64_t> next;
    for (const OidPair& p : pairs) next[p.right] += paths[p.left];
    paths = std::move(next);
  }
  uint64_t total = 0;
  for (const auto& [oid, n] : paths) total += n;
  return total;
}

// Fig. 9's chain, through the row engine and composed from the store's
// joins: both count one path per row, since tapestry columns are
// permutations, and a long chain keeps every path.
TEST(RowEngineTest, ChainJoinMatchesStoreJoins) {
  RowEngine row_engine;
  auto store = *AdaptiveStore::Open(DbOptions{});
  std::vector<std::string> tables;
  for (int i = 0; i < 4; ++i) {
    auto rel = Tapestry("T" + std::to_string(i), 150, /*seed=*/40 + i);
    ASSERT_TRUE(row_engine.ImportRelation(*rel).ok());
    ASSERT_TRUE(store->AddTable(rel).ok());
    tables.push_back(rel->name());
  }
  auto row_run = row_engine.RunChainJoin(tables, "c1", "c0");
  ASSERT_TRUE(row_run.ok());
  EXPECT_EQ(row_run->count, 150u);
  auto chain = StoreChainPaths(store.get(), tables);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ(*chain, 150u);

  ASSERT_TRUE(store->AddTable(Tapestry("R", 500, /*seed=*/100)).ok());
  auto long_chain =
      StoreChainPaths(store.get(), std::vector<std::string>(33, "R"));
  ASSERT_TRUE(long_chain.ok()) << long_chain.status().ToString();
  EXPECT_EQ(*long_chain, 500u);
}

}  // namespace
}  // namespace crackstore
