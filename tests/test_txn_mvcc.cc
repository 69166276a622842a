// Copyright 2026 The CrackStore Authors
//
// MVCC / snapshot-visibility suite: the versioned delta layer
// (core/txn_manager.h) end to end through the AdaptiveStore facade.
//
//   * timestamp / version-log units (TxnManager, VersionedTable);
//   * snapshot isolation across every {scan, crack, sort} x {standard,
//     stochastic, coarse} x string-dictionary access path: a reader that
//     opened its snapshot before a concurrent committed DELETE/UPDATE
//     keeps seeing the old rows and the old values;
//   * first-committer-wins write-write conflicts (the second committer
//     aborts) and full rollback (base values, accelerators, stamps);
//   * a randomized vacuum suite interleaving long-lived snapshots with
//     churn: old snapshots stay exact, post-vacuum storage shrinks, purged
//     rows stay dead;
//   * a free-running concurrent stress section (the TSan target): reader
//     transactions must observe frozen counts while writers churn.
//
// Randomized sections print their seed on failure; rerun a reported seed
// with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_store.h"
#include "core/simd_dispatch.h"
#include "core/txn_manager.h"
#include "sql/executor.h"
#include "storage/relation.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace crackstore {
namespace {

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// ---------------------------------------------------------------------------
// Unit layer: TxnManager and VersionedTable.
// ---------------------------------------------------------------------------

TEST(TxnManagerTest, TimestampsAndLowWater) {
  TxnManager mgr;
  EXPECT_EQ(mgr.LatestSnapshot().read_ts, 0u);
  EXPECT_EQ(mgr.low_water(), 0u);

  TxnId t1 = mgr.Begin();
  ASSERT_TRUE(mgr.IsActive(t1));
  EXPECT_EQ(mgr.SnapshotOf(t1)->read_ts, 0u);

  auto cts = mgr.FinishCommit(t1);
  ASSERT_TRUE(cts.ok());
  EXPECT_EQ(*cts, 1u);
  EXPECT_FALSE(mgr.IsActive(t1));
  EXPECT_EQ(mgr.LatestSnapshot().read_ts, 1u);

  // A transaction pinned before later commits holds the low-water mark.
  TxnId old_reader = mgr.Begin();
  TxnId writer = mgr.Begin();
  ASSERT_TRUE(mgr.FinishCommit(writer).ok());
  EXPECT_EQ(mgr.LatestSnapshot().read_ts, 2u);
  EXPECT_EQ(mgr.low_water(), 1u);  // pinned by old_reader
  ASSERT_TRUE(mgr.FinishRollback(old_reader).ok());
  EXPECT_EQ(mgr.low_water(), 2u);

  EXPECT_TRUE(mgr.FinishCommit(old_reader).status().IsNotFound());
}

TEST(TxnManagerTest, StampVisibility) {
  Snapshot snap{5, 7};
  EXPECT_TRUE(StampVisible(0, snap));    // since load
  EXPECT_TRUE(StampVisible(5, snap));    // committed at the snapshot
  EXPECT_FALSE(StampVisible(6, snap));   // committed after
  EXPECT_FALSE(StampVisible(kTsInfinity, snap));
  EXPECT_TRUE(StampVisible(TxnStamp(7), snap));   // own writes
  EXPECT_FALSE(StampVisible(TxnStamp(8), snap));  // someone else's
  EXPECT_FALSE(StampVisible(kTsAborted, snap));   // aborted insert
}

TEST(VersionedTableTest, AdmissionAndConflicts) {
  VersionedTable vt(/*base_oid=*/0, /*initial_rows=*/10);
  Snapshot s1{0, 1};
  Snapshot s2{0, 2};

  // Txn 1 locks row 3; txn 2 conflicts; txn 1 again is fine.
  EXPECT_EQ(vt.AdmitWrite(3, s1, 1, nullptr),
            VersionedTable::Admission::kOk);
  std::string why;
  EXPECT_EQ(vt.AdmitWrite(3, s2, 2, &why),
            VersionedTable::Admission::kConflict);
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(vt.AdmitWrite(3, s1, 1, nullptr),
            VersionedTable::Admission::kOk);

  // Commit the delete at ts 4: a snapshot from ts 3 still sees the row, a
  // later one does not, and a writer with an older snapshot conflicts.
  vt.StampDelete(3, TxnStamp(1));
  vt.CommitTxn(1, 4, {3});
  EXPECT_TRUE(vt.RowVisibleAt(3, Snapshot{3, 0}));
  EXPECT_FALSE(vt.RowVisibleAt(3, Snapshot{4, 0}));
  EXPECT_EQ(vt.AdmitWrite(3, Snapshot{3, 2}, 2, &why),
            VersionedTable::Admission::kConflict);
  // At a current snapshot the row is simply gone: skip.
  EXPECT_EQ(vt.AdmitWrite(3, Snapshot{4, 2}, 2, nullptr),
            VersionedTable::Admission::kSkip);

  // Rows beyond the horizon postdate everything.
  EXPECT_FALSE(vt.RowVisibleAt(10, Snapshot{100, 0}));
  vt.NoteInsert(10, 5);
  EXPECT_TRUE(vt.RowVisibleAt(10, Snapshot{5, 0}));
  EXPECT_FALSE(vt.RowVisibleAt(10, Snapshot{4, 0}));
}

TEST(VersionedTableTest, VacuumHonorsLowWater) {
  VersionedTable vt(0, 10);
  // Delete row 1 at ts 2, row 2 at ts 5.
  EXPECT_EQ(vt.AdmitWrite(1, Snapshot{1, 0}, kNoTxn, nullptr),
            VersionedTable::Admission::kOk);
  vt.StampDelete(1, 2);
  EXPECT_EQ(vt.AdmitWrite(2, Snapshot{4, 0}, kNoTxn, nullptr),
            VersionedTable::Admission::kOk);
  vt.StampDelete(2, 5);

  // Low water 3: only the ts-2 delete is invisible to every snapshot.
  auto res = vt.Vacuum(3);
  EXPECT_EQ(res.purged, std::vector<Oid>{1});
  EXPECT_FALSE(vt.RowVisibleAt(1, Snapshot{1, 0}));  // purged: dead to all
  EXPECT_TRUE(vt.RowVisibleAt(2, Snapshot{4, 0}));   // still versioned

  res = vt.Vacuum(5);
  EXPECT_EQ(res.purged, std::vector<Oid>{2});
  EXPECT_EQ(vt.counts().row_versions, 0u);
  EXPECT_EQ(vt.counts().purged, 2u);
}

// ---------------------------------------------------------------------------
// Snapshot isolation across every access-path configuration.
// ---------------------------------------------------------------------------

struct StoreConfig {
  AccessStrategy strategy;
  CrackPolicy policy;
};

std::vector<StoreConfig> AllStoreConfigs() {
  std::vector<StoreConfig> configs{{AccessStrategy::kScan,
                                    CrackPolicy::kStandard},
                                   {AccessStrategy::kSort,
                                    CrackPolicy::kStandard}};
  for (CrackPolicy policy : {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                             CrackPolicy::kCoarse}) {
    configs.push_back({AccessStrategy::kCrack, policy});
  }
  return configs;
}

std::string ConfigName(const StoreConfig& config) {
  return std::string(AccessStrategyName(config.strategy)) + "/" +
         CrackPolicyName(config.policy);
}

std::unique_ptr<AdaptiveStore> MakeStore(const StoreConfig& config,
                                         bool concurrent = false) {
  DbOptions opts;
  opts.strategy = config.strategy;
  opts.policy.policy = config.policy;
  opts.policy.min_piece_size = 32;
  opts.delta_merge.policy = DeltaMergePolicy::kThreshold;
  opts.delta_merge.threshold_fraction = 0.1;
  opts.concurrent = concurrent;
  opts.track_lineage = false;
  return *AdaptiveStore::Open(opts);
}

TEST(SnapshotIsolationTest, ReaderKeepsOldRowsAcrossAllPaths) {
  for (const StoreConfig& config : AllStoreConfigs()) {
    SCOPED_TRACE("config=" + ConfigName(config));
    auto store = MakeStore(config);
    auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
    for (int64_t i = 1; i <= 100; ++i) {
      ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
    }
    ASSERT_TRUE(store->AddTable(rel).ok());
    // Warm the accelerator before the snapshot opens.
    ASSERT_TRUE(store->SelectRange("t", "v", RangeBounds::Closed(1, 100)).ok());

    CRACK_CHECK(store->Begin().ok());
    TxnId reader = *store->Begin();

    // Concurrent committed DELETE (v <= 10) and UPDATE (v in [41, 50] ->
    // 1000) land after the reader's snapshot.
    ASSERT_TRUE(store->Delete("t", {{"v", RangeBounds::AtMost(10)}}).ok());
    ASSERT_TRUE(store
                    ->Update("t", {{"v", Value(int64_t{1000})}},
                             {{"v", RangeBounds::Closed(41, 50)}})
                    .ok());

    // The reader still sees the pre-DML state: all 100 rows, the deleted
    // band intact, the updated band at its old values, nothing at 1000.
    EXPECT_EQ(*store->LiveRowCount("t", reader), 100u);
    auto old_band =
        store->SelectRange("t", "v", RangeBounds::AtMost(10),
                           Delivery::kView, reader);
    ASSERT_TRUE(old_band.ok());
    EXPECT_EQ(old_band->count, 10u);
    EXPECT_EQ(old_band->CollectOids().size(), 10u);
    auto updated_band =
        store->SelectRange("t", "v", RangeBounds::Closed(41, 50),
                           Delivery::kView, reader);
    ASSERT_TRUE(updated_band.ok());
    EXPECT_EQ(updated_band->count, 10u);
    auto moved = store->SelectRange("t", "v", RangeBounds::Equal(1000),
                                    Delivery::kCount, reader);
    ASSERT_TRUE(moved.ok());
    EXPECT_EQ(moved->count, 0u);

    // A fresh auto-commit reader sees the committed state.
    EXPECT_EQ(*store->LiveRowCount("t"), 90u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::AtMost(10))->count,
              0u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(1000))->count,
              10u);

    // Ending the reader moves it to the committed state too.
    ASSERT_TRUE(store->Commit(reader).ok());
    EXPECT_EQ(*store->LiveRowCount("t"), 90u);
  }
}

// kMaterialize reads every column at the statement's snapshot: a row that a
// later commit rewrote keeps the value the transaction's snapshot reads.
TEST(SnapshotIsolationTest, MaterializeReadsSnapshotValues) {
  for (const StoreConfig& config : AllStoreConfigs()) {
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE("config=" + ConfigName(config) +
                   (concurrent ? " concurrent" : " serial"));
      auto store = MakeStore(config, concurrent);
      auto rel = *Relation::Create(
          "t", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
      for (int64_t i = 0; i < 100; ++i) {
        ASSERT_TRUE(rel->AppendRow({Value(i), Value(1000 + i)}).ok());
      }
      ASSERT_TRUE(store->AddTable(rel).ok());
      TxnId reader = *store->Begin();
      ASSERT_TRUE(store
                      ->Update("t", {{"c1", Value(int64_t{-1})}},
                               {{"c0", RangeBounds::Equal(11)}})
                      .ok());
      auto rows_of = [](const QueryResult& qr) {
        std::map<int64_t, int64_t> rows;
        for (size_t i = 0; i < qr.materialized->num_rows(); ++i) {
          std::vector<Value> row = qr.materialized->GetRow(i);
          rows[row[0].ToInt64()] = row[1].ToInt64();
        }
        return rows;
      };
      auto old = store->SelectRange("t", "c0", RangeBounds::Closed(10, 12),
                                    Delivery::kMaterialize, reader);
      ASSERT_TRUE(old.ok()) << old.status().ToString();
      ASSERT_NE(old->materialized, nullptr);
      EXPECT_EQ(rows_of(*old), (std::map<int64_t, int64_t>{
                                   {10, 1010}, {11, 1011}, {12, 1012}}));
      auto now = store->SelectRange("t", "c0", RangeBounds::Closed(10, 12),
                                    Delivery::kMaterialize);
      ASSERT_TRUE(now.ok()) << now.status().ToString();
      ASSERT_NE(now->materialized, nullptr);
      EXPECT_EQ(rows_of(*now), (std::map<int64_t, int64_t>{
                                   {10, 1010}, {11, -1}, {12, 1012}}));
      ASSERT_TRUE(store->Commit(reader).ok());
    }
  }
}

TEST(SnapshotIsolationTest, StringDictionaryPathHonorsSnapshots) {
  for (const StoreConfig& config : AllStoreConfigs()) {
    SCOPED_TRACE("config=" + ConfigName(config));
    auto store = MakeStore(config);
    auto rel = *Relation::Create(
        "p", Schema({{"s", ValueType::kString}, {"v", ValueType::kInt64}}));
    for (int i = 0; i < 50; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%03d", i);
      ASSERT_TRUE(
          rel->AppendRow({Value(std::string(key)), Value(int64_t{i})}).ok());
    }
    ASSERT_TRUE(store->AddTable(rel).ok());
    TypedRange low_band = TypedRange::AtMost(Value(std::string("k009")));
    ASSERT_TRUE(store->SelectRange("p", "s", low_band).ok());  // warm dict

    TxnId reader = *store->Begin();
    // Delete the low band, rename k020 out of its sort position.
    ASSERT_TRUE(store->Delete("p", {{"s", low_band}}).ok());
    ASSERT_TRUE(store
                    ->Update("p", {{"s", Value(std::string("zzz"))}},
                             {{"s", TypedRange::Equal(
                                        Value(std::string("k020")))}})
                    .ok());

    auto old_low = store->SelectRange("p", "s", low_band, Delivery::kView,
                                      reader);
    ASSERT_TRUE(old_low.ok());
    EXPECT_EQ(old_low->count, 10u);
    auto old_name = store->SelectRange(
        "p", "s", TypedRange::Equal(Value(std::string("k020"))),
        Delivery::kView, reader);
    ASSERT_TRUE(old_name.ok());
    EXPECT_EQ(old_name->count, 1u);
    auto renamed = store->SelectRange(
        "p", "s", TypedRange::Equal(Value(std::string("zzz"))),
        Delivery::kCount, reader);
    ASSERT_TRUE(renamed.ok());
    EXPECT_EQ(renamed->count, 0u);

    // Latest committed state.
    EXPECT_EQ(store->SelectRange("p", "s", low_band)->count, 0u);
    EXPECT_EQ(store
                  ->SelectRange("p", "s",
                                TypedRange::Equal(Value(std::string("zzz"))))
                  ->count,
              1u);
    ASSERT_TRUE(store->Rollback(reader).ok());
  }
}

// ---------------------------------------------------------------------------
// Write-write conflicts and rollback.
// ---------------------------------------------------------------------------

TEST(TxnConflictTest, SecondCommitterAborts) {
  auto store = MakeStore({AccessStrategy::kCrack, CrackPolicy::kStandard});
  auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
  for (int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(store->AddTable(rel).ok());

  TxnId t1 = *store->Begin();
  TxnId t2 = *store->Begin();
  // T1 updates row v=5 and commits first.
  ASSERT_TRUE(store
                  ->Update("t", {{"v", Value(int64_t{500})}},
                           {{"v", RangeBounds::Equal(5)}}, t1)
                  .ok());
  ASSERT_TRUE(store->Commit(t1).ok());

  // T2's snapshot predates T1's commit; its write to the same row must
  // abort (first committer wins), and its COMMIT reports the abort.
  auto conflicted = store->Update("t", {{"v", Value(int64_t{555})}},
                                  {{"v", RangeBounds::Equal(5)}}, t2);
  ASSERT_FALSE(conflicted.ok());
  EXPECT_TRUE(conflicted.status().IsAborted()) << conflicted.status();
  Status commit = store->Commit(t2);
  EXPECT_TRUE(commit.IsAborted()) << commit.ToString();
  EXPECT_FALSE(store->TxnActive(t2));

  // T1's write survives, T2 left no trace.
  EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(500))->count, 1u);
  EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(555))->count, 0u);

  // An uncommitted writer's row lock also aborts a competitor eagerly.
  TxnId t3 = *store->Begin();
  TxnId t4 = *store->Begin();
  ASSERT_TRUE(store
                  ->Delete("t", {{"v", RangeBounds::Equal(7)}}, t3)
                  .ok());
  auto locked = store->Update("t", {{"v", Value(int64_t{700})}},
                              {{"v", RangeBounds::Equal(7)}}, t4);
  ASSERT_FALSE(locked.ok());
  EXPECT_TRUE(locked.status().IsAborted());
  ASSERT_TRUE(store->Rollback(t3).ok());
  EXPECT_TRUE(store->Commit(t4).IsAborted());
  EXPECT_EQ(*store->LiveRowCount("t"), 20u);  // both left no trace
}

TEST(TxnRollbackTest, RestoresBaseAcceleratorsAndVisibility) {
  for (const StoreConfig& config : AllStoreConfigs()) {
    SCOPED_TRACE("config=" + ConfigName(config));
    auto store = MakeStore(config);
    auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
    for (int64_t i = 1; i <= 50; ++i) {
      ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
    }
    ASSERT_TRUE(store->AddTable(rel).ok());
    ASSERT_TRUE(store->SelectRange("t", "v", RangeBounds::All()).ok());

    TxnId txn = *store->Begin();
    auto ins = store->Insert("t", {Value(int64_t{999})}, txn);
    ASSERT_TRUE(ins.ok());
    EXPECT_NE(ins->inserted_oid, kInvalidOid);
    ASSERT_TRUE(
        store->Delete("t", {{"v", RangeBounds::AtMost(5)}}, txn).ok());
    ASSERT_TRUE(store
                    ->Update("t", {{"v", Value(int64_t{777})}},
                             {{"v", RangeBounds::Closed(10, 12)}}, txn)
                    .ok());
    // The transaction sees its own effects...
    EXPECT_EQ(*store->LiveRowCount("t", txn), 46u);  // 50 - 5 + 1
    EXPECT_EQ(store
                  ->SelectRange("t", "v", RangeBounds::Equal(777),
                                Delivery::kCount, txn)
                  ->count,
              3u);
    // ...while auto-commit readers see none of them.
    EXPECT_EQ(*store->LiveRowCount("t"), 50u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(777))->count,
              0u);

    ASSERT_TRUE(store->Rollback(txn).ok());
    EXPECT_EQ(*store->LiveRowCount("t"), 50u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(999))->count,
              0u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Equal(777))->count,
              0u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::AtMost(5))->count,
              5u);
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Closed(10, 12))->count,
              3u);
    // Vacuum reclaims the aborted insert's physical garbage.
    auto stats = store->Vacuum();
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->rows_purged, 1u);
    EXPECT_EQ(*store->LiveRowCount("t"), 50u);
  }
}

// ---------------------------------------------------------------------------
// Randomized vacuum suite: long-lived snapshots vs churn.
// ---------------------------------------------------------------------------

TEST(VacuumTest, RandomizedChurnKeepsOldSnapshotsExactAndShrinksStorage) {
  const uint64_t base_seed = TestSeed(90210);
  size_t config_index = 0;
  for (const StoreConfig& config : AllStoreConfigs()) {
    uint64_t seed = base_seed + 17 * config_index++;
    SCOPED_TRACE("config=" + ConfigName(config) +
                 " seed=" + std::to_string(seed) +
                 " (rerun with CRACKSTORE_TEST_SEED)");
    Pcg32 rng(seed);
    const int64_t domain = 500;
    const size_t n0 = 400;

    auto store = MakeStore(config);
    auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
    std::map<Oid, int64_t> latest;  // live oracle at the latest snapshot
    for (size_t i = 0; i < n0; ++i) {
      int64_t v = rng.NextInRange(1, domain);
      ASSERT_TRUE(rel->AppendRow({Value(v)}).ok());
      latest[i] = v;
    }
    ASSERT_TRUE(store->AddTable(rel).ok());
    ASSERT_TRUE(store->SelectRange("t", "v", RangeBounds::All()).ok());

    auto check = [&](const std::map<Oid, int64_t>& oracle, TxnId txn,
                     const char* what) {
      for (int q = 0; q < 6; ++q) {
        int64_t lo = rng.NextInRange(1, domain);
        int64_t hi = lo + rng.NextInRange(0, domain / 2);
        auto r = store->SelectRange("t", "v", RangeBounds::Closed(lo, hi),
                                    Delivery::kView, txn);
        ASSERT_TRUE(r.ok()) << what;
        std::vector<Oid> want;
        for (const auto& [oid, v] : oracle) {
          if (v >= lo && v <= hi) want.push_back(oid);
        }
        ASSERT_EQ(r->CollectOids(), want)
            << what << " range [" << lo << "," << hi << "]";
      }
      auto live = store->LiveRowCount("t", txn);
      ASSERT_TRUE(live.ok());
      ASSERT_EQ(*live, oracle.size()) << what;
    };

    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round=" + std::to_string(round));
      // Freeze a long-lived snapshot and its oracle.
      TxnId old_reader = *store->Begin();
      std::map<Oid, int64_t> frozen = latest;

      // Churn: inserts, deletes, updates — all auto-commit.
      for (int op = 0; op < 120; ++op) {
        uint32_t dice = rng.NextBounded(100);
        if (dice < 40 || latest.empty()) {
          int64_t v = rng.NextInRange(1, domain);
          auto r = store->Insert("t", {Value(v)});
          ASSERT_TRUE(r.ok());
          latest[r->inserted_oid] = v;
        } else if (dice < 75) {
          auto it = latest.begin();
          std::advance(it,
                       rng.NextBounded(static_cast<uint32_t>(latest.size())));
          ASSERT_TRUE(store->DeleteOids("t", {it->first}).ok());
          latest.erase(it);
        } else {
          auto it = latest.begin();
          std::advance(it,
                       rng.NextBounded(static_cast<uint32_t>(latest.size())));
          int64_t v = rng.NextInRange(1, domain);
          // `it` points into `latest`: capture the WHERE value before the
          // oracle loop rewrites it.
          int64_t from = it->second;
          auto r = store->Update("t", {{"v", Value(v)}},
                                 {{"v", RangeBounds::Equal(from)}});
          ASSERT_TRUE(r.ok());
          for (auto& [oid, value] : latest) {
            if (value == from) value = v;
          }
        }
      }

      // (a) The old snapshot still reads its frozen version, even after a
      // vacuum pass that runs *while it is open*.
      check(frozen, old_reader, "frozen pre-vacuum");
      auto guarded = store->Vacuum();
      ASSERT_TRUE(guarded.ok());
      check(frozen, old_reader, "frozen post-guarded-vacuum");
      check(latest, kNoTxn, "latest");

      // Close the snapshot; now vacuum may reclaim everything old.
      ASSERT_TRUE(store->Commit(old_reader).ok());
      auto before = store->VersionCountsFor("t");
      ASSERT_TRUE(before.ok());
      size_t accel_before = 0;
      auto path = store->AccessPathFor("t", "v");
      if (path.ok()) accel_before = (*path)->accel_tuples();
      auto stats = store->Vacuum();
      ASSERT_TRUE(stats.ok());
      auto after = store->VersionCountsFor("t");
      ASSERT_TRUE(after.ok());
      // (b) Post-vacuum storage shrinks: the version log got smaller and
      // deleted rows merged out of the accelerator.
      EXPECT_LT(after->row_versions + after->chain_entries,
                before->row_versions + before->chain_entries);
      if (path.ok() && config.strategy != AccessStrategy::kScan &&
          stats->rows_purged > 0) {
        EXPECT_LT((*path)->accel_tuples(), accel_before);
      }
      check(latest, kNoTxn, "latest post-vacuum");
    }
  }
}

// One VACUUM hands each built path its whole purge list: every path folds
// it at most once, whatever the delta-merge policy, and answers hold.
TEST(VacuumTest, FoldsEachPathOnce) {
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kSort}) {
    for (DeltaMergePolicy merge :
         {DeltaMergePolicy::kImmediate, DeltaMergePolicy::kThreshold,
          DeltaMergePolicy::kRippleOnSelect}) {
      for (bool concurrent : {false, true}) {
        SCOPED_TRACE(std::string(AccessStrategyName(strategy)) + " " +
                     DeltaMergePolicyName(merge) +
                     (concurrent ? " concurrent" : " serial"));
        DbOptions opts;
        opts.strategy = strategy;
        opts.delta_merge.policy = merge;
        opts.concurrent = concurrent;
        auto db = *AdaptiveStore::Open(opts);
        AdaptiveStore& store = *db;
        auto rel = *Relation::Create("t", Schema({{"a", ValueType::kInt64},
                                                  {"b", ValueType::kInt32},
                                                  {"s", ValueType::kString}}));
        for (int64_t i = 0; i < 2000; ++i) {
          ASSERT_TRUE(rel->AppendRow({Value(i), Value(static_cast<int32_t>(
                                                    (i * 7) % 2000)),
                                      Value(StrFormat("k%05lld",
                                                      static_cast<long long>(
                                                          (i * 13) % 2000)))})
                          .ok());
        }
        ASSERT_TRUE(store.AddTable(rel).ok());
        const std::vector<std::string> columns{"a", "b", "s"};
        auto counts = [&] {
          std::vector<uint64_t> out;
          out.push_back(*store.LiveRowCount("t"));
          out.push_back(
              store.SelectRange("t", "a", RangeBounds::Closed(100, 1500))
                  ->count);
          out.push_back(
              store.SelectRange("t", "b", RangeBounds::Closed(0, 999))
                  ->count);
          out.push_back(store
                            .SelectRange("t", "s",
                                         TypedRange::Closed(Value("k00500"),
                                                            Value("k01500")))
                            ->count);
          return out;
        };
        (void)counts();  // builds every path
        ASSERT_TRUE(store.Delete("t", {{"a", RangeBounds::Closed(200, 249)}})
                        .ok());
        const std::vector<uint64_t> want = counts();
        std::vector<size_t> folds;
        for (const std::string& c : columns) {
          folds.push_back((*store.AccessPathFor("t", c))->merges_performed());
        }
        auto vac = store.Vacuum();
        ASSERT_TRUE(vac.ok()) << vac.status().ToString();
        EXPECT_EQ(vac->rows_purged, 50u);
        for (size_t c = 0; c < columns.size(); ++c) {
          const size_t after =
              (*store.AccessPathFor("t", columns[c]))->merges_performed();
          EXPECT_LE(after, folds[c] + 1) << columns[c];
          EXPECT_EQ((*store.AccessPathFor("t", columns[c]))->pending_deletes(),
                    0u)
              << columns[c];
        }
        EXPECT_EQ(counts(), want);
      }
    }
  }
}

// WHERE-less COUNT(*) and LiveOids decide every base row under one
// version-log latch acquisition; they must answer exactly what the per-row
// visibility probe answers — with a transaction open, after its rollback,
// after a vacuum, and at a non-zero oid base.
TEST(LiveRowsTest, MatchPerRowVisibility) {
  for (Oid base : {Oid{0}, Oid{1000}}) {
    SCOPED_TRACE("oid base " + std::to_string(base));
    auto db = *AdaptiveStore::Open(DbOptions{});
    AdaptiveStore& store = *db;
    auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
    }
    rel->column(size_t{0})->set_head_base(base);
    ASSERT_TRUE(store.AddTable(rel).ok());
    const VersionedTable* vt = store.versions("t");
    ASSERT_NE(vt, nullptr);
    auto expect_match = [&](TxnId txn, const std::string& what) {
      SCOPED_TRACE(what);
      const Snapshot snap = txn == kNoTxn
                                ? store.txn_manager().LatestSnapshot()
                                : *store.txn_manager().SnapshotOf(txn);
      std::vector<Oid> want;
      for (Oid oid = base; oid < base + rel->num_rows(); ++oid) {
        if (vt->RowVisibleAt(oid, snap)) want.push_back(oid);
      }
      auto count = store.LiveRowCount("t", txn);
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, want.size());
      auto oids = store.LiveOids("t", txn);
      ASSERT_TRUE(oids.ok());
      EXPECT_EQ(*oids, want);
    };
    expect_match(kNoTxn, "fresh table");
    ASSERT_TRUE(store.Delete("t", {{"v", RangeBounds::Closed(10, 29)}}).ok());
    ASSERT_TRUE(store.Update("t", {{"v", Value(int64_t{-1})}},
                             {{"v", RangeBounds::Closed(40, 44)}})
                    .ok());
    TxnId txn = *store.Begin();
    ASSERT_TRUE(
        store.Delete("t", {{"v", RangeBounds::Closed(100, 149)}}, txn).ok());
    ASSERT_TRUE(store.Insert("t", {Value(int64_t{7})}, txn).ok());
    ASSERT_TRUE(store.Insert("t", {Value(int64_t{8})}).ok());
    expect_match(kNoTxn, "transaction open, latest");
    expect_match(txn, "transaction open, its own snapshot");
    ASSERT_TRUE(store.Rollback(txn).ok());
    expect_match(kNoTxn, "after rollback");
    ASSERT_TRUE(store.Vacuum().ok());
    expect_match(kNoTxn, "after vacuum");
  }
}

// ---------------------------------------------------------------------------
// Concurrent stress: frozen snapshot reads while writers churn (TSan
// target; run with `ctest -L slow` for the long lane).
// ---------------------------------------------------------------------------

TEST(TxnConcurrencyStress, SnapshotReadersSeeFrozenStateUnderChurn) {
  const uint64_t seed = TestSeed(777001);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  const int64_t domain = 1000;
  const size_t n0 = 500;
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kSort, AccessStrategy::kScan}) {
    SCOPED_TRACE(std::string("strategy=") + AccessStrategyName(strategy));
    auto store = MakeStore({strategy, CrackPolicy::kStandard},
                           /*concurrent=*/true);
    auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
    Pcg32 init_rng(seed);
    for (size_t i = 0; i < n0; ++i) {
      ASSERT_TRUE(
          rel->AppendRow({Value(init_rng.NextInRange(1, domain))}).ok());
    }
    ASSERT_TRUE(store->AddTable(rel).ok());
    ASSERT_TRUE(store->SelectRange("t", "v", RangeBounds::All()).ok());

    std::atomic<bool> failed{false};
    std::atomic<bool> done{false};

    // Writers: auto-commit churn on private oid sets.
    std::vector<std::thread> threads;
    const size_t kWriters = 2;
    for (size_t w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Pcg32 rng(seed + 131 * (w + 1));
        std::vector<Oid> mine;
        for (int op = 0; op < 150 && !failed; ++op) {
          if (rng.NextBounded(2) == 0 || mine.empty()) {
            auto r = store->Insert(
                "t", {Value(rng.NextInRange(1, domain))});
            if (!r.ok() || r->inserted_oid == kInvalidOid) {
              ADD_FAILURE() << "insert: " << r.status().ToString();
              failed = true;
              return;
            }
            mine.push_back(r->inserted_oid);
          } else {
            size_t pick = rng.NextBounded(static_cast<uint32_t>(mine.size()));
            auto r = store->DeleteOids("t", {mine[pick]});
            if (!r.ok()) {
              ADD_FAILURE() << "delete: " << r.status().ToString();
              failed = true;
              return;
            }
            mine.erase(mine.begin() + static_cast<ptrdiff_t>(pick));
          }
        }
      });
    }
    // Snapshot readers: open a transaction, remember the count, re-read it
    // repeatedly while writers churn — it must never move.
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Pcg32 rng(seed + 9001 * (r + 1));
        for (int round = 0; round < 6 && !failed; ++round) {
          auto txn = store->Begin();
          if (!txn.ok()) {
            ADD_FAILURE() << "begin: " << txn.status().ToString();
            failed = true;
            return;
          }
          auto first = store->LiveRowCount("t", *txn);
          if (!first.ok()) {
            ADD_FAILURE() << "count: " << first.status().ToString();
            failed = true;
            return;
          }
          for (int probe = 0; probe < 8 && !failed; ++probe) {
            auto again = store->LiveRowCount("t", *txn);
            auto full = store->SelectRange("t", "v",
                                           RangeBounds::Closed(1, domain),
                                           Delivery::kCount, *txn);
            if (!again.ok() || !full.ok() || *again != *first ||
                full->count != *first) {
              ADD_FAILURE() << "snapshot moved: first " << *first << " again "
                            << (again.ok() ? *again : 0) << " select "
                            << (full.ok() ? full->count : 0);
              failed = true;
              return;
            }
            if (done.load(std::memory_order_acquire)) break;
          }
          (void)store->Commit(*txn);
        }
      });
    }
    for (size_t w = 0; w < kWriters; ++w) threads[w].join();
    done.store(true, std::memory_order_release);
    for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
    ASSERT_FALSE(failed);

    // Quiesced: vacuum, then live count equals a full select.
    ASSERT_TRUE(store->Vacuum().ok());
    auto live = store->LiveRowCount("t");
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(store->SelectRange("t", "v", RangeBounds::Closed(1, domain))
                  ->count,
              *live);
  }
}

// ---------------------------------------------------------------------------
// SQL surface: BEGIN/COMMIT/ROLLBACK/VACUUM through a session.
// ---------------------------------------------------------------------------

TEST(SqlTxnTest, SessionRoundTrip) {
  auto store = MakeStore({AccessStrategy::kCrack, CrackPolicy::kStandard});
  auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE(store->AddTable(rel).ok());

  sql::SqlSession session(store.get());
  sql::SqlSession other(store.get());

  ASSERT_TRUE(session.ExecuteSql("BEGIN").ok());
  EXPECT_TRUE(session.in_txn());
  EXPECT_FALSE(session.ExecuteSql("BEGIN TRANSACTION").ok());  // no nesting
  ASSERT_TRUE(session.ExecuteSql("DELETE FROM t WHERE v <= 4").ok());
  auto mine = session.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->count, 6u);
  // The other session still reads the committed state.
  auto theirs = other.ExecuteSql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs->count, 10u);

  ASSERT_TRUE(session.ExecuteSql("ROLLBACK").ok());
  EXPECT_FALSE(session.in_txn());
  EXPECT_EQ(session.ExecuteSql("SELECT COUNT(*) FROM t")->count, 10u);

  ASSERT_TRUE(session.ExecuteSql("BEGIN").ok());
  ASSERT_TRUE(session.ExecuteSql("UPDATE t SET v = 99 WHERE v = 9").ok());
  ASSERT_TRUE(session.ExecuteSql("COMMIT").ok());
  EXPECT_EQ(other.ExecuteSql("SELECT COUNT(*) FROM t WHERE v = 99")->count,
            1u);

  // SELECT * inside a transaction materializes snapshot-correct values.
  ASSERT_TRUE(other.ExecuteSql("BEGIN").ok());
  ASSERT_TRUE(session.ExecuteSql("UPDATE t SET v = 123 WHERE v = 99").ok());
  auto rows = other.ExecuteSql("SELECT * FROM t WHERE v = 99");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->count, 1u);
  EXPECT_EQ(rows->rows->GetRow(0)[0].ToInt64(), 99);
  ASSERT_TRUE(other.ExecuteSql("COMMIT").ok());

  auto vacuumed = session.ExecuteSql("VACUUM");
  ASSERT_TRUE(vacuumed.ok());
  EXPECT_EQ(vacuumed->kind, sql::OutputKind::kTxn);

  // Statement-level conflict surfaces as Aborted through SQL.
  ASSERT_TRUE(session.ExecuteSql("BEGIN").ok());
  ASSERT_TRUE(other.ExecuteSql("BEGIN").ok());
  ASSERT_TRUE(session.ExecuteSql("UPDATE t SET v = 5 WHERE v = 123").ok());
  ASSERT_TRUE(session.ExecuteSql("COMMIT").ok());
  auto conflict = other.ExecuteSql("UPDATE t SET v = 6 WHERE v = 123");
  ASSERT_FALSE(conflict.ok());
  EXPECT_TRUE(conflict.status().IsAborted());
  EXPECT_TRUE(other.ExecuteSql("COMMIT").status().IsAborted());
  EXPECT_FALSE(other.in_txn());
}

// ---------------------------------------------------------------------------
// Batch visibility: the bitmap API must agree bit-for-bit with the per-row
// probes it replaces in the hot scan loops.
// ---------------------------------------------------------------------------

TEST(SnapshotViewBatchTest, MasksAgreeWithPerRowProbes) {
  VersionedTable vt(/*base_oid=*/0, /*initial_rows=*/200);
  for (Oid oid = 0; oid < 200; oid += 7) vt.StampDelete(oid, 2 + oid % 5);
  for (Oid oid = 3; oid < 200; oid += 11) {
    vt.StampUpdate(oid, "v", Value(static_cast<int64_t>(oid * 10)), 4);
  }

  for (Ts ts : {Ts{0}, Ts{3}, Ts{6}}) {
    SCOPED_TRACE("read_ts=" + std::to_string(ts));
    SnapshotView view = vt.ViewFor(Snapshot{ts, 0}, "v");
    ASSERT_TRUE(view.active());

    // Scattered batch, including oids beyond the horizon.
    std::vector<Oid> oids;
    for (size_t i = 0; i < 210; ++i) oids.push_back((i * 13) % 211);
    std::vector<uint64_t> bm(BitmapWords(oids.size()));
    view.VisibleMask(oids.data(), oids.size(), bm.data());
    for (size_t i = 0; i < oids.size(); ++i) {
      EXPECT_EQ(BitmapTest(bm.data(), i), !view.Hides(oids[i]))
          << "oid " << oids[i];
    }

    // Contiguous spans at assorted offsets, including one straddling the
    // horizon; bits past n must stay zero.
    for (Oid first : {Oid{0}, Oid{5}, Oid{64}, Oid{190}}) {
      constexpr size_t kSpan = 40;
      std::vector<uint64_t> rm(BitmapWords(kSpan), ~uint64_t{0});
      view.VisibleRangeMask(first, kSpan, rm.data());
      for (size_t i = 0; i < kSpan; ++i) {
        EXPECT_EQ(BitmapTest(rm.data(), i), !view.Hides(first + i))
            << "oid " << (first + i);
      }
      EXPECT_EQ(rm.back() >> (kSpan % 64), 0u);
    }
  }

  // An inactive view hides nothing: the mask is all ones.
  SnapshotView inactive;
  std::vector<uint64_t> bm(BitmapWords(70));
  std::vector<Oid> oids(70, 12345);
  inactive.VisibleMask(oids.data(), oids.size(), bm.data());
  EXPECT_EQ(BitmapCount(bm.data(), 70), 70u);
}

TEST(SnapshotViewBatchTest, OverrideForFindsSnapshotValues) {
  VersionedTable vt(/*base_oid=*/0, /*initial_rows=*/50);
  for (Oid oid = 3; oid < 50; oid += 11) {
    vt.StampUpdate(oid, "v", Value(static_cast<int64_t>(oid * 10)), 4);
  }
  SnapshotView old_view = vt.ViewFor(Snapshot{3, 0}, "v");
  for (Oid oid = 0; oid < 50; ++oid) {
    const Value* ov = old_view.OverrideFor(oid);
    if (oid >= 3 && (oid - 3) % 11 == 0) {
      ASSERT_NE(ov, nullptr) << "oid " << oid;
      EXPECT_EQ(ov->ToInt64(), static_cast<int64_t>(oid * 10));
    } else {
      EXPECT_EQ(ov, nullptr) << "oid " << oid;
    }
  }
  // At a snapshot past the update commit the physical value is current.
  SnapshotView new_view = vt.ViewFor(Snapshot{6, 0}, "v");
  EXPECT_EQ(new_view.OverrideFor(3), nullptr);
}

// ---------------------------------------------------------------------------
// Bit-table marks: the view's filters test a per-oid mark before probing the
// version maps. Whatever the table went through, they must answer exactly
// what a reference built without the marks answers: InvisibleOids, plus the
// view's override oids, plus every oid at or past the horizon.
// ---------------------------------------------------------------------------

void ExpectViewMatchesReference(const VersionedTable& vt, Oid base,
                                const Snapshot& snap, const char* what) {
  SCOPED_TRACE(std::string(what) + " read_ts=" + std::to_string(snap.read_ts) +
               " txn=" + std::to_string(snap.txn));
  const Oid horizon = vt.horizon();
  const size_t total = static_cast<size_t>(horizon - base) + 70;
  SnapshotView view = vt.ViewFor(snap, "v", /*force_active=*/true);
  ASSERT_TRUE(view.active());
  std::vector<bool> invisible(total, false);
  for (Oid oid : vt.InvisibleOids(snap, base, total)) {
    invisible[oid - base] = true;
  }
  std::vector<bool> hidden = invisible;
  for (const auto& [oid, value] : view.overrides()) hidden[oid - base] = true;
  for (size_t i = static_cast<size_t>(horizon - base); i < total; ++i) {
    invisible[i] = hidden[i] = true;
  }

  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(view.Hides(base + i), hidden[i]) << "Hides oid " << base + i;
    ASSERT_EQ(view.RowVisible(base + i), !invisible[i])
        << "RowVisible oid " << base + i;
  }
  // VisibleMask over every oid in a scattered order.
  std::vector<Oid> oids(total);
  for (size_t i = 0; i < total; ++i) oids[i] = base + (i * 37) % total;
  if (total % 37 == 0) {
    for (size_t i = 0; i < total; ++i) oids[i] = base + i;
  }
  std::vector<uint64_t> bm(BitmapWords(total), ~uint64_t{0});
  view.VisibleMask(oids.data(), total, bm.data());
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(BitmapTest(bm.data(), i), !hidden[oids[i] - base])
        << "VisibleMask oid " << oids[i];
  }
  ASSERT_EQ(BitmapCount(bm.data(), total),
            static_cast<size_t>(std::count(hidden.begin(), hidden.end(),
                                           false)));
  // VisibleRangeMask over runs starting at assorted word offsets.
  for (size_t start : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{65}, size_t{130}}) {
    if (start >= total) continue;
    const size_t n = total - start;
    std::vector<uint64_t> rm(BitmapWords(n), ~uint64_t{0});
    view.VisibleRangeMask(base + start, n, rm.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(BitmapTest(rm.data(), i), !hidden[start + i])
          << "VisibleRangeMask oid " << base + start + i;
    }
    if (n % 64 != 0) {
      ASSERT_EQ(rm.back() >> (n % 64), 0u);
    }
  }
}

// Seeded INSERT/UPDATE/DELETE/BEGIN/COMMIT/ROLLBACK/VACUUM streams through
// serial and concurrent stores; after every step the latest snapshot, an
// older open reader and the open writer's own snapshot are checked.
TEST(SnapshotViewMarksTest, StoreStreamsMatchTheReference) {
  const uint64_t base_seed = TestSeed(4711);
  for (bool concurrent : {false, true}) {
    for (AccessStrategy strategy :
         {AccessStrategy::kCrack, AccessStrategy::kScan}) {
      const uint64_t seed = base_seed + (concurrent ? 100 : 0) +
                            static_cast<uint64_t>(strategy);
      SCOPED_TRACE(std::string(concurrent ? "concurrent " : "serial ") +
                   AccessStrategyName(strategy) + " seed=" +
                   std::to_string(seed) + " (rerun with CRACKSTORE_TEST_SEED)");
      Pcg32 rng(seed);
      auto store = MakeStore({strategy, CrackPolicy::kStandard}, concurrent);
      auto rel = *Relation::Create("t", Schema({{"v", ValueType::kInt64}}));
      for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(rel->AppendRow({Value(rng.NextInRange(1, 200))}).ok());
      }
      ASSERT_TRUE(store->AddTable(rel).ok());
      const VersionedTable* vt = store->versions("t");
      ASSERT_NE(vt, nullptr);
      TxnId reader = kNoTxn;
      TxnId writer = kNoTxn;
      for (int step = 0; step < 150; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        // Writes go to the open transaction half the time.
        TxnId txn = writer != kNoTxn && rng.NextBounded(2) == 0 ? writer
                                                                : kNoTxn;
        const Oid horizon = vt->horizon();
        const Oid oid = rng.NextBounded(static_cast<uint32_t>(horizon));
        const int64_t v = rng.NextInRange(1, 200);
        // A write the open writer lost to a conflict leaves it abort-only:
        // it is rolled back before the stream goes on.
        bool abort_only = false;
        switch (rng.NextBounded(10)) {
          case 0:
          case 1:
            ASSERT_TRUE(store->Insert("t", {Value(v)}, txn).ok());
            break;
          case 2:
          case 3: {
            // Conflicts with the open writer are legal outcomes here.
            auto r = store->DeleteOids("t", {oid}, txn);
            ASSERT_TRUE(r.ok() || r.status().IsAborted())
                << r.status().ToString();
            abort_only = txn != kNoTxn && !r.ok();
            break;
          }
          case 4:
          case 5: {
            auto r = store->Update("t", {{"v", Value(v)}},
                                   {{"v", RangeBounds::Equal(
                                             rng.NextInRange(1, 200))}},
                                   txn);
            ASSERT_TRUE(r.ok() || r.status().IsAborted())
                << r.status().ToString();
            abort_only = txn != kNoTxn && !r.ok();
            break;
          }
          case 6:
            if (writer == kNoTxn) {
              writer = *store->Begin();
            } else if (rng.NextBounded(2) == 0) {
              (void)store->Commit(writer);
              writer = kNoTxn;
            } else {
              ASSERT_TRUE(store->Rollback(writer).ok());
              writer = kNoTxn;
            }
            break;
          case 7:
            if (reader != kNoTxn) {
              ASSERT_TRUE(store->Commit(reader).ok());
            }
            reader = *store->Begin();
            break;
          case 8:
            ASSERT_TRUE(store->Vacuum().ok());
            break;
          case 9: {
            auto r = store->SelectRange("t", "v",
                                        RangeBounds::Closed(v, v + 40),
                                        Delivery::kCount, txn);
            ASSERT_TRUE(r.ok());
            break;
          }
        }
        if (abort_only) {
          ASSERT_TRUE(store->Rollback(writer).ok());
          writer = kNoTxn;
        }
        ExpectViewMatchesReference(
            *vt, 0, store->txn_manager().LatestSnapshot(), "latest");
        if (reader != kNoTxn) {
          ExpectViewMatchesReference(
              *vt, 0, *store->txn_manager().SnapshotOf(reader), "reader");
        }
        if (writer != kNoTxn) {
          ExpectViewMatchesReference(
              *vt, 0, *store->txn_manager().SnapshotOf(writer), "writer");
        }
      }
      if (writer != kNoTxn) {
        ASSERT_TRUE(store->Rollback(writer).ok());
      }
      if (reader != kNoTxn) {
        ASSERT_TRUE(store->Commit(reader).ok());
      }
    }
  }
}

// The same check against a version log driven directly, including the
// replay-style stamps recovery writes (committed stamps with no prior
// admission) and a base oid above zero.
TEST(SnapshotViewMarksTest, DirectVersionLogStreamsMatchTheReference) {
  const uint64_t seed = TestSeed(8088);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  const Oid base = 1000;
  VersionedTable vt(base, /*initial_rows=*/260);
  Ts next_ts = 1;
  TxnId next_txn = 1;
  TxnId open_txn = kNoTxn;
  Snapshot open_snap;
  std::vector<Oid> touched;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const Oid oid =
        base + rng.NextBounded(static_cast<uint32_t>(vt.horizon() - base));
    const bool in_txn = open_txn != kNoTxn && rng.NextBounded(2) == 0;
    const Ts stamp = in_txn ? TxnStamp(open_txn) : next_ts++;
    const Snapshot snap = in_txn ? open_snap : Snapshot{next_ts - 1, kNoTxn};
    switch (rng.NextBounded(8)) {
      case 0:
        vt.NoteInsert(vt.horizon(), stamp);
        if (in_txn) touched.push_back(vt.horizon() - 1);
        break;
      case 1:
        if (vt.AdmitWrite(oid, snap, in_txn ? open_txn : 0, nullptr) ==
            VersionedTable::Admission::kOk) {
          if (in_txn) {
            touched.push_back(oid);
          } else {
            vt.CommitTxn(0, stamp, {oid});
          }
        }
        break;
      case 2:
        vt.StampDelete(oid, stamp);
        if (in_txn) touched.push_back(oid);
        break;
      case 3:
      case 4:
        vt.StampUpdate(oid, "v", Value(static_cast<int64_t>(step)), stamp);
        if (in_txn) touched.push_back(oid);
        break;
      case 5:
        if (open_txn == kNoTxn) {
          open_txn = next_txn++;
          open_snap = Snapshot{next_ts - 1, open_txn};
          touched.clear();
        } else if (rng.NextBounded(2) == 0) {
          vt.CommitTxn(open_txn, next_ts++, touched);
          open_txn = kNoTxn;
        } else {
          vt.RollbackTxn(open_txn, touched);
          open_txn = kNoTxn;
        }
        break;
      case 6:
      case 7:
        (void)vt.Vacuum(open_txn != kNoTxn ? open_snap.read_ts : next_ts - 1);
        break;
    }
    for (Ts ts : {Ts{0}, (next_ts - 1) / 2, next_ts - 1}) {
      ExpectViewMatchesReference(vt, base, Snapshot{ts, kNoTxn}, "committed");
    }
    if (open_txn != kNoTxn) {
      ExpectViewMatchesReference(vt, base, open_snap, "open txn");
    }
  }
}

// ---------------------------------------------------------------------------
// Transactional join / group-by: snapshot views thread through the ^ and Ω
// crackers, and the caches rebuild on version churn.
// ---------------------------------------------------------------------------

TEST(TransactionalJoinGroupTest, JoinOidsRespectSnapshots) {
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kScan}) {
    SCOPED_TRACE(AccessStrategyName(strategy));
    auto store = MakeStore({strategy, CrackPolicy::kStandard});
    auto r = *Relation::Create("R", Schema({{"k", ValueType::kInt64}}));
    auto s = *Relation::Create("S", Schema({{"k", ValueType::kInt64}}));
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(r->AppendRow({Value(i)}).ok());
      ASSERT_TRUE(s->AppendRow({Value(i)}).ok());
    }
    ASSERT_TRUE(store->AddTable(r).ok());
    ASSERT_TRUE(store->AddTable(s).ok());
    ASSERT_EQ(store->JoinOids("R", "k", "S", "k")->size(), 20u);  // warm ^

    TxnId reader = *store->Begin();
    // Committed after the snapshot: R.k=3 deleted, R.k=7 rewritten to 100
    // (loses its partner), S.k=15 rewritten to 5 (R.k=5 gains a second
    // partner, R.k=15 loses its only one).
    ASSERT_TRUE(store->Delete("R", {{"k", RangeBounds::Equal(3)}}).ok());
    ASSERT_TRUE(store
                    ->Update("R", {{"k", Value(int64_t{100})}},
                             {{"k", RangeBounds::Equal(7)}})
                    .ok());
    ASSERT_TRUE(store
                    ->Update("S", {{"k", Value(int64_t{5})}},
                             {{"k", RangeBounds::Equal(15)}})
                    .ok());

    // The pinned reader still joins the pre-DML world.
    auto pinned = store->JoinOids("R", "k", "S", "k", reader);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(pinned->size(), 20u);

    // Latest committed: 16 untouched singles + two pairs for k=5.
    auto latest = store->JoinOids("R", "k", "S", "k");
    ASSERT_TRUE(latest.ok());
    EXPECT_EQ(latest->size(), 18u);

    ASSERT_TRUE(store->Commit(reader).ok());
  }
}

TEST(TransactionalJoinGroupTest, GroupByRespectsSnapshots) {
  auto store = MakeStore({AccessStrategy::kCrack, CrackPolicy::kStandard});
  auto rel = *Relation::Create(
      "G", Schema({{"g", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i % 4), Value(i)}).ok());
  }
  ASSERT_TRUE(store->AddTable(rel).ok());
  ASSERT_EQ(store->GroupBy("G", "g", "v", AggKind::kCount)->size(),
            4u);  // warm Ω

  TxnId reader = *store->Begin();
  // Committed after the snapshot: group 3 migrates wholesale to a brand-new
  // key 9, the rows with v >= 36 (one per group) are deleted, and one
  // aggregate input is rewritten (v: 5 -> 1000, group 1).
  ASSERT_TRUE(store
                  ->Update("G", {{"g", Value(int64_t{9})}},
                           {{"g", RangeBounds::Equal(3)}})
                  .ok());
  ASSERT_TRUE(store->Delete("G", {{"v", RangeBounds::AtLeast(36)}}).ok());
  ASSERT_TRUE(store
                  ->Update("G", {{"v", Value(int64_t{1000})}},
                           {{"v", RangeBounds::Equal(5)}})
                  .ok());

  // Pinned reader: the original four groups of ten, original sums.
  auto pinned_counts = store->GroupBy("G", "g", "v", AggKind::kCount, reader);
  ASSERT_TRUE(pinned_counts.ok());
  ASSERT_EQ(pinned_counts->size(), 4u);
  for (const auto& agg : *pinned_counts) {
    EXPECT_LE(agg.group, 3);
    EXPECT_EQ(agg.value, 10);
  }
  auto pinned_sums = store->GroupBy("G", "g", "v", AggKind::kSum, reader);
  ASSERT_TRUE(pinned_sums.ok());
  int64_t pinned_g1 = -1;
  for (const auto& agg : *pinned_sums) {
    if (agg.group == 1) pinned_g1 = agg.value;
  }
  EXPECT_EQ(pinned_g1, 190);  // 1 + 5 + ... + 37

  // Latest committed: group 3 is gone, group 9 exists, each group lost its
  // v >= 36 row, and group 1's sum reflects the rewritten input.
  auto latest_counts = store->GroupBy("G", "g", "v", AggKind::kCount);
  ASSERT_TRUE(latest_counts.ok());
  ASSERT_EQ(latest_counts->size(), 4u);
  for (const auto& agg : *latest_counts) {
    EXPECT_NE(agg.group, 3);
    EXPECT_EQ(agg.value, 9);
  }
  auto latest_sums = store->GroupBy("G", "g", "v", AggKind::kSum);
  ASSERT_TRUE(latest_sums.ok());
  int64_t latest_g1 = -1;
  for (const auto& agg : *latest_sums) {
    if (agg.group == 1) latest_g1 = agg.value;
  }
  EXPECT_EQ(latest_g1, 190 - 37 - 5 + 1000);

  ASSERT_TRUE(store->Commit(reader).ok());
}

}  // namespace
}  // namespace crackstore
