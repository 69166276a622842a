// Copyright 2026 The CrackStore Authors
//
// Mixed read/write parity for the DML-capable access-path layer: every
// strategy (scan/crack/sort) × delta-merge policy (immediate/threshold/
// ripple) × crack policy must match a model oracle under randomized
// interleavings of INSERT, DELETE, UPDATE and range selections — both at
// the raw ColumnAccessPath level and end-to-end through the AdaptiveStore
// facade (where WHERE-driven DML and tombstone-aware full scans live).

// Randomized sections print their seed on failure; rerun a reported seed
// with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "core/column_deltas.h"
#include "core/cracker_index.h"
#include "core/oid_bit_table.h"
#include "core/simd_dispatch.h"
#include "storage/bat.h"
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
// Path-level parity.
// ---------------------------------------------------------------------------

std::vector<AccessPathConfig> AllWriteConfigs() {
  std::vector<AccessPathConfig> configs;
  for (AccessStrategy strategy :
       {AccessStrategy::kScan, AccessStrategy::kCrack, AccessStrategy::kSort}) {
    for (DeltaMergePolicy merge :
         {DeltaMergePolicy::kImmediate, DeltaMergePolicy::kThreshold,
          DeltaMergePolicy::kRippleOnSelect}) {
      std::vector<CrackPolicy> crack_policies{CrackPolicy::kStandard};
      if (strategy == AccessStrategy::kCrack) {
        crack_policies = {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                          CrackPolicy::kCoarse};
      }
      for (CrackPolicy policy : crack_policies) {
        AccessPathConfig config;
        config.strategy = strategy;
        config.policy.policy = policy;
        config.policy.min_piece_size = 64;
        config.delta_merge.policy = merge;
        config.delta_merge.threshold_fraction = 0.05;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

std::string ConfigName(const AccessPathConfig& config) {
  return std::string(AccessStrategyName(config.strategy)) + "/" +
         CrackPolicyName(config.policy.policy) + "/" +
         DeltaMergePolicyName(config.delta_merge.policy);
}

/// Oracle: the live rows as oid -> value.
using Model = std::map<Oid, int64_t>;

std::vector<Oid> ModelOids(const Model& model, const RangeBounds& range) {
  std::vector<Oid> oids;
  for (const auto& [oid, value] : model) {
    if (range.Contains(value)) oids.push_back(oid);
  }
  return oids;  // std::map iterates ascending
}

/// The store's delta-fold rule (AdaptiveStore::MaintainColumn) on a bare
/// path: flush when the path says a fold is due, before a read
/// (`before_read`) or after a write.
Status Maintain(ColumnAccessPath* path, bool before_read) {
  return path->WantsMaintenance(before_read) ? path->FlushDeltas()
                                             : Status::OK();
}

/// One randomized mixed-workload session of `ops` operations against one
/// path configuration, asserting selection parity with the model after
/// every read. Deltas fold mid-stream by the store's rule.
void RunMixedSession(const AccessPathConfig& config, uint64_t seed) {
  SCOPED_TRACE("config=" + ConfigName(config) +
               " seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  const size_t n0 = 1500;
  const int64_t domain = 2000;
  Pcg32 rng(seed);

  std::vector<int64_t> initial(n0);
  for (auto& v : initial) v = rng.NextInRange(1, domain);
  auto bat = Bat::FromVector(initial, "c");
  Model model;
  for (size_t i = 0; i < n0; ++i) model[i] = initial[i];

  auto path_result = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path_result.ok()) << ConfigName(config);
  ColumnAccessPath* path = path_result->get();

  auto check_select = [&](int op) {
    int64_t lo = rng.NextInRange(-50, domain + 50);
    int64_t hi = lo + rng.NextInRange(0, domain / 3);
    RangeBounds range{lo, rng.NextBounded(2) == 0, hi,
                      rng.NextBounded(2) == 0};
    ASSERT_TRUE(Maintain(path, /*before_read=*/true).ok()) << "op " << op;
    IoStats io;
    AccessSelection sel = path->Select(range, Delivery::kView, &io);
    std::vector<Oid> expected = ModelOids(model, range);
    ASSERT_EQ(sel.count, expected.size())
        << ConfigName(config) << " op " << op;
    ASSERT_EQ(sel.span_set.ToOids(), expected)
        << ConfigName(config) << " op " << op;
  };

  for (int op = 0; op < 400; ++op) {
    uint32_t dice = rng.NextBounded(100);
    if (dice < 40) {
      check_select(op);
    } else if (dice < 65) {
      // INSERT: base append first, then the path (the facade's contract).
      int64_t value = rng.NextInRange(1, domain);
      bat->Append<int64_t>(value);
      Oid oid = bat->head_base() + bat->size() - 1;
      ASSERT_TRUE(path->Insert(Value(value), oid).ok()) << ConfigName(config);
      model[oid] = value;
    } else if (dice < 82) {
      if (model.empty()) continue;
      // DELETE a random live row.
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      ASSERT_TRUE(path->Delete(it->first).ok())
          << ConfigName(config) << " op " << op;
      model.erase(it);
    } else {
      if (model.empty()) continue;
      // UPDATE a random live row: base write-through first, then the path.
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      int64_t value = rng.NextInRange(1, domain);
      ASSERT_TRUE(
          bat->SetNumeric(static_cast<size_t>(it->first - bat->head_base()),
                          value)
              .ok());
      ASSERT_TRUE(path->Update(it->first, Value(it->second), Value(value)).ok())
          << ConfigName(config) << " op " << op;
      it->second = value;
    }
    if (dice >= 40) {
      ASSERT_TRUE(Maintain(path, /*before_read=*/false).ok())
          << ConfigName(config) << " op " << op;
    }
  }

  // A manual flush must not change any answer, and must drain the deltas of
  // the stateful strategies.
  ASSERT_TRUE(path->FlushDeltas().ok()) << ConfigName(config);
  if (config.strategy != AccessStrategy::kScan) {
    EXPECT_EQ(path->pending_inserts(), 0u) << ConfigName(config);
    EXPECT_EQ(path->pending_deletes(), 0u) << ConfigName(config);
  }
  check_select(-1);
}

TEST(UpdatePathTest, MixedWorkloadParityAllStrategiesAndMergePolicies) {
  uint64_t seed = TestSeed(31);
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    RunMixedSession(config, seed++);
  }
}

// ---------------------------------------------------------------------------
// Tombstone tables: every path keeps its tombstones as an oid bit table. The
// tombstones that Delete, Update and Merge leave behind must agree with a
// reference set — the path's pending_deletes(), its select counts, and (for
// the crack and sort paths' ColumnDeltas) IsDeleted on every oid.
// ---------------------------------------------------------------------------

/// The tombstones and pending inserts a delta-carrying path should hold,
/// derived from the documented write semantics; a merge folds both.
struct TombstoneReference {
  std::set<Oid> tombstones;
  std::set<Oid> pending;
  std::set<Oid> purged;

  void Insert(Oid oid) { pending.insert(oid); }
  void Delete(Oid oid) {
    if (pending.erase(oid) > 0) {
      purged.insert(oid);  // a pending insert is cancelled, not tombstoned
    } else {
      tombstones.insert(oid);
    }
  }
  void Update(Oid oid) {
    if (pending.count(oid) > 0) return;  // rewritten in place
    tombstones.insert(oid);
    pending.insert(oid);
  }
  void Merge() {
    for (Oid oid : tombstones) {
      if (pending.count(oid) == 0) purged.insert(oid);
    }
    tombstones.clear();
    pending.clear();
  }
};

TEST(TombstoneTableTest, PathsAgreeWithAReferenceSet) {
  uint64_t seed = TestSeed(5150);
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    SCOPED_TRACE("config=" + ConfigName(config) +
                 " seed=" + std::to_string(seed) +
                 " (rerun with CRACKSTORE_TEST_SEED)");
    Pcg32 rng(seed++);
    const int64_t domain = 1000;
    std::vector<int64_t> initial(800);
    for (auto& v : initial) v = rng.NextInRange(1, domain);
    auto bat = Bat::FromVector(initial, "c");
    Model model;
    for (size_t i = 0; i < initial.size(); ++i) model[i] = initial[i];
    auto path_result = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path_result.ok());
    ColumnAccessPath* path = path_result->get();
    const bool scan = config.strategy == AccessStrategy::kScan;
    TombstoneReference ref;
    bool built = false;  // crack/sort absorb inserts and updates until built
    size_t merges = 0;

    auto random_live = [&] {
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      return it;
    };
    for (int op = 0; op < 300; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      // The first ops delete before any select: pre-build tombstones.
      const uint32_t dice = op < 5 ? 50 : rng.NextBounded(100);
      if (dice < 30) {
        int64_t lo = rng.NextInRange(1, domain);
        RangeBounds range =
            RangeBounds::Closed(lo, lo + rng.NextInRange(0, 300));
        ASSERT_TRUE(Maintain(path, /*before_read=*/true).ok());
        AccessSelection sel = path->Select(range, Delivery::kView, nullptr);
        ASSERT_EQ(sel.count, ModelOids(model, range).size());
        built = true;
      } else if (dice < 45) {
        int64_t value = rng.NextInRange(1, domain);
        bat->Append<int64_t>(value);
        Oid oid = bat->size() - 1;
        ASSERT_TRUE(path->Insert(Value(value), oid).ok());
        model[oid] = value;
        if (built && !scan) ref.Insert(oid);
      } else if (dice < 75) {
        if (model.empty()) continue;
        auto it = random_live();
        ASSERT_TRUE(path->Delete(it->first).ok());
        // Deleting twice is refused, whatever the strategy.
        EXPECT_TRUE(path->Delete(it->first).IsAlreadyExists());
        if (scan) {
          ref.tombstones.insert(it->first);
        } else {
          ref.Delete(it->first);
        }
        model.erase(it);
      } else if (dice < 95) {
        if (model.empty()) continue;
        auto it = random_live();
        int64_t value = rng.NextInRange(1, domain);
        ASSERT_TRUE(
            bat->SetNumeric(static_cast<size_t>(it->first), value).ok());
        ASSERT_TRUE(
            path->Update(it->first, Value(it->second), Value(value)).ok());
        it->second = value;
        if (built && !scan) ref.Update(it->first);
      } else {
        ASSERT_TRUE(path->FlushDeltas().ok());
        built = true;
      }
      if (dice >= 30 && dice < 95) {
        ASSERT_TRUE(Maintain(path, /*before_read=*/false).ok());
      }
      if (path->merges_performed() != merges) {
        merges = path->merges_performed();
        ref.Merge();
      }
      ASSERT_EQ(path->pending_deletes(), ref.tombstones.size());
      if (!scan) {
        ASSERT_EQ(path->pending_inserts(), ref.pending.size());
      }
    }
  }
}

TEST(TombstoneTableTest, ColumnDeltasIsDeletedMatchesAReferenceSet) {
  const uint64_t seed = TestSeed(6160);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  Pcg32 rng(seed);
  const int64_t domain = 700;
  std::vector<int64_t> initial(600);
  for (auto& v : initial) v = rng.NextInRange(1, domain);
  auto bat = Bat::FromVector(initial, "c");
  bat->set_head_base(5000);  // tombstones are kept relative to the base oid
  // A cracker column and its deltas, folded by hand as the crack path does.
  auto index = std::make_unique<CrackerIndex<int64_t>>(bat);
  ColumnDeltas<int64_t> deltas(bat);
  deltas.Start();
  Model model;
  for (size_t i = 0; i < initial.size(); ++i) model[5000 + i] = initial[i];
  TombstoneReference ref;
  auto fold = [&] {
    auto folded = index->Fold(deltas.tombstones(), deltas.pending());
    ASSERT_TRUE(folded.ok());
    index = std::move(*folded);
    deltas.Retire(index->size());
    ref.Merge();
  };
  EXPECT_TRUE(deltas.Delete(4999).IsNotFound());  // below the base oid
  for (int op = 0; op < 500; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const uint32_t dice = rng.NextBounded(100);
    if (dice < 25) {
      int64_t lo = rng.NextInRange(1, domain);
      RangeBounds range = RangeBounds::Closed(lo, lo + rng.NextInRange(0, 200));
      // Fold once the delta passes 8% of the cracker column.
      const size_t delta = deltas.pending_inserts() + deltas.pending_deletes();
      if (delta > index->size() * 8 / 100) fold();
      // span − hidden candidates + pending rows in range
      uint64_t count = index->Select(range.lo, true, range.hi, true).count() -
                       deltas.HiddenIn(range.lo, true, range.hi, true,
                                       nullptr, nullptr)
                           .size();
      for (const auto& [value, oid] : deltas.pending()) {
        count += range.Contains(value) ? 1 : 0;
      }
      ASSERT_EQ(count, ModelOids(model, range).size());
    } else if (dice < 45) {
      int64_t value = rng.NextInRange(1, domain);
      bat->Append<int64_t>(value);
      const Oid oid = 5000 + bat->size() - 1;
      ASSERT_TRUE(deltas.Insert(value, oid).ok());
      model[oid] = value;
      ref.Insert(oid);
    } else if (dice < 70) {
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      ASSERT_TRUE(deltas.Delete(it->first).ok());
      ref.Delete(it->first);
      model.erase(it);
    } else if (dice < 95) {
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      int64_t value = rng.NextInRange(1, domain);
      ASSERT_TRUE(bat->SetNumeric(it->first - 5000, value).ok());
      ASSERT_TRUE(deltas.Update(it->first, it->second, value).ok());
      it->second = value;
      ref.Update(it->first);
    } else {
      fold();
    }
    ASSERT_EQ(deltas.pending_deletes(), ref.tombstones.size());
    ASSERT_EQ(deltas.pending_inserts(), ref.pending.size());
    const Oid end = 5000 + bat->size();
    for (Oid oid = 4990; oid < end + 10; ++oid) {
      ASSERT_EQ(deltas.IsDeleted(oid), ref.tombstones.count(oid) > 0)
          << "oid " << oid;
    }
    // Purged rows stay dead: deleting or updating them again is refused.
    if (!ref.purged.empty()) {
      Oid dead = *ref.purged.begin();
      ASSERT_FALSE(deltas.Delete(dead).ok());
      ASSERT_TRUE(deltas.Update(dead, 0, 1).IsNotFound());
    }
    ASSERT_TRUE(index->Validate().ok());
    const Status valid =
        deltas.Validate(index->values()->TailData<int64_t>(),
                        index->oids()->TailData<Oid>(), index->size());
    ASSERT_TRUE(valid.ok()) << valid.ToString();
  }
}

// The bit table's word-wise walks agree with a std::set at every alignment
// of the run against the table's words.
TEST(TombstoneTableTest, BitTableWalksMatchASet) {
  Pcg32 rng(42);
  for (Oid base : {Oid{0}, Oid{3}, Oid{64}, Oid{1000}}) {
    SCOPED_TRACE("base " + std::to_string(base));
    OidBitTable table(base);
    std::set<Oid> ref;
    EXPECT_FALSE(table.Test(base));
    for (int k = 0; k < 300; ++k) {
      Oid oid = base + rng.NextBounded(700);
      EXPECT_EQ(table.Set(oid), ref.insert(oid).second);
      if (rng.NextBounded(4) == 0) {
        Oid gone = base + rng.NextBounded(700);
        EXPECT_EQ(table.Clear(gone), ref.erase(gone) > 0);
      }
    }
    ASSERT_EQ(table.count(), ref.size());
    std::vector<Oid> walked;
    table.ForEach([&](Oid oid) { walked.push_back(oid); });
    EXPECT_EQ(walked, std::vector<Oid>(ref.begin(), ref.end()));
    EXPECT_FALSE(base > 0 && table.Test(base - 1));
    for (size_t start : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                         size_t{200}, size_t{690}, size_t{900}}) {
      for (size_t n : {size_t{0}, size_t{5}, size_t{64}, size_t{130},
                       size_t{1000}}) {
        std::vector<uint64_t> bm(BitmapWords(n));
        BitmapFill(bm.data(), n);
        table.ClearMembers(base + start, n, bm.data());
        std::vector<size_t> in_run;
        table.ForEachIn(base + start, n,
                        [&](size_t i) { in_run.push_back(i); });
        std::vector<size_t> want;
        for (size_t i = 0; i < n; ++i) {
          const bool member = ref.count(base + start + i) > 0;
          ASSERT_EQ(BitmapTest(bm.data(), i), !member)
              << "start " << start << " n " << n << " i " << i;
          if (member) want.push_back(i);
        }
        ASSERT_EQ(in_run, want) << "start " << start << " n " << n;
        if (n % 64 != 0) {
          ASSERT_EQ(bm.back() >> (n % 64), 0u);
        }
      }
    }
    table.ClearAll();
    EXPECT_TRUE(table.empty());
    EXPECT_FALSE(table.Test(*ref.begin()));
  }
}

TEST(UpdatePathTest, DeleteBeforeFirstSelectIsHonored) {
  // Tombstones buffered before the lazy accelerator build must not
  // resurrect once the accelerator materializes from the (append-only)
  // base column.
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    std::vector<int64_t> values{10, 20, 30, 40, 50};
    auto bat = Bat::FromVector(values, "c");
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    ASSERT_TRUE((*path)->Delete(1).ok()) << ConfigName(config);  // value 20
    EXPECT_GE((*path)->pending_deletes(), 1u) << ConfigName(config);
    IoStats io;
    AccessSelection sel =
        (*path)->Select(RangeBounds::Closed(15, 45), Delivery::kView, &io);
    EXPECT_EQ(sel.count, 2u) << ConfigName(config);
    EXPECT_EQ(sel.span_set.ToOids(), (std::vector<Oid>{2, 3}))
        << ConfigName(config);
  }
}

TEST(UpdatePathTest, DeleteOfPendingInsertStaysDeadAcrossStrategies) {
  // Regression: cancelling a pending insert must not let a later Update()
  // resurrect the row through the merged-tuple branch, in any strategy.
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    std::vector<int64_t> values{10, 20, 30};
    auto bat = Bat::FromVector(values, "c");
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats io;
    (void)(*path)->Select(RangeBounds::All(), Delivery::kView, &io);  // build
    bat->Append<int64_t>(40);
    ASSERT_TRUE((*path)->Insert(Value(int64_t{40}), 3).ok())
        << ConfigName(config);
    ASSERT_TRUE((*path)->Delete(3).ok()) << ConfigName(config);
    // The oid is dead: updates must not bring it back (scan paths keep no
    // pending state, so their no-op Update is exempt from the status check).
    if (config.strategy != AccessStrategy::kScan) {
      EXPECT_FALSE(
          (*path)->Update(3, Value(int64_t{40}), Value(int64_t{50})).ok())
          << ConfigName(config);
    }
    AccessSelection sel =
        (*path)->Select(RangeBounds::All(), Delivery::kView, &io);
    EXPECT_EQ(sel.count, 3u) << ConfigName(config);
    EXPECT_EQ(sel.span_set.ToOids(), (std::vector<Oid>{0, 1, 2}))
        << ConfigName(config);
  }
}

TEST(UpdatePathTest, DeleteValidationIsUniformAcrossStrategies) {
  // Duplicate and out-of-range deletes must answer identically through
  // every strategy, before and after the lazy build — and must not blow up
  // the eventual tombstone replay.
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    std::vector<int64_t> values{10, 20, 30};
    auto bat = Bat::FromVector(values, "c");
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    // Pre-build.
    ASSERT_TRUE((*path)->Delete(1).ok()) << ConfigName(config);
    EXPECT_TRUE((*path)->Delete(1).IsAlreadyExists()) << ConfigName(config);
    EXPECT_TRUE((*path)->Delete(99).IsNotFound()) << ConfigName(config);
    IoStats io;
    AccessSelection sel =
        (*path)->Select(RangeBounds::All(), Delivery::kView, &io);
    EXPECT_EQ(sel.count, 2u) << ConfigName(config);
    EXPECT_EQ(sel.span_set.ToOids(), (std::vector<Oid>{0, 2}))
        << ConfigName(config);
    // Post-build.
    EXPECT_TRUE((*path)->Delete(1).IsAlreadyExists()) << ConfigName(config);
    EXPECT_TRUE((*path)->Delete(99).IsNotFound()) << ConfigName(config);
    ASSERT_TRUE((*path)->Delete(0).ok()) << ConfigName(config);
    sel = (*path)->Select(RangeBounds::All(), Delivery::kView, &io);
    EXPECT_EQ(sel.count, 1u) << ConfigName(config);
  }
}

TEST(UpdatePathTest, UpdateKeepsOidStable) {
  for (const AccessPathConfig& config : AllWriteConfigs()) {
    std::vector<int64_t> values{10, 20, 30};
    auto bat = Bat::FromVector(values, "c");
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats io;
    // Materialize the accelerator, then move oid 1 to the other end of the
    // value domain.
    (void)(*path)->Select(RangeBounds::All(), Delivery::kView, &io);
    ASSERT_TRUE(bat->SetNumeric(1, 999).ok());
    ASSERT_TRUE(
        (*path)->Update(1, Value(int64_t{20}), Value(int64_t{999})).ok())
        << ConfigName(config);
    AccessSelection gone =
        (*path)->Select(RangeBounds::Closed(15, 25), Delivery::kView, &io);
    EXPECT_EQ(gone.count, 0u) << ConfigName(config);
    AccessSelection moved =
        (*path)->Select(RangeBounds::AtLeast(900), Delivery::kView, &io);
    EXPECT_EQ(moved.count, 1u) << ConfigName(config);
    EXPECT_EQ(moved.span_set.ToOids(), (std::vector<Oid>{1}))
        << ConfigName(config);
  }
}

// Every write an accelerator absorbs is charged once: an insert, an update
// of a row still pending as an insert (rewritten in place), and an update
// of a row the accelerator already holds.
TEST(UpdatePathTest, EveryAbsorbedWriteIsChargedOnce) {
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kSort}) {
    SCOPED_TRACE(AccessStrategyName(strategy));
    AccessPathConfig config;
    config.strategy = strategy;
    std::vector<int64_t> values{10, 20, 30};
    auto bat = Bat::FromVector(values, "c");
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats build;
    (void)(*path)->Select(RangeBounds::All(), Delivery::kView, &build);

    IoStats insert;
    bat->Append<int64_t>(40);
    ASSERT_TRUE((*path)->Insert(Value(int64_t{40}), 3, &insert).ok());
    EXPECT_EQ(insert.tuples_written, 1u);

    IoStats update_pending;
    ASSERT_TRUE(bat->SetNumeric(3, 45).ok());
    ASSERT_TRUE((*path)
                    ->Update(3, Value(int64_t{40}), Value(int64_t{45}),
                             &update_pending)
                    .ok());
    EXPECT_EQ(update_pending.tuples_written, 1u);

    IoStats update_merged;
    ASSERT_TRUE(bat->SetNumeric(1, 25).ok());
    ASSERT_TRUE((*path)
                    ->Update(1, Value(int64_t{20}), Value(int64_t{25}),
                             &update_merged)
                    .ok());
    EXPECT_EQ(update_merged.tuples_written, 1u);

    AccessSelection sel =
        (*path)->Select(RangeBounds::Closed(25, 45), Delivery::kView, &build);
    EXPECT_EQ(sel.span_set.ToOids(), (std::vector<Oid>{1, 2, 3}));
  }
}

TEST(UpdatePathTest, CoarseCountOnlySelectKeepsBaseHitsUnderPendingInserts) {
  // Regression: a coarse fuzzy-edge answer is an oid-list; a count-only
  // select used to lose the base hits when pending inserts forced the
  // delta overlay.
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  config.policy.policy = CrackPolicy::kCoarse;
  config.policy.min_piece_size = 1024;  // > n: never cracks, always fuzzy
  config.delta_merge.policy = DeltaMergePolicy::kThreshold;
  config.delta_merge.threshold_fraction = 0.5;  // keep the delta pending
  std::vector<int64_t> values(100);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i + 1);
  }
  auto bat = Bat::FromVector(values, "c");
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  IoStats io;
  AccessSelection sel =
      (*path)->Select(RangeBounds::Closed(10, 20), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 11u);
  bat->Append<int64_t>(15);
  ASSERT_TRUE((*path)->Insert(Value(int64_t{15}), 100).ok());
  ASSERT_EQ((*path)->pending_inserts(), 1u);
  sel = (*path)->Select(RangeBounds::Closed(10, 20), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 12u);  // 11 base hits + the pending insert
  sel = (*path)->Select(RangeBounds::Closed(10, 20), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 12u);
  EXPECT_EQ(sel.span_set.ToOids().size(), 12u);
}

TEST(UpdatePathTest, DoubleColumnsSelectAndWrite) {
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  auto bat =
      Bat::FromVector(std::vector<double>{1.5, 2.5, 3.5, 4.5, 5.5}, "f");
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  IoStats io;
  // int64-widened bounds select over the double domain.
  AccessSelection sel =
      (*path)->Select(RangeBounds::Closed(2, 4), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 2u);  // 2.5, 3.5
  bat->Append<double>(3.0);
  ASSERT_TRUE((*path)->Insert(Value(3.0), 5).ok());
  sel = (*path)->Select(RangeBounds::Closed(2, 4), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 3u);
  ASSERT_TRUE((*path)->Delete(1).ok());  // 2.5
  sel = (*path)->Select(RangeBounds::Closed(2, 4), Delivery::kView, &io);
  EXPECT_EQ(sel.count, 2u);
}

// ---------------------------------------------------------------------------
// Facade-level parity (WHERE-driven DML, tombstone-aware scans).
// ---------------------------------------------------------------------------

struct FacadeRow {
  int64_t c0;
  int64_t c1;
  bool live = true;
};

class UpdateFacadeTest
    : public ::testing::TestWithParam<
          std::tuple<AccessStrategy, DeltaMergePolicy>> {};

TEST_P(UpdateFacadeTest, RandomizedDmlMatchesOracle) {
  auto [strategy, merge] = GetParam();
  uint64_t seed = TestSeed(407) + static_cast<uint64_t>(strategy) * 13 +
                  static_cast<uint64_t>(merge) * 7;
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  DbOptions opts;
  opts.strategy = strategy;
  opts.delta_merge.policy = merge;
  opts.delta_merge.threshold_fraction = 0.05;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;

  const size_t n0 = 800;
  const int64_t domain = 1000;
  Pcg32 rng(seed);
  auto rel = *Relation::Create(
      "R", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
  std::vector<FacadeRow> rows;
  for (size_t i = 0; i < n0; ++i) {
    FacadeRow row{rng.NextInRange(1, domain), rng.NextInRange(1, domain)};
    ASSERT_TRUE(rel->AppendRow({Value(row.c0), Value(row.c1)}).ok());
    rows.push_back(row);
  }
  ASSERT_TRUE(store.AddTable(rel).ok());

  auto oracle_count = [&](const RangeBounds& r0, const RangeBounds* r1) {
    uint64_t count = 0;
    for (const FacadeRow& row : rows) {
      if (!row.live) continue;
      if (!r0.Contains(row.c0)) continue;
      if (r1 != nullptr && !r1->Contains(row.c1)) continue;
      ++count;
    }
    return count;
  };

  auto random_range = [&]() {
    int64_t lo = rng.NextInRange(-20, domain + 20);
    return RangeBounds::Closed(lo, lo + rng.NextInRange(0, domain / 2));
  };

  for (int op = 0; op < 120; ++op) {
    uint32_t dice = rng.NextBounded(100);
    if (dice < 35) {
      RangeBounds range = random_range();
      auto qr = store.SelectRange("R", "c0", range, Delivery::kView);
      ASSERT_TRUE(qr.ok());
      ASSERT_EQ(qr->count, oracle_count(range, nullptr)) << "op " << op;
      ASSERT_EQ(qr->CollectOids().size(), qr->count) << "op " << op;
    } else if (dice < 50) {
      RangeBounds r0 = random_range();
      RangeBounds r1 = random_range();
      auto qr = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}});
      ASSERT_TRUE(qr.ok());
      ASSERT_EQ(qr->count, oracle_count(r0, &r1)) << "op " << op;
    } else if (dice < 70) {
      FacadeRow row{rng.NextInRange(1, domain), rng.NextInRange(1, domain)};
      auto qr = store.Insert("R", {Value(row.c0), Value(row.c1)});
      ASSERT_TRUE(qr.ok());
      EXPECT_EQ(qr->count, 1u);
      rows.push_back(row);
    } else if (dice < 85) {
      // DELETE a narrow c0 band.
      int64_t lo = rng.NextInRange(1, domain);
      RangeBounds range = RangeBounds::Closed(lo, lo + 5);
      auto qr = store.Delete("R", {{"c0", range}});
      ASSERT_TRUE(qr.ok());
      uint64_t expected = 0;
      for (FacadeRow& row : rows) {
        if (row.live && range.Contains(row.c0)) {
          row.live = false;
          ++expected;
        }
      }
      ASSERT_EQ(qr->count, expected) << "op " << op;
    } else {
      // UPDATE c1 of a narrow c0 band.
      int64_t lo = rng.NextInRange(1, domain);
      RangeBounds range = RangeBounds::Closed(lo, lo + 5);
      int64_t set = rng.NextInRange(1, domain);
      auto qr = store.Update("R", {{"c1", Value(set)}}, {{"c0", range}});
      ASSERT_TRUE(qr.ok());
      uint64_t expected = 0;
      for (FacadeRow& row : rows) {
        if (row.live && range.Contains(row.c0)) {
          row.c1 = set;
          ++expected;
        }
      }
      ASSERT_EQ(qr->count, expected) << "op " << op;
    }
  }

  // Terminal accounting: live row count and full-range selects agree.
  uint64_t live = 0;
  for (const FacadeRow& row : rows) live += row.live ? 1 : 0;
  ASSERT_EQ(*store.LiveRowCount("R"), live);
  auto all = store.SelectRange("R", "c0", RangeBounds::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count, live);
  EXPECT_EQ(store.LiveOids("R")->size(), live);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyByMergePolicy, UpdateFacadeTest,
    ::testing::Combine(
        ::testing::Values(AccessStrategy::kScan, AccessStrategy::kCrack,
                          AccessStrategy::kSort),
        ::testing::Values(DeltaMergePolicy::kImmediate,
                          DeltaMergePolicy::kThreshold,
                          DeltaMergePolicy::kRippleOnSelect)),
    [](const auto& info) {
      return std::string(AccessStrategyName(std::get<0>(info.param))) + "_" +
             DeltaMergePolicyName(std::get<1>(info.param));
    });

TEST(UpdateFacadeTest, InsertCoercesNumericTypes) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create(
      "T", Schema({{"i32", ValueType::kInt32},
                   {"i64", ValueType::kInt64},
                   {"f", ValueType::kFloat64}}));
  ASSERT_TRUE(store.AddTable(rel).ok());
  ASSERT_TRUE(
      store.Insert("T", {Value(int64_t{7}), Value(int64_t{8}), Value(int64_t{9})})
          .ok());
  EXPECT_EQ(rel->num_rows(), 1u);
  EXPECT_EQ(rel->column(size_t{0})->Get<int32_t>(0), 7);
  EXPECT_EQ(rel->column(size_t{2})->Get<double>(0), 9.0);
  // Overflowing an int32 column is rejected before any column mutates.
  EXPECT_FALSE(store
                   .Insert("T", {Value(int64_t{1} << 40), Value(int64_t{0}),
                                 Value(int64_t{0})})
                   .ok());
  EXPECT_EQ(rel->num_rows(), 1u);
}

TEST(UpdateFacadeTest, UpdateRejectsMistypedSetValues) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create(
      "T", Schema({{"i32", ValueType::kInt32},
                   {"i64", ValueType::kInt64},
                   {"f", ValueType::kFloat64}}));
  ASSERT_TRUE(
      rel->AppendRow({Value(int32_t{1}), Value(int64_t{2}), Value(3.0)}).ok());
  ASSERT_TRUE(store.AddTable(rel).ok());
  // Doubles on integer columns would silently truncate (and overflow into
  // UB for huge magnitudes): rejected before anything mutates.
  EXPECT_TRUE(store.Update("T", {{"i64", Value(2.7)}}, {}).status()
                  .IsTypeMismatch());
  EXPECT_TRUE(store.Update("T", {{"i32", Value(1e300)}}, {}).status()
                  .IsTypeMismatch());
  EXPECT_TRUE(store.Update("T", {{"i32", Value(std::string("x"))}}, {})
                  .status()
                  .IsTypeMismatch());
  // Float columns take both families; the fraction survives.
  ASSERT_TRUE(store.Update("T", {{"f", Value(2.5)}}, {}).ok());
  EXPECT_DOUBLE_EQ(rel->column(size_t{2})->Get<double>(0), 2.5);
  ASSERT_TRUE(store.Update("T", {{"f", Value(int64_t{4})}}, {}).ok());
  EXPECT_DOUBLE_EQ(rel->column(size_t{2})->Get<double>(0), 4.0);
}

TEST(UpdateFacadeTest, DoubleColumnThroughFacade) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create("T", Schema({{"f", ValueType::kFloat64}}));
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i + 0.5)}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto qr = store.SelectRange("T", "f", RangeBounds::Closed(3, 7));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 4u);  // 3.5 4.5 5.5 6.5
  ASSERT_TRUE(store.Insert("T", {Value(int64_t{5})}).ok());
  qr = store.SelectRange("T", "f", RangeBounds::Closed(3, 7));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 5u);
  ASSERT_TRUE(store.Delete("T", {{"f", RangeBounds::Closed(3, 4)}}).ok());
  qr = store.SelectRange("T", "f", RangeBounds::Closed(3, 7));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 4u);
  // A fractional value must reach the accelerator's delta intact: [2, 2]
  // widens to the doubles [2.0, 2.0], which 2.5 is not in (an int64-widened
  // write interface would have truncated it to 2.0 and matched).
  ASSERT_TRUE(store.Insert("T", {Value(2.5)}).ok());
  qr = store.SelectRange("T", "f", RangeBounds::Closed(2, 2));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 0u);
  qr = store.SelectRange("T", "f", RangeBounds::Closed(2, 3));
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 2u);  // the original 2.5 plus the inserted 2.5
}

TEST(UpdateFacadeTest, MarkDeletedSurvivesStoreHandOver) {
  auto first_db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& first = *first_db;
  auto rel = *Relation::Create("T", Schema({{"v", ValueType::kInt64}}));
  for (int64_t i = 1; i <= 10; ++i) ASSERT_TRUE(rel->AppendRow({Value(i)}).ok());
  ASSERT_TRUE(first.AddTable(rel).ok());
  ASSERT_TRUE(first.Delete("T", {{"v", RangeBounds::AtMost(3)}}).ok());
  ASSERT_EQ(*first.LiveRowCount("T"), 7u);

  auto second_db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& second = *second_db;
  ASSERT_TRUE(second.AddTable(rel).ok());
  ASSERT_TRUE(second.MarkDeleted("T", *first.DeletedOids("T")).ok());
  EXPECT_EQ(*second.LiveRowCount("T"), 7u);
  auto qr = second.SelectRange("T", "v", RangeBounds::All());
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 7u);
}

// ---------------------------------------------------------------------------
// Fold points. The store's maintenance step is the one delta-fold trigger:
// it polls a column before each read of it and after each statement that
// wrote to it, and folds what the column's DeltaMergePolicy says is due.
// Crack, sort and dictionary-string columns fold at the same statements on
// a serial and a concurrent store.
// ---------------------------------------------------------------------------

/// One column's fold state.
struct Folds {
  size_t merges = 0;
  size_t inserts = 0;  ///< pending inserts
  size_t deletes = 0;  ///< pending tombstones

  size_t pending() const { return inserts + deletes; }
  bool operator==(const Folds& other) const {
    return merges == other.merges && inserts == other.inserts &&
           deletes == other.deletes;
  }
};

void PrintTo(const Folds& folds, std::ostream* os) {
  *os << "{merges=" << folds.merges << " inserts=" << folds.inserts
      << " deletes=" << folds.deletes << "}";
}

Folds FoldsOf(const AdaptiveStore& store, const std::string& column) {
  auto path = store.AccessPathFor("T", column);
  if (!path.ok()) return {};
  return {(*path)->merges_performed(), (*path)->pending_inserts(),
          (*path)->pending_deletes()};
}

/// A serial and a concurrent store over one 1,000-row table T: an int64
/// column `a` (values 1..1000) under the store's strategy and a string
/// column `s`, the dictionary wrapper over the same strategy. Every
/// statement runs on both stores, which must then agree on every column's
/// fold state.
class TwinStores {
 public:
  TwinStores(AccessStrategy strategy, DeltaMergeOptions merge) {
    for (bool concurrent : {false, true}) {
      DbOptions opts;
      opts.strategy = strategy;
      opts.delta_merge = merge;
      opts.concurrent = concurrent;
      stores_.push_back(*AdaptiveStore::Open(opts));
    }
  }

  /// Adds T to both stores and builds both columns' accelerators.
  void Load() {
    for (auto& store : stores_) {
      auto rel = *Relation::Create(
          "T", Schema({{"a", ValueType::kInt64}, {"s", ValueType::kString}}));
      for (int64_t i = 1; i <= 1000; ++i) {
        ASSERT_TRUE(
            rel->AppendRow({Value(i), Value(StrFormat("k%04lld",
                                                      static_cast<long long>(
                                                          i)))})
                .ok());
      }
      ASSERT_TRUE(store->AddTable(rel).ok());
    }
    for (const char* column : {"a", "s"}) {
      Run([&](AdaptiveStore& store) { return Read(store, column); });
    }
  }

  /// Runs `statement` (AdaptiveStore& -> Status) on both stores.
  template <typename Fn>
  void Run(Fn&& statement) {
    for (auto& store : stores_) {
      Status st = statement(*store);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (const char* column : {"a", "s"}) {
      EXPECT_EQ(FoldsOf(*stores_[0], column), FoldsOf(*stores_[1], column))
          << column << ": serial vs concurrent";
    }
  }

  /// `column`'s fold state (Run keeps the two stores' equal).
  Folds Of(const std::string& column) const {
    return FoldsOf(*stores_[0], column);
  }

  static Status Read(AdaptiveStore& store, const std::string& column) {
    return store.SelectRange("T", column, TypedRange::All()).status();
  }

  static Status InsertRow(AdaptiveStore& store, int64_t a) {
    return store.Insert("T", {Value(a), Value("n" + std::to_string(a))})
        .status();
  }

  /// Rewrites both columns of the 11 rows whose `a` is in [lo, lo + 10].
  static Status Update11(AdaptiveStore& store, int64_t lo,
                         TxnId txn = kNoTxn) {
    auto updated = store.Update(
        "T", {{"a", Value(-lo)}, {"s", Value("zz")}},
        {{"a", TypedRange::Closed(Value(lo), Value(lo + 10))}}, txn);
    if (!updated.ok()) return updated.status();
    if (updated->count != 11) return Status::Internal("UPDATE missed rows");
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<AdaptiveStore>> stores_;
};

TEST(DeltaFoldTest, StoreFoldsAtTheDocumentedStatements) {
  const std::vector<std::string> columns{"a", "s"};
  auto insert = [](int64_t a) {
    return [a](AdaptiveStore& store) { return TwinStores::InsertRow(store, a); };
  };
  auto read = [](const char* column) {
    return [column](AdaptiveStore& store) {
      return TwinStores::Read(store, column);
    };
  };
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kSort}) {
    SCOPED_TRACE(AccessStrategyName(strategy));
    {
      SCOPED_TRACE("immediate");
      TwinStores twins(strategy, {DeltaMergePolicy::kImmediate, 0.1});
      ASSERT_NO_FATAL_FAILURE(twins.Load());
      for (size_t k = 1; k <= 3; ++k) {
        twins.Run(insert(2000 + static_cast<int64_t>(k)));
        for (const std::string& c : columns) {
          EXPECT_EQ(twins.Of(c).merges, k) << c;
          EXPECT_EQ(twins.Of(c).pending(), 0u) << c;
        }
      }
      // An 11-row UPDATE folds each column it wrote once, not once a row.
      twins.Run([](AdaptiveStore& store) {
        return TwinStores::Update11(store, 100);
      });
      for (const std::string& c : columns) {
        EXPECT_EQ(twins.Of(c).merges, 4u) << c;
        EXPECT_EQ(twins.Of(c).pending(), 0u) << c;
      }
      // A concurrent store hands crack answers out detached, the string
      // column's (from its inner path) like the int64 column's.
      twins.Run([strategy](AdaptiveStore& store) -> Status {
        const bool detach = store.options().concurrent &&
                            strategy == AccessStrategy::kCrack;
        for (const char* column : {"a", "s"}) {
          CRACK_ASSIGN_OR_RETURN(
              QueryResult all, store.SelectRange("T", column, TypedRange::All(),
                                                 Delivery::kView));
          if (all.span_set.detached() != detach) {
            return Status::Internal(std::string(column) + " detached wrongly");
          }
        }
        return Status::OK();
      });
    }
    {
      SCOPED_TRACE("ripple");
      TwinStores twins(strategy, {DeltaMergePolicy::kRippleOnSelect, 0.1});
      ASSERT_NO_FATAL_FAILURE(twins.Load());
      // A write never folds.
      twins.Run(insert(2001));
      for (const std::string& c : columns) {
        EXPECT_EQ(twins.Of(c).merges, 0u) << c;
        EXPECT_EQ(twins.Of(c).inserts, 1u) << c;
      }
      // The next read of a column folds it, and only it.
      twins.Run(read("a"));
      EXPECT_EQ(twins.Of("a").merges, 1u);
      EXPECT_EQ(twins.Of("a").pending(), 0u);
      EXPECT_EQ(twins.Of("s").merges, 0u);
      EXPECT_EQ(twins.Of("s").inserts, 1u);
      // ...and `a` answers zero-copy again: one span, no exceptions, no
      // extras (a concurrent store hands crack answers out detached).
      twins.Run([](AdaptiveStore& store) -> Status {
        CRACK_ASSIGN_OR_RETURN(
            QueryResult all,
            store.SelectRange("T", "a", TypedRange::All(), Delivery::kView));
        const OidSpanSet& set = all.span_set;
        if (set.detached() || (set.num_spans() == 1 &&
                               set.exceptions() == 0 && set.extras() == 0)) {
          return Status::OK();
        }
        return Status::Internal("a folded column answered with deltas");
      });
      // The UPDATE's WHERE reads `a` with nothing pending there; the rows
      // it rewrites stay pending in both columns.
      twins.Run([](AdaptiveStore& store) {
        return TwinStores::Update11(store, 100);
      });
      EXPECT_EQ(twins.Of("a").merges, 1u);
      EXPECT_EQ(twins.Of("a").pending(), 22u);
      EXPECT_EQ(twins.Of("s").merges, 0u);
      EXPECT_EQ(twins.Of("s").pending(), 23u);
      twins.Run(read("s"));
      EXPECT_EQ(twins.Of("s").merges, 1u);
      EXPECT_EQ(twins.Of("s").pending(), 0u);
      EXPECT_EQ(twins.Of("a").pending(), 22u);
    }
    {
      SCOPED_TRACE("threshold 0.01");
      TwinStores twins(strategy, {DeltaMergePolicy::kThreshold, 0.01});
      ASSERT_NO_FATAL_FAILURE(twins.Load());
      // 10 of the 1,000 rows: a delta of 10 is at the fraction, not past.
      for (size_t k = 1; k <= 10; ++k) {
        twins.Run(insert(2000 + static_cast<int64_t>(k)));
        for (const std::string& c : columns) {
          EXPECT_EQ(twins.Of(c).merges, 0u) << c;
          EXPECT_EQ(twins.Of(c).inserts, k) << c;
        }
      }
      twins.Run(read("a"));
      twins.Run(read("s"));
      for (const std::string& c : columns) {
        EXPECT_EQ(twins.Of(c).merges, 0u) << c;
      }
      twins.Run(insert(2011));
      for (const std::string& c : columns) {
        EXPECT_EQ(twins.Of(c).merges, 1u) << c;
        EXPECT_EQ(twins.Of(c).pending(), 0u) << c;
      }
    }
    {
      SCOPED_TRACE("threshold 0");
      TwinStores twins(strategy, {DeltaMergePolicy::kThreshold, 0.0});
      ASSERT_NO_FATAL_FAILURE(twins.Load());
      for (size_t k = 1; k <= 5; ++k) {
        twins.Run(insert(2000 + static_cast<int64_t>(k)));
        for (const std::string& c : columns) {
          EXPECT_EQ(twins.Of(c).merges, k) << c;
          EXPECT_EQ(twins.Of(c).pending(), 0u) << c;
        }
      }
    }
    for (DeltaMergePolicy policy :
         {DeltaMergePolicy::kImmediate, DeltaMergePolicy::kThreshold,
          DeltaMergePolicy::kRippleOnSelect}) {
      SCOPED_TRACE(std::string("rollback, ") + DeltaMergePolicyName(policy));
      TwinStores twins(strategy, {policy, 0.01});
      ASSERT_NO_FATAL_FAILURE(twins.Load());
      twins.Run([](AdaptiveStore& store) -> Status {
        CRACK_ASSIGN_OR_RETURN(TxnId txn, store.Begin());
        CRACK_RETURN_NOT_OK(TwinStores::Update11(store, 200, txn));
        return store.Rollback(txn);
      });
      // The undo writes wait for each column's next statement.
      for (const std::string& c : columns) {
        EXPECT_EQ(twins.Of(c).pending(), 22u) << c;
      }
      twins.Run(read("a"));
      EXPECT_EQ(twins.Of("a").pending(), 0u);
      EXPECT_EQ(twins.Of("s").pending(), 22u);
    }
  }
}

}  // namespace
}  // namespace crackstore
