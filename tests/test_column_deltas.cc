// Copyright 2026 The CrackStore Authors
//
// Tests for the updatable cracker column (the §2.2/§7 updates question):
// a crack access path keeps its pending inserts and tombstones in a
// ColumnDeltas and folds them with CrackerIndex::Fold, which preserves the
// learned boundaries. Covers the delta bookkeeping, lazy folding, and a
// randomized interleaving sweep against a naive reference.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/access_path.h"
#include "core/column_deltas.h"
#include "core/cracker_index.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Bat> I64(std::vector<int64_t> v) {
  return Bat::FromVector(v, "col");
}

/// A crack path over `col`, its cracker column built by a first selection
/// (inserts before the build are read off the base, not buffered).
std::unique_ptr<ColumnAccessPath> BuiltCrackPath(
    const std::shared_ptr<Bat>& col) {
  auto path = CreateColumnAccessPath(col, AccessPathConfig{});
  EXPECT_TRUE(path.ok());
  (void)(*path)->Select(RangeBounds::All(), Delivery::kCount, nullptr);
  return std::move(*path);
}

/// Appends `value` to the base, then registers it with the path, as owners
/// do. Returns the new row's oid.
Oid Append(const std::shared_ptr<Bat>& col, ColumnAccessPath* path,
           int64_t value) {
  col->Append<int64_t>(value);
  const Oid oid = col->head_base() + col->size() - 1;
  EXPECT_TRUE(path->Insert(Value(value), oid).ok());
  return oid;
}

AccessSelection Select(ColumnAccessPath* path, int64_t lo, int64_t hi,
                       IoStats* stats = nullptr) {
  return path->Select(RangeBounds::Closed(lo, hi), Delivery::kView, stats);
}

/// The values of a selection's rows, read off the base (owners write base
/// slots through, so the base holds every live row's value).
std::multiset<int64_t> Values(const std::shared_ptr<Bat>& col,
                              const AccessSelection& sel) {
  std::multiset<int64_t> out;
  for (Oid oid : sel.span_set.ToOids()) {
    out.insert(col->Get<int64_t>(static_cast<size_t>(oid - col->head_base())));
  }
  return out;
}

TEST(ColumnDeltasTest, SelectWithoutUpdatesMatchesPlainIndex) {
  auto col = I64({5, 1, 9, 3, 7});
  auto path = BuiltCrackPath(col);
  AccessSelection sel = Select(path.get(), 3, 7);
  EXPECT_EQ(sel.count, 3u);
  EXPECT_EQ(Values(col, sel), (std::multiset<int64_t>{3, 5, 7}));
}

TEST(ColumnDeltasTest, InsertVisibleImmediately) {
  auto col = I64({10, 20, 30});
  auto path = BuiltCrackPath(col);
  Append(col, path.get(), 15);
  Append(col, path.get(), 25);
  AccessSelection sel = Select(path.get(), 10, 20);
  EXPECT_EQ(sel.count, 3u);  // 10, 15, 20
  EXPECT_EQ(Values(col, sel), (std::multiset<int64_t>{10, 15, 20}));
  EXPECT_EQ(Select(path.get(), INT64_MIN, INT64_MAX).count, 5u);
  EXPECT_EQ(path->pending_inserts(), 2u);
  EXPECT_EQ(path->accel_tuples(), 3u);
}

TEST(ColumnDeltasTest, InsertRejectsStaleOids) {
  auto col = I64({10, 20, 30});
  ColumnDeltas<int64_t> deltas(col);
  deltas.Start();
  EXPECT_TRUE(deltas.Insert(5, 2).IsInvalidArgument());  // oid 2 is in use
  ASSERT_TRUE(deltas.Insert(5, 3).ok());
  EXPECT_TRUE(deltas.Insert(6, 3).IsInvalidArgument());  // reuse
  ASSERT_TRUE(deltas.Insert(6, 10).ok());  // gaps are allowed
  // Through a crack path.
  auto path = BuiltCrackPath(col);
  EXPECT_TRUE(path->Insert(Value(int64_t{5}), 2).IsInvalidArgument());
}

TEST(ColumnDeltasTest, DeleteHidesTuples) {
  auto col = I64({10, 20, 30, 40});
  auto path = BuiltCrackPath(col);
  ASSERT_TRUE(path->Delete(1).ok());
  AccessSelection sel = Select(path.get(), 0, 100);
  EXPECT_EQ(sel.count, 3u);
  EXPECT_EQ(Values(col, sel), (std::multiset<int64_t>{10, 30, 40}));
  EXPECT_EQ(path->pending_deletes(), 1u);
}

TEST(ColumnDeltasTest, DeleteValidation) {
  // Before and after the build alike.
  for (bool built : {false, true}) {
    SCOPED_TRACE(built ? "built" : "not built");
    auto col = I64({10, 20});
    ColumnDeltas<int64_t> deltas(col);
    if (built) deltas.Start();
    EXPECT_TRUE(deltas.Delete(99).IsNotFound());
    ASSERT_TRUE(deltas.Delete(0).ok());
    EXPECT_TRUE(deltas.Delete(0).IsAlreadyExists());
    auto path = CreateColumnAccessPath(col, AccessPathConfig{});
    ASSERT_TRUE(path.ok());
    if (built) (void)Select(path->get(), 0, 0);
    EXPECT_TRUE((*path)->Delete(99).IsNotFound());
    ASSERT_TRUE((*path)->Delete(0).ok());
    EXPECT_TRUE((*path)->Delete(0).IsAlreadyExists());
  }
}

TEST(ColumnDeltasTest, DeleteBeforeBuildTakesTheBaseValue) {
  auto col = I64({10, 20, 30});
  auto path = CreateColumnAccessPath(col, AccessPathConfig{});
  ASSERT_TRUE(path.ok());
  ASSERT_TRUE((*path)->Delete(1).ok());
  // The tombstone is found by value once the build files it.
  EXPECT_EQ(Select(path->get(), 15, 25).count, 0u);
  EXPECT_EQ(Select(path->get(), 0, 100).count, 2u);
  ASSERT_TRUE((*path)->FlushDeltas().ok());
  EXPECT_EQ((*path)->pending_deletes(), 0u);
  EXPECT_EQ((*path)->accel_tuples(), 2u);
}

TEST(ColumnDeltasTest, DeletePendingInsertCancelsIt) {
  auto col = I64({10});
  auto path = BuiltCrackPath(col);
  const Oid oid = Append(col, path.get(), 50);
  ASSERT_TRUE(path->Delete(oid).ok());
  EXPECT_EQ(path->pending_inserts(), 0u);
  EXPECT_EQ(Select(path.get(), 0, 100).count, 1u);
}

TEST(ColumnDeltasTest, CancelledPendingInsertStaysDead) {
  // Regression: a Delete() that cancels a pending insert must leave the oid
  // dead — a later Update() used to fall through the held-row branch and
  // resurrect the row; a second Delete() used to report OK.
  auto col = I64({10});
  auto path = BuiltCrackPath(col);
  const Oid oid = Append(col, path.get(), 50);
  ASSERT_TRUE(path->Delete(oid).ok());
  EXPECT_TRUE(
      path->Update(oid, Value(int64_t{50}), Value(int64_t{60})).IsNotFound());
  EXPECT_TRUE(path->Delete(oid).IsAlreadyExists());
  EXPECT_EQ(Select(path.get(), 0, 100).count, 1u);  // only oid 0
}

TEST(ColumnDeltasTest, MergeFoldsDeltasAndPreservesBounds) {
  auto col = BuildPermutationColumn(1000, 3, "perm");
  const int64_t deleted_value = col->Get<int64_t>(0);
  auto path = BuiltCrackPath(col);
  // Learn some boundaries.
  (void)Select(path.get(), 100, 200);
  (void)Select(path.get(), 500, 700);
  const size_t pieces_before = path->NumPieces();

  for (int i = 0; i < 50; ++i) Append(col, path.get(), 150 + i);
  ASSERT_TRUE(path->Delete(0).ok());
  ASSERT_TRUE(path->FlushDeltas().ok());

  EXPECT_EQ(path->pending_inserts(), 0u);
  EXPECT_EQ(path->pending_deletes(), 0u);
  EXPECT_EQ(path->merges_performed(), 1u);
  EXPECT_EQ(path->accel_tuples(), 1000u + 50u - 1u);
  // Learned navigation survives the merge.
  EXPECT_GE(path->NumPieces(), pieces_before);

  // The merged inserts are answered from the cracked area now.
  AccessSelection sel = Select(path.get(), 100, 200);
  EXPECT_EQ(sel.span_set.extras(), 0u);
  // 101 original values in [100,200] (permutation) + 50 inserts of
  // 150..199, possibly minus the deleted row's value.
  uint64_t expected = 101 + 50 -
                      ((deleted_value >= 100 && deleted_value <= 200) ? 1 : 0);
  EXPECT_EQ(sel.count, expected);
}

TEST(ColumnDeltasTest, OidsStableAcrossMerge) {
  auto col = I64({10, 20, 30});
  auto path = BuiltCrackPath(col);
  const Oid oid = Append(col, path.get(), 25);
  ASSERT_TRUE(path->FlushDeltas().ok());
  AccessSelection sel = Select(path.get(), 25, 25);
  ASSERT_EQ(sel.count, 1u);
  // The insert's oid survived the merge.
  EXPECT_EQ(sel.span_set.ToOids(), std::vector<Oid>{oid});
}

TEST(ColumnDeltasTest, DeleteAfterMergeOfThatOidFails) {
  auto col = I64({10, 20});
  auto path = BuiltCrackPath(col);
  ASSERT_TRUE(path->Delete(1).ok());
  ASSERT_TRUE(path->FlushDeltas().ok());
  EXPECT_TRUE(path->Delete(1).IsAlreadyExists());  // physically gone
}

TEST(ColumnDeltasTest, StatsChargedForDeltaWork) {
  auto col = BuildPermutationColumn(1000, 9, "perm");
  auto path = BuiltCrackPath(col);
  for (int i = 0; i < 20; ++i) Append(col, path.get(), i);
  IoStats stats;
  (void)Select(path.get(), 0, 500, &stats);
  EXPECT_GE(stats.tuples_read, 20u);  // pending list was consulted
  IoStats merge_stats;
  ASSERT_TRUE(path->FlushDeltas(&merge_stats).ok());
  EXPECT_GT(merge_stats.tuples_written, 0u);
}

// The fold at the index level: survivors first, then the added rows, every
// learned boundary re-cracked; a tombstone of a row the column does not
// hold fails it.
TEST(ColumnDeltasTest, FoldKeepsBoundsAndChecksTombstones) {
  auto col = BuildPermutationColumn(1000, 5, "perm");
  CrackerIndex<int64_t> index(col);
  (void)index.Select(100, true, 200, true);
  (void)index.Select(600, false, 800, false);
  OidBitTable drop;
  drop.Set(3);
  drop.Set(400);
  const std::vector<std::pair<int64_t, Oid>> add{{150, 1000}, {999, 1001}};
  auto folded = index.Fold(drop, add);
  ASSERT_TRUE(folded.ok());
  const CrackerIndex<int64_t>& out = **folded;
  EXPECT_EQ(out.size(), 1000u);
  ASSERT_TRUE(out.Validate().ok());
  ASSERT_EQ(out.Bounds().size(), index.Bounds().size());
  for (size_t i = 0; i < out.Bounds().size(); ++i) {
    EXPECT_EQ(out.Bounds()[i].value, index.Bounds()[i].value);
  }
  std::set<Oid> oids;
  for (size_t i = 0; i < out.size(); ++i) {
    oids.insert(out.oids()->Get<Oid>(i));
  }
  EXPECT_EQ(oids.count(3), 0u);
  EXPECT_EQ(oids.count(400), 0u);
  EXPECT_EQ(oids.count(1000), 1u);
  EXPECT_EQ(oids.size(), 1000u);
  OidBitTable missing;
  missing.Set(5000);
  EXPECT_FALSE(index.Fold(missing, {}).ok());
}

// Randomized interleaving of inserts, deletes, updates, folds and queries
// against a naive map-based reference.
class ColumnDeltasPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ColumnDeltasPropertyTest, MatchesNaiveReference) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);
  const int64_t kDomain = 500;
  const size_t kInitial = 300;

  std::vector<int64_t> initial(kInitial);
  for (auto& v : initial) v = rng.NextInRange(0, kDomain);
  auto col = I64(initial);
  auto path = BuiltCrackPath(col);

  std::map<Oid, int64_t> reference;
  for (size_t i = 0; i < kInitial; ++i) reference[i] = initial[i];

  for (int op = 0; op < 300; ++op) {
    switch (rng.NextBounded(11)) {
      case 0:
      case 1:
      case 2: {  // insert
        int64_t v = rng.NextInRange(0, kDomain);
        reference[Append(col, path.get(), v)] = v;
        break;
      }
      case 3:
      case 4: {  // delete a random live oid
        if (reference.empty()) break;
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(
                             static_cast<uint32_t>(reference.size())));
        ASSERT_TRUE(path->Delete(it->first).ok());
        reference.erase(it);
        break;
      }
      case 5: {  // update a random live oid: base slot first
        if (reference.empty()) break;
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(
                             static_cast<uint32_t>(reference.size())));
        const int64_t v = rng.NextInRange(0, kDomain);
        ASSERT_TRUE(col->SetNumeric(static_cast<size_t>(it->first), v).ok());
        ASSERT_TRUE(
            path->Update(it->first, Value(it->second), Value(v)).ok());
        it->second = v;
        break;
      }
      case 6: {  // merge
        ASSERT_TRUE(path->FlushDeltas().ok());
        ASSERT_EQ(path->pending_inserts() + path->pending_deletes(), 0u);
        ASSERT_EQ(path->accel_tuples(), reference.size());
        break;
      }
      default: {  // query
        int64_t a = rng.NextInRange(0, kDomain);
        int64_t b = rng.NextInRange(0, kDomain);
        int64_t lo = std::min(a, b);
        int64_t hi = std::max(a, b);
        AccessSelection sel = Select(path.get(), lo, hi);
        std::multiset<int64_t> expected;
        for (const auto& [oid, v] : reference) {
          if (v >= lo && v <= hi) expected.insert(v);
        }
        ASSERT_EQ(Values(col, sel), expected) << "op " << op;
        ASSERT_EQ(sel.count, expected.size()) << "op " << op;
        ASSERT_EQ(path->Select(RangeBounds::Closed(lo, hi), Delivery::kCount,
                               nullptr)
                      .count,
                  expected.size())
            << "op " << op;
        break;
      }
    }
    ASSERT_EQ(Select(path.get(), INT64_MIN, INT64_MAX).count,
              reference.size())
        << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnDeltasPropertyTest,
                         ::testing::Values(1, 2, 3, 20040901));

}  // namespace
}  // namespace crackstore
