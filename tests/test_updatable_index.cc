// Copyright 2026 The CrackStore Authors
//
// Tests for the updatable cracker index (the §2.2/§7 updates question):
// pending inserts, tombstones, lazy merging that preserves learned
// boundaries, and a randomized interleaving sweep against a naive
// reference.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/updatable_cracker_index.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Bat> I64(std::vector<int64_t> v) {
  return Bat::FromVector(v, "col");
}

std::multiset<int64_t> Values(const UpdatableCrackerIndex<int64_t>& index,
                              const UpdatableSelection<int64_t>& sel) {
  std::multiset<int64_t> out;
  index.ForEach(sel, [&out](int64_t v, Oid) { out.insert(v); });
  return out;
}

TEST(UpdatableIndexTest, SelectWithoutUpdatesMatchesPlainIndex) {
  auto col = I64({5, 1, 9, 3, 7});
  UpdatableCrackerIndex<int64_t> index(col);
  auto sel = index.Select(3, true, 7, true);
  EXPECT_EQ(sel.count(), 3u);
  EXPECT_EQ(Values(index, sel), (std::multiset<int64_t>{3, 5, 7}));
}

TEST(UpdatableIndexTest, InsertVisibleImmediately) {
  auto col = I64({10, 20, 30});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Insert(15, 3).ok());
  ASSERT_TRUE(index.Insert(25, 4).ok());
  auto sel = index.Select(10, true, 20, true);
  EXPECT_EQ(sel.count(), 3u);  // 10, 15, 20
  EXPECT_EQ(Values(index, sel), (std::multiset<int64_t>{10, 15, 20}));
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.pending_inserts(), 2u);
}

TEST(UpdatableIndexTest, InsertRejectsStaleOids) {
  auto col = I64({10, 20, 30});
  UpdatableCrackerIndex<int64_t> index(col);
  EXPECT_TRUE(index.Insert(5, 2).IsInvalidArgument());  // oid 2 is in use
  ASSERT_TRUE(index.Insert(5, 3).ok());
  EXPECT_TRUE(index.Insert(6, 3).IsInvalidArgument());  // reuse
  ASSERT_TRUE(index.Insert(6, 10).ok());  // gaps are allowed
}

TEST(UpdatableIndexTest, DeleteHidesTuples) {
  auto col = I64({10, 20, 30, 40});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Delete(1, 20).ok());
  auto sel = index.Select(0, true, 100, true);
  EXPECT_EQ(sel.count(), 3u);
  EXPECT_EQ(Values(index, sel), (std::multiset<int64_t>{10, 30, 40}));
  EXPECT_EQ(index.size(), 3u);
}

TEST(UpdatableIndexTest, DeleteValidation) {
  auto col = I64({10, 20});
  UpdatableCrackerIndex<int64_t> index(col);
  EXPECT_TRUE(index.Delete(99, 0).IsNotFound());
  ASSERT_TRUE(index.Delete(0, 10).ok());
  EXPECT_TRUE(index.Delete(0, 10).IsAlreadyExists());
}

TEST(UpdatableIndexTest, DeletePendingInsertCancelsIt) {
  auto col = I64({10});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Insert(50, 1).ok());
  ASSERT_TRUE(index.Delete(1, 50).ok());
  EXPECT_EQ(index.pending_inserts(), 0u);
  EXPECT_EQ(index.Select(0, true, 100, true).count(), 1u);
}

TEST(UpdatableIndexTest, CancelledPendingInsertStaysDead) {
  // Regression: a Delete() that cancels a pending insert must leave the oid
  // dead — a later Update() used to fall through the merged-tuple branch
  // and resurrect the row; a second Delete() used to report OK.
  auto col = I64({10});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Insert(50, 1).ok());
  ASSERT_TRUE(index.Delete(1, 50).ok());
  EXPECT_TRUE(index.Update(60, 1, 50).IsNotFound());
  EXPECT_TRUE(index.Delete(1, 50).IsAlreadyExists());
  EXPECT_EQ(index.Select(0, true, 100, true).count(), 1u);  // only oid 0
}

TEST(UpdatableIndexTest, MergeFoldsDeltasAndPreservesBounds) {
  auto col = BuildPermutationColumn(1000, 3, "perm");
  UpdatableCrackerIndex<int64_t> index(col);
  // Learn some boundaries.
  index.Select(100, true, 200, true);
  index.Select(500, true, 700, true);
  size_t pieces_before = index.num_pieces();

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(index.Insert(150 + i, 1000 + static_cast<Oid>(i)).ok());
  }
  int64_t deleted_value = col->Get<int64_t>(0);
  ASSERT_TRUE(index.Delete(0, deleted_value).ok());
  ASSERT_TRUE(index.Merge().ok());

  EXPECT_EQ(index.pending_inserts(), 0u);
  EXPECT_EQ(index.pending_deletes(), 0u);
  EXPECT_EQ(index.size(), 1000u + 50u - 1u);
  // Learned navigation survives the merge.
  EXPECT_GE(index.num_pieces(), pieces_before);
  ASSERT_TRUE(index.Validate().ok());

  // The merged inserts are answered from the cracked area now.
  auto sel = index.Select(100, true, 200, true);
  EXPECT_TRUE(sel.delta.empty());
  // 101 original values in [100,200] (permutation) + 50 inserts of
  // 150..199, possibly minus the deleted row's value.
  uint64_t expected = 101 + 50 -
                      ((deleted_value >= 100 && deleted_value <= 200) ? 1 : 0);
  EXPECT_EQ(sel.count(), expected);
}

TEST(UpdatableIndexTest, OidsStableAcrossMerge) {
  auto col = I64({10, 20, 30});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Insert(25, 7).ok());
  ASSERT_TRUE(index.Merge().ok());
  auto sel = index.Select(25, true, 25, true);
  ASSERT_EQ(sel.count(), 1u);
  std::vector<Oid> oids;
  index.ForEach(sel, [&](int64_t, Oid oid) { oids.push_back(oid); });
  ASSERT_EQ(oids.size(), 1u);
  EXPECT_EQ(oids[0], 7u);  // original insert oid survived the merge
}

TEST(UpdatableIndexTest, DeleteAfterMergeOfThatOidFails) {
  auto col = I64({10, 20});
  UpdatableCrackerIndex<int64_t> index(col);
  ASSERT_TRUE(index.Delete(1, 20).ok());
  ASSERT_TRUE(index.Merge().ok());
  EXPECT_TRUE(index.Delete(1, 20).IsAlreadyExists());  // physically gone
}

TEST(UpdatableIndexTest, StatsChargedForDeltaWork) {
  auto col = BuildPermutationColumn(1000, 9, "perm");
  UpdatableCrackerIndex<int64_t> index(col);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(index.Insert(i, 1000 + static_cast<Oid>(i)).ok());
  }
  IoStats stats;
  index.Select(0, true, 500, true, &stats);
  EXPECT_GE(stats.tuples_read, 20u);  // pending list was consulted
  IoStats merge_stats;
  ASSERT_TRUE(index.Merge(&merge_stats).ok());
  EXPECT_GT(merge_stats.tuples_written, 0u);
}

// Randomized interleaving of inserts, deletes, merges and queries against a
// naive map-based reference.
class UpdatableIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(UpdatableIndexPropertyTest, MatchesNaiveReference) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);
  const int64_t kDomain = 500;
  const size_t kInitial = 300;

  std::vector<int64_t> initial(kInitial);
  for (auto& v : initial) v = rng.NextInRange(0, kDomain);
  auto col = I64(initial);
  UpdatableCrackerIndex<int64_t> index(col);

  std::map<Oid, int64_t> reference;
  for (size_t i = 0; i < kInitial; ++i) reference[i] = initial[i];
  Oid next_oid = kInitial;

  for (int op = 0; op < 300; ++op) {
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2: {  // insert
        int64_t v = rng.NextInRange(0, kDomain);
        ASSERT_TRUE(index.Insert(v, next_oid).ok());
        reference[next_oid] = v;
        ++next_oid;
        break;
      }
      case 3:
      case 4: {  // delete a random live oid
        if (reference.empty()) break;
        auto it = reference.begin();
        std::advance(it, rng.NextBounded(
                             static_cast<uint32_t>(reference.size())));
        ASSERT_TRUE(index.Delete(it->first, it->second).ok());
        reference.erase(it);
        break;
      }
      case 5: {  // merge
        ASSERT_TRUE(index.Merge().ok());
        break;
      }
      default: {  // query
        int64_t a = rng.NextInRange(0, kDomain);
        int64_t b = rng.NextInRange(0, kDomain);
        int64_t lo = std::min(a, b);
        int64_t hi = std::max(a, b);
        auto sel = index.Select(lo, true, hi, true);
        std::multiset<int64_t> expected;
        for (const auto& [oid, v] : reference) {
          if (v >= lo && v <= hi) expected.insert(v);
        }
        ASSERT_EQ(Values(index, sel), expected) << "op " << op;
        ASSERT_EQ(sel.count(), expected.size()) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(index.size(), reference.size()) << "op " << op;
  }
  ASSERT_TRUE(index.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdatableIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 20040901));

}  // namespace
}  // namespace crackstore
