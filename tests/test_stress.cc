// Copyright 2026 The CrackStore Authors
//
// Stress test: a long randomized mixed session against one AdaptiveStore —
// range selects, conjunctions, joins, group-bys, projections, across
// several tables and columns, interleaved with piece-budget enforcement —
// every answer cross-checked against a scan-strategy twin store. This is
// the closest thing to a fuzzer that still runs deterministically in CI.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/adaptive_store.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

class StressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StressTest, MixedSessionMatchesScanTwin) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);

  // Three tables of different sizes and arities.
  std::vector<std::shared_ptr<Relation>> tables;
  std::vector<std::string> names{"alpha", "beta", "gamma"};
  std::vector<uint64_t> sizes{4000, 9000, 2500};
  for (size_t i = 0; i < names.size(); ++i) {
    TapestryOptions opts;
    opts.num_rows = sizes[i];
    opts.num_columns = 2 + i;  // 2, 3, 4 columns
    opts.seed = seed + i;
    tables.push_back(*BuildTapestry(names[i], opts));
  }

  DbOptions crack_opts;
  crack_opts.strategy = AccessStrategy::kCrack;
  crack_opts.merge_budget =
      MergeBudget{MergePolicyKind::kSmallestPieces, 16};
  auto cracked_db = *AdaptiveStore::Open(crack_opts);
  AdaptiveStore& cracked = *cracked_db;
  DbOptions scan_opts;
  scan_opts.strategy = AccessStrategy::kScan;
  scan_opts.track_lineage = false;
  auto scans_db = *AdaptiveStore::Open(scan_opts);
  AdaptiveStore& scans = *scans_db;
  for (const auto& t : tables) {
    ASSERT_TRUE(cracked.AddTable(t).ok());
    ASSERT_TRUE(scans.AddTable(t).ok());
  }

  auto random_table = [&]() -> size_t { return rng.NextBounded(3); };
  auto random_column = [&](size_t t) {
    return StrFormat("c%u",
                     rng.NextBounded(static_cast<uint32_t>(2 + t)));
  };
  auto random_range = [&](size_t t) {
    int64_t n = static_cast<int64_t>(sizes[t]);
    int64_t a = rng.NextInRange(-10, n + 10);
    int64_t b = rng.NextInRange(-10, n + 10);
    RangeBounds r;
    r.lo = std::min(a, b);
    r.hi = std::max(a, b);
    r.lo_incl = rng.NextBounded(2) == 0;
    r.hi_incl = rng.NextBounded(2) == 0;
    return r;
  };

  for (int op = 0; op < 400; ++op) {
    switch (rng.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // range select
        size_t t = random_table();
        std::string col = random_column(t);
        RangeBounds range = random_range(t);
        auto a = cracked.SelectRange(names[t], col, range);
        auto b = scans.SelectRange(names[t], col, range);
        ASSERT_TRUE(a.ok() && b.ok()) << "op " << op;
        ASSERT_EQ(a->count, b->count) << "op " << op;
        break;
      }
      case 5:
      case 6: {  // conjunction
        size_t t = random_table();
        std::vector<AdaptiveStore::ColumnRange> conjuncts;
        size_t k = 2 + rng.NextBounded(2);
        for (size_t c = 0; c < k; ++c) {
          conjuncts.push_back({random_column(t), random_range(t)});
        }
        auto a = cracked.SelectConjunction(names[t], conjuncts);
        auto b = scans.SelectConjunction(names[t], conjuncts);
        ASSERT_TRUE(a.ok() && b.ok()) << "op " << op;
        ASSERT_EQ(a->count, b->count) << "op " << op;
        break;
      }
      case 7: {  // join: permutation columns — expect min(|L|, |R|)? No:
        // every value of the smaller domain matches iff present in larger;
        // values 1..min(n1,n2) exist in both, so pairs = min(n1,n2).
        size_t t1 = random_table();
        size_t t2 = random_table();
        auto a = cracked.JoinOids(names[t1], "c0", names[t2], "c1");
        auto b = scans.JoinOids(names[t1], "c0", names[t2], "c1");
        ASSERT_TRUE(a.ok() && b.ok()) << "op " << op;
        ASSERT_EQ(a->size(), b->size()) << "op " << op;
        ASSERT_EQ(a->size(), std::min(sizes[t1], sizes[t2])) << "op " << op;
        break;
      }
      case 8: {  // group-by on a low-cardinality derived predicate column:
        // tapestry columns are permutations (all distinct); grouping still
        // must produce n groups of size 1 — checks the degenerate case.
        size_t t = random_table();
        if (sizes[t] > 3000) break;  // keep it cheap
        auto groups =
            cracked.GroupBy(names[t], "c0", "c1", AggKind::kCount);
        ASSERT_TRUE(groups.ok()) << "op " << op;
        ASSERT_EQ(groups->size(), sizes[t]);
        break;
      }
      default: {  // projection crack + fragment sanity
        size_t t = random_table();
        auto cracked_proj = cracked.Project(names[t], {"c0"});
        ASSERT_TRUE(cracked_proj.ok()) << "op " << op;
        ASSERT_EQ(cracked_proj->projected->num_rows(), sizes[t]);
        ASSERT_EQ(cracked_proj->remainder->num_rows(), sizes[t]);
        break;
      }
    }
  }

  // End-of-session invariants.
  for (size_t t = 0; t < names.size(); ++t) {
    for (size_t c = 0; c < 2 + t; ++c) {
      auto pieces = cracked.NumPieces(names[t], StrFormat("c%zu", c));
      ASSERT_TRUE(pieces.ok());
      // Budget: 16 bounds -> at most 33 pieces.
      ASSERT_LE(*pieces, 33u);
    }
  }
  EXPECT_TRUE(cracked.lineage().CheckLossless(0).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Values(1, 7, 20040901));

}  // namespace
}  // namespace crackstore
