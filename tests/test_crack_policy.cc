// Copyright 2026 The CrackStore Authors
//
// Tests for the cracking policies (core/crack_policy.h): the stochastic
// policy must stay correct AND keep per-query cost converging under the
// sequential worst-case workload that defeats standard cracking (Halim et
// al. 2012), and the coarse policy must cap the piece table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "storage/bat.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Bat> PermutationColumn(size_t n, uint64_t seed) {
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i + 1);
  Pcg32 rng(seed);
  Shuffle(&values, &rng);
  return Bat::FromVector(values, "c");
}

TEST(CrackPolicyTest, NamesRoundTrip) {
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kStandard), "standard");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kStochastic), "stochastic");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kCoarse), "coarse");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kAuto), "auto");
  EXPECT_STREQ(CrackPolicyName(CrackPolicy::kProgressive), "progressive");
  EXPECT_EQ(CrackPolicyFromString("stochastic"), CrackPolicy::kStochastic);
  EXPECT_EQ(CrackPolicyFromString("auto"), CrackPolicy::kAuto);
  EXPECT_EQ(CrackPolicyFromString("progressive"), CrackPolicy::kProgressive);
  EXPECT_EQ(CrackPolicyFromString("ddc"), CrackPolicy::kStochastic);
  EXPECT_EQ(CrackPolicyFromString("coarse"), CrackPolicy::kCoarse);
  EXPECT_EQ(CrackPolicyFromString("dd1c"), CrackPolicy::kCoarse);
  EXPECT_EQ(CrackPolicyFromString("standard"), CrackPolicy::kStandard);
  EXPECT_EQ(CrackPolicyFromString("garbage"), CrackPolicy::kStandard);
}

/// Runs a sequential (ascending bounds) workload — the pattern where
/// standard cracking keeps shaving slivers off one huge piece — and
/// returns the cumulative tuples_read.
uint64_t SequentialWorkloadCost(CrackPolicy policy, size_t n, size_t queries,
                                std::vector<uint64_t>* per_query = nullptr) {
  auto bat = PermutationColumn(n, 42);
  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  config.policy.policy = policy;
  config.policy.min_piece_size = 256;
  auto path = CreateColumnAccessPath(bat, config);
  EXPECT_TRUE(path.ok());
  uint64_t total = 0;
  int64_t step = static_cast<int64_t>(n / queries);
  for (size_t q = 0; q < queries; ++q) {
    int64_t lo = static_cast<int64_t>(q) * step + 1;
    IoStats io;
    AccessSelection sel = (*path)->Select(
        RangeBounds::HalfOpen(lo, lo + step), /*detach=*/false, &io);
    EXPECT_EQ(sel.count, static_cast<uint64_t>(step));
    total += io.tuples_read;
    if (per_query != nullptr) per_query->push_back(io.tuples_read);
  }
  return total;
}

TEST(CrackPolicyTest, StochasticBeatsStandardOnSequentialWorkload) {
  const size_t n = 50000;
  const size_t queries = 100;
  uint64_t standard = SequentialWorkloadCost(CrackPolicy::kStandard, n,
                                             queries);
  uint64_t stochastic = SequentialWorkloadCost(CrackPolicy::kStochastic, n,
                                               queries);
  // Standard cracking degenerates to ~n reads per query here (the untouched
  // right piece shrinks by only one query-width per step); the stochastic
  // auxiliary pivots amortize the partitioning like a quicksort instead.
  EXPECT_LT(stochastic, standard / 2)
      << "standard=" << standard << " stochastic=" << stochastic;
}

TEST(CrackPolicyTest, StochasticPerQueryCostConverges) {
  const size_t n = 50000;
  const size_t queries = 100;
  std::vector<uint64_t> per_query;
  SequentialWorkloadCost(CrackPolicy::kStochastic, n, queries, &per_query);
  // The early queries pay the random partitioning; once it is amortized the
  // typical query touches only small pieces around its bounds. Individual
  // late queries can still spike (a bound may land in a piece an unlucky
  // pivot left large), so assert on the halves' averages, not per query.
  uint64_t first_half = 0;
  uint64_t second_half = 0;
  for (size_t q = 0; q < queries / 2; ++q) first_half += per_query[q];
  for (size_t q = queries / 2; q < queries; ++q) second_half += per_query[q];
  first_half /= queries / 2;
  second_half /= queries - queries / 2;
  EXPECT_LT(second_half, first_half)
      << "no convergence: first-half avg " << first_half
      << ", second-half avg " << second_half;
  EXPECT_LT(second_half, n / 10)
      << "second-half avg " << second_half << " is still scan-like";
  // Standard cracking stays scan-like on this workload throughout.
  std::vector<uint64_t> standard;
  SequentialWorkloadCost(CrackPolicy::kStandard, n, queries, &standard);
  uint64_t standard_second_half = 0;
  for (size_t q = queries / 2; q < queries; ++q) {
    standard_second_half += standard[q];
  }
  standard_second_half /= queries - queries / 2;
  EXPECT_LT(2 * second_half, standard_second_half);
}

TEST(CrackPolicyTest, StochasticConvergesThroughTheStore) {
  // End-to-end: same sequential pathology via the AdaptiveStore facade.
  TapestryOptions topts;
  topts.num_rows = 20000;
  topts.seed = 7;
  auto rel = *BuildTapestry("R", topts);

  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.policy.policy = CrackPolicy::kStochastic;
  opts.policy.min_piece_size = 256;
  opts.track_lineage = false;
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(rel).ok());

  uint64_t last = 0;
  for (int q = 0; q < 50; ++q) {
    int64_t lo = q * 400 + 1;
    auto result =
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 399));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, 400u);
    last = result->io.tuples_read;
  }
  // The store kept cracking: many pieces, and the tail queries are cheap.
  EXPECT_GT(*store.NumPieces("R", "c0"), 50u);
  EXPECT_LT(last, 20000u / 4);
}

TEST(CrackPolicyTest, CoarseCapsPieceTable) {
  const size_t n = 20000;
  auto bat = PermutationColumn(n, 13);

  auto run = [&](CrackPolicy policy) {
    AccessPathConfig config;
    config.strategy = AccessStrategy::kCrack;
    config.policy.policy = policy;
    config.policy.min_piece_size = 512;
    auto path = CreateColumnAccessPath(bat, config);
    EXPECT_TRUE(path.ok());
    Pcg32 rng(17);
    for (int q = 0; q < 200; ++q) {
      int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - 200);
      IoStats io;
      AccessSelection sel = (*path)->Select(RangeBounds::Closed(lo, lo + 99),
                                            /*detach=*/false, &io);
      EXPECT_EQ(sel.count, 100u);
    }
    return (*path)->NumPieces();
  };

  size_t standard_pieces = run(CrackPolicy::kStandard);
  size_t coarse_pieces = run(CrackPolicy::kCoarse);
  // Coarse never cracks pieces <= 512 tuples, so the piece table stays far
  // smaller than standard's (which registers ~2 cuts per query). Each crack
  // of a >512 piece can still leave sub-512 shards, hence the slack factor.
  EXPECT_LT(coarse_pieces, standard_pieces / 2)
      << "standard=" << standard_pieces << " coarse=" << coarse_pieces;
  EXPECT_LE(coarse_pieces, 4 * (n / 512) + 4);
}

TEST(CrackPolicyTest, StoreOptionsExposePolicy) {
  AdaptiveStoreOptions opts;
  opts.policy.policy = CrackPolicy::kStochastic;
  AdaptiveStore store(opts);
  EXPECT_EQ(store.options().policy.policy, CrackPolicy::kStochastic);

  TapestryOptions topts;
  topts.num_rows = 2000;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());
  ASSERT_TRUE(store.SelectRange("R", "c0", RangeBounds::Closed(1, 50)).ok());
  auto explain = store.ExplainColumn("R", "c0");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("access path: crack, policy=stochastic"),
            std::string::npos);
}

TEST(CrackPolicyTest, PoliciesAgreeThroughConjunctionsAndSql) {
  TapestryOptions topts;
  topts.num_rows = 3000;
  topts.num_columns = 2;
  topts.seed = 23;
  auto rel = *BuildTapestry("R", topts);

  uint64_t expected = 0;
  bool first = true;
  for (CrackPolicy policy : {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                             CrackPolicy::kCoarse}) {
    AdaptiveStoreOptions opts;
    opts.policy.policy = policy;
    opts.policy.min_piece_size = 128;
    AdaptiveStore store(opts);
    ASSERT_TRUE(store.AddTable(rel).ok());
    auto result = store.SelectConjunction(
        "R", {{"c0", RangeBounds::Closed(100, 1500)},
              {"c1", RangeBounds::Closed(500, 2000)}},
        Delivery::kView);
    ASSERT_TRUE(result.ok());
    if (first) {
      expected = result->count;
      first = false;
    }
    EXPECT_EQ(result->count, expected) << CrackPolicyName(policy);
    EXPECT_EQ(result->CollectOids().size(), expected);
  }
}

}  // namespace
}  // namespace crackstore
