// Copyright 2026 The CrackStore Authors
//
// Tests for the cracker index — the paper's central data structure. Includes
// randomized property sweeps cross-checking every cracked selection against
// a naive scan, over query mixes with duplicates and all inclusivity
// combinations.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "core/cracker_index.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Bat> MakeColumn(std::vector<int64_t> values) {
  return Bat::FromVector(values, "col");
}

/// Reference implementation: scan-filter.
std::multiset<int64_t> NaiveSelect(const std::vector<int64_t>& data,
                                   int64_t lo, bool lo_incl, int64_t hi,
                                   bool hi_incl) {
  std::multiset<int64_t> out;
  for (int64_t v : data) {
    if (lo_incl ? v < lo : v <= lo) continue;
    if (hi_incl ? v > hi : v >= hi) continue;
    out.insert(v);
  }
  return out;
}

std::multiset<int64_t> SelectionValues(const CrackSelection& sel) {
  std::multiset<int64_t> out;
  for (size_t i = 0; i < sel.values.size(); ++i) {
    out.insert(sel.values.Get<int64_t>(i));
  }
  return out;
}

TEST(CrackerIndexTest, ConstructionClonesAndMapsOids) {
  auto col = MakeColumn({5, 3, 8, 1});
  IoStats stats;
  CrackerIndex<int64_t> index(col, &stats);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(stats.tuples_read, 4u);
  EXPECT_EQ(stats.tuples_written, 4u);
  // Before any crack: values in source order, oids identity.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(index.values()->Get<int64_t>(i), col->Get<int64_t>(i));
    EXPECT_EQ(index.oids()->Get<Oid>(i), i);
  }
  EXPECT_EQ(index.num_pieces(), 1u);
}

TEST(CrackerIndexTest, SourceUntouchedByCracking) {
  auto col = MakeColumn({5, 3, 8, 1, 9, 2});
  std::vector<int64_t> orig(col->TailData<int64_t>(),
                            col->TailData<int64_t>() + col->size());
  CrackerIndex<int64_t> index(col);
  index.Select(2, true, 5, true);
  for (size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(col->Get<int64_t>(i), orig[i]);
  }
}

TEST(CrackerIndexTest, SimpleRangeSelect) {
  auto col = MakeColumn({5, 3, 8, 1, 9, 2, 7, 4, 6});
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.Select(3, true, 6, true);
  EXPECT_EQ(sel.count(), 4u);  // {3,4,5,6}
  EXPECT_EQ(SelectionValues(sel),
            (std::multiset<int64_t>{3, 4, 5, 6}));
}

TEST(CrackerIndexTest, SelectionIsContiguousView) {
  auto col = MakeColumn({5, 3, 8, 1, 9, 2, 7, 4, 6});
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.Select(3, true, 6, true);
  // Zero-copy: views point into the cracker column.
  EXPECT_EQ(sel.values.bat().get(), index.values().get());
  EXPECT_EQ(sel.oids.bat().get(), index.oids().get());
  EXPECT_EQ(sel.values.size(), sel.oids.size());
}

TEST(CrackerIndexTest, OidsMapBackToSource) {
  auto col = MakeColumn({50, 30, 80, 10, 90, 20});
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.Select(20, true, 50, true);
  for (size_t i = 0; i < sel.count(); ++i) {
    Oid oid = sel.oids.Get<Oid>(i);
    EXPECT_EQ(col->Get<int64_t>(static_cast<size_t>(oid)),
              sel.values.Get<int64_t>(i));
  }
}

TEST(CrackerIndexTest, FirstRangeCracksInThree) {
  auto col = MakeColumn({5, 3, 8, 1, 9, 2, 7, 4, 6});
  CrackerIndex<int64_t> index(col);
  IoStats stats;
  index.Select(3, true, 6, true, &stats);
  EXPECT_EQ(stats.cracks, 1u);  // one crack-in-three pass
  EXPECT_EQ(index.num_pieces(), 3u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, RepeatQueryTouchesNothing) {
  auto col = MakeColumn({5, 3, 8, 1, 9, 2, 7, 4, 6});
  CrackerIndex<int64_t> index(col);
  index.Select(3, true, 6, true);
  IoStats stats;
  CrackSelection sel = index.Select(3, true, 6, true, &stats);
  EXPECT_EQ(stats.tuples_read, 0u);
  EXPECT_EQ(stats.tuples_written, 0u);
  EXPECT_EQ(stats.cracks, 0u);
  EXPECT_EQ(sel.count(), 4u);
}

TEST(CrackerIndexTest, OverlappingQueriesRefinePieces) {
  auto col = BuildPermutationColumn(1000, 7, "perm");
  CrackerIndex<int64_t> index(col);
  index.Select(100, true, 600, true);
  size_t pieces_after_first = index.num_pieces();
  IoStats stats;
  index.Select(200, true, 500, true, &stats);
  EXPECT_GT(index.num_pieces(), pieces_after_first);
  // Second query only cracks inside the middle piece (size ~501), far less
  // than the full column.
  EXPECT_LT(stats.tuples_read, 600u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, OneSidedSelects) {
  auto col = MakeColumn({5, 3, 8, 1, 9});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.SelectLessThan(5, false).count(), 2u);   // {3,1}
  EXPECT_EQ(index.SelectLessThan(5, true).count(), 3u);    // {3,1,5}
  EXPECT_EQ(index.SelectGreaterThan(5, false).count(), 2u);  // {8,9}
  EXPECT_EQ(index.SelectGreaterThan(5, true).count(), 3u);   // {5,8,9}
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, PointSelect) {
  auto col = MakeColumn({4, 2, 4, 7, 4, 1});
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.SelectEquals(4);
  EXPECT_EQ(sel.count(), 3u);
  for (size_t i = 0; i < sel.count(); ++i) {
    EXPECT_EQ(sel.values.Get<int64_t>(i), 4);
  }
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, PointSelectAbsentValue) {
  auto col = MakeColumn({1, 5, 9});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.SelectEquals(4).count(), 0u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, EmptyAndInvertedRanges) {
  auto col = MakeColumn({1, 2, 3, 4, 5});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.Select(4, true, 2, true).count(), 0u);   // inverted
  EXPECT_EQ(index.Select(3, false, 3, true).count(), 0u);  // (3,3]
  EXPECT_EQ(index.Select(3, true, 3, false).count(), 0u);  // [3,3)
  // Inverted/empty ranges must not corrupt the index.
  EXPECT_EQ(index.Select(1, true, 5, true).count(), 5u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, RangeOutsideDomain) {
  auto col = MakeColumn({10, 20, 30});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.Select(100, true, 200, true).count(), 0u);
  EXPECT_EQ(index.Select(-10, true, -1, true).count(), 0u);
  EXPECT_EQ(index.Select(0, true, 100, true).count(), 3u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, SelectAllNeverCracks) {
  auto col = MakeColumn({3, 1, 2});
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.SelectAll();
  EXPECT_EQ(sel.count(), 3u);
  EXPECT_EQ(index.num_pieces(), 1u);
}

TEST(CrackerIndexTest, DuplicatesWithMixedInclusivity) {
  auto col = MakeColumn({4, 4, 4, 2, 2, 6, 6, 4});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.Select(4, true, 6, false).count(), 4u);   // 4s only
  EXPECT_EQ(index.Select(4, false, 6, true).count(), 2u);   // 6s only
  EXPECT_EQ(index.Select(2, true, 4, true).count(), 6u);    // 2s + 4s
  EXPECT_EQ(index.Select(2, false, 4, false).count(), 0u);  // (2,4) empty
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, BoundRefinementOnSameValue) {
  // First query uses value 5 exclusively, second inclusively: the index must
  // refine the existing boundary rather than corrupt it.
  auto col = MakeColumn({5, 1, 5, 9, 5, 3, 7});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.Select(1, true, 5, false).count(), 2u);  // {1,3}
  EXPECT_EQ(index.Select(1, true, 5, true).count(), 5u);   // {1,3,5,5,5}
  EXPECT_EQ(index.Select(5, true, 9, true).count(), 5u);   // {5,5,5,7,9}
  EXPECT_EQ(index.Select(5, false, 9, true).count(), 2u);  // {7,9}
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, PiecesTableIsConsistent) {
  auto col = BuildPermutationColumn(500, 11, "perm");
  CrackerIndex<int64_t> index(col);
  index.Select(50, true, 100, true);
  index.Select(200, true, 400, false);
  index.SelectLessThan(25, true);

  auto pieces = index.Pieces();
  ASSERT_FALSE(pieces.empty());
  // Pieces tile [0, n) without gaps.
  EXPECT_EQ(pieces.front().begin, 0u);
  EXPECT_EQ(pieces.back().end, index.size());
  for (size_t i = 1; i < pieces.size(); ++i) {
    EXPECT_EQ(pieces[i].begin, pieces[i - 1].end);
  }
  // Piece decorations hold for the data.
  const int64_t* data = index.values()->TailData<int64_t>();
  for (const auto& p : pieces) {
    for (size_t i = p.begin; i < p.end; ++i) {
      if (p.has_lo) {
        EXPECT_TRUE(p.lo_strict ? data[i] > p.lo : data[i] >= p.lo);
      }
      if (p.has_hi) {
        EXPECT_TRUE(p.hi_strict ? data[i] < p.hi : data[i] <= p.hi);
      }
    }
  }
}

TEST(CrackerIndexTest, NumPiecesMatchesPiecesTable) {
  auto col = BuildPermutationColumn(300, 13, "perm");
  CrackerIndex<int64_t> index(col);
  index.Select(30, true, 60, true);
  index.Select(100, true, 200, true);
  auto pieces = index.Pieces();
  EXPECT_EQ(index.num_pieces(), pieces.size());
}

TEST(CrackerIndexTest, BoundsExposeUsageClocks) {
  auto col = BuildPermutationColumn(100, 17, "perm");
  CrackerIndex<int64_t> index(col);
  index.Select(10, true, 20, true);
  index.Select(50, true, 60, true);
  auto bounds = index.Bounds();
  ASSERT_EQ(bounds.size(), 4u);
  // Bounds are reported in value order with set clocks.
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1].value, bounds[i].value);
  }
  for (const auto& b : bounds) {
    EXPECT_GT(b.last_used, 0u);
    EXPECT_GT(b.created, 0u);
  }
}

TEST(CrackerIndexTest, RemoveBoundFusesPieces) {
  auto col = BuildPermutationColumn(200, 19, "perm");
  CrackerIndex<int64_t> index(col);
  index.Select(50, true, 150, true);
  size_t pieces_before = index.num_pieces();
  ASSERT_TRUE(index.RemoveBound(50).ok());
  EXPECT_LT(index.num_pieces(), pieces_before);
  EXPECT_TRUE(index.RemoveBound(50).IsNotFound());
  // Data still answers correctly after fusion (it re-cracks).
  CrackSelection sel = index.Select(50, true, 150, true);
  EXPECT_EQ(sel.count(), 101u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, Int32Instantiation) {
  auto col = Bat::FromVector(std::vector<int32_t>{5, 1, 4, 2, 3}, "i32");
  CrackerIndex<int32_t> index(col);
  CrackSelection sel = index.Select(2, true, 4, true);
  EXPECT_EQ(sel.count(), 3u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, DoubleInstantiation) {
  auto col =
      Bat::FromVector(std::vector<double>{0.5, 2.5, 1.5, 3.5, 4.5}, "f64");
  CrackerIndex<double> index(col);
  CrackSelection sel = index.Select(1.0, true, 4.0, true);
  EXPECT_EQ(sel.count(), 3u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, HeadBaseOffsetsOids) {
  auto col = MakeColumn({30, 10, 20});
  col->set_head_base(1000);
  CrackerIndex<int64_t> index(col);
  CrackSelection sel = index.Select(10, true, 20, true);
  std::set<Oid> oids;
  for (size_t i = 0; i < sel.count(); ++i) oids.insert(sel.oids.Get<Oid>(i));
  EXPECT_EQ(oids, (std::set<Oid>{1001, 1002}));
}

TEST(CrackerIndexTest, SingleElementColumn) {
  auto col = MakeColumn({42});
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.Select(0, true, 100, true).count(), 1u);
  EXPECT_EQ(index.Select(43, true, 100, true).count(), 0u);
  EXPECT_EQ(index.SelectEquals(42).count(), 1u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, AllEqualColumn) {
  auto col = MakeColumn(std::vector<int64_t>(100, 7));
  CrackerIndex<int64_t> index(col);
  EXPECT_EQ(index.SelectEquals(7).count(), 100u);
  EXPECT_EQ(index.Select(7, false, 100, true).count(), 0u);
  EXPECT_EQ(index.SelectLessThan(7, false).count(), 0u);
  ASSERT_TRUE(index.Validate().ok());
}

TEST(CrackerIndexTest, CostDecaysAcrossSequence) {
  auto col = BuildPermutationColumn(100000, 23, "perm");
  CrackerIndex<int64_t> index(col);
  Pcg32 rng(99);
  uint64_t first_cost = 0;
  uint64_t late_cost = 0;
  for (int q = 0; q < 50; ++q) {
    int64_t lo = rng.NextInRange(1, 95000);
    IoStats stats;
    index.Select(lo, true, lo + 5000, true, &stats);
    if (q == 0) first_cost = stats.tuples_read;
    if (q >= 40) late_cost += stats.tuples_read;
  }
  // The adaptive claim: early queries pay, late queries are nearly free.
  EXPECT_EQ(first_cost, 100000u);
  EXPECT_LT(late_cost / 10, first_cost / 20);
}

// ---------------------------------------------------------------------------
// Property sweep: random query mixes vs the naive scan, with Validate()
// after every step.
// ---------------------------------------------------------------------------

struct SweepCase {
  size_t n;
  int64_t domain;  // values drawn from [0, domain] -> duplicates when small
  uint64_t seed;
  size_t queries;
};

class CrackerIndexPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CrackerIndexPropertyTest, MatchesNaiveScan) {
  const SweepCase& param = GetParam();
  Pcg32 rng(param.seed);
  std::vector<int64_t> data(param.n);
  for (auto& v : data) v = rng.NextInRange(0, param.domain);

  auto col = MakeColumn(data);
  CrackerIndex<int64_t> index(col);

  for (size_t q = 0; q < param.queries; ++q) {
    int64_t a = rng.NextInRange(-2, param.domain + 2);
    int64_t b = rng.NextInRange(-2, param.domain + 2);
    int64_t lo = std::min(a, b);
    int64_t hi = std::max(a, b);
    bool lo_incl = rng.NextBounded(2) == 0;
    bool hi_incl = rng.NextBounded(2) == 0;

    CrackSelection sel;
    std::multiset<int64_t> expected;
    switch (rng.NextBounded(4)) {
      case 0:
        sel = index.Select(lo, lo_incl, hi, hi_incl);
        expected = NaiveSelect(data, lo, lo_incl, hi, hi_incl);
        break;
      case 1:
        sel = index.SelectLessThan(hi, hi_incl);
        expected = NaiveSelect(data, INT64_MIN, true, hi, hi_incl);
        break;
      case 2:
        sel = index.SelectGreaterThan(lo, lo_incl);
        expected = NaiveSelect(data, lo, lo_incl, INT64_MAX, true);
        break;
      default:
        sel = index.SelectEquals(lo);
        expected = NaiveSelect(data, lo, true, lo, true);
        break;
    }
    ASSERT_EQ(SelectionValues(sel), expected)
        << "query " << q << " [" << lo << "," << hi << "] incl=" << lo_incl
        << "," << hi_incl;
    // Oid alignment.
    for (size_t i = 0; i < sel.count(); ++i) {
      ASSERT_EQ(data[static_cast<size_t>(sel.oids.Get<Oid>(i))],
                sel.values.Get<int64_t>(i));
    }
    ASSERT_TRUE(index.Validate().ok()) << "after query " << q;
  }

  // Loss-less: the cracker column remains a permutation of the source.
  std::multiset<int64_t> final_values(
      index.values()->TailData<int64_t>(),
      index.values()->TailData<int64_t>() + param.n);
  EXPECT_EQ(final_values, std::multiset<int64_t>(data.begin(), data.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrackerIndexPropertyTest,
    ::testing::Values(
        SweepCase{100, 1000000, 1, 60},    // unique-ish values
        SweepCase{100, 10, 2, 60},         // heavy duplicates
        SweepCase{1000, 1000, 3, 80},      // moderate duplicates
        SweepCase{1, 5, 4, 20},            // single element
        SweepCase{2000, 1000000000, 5, 60},  // sparse domain
        SweepCase{500, 1, 6, 40}));        // two-valued column

// ---------------------------------------------------------------------------
// Piece summaries: ReducePieces over any two registered cuts must equal a
// direct reduction of the same slots, through random cracks, point cuts and
// fusions, and a repeated call may only rescan rows of small pieces.
// ---------------------------------------------------------------------------

template <typename T>
class PieceSummaryTest : public ::testing::Test {};
using SummaryTypes = ::testing::Types<int32_t, int64_t>;
TYPED_TEST_SUITE(PieceSummaryTest, SummaryTypes);

TYPED_TEST(PieceSummaryTest, ReducePiecesMatchesDirectReduction) {
  using T = TypeParam;
  const size_t kMin = CrackerIndex<T>::kSummaryMinRows;
  const int64_t kMax = std::numeric_limits<T>::max();
  // Shapes: spread values, a duplicate-heavy column, and values at the top
  // of the domain (the int64 sums wrap).
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Pcg32 rng(1400 + shape + sizeof(T));
    const size_t n = 10 * kMin + rng.NextBounded(static_cast<uint32_t>(kMin));
    const int64_t width = shape == 1 ? 40 : static_cast<int64_t>(4 * n);
    const int64_t low = shape == 2 ? kMax - width : -width / 2;
    std::vector<T> data(n);
    for (T& v : data) v = static_cast<T>(low + rng.NextInRange(0, width));
    CrackerIndex<T> index(Bat::FromVector(data, "col"));
    const T* slots = index.values()->template TailData<T>();
    auto random_value = [&] {
      return static_cast<T>(low + rng.NextInRange(-2, width + 2));
    };

    for (int step = 0; step < 80; ++step) {
      const uint32_t op = rng.NextBounded(10);
      if (op < 4) {
        T a = random_value();
        T b = random_value();
        (void)index.Select(std::min(a, b), rng.NextBounded(2) == 0,
                           std::max(a, b), rng.NextBounded(2) == 0);
      } else if (op < 6) {
        // Both an exclusive and an inclusive cut on one value.
        (void)index.SelectEquals(data[rng.NextBounded(static_cast<uint32_t>(n))]);
      } else if (op < 8) {
        (void)index.SelectLessThan(random_value(), rng.NextBounded(2) == 0);
      } else {
        // Fuse pieces, then re-crack near the dropped boundary.
        std::vector<CrackBound<T>> bounds = index.Bounds();
        if (bounds.empty()) continue;
        const T v =
            bounds[rng.NextBounded(static_cast<uint32_t>(bounds.size()))].value;
        ASSERT_TRUE(index.RemoveBound(v).ok());
        if (rng.NextBounded(2) == 0) {
          (void)index.SelectLessThan(v, rng.NextBounded(2) == 0);
        }
      }
      ASSERT_TRUE(index.Validate().ok()) << "step " << step;

      std::vector<size_t> cuts = {0, n};
      for (const CrackBound<T>& b : index.Bounds()) {
        if (b.has_excl) cuts.push_back(b.pos_excl);
        if (b.has_incl) cuts.push_back(b.pos_incl);
      }
      std::vector<CrackPiece<T>> pieces = index.Pieces();
      for (int pair = 0; pair < 6; ++pair) {
        size_t a = cuts[rng.NextBounded(static_cast<uint32_t>(cuts.size()))];
        size_t b = cuts[rng.NextBounded(static_cast<uint32_t>(cuts.size()))];
        if (a > b) std::swap(a, b);
        const SpanAggregates want =
            AggregateSpanTier(slots + a, b - a, SimdTier::kScalar);
        size_t small_rows = 0;
        for (const CrackPiece<T>& p : pieces) {
          if (p.begin >= a && p.end <= b && p.size() < kMin) {
            small_rows += p.size();
          }
        }
        for (int call = 0; call < 2; ++call) {
          size_t read = 0;
          const SpanAggregates got = index.ReducePieces(a, b, &read);
          ASSERT_EQ(got.count, want.count) << "[" << a << "," << b << ")";
          ASSERT_EQ(got.sum_i, want.sum_i) << "[" << a << "," << b << ")";
          if (want.count > 0) {
            ASSERT_EQ(got.min_i, want.min_i) << "[" << a << "," << b << ")";
            ASSERT_EQ(got.max_i, want.max_i) << "[" << a << "," << b << ")";
          }
          ASSERT_LE(read, b - a);
          if (call == 1) {
            ASSERT_LE(read, small_rows) << "[" << a << "," << b << ")";
          }
        }
      }
    }
  }
}

TEST(CrackerIndexTest, LargePiecesAnswerFromSummaries) {
  const size_t kMin = CrackerIndex<int64_t>::kSummaryMinRows;
  const size_t n = 8 * kMin;
  std::vector<int64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<int64_t>((i * 7919) % n);
  CrackerIndex<int64_t> index(MakeColumn(data));
  // Pieces of 2*kMin rows each: every piece is summarizable.
  for (int64_t v = 2 * kMin; v < static_cast<int64_t>(n); v += 2 * kMin) {
    (void)index.SelectLessThan(v, /*inclusive=*/false);
  }
  size_t read = 0;
  SpanAggregates first = index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, n);
  SpanAggregates again = index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(again.sum_i, first.sum_i);
  EXPECT_EQ(again.count, n);
  // A crack inside a summarized piece leaves its summary usable for any
  // answer that still covers the whole piece.
  (void)index.SelectLessThan(static_cast<int64_t>(3 * kMin), false);
  again = index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(again.sum_i, first.sum_i);
  // A double column has no summaries: every call scans.
  std::vector<double> dv(n, 0.5);
  CrackerIndex<double> dindex(Bat::FromVector(dv, "d"));
  (void)dindex.ReducePieces(0, n);
  (void)dindex.ReducePieces(0, n, &read);
  EXPECT_EQ(read, n);
}

// A summary outlives its piece only while its end is still a cut. After that
// cut is fused away, the scalar crack-in-three (one Dutch-flag pass) sends
// rows above its range to the fused piece's far end, across the dropped
// position, so the rows the summary covered are no longer the rows there.
// (The vector tiers crack in three as two Hoare passes, which keep rows on
// their side; CI's quick lane also runs this under CRACKSTORE_SIMD=scalar.)
TEST(CrackerIndexTest, SummaryEndingAtADroppedCutIsNotReused) {
  const int64_t k = CrackerIndex<int64_t>::kSummaryMinRows;
  const size_t n = static_cast<size_t>(8 * k);
  CrackerIndex<int64_t> index(BuildPermutationColumn(n, 3, "perm"));
  for (int64_t v : {2 * k, 4 * k, 6 * k}) {
    (void)index.SelectLessThan(v, /*inclusive=*/false);
  }
  (void)index.ReducePieces(0, n);
  // Split the summarized [2k, 4k): its summary now ends past the next cut.
  (void)index.SelectLessThan(3 * k, /*inclusive=*/false);
  size_t read = 0;
  (void)index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, 0u);
  ASSERT_TRUE(index.RemoveBound(4 * k).ok());
  (void)index.Select(3 * k + k / 2, true, 3 * k + 3 * k / 4, true);
  ASSERT_TRUE(index.Validate().ok());
  const int64_t* slots = index.values()->TailData<int64_t>();
  for (size_t begin : {size_t{0}, static_cast<size_t>(2 * k)}) {
    const SpanAggregates want =
        AggregateSpanTier(slots + begin, n - begin, SimdTier::kScalar);
    const SpanAggregates got = index.ReducePieces(begin, n, &read);
    EXPECT_EQ(got.sum_i, want.sum_i) << "from " << begin;
    EXPECT_EQ(got.count, want.count) << "from " << begin;
  }
}

}  // namespace
}  // namespace crackstore
