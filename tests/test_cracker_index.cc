// Copyright 2026 The CrackStore Authors
//
// Tests for the cracker index — the paper's central data structure. Includes
// randomized property sweeps cross-checking every cracked selection against
// a naive scan, over query mixes with duplicates and all inclusivity
// combinations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
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

template <typename T = int64_t>
std::multiset<int64_t> SelectionValues(const CrackSelection& sel) {
  std::multiset<int64_t> out;
  for (size_t i = 0; i < sel.values.size(); ++i) {
    out.insert(static_cast<int64_t>(sel.values.Get<T>(i)));
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
// Cut records: every cut position — and 0 and n once the column's first pass
// ran — keeps P(p), the max of [0, p) and the min of [p, n), filled by the
// pass that made it. Through random crack-in-two, crack-in-three, point
// cuts, progressive cuts, fusions, radix builds and delta merges, Validate()
// rechecks every record, and ReducePieces over any [begin, end) equals a
// direct reduction while reading exactly the partial pieces at its edges:
// no row at all when both ends are record positions.
// ---------------------------------------------------------------------------

/// The rows ReducePieces(begin, end) must read on an index whose first pass
/// ran: those outside the first and the last record position (a cut, 0 or
/// n) inside [begin, end), or all of them when there are not two.
template <typename T>
size_t EdgeRows(const CrackerIndex<T>& index, size_t begin, size_t end) {
  std::vector<size_t> at = {0, index.size()};
  for (const CrackBound<T>& b : index.Bounds()) {
    if (b.has_excl) at.push_back(b.pos_excl);
    if (b.has_incl) at.push_back(b.pos_incl);
  }
  size_t first = index.size() + 1;
  size_t last = 0;
  for (size_t p : at) {
    if (p < begin || p > end) continue;
    first = std::min(first, p);
    last = std::max(last, p);
  }
  return first < last ? (first - begin) + (end - last) : end - begin;
}

/// ReducePieces(begin, end) against the scalar reduction of the same slots,
/// and its rows read against EdgeRows.
template <typename T>
void ExpectRecordReduction(CrackerIndex<T>* index, size_t begin, size_t end) {
  const T* slots = index->values()->template TailData<T>();
  const SpanAggregates want =
      AggregateSpanTier(slots + begin, end - begin, SimdTier::kScalar);
  size_t read = 0;
  const SpanAggregates got = index->ReducePieces(begin, end, &read);
  ASSERT_EQ(got.count, want.count) << "[" << begin << "," << end << ")";
  ASSERT_EQ(got.sum_i, want.sum_i) << "[" << begin << "," << end << ")";
  if (want.count > 0) {
    ASSERT_EQ(got.min_i, want.min_i) << "[" << begin << "," << end << ")";
    ASSERT_EQ(got.max_i, want.max_i) << "[" << begin << "," << end << ")";
  }
  ASSERT_EQ(read, EdgeRows(*index, begin, end))
      << "[" << begin << "," << end << ")";
}

template <typename T>
class CutRecordTest : public ::testing::Test {};
using RecordTypes = ::testing::Types<int32_t, int64_t>;
TYPED_TEST_SUITE(CutRecordTest, RecordTypes);

TYPED_TEST(CutRecordTest, ReducePiecesMatchesDirectReduction) {
  using T = TypeParam;
  const int64_t kMax = std::numeric_limits<T>::max();
  // Shapes: spread values, a duplicate-heavy column, and values at the top
  // of the domain (the int64 sums wrap); each over a copy and a radix build.
  for (int shape = 0; shape < 3; ++shape) {
    for (int bits : {0, 4}) {
      SCOPED_TRACE("shape " + std::to_string(shape) + " bits " +
                   std::to_string(bits));
      Pcg32 rng(1400 + shape + sizeof(T) + 10 * bits);
      const size_t n = 12000 + rng.NextBounded(4096);
      const int64_t width = shape == 1 ? 40 : static_cast<int64_t>(4 * n);
      const int64_t low = shape == 2 ? kMax - width : -width / 2;
      std::vector<T> data(n);
      for (T& v : data) v = static_cast<T>(low + rng.NextInRange(0, width));
      auto random_value = [&] {
        return static_cast<T>(low + rng.NextInRange(-2, width + 2));
      };
      CrackerIndexOptions opts;
      opts.partition_bits = bits;
      auto index = std::make_unique<CrackerIndex<T>>(
          Bat::FromVector(data, "col"), nullptr, opts);
      if (bits == 0) {
        // Nothing is recorded before the first pass: a reduction scans.
        size_t read = 0;
        (void)index->ReducePieces(0, n, &read);
        EXPECT_EQ(read, n);
        (void)index->SelectLessThan(random_value(), true);
      }
      std::vector<bool> deleted(n, false);
      Oid next_oid = n;
      for (int step = 0; step < 60; ++step) {
        const uint32_t op = rng.NextBounded(12);
        if (op < 3) {
          // Crack-in-three when no bound lies inside, two cuts otherwise.
          T a = random_value();
          T b = random_value();
          (void)index->Select(std::min(a, b), rng.NextBounded(2) == 0,
                              std::max(a, b), rng.NextBounded(2) == 0);
        } else if (op < 5) {
          // Both an exclusive and an inclusive cut on one value.
          (void)index->SelectEquals(
              data[rng.NextBounded(static_cast<uint32_t>(n))]);
        } else if (op < 7) {
          (void)index->SelectLessThan(random_value(), rng.NextBounded(2) == 0);
        } else if (op < 8) {
          // A budgeted cut completes over several passes.
          const T v = random_value();
          const bool incl = rng.NextBounded(2) == 0;
          for (int pass = 0; pass < 4; ++pass) {
            if (index->CutProgressive(v, incl, 256).exact) break;
          }
        } else if (op < 10) {
          // Fuse pieces, then re-crack near the dropped boundary.
          std::vector<CrackBound<T>> bounds = index->Bounds();
          if (bounds.empty()) continue;
          const T v = bounds[rng.NextBounded(static_cast<uint32_t>(
                                 bounds.size()))]
                          .value;
          ASSERT_TRUE(index->RemoveBound(v).ok());
          if (rng.NextBounded(2) == 0) {
            (void)index->SelectLessThan(v, rng.NextBounded(2) == 0);
          }
        } else if (op < 11) {
          // A delta fold builds a new index; its replayed cracks (or the
          // first crack after it) fill the records.
          std::vector<std::pair<T, Oid>> add;
          for (int k = 0; k < 3; ++k) {
            add.emplace_back(random_value(), next_oid++);
          }
          OidBitTable drop;
          const Oid victim = rng.NextBounded(static_cast<uint32_t>(n));
          if (!deleted[victim]) {
            drop.Set(victim);
            deleted[victim] = true;
          }
          auto folded = index->Fold(drop, add);
          ASSERT_TRUE(folded.ok());
          index = std::move(*folded);
          (void)index->SelectLessThan(random_value(), rng.NextBounded(2) == 0);
        } else {
          (void)index->Cut(random_value(), rng.NextBounded(2) == 0);
        }
        const Status valid = index->Validate();
        ASSERT_TRUE(valid.ok()) << "step " << step << ": " << valid.ToString();

        // Cut positions, column edges and arbitrary slots as span ends.
        const size_t size = index->size();
        std::vector<size_t> ends = {0, size};
        for (const CrackBound<T>& b : index->Bounds()) {
          if (b.has_excl) ends.push_back(b.pos_excl);
          if (b.has_incl) ends.push_back(b.pos_incl);
        }
        auto random_end = [&] {
          return rng.NextBounded(2) == 0
                     ? ends[rng.NextBounded(static_cast<uint32_t>(ends.size()))]
                     : rng.NextBounded(static_cast<uint32_t>(size + 1));
        };
        for (int pair = 0; pair < 8; ++pair) {
          size_t a = random_end();
          size_t b = random_end();
          if (a > b) std::swap(a, b);
          ExpectRecordReduction(index.get(), a, b);
          if (this->HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CrackerIndexTest, WholePiecesAnswerFromRecords) {
  const size_t n = 32768;
  std::vector<int64_t> data(n);
  for (size_t i = 0; i < n; ++i) data[i] = static_cast<int64_t>((i * 7919) % n);
  CrackerIndex<int64_t> index(MakeColumn(data));
  size_t read = 0;
  // Before the first crack there is no record: the reduction scans.
  SpanAggregates first = index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, n);
  for (int64_t v = 8192; v < static_cast<int64_t>(n); v += 8192) {
    (void)index.SelectLessThan(v, /*inclusive=*/false);
  }
  // The cracks filled every record: the first reduction reads no row.
  SpanAggregates whole = index.ReducePieces(0, n, &read);
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(whole.sum_i, first.sum_i);
  EXPECT_EQ(whole.count, n);
  EXPECT_EQ(whole.min_i, 0);
  EXPECT_EQ(whole.max_i, static_cast<int64_t>(n) - 1);
  SpanAggregates middle = index.ReducePieces(8192, 24576, &read);
  EXPECT_EQ(read, 0u);
  EXPECT_EQ(middle.count, 16384u);
  EXPECT_EQ(middle.sum_i, (8192 + 24575) * 16384 / 2);
  EXPECT_EQ(middle.min_i, 8192);
  EXPECT_EQ(middle.max_i, 24575);
  // Ends that are no cut: only the partial pieces at the edges are read.
  (void)index.ReducePieces(8000, 24600, &read);
  EXPECT_EQ(read, (8192u - 8000u) + (24600u - 24576u));
  // A span inside one piece is scanned whole.
  (void)index.ReducePieces(9000, 10000, &read);
  EXPECT_EQ(read, 1000u);
  // A double column has no records: every call scans.
  std::vector<double> dv(n, 0.5);
  CrackerIndex<double> dindex(Bat::FromVector(dv, "d"));
  (void)dindex.SelectLessThan(0.25, false);
  (void)dindex.ReducePieces(0, n, &read);
  EXPECT_EQ(read, n);
}

// A record describes its own position only, so fusing a neighbouring cut
// leaves it exact. After the cut at 4k is fused away, the scalar
// crack-in-three (one Dutch-flag pass) sends rows above its range to the
// fused piece's far end, across the dropped position; the records at 3k and
// 6k still hold. (The vector tiers crack in three as two Hoare passes,
// which keep rows on their side; CI's quick lane also runs this under
// CRACKSTORE_SIMD=scalar.)
TEST(CrackerIndexTest, RecordsSurviveAFusedNeighbour) {
  const int64_t k = 4096;
  const size_t n = static_cast<size_t>(8 * k);
  CrackerIndex<int64_t> index(BuildPermutationColumn(n, 3, "perm"));
  for (int64_t v : {2 * k, 4 * k, 6 * k, 3 * k}) {
    (void)index.SelectLessThan(v, /*inclusive=*/false);
  }
  ASSERT_TRUE(index.RemoveBound(4 * k).ok());
  ASSERT_TRUE(index.Validate().ok());
  (void)index.Select(3 * k + k / 2, true, 3 * k + 3 * k / 4, true);
  ASSERT_TRUE(index.Validate().ok()) << index.Validate().ToString();
  // Values 1..n: the cut for 2k sits at 2k - 1, so 2k is no cut.
  for (size_t begin : {size_t{0}, static_cast<size_t>(2 * k)}) {
    SCOPED_TRACE("from " + std::to_string(begin));
    ExpectRecordReduction(&index, begin, n);
    ExpectRecordReduction(&index, begin, static_cast<size_t>(6 * k) - 1);
  }
}

// ---------------------------------------------------------------------------
// Radix-partitioned builds (partition_bits > 0), forced on small columns:
// the build must leave a valid index over an exact permutation of the
// source, whatever the domain — extreme values, negatives, duplicates,
// skew, a non-zero oid base, fewer rows than ranges — and every primitive
// must then answer exactly as over a copied (k = 0) build.
// ---------------------------------------------------------------------------

template <typename T>
class PartitionedBuildTest : public ::testing::Test {};
TYPED_TEST_SUITE(PartitionedBuildTest, RecordTypes);

template <typename T>
std::shared_ptr<Bat> ColumnAt(const std::vector<T>& data, Oid base) {
  auto col = Bat::FromVector(data, "col");
  col->set_head_base(base);
  return col;
}

/// The build-time checks: validity, the piece table, the permutation, the
/// stable order inside every range, edge separation, the records and the
/// crack-like accounting.
template <typename T>
void ExpectPartitionedBuild(const std::vector<T>& data, Oid base, int bits) {
  const size_t n = data.size();
  CrackerIndexOptions opts;
  opts.partition_bits = bits;
  IoStats stats;
  CrackerIndex<T> index(ColumnAt(data, base), &stats, opts);
  ASSERT_TRUE(index.Validate().ok()) << index.Validate().ToString();
  EXPECT_EQ(index.partition_bits(), bits);
  const std::vector<CrackPiece<T>> pieces = index.Pieces();
  EXPECT_EQ(index.num_pieces(), pieces.size());
  EXPECT_LE(index.num_pieces(), size_t{1} << bits);

  // (values, oids) is the source permutation, in source order per piece.
  const T* values = index.values()->template TailData<T>();
  const Oid* oids = index.oids()->template TailData<Oid>();
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_GE(oids[i], base);
    ASSERT_LT(oids[i], base + n);
    ASSERT_FALSE(seen[oids[i] - base]) << "oid twice at slot " << i;
    seen[oids[i] - base] = true;
    ASSERT_EQ(values[i], data[oids[i] - base]) << "slot " << i;
  }
  for (const CrackPiece<T>& p : pieces) {
    for (size_t i = p.begin + 1; i < p.end; ++i) {
      ASSERT_LT(oids[i - 1], oids[i]) << "unstable at slot " << i;
    }
  }

  // Every edge separates its sides.
  for (const CrackBound<T>& b : index.Bounds()) {
    ASSERT_TRUE(b.has_excl);
    EXPECT_FALSE(b.has_incl);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(values[i] < b.value, i < b.pos_excl)
          << "edge " << static_cast<int64_t>(b.value) << " slot " << i;
    }
  }

  // The histogram filled every edge's record (Validate rechecks them): any
  // run of whole pieces reduces without reading a row, and any other span
  // reads only its partial edge pieces.
  for (const CrackPiece<T>& p : pieces) {
    ExpectRecordReduction(&index, p.begin, p.end);
    ExpectRecordReduction(&index, 0, p.end);
    ExpectRecordReduction(&index, p.begin, n);
    const size_t inside = p.begin + p.size() / 3;
    ExpectRecordReduction(&index, std::min(inside, n - n / 5),
                          std::max(inside, n - n / 5));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Charged like one crack over the column.
  EXPECT_EQ(stats.cracks, 1u);
  EXPECT_EQ(stats.pieces_touched, 1u);
  EXPECT_EQ(stats.tuples_read, n);
  EXPECT_EQ(stats.tuples_written, n);
  EXPECT_EQ(stats.kernel_writes, n);
  EXPECT_EQ(stats.pieces_created, index.num_pieces() - 1);
}

TYPED_TEST(PartitionedBuildTest, DomainsPartitionIntoAValidIndex) {
  using T = TypeParam;
  const T lo = std::numeric_limits<T>::min();
  const T hi = std::numeric_limits<T>::max();
  Pcg32 rng(1900 + sizeof(T));
  auto spread = [&](size_t n, int64_t from, int64_t to) {
    std::vector<T> out(n);
    for (T& v : out) v = static_cast<T>(rng.NextInRange(from, to));
    return out;
  };
  const int64_t kLo = static_cast<int64_t>(lo);
  const int64_t kHi = static_cast<int64_t>(hi);
  std::vector<T> both = spread(3000, kLo, kHi);
  both[17] = lo;
  both[2999] = hi;
  std::vector<T> at_min = spread(3000, kLo, kLo + 100000);
  at_min[5] = lo;
  std::vector<T> at_max = spread(3000, kHi - 100000, kHi);
  at_max[0] = hi;
  // Most rows in a narrow band, a few far outliers on both sides: most
  // ranges are empty and one holds nearly every row.
  std::vector<T> skewed = spread(6000, 1000, 1063);
  for (size_t i = 0; i < skewed.size(); i += 997) {
    skewed[i] = static_cast<T>(i % 2 == 0 ? kLo / 3 : kHi / 3);
  }
  std::vector<T> two(5000);
  for (size_t i = 0; i < two.size(); ++i) two[i] = i % 3 == 0 ? lo : hi;
  struct Case {
    const char* name;
    std::vector<T> data;
    Oid base;
    int bits;
  };
  const std::vector<Case> cases = {
      {"both extremes", both, 0, 6},
      {"both extremes, max bits", both, 0, kMaxPartitionBits},
      {"reaches min", at_min, 0, 5},
      {"reaches max", at_max, 0, 5},
      {"negatives", spread(20000, -50000, -1), 0, 4},
      {"all equal", std::vector<T>(4000, static_cast<T>(-7)), 0, 6},
      {"two values", two, 0, 6},
      {"skewed", skewed, 0, 8},
      {"oid base", spread(12000, -3000, 3000), 1000000, 3},
      {"fewer rows than ranges", spread(5, kLo, kHi), 42, kMaxPartitionBits},
      {"one row", std::vector<T>{static_cast<T>(9)}, 7, 2},
      {"large pieces", spread(60000, 0, 59999), 0, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectPartitionedBuild(c.data, c.base, c.bits);
  }
}

// A seeded mix of primitives over a partitioned index answers exactly as
// over a copied one, and stays valid after every step.
TYPED_TEST(PartitionedBuildTest, PrimitivesAnswerAsOverACopy) {
  using T = TypeParam;
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE("shape " + std::to_string(shape));
    Pcg32 rng(2000 + shape + sizeof(T));
    const size_t n = 3 * 4096 + 1234;
    // Spread values, heavy duplicates, and the top of the domain.
    const int64_t width = shape == 1 ? 50 : static_cast<int64_t>(4 * n);
    const int64_t low =
        shape == 2 ? static_cast<int64_t>(std::numeric_limits<T>::max()) -
                         width
                   : -width / 2;
    std::vector<T> data(n);
    for (T& v : data) v = static_cast<T>(low + rng.NextInRange(0, width));
    CrackerIndexOptions opts;
    opts.partition_bits = 5;
    CrackerIndex<T> part(ColumnAt(data, 5), nullptr, opts);
    CrackerIndex<T> copy(ColumnAt(data, 5));
    auto value = [&] {
      return static_cast<T>(low + rng.NextInRange(-2, width + 2));
    };
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bool incl = rng.NextBounded(2) == 1;
      switch (rng.NextBounded(5)) {
        case 0: {
          T a = value(), b = value();
          if (b < a) std::swap(a, b);
          const bool lo_incl = rng.NextBounded(2) == 1;
          EXPECT_EQ(SelectionValues<T>(part.Select(a, lo_incl, b, incl)),
                    SelectionValues<T>(copy.Select(a, lo_incl, b, incl)));
          break;
        }
        case 1: {
          const T v = value();
          EXPECT_EQ(part.Cut(v, incl), copy.Cut(v, incl));
          break;
        }
        case 2: {
          const T v = value();
          const size_t want = copy.Cut(v, incl);
          const ProgressiveCut got = part.CutProgressive(v, incl, 300);
          if (got.exact) {
            EXPECT_EQ(got.lo, want);
          } else {
            EXPECT_LE(got.lo, want);
            EXPECT_GE(got.hi, want);
          }
          break;
        }
        case 3: {
          T a = value(), b = value();
          if (b < a) std::swap(a, b);
          const size_t pa = part.Cut(a, false), pb = part.Cut(b, true);
          const size_t ca = copy.Cut(a, false), cb = copy.Cut(b, true);
          ASSERT_EQ(pa, ca);
          ASSERT_EQ(pb, cb);
          // Both ends are cuts: neither index reads a row.
          size_t part_read = 0, copy_read = 0;
          const SpanAggregates got = part.ReducePieces(pa, pb, &part_read);
          const SpanAggregates want = copy.ReducePieces(ca, cb, &copy_read);
          EXPECT_EQ(part_read, 0u);
          EXPECT_EQ(copy_read, 0u);
          EXPECT_EQ(got.count, want.count);
          EXPECT_EQ(got.sum_i, want.sum_i);
          if (want.count > 0) {
            EXPECT_EQ(got.min_i, want.min_i);
            EXPECT_EQ(got.max_i, want.max_i);
          }
          break;
        }
        default: {
          // Fuse around a bound of the partitioned index (a range edge or
          // a query's cut); the copy drops it too when it has one.
          const std::vector<CrackBound<T>> bounds = part.Bounds();
          if (bounds.empty()) break;
          const T v =
              bounds[rng.NextBounded(static_cast<uint32_t>(bounds.size()))]
                  .value;
          ASSERT_TRUE(part.RemoveBound(v).ok());
          (void)copy.RemoveBound(v);
          break;
        }
      }
      ASSERT_TRUE(part.Validate().ok()) << part.Validate().ToString();
      ASSERT_EQ(part.num_pieces(), part.Pieces().size());
    }
    ASSERT_TRUE(copy.Validate().ok()) << copy.Validate().ToString();
  }
}

// ---------------------------------------------------------------------------
// The primitives under threads: every primitive takes the boundary-map
// mutex and a range lock over the piece it shuffles, so threads racing on
// one index — first touches that crack in three, plain cuts, budgeted
// progressive cuts, pivot reads — must all see exact answers and leave a
// valid index over a permutation of the source.
// ---------------------------------------------------------------------------

void RacePrimitivesOnOneIndex(CrackerIndexOptions options) {
  const size_t n = 60000;
  const int64_t domain = 20000;  // duplicates: ~3 rows per value
  Pcg32 fill(20261017);
  std::vector<int64_t> source(n);
  for (int64_t& v : source) v = fill.NextInRange(0, domain);
  std::vector<int64_t> sorted = source;
  std::sort(sorted.begin(), sorted.end());
  // The scan answers: rows below v (a cut before v's duplicates) and rows
  // at or below v (a cut after them).
  auto below = [&](int64_t v) {
    return static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  };
  auto at_or_below = [&](int64_t v) {
    return static_cast<size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  };
  CrackerIndex<int64_t> index(MakeColumn(source), nullptr, options);

  const size_t kThreads = 6;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(77 + t);
      for (int q = 0; q < 250; ++q) {
        const int64_t lo = rng.NextInRange(0, domain);
        const int64_t hi = lo + rng.NextInRange(0, domain / 40);
        const bool incl = rng.NextBounded(2) == 1;
        switch (rng.NextBounded(4)) {
          case 0: {
            CrackSelection sel = index.Select(lo, true, hi, incl);
            const size_t want = (incl ? at_or_below(hi) : below(hi)) -
                                below(lo);
            const size_t begin = sel.values.offset();
            RangeLockGuard span =
                index.LockRangeShared(begin, begin + sel.count());
            bool ok = sel.count() == want;
            for (size_t i = 0; ok && i < sel.count(); ++i) {
              const int64_t v = sel.values.Get<int64_t>(i);
              ok = v >= lo && (incl ? v <= hi : v < hi);
            }
            if (!ok) failures.fetch_add(1);
            break;
          }
          case 1: {
            const size_t pos = index.Cut(lo, incl);
            if (pos != (incl ? at_or_below(lo) : below(lo))) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {
            const ProgressiveCut cut = index.CutProgressive(lo, incl, 512);
            const size_t want = incl ? at_or_below(lo) : below(lo);
            if (cut.exact ? cut.lo != want
                          : (cut.lo > want || want > cut.hi)) {
              failures.fetch_add(1);
            }
            break;
          }
          default: {
            const int64_t v = index.ValueAt(rng.NextBounded(n));
            if (v < 0 || v > domain) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  ASSERT_TRUE(index.Validate().ok());
  EXPECT_GT(index.num_pieces(), kThreads);
  // The cracker column is a permutation of the source, row for row.
  std::vector<int64_t> cracked(n);
  size_t misplaced = 0;
  for (size_t i = 0; i < n; ++i) {
    cracked[i] = index.values()->Get<int64_t>(i);
    misplaced += cracked[i] != source[index.oids()->Get<Oid>(i)] ? 1 : 0;
  }
  EXPECT_EQ(misplaced, 0u);
  std::sort(cracked.begin(), cracked.end());
  EXPECT_EQ(cracked, sorted);
}

TEST(CrackerIndexConcurrencyTest, PrimitivesRaceOnOneIndex) {
  RacePrimitivesOnOneIndex(CrackerIndexOptions{});
}

// Reductions racing cracks and fusions: a fusion may drop the cut that
// ends a span between its Select and its ReducePieces, so the span's ends
// need not be cuts when it is reduced. Under the span's shared lock the
// reduction must still equal a direct reduction of the slots it covers,
// from whatever records are live; the index stays valid, records included.
TEST(CrackerIndexConcurrencyTest, ReductionsRaceCracksAndFusions) {
  const size_t n = 60000;
  const int64_t domain = 20000;
  Pcg32 fill(20261019);
  std::vector<int64_t> source(n);
  for (int64_t& v : source) v = fill.NextInRange(0, domain);
  CrackerIndex<int64_t> index(MakeColumn(source));
  (void)index.SelectLessThan(domain / 2, false);  // records 0 and n
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Pcg32 rng(91 + t);
      for (int q = 0; q < 200; ++q) {
        const int64_t lo = rng.NextInRange(0, domain);
        const int64_t hi = lo + rng.NextInRange(0, domain / 10);
        if (t == 0 && q % 3 == 0) {
          // Fuse a random boundary, then crack near it.
          std::vector<CrackBound<int64_t>> bounds = index.Bounds();
          if (bounds.empty()) continue;
          const int64_t v =
              bounds[rng.NextBounded(static_cast<uint32_t>(bounds.size()))]
                  .value;
          (void)index.RemoveBound(v);  // another thread may have fused it
          (void)index.Cut(v + rng.NextInRange(-50, 50), rng.NextBounded(2));
          continue;
        }
        CrackSelection sel = index.Select(lo, true, hi, rng.NextBounded(2));
        const size_t begin = sel.values.offset();
        const size_t end = begin + sel.count();
        RangeLockGuard span = index.LockRangeShared(begin, end);
        size_t read = 0;
        const SpanAggregates got = index.ReducePieces(begin, end, &read);
        const SpanAggregates want = AggregateSpanTier(
            index.values()->TailData<int64_t>() + begin, end - begin,
            SimdTier::kScalar);
        const bool ok = got.count == want.count && got.sum_i == want.sum_i &&
                        (want.count == 0 || (got.min_i == want.min_i &&
                                             got.max_i == want.max_i)) &&
                        read <= end - begin;
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  const Status valid = index.Validate();
  ASSERT_TRUE(valid.ok()) << valid.ToString();
}

// The same race on a freshly partitioned index: every thread's first
// Select or Cut lands on the range edges the build registered.
TEST(CrackerIndexConcurrencyTest, FirstTouchesRaceOnAPartitionedIndex) {
  CrackerIndexOptions options;
  options.partition_bits = 4;
  RacePrimitivesOnOneIndex(options);
}

}  // namespace
}  // namespace crackstore
