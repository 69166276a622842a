// Copyright 2026 The CrackStore Authors
//
// Tests for multi-attribute conjunctive selections through the
// AdaptiveStore (each conjunct cracks its own column; oid sets intersect).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive_store.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

/// Base seed of the randomized cases, overridable for reproduction.
uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

std::shared_ptr<Relation> Table(uint64_t n = 3000, uint64_t seed = 31) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.num_columns = 3;
  opts.seed = seed;
  return *BuildTapestry("R", opts);
}

using ColumnRange = AdaptiveStore::ColumnRange;

TEST(ConjunctionTest, ValidatesInput) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(
      store.SelectConjunction("R", {}).status().IsInvalidArgument());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "R", {{"zz", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store
                  .SelectConjunction(
                      "X", {{"c0", RangeBounds::Closed(1, 2)}})
                  .status()
                  .IsNotFound());
}

TEST(ConjunctionTest, SingleConjunctDelegatesToSelectRange) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  auto result =
      store.SelectConjunction("R", {{"c0", RangeBounds::Closed(1, 100)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 100u);
}

TEST(ConjunctionTest, CountMatchesNaive) {
  auto rel = Table();
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(rel).ok());
  RangeBounds r0 = RangeBounds::Closed(1, 1500);
  RangeBounds r1 = RangeBounds::Closed(1000, 2500);

  // Naive row-wise count.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  uint64_t expected = 0;
  for (size_t i = 0; i < rel->num_rows(); ++i) {
    expected += r0.Contains(c0->Get<int64_t>(i)) &&
                r1.Contains(c1->Get<int64_t>(i));
  }

  auto result = store.SelectConjunction("R", {{"c0", r0}, {"c1", r1}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, expected);
}

TEST(ConjunctionTest, AllStrategiesAgree) {
  auto rel = Table();
  Pcg32 rng(17);
  for (int q = 0; q < 10; ++q) {
    int64_t a0 = rng.NextInRange(1, 2000);
    int64_t a1 = rng.NextInRange(1, 2000);
    std::vector<ColumnRange> conjuncts{
        {"c0", RangeBounds::Closed(a0, a0 + 800)},
        {"c1", RangeBounds::Closed(a1, a1 + 800)},
        {"c2", RangeBounds::AtLeast(500)}};

    uint64_t counts[3];
    int i = 0;
    for (AccessStrategy s : {AccessStrategy::kScan, AccessStrategy::kCrack,
                             AccessStrategy::kSort}) {
      DbOptions opts;
      opts.strategy = s;
      opts.track_lineage = false;
      auto db = *AdaptiveStore::Open(opts);
      AdaptiveStore& store = *db;
      ASSERT_TRUE(store.AddTable(rel).ok());
      auto result = store.SelectConjunction("R", conjuncts);
      ASSERT_TRUE(result.ok());
      counts[i++] = result->count;
    }
    EXPECT_EQ(counts[0], counts[1]) << "query " << q;
    EXPECT_EQ(counts[0], counts[2]) << "query " << q;
  }
}

TEST(ConjunctionTest, ViewDeliveryReturnsSortedOids) {
  auto rel = Table();
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto result = store.SelectConjunction(
      "R",
      {{"c0", RangeBounds::Closed(1, 500)}, {"c1", RangeBounds::Closed(1, 500)}},
      Delivery::kView);
  ASSERT_TRUE(result.ok());
  std::vector<Oid> oids = result->CollectOids();
  EXPECT_EQ(oids.size(), result->count);
  EXPECT_TRUE(std::is_sorted(oids.begin(), oids.end()));
  // Every returned oid satisfies both predicates.
  auto c0 = *rel->column("c0");
  auto c1 = *rel->column("c1");
  for (Oid oid : oids) {
    EXPECT_LE(c0->Get<int64_t>(static_cast<size_t>(oid)), 500);
    EXPECT_LE(c1->Get<int64_t>(static_cast<size_t>(oid)), 500);
  }
}

TEST(ConjunctionTest, CracksEveryReferencedColumn) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  ASSERT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(100, 900)},
                                      {"c1", RangeBounds::Closed(200, 800)}})
                  .ok());
  EXPECT_GT(*store.NumPieces("R", "c0"), 1u);
  EXPECT_GT(*store.NumPieces("R", "c1"), 1u);
  EXPECT_EQ(*store.NumPieces("R", "c2"), 1u);  // untouched column
}

TEST(ConjunctionTest, RepeatConjunctionGetsCheaper) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table(50000)).ok());
  std::vector<ColumnRange> conjuncts{{"c0", RangeBounds::Closed(1000, 5000)},
                                     {"c1", RangeBounds::Closed(2000, 6000)}};
  auto first = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(first.ok());
  auto second = store.SelectConjunction("R", conjuncts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->count, second->count);
  // The repeat pays only the intersection, not the cracking.
  EXPECT_EQ(second->io.cracks, 0u);
  EXPECT_LT(second->io.tuples_read, first->io.tuples_read);
}

TEST(ConjunctionTest, EmptyIntersection) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  // c0 small and c0 large can't both hold (same column twice).
  auto result = store.SelectConjunction(
      "R", {{"c0", RangeBounds::AtMost(100)},
            {"c0", RangeBounds::AtLeast(2000)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 0u);
}

TEST(ConjunctionTest, MaterializeUnimplementedHint) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(Table()).ok());
  EXPECT_TRUE(store
                  .SelectConjunction("R",
                                     {{"c0", RangeBounds::Closed(1, 10)},
                                      {"c1", RangeBounds::Closed(1, 10)}},
                                     Delivery::kMaterialize)
                  .status()
                  .IsUnimplemented());
}

// --- block reads against a per-row reference ---------------------------------

struct RefRow {
  int32_t a = 0;
  int64_t b = 0;
  double d = 0.0;
  std::string s;
};

/// What one snapshot reads: row i is oid base + i.
struct RefView {
  std::vector<RefRow> rows;
  std::vector<char> alive;
};

std::string RefKey(int64_t k) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "k%03d", static_cast<int>(k));
  return buf;
}

RefRow RandomRefRow(Pcg32* rng) {
  RefRow row;
  row.a = static_cast<int32_t>(rng->NextInRange(-500, 499));
  row.b = rng->NextInRange(0, 999) * 7 - 3000;
  row.d = static_cast<double>(rng->NextInRange(0, 3999)) / 4;
  row.s = RefKey(rng->NextInRange(0, 99));
  return row;
}

/// One conjunct over a, b, d or s, as SQL text and as a per-row test.
struct RefConjunct {
  int col = 0;
  int64_t lo = 0;
  int64_t hi = 0;
};

bool RefMatches(const RefRow& row, const RefConjunct& c) {
  switch (c.col) {
    case 0:
      return row.a >= c.lo && row.a <= c.hi;
    case 1:
      return row.b >= c.lo && row.b <= c.hi;
    case 2:
      return row.d >= static_cast<double>(c.lo) &&
             row.d <= static_cast<double>(c.hi);
    default:
      return row.s >= RefKey(c.lo) && row.s <= RefKey(c.hi);
  }
}

const char* const kRefCol[] = {"a", "b", "d", "s"};

std::string RefSql(const RefConjunct& c) {
  if (c.col == 3) {
    return std::string("s BETWEEN '") + RefKey(c.lo) + "' AND '" +
           RefKey(c.hi) + "'";
  }
  return std::string(kRefCol[c.col]) + " BETWEEN " + std::to_string(c.lo) +
         " AND " + std::to_string(c.hi);
}

RefConjunct RandomRefConjunct(Pcg32* rng, int col) {
  RefConjunct c;
  c.col = col;
  switch (col) {
    case 0:
      c.lo = rng->NextInRange(-520, 300);
      c.hi = c.lo + rng->NextInRange(40, 700);
      break;
    case 1:
      c.lo = rng->NextInRange(-3100, 2500);
      c.hi = c.lo + rng->NextInRange(300, 5000);
      break;
    case 2:
      c.lo = rng->NextInRange(0, 800);
      c.hi = c.lo + rng->NextInRange(50, 600);
      break;
    default:
      c.lo = rng->NextInRange(0, 80);
      c.hi = c.lo + rng->NextInRange(5, 70);
      break;
  }
  return c;
}

Value RefCell(const RefRow& row, int col) {
  switch (col) {
    case 0:
      return Value(row.a);
    case 1:
      return Value(row.b);
    case 2:
      return Value(row.d);
    default:
      return Value(row.s);
  }
}

// The block read path — the conjunction probe (kCount and kView), the
// cross-column aggregate sink and the projection gather — against a
// per-row reference. The table has int32, int64, double and string columns
// over a non-zero oid base; answers carry hidden rows (exceptions), pending
// inserts and override re-admissions (extras); an older open reader's view
// has overrides; serial and concurrent stores of every strategy run it.
TEST(ConjunctionTest, BlockReadsMatchAPerRowReference) {
  const uint64_t seed = TestSeed(2204);
  constexpr Oid kBase = 1000003;
  constexpr int64_t kRows = 3000;
  struct Config {
    AccessStrategy strategy;
    CrackPolicy policy;
  };
  int run = 0;
  for (bool concurrent : {false, true}) {
    for (Config config : {Config{AccessStrategy::kCrack, CrackPolicy::kStandard},
                          Config{AccessStrategy::kCrack, CrackPolicy::kCoarse},
                          Config{AccessStrategy::kScan, CrackPolicy::kStandard},
                          Config{AccessStrategy::kSort,
                                 CrackPolicy::kStandard}}) {
      const uint64_t run_seed = seed + static_cast<uint64_t>(run++);
      SCOPED_TRACE(std::string(AccessStrategyName(config.strategy)) + "/" +
                   CrackPolicyName(config.policy) +
                   (concurrent ? " concurrent" : " serial") +
                   " seed=" + std::to_string(run_seed) +
                   " (rerun with CRACKSTORE_TEST_SEED)");
      Pcg32 rng(run_seed);
      auto rel = *Relation::Create(
          "T", Schema({{"k", ValueType::kInt64},
                       {"a", ValueType::kInt32},
                       {"b", ValueType::kInt64},
                       {"d", ValueType::kFloat64},
                       {"s", ValueType::kString}}));
      for (size_t c = 0; c < rel->num_columns(); ++c) {
        rel->column(c)->set_head_base(kBase);
      }
      RefView latest;
      for (int64_t k = 0; k < kRows; ++k) {
        RefRow row = RandomRefRow(&rng);
        ASSERT_TRUE(rel->AppendRow({Value(k), Value(row.a), Value(row.b),
                                    Value(row.d), Value(row.s)})
                        .ok());
        latest.rows.push_back(row);
        latest.alive.push_back(1);
      }
      DbOptions opts;
      opts.strategy = config.strategy;
      opts.policy.policy = config.policy;
      opts.policy.min_piece_size = 64;
      opts.track_lineage = false;
      opts.concurrent = concurrent;
      auto db = *AdaptiveStore::Open(opts);
      AdaptiveStore& store = *db;
      ASSERT_TRUE(store.AddTable(rel).ok());
      // Warm every accelerator, so later answers are cracked spans.
      for (int q = 0; q < 12; ++q) {
        ASSERT_TRUE(store
                        .SelectConjunction(
                            "T", {{"a", RangeBounds::Closed(-400 + 60 * q,
                                                            -300 + 60 * q)},
                                  {"b", RangeBounds::AtLeast(-3000 + 400 * q)},
                                  {"d", RangeBounds::AtMost(100.0 * q + 20)},
                                  {"s", TypedRange::AtLeast(
                                            Value(RefKey(7 * q)))}})
                        .ok());
      }

      const TxnId reader = *store.Begin();
      RefView old = latest;
      // Committed writes after the reader's snapshot: updates of every
      // value column and deletes, all by key.
      for (int i = 0; i < 150; ++i) {
        const int64_t k = rng.NextInRange(0, kRows - 1);
        const std::vector<AdaptiveStore::ColumnRange> where{
            {"k", RangeBounds::Equal(k)}};
        if (i % 3 == 2) {
          ASSERT_TRUE(store.Delete("T", where).ok());
          latest.alive[k] = 0;
          continue;
        }
        const RefRow fresh = RandomRefRow(&rng);
        const int col = static_cast<int>(rng.NextBounded(4));
        ASSERT_TRUE(
            store.Update("T", {{kRefCol[col], RefCell(fresh, col)}}, where)
                .ok());
        if (!latest.alive[k]) continue;
        RefRow& row = latest.rows[k];
        switch (col) {
          case 0:
            row.a = fresh.a;
            break;
          case 1:
            row.b = fresh.b;
            break;
          case 2:
            row.d = fresh.d;
            break;
          default:
            row.s = fresh.s;
            break;
        }
      }
      // The writer's own pending inserts, updates and deletes.
      const TxnId writer = *store.Begin();
      RefView mine = latest;
      for (int i = 0; i < 130; ++i) {
        RefRow row = RandomRefRow(&rng);
        const int64_t k = kRows + i;
        ASSERT_TRUE(store
                        .Insert("T",
                                {Value(k), Value(row.a), Value(row.b),
                                 Value(row.d), Value(row.s)},
                                writer)
                        .ok());
        mine.rows.push_back(row);
        mine.alive.push_back(1);
        for (RefView* other : {&latest, &old}) {
          other->rows.push_back(row);
          other->alive.push_back(0);
        }
      }
      for (int i = 0; i < 40; ++i) {
        const int64_t k = rng.NextInRange(0, kRows - 1);
        const std::vector<AdaptiveStore::ColumnRange> where{
            {"k", RangeBounds::Equal(k)}};
        if (i % 2 == 0) {
          ASSERT_TRUE(store.Delete("T", where, writer).ok());
          mine.alive[k] = 0;
        } else {
          const RefRow fresh = RandomRefRow(&rng);
          ASSERT_TRUE(store.Update("T", {{"b", Value(fresh.b)}}, where, writer)
                          .ok());
          if (mine.alive[k]) mine.rows[k].b = fresh.b;
        }
      }

      struct Who {
        const char* name;
        TxnId txn;
        const RefView* view;
      };
      for (const Who& who : {Who{"latest", kNoTxn, &latest},
                             Who{"reader", reader, &old},
                             Who{"writer", writer, &mine}}) {
        SCOPED_TRACE(who.name);
        const RefView& view = *who.view;
        for (int q = 0; q < 25; ++q) {
          SCOPED_TRACE("query " + std::to_string(q));
          const int first = static_cast<int>(rng.NextBounded(4));
          const int ncols = 2 + static_cast<int>(rng.NextBounded(2));
          std::vector<RefConjunct> where;
          std::vector<AdaptiveStore::ColumnRange> ranges;
          std::string sql_where;
          for (int i = 0; i < ncols; ++i) {
            RefConjunct c = RandomRefConjunct(&rng, (first + i) % 4);
            where.push_back(c);
            TypedRange range =
                c.col == 3 ? TypedRange::Closed(Value(RefKey(c.lo)),
                                                Value(RefKey(c.hi)))
                           : TypedRange(RangeBounds::Closed(c.lo, c.hi));
            ranges.push_back({kRefCol[c.col], range});
            sql_where += (i == 0 ? " WHERE " : " AND ") + RefSql(c);
          }
          std::vector<size_t> hits;
          for (size_t i = 0; i < view.rows.size(); ++i) {
            bool match = view.alive[i] != 0;
            for (const RefConjunct& c : where) {
              match = match && RefMatches(view.rows[i], c);
            }
            if (match) hits.push_back(i);
          }
          std::vector<Oid> want_oids;
          for (size_t i : hits) want_oids.push_back(kBase + i);

          auto counted =
              store.SelectConjunction("T", ranges, Delivery::kCount, who.txn);
          ASSERT_TRUE(counted.ok()) << counted.status().ToString();
          EXPECT_EQ(counted->count, hits.size()) << sql_where;
          auto viewed =
              store.SelectConjunction("T", ranges, Delivery::kView, who.txn);
          ASSERT_TRUE(viewed.ok()) << viewed.status().ToString();
          EXPECT_EQ(viewed->count, hits.size()) << sql_where;
          EXPECT_EQ(std::move(*viewed).CollectOids(), want_oids) << sql_where;

          // A cross-column aggregate: the aggregated integer column is not
          // among the predicated ones whenever the WHERE leaves one out.
          const int agg_col = first == 1 || ncols == 3 ? 0 : 1;
          const char* const kAggs[] = {"SUM", "MIN", "MAX"};
          const int agg = static_cast<int>(rng.NextBounded(3));
          int64_t want = 0;
          for (size_t n = 0; n < hits.size(); ++n) {
            const RefRow& row = view.rows[hits[n]];
            const int64_t v = agg_col == 0 ? row.a : row.b;
            want = agg == 0   ? want + v
                   : n == 0   ? v
                   : agg == 1 ? std::min(want, v)
                              : std::max(want, v);
          }
          const std::string agg_sql = std::string("SELECT ") + kAggs[agg] +
                                      "(" + kRefCol[agg_col] + ") FROM T" +
                                      sql_where;
          auto agg_out =
              sql::Execute(&store, *sql::ParseStatement(agg_sql), who.txn);
          ASSERT_TRUE(agg_out.ok()) << agg_sql << ": "
                                    << agg_out.status().ToString();
          ASSERT_EQ(agg_out->groups.size(), 1u) << agg_sql;
          EXPECT_EQ(agg_out->groups[0].value, want) << agg_sql;

          // A projection of every value column, rows in oid order.
          const std::string proj_sql = "SELECT a, b, d, s FROM T" + sql_where;
          auto proj =
              sql::Execute(&store, *sql::ParseStatement(proj_sql), who.txn);
          ASSERT_TRUE(proj.ok()) << proj_sql << ": "
                                 << proj.status().ToString();
          ASSERT_EQ(proj->rows->num_rows(), hits.size()) << proj_sql;
          for (size_t r = 0; r < hits.size(); ++r) {
            const std::vector<Value> got = proj->rows->GetRow(r);
            const RefRow& row = view.rows[hits[r]];
            ASSERT_EQ(got[0].ToInt64(), row.a) << proj_sql << " row " << r;
            ASSERT_EQ(got[1].ToInt64(), row.b) << proj_sql << " row " << r;
            ASSERT_EQ(got[2].AsDouble(), row.d) << proj_sql << " row " << r;
            ASSERT_EQ(got[3].AsString(), row.s) << proj_sql << " row " << r;
          }
        }
      }
      ASSERT_TRUE(store.Rollback(writer).ok());
      ASSERT_TRUE(store.Commit(reader).ok());
    }
  }
}

}  // namespace
}  // namespace crackstore
