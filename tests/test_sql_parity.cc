// Copyright 2026 The CrackStore Authors
//
// Randomized SQL parity for the normalize -> select -> sink pipeline: seeded
// statement streams run through SqlSessions and every answer is compared
// with a row-model oracle. WHERE clauses stress normalization (half-open
// pairs, redundant and contradictory bounds, equal endpoints with mixed
// inclusivity, integer/double literal mixes that must not merge) over
// int32, int64, double and string columns; answers are delivered as
// COUNT(*), SUM/MIN/MAX of the predicated and of another column,
// projections, UPDATE and DELETE. Every strategy x crack policy runs the
// stream, with reads issued from inside a writer transaction (its own
// pending updates, deletes and inserts), from auto-commit, and from a
// long-lived reader whose snapshot predates later commits.
//
// Failures print the seed; rerun with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive_store.h"
#include "sql/executor.h"
#include "storage/relation.h"
#include "util/rng.h"

namespace crackstore {
namespace {

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// --- the row model -----------------------------------------------------------

constexpr int kCols = 4;
const char* const kColName[kCols] = {"i32", "i64", "f64", "s"};
enum Col { kI32 = 0, kI64 = 1, kF64 = 2, kStr = 3 };

struct Row {
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string s;
};

/// The rows one session can see: index = oid, dead rows kept in place so
/// oids stay aligned with the store's append-only base.
struct View {
  std::vector<Row> rows;
  std::vector<char> alive;
};

std::string Key(int64_t k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%03lld", static_cast<long long>(k));
  return buf;
}

/// One conjunct as generated: a typed range on one column. Each renders to
/// exactly one parsed predicate (a comparison or a BETWEEN).
struct Conjunct {
  int col = 0;
  TypedRange range;
};

/// Numeric endpoints mean what the store lowers them to (int64
/// truncation); string endpoints compare bytewise.
bool Matches(const Row& row, const Conjunct& c) {
  if (c.col == kStr) return c.range.Contains(std::string_view(row.s));
  RangeBounds b;
  if (!c.range.lo.is_null()) {
    b.lo = c.range.lo.is_double()
               ? static_cast<int64_t>(c.range.lo.AsDouble())
               : c.range.lo.ToInt64();
    b.lo_incl = c.range.lo_incl;
  }
  if (!c.range.hi.is_null()) {
    b.hi = c.range.hi.is_double()
               ? static_cast<int64_t>(c.range.hi.AsDouble())
               : c.range.hi.ToInt64();
    b.hi_incl = c.range.hi_incl;
  }
  if (c.col == kF64) {
    double lo = static_cast<double>(b.lo);
    double hi = static_cast<double>(b.hi);
    return !(b.lo_incl ? row.f64 < lo : row.f64 <= lo) &&
           !(b.hi_incl ? row.f64 > hi : row.f64 >= hi);
  }
  return b.Contains(c.col == kI32 ? row.i32 : row.i64);
}

bool MatchesAll(const Row& row, const std::vector<Conjunct>& where) {
  for (const Conjunct& c : where) {
    if (!Matches(row, c)) return false;
  }
  return true;
}

Value CellOf(const Row& row, int col) {
  switch (col) {
    case kI32:
      return Value(row.i32);
    case kI64:
      return Value(row.i64);
    case kF64:
      return Value(row.f64);
    default:
      return Value(row.s);
  }
}

bool SameCell(const Value& got, const Value& want) {
  if (want.is_string()) return got.is_string() && got.AsString() == want.AsString();
  if (want.is_double()) return got.is_double() && got.AsDouble() == want.AsDouble();
  return !got.is_string() && !got.is_double() &&
         got.ToInt64() == want.ToInt64();
}

// --- rendering ----------------------------------------------------------------

std::string Literal(const Value& v, bool display) {
  if (v.is_string()) return "'" + v.AsString() + "'";
  if (v.is_double()) {
    // The parser reads integers only; the parsed range is replaced by the
    // generated one, so the parse text only needs the statement's shape.
    char buf[32];
    if (display) {
      std::snprintf(buf, sizeof(buf), "%.2f", v.AsDouble());
    } else {
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(v.AsDouble()));
    }
    return buf;
  }
  return std::to_string(v.ToInt64());
}

std::string Render(const Conjunct& c, bool display) {
  const std::string name = kColName[c.col];
  const TypedRange& r = c.range;
  if (!r.unbounded_lo() && !r.unbounded_hi()) {  // generated closed
    return name + " BETWEEN " + Literal(r.lo, display) + " AND " +
           Literal(r.hi, display);
  }
  if (!r.unbounded_lo()) {
    return name + (r.lo_incl ? " >= " : " > ") + Literal(r.lo, display);
  }
  return name + (r.hi_incl ? " <= " : " < ") + Literal(r.hi, display);
}

std::string RenderWhere(const std::vector<Conjunct>& where, bool display) {
  std::string out;
  for (size_t i = 0; i < where.size(); ++i) {
    out += (i == 0 ? " WHERE " : " AND ") + Render(where[i], display);
  }
  return out;
}

// --- the generator --------------------------------------------------------------

constexpr int64_t kIntDomain = 400;
constexpr int64_t kKeyDomain = 60;

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Pcg32& rng() { return rng_; }

  int64_t Int() { return rng_.NextInRange(0, kIntDomain - 1); }

  Row RandomRow() {
    Row row;
    row.i32 = static_cast<int32_t>(Int());
    row.i64 = Int() * 3;
    row.f64 = static_cast<double>(rng_.NextInRange(0, 4 * kIntDomain)) / 4;
    row.s = Key(rng_.NextInRange(0, kKeyDomain - 1));
    return row;
  }

  /// An endpoint literal for `col` near `k` (in column units).
  Value Endpoint(int col, int64_t k, bool as_double) {
    if (col == kStr) {
      // Keys absent from the data ("k012x") fall between present ones.
      std::string key = Key(std::clamp<int64_t>(k, 0, kKeyDomain));
      if (rng_.NextBounded(4) == 0) key += "x";
      return Value(key);
    }
    int64_t scale = col == kI64 ? 3 : 1;
    if (as_double) {
      return Value(static_cast<double>(k * scale) +
                   0.25 * static_cast<double>(rng_.NextInRange(0, 3)));
    }
    return Value(k * scale);
  }

  int64_t Point(int col) {
    return col == kStr ? rng_.NextInRange(0, kKeyDomain)
                       : rng_.NextInRange(-2, kIntDomain + 2);
  }

  Conjunct Side(int col, bool lo, int64_t k, bool incl, bool as_double) {
    Conjunct c;
    c.col = col;
    Value v = Endpoint(col, k, as_double);
    if (lo) {
      c.range = incl ? TypedRange::AtLeast(v) : TypedRange::GreaterThan(v);
    } else {
      c.range = incl ? TypedRange::AtMost(v) : TypedRange::LessThan(v);
    }
    return c;
  }

  /// Appends 1-4 conjuncts on `col` in one of the normalization shapes.
  void ColumnConjuncts(int col, std::vector<Conjunct>* out) {
    const bool numeric = col != kStr;
    int64_t a = Point(col);
    int64_t b = a + rng_.NextInRange(0, col == kStr ? 20 : 120);
    switch (rng_.NextBounded(8)) {
      case 0:  // half-open pair
        out->push_back(Side(col, true, a, true, false));
        out->push_back(Side(col, false, b, false, false));
        break;
      case 1: {  // BETWEEN
        Conjunct c;
        c.col = col;
        c.range = TypedRange::Closed(Endpoint(col, a, false),
                                     Endpoint(col, b, false));
        out->push_back(c);
        break;
      }
      case 2:  // redundant bounds
        out->push_back(Side(col, true, a, false, false));
        out->push_back(Side(col, false, b, true, false));
        out->push_back(Side(col, true, a + 1, true, false));
        out->push_back(Side(col, false, b + 2, false, false));
        break;
      case 3:  // contradictory bounds
        out->push_back(Side(col, true, b + 1, true, false));
        out->push_back(Side(col, false, a, true, false));
        break;
      case 4:  // equal endpoints, mixed inclusivity
        out->push_back(Side(col, true, a, rng_.NextBounded(2) == 0, false));
        out->push_back(Side(col, false, a, rng_.NextBounded(2) == 0, false));
        break;
      case 5:  // integer/double mix: must not merge
        if (numeric) {
          bool lo_double = rng_.NextBounded(2) == 0;
          out->push_back(Side(col, true, a, rng_.NextBounded(2) == 0,
                              lo_double));
          out->push_back(Side(col, false, b, rng_.NextBounded(2) == 0,
                              !lo_double));
          out->push_back(Side(col, true, a + 1, true, !lo_double));
          break;
        }
        [[fallthrough]];
      case 6:  // double/double
        if (numeric) {
          out->push_back(Side(col, true, a, rng_.NextBounded(2) == 0, true));
          out->push_back(Side(col, true, a, rng_.NextBounded(2) == 0, true));
          out->push_back(Side(col, false, b, rng_.NextBounded(2) == 0, true));
          break;
        }
        [[fallthrough]];
      default: {  // one comparison or an equality
        if (rng_.NextBounded(3) == 0) {
          Conjunct c;
          c.col = col;
          c.range = TypedRange::Equal(Endpoint(col, a, false));
          out->push_back(c);
        } else {
          out->push_back(Side(col, rng_.NextBounded(2) == 0, a,
                              rng_.NextBounded(2) == 0, false));
        }
        break;
      }
    }
  }

  /// A WHERE clause over 1-3 distinct columns, conjuncts interleaved.
  std::vector<Conjunct> Where() {
    std::vector<Conjunct> where;
    int ncols = 1 + static_cast<int>(rng_.NextBounded(3));
    int first = static_cast<int>(rng_.NextBounded(kCols));
    for (int i = 0; i < ncols; ++i) {
      ColumnConjuncts((first + i) % kCols, &where);
    }
    for (size_t i = where.size(); i > 1; --i) {
      std::swap(where[i - 1], where[rng_.NextBounded(static_cast<uint32_t>(i))]);
    }
    return where;
  }

 private:
  Pcg32 rng_;
};

// --- the harness -------------------------------------------------------------------

struct Config {
  AccessStrategy strategy;
  CrackPolicy policy;
};

class ParityRun {
 public:
  ParityRun(const Config& config, uint64_t seed)
      : gen_(seed), label_(std::string(AccessStrategyName(config.strategy)) +
                           "/" + CrackPolicyName(config.policy) +
                           " seed=" + std::to_string(seed)) {
    DbOptions opts;
    opts.strategy = config.strategy;
    opts.policy.policy = config.policy;
    opts.policy.min_piece_size = 32;
    opts.policy.progressive_budget = 0.05;
    opts.track_lineage = false;
    store_ = *AdaptiveStore::Open(opts);
    auto rel = *Relation::Create(
        "t", Schema({{"i32", ValueType::kInt32},
                     {"i64", ValueType::kInt64},
                     {"f64", ValueType::kFloat64},
                     {"s", ValueType::kString}}));
    for (int i = 0; i < 1500; ++i) {
      Row row = gen_.RandomRow();
      CRACK_CHECK(rel->AppendRow({CellOf(row, 0), CellOf(row, 1),
                                  CellOf(row, 2), CellOf(row, 3)})
                      .ok());
      committed_.rows.push_back(row);
      committed_.alive.push_back(1);
    }
    CRACK_CHECK(store_->AddTable(rel).ok());
    writer_ = std::make_unique<sql::SqlSession>(store_.get());
    reader_ = std::make_unique<sql::SqlSession>(store_.get());
    auto_ = std::make_unique<sql::SqlSession>(store_.get());
  }

  /// Runs `steps` random statements; false (after reporting) on the first
  /// divergence.
  bool Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      if (!Step()) return false;
    }
    return true;
  }

 private:
  enum class Who { kAuto, kWriter, kReader };

  View* ViewOf(Who who) {
    switch (who) {
      case Who::kWriter:
        return &writer_view_;
      case Who::kReader:
        return &reader_view_;
      case Who::kAuto:
        break;
    }
    return &committed_;
  }

  sql::SqlSession* SessionOf(Who who) {
    switch (who) {
      case Who::kWriter:
        return writer_.get();
      case Who::kReader:
        return reader_.get();
      case Who::kAuto:
        break;
    }
    return auto_.get();
  }

  bool Fail(const std::string& what, const std::string& display) {
    ADD_FAILURE() << label_ << ": " << what << "\n  statement: " << display;
    return false;
  }

  /// Parses `text` and swaps in the generated ranges (which may carry
  /// double endpoints the parser cannot spell).
  sql::Statement Parse(const std::string& text,
                       const std::vector<Conjunct>& where) {
    sql::Statement stmt = *sql::ParseStatement(text);
    std::vector<sql::Predicate>* preds =
        stmt.kind == sql::StatementKind::kSelect ? &stmt.select.where
        : stmt.kind == sql::StatementKind::kDelete ? &stmt.del.where
                                                   : &stmt.update.where;
    CRACK_CHECK(preds->size() == where.size());
    for (size_t i = 0; i < where.size(); ++i) (*preds)[i].range = where[i].range;
    return stmt;
  }

  bool Control(const std::string& text, Who who) {
    auto out = SessionOf(who)->ExecuteSql(text);
    if (!out.ok()) return Fail(out.status().ToString(), text);
    return true;
  }

  bool Step() {
    Pcg32& rng = gen_.rng();
    // Transaction control.
    uint32_t roll = rng.NextBounded(100);
    if (roll < 5) {
      if (!writer_->in_txn()) {
        writer_view_ = committed_;
        return Control("BEGIN", Who::kWriter);
      }
      if (rng.NextBounded(2) == 0) {
        committed_ = writer_view_;
        return Control("COMMIT", Who::kWriter);
      }
      return Control("ROLLBACK", Who::kWriter);
    }
    if (roll < 8) {
      if (!reader_->in_txn()) {
        reader_view_ = committed_;
        return Control("BEGIN", Who::kReader);
      }
      return Control("COMMIT", Who::kReader);
    }
    if (roll < 9 && !writer_->in_txn() && !reader_->in_txn()) {
      return Control("VACUUM", Who::kAuto);
    }
    // DML runs in the writer transaction when one is open, else
    // auto-commit; reads pick any session.
    Who writer = writer_->in_txn() ? Who::kWriter : Who::kAuto;
    if (roll < 30) return Dml(writer);
    std::vector<Who> readers = {Who::kAuto};
    if (writer_->in_txn()) readers.push_back(Who::kWriter);
    if (reader_->in_txn()) readers.push_back(Who::kReader);
    return Read(readers[rng.NextBounded(static_cast<uint32_t>(readers.size()))]);
  }

  bool Read(Who who) {
    Pcg32& rng = gen_.rng();
    const View& view = *ViewOf(who);
    std::vector<Conjunct> where = gen_.Where();
    std::vector<size_t> hits;
    for (size_t oid = 0; oid < view.rows.size(); ++oid) {
      if (view.alive[oid] && MatchesAll(view.rows[oid], where)) {
        hits.push_back(oid);
      }
    }
    uint32_t shape = rng.NextBounded(3);
    std::string head;
    int agg_col = -1;
    const char* agg = nullptr;
    std::vector<int> proj;
    if (shape == 0) {
      head = "SELECT COUNT(*)";
    } else if (shape == 1) {
      // An integer column: the predicated one when it is integral, else
      // another.
      agg_col = where[0].col == kI32 || where[0].col == kI64
                    ? where[0].col
                    : static_cast<int>(rng.NextBounded(2));
      if (rng.NextBounded(2) == 0) agg_col = kI32 + kI64 - agg_col;
      const char* const kAggs[] = {"SUM", "MIN", "MAX"};
      agg = kAggs[rng.NextBounded(3)];
      head = std::string("SELECT ") + agg + "(" + kColName[agg_col] + ")";
    } else {
      int other = (where[0].col + 1 + static_cast<int>(rng.NextBounded(
                                           kCols - 1))) % kCols;
      proj = {where[0].col, other};
      head = std::string("SELECT ") + kColName[proj[0]] + ", " +
             kColName[proj[1]];
    }
    const std::string tail = " FROM t";
    const std::string display = head + tail + RenderWhere(where, true);
    sql::Statement stmt =
        Parse(head + tail + RenderWhere(where, false), where);
    auto out = SessionOf(who)->Execute(stmt);
    if (!out.ok()) return Fail(out.status().ToString(), display);

    if (shape == 0) {
      if (out->count != hits.size()) {
        return Fail("count " + std::to_string(out->count) + " want " +
                        std::to_string(hits.size()),
                    display);
      }
      return true;
    }
    if (shape == 1) {
      int64_t want = 0;
      bool first = true;
      for (size_t oid : hits) {
        const Row& row = view.rows[oid];
        int64_t v = agg_col == kI32 ? row.i32 : row.i64;
        if (agg[1] == 'U') {
          want += v;
        } else if (agg[1] == 'I') {
          want = first ? v : std::min(want, v);
        } else {
          want = first ? v : std::max(want, v);
        }
        first = false;
      }
      if (out->groups.size() != 1 || out->groups[0].value != want) {
        return Fail("aggregate " +
                        std::to_string(out->groups.empty()
                                           ? 0
                                           : out->groups[0].value) +
                        " want " + std::to_string(want),
                    display);
      }
      return true;
    }
    if (out->rows->num_rows() != hits.size()) {
      return Fail("rows " + std::to_string(out->rows->num_rows()) + " want " +
                      std::to_string(hits.size()),
                  display);
    }
    for (size_t r = 0; r < hits.size(); ++r) {
      std::vector<Value> got = out->rows->GetRow(r);
      for (size_t c = 0; c < proj.size(); ++c) {
        Value want = CellOf(view.rows[hits[r]], proj[c]);
        if (!SameCell(got[c], want)) {
          return Fail("row " + std::to_string(r) + " column " +
                          kColName[proj[c]] + ": " + got[c].ToString() +
                          " want " + want.ToString(),
                      display);
        }
      }
    }
    return true;
  }

  bool Dml(Who who) {
    Pcg32& rng = gen_.rng();
    View* view = ViewOf(who);
    uint32_t kind = rng.NextBounded(3);
    if (kind == 0) {
      Row row = gen_.RandomRow();
      row.f64 = static_cast<double>(static_cast<int64_t>(row.f64));
      const std::string text =
          "INSERT INTO t VALUES (" + std::to_string(row.i32) + ", " +
          std::to_string(row.i64) + ", " +
          std::to_string(static_cast<int64_t>(row.f64)) + ", '" + row.s +
          "')";
      auto out = SessionOf(who)->ExecuteSql(text);
      if (!out.ok()) return Fail(out.status().ToString(), text);
      // Every session's base grows by one physical row; only the inserting
      // view sees it.
      size_t oid = view->rows.size();
      for (View* v : {&committed_, &writer_view_, &reader_view_}) {
        if (v->rows.size() == oid) {
          v->rows.push_back(row);
          v->alive.push_back(v == view ? 1 : 0);
        }
      }
      return true;
    }
    std::vector<Conjunct> where = gen_.Where();
    std::vector<size_t> hits;
    for (size_t oid = 0; oid < view->rows.size(); ++oid) {
      if (view->alive[oid] && MatchesAll(view->rows[oid], where)) {
        hits.push_back(oid);
      }
    }
    std::string head;
    int set_col = static_cast<int>(rng.NextBounded(kCols));
    Row fresh = gen_.RandomRow();
    fresh.f64 = static_cast<double>(static_cast<int64_t>(fresh.f64));
    if (kind == 1) {
      Value lit = set_col == kF64
                      ? Value(static_cast<int64_t>(fresh.f64))
                      : CellOf(fresh, set_col);
      head = std::string("UPDATE t SET ") + kColName[set_col] + " = " +
             Literal(lit, true);
    } else {
      head = "DELETE FROM t";
    }
    const std::string display = head + RenderWhere(where, true);
    sql::Statement stmt = Parse(head + RenderWhere(where, false), where);
    auto out = SessionOf(who)->Execute(stmt);
    if (!out.ok()) return Fail(out.status().ToString(), display);
    if (out->count != hits.size()) {
      return Fail("affected " + std::to_string(out->count) + " want " +
                      std::to_string(hits.size()),
                  display);
    }
    for (size_t oid : hits) {
      if (kind == 2) {
        view->alive[oid] = 0;
        continue;
      }
      Row& row = view->rows[oid];
      switch (set_col) {
        case kI32:
          row.i32 = fresh.i32;
          break;
        case kI64:
          row.i64 = fresh.i64;
          break;
        case kF64:
          row.f64 = fresh.f64;
          break;
        default:
          row.s = fresh.s;
          break;
      }
    }
    return true;
  }

  Generator gen_;
  std::string label_;
  std::unique_ptr<AdaptiveStore> store_;
  std::unique_ptr<sql::SqlSession> writer_;
  std::unique_ptr<sql::SqlSession> reader_;
  std::unique_ptr<sql::SqlSession> auto_;
  View committed_;
  View writer_view_;
  View reader_view_;
};

TEST(SqlParity, StrategiesTimesPoliciesMatchRowModel) {
  const uint64_t seed = TestSeed(20261017);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  for (AccessStrategy strategy :
       {AccessStrategy::kCrack, AccessStrategy::kSort,
        AccessStrategy::kScan}) {
    for (CrackPolicy policy :
         {CrackPolicy::kStandard, CrackPolicy::kStochastic,
          CrackPolicy::kCoarse, CrackPolicy::kAuto,
          CrackPolicy::kProgressive}) {
      ParityRun run({strategy, policy}, seed);
      if (!run.Run(300)) return;
    }
  }
}

// The normalizer leaves an integer/double mix unmerged, so the double
// conjunct is probed per row — and a conjunct whose literal cannot apply to
// its column still fails the statement, even though it never reaches an
// access path.
TEST(SqlParity, UnmergedConjunctsAreProbedAndTypeChecked) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create(
      "t", Schema({{"v", ValueType::kInt64}, {"s", ValueType::kString}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i), Value(Key(i % 10))}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());

  sql::Statement mixed =
      *sql::ParseStatement("SELECT COUNT(*) FROM t WHERE v >= 10 AND v < 0");
  mixed.select.where[1].range = TypedRange::LessThan(Value(20.5));
  auto count = sql::Execute(&store, mixed);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->count, 10u);  // 20.5 lowers to 20: v in [10, 20)
  EXPECT_EQ(*store.NumPieces("t", "v"), 2u) << "v was cracked twice";

  auto bad = sql::ExecuteSql(&store,
                             "SELECT COUNT(*) FROM t WHERE s >= 'k3' AND s < 5");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsTypeMismatch()) << bad.status().ToString();
  auto bad_numeric = sql::ExecuteSql(
      &store, "SELECT COUNT(*) FROM t WHERE v >= 3 AND v < 'k5'");
  ASSERT_FALSE(bad_numeric.ok());
  EXPECT_TRUE(bad_numeric.status().IsTypeMismatch());
}

}  // namespace
}  // namespace crackstore
