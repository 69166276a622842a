// Copyright 2026 The CrackStore Authors

#include "stream.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/rng.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

namespace crackbench {

using crackstore::Pcg32;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kZoom:
      return "zoom";
    case Workload::kMultiAttr:
      return "multi_attr";
    case Workload::kHtap:
      return "htap";
    case Workload::kConcurrent:
      return "concurrent";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kZoom, Workload::kMultiAttr, Workload::kHtap,
                     Workload::kConcurrent}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* KindName(Kind k) {
  static const char* const kNames[] = {
      "count",          "agg",           "project", "conj_count",
      "conj_project",   "cross_sum",     "halfopen_count",
      "halfopen_sum",   "total",         "begin",   "insert",
      "update",         "delete",        "commit"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                    static_cast<size_t>(Kind::kNumKinds),
                "one name per kind");
  return kNames[static_cast<size_t>(k)];
}

Config DefaultConfig(Workload w, uint64_t seed, bool smoke) {
  Config c;
  c.workload = w;
  c.seed = seed;
  switch (w) {
    case Workload::kZoom:
      c.rows = smoke ? 20000 : 4000000;
      c.ops = smoke ? 80 : 800;
      c.probe_txns = smoke ? 20 : 200;
      break;
    case Workload::kMultiAttr:
      c.rows = smoke ? 20000 : 500000;
      c.ops = smoke ? 60 : 120;
      c.probe_txns = smoke ? 20 : 200;
      break;
    case Workload::kHtap:
      c.rows = smoke ? 20000 : 1000000;
      c.ops = smoke ? 80 : 1600;
      c.durable = true;
      break;
    case Workload::kConcurrent:
      c.rows = smoke ? 20000 : 1000000;
      c.ops = smoke ? 60 : 3000;
      c.clients = 3;
      c.concurrent = true;
      break;
  }
  return c;
}

Data GenerateData(const Config& config) {
  Data data;
  data.cols.resize(4);
  for (size_t c = 0; c < 4; ++c) {
    // The tapestry generator of the paper's §4: each column a permutation
    // of 1..N.
    std::shared_ptr<crackstore::Bat> bat = crackstore::BuildPermutationColumn(
        config.rows, config.seed * 4 + c);
    data.cols[c].resize(config.rows);
    std::memcpy(data.cols[c].data(), bat->raw_data(),
                config.rows * sizeof(int64_t));
  }
  return data;
}

namespace {

std::string Col(int c) { return "c" + std::to_string(c); }

std::string Between(int c, int64_t lo, int64_t hi) {
  return Col(c) + " BETWEEN " + std::to_string(lo) + " AND " +
         std::to_string(hi);
}

/// A window of `width` values placed uniformly inside [1, n].
std::pair<int64_t, int64_t> Window(Pcg32* rng, int64_t n, int64_t width) {
  width = std::clamp<int64_t>(width, 1, n);
  int64_t lo = rng->NextInRange(1, n - width + 1);
  return {lo, lo + width - 1};
}

Op ReadOp(Statement s) {
  Op op;
  op.stmts.push_back(std::move(s));
  return op;
}

/// The reference model for workloads answered by scanning: the current
/// rows, their liveness, and (c0 being unique) the row of every c0 key.
class RowModel {
 public:
  explicit RowModel(const Data& data) : cols_(data.cols) {
    alive_.assign(data.rows(), 1);
    for (size_t r = 0; r < data.rows(); ++r) {
      SetKey(cols_[0][r], r);
    }
  }

  /// COUNT/SUM/MIN/MAX/projection over the live rows matching every
  /// predicate `where` (column, inclusive lo, inclusive hi).
  struct Pred {
    int col;
    int64_t lo;
    int64_t hi;
  };
  void Eval(const std::vector<Pred>& where, Kind kind, int agg_col,
            const char* agg, const std::vector<int>& proj,
            Statement* out) const {
    uint64_t count = 0;
    int64_t sum = 0, mn = 0, mx = 0;
    uint64_t checksum = 0;
    int64_t row_vals[4];
    const Pred& p0 = where[0];
    const int64_t* first = cols_[p0.col].data();
    const uint64_t width = static_cast<uint64_t>(p0.hi - p0.lo);
    std::vector<size_t> hits;  // rows matching the first predicate
    for (size_t r = 0; r < alive_.size(); ++r) {
      if (static_cast<uint64_t>(first[r] - p0.lo) <= width) hits.push_back(r);
    }
    for (size_t r : hits) {
      if (!alive_[r]) continue;
      bool match = true;
      for (size_t i = 1; i < where.size() && match; ++i) {
        int64_t v = cols_[where[i].col][r];
        match = v >= where[i].lo && v <= where[i].hi;
      }
      if (!match) continue;
      if (agg_col >= 0) {
        int64_t v = cols_[agg_col][r];
        sum += v;
        mn = count == 0 ? v : std::min(mn, v);
        mx = count == 0 ? v : std::max(mx, v);
      }
      if (!proj.empty()) {
        for (size_t i = 0; i < proj.size(); ++i) {
          row_vals[i] = cols_[proj[i]][r];
        }
        checksum += RowChecksum(row_vals, proj.size());
      }
      ++count;
    }
    out->kind = kind;
    out->has_value = agg_col >= 0 || !proj.empty();
    if (agg_col >= 0) {
      out->count = 1;
      out->value = std::strcmp(agg, "SUM") == 0   ? sum
                   : std::strcmp(agg, "MIN") == 0 ? mn
                                                  : mx;
    } else {
      out->count = count;
      out->value = static_cast<int64_t>(checksum);
    }
  }

  /// Rows whose (unique) c0 key lies in [lo, hi] and are live.
  std::vector<size_t> LiveRowsByKey(int64_t lo, int64_t hi) const {
    std::vector<size_t> rows;
    for (int64_t k = lo; k <= hi; ++k) {
      if (k < 0 || static_cast<size_t>(k) >= row_of_key_.size()) continue;
      int64_t r = row_of_key_[static_cast<size_t>(k)];
      if (r >= 0 && alive_[static_cast<size_t>(r)]) {
        rows.push_back(static_cast<size_t>(r));
      }
    }
    return rows;
  }

  void Insert(const int64_t (&values)[4]) {
    for (int c = 0; c < 4; ++c) cols_[c].push_back(values[c]);
    alive_.push_back(1);
    SetKey(values[0], alive_.size() - 1);
  }
  void Set(size_t row, int col, int64_t v) { cols_[col][row] = v; }
  void Kill(size_t row) { alive_[row] = 0; }

  uint64_t LiveCount() const {
    return static_cast<uint64_t>(std::count(alive_.begin(), alive_.end(), 1));
  }
  int64_t LiveSum(int col) const {
    int64_t s = 0;
    for (size_t r = 0; r < alive_.size(); ++r) {
      if (alive_[r]) s += cols_[col][r];
    }
    return s;
  }

 private:
  void SetKey(int64_t key, size_t row) {
    size_t k = static_cast<size_t>(key);
    if (k >= row_of_key_.size()) row_of_key_.resize(k + 1, -1);
    row_of_key_[k] = static_cast<int64_t>(row);
  }

  std::vector<std::vector<int64_t>> cols_;
  std::vector<uint8_t> alive_;
  std::vector<int64_t> row_of_key_;
};

const char* const kAggs[] = {"SUM", "MIN", "MAX"};

/// Closed-form answers over a table whose columns are permutations of
/// 1..N, for single-column windows inside [1, N].
Statement ClosedFormRead(Kind kind, int col, int64_t lo, int64_t hi,
                         const char* agg) {
  Statement s;
  s.kind = kind;
  std::string where = " FROM R WHERE " + Between(col, lo, hi);
  if (kind == Kind::kCount) {
    s.sql = "SELECT COUNT(*)" + where;
    s.count = static_cast<uint64_t>(hi - lo + 1);
  } else {
    s.sql = std::string("SELECT ") + agg + "(" + Col(col) + ")" + where;
    s.count = 1;
    s.has_value = true;
    s.value = std::strcmp(agg, "SUM") == 0   ? (lo + hi) * (hi - lo + 1) / 2
              : std::strcmp(agg, "MIN") == 0 ? lo
                                             : hi;
  }
  return s;
}

/// Inverse permutation: inv[v] = row holding value v in `col`.
std::vector<uint32_t> Inverse(const std::vector<int64_t>& col) {
  std::vector<uint32_t> inv(col.size() + 1, 0);
  for (size_t r = 0; r < col.size(); ++r) {
    inv[static_cast<size_t>(col[r])] = static_cast<uint32_t>(r);
  }
  return inv;
}

/// SELECT c<a>, c<b> FROM R WHERE c<pred> BETWEEN lo AND hi, answered
/// through the inverse permutation of the (never updated) predicate column.
Statement ClosedFormProject(const Data& data, const std::vector<uint32_t>& inv,
                            int pred, int a, int b, int64_t lo, int64_t hi) {
  Statement s;
  s.kind = Kind::kProject;
  s.sql = "SELECT " + Col(a) + ", " + Col(b) + " FROM R WHERE " +
          Between(pred, lo, hi);
  uint64_t checksum = 0;
  for (int64_t v = lo; v <= hi; ++v) {
    size_t r = inv[static_cast<size_t>(v)];
    int64_t row[2] = {data.cols[a][r], data.cols[b][r]};
    checksum += RowChecksum(row, 2);
  }
  s.count = static_cast<uint64_t>(hi - lo + 1);
  s.value = static_cast<int64_t>(checksum);
  s.has_value = true;
  return s;
}

Statement Txn(Kind kind) {
  Statement s;
  s.kind = kind;
  s.sql = kind == Kind::kBegin ? "BEGIN" : "COMMIT";
  return s;
}

/// The write probe of the read-only workloads: single-row UPDATE
/// transactions on c1 keyed by c0 (never updated, so always one row),
/// then a whole-column SUM that must reflect every update.
void AddProbe(const Config& config, const Data& data, Pcg32* rng,
              Stream* stream) {
  if (config.probe_txns == 0) return;
  const int64_t n = static_cast<int64_t>(config.rows);
  std::vector<uint32_t> inv0 = Inverse(data.cols[0]);
  std::unordered_map<size_t, int64_t> c1;  // updated rows' current c1
  int64_t sum = n * (n + 1) / 2;
  for (size_t i = 0; i < config.probe_txns; ++i) {
    int64_t key = rng->NextInRange(1, n);
    int64_t v = rng->NextInRange(1, n);
    size_t row = inv0[static_cast<size_t>(key)];
    auto it = c1.find(row);
    int64_t old = it != c1.end() ? it->second : data.cols[1][row];
    sum += v - old;
    c1[row] = v;
    Op op;
    op.write = true;
    op.stmts.push_back(Txn(Kind::kBegin));
    Statement u;
    u.kind = Kind::kUpdate;
    u.sql = "UPDATE R SET c1 = " + std::to_string(v) + " WHERE c0 = " +
            std::to_string(key);
    u.count = 1;
    op.stmts.push_back(std::move(u));
    op.stmts.push_back(Txn(Kind::kCommit));
    stream->probe.push_back(std::move(op));
  }
  Statement total;
  total.kind = Kind::kTotal;
  total.sql = "SELECT SUM(c1) FROM R";
  total.count = 1;
  total.value = sum;
  total.has_value = true;
  stream->final_checks.push_back(total);
}

Statement TotalCount(uint64_t rows) {
  Statement s;
  s.kind = Kind::kTotal;
  s.sql = "SELECT COUNT(*) FROM R";
  s.count = rows;
  return s;
}

/// `total` split in proportion to `weights`, summing to exactly `total`.
std::vector<size_t> Split(size_t total, const std::vector<size_t>& weights) {
  size_t sum = 0;
  for (size_t w : weights) sum += w;
  std::vector<size_t> counts;
  size_t given = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    counts.push_back(i + 1 == weights.size() ? total - given
                                             : total * weights[i] / sum);
    given += counts.back();
  }
  return counts;
}

constexpr size_t kQuarters = 4;

/// Shapes 0..weights.size()-1 in exact shares per quarter of `total`: each
/// quarter holds Split(total / 4, weights) of them, shuffled. Every seed,
/// and every quarter of a stream, gets the same mix, so seeds differ in
/// positions, not in composition.
std::vector<uint32_t> Deck(Pcg32* rng, size_t total,
                           const std::vector<size_t>& weights) {
  std::vector<uint32_t> deck;
  for (size_t q = 0; q < kQuarters; ++q) {
    size_t part = total / kQuarters + (q < total % kQuarters ? 1 : 0);
    std::vector<size_t> counts = Split(part, weights);
    std::vector<uint32_t> quarter;
    for (size_t i = 0; i < counts.size(); ++i) {
      quarter.insert(quarter.end(), counts[i], static_cast<uint32_t>(i));
    }
    crackstore::Shuffle(&quarter, rng);
    deck.insert(deck.end(), quarter.begin(), quarter.end());
  }
  return deck;
}

/// How many of shape `shape` one quarter of a `total`-long deck holds.
size_t PerQuarter(size_t total, const std::vector<size_t>& weights,
                  size_t shape) {
  return Split(total / kQuarters, weights)[shape];
}

/// Fractions in [lo, hi) by stratified sampling: every `strata` draws
/// cover each of `strata` equal slices once, so the spread of window sizes
/// is the same for every seed and, sized per quarter, every quarter.
class Strata {
 public:
  Strata(Pcg32* rng, size_t strata, double lo, double hi)
      : rng_(rng), lo_(lo), hi_(hi) {
    for (size_t j = 0; j < std::max<size_t>(strata, 1); ++j) {
      order_.push_back(j);
    }
    crackstore::Shuffle(&order_, rng_);
  }
  double Next() {
    size_t j = order_[next_++ % order_.size()];
    return lo_ + (hi_ - lo_) * (static_cast<double>(j) + rng_->NextDouble()) /
                     static_cast<double>(order_.size());
  }
  /// A copy that walks the same slice order over [lo, hi): draw i of both
  /// falls in slice j, so paired draws form the same pairs of slices for
  /// every seed. hi < lo mirrors the pairing.
  Strata Over(double lo, double hi) const {
    Strata copy = *this;
    copy.lo_ = lo;
    copy.hi_ = hi;
    return copy;
  }
  /// A window of Next() * n values inside [1, n].
  std::pair<int64_t, int64_t> Window(int64_t n) {
    return crackbench::Window(rng_, n, static_cast<int64_t>(Next() * n));
  }

 private:
  Pcg32* rng_;
  double lo_, hi_;
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// --- zoom: MQS homerun and strolling-converge sequences (§4) ----------------
//
// Sequences cycle through every (profile, target selectivity, contraction
// model) combination in a fixed order, alternating the cracked column;
// the seed moves the windows. Shapes follow the query's position in its
// sequence: COUNT(*), then SUM, MIN, MAX of the predicated column, with a
// projection in every third slot once the window is at most 0.1%.

void GenerateZoom(const Config& config, const Data& data, Stream* stream) {
  Pcg32 rng(config.seed ^ 0x200A);
  const int64_t n = static_cast<int64_t>(config.rows);
  std::vector<uint32_t> inv[2] = {Inverse(data.cols[0]),
                                  Inverse(data.cols[1])};
  static const double kTargets[] = {0.0005, 0.001, 0.005, 0.01};
  static const crackstore::Profile kProfiles[] = {
      crackstore::Profile::kHomerun, crackstore::Profile::kStrollingConverge};
  std::vector<Op>& ops = stream->sessions[0];
  for (size_t seq = 0; ops.size() < config.ops; ++seq) {
    crackstore::MqsSpec spec;
    spec.num_rows = config.rows;
    spec.sequence_length = 25;
    spec.profile = kProfiles[seq % 2];
    spec.target_selectivity = kTargets[(seq / 2) % 4];
    spec.rho = static_cast<crackstore::ContractionModel>((seq / 8) % 3);
    spec.seed = rng.NextU64();
    const int col = static_cast<int>(seq % 2 == (seq / 2) % 2);
    size_t slot = 0;
    auto queries = crackstore::GenerateSequence(spec);
    for (const crackstore::RangeQuery& q : *queries) {
      if (ops.size() == config.ops) break;
      int64_t lo = std::max<int64_t>(1, q.lo), hi = std::min(n, q.hi);
      bool small = (hi - lo + 1) * 1000 <= n;
      size_t k = slot++;
      if (small && k % 3 == 2) {
        ops.push_back(ReadOp(ClosedFormProject(data, inv[col], col, 0, 1, lo,
                                               hi)));
      } else if (k % 4 == 0) {
        ops.push_back(ReadOp(ClosedFormRead(Kind::kCount, col, lo, hi, "")));
      } else {
        ops.push_back(
            ReadOp(ClosedFormRead(Kind::kAgg, col, lo, hi, kAggs[k % 4 - 1])));
      }
    }
  }
  AddProbe(config, data, &rng, stream);
  stream->final_checks.push_back(TotalCount(config.rows));
}

// --- multi_attr: conjunctions, cross-column SUM, half-open pairs ------------

void GenerateMultiAttr(const Config& config, const Data& data,
                       Stream* stream) {
  Pcg32 rng(config.seed ^ 0x3A77);
  const int64_t n = static_cast<int64_t>(config.rows);
  RowModel model(data);
  using Pred = RowModel::Pred;
  enum { kConjCountS, kConjProjectS, kCrossSumS, kHalfCountS, kHalfSumS };
  const std::vector<size_t> weights = {2, 2, 3, 1, 1};
  std::vector<uint32_t> deck = Deck(&rng, config.ops, weights);
  auto quarter = [&](size_t shape) {
    return PerQuarter(config.ops, weights, shape);
  };
  size_t conj = quarter(kConjCountS) + quarter(kConjProjectS);
  // The cost of a conjunction follows the sizes of both legs; pairing the
  // legs' slices (narrowest with widest) keeps that cost's spread the same
  // for every seed.
  Strata narrow(&rng, conj, 0.001, 0.10);
  Strata wide = narrow.Over(0.50, 0.05);
  Strata cross(&rng, quarter(kCrossSumS), 0.001, 0.10);
  Strata half(&rng, quarter(kHalfCountS) + quarter(kHalfSumS), 0.01, 0.30);
  for (size_t i = 0; i < config.ops; ++i) {
    int a = static_cast<int>(i % 4);
    int b = static_cast<int>((i / 4 + 1 + i) % 4);
    if (b == a) b = (a + 1) % 4;
    Statement s;
    switch (deck[i]) {
      case kConjCountS:
      case kConjProjectS: {  // one narrow leg, one wide leg
        auto [alo, ahi] = narrow.Window(n);
        auto [blo, bhi] = wide.Window(n);
        std::string where =
            " FROM R WHERE " + Between(a, alo, ahi) + " AND " +
            Between(b, blo, bhi);
        std::vector<Pred> preds = {{a, alo, ahi}, {b, blo, bhi}};
        if (deck[i] == kConjCountS) {
          model.Eval(preds, Kind::kConjCount, -1, "", {}, &s);
          s.sql = "SELECT COUNT(*)" + where;
        } else {
          model.Eval(preds, Kind::kConjProject, -1, "", {a, b}, &s);
          s.sql = "SELECT " + Col(a) + ", " + Col(b) + where;
        }
        break;
      }
      case kCrossSumS: {  // SUM of a column other than the predicated one
        auto [lo, hi] = cross.Window(n);
        model.Eval({{a, lo, hi}}, Kind::kCrossSum, b, "SUM", {}, &s);
        s.sql = "SELECT SUM(" + Col(b) + ") FROM R WHERE " + Between(a, lo, hi);
        break;
      }
      default: {  // same-column half-open pair
        auto [lo, hi] = half.Window(n);
        std::string where = " FROM R WHERE " + Col(a) + " >= " +
                            std::to_string(lo) + " AND " + Col(a) + " < " +
                            std::to_string(hi + 1);
        if (deck[i] == kHalfCountS) {
          model.Eval({{a, lo, hi}}, Kind::kHalfOpenCount, -1, "", {}, &s);
          s.sql = "SELECT COUNT(*)" + where;
        } else {
          model.Eval({{a, lo, hi}}, Kind::kHalfOpenSum, a, "SUM", {}, &s);
          s.sql = "SELECT SUM(" + Col(a) + ")" + where;
        }
        break;
      }
    }
    stream->sessions[0].push_back(ReadOp(std::move(s)));
  }
  AddProbe(config, data, &rng, stream);
  stream->final_checks.push_back(TotalCount(config.rows));
}

// --- htap: single-column reads beside small write transactions --------------

void GenerateHtap(const Config& config, const Data& data, Stream* stream) {
  Pcg32 rng(config.seed ^ 0x47A9);
  const int64_t n = static_cast<int64_t>(config.rows);
  RowModel model(data);
  int64_t next_key = n + 1;  // inserted rows get fresh c0 keys above N
  // 60% reads in three equal shapes, 40% transactions of 1-4 statements.
  enum { kCountS, kAggS, kProjectS, kTxnS };
  const std::vector<size_t> weights = {2, 2, 2, 4};
  std::vector<uint32_t> deck = Deck(&rng, config.ops, weights);
  std::vector<uint32_t> sizes = Deck(
      &rng, static_cast<size_t>(std::count(deck.begin(), deck.end(), kTxnS)),
      {1, 1, 1, 1});
  Strata range(&rng,
               PerQuarter(config.ops, weights, kCountS) +
                   PerQuarter(config.ops, weights, kAggS),
               0.001, 0.05);
  Strata small(&rng, PerQuarter(config.ops, weights, kProjectS), 0.0001,
               0.001);
  size_t reads = 0, txns = 0, dmls = 0;
  for (size_t i = 0; i < config.ops; ++i) {
    Op op;
    if (deck[i] != kTxnS) {
      int c = static_cast<int>(reads++ % 4);
      Statement s;
      if (deck[i] == kCountS) {
        auto [lo, hi] = range.Window(n);
        model.Eval({{c, lo, hi}}, Kind::kCount, -1, "", {}, &s);
        s.sql = "SELECT COUNT(*) FROM R WHERE " + Between(c, lo, hi);
      } else if (deck[i] == kAggS) {
        auto [lo, hi] = range.Window(n);
        const char* agg = kAggs[reads % 3];
        model.Eval({{c, lo, hi}}, Kind::kAgg, c, agg, {}, &s);
        s.sql = std::string("SELECT ") + agg + "(" + Col(c) +
                ") FROM R WHERE " + Between(c, lo, hi);
      } else {
        int other = c == 0 ? 1 : 0;
        auto [lo, hi] = small.Window(n);
        model.Eval({{c, lo, hi}}, Kind::kProject, -1, "", {other, c}, &s);
        s.sql = "SELECT " + Col(other) + ", " + Col(c) + " FROM R WHERE " +
                Between(c, lo, hi);
      }
      op.stmts.push_back(std::move(s));
    } else {
      op.write = true;
      op.stmts.push_back(Txn(Kind::kBegin));
      size_t dml = 1 + sizes[txns++];
      for (size_t d = 0; d < dml; ++d) {
        Statement s;
        size_t what = dmls++ % 3;
        if (what == 0) {
          int64_t row[4] = {next_key++, rng.NextInRange(1, n),
                            rng.NextInRange(1, n), rng.NextInRange(1, n)};
          model.Insert(row);
          s.kind = Kind::kInsert;
          s.sql = "INSERT INTO R VALUES (" + std::to_string(row[0]) + ", " +
                  std::to_string(row[1]) + ", " + std::to_string(row[2]) +
                  ", " + std::to_string(row[3]) + ")";
          s.count = 1;
        } else {
          int64_t key = rng.NextInRange(1, next_key - 1);
          bool pair = dmls % 2 == 0;
          std::string where =
              pair ? " WHERE " + Between(0, key, key + 1)
                   : " WHERE c0 = " + std::to_string(key);
          std::vector<size_t> rows =
              model.LiveRowsByKey(key, pair ? key + 1 : key);
          s.count = rows.size();
          if (what == 1) {
            int c = 1 + static_cast<int>(dmls % 3);
            int64_t v = rng.NextInRange(1, n);
            for (size_t r : rows) model.Set(r, c, v);
            s.kind = Kind::kUpdate;
            s.sql =
                "UPDATE R SET " + Col(c) + " = " + std::to_string(v) + where;
          } else {
            for (size_t r : rows) model.Kill(r);
            s.kind = Kind::kDelete;
            s.sql = "DELETE FROM R" + where;
          }
        }
        op.stmts.push_back(std::move(s));
      }
      op.stmts.push_back(Txn(Kind::kCommit));
    }
    stream->sessions[0].push_back(std::move(op));
  }
  stream->final_checks.push_back(TotalCount(model.LiveCount()));
  for (int c = 0; c < 4; ++c) {
    Statement s;
    s.kind = Kind::kTotal;
    s.sql = "SELECT SUM(" + Col(c) + ") FROM R";
    s.count = 1;
    s.value = model.LiveSum(c);
    s.has_value = true;
    stream->final_checks.push_back(s);
  }
}

// --- concurrent: three sessions, each writing only inside its own band ------
//
// Session s owns the rows whose c0 lies in its band of [1, N] and the fresh
// c0 keys it inserts (a reserved range above N). Writes never touch c1 or
// c2 of the original rows, and inserted rows carry c1/c2 values above N,
// so every read over [1, N] of c1 or c2 has a closed-form answer whatever
// the interleaving, and the final state of each band depends only on its
// own session.

void GenerateConcurrent(const Config& config, const Data& data,
                        Stream* stream) {
  const int64_t n = static_cast<int64_t>(config.rows);
  std::vector<uint32_t> inv0 = Inverse(data.cols[0]);
  std::vector<uint32_t> inv1 = Inverse(data.cols[1]);
  const int64_t band = n / static_cast<int64_t>(config.clients);
  uint64_t live_total = config.rows;
  enum { kCountS, kAggS, kProjectS, kTxnS };
  for (size_t s = 0; s < config.clients; ++s) {
    Pcg32 rng(config.seed ^ (0xC0C0 + s));
    const int64_t band_lo = 1 + static_cast<int64_t>(s) * band;
    const int64_t band_hi =
        s + 1 == config.clients ? n : band_lo + band - 1;
    const int64_t key_base =
        n + 1 + static_cast<int64_t>(s * config.ops * 4);
    int64_t next_key = key_base;
    std::vector<int64_t> inserted;  // own live inserted keys
    std::unordered_map<int64_t, int64_t> c3;  // own band's updated c3
    int64_t band_c3 = 0;
    for (int64_t k = band_lo; k <= band_hi; ++k) {
      band_c3 += data.cols[3][inv0[static_cast<size_t>(k)]];
    }
    // 90% reads in three equal shapes, 10% transactions of 1-3 statements.
    const std::vector<size_t> weights = {3, 3, 3, 1};
    std::vector<uint32_t> deck = Deck(&rng, config.ops, weights);
    std::vector<uint32_t> sizes = Deck(
        &rng, static_cast<size_t>(std::count(deck.begin(), deck.end(), kTxnS)),
        {1, 1, 1});
    Strata range(&rng,
                 PerQuarter(config.ops, weights, kCountS) +
                     PerQuarter(config.ops, weights, kAggS),
                 0.0001, 0.01);
    Strata small(&rng, PerQuarter(config.ops, weights, kProjectS), 0.0001,
                 0.001);
    size_t reads = 0, txns = 0, dmls = 0;
    std::vector<Op>& ops = stream->sessions[s];
    for (size_t i = 0; i < config.ops; ++i) {
      Op op;
      if (deck[i] == kCountS) {
        auto [lo, hi] = range.Window(n);
        op = ReadOp(ClosedFormRead(Kind::kCount, 1, lo, hi, ""));
      } else if (deck[i] == kAggS) {
        auto [lo, hi] = range.Window(n);
        op = ReadOp(ClosedFormRead(Kind::kAgg, 2, lo, hi, kAggs[reads++ % 3]));
      } else if (deck[i] == kProjectS) {
        auto [lo, hi] = small.Window(n);
        op = ReadOp(ClosedFormProject(data, inv1, 1, 1, 2, lo, hi));
      } else {
        op.write = true;
        op.stmts.push_back(Txn(Kind::kBegin));
        size_t dml = 1 + sizes[txns++];
        for (size_t d = 0; d < dml; ++d) {
          Statement st;
          st.count = 1;
          size_t what = dmls++ % 3;
          if (what == 2 && inserted.empty()) what = 1;
          if (what == 0) {
            // The key doubles as c1 and c2: above N, outside every read.
            int64_t key = next_key++;
            st.kind = Kind::kInsert;
            st.sql = "INSERT INTO R VALUES (" + std::to_string(key) + ", " +
                     std::to_string(key) + ", " + std::to_string(key) + ", " +
                     std::to_string(rng.NextInRange(1, n)) + ")";
            inserted.push_back(key);
          } else if (what == 1) {
            int64_t key = rng.NextInRange(band_lo, band_hi);
            int64_t v = rng.NextInRange(1, n);
            auto it = c3.find(key);
            int64_t old = it != c3.end()
                              ? it->second
                              : data.cols[3][inv0[static_cast<size_t>(key)]];
            band_c3 += v - old;
            c3[key] = v;
            st.kind = Kind::kUpdate;
            st.sql = "UPDATE R SET c3 = " + std::to_string(v) +
                     " WHERE c0 = " + std::to_string(key);
          } else {
            size_t pick =
                rng.NextBounded(static_cast<uint32_t>(inserted.size()));
            int64_t key = inserted[pick];
            inserted[pick] = inserted.back();
            inserted.pop_back();
            st.kind = Kind::kDelete;
            st.sql = "DELETE FROM R WHERE c0 = " + std::to_string(key);
          }
          op.stmts.push_back(std::move(st));
        }
        op.stmts.push_back(Txn(Kind::kCommit));
      }
      ops.push_back(std::move(op));
    }
    live_total += inserted.size();
    // Final state of the band: its rows, their c3 sum, its live inserts.
    Statement rows;
    rows.kind = Kind::kTotal;
    rows.sql = "SELECT COUNT(*) FROM R WHERE " + Between(0, band_lo, band_hi);
    rows.count = static_cast<uint64_t>(band_hi - band_lo + 1);
    stream->final_checks.push_back(rows);
    Statement sum;
    sum.kind = Kind::kTotal;
    sum.sql = "SELECT SUM(c3) FROM R WHERE " + Between(0, band_lo, band_hi);
    sum.count = 1;
    sum.value = band_c3;
    sum.has_value = true;
    stream->final_checks.push_back(sum);
    Statement ins;
    ins.kind = Kind::kTotal;
    ins.sql = "SELECT COUNT(*) FROM R WHERE " +
              Between(0, key_base,
                      key_base + static_cast<int64_t>(config.ops * 4) - 1);
    ins.count = inserted.size();
    stream->final_checks.push_back(ins);
  }
  stream->final_checks.push_back(TotalCount(live_total));
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  h ^= 0xFF;  // statement separator
  h *= 0x100000001B3ULL;
  return h;
}

}  // namespace

Stream GenerateStream(const Config& config, const Data& data) {
  Stream stream;
  stream.sessions.resize(config.clients);
  switch (config.workload) {
    case Workload::kZoom:
      GenerateZoom(config, data, &stream);
      break;
    case Workload::kMultiAttr:
      GenerateMultiAttr(config, data, &stream);
      break;
    case Workload::kHtap:
      GenerateHtap(config, data, &stream);
      break;
    case Workload::kConcurrent:
      GenerateConcurrent(config, data, &stream);
      break;
  }
  uint64_t h = 0xCBF29CE484222325ULL;
  auto add = [&](const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      for (const Statement& s : op.stmts) {
        h = Fnv1a(h, s.sql);
        ++stream.kind_counts[static_cast<size_t>(s.kind)];
      }
    }
    h = Fnv1a(h, "--");
  };
  for (const std::vector<Op>& ops : stream.sessions) add(ops);
  add(stream.probe);
  for (const Statement& s : stream.final_checks) h = Fnv1a(h, s.sql);
  stream.hash = h;
  return stream;
}

}  // namespace crackbench
