// Copyright 2026 The CrackStore Authors

#include "replay.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/adaptive_store.h"
#include "obs/metrics.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace crackbench {

using crackstore::AdaptiveStore;
using crackstore::DbOptions;
using crackstore::Delivery;
using crackstore::kNoTxn;
using crackstore::Oid;
using crackstore::Result;
using crackstore::Status;
using crackstore::TxnId;
namespace sql = crackstore::sql;

const char* LayerName(Layer layer) {
  static const char* const kNames[] = {"sql.parse",       "sql.execute",
                                       "core.select",     "core.aggregate",
                                       "core.conjunction", "core.gather",
                                       "core.dml",        "core.commit"};
  return kNames[layer];
}

const std::vector<std::string>& TracedCounters() {
  static const std::vector<std::string> kCounters = {
      "crack.cracks",           "crack.tuples_touched",
      "crack.kernel_writes",    "io.tuples_read",
      "io.tuples_written",      "select.materialized_oids",
      "select.span_rows",       "select.spans",
      "agg.pushdown_rows",      "snapshot.rows_filtered",
      "snapshot.override_hits", "merge.folds",
      "merge.rows",             "vacuum.auto_runs",
      "vacuum.runs",            "vacuum.purged_rows",
      "txn.commits",            "txn.aborts",
      "txn.conflicts",          "latch.range_acquisitions",
      "latch.range_waits",      "latch.range_wait_ns",
      "wal.appends",            "wal.bytes_appended",
      "wal.fsyncs",             "wal.checkpoints",
      "wal.checkpoint_bytes"};
  return kCounters;
}

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::map<std::string, int64_t> ReadCounters() {
  crackstore::obs::MetricsRegistry& reg =
      crackstore::obs::MetricsRegistry::Global();
  std::map<std::string, int64_t> values;
  for (const std::string& name : TracedCounters()) {
    values[name] = static_cast<int64_t>(reg.GetCounter(name)->Value());
  }
  return values;
}

/// What a statement returned, reduced to the fields the stream checks.
struct Outcome {
  Status status;
  uint64_t count = 0;
  int64_t value = 0;
  bool has_value = false;
};

Outcome Digest(const Result<sql::QueryOutput>& r) {
  Outcome o;
  if (!r.ok()) {
    o.status = r.status();
    return o;
  }
  const sql::QueryOutput& out = *r;
  o.count = out.count;
  if (out.kind == sql::OutputKind::kGroups && out.groups.size() == 1) {
    o.value = out.groups[0].value;
    o.has_value = true;
  } else if (out.kind == sql::OutputKind::kRows && out.rows != nullptr) {
    uint64_t checksum = 0;
    int64_t row[4];
    size_t ncols = std::min<size_t>(out.rows->num_columns(), 4);
    for (size_t r = 0; r < out.rows->num_rows(); ++r) {
      for (size_t c = 0; c < ncols; ++c) {
        row[c] = out.rows->column(c)->Get<int64_t>(r);
      }
      checksum += RowChecksum(row, ncols);
    }
    o.value = static_cast<int64_t>(checksum);
    o.has_value = true;
  }
  return o;
}

bool IsProjection(Kind k) {
  return k == Kind::kProject || k == Kind::kConjProject;
}

std::vector<AdaptiveStore::ColumnRange> ToConjuncts(
    const std::vector<sql::Predicate>& where) {
  std::vector<AdaptiveStore::ColumnRange> conjuncts;
  for (const sql::Predicate& p : where) {
    conjuncts.push_back({p.column, p.range});
  }
  return conjuncts;
}

/// Per-session state and results of a rep.
struct SessionOut {
  std::vector<double> op_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  double layer_us[kNumKinds][kNumLayers] = {};
  uint64_t layer_calls[kNumKinds][kNumLayers] = {};
  uint64_t kind_stmts[kNumKinds] = {};
  uint64_t agg_stmts = 0, agg_pushed = 0;
  std::vector<Span> spans;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Runs the operations of one client against a store in one mode.
class SessionRunner {
 public:
  SessionRunner(AdaptiveStore* store, Mode mode, uint32_t session,
                Clock::time_point epoch, SessionOut* out)
      : store_(store),
        sql_session_(store),
        mode_(mode),
        session_(session),
        epoch_(epoch),
        out_(out) {}

  /// Runs one operation, checks its answers and returns its latency in µs:
  /// wall time of its statements (SQL modes) or the summed facade calls
  /// (core replay). Answers are digested and checked after the clock stops.
  double RunOp(const Op& op, uint32_t op_index) {
    op_index_ = op_index;
    ++out_->attempted;
    std::vector<Reply> replies;
    replies.reserve(op.stmts.size());
    core_us_ = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < op.stmts.size(); ++i) {
      stmt_index_ = static_cast<uint16_t>(i);
      replies.push_back(Run(op.stmts[i]));
      if (!replies.back().ok()) break;
    }
    double us = mode_ == Mode::kCore ? core_us_ : Us(t0, Clock::now());
    if (!replies.back().ok()) RollBack();
    for (size_t i = 0; i < replies.size(); ++i) {
      const Reply& r = replies[i];
      std::string why =
          Check(op.stmts[i], r.sql.has_value() ? Digest(*r.sql) : r.core);
      if (!why.empty()) {
        out_->Fail(op.stmts[i].sql + ": " + why);
        break;
      }
    }
    return us;
  }

 private:
  /// A statement's reply: the SQL output, or the core replay's outcome.
  struct Reply {
    std::optional<Result<sql::QueryOutput>> sql;
    Outcome core;
    bool ok() const { return sql.has_value() ? sql->ok() : core.status.ok(); }
  };

  Reply Run(const Statement& s) {
    size_t kind = static_cast<size_t>(s.kind);
    ++out_->kind_stmts[kind];
    Reply reply;
    if (mode_ == Mode::kSql) {
      reply.sql.emplace(sql_session_.ExecuteSql(s.sql));
      return reply;
    }
    Clock::time_point a = Clock::now();
    Result<sql::Statement> parsed = sql::ParseStatement(s.sql);
    Clock::time_point b = Clock::now();
    if (!parsed.ok()) {
      reply.core.status = parsed.status();
      return reply;
    }
    if (mode_ == Mode::kCore) {
      reply.core = Core(*parsed, s.kind);
      return reply;
    }
    Record(s.kind, kParse, a, b);
    reply.sql.emplace(sql_session_.Execute(*parsed));
    Record(s.kind, kExecute, b, Clock::now());
    return reply;
  }

  void Record(Kind kind, Layer layer, Clock::time_point a,
              Clock::time_point b) {
    size_t k = static_cast<size_t>(kind);
    double us = Us(a, b);
    out_->layer_us[k][layer] += us;
    ++out_->layer_calls[k][layer];
    if (mode_ == Mode::kCore) core_us_ += us;
    out_->spans.push_back(Span{session_, op_index_, stmt_index_,
                               static_cast<uint8_t>(layer),
                               static_cast<uint8_t>(kind), Us(epoch_, a), us});
  }

  /// Times one facade call under `layer`.
  template <typename Fn>
  auto Timed(Kind kind, Layer layer, Fn&& fn) {
    Clock::time_point a = Clock::now();
    auto r = fn();
    Record(kind, layer, a, Clock::now());
    return r;
  }

  /// The core replay: the facade calls sql::Execute makes for `st`.
  Outcome Core(const sql::Statement& st, Kind kind) {
    Outcome o;
    switch (st.kind) {
      case sql::StatementKind::kBegin: {
        Result<TxnId> r = Timed(kind, kCommit, [&] { return store_->Begin(); });
        if (r.ok()) txn_ = *r;
        o.status = r.status();
        return o;
      }
      case sql::StatementKind::kCommit:
        o.status = Timed(kind, kCommit, [&] { return store_->Commit(txn_); });
        txn_ = kNoTxn;
        return o;
      case sql::StatementKind::kInsert: {
        std::vector<crackstore::Value> row = st.insert.values;
        auto r = Timed(kind, kDml, [&] {
          return store_->Insert(st.insert.table, std::move(row), txn_);
        });
        o.status = r.status();
        if (r.ok()) o.count = r->count;
        return o;
      }
      case sql::StatementKind::kDelete: {
        auto conj = ToConjuncts(st.del.where);
        auto r = Timed(kind, kDml, [&] {
          return store_->Delete(st.del.table, conj, txn_);
        });
        o.status = r.status();
        if (r.ok()) o.count = r->count;
        return o;
      }
      case sql::StatementKind::kUpdate: {
        std::vector<AdaptiveStore::Assignment> sets;
        for (const sql::SetClause& s : st.update.sets) {
          sets.push_back({s.column, s.value});
        }
        auto conj = ToConjuncts(st.update.where);
        auto r = Timed(kind, kDml, [&] {
          return store_->Update(st.update.table, sets, conj, txn_);
        });
        o.status = r.status();
        if (r.ok()) o.count = r->count;
        return o;
      }
      case sql::StatementKind::kSelect:
        return CoreSelect(st.select, kind);
      default:
        o.status = Status::Unimplemented("statement kind not replayed");
        return o;
    }
  }

  Outcome CoreSelect(const sql::SelectStatement& sel, Kind kind) {
    Outcome o;
    auto conj = ToConjuncts(sel.where);
    if (sel.count_star && sel.where.empty()) {
      auto r = Timed(kind, kSelect,
                     [&] { return store_->LiveRowCount(sel.table, txn_); });
      o.status = r.status();
      if (r.ok()) o.count = *r;
      return o;
    }
    if (sel.count_star) {
      bool single = sel.where.size() == 1;
      auto r = Timed(kind, single ? kSelect : kConjunction, [&] {
        return single ? store_->SelectRange(sel.table, sel.where[0].column,
                                            sel.where[0].range,
                                            Delivery::kCount, txn_)
                      : store_->SelectConjunction(sel.table, conj,
                                                  Delivery::kCount, txn_);
      });
      o.status = r.status();
      if (r.ok()) o.count = r->count;
      return o;
    }
    const bool aggregate =
        sel.items.size() == 1 && sel.items[0].agg != sql::AggFunc::kNone;
    if (aggregate) {
      ++out_->agg_stmts;
      const std::string& column = sel.items[0].column;
      const bool pushable =
          sel.where.empty() ||
          (sel.where.size() == 1 && sel.where[0].column == column);
      if (pushable) {
        crackstore::TypedRange range = sel.where.empty()
                                           ? crackstore::TypedRange::All()
                                           : sel.where[0].range;
        auto r = Timed(kind, kAggregate, [&] {
          return store_->AggregateRange(sel.table, column, range, txn_);
        });
        if (r.ok()) {
          if (r->pushdown_rows > 0) ++out_->agg_pushed;
          o.count = 1;
          o.has_value = true;
          o.value = Fold(sel.items[0].agg, *r);
          return o;
        }
      }
    }
    if (sel.where.empty()) {
      o.status = Status::Unimplemented("WHERE-less projection not replayed");
      return o;
    }
    auto qr = Timed(kind, kConjunction, [&] {
      return store_->SelectConjunction(sel.table, conj, Delivery::kView, txn_);
    });
    if (!qr.ok()) {
      o.status = qr.status();
      return o;
    }
    std::vector<Oid> oids =
        Timed(kind, kGather, [&] { return std::move(*qr).CollectOids(); });
    if (!aggregate) {
      o.count = oids.size();
      return o;
    }
    // The executor's materialize-then-loop fallback, outside the clock: the
    // answer is checked, the loop is SQL-layer work.
    auto rel = store_->table(sel.table);
    if (!rel.ok()) {
      o.status = rel.status();
      return o;
    }
    auto col = (*rel)->column(sel.items[0].column);
    if (!col.ok()) {
      o.status = col.status();
      return o;
    }
    const crackstore::Bat& bat = **col;
    crackstore::ColumnAggregates agg;
    for (Oid oid : oids) {
      int64_t v = bat.Get<int64_t>(static_cast<size_t>(oid - bat.head_base()));
      agg.sum += v;
      agg.min = agg.rows == 0 ? v : std::min(agg.min, v);
      agg.max = agg.rows == 0 ? v : std::max(agg.max, v);
      ++agg.rows;
    }
    agg.has_minmax = agg.rows > 0;
    o.count = 1;
    o.has_value = true;
    o.value = Fold(sel.items[0].agg, agg);
    return o;
  }

  static int64_t Fold(sql::AggFunc func,
                      const crackstore::ColumnAggregates& a) {
    switch (func) {
      case sql::AggFunc::kCount:
        return static_cast<int64_t>(a.rows);
      case sql::AggFunc::kSum:
        return a.sum;
      case sql::AggFunc::kMin:
        return a.has_minmax ? a.min : 0;
      case sql::AggFunc::kMax:
        return a.has_minmax ? a.max : 0;
      case sql::AggFunc::kNone:
        break;
    }
    return 0;
  }

  void RollBack() {
    if (mode_ == Mode::kCore) {
      if (txn_ != kNoTxn) (void)store_->Rollback(txn_);
      txn_ = kNoTxn;
    } else if (sql_session_.in_txn()) {
      (void)sql_session_.ExecuteSql("ROLLBACK");
    }
  }

  /// Empty when `got` is the answer `want` names.
  std::string Check(const Statement& want, const Outcome& got) const {
    if (!got.status.ok()) return got.status.ToString();
    if (want.kind == Kind::kBegin || want.kind == Kind::kCommit) return "";
    if (got.count != want.count) {
      return "count " + std::to_string(got.count) + ", want " +
             std::to_string(want.count);
    }
    // The core replay never gathers projected values.
    if (mode_ == Mode::kCore && IsProjection(want.kind)) return "";
    if (want.has_value && (!got.has_value || got.value != want.value)) {
      return "value " + std::to_string(got.value) + ", want " +
             std::to_string(want.value);
    }
    return "";
  }

  AdaptiveStore* store_;
  sql::SqlSession sql_session_;
  Mode mode_;
  uint32_t session_;
  Clock::time_point epoch_;
  SessionOut* out_;
  TxnId txn_ = kNoTxn;  // the core replay's open transaction
  uint32_t op_index_ = 0;
  uint16_t stmt_index_ = 0;
  double core_us_ = 0;
};

DbOptions StoreOptions(const Config& config, const std::string& db_dir) {
  DbOptions opts;
  opts.concurrent = config.concurrent;
  if (config.durable) {
    opts.durability = crackstore::DurabilityMode::kWal;
    opts.path = db_dir;
    opts.fsync_policy = crackstore::durability::FsyncPolicy::kOff;
  }
  return opts;
}

void RecordFailure(RepResult* rep, const std::string& what) {
  ++rep->failed;
  if (rep->errors.size() < 5) rep->errors.push_back(what);
}

/// Adds a session's attempted and failed operations to `rep`.
void AddOutcomes(const SessionOut& s, RepResult* rep) {
  rep->attempted += s.attempted;
  rep->failed += s.failed;
  for (const std::string& e : s.errors) {
    if (rep->errors.size() < 5) rep->errors.push_back(e);
  }
}

void Merge(const SessionOut& s, RepResult* rep) {
  AddOutcomes(s, rep);
  for (size_t k = 0; k < kNumKinds; ++k) {
    rep->kind_stmts[k] += s.kind_stmts[k];
    for (size_t l = 0; l < kNumLayers; ++l) {
      rep->layer_us[k][l] += s.layer_us[k][l];
      rep->layer_calls[k][l] += s.layer_calls[k][l];
    }
  }
  rep->agg_stmts += s.agg_stmts;
  rep->agg_pushed += s.agg_pushed;
  rep->spans.insert(rep->spans.end(), s.spans.begin(), s.spans.end());
}

/// Runs the state checks as read operations; only failures are recorded.
void RunChecks(AdaptiveStore* store, Mode mode, const Stream& stream,
               Clock::time_point epoch, RepResult* rep) {
  SessionOut out;
  SessionRunner runner(store, mode, 0, epoch, &out);
  for (const Statement& s : stream.final_checks) {
    Op op;
    op.stmts.push_back(s);
    runner.RunOp(op, 0);
  }
  AddOutcomes(out, rep);
}


/// Set-up: relation build, Open and AddTable, each part timed into `rep`.
/// Returns null (and records the failure) when any part fails.
std::unique_ptr<AdaptiveStore> Load(const Config& config, const Data& data,
                                    const std::string& db_dir,
                                    RepResult* rep) {
  std::error_code ec;
  if (config.durable) std::filesystem::remove_all(db_dir, ec);
  Clock::time_point t0 = Clock::now();
  std::vector<std::shared_ptr<crackstore::Bat>> cols;
  std::vector<crackstore::ColumnDef> defs;
  for (size_t c = 0; c < data.cols.size(); ++c) {
    std::string name = "c" + std::to_string(c);
    cols.push_back(crackstore::Bat::FromVector(data.cols[c], name));
    defs.push_back({name, crackstore::ValueType::kInt64});
  }
  auto rel = crackstore::Relation::FromColumns(
      "R", crackstore::Schema(std::move(defs)), std::move(cols));
  Clock::time_point t1 = Clock::now();
  auto opened = AdaptiveStore::Open(StoreOptions(config, db_dir));
  Clock::time_point t2 = Clock::now();
  Status added = rel.ok() && opened.ok() ? (*opened)->AddTable(*rel)
                 : rel.ok()              ? opened.status()
                                         : rel.status();
  Clock::time_point t3 = Clock::now();
  rep->load_s = Us(t0, t1) * 1e-6;
  rep->open_s = Us(t1, t2) * 1e-6;
  rep->add_table_s = Us(t2, t3) * 1e-6;
  ++rep->attempted;
  if (!added.ok()) {
    RecordFailure(rep, "set-up: " + added.ToString());
    return nullptr;
  }
  return std::move(*opened);
}

}  // namespace

RepResult RunSetup(const Config& config, const Data& data,
                   const std::string& db_dir) {
  RepResult rep;
  std::unique_ptr<AdaptiveStore> store = Load(config, data, db_dir, &rep);
  if (store != nullptr) {
    ++rep.attempted;
    Status closed = store->Close();
    if (!closed.ok()) RecordFailure(&rep, "close: " + closed.ToString());
  }
  store.reset();
  std::error_code ec;
  if (config.durable) std::filesystem::remove_all(db_dir, ec);
  return rep;
}

RepResult RunRep(const Config& config, const Data& data, const Stream& stream,
                 Mode mode, const std::string& db_dir) {
  RepResult rep;
  std::error_code ec;
  const Clock::time_point epoch = Clock::now();
  std::unique_ptr<AdaptiveStore> store = Load(config, data, db_dir, &rep);
  if (store == nullptr) return rep;

  // --- the stream ----------------------------------------------------------
  const bool traced = mode == Mode::kSqlTraced;
  crackstore::obs::Gauge* versions =
      crackstore::obs::MetricsRegistry::Global().GetGauge("versions.rows");
  std::map<std::string, int64_t> before;
  int64_t versions_before = versions->Value();
  if (traced) before = ReadCounters();
  std::vector<SessionOut> outs(stream.sessions.size());
  auto run_session = [&](size_t s) {
    SessionRunner runner(store.get(), mode, static_cast<uint32_t>(s), epoch,
                         &outs[s]);
    const std::vector<Op>& ops = stream.sessions[s];
    outs[s].op_us.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      outs[s].op_us[i] = runner.RunOp(ops[i], static_cast<uint32_t>(i));
    }
  };
  if (stream.sessions.size() == 1) {
    run_session(0);
    for (double us : outs[0].op_us) rep.stream_s += us * 1e-6;
  } else {
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t s = 0; s < stream.sessions.size(); ++s) {
      threads.emplace_back([&, s] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        run_session(s);
      });
    }
    while (ready.load() < threads.size()) std::this_thread::yield();
    Clock::time_point start = Clock::now();
    go.store(true);
    for (std::thread& t : threads) t.join();
    rep.stream_s = Us(start, Clock::now()) * 1e-6;
  }
  if (traced) {
    std::map<std::string, int64_t> after = ReadCounters();
    for (const auto& [name, v] : after) rep.counters[name] = v - before[name];
    rep.version_rows = versions->Value() - versions_before;
    for (int c = 0; c < 4; ++c) {
      std::string col = "c" + std::to_string(c);
      if (!store->AccessPathFor("R", col).ok()) continue;
      auto pieces = store->NumPieces("R", col);
      if (pieces.ok()) rep.pieces += *pieces;
    }
    rep.lineage_nodes = store->lineage().num_pieces();
  }
  for (size_t s = 0; s < outs.size(); ++s) {
    Merge(outs[s], &rep);
    rep.op_us.push_back(std::move(outs[s].op_us));
  }

  // --- write probe, state checks, close and reopen -------------------------
  if (!stream.probe.empty()) {
    SessionOut probe;
    SessionRunner runner(store.get(), mode, 0, epoch, &probe);
    for (size_t i = 0; i < stream.probe.size(); ++i) {
      rep.probe_us.push_back(
          runner.RunOp(stream.probe[i], static_cast<uint32_t>(i)));
    }
    AddOutcomes(probe, &rep);
  }
  RunChecks(store.get(), mode, stream, epoch, &rep);
  Clock::time_point c0 = Clock::now();
  Status closed = store->Close();
  rep.close_s = Us(c0, Clock::now()) * 1e-6;
  store.reset();
  ++rep.attempted;
  if (!closed.ok()) RecordFailure(&rep, "close: " + closed.ToString());
  if (config.durable) {
    Clock::time_point o0 = Clock::now();
    auto reopened = AdaptiveStore::Open(StoreOptions(config, db_dir));
    rep.reopen_s = Us(o0, Clock::now()) * 1e-6;
    ++rep.attempted;
    if (!reopened.ok()) {
      RecordFailure(&rep, "reopen: " + reopened.status().ToString());
    } else {
      RunChecks(reopened->get(), mode, stream, epoch, &rep);
      (void)(*reopened)->Close();
    }
    std::filesystem::remove_all(db_dir, ec);
  }
  return rep;
}

}  // namespace crackbench
