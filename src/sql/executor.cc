// Copyright 2026 The CrackStore Authors

#include "sql/executor.h"

#include <algorithm>
#include <utility>

#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace crackstore {
namespace sql {

namespace {

Result<AggKind> ToAggKind(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return AggKind::kCount;
    case AggFunc::kSum:
      return AggKind::kSum;
    case AggFunc::kMin:
      return AggKind::kMin;
    case AggFunc::kMax:
      return AggKind::kMax;
    case AggFunc::kNone:
      break;
  }
  return Status::InvalidArgument("not an aggregate");
}

/// The kind shared by every bounded endpoint of a range: kNone when it is
/// unbounded, kMixed when its endpoints differ or are not comparable.
enum class EndKind : uint8_t { kNone, kInt, kDouble, kString, kMixed };

EndKind KindOf(const Value& v) {
  if (v.is_null()) return EndKind::kNone;
  if (v.is_int32() || v.is_int64()) return EndKind::kInt;
  if (v.is_double()) return EndKind::kDouble;
  if (v.is_string()) return EndKind::kString;
  return EndKind::kMixed;
}

EndKind RangeKind(const TypedRange& r) {
  EndKind lo = KindOf(r.lo);
  EndKind hi = KindOf(r.hi);
  if (lo == EndKind::kNone) return hi;
  return hi == EndKind::kNone || hi == lo ? lo : EndKind::kMixed;
}

/// Three-way comparison of two endpoints of one kind. Numeric endpoints
/// compare as every store consumer lowers them (TypedRange::
/// ToNumericBounds), so a merged range means exactly what its conjuncts
/// meant together.
int CompareEnds(const Value& a, const Value& b) {
  if (a.is_string()) {
    int c = a.AsString().compare(b.AsString());
    return (c > 0) - (c < 0);
  }
  int64_t x = a.ToInt64();
  int64_t y = b.ToInt64();
  return (x > y) - (x < y);
}

/// Tightens `into` by `r` (same kind): the tighter bound wins per side and
/// an exclusive bound wins a tie.
void MergeInto(const TypedRange& r, TypedRange* into) {
  if (!r.unbounded_lo()) {
    int c = into->unbounded_lo() ? 1 : CompareEnds(r.lo, into->lo);
    if (c > 0 || (c == 0 && !r.lo_incl)) {
      into->lo = r.lo;
      into->lo_incl = r.lo_incl;
    }
  }
  if (!r.unbounded_hi()) {
    int c = into->unbounded_hi() ? -1 : CompareEnds(r.hi, into->hi);
    if (c < 0 || (c == 0 && !r.hi_incl)) {
      into->hi = r.hi;
      into->hi_incl = r.hi_incl;
    }
  }
}

/// Normalizes a WHERE clause into the store's conjunct shape. Conjuncts on
/// one column merge into one range when their endpoints compare exactly
/// (integer with integer, double with double, string with string), so a
/// half-open pair reaches the store as one range. A conjunct that cannot
/// merge (an integer/double mix, say) follows the merged ranges; the store
/// tests it per row and never cracks its column a second time.
std::vector<AdaptiveStore::ColumnRange> Normalize(
    const std::vector<Predicate>& where) {
  std::vector<AdaptiveStore::ColumnRange> merged;
  std::vector<AdaptiveStore::ColumnRange> filters;
  for (const Predicate& p : where) {
    auto group = std::find_if(merged.begin(), merged.end(),
                              [&p](const AdaptiveStore::ColumnRange& c) {
                                return c.column == p.column;
                              });
    if (group == merged.end()) {
      merged.push_back({p.column, p.range});
      continue;
    }
    EndKind have = RangeKind(group->range);
    EndKind kind = RangeKind(p.range);
    if (have == EndKind::kNone || kind == EndKind::kNone ||
        (have == kind && kind != EndKind::kMixed)) {
      MergeInto(p.range, &group->range);
    } else {
      filters.push_back({p.column, p.range});
    }
  }
  merged.insert(merged.end(), filters.begin(), filters.end());
  return merged;
}

/// The aggregate sink: SUM/MIN/MAX/COUNT of `column` over the rows `where`
/// selects. A range on the aggregated column itself (or no WHERE) pushes
/// down to AggregateRange's span kernels; every other shape, and every
/// pushdown refusal, walks the answer once and reduces the column's
/// snapshot-visible values — no oid list, no sort.
Result<int64_t> AggregateSink(
    AdaptiveStore* store, const std::string& table, AggFunc func,
    const std::string& column,
    const std::vector<AdaptiveStore::ColumnRange>& where, TxnId txn,
    IoStats* io) {
  ColumnAggregates agg;
  bool pushed = false;
  if (where.empty() || (where.size() == 1 && where[0].column == column)) {
    Result<ColumnAggregates> pushdown = store->AggregateRange(
        table, column, where.empty() ? TypedRange::All() : where[0].range,
        txn);
    if (pushdown.ok()) {
      agg = *pushdown;
      *io += agg.io;
      pushed = true;
    }
  }
  if (!pushed) {
    QueryResult answer;
    std::vector<Oid> live;
    if (where.empty()) {
      CRACK_ASSIGN_OR_RETURN(live, store->LiveOids(table, txn));
    } else {
      CRACK_ASSIGN_OR_RETURN(
          answer, store->SelectConjunction(table, where, Delivery::kView, txn));
      *io += answer.io;
    }
    obs::TraceSpan gather_span("gather", table + "." + column, io);
    CRACK_ASSIGN_OR_RETURN(std::unique_ptr<AdaptiveStore::BaseReadScope> base,
                           store->ReadBase(table, txn));
    CRACK_ASSIGN_OR_RETURN(const SnapshotColumn* values, base->Column(column));
    uint64_t sum = 0;  // wraps mod 2^64, like the pushdown kernels
    auto fold = [&](Oid oid) {
      int64_t v = values->IntAt(oid);
      sum += static_cast<uint64_t>(v);
      if (!agg.has_minmax || v < agg.min) agg.min = v;
      if (!agg.has_minmax || v > agg.max) agg.max = v;
      agg.has_minmax = true;
      ++agg.rows;
    };
    answer.ForEachOid(fold);
    for (Oid oid : live) fold(oid);
    agg.sum = static_cast<int64_t>(sum);
    io->tuples_read += agg.rows;
  }
  switch (func) {
    case AggFunc::kCount:
      return static_cast<int64_t>(agg.rows);
    case AggFunc::kSum:
      return agg.sum;
    case AggFunc::kMin:
      return agg.has_minmax ? agg.min : 0;
    case AggFunc::kMax:
      return agg.has_minmax ? agg.max : 0;
    case AggFunc::kNone:
      break;
  }
  return Status::InvalidArgument("not an aggregate");
}

}  // namespace

Result<QueryOutput> Execute(AdaptiveStore* store, const SelectStatement& stmt,
                            TxnId txn) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  QueryOutput out;
  WallTimer timer;
  obs::TraceSpan stmt_span("select-stmt", stmt.table, &out.io);
  // Planning here is statement-shape dispatch plus name resolution; the
  // span closes right before the first store call of the chosen path.
  obs::TraceSpan plan_span("plan", stmt.table);

  // --- GROUP BY: the Ω cracker path. ---------------------------------
  if (stmt.group_by.has_value()) {
    if (!stmt.where.empty() || stmt.join.has_value()) {
      return Status::Unimplemented(
          "GROUP BY with WHERE/JOIN is not supported by this subset");
    }
    AggKind kind = AggKind::kCount;
    std::string agg_column = *stmt.group_by;
    if (stmt.count_star) {
      // COUNT(*) per group.
    } else {
      if (stmt.items.size() != 1 || stmt.items[0].agg == AggFunc::kNone) {
        return Status::Unimplemented(
            "GROUP BY needs exactly one aggregate select item (or "
            "COUNT(*))");
      }
      CRACK_ASSIGN_OR_RETURN(kind, ToAggKind(stmt.items[0].agg));
      agg_column = stmt.items[0].column;
    }
    plan_span.Close();
    CRACK_ASSIGN_OR_RETURN(
        out.groups, store->GroupBy(stmt.table, *stmt.group_by, agg_column,
                                   kind, txn));
    out.kind = OutputKind::kGroups;
    out.count = out.groups.size();
    out.group_column = *stmt.group_by;
    out.agg_description =
        stmt.count_star
            ? "count(*)"
            : StrFormat("%s(%s)", AggFuncName(stmt.items[0].agg),
                        agg_column.c_str());
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // --- JOIN: the ^ cracker path. --------------------------------------
  if (stmt.join.has_value()) {
    if (!stmt.count_star) {
      return Status::Unimplemented("JOIN supports COUNT(*) delivery only");
    }
    if (!stmt.where.empty()) {
      return Status::Unimplemented("JOIN with WHERE is not supported");
    }
    const JoinClause& join = *stmt.join;
    // Resolve which qualifier names which operand.
    std::string lt = join.left_table, lc = join.left_column;
    std::string rt = join.right_table, rc = join.right_column;
    if (lt == join.table && rt == stmt.table) {
      std::swap(lt, rt);
      std::swap(lc, rc);
    }
    if (lt != stmt.table || rt != join.table) {
      return Status::InvalidArgument(
          "join condition must reference both joined tables");
    }
    plan_span.Close();
    CRACK_ASSIGN_OR_RETURN(
        QueryResult qr,
        store->JoinEquals(lt, lc, rt, rc, txn));
    out.kind = OutputKind::kCount;
    out.count = qr.count;
    out.io += qr.io;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // --- Plain selection: normalize -> select -> sink (the Ξ cracker path).
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel,
                         store->table(stmt.table));
  const std::vector<AdaptiveStore::ColumnRange> where = Normalize(stmt.where);

  // Count sink.
  if (stmt.count_star) {
    plan_span.Close();
    if (where.empty()) {
      CRACK_ASSIGN_OR_RETURN(out.count, store->LiveRowCount(stmt.table, txn));
    } else {
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->SelectConjunction(stmt.table, where, Delivery::kCount, txn));
      out.count = qr.count;
      out.io += qr.io;
    }
    out.kind = OutputKind::kCount;
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Aggregate sink: SELECT SUM(c) FROM t [WHERE ...].
  if (stmt.items.size() == 1 && stmt.items[0].agg != AggFunc::kNone) {
    const SelectItem& item = stmt.items[0];
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> agg_col,
                           rel->column(item.column));
    if (agg_col->tail_type() != ValueType::kInt64 &&
        agg_col->tail_type() != ValueType::kInt32) {
      return Status::Unimplemented("aggregates need integer columns");
    }
    plan_span.Close();
    CRACK_ASSIGN_OR_RETURN(int64_t value,
                           AggregateSink(store, stmt.table, item.agg,
                                         item.column, where, txn, &out.io));
    out.kind = OutputKind::kGroups;  // a single (global, value) row
    out.groups.push_back(GroupAggregate{0, value});
    out.count = 1;
    out.group_column = "<all>";
    out.agg_description =
        StrFormat("%s(%s)", AggFuncName(item.agg), item.column.c_str());
    out.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Project sink: SELECT * / SELECT cols, rows in ascending oid order.
  std::vector<std::string> projection;
  if (!stmt.select_star) {
    for (const SelectItem& item : stmt.items) {
      if (item.agg != AggFunc::kNone) {
        return Status::Unimplemented(
            "mixing aggregates and plain columns needs GROUP BY");
      }
      projection.push_back(item.column);
    }
  }
  plan_span.Close();
  std::vector<Oid> oids;
  if (where.empty()) {
    CRACK_ASSIGN_OR_RETURN(oids, store->LiveOids(stmt.table, txn));
  } else {
    CRACK_ASSIGN_OR_RETURN(
        QueryResult qr,
        store->SelectConjunction(stmt.table, where, Delivery::kView, txn));
    out.io += qr.io;
    oids = std::move(qr).CollectOids();
  }
  {
    obs::TraceSpan mat_span("materialize", stmt.table, &out.io);
    CRACK_ASSIGN_OR_RETURN(std::unique_ptr<AdaptiveStore::BaseReadScope> base,
                           store->ReadBase(stmt.table, txn));
    CRACK_ASSIGN_OR_RETURN(
        out.rows,
        base->Materialize(stmt.table + "_result", oids, projection, &out.io));
  }
  out.kind = OutputKind::kRows;
  out.count = out.rows->num_rows();
  out.seconds = timer.ElapsedSeconds();
  return out;
}

Result<QueryOutput> Execute(AdaptiveStore* store, const Statement& stmt,
                            TxnId txn) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return Execute(store, stmt.select, txn);
    case StatementKind::kInsert: {
      QueryOutput out;
      // Literals arrive typed from the parser; the store coerces numerics
      // to the column widths and routes strings through the dictionary.
      std::vector<Value> row = stmt.insert.values;
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Insert(stmt.insert.table, std::move(row), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kDelete: {
      QueryOutput out;
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Delete(stmt.del.table, Normalize(stmt.del.where), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kUpdate: {
      QueryOutput out;
      std::vector<AdaptiveStore::Assignment> sets;
      sets.reserve(stmt.update.sets.size());
      for (const SetClause& s : stmt.update.sets) {
        sets.push_back({s.column, s.value});
      }
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          store->Update(stmt.update.table, sets,
                        Normalize(stmt.update.where), txn));
      out.kind = OutputKind::kAffected;
      out.count = qr.count;
      out.io += qr.io;
      out.seconds = qr.seconds;
      return out;
    }
    case StatementKind::kVacuum: {
      QueryOutput out;
      CRACK_ASSIGN_OR_RETURN(AdaptiveStore::VacuumStats stats,
                             store->Vacuum());
      out.kind = OutputKind::kTxn;
      out.count = stats.rows_purged;
      out.message = StrFormat(
          "VACUUM: purged %llu row version(s), folded %llu stamp(s), "
          "dropped %llu superseded value(s) below ts %llu",
          static_cast<unsigned long long>(stats.rows_purged),
          static_cast<unsigned long long>(stats.versions_dropped),
          static_cast<unsigned long long>(stats.chain_entries_dropped),
          static_cast<unsigned long long>(stats.low_water));
      return out;
    }
    case StatementKind::kCheckpoint: {
      QueryOutput out;
      CRACK_RETURN_NOT_OK(store->Checkpoint());
      out.kind = OutputKind::kTxn;
      out.count = store->checkpoints_taken();
      out.message = StrFormat(
          "CHECKPOINT: base snapshot written (%llu this session), commit "
          "log truncated",
          static_cast<unsigned long long>(store->checkpoints_taken()));
      return out;
    }
    case StatementKind::kExplainAnalyze: {
      if (!stmt.explain_inner) {
        return Status::InvalidArgument("EXPLAIN ANALYZE without a statement");
      }
      obs::QueryTrace trace;
      if (stmt.parse_seconds > 0.0) {
        trace.AddCompletedSpan("parse", stmt.parse_seconds);
      }
      WallTimer timer;
      QueryOutput inner;
      {
        obs::TraceBinding bind(&trace);
        CRACK_ASSIGN_OR_RETURN(inner, Execute(store, *stmt.explain_inner,
                                              txn));
      }
      const double seconds = timer.ElapsedSeconds();
      // Keep the inner statement's count/io/rows so callers (and tests) can
      // cross-check the report against the store's own introspection.
      QueryOutput out = std::move(inner);
      out.kind = OutputKind::kTxn;
      out.message = trace.Render(out.io, seconds);
      out.seconds = seconds;
      return out;
    }
    case StatementKind::kShowStats: {
      QueryOutput out;
      out.kind = OutputKind::kTxn;
      out.message = RenderStats(stmt.show_stats_pattern);
      out.count = obs::MetricsRegistry::Global()
                      .Rows(stmt.show_stats_pattern)
                      .size();
      return out;
    }
    case StatementKind::kSetPolicy: {
      QueryOutput out;
      CrackPolicyOptions opts = store->options().policy;
      if (!ParseCrackPolicy(stmt.set_policy_name, &opts.policy)) {
        return Status::InvalidArgument(StrFormat(
            "unknown policy '%s' (use standard, stochastic, coarse, auto "
            "or progressive)",
            stmt.set_policy_name.c_str()));
      }
      if (stmt.set_policy_budget >= 0.0) {
        if (stmt.set_policy_budget <= 0.0 || stmt.set_policy_budget > 1.0) {
          return Status::InvalidArgument("BUDGET must be in (0, 1]");
        }
        opts.progressive_budget = stmt.set_policy_budget;
      }
      CRACK_RETURN_NOT_OK(store->SetPolicy(opts));
      out.kind = OutputKind::kTxn;
      out.message = StrFormat("SET POLICY: %s (budget %.3f)",
                              CrackPolicyName(opts.policy),
                              opts.progressive_budget);
      return out;
    }
    case StatementKind::kShowPolicy: {
      QueryOutput out;
      out.kind = OutputKind::kTxn;
      std::vector<AdaptiveStore::ColumnPolicy> report = store->PolicyReport();
      out.count = report.size();
      if (report.empty()) {
        out.message = "no column accelerators yet (nothing queried)";
        return out;
      }
      TablePrinter table;
      table.SetHeader({"table", "column", "policy", "effective", "pattern",
                       "switches", "samples", "pending"});
      for (const AdaptiveStore::ColumnPolicy& row : report) {
        const PathPolicyStatus& s = row.status;
        table.AddRow({row.table, row.column, CrackPolicyName(s.configured),
                      s.crack ? CrackPolicyName(s.effective) : "-",
                      WorkloadPatternName(s.pattern),
                      std::to_string(s.switches), std::to_string(s.samples),
                      std::to_string(s.progressive_pending)});
      }
      out.message = table.RenderAligned();
      return out;
    }
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control needs a SqlSession (the stateless entry "
          "point is auto-commit only)");
  }
  return Status::InvalidArgument("unknown statement kind");
}

Result<QueryOutput> Execute(AdaptiveStore* store, const Statement& stmt,
                            const obs::ExecContext& ctx, TxnId txn) {
  obs::TraceBinding bind(ctx.trace);
  if (ctx.trace != nullptr && stmt.parse_seconds > 0.0) {
    ctx.trace->AddCompletedSpan("parse", stmt.parse_seconds);
  }
  return Execute(store, stmt, txn);
}

std::string RenderStats(const std::string& pattern) {
  TablePrinter table;
  table.SetHeader({"instrument", "type", "value"});
  for (const obs::MetricRow& row :
       obs::MetricsRegistry::Global().Rows(pattern)) {
    table.AddRow({row[0], row[1], row[2]});
  }
  if (table.num_rows() == 0) {
    return pattern.empty()
               ? std::string("no instruments registered\n")
               : StrFormat("no instruments match '%s'\n", pattern.c_str());
  }
  return table.RenderAligned();
}

Result<QueryOutput> ExecuteSql(AdaptiveStore* store,
                               const std::string& statement) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  return Execute(store, stmt);
}

Result<QueryOutput> SqlSession::ExecuteSql(const std::string& statement) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  return Execute(stmt);
}

Result<QueryOutput> SqlSession::ExecuteSql(const std::string& statement,
                                           const obs::ExecContext& ctx) {
  CRACK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  obs::RecordSqlStatement();
  obs::TraceBinding bind(ctx.trace);
  if (ctx.trace != nullptr && stmt.parse_seconds > 0.0) {
    ctx.trace->AddCompletedSpan("parse", stmt.parse_seconds);
  }
  return Execute(stmt);
}

Result<QueryOutput> SqlSession::Execute(const Statement& stmt) {
  if (store_ == nullptr) return Status::InvalidArgument("null store");
  QueryOutput out;
  out.kind = OutputKind::kTxn;
  switch (stmt.kind) {
    case StatementKind::kBegin: {
      if (in_txn()) {
        return Status::InvalidArgument(
            StrFormat("already in transaction %llu (COMMIT or ROLLBACK "
                      "first)",
                      static_cast<unsigned long long>(txn_)));
      }
      CRACK_ASSIGN_OR_RETURN(txn_, store_->Begin());
      out.message = StrFormat("BEGIN: transaction %llu at snapshot ts %llu",
                              static_cast<unsigned long long>(txn_),
                              static_cast<unsigned long long>(
                                  store_->txn_manager().last_commit_ts()));
      return out;
    }
    case StatementKind::kCommit: {
      if (!in_txn()) {
        return Status::InvalidArgument("no open transaction to COMMIT");
      }
      TxnId finished = txn_;
      txn_ = kNoTxn;  // the transaction ends either way
      CRACK_RETURN_NOT_OK(store_->Commit(finished));
      out.message = StrFormat("COMMIT: transaction %llu",
                              static_cast<unsigned long long>(finished));
      return out;
    }
    case StatementKind::kRollback: {
      if (!in_txn()) {
        return Status::InvalidArgument("no open transaction to ROLLBACK");
      }
      TxnId finished = txn_;
      txn_ = kNoTxn;
      CRACK_RETURN_NOT_OK(store_->Rollback(finished));
      out.message = StrFormat("ROLLBACK: transaction %llu",
                              static_cast<unsigned long long>(finished));
      return out;
    }
    default:
      return sql::Execute(store_, stmt, txn_);
  }
}

Status SqlSession::Close() {
  if (!in_txn()) return Status::OK();
  TxnId finished = txn_;
  txn_ = kNoTxn;
  return store_->Rollback(finished);
}

std::string FormatOutput(const QueryOutput& output, size_t max_rows) {
  std::string out;
  switch (output.kind) {
    case OutputKind::kCount:
      out = StrFormat("count: %llu\n",
                      static_cast<unsigned long long>(output.count));
      break;
    case OutputKind::kAffected:
      out = StrFormat("%llu row(s) affected\n",
                      static_cast<unsigned long long>(output.count));
      break;
    case OutputKind::kTxn:
      out = output.message + "\n";
      break;
    case OutputKind::kGroups: {
      out = StrFormat("%s | %s\n", output.group_column.c_str(),
                      output.agg_description.c_str());
      size_t shown = 0;
      for (const GroupAggregate& g : output.groups) {
        if (++shown > max_rows) {
          out += StrFormat("... (%zu groups)\n", output.groups.size());
          break;
        }
        out += StrFormat("%lld | %lld\n", static_cast<long long>(g.group),
                         static_cast<long long>(g.value));
      }
      break;
    }
    case OutputKind::kRows: {
      const Relation& rel = *output.rows;
      out = rel.schema().ToString() + "\n";
      size_t limit = std::min(max_rows, rel.num_rows());
      for (size_t i = 0; i < limit; ++i) {
        std::vector<std::string> cells;
        for (const Value& v : rel.GetRow(i)) cells.push_back(v.ToString());
        out += StrJoin(cells, " | ") + "\n";
      }
      if (rel.num_rows() > limit) {
        out += StrFormat("... (%zu rows)\n", rel.num_rows());
      }
      break;
    }
  }
  out += StrFormat("(%.3f ms)\n", output.seconds * 1e3);
  return out;
}

}  // namespace sql
}  // namespace crackstore
