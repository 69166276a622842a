// Copyright 2026 The CrackStore Authors

#include "engine/colstore_engine.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "core/task_pool.h"
#include "obs/instruments.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crackstore {

ColumnEngine::ColumnEngine(ColumnEngineOptions options) : options_(options) {}

Status ColumnEngine::AddTable(std::shared_ptr<Relation> relation) {
  if (relation == nullptr) return Status::InvalidArgument("null relation");
  if (tables_.count(relation->name()) > 0) {
    return Status::AlreadyExists("table exists: " + relation->name());
  }
  tables_.emplace(relation->name(), std::move(relation));
  return Status::OK();
}

Result<std::shared_ptr<Relation>> ColumnEngine::table(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

Result<ColumnAccessPath*> ColumnEngine::PathFor(
    const std::string& table, const std::string& column,
    const std::shared_ptr<Bat>& bat) {
  std::string key = table + "." + column;
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    CRACK_ASSIGN_OR_RETURN(
        std::unique_ptr<ColumnAccessPath> path,
        CreateColumnAccessPath(bat, options_.path_config()));
    it = paths_.emplace(key, std::move(path)).first;
  }
  return it->second.get();
}

namespace {

/// Column-at-a-time gather of `rows` from `src` into `dst`.
Status GatherColumn(const Bat& src, const std::vector<uint32_t>& rows,
                    Bat* dst) {
  switch (src.tail_type()) {
    case ValueType::kInt32: {
      const int32_t* s = src.TailData<int32_t>();
      for (uint32_t r : rows) dst->Append<int32_t>(s[r]);
      return Status::OK();
    }
    case ValueType::kInt64: {
      const int64_t* s = src.TailData<int64_t>();
      for (uint32_t r : rows) dst->Append<int64_t>(s[r]);
      return Status::OK();
    }
    case ValueType::kFloat64: {
      const double* s = src.TailData<double>();
      for (uint32_t r : rows) dst->Append<double>(s[r]);
      return Status::OK();
    }
    case ValueType::kOid: {
      const Oid* s = src.TailData<Oid>();
      for (uint32_t r : rows) dst->Append<Oid>(s[r]);
      return Status::OK();
    }
    case ValueType::kString: {
      for (uint32_t r : rows) dst->AppendString(src.GetString(r));
      return Status::OK();
    }
  }
  return Status::Internal("unknown column type");
}

/// Source row indexes of an access-path answer, ascending. The gather
/// writes one tuple per row.
std::vector<uint32_t> MatchRows(const AccessSelection& sel, Oid base,
                                IoStats* io) {
  std::vector<uint32_t> rows;
  rows.reserve(sel.count);
  for (Oid oid : sel.span_set.ToOids()) {
    rows.push_back(static_cast<uint32_t>(oid - base));
  }
  io->tuples_written += rows.size();
  return rows;
}

}  // namespace

Result<RunResult> ColumnEngine::RunSelect(const std::string& table,
                                          const std::string& column,
                                          const TypedRange& range,
                                          DeliveryMode mode,
                                          const std::string& result_name) {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  auto col_result = rel->column(column);
  if (!col_result.ok()) return col_result.status();
  std::shared_ptr<Bat> bat = *col_result;

  RunResult run;
  WallTimer timer;
  obs::TraceSpan trace_span("engine select", table + "." + column, &run.io);

  CRACK_ASSIGN_OR_RETURN(ColumnAccessPath * path, PathFor(table, column, bat));
  CRACK_ASSIGN_OR_RETURN(
      AccessSelection sel,
      path->SelectTyped(range, /*detach=*/false, &run.io));
  run.count = sel.count;

  switch (mode) {
    case DeliveryMode::kCount:
      break;
    case DeliveryMode::kPrint: {
      std::vector<uint32_t> matches =
          MatchRows(sel, bat->head_base(), &run.io);
      FrontendSink sink;
      std::vector<Value> row(rel->num_columns());
      for (uint32_t r : matches) {
        for (size_t c = 0; c < rel->num_columns(); ++c) {
          row[c] = rel->column(c)->GetValue(r);
        }
        CRACK_RETURN_NOT_OK(sink.Consume(row));
      }
      run.bytes_shipped = sink.bytes_shipped();
      run.io.tuples_read += matches.size() * rel->num_columns();
      break;
    }
    case DeliveryMode::kMaterialize: {
      std::vector<uint32_t> matches =
          MatchRows(sel, bat->head_base(), &run.io);
      auto out = Relation::Create(result_name, rel->schema());
      if (!out.ok()) return out.status();
      for (size_t c = 0; c < rel->num_columns(); ++c) {
        CRACK_RETURN_NOT_OK(
            GatherColumn(*rel->column(c), matches, (*out)->column(c).get()));
      }
      run.io.tuples_read += matches.size() * rel->num_columns();
      run.io.tuples_written += matches.size() * rel->num_columns();
      last_result_ = *out;
      break;
    }
  }

  run.seconds = timer.ElapsedSeconds();
  obs::MirrorIo(run.io);
  return run;
}

Result<std::vector<uint64_t>> ColumnEngine::RunSelectCountBatch(
    const std::vector<SelectSpec>& specs) {
  // Phase 1 (serial): resolve columns and force-create every path, so the
  // parallel phase never mutates the paths_ map.
  struct Leg {
    ColumnAccessPath* path = nullptr;
    const SelectSpec* spec = nullptr;
    Status status;
    uint64_t count = 0;
  };
  std::vector<Leg> legs(specs.size());
  std::unordered_map<std::string, std::vector<size_t>> by_column;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto rel_result = this->table(specs[i].table);
    if (!rel_result.ok()) return rel_result.status();
    auto bat = (*rel_result)->column(specs[i].column);
    if (!bat.ok()) return bat.status();
    CRACK_ASSIGN_OR_RETURN(legs[i].path,
                           PathFor(specs[i].table, specs[i].column, *bat));
    legs[i].spec = &specs[i];
    by_column[specs[i].table + "." + specs[i].column].push_back(i);
  }

  // Phase 2 (parallel): one task per distinct column; legs sharing a column
  // run back-to-back inside their task (a select may crack or fold deltas,
  // and the engine keeps no column latches).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(by_column.size());
  for (auto& [key, indices] : by_column) {
    std::vector<size_t>* group = &indices;
    tasks.emplace_back([&legs, group] {
      for (size_t i : *group) {
        Leg& leg = legs[i];
        auto sel = leg.path->SelectTyped(leg.spec->range,
                                         /*detach=*/false, nullptr);
        if (!sel.ok()) {
          leg.status = sel.status();
          continue;
        }
        leg.count = sel->count;
      }
    });
  }
  TaskPool::Global()->RunBatch(std::move(tasks));

  std::vector<uint64_t> counts;
  counts.reserve(legs.size());
  for (Leg& leg : legs) {
    CRACK_RETURN_NOT_OK(leg.status);
    counts.push_back(leg.count);
  }
  return counts;
}

Result<RunResult> ColumnEngine::RunChainJoin(
    const std::vector<std::string>& tables, const std::string& out_col,
    const std::string& in_col, DeliveryMode mode) {
  if (tables.size() < 2) {
    return Status::InvalidArgument("chain join needs at least two tables");
  }
  if (mode != DeliveryMode::kCount) {
    return Status::Unimplemented("column chain join delivers counts");
  }

  RunResult run;
  WallTimer timer;

  // Frontier: out-column value -> number of join paths reaching it.
  std::unordered_map<int64_t, uint64_t> frontier;
  {
    auto rel = this->table(tables[0]);
    if (!rel.ok()) return rel.status();
    auto out_bat = (*rel)->column(out_col);
    if (!out_bat.ok()) return out_bat.status();
    if ((*out_bat)->tail_type() != ValueType::kInt64) {
      return Status::Unimplemented("chain join requires int64 columns");
    }
    const int64_t* d = (*out_bat)->TailData<int64_t>();
    size_t n = (*out_bat)->size();
    frontier.reserve(n * 2);
    for (size_t i = 0; i < n; ++i) ++frontier[d[i]];
    run.io.tuples_read += n;
  }

  for (size_t t = 1; t < tables.size(); ++t) {
    auto rel = this->table(tables[t]);
    if (!rel.ok()) return rel.status();
    auto in_bat = (*rel)->column(in_col);
    if (!in_bat.ok()) return in_bat.status();
    auto out_bat = (*rel)->column(out_col);
    if (!out_bat.ok()) return out_bat.status();
    if ((*in_bat)->tail_type() != ValueType::kInt64 ||
        (*out_bat)->tail_type() != ValueType::kInt64) {
      return Status::Unimplemented("chain join requires int64 columns");
    }
    const int64_t* in_d = (*in_bat)->TailData<int64_t>();
    const int64_t* out_d = (*out_bat)->TailData<int64_t>();
    size_t n = (*in_bat)->size();

    // One pass: every row whose in-value is reachable extends the paths to
    // its out-value.
    std::unordered_map<int64_t, uint64_t> next;
    next.reserve(frontier.size() * 2);
    for (size_t i = 0; i < n; ++i) {
      auto it = frontier.find(in_d[i]);
      if (it == frontier.end()) continue;
      next[out_d[i]] += it->second;
    }
    run.io.tuples_read += 2 * n;
    frontier = std::move(next);

    if (options_.statement_deadline_seconds > 0.0 &&
        timer.ElapsedSeconds() > options_.statement_deadline_seconds) {
      run.truncated = true;
      break;
    }
  }

  run.count = 0;
  for (const auto& [value, paths] : frontier) run.count += paths;
  run.seconds = timer.ElapsedSeconds();
  obs::MirrorIo(run.io);
  return run;
}

}  // namespace crackstore
