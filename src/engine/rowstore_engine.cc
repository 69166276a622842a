// Copyright 2026 The CrackStore Authors

#include "engine/rowstore_engine.h"

#include "util/string_util.h"
#include "util/timer.h"

namespace crackstore {

RowEngine::RowEngine(RowEngineOptions options)
    : options_(options), journal_(std::make_shared<Journal>()) {}

IoStats RowEngine::TotalStats() const {
  IoStats total = catalog_.stats();
  total += journal_->stats();
  for (const std::string& name : catalog_.RowTableNames()) {
    auto table = catalog_.GetRowTable(name);
    CRACK_DCHECK(table.ok());
    total += (*table)->file().stats();
  }
  return total;
}

namespace {

/// The sink of a delivery that streams rows: kView prints them, kCount
/// counts them.
std::unique_ptr<ResultSink> StreamSink(Delivery delivery) {
  if (delivery == Delivery::kView) return std::make_unique<FrontendSink>();
  return std::make_unique<CountSink>();
}

/// The wire bytes `sink` shipped when it printed (kView); 0 otherwise.
uint64_t BytesShipped(Delivery delivery, const ResultSink& sink) {
  return delivery == Delivery::kView
             ? static_cast<const FrontendSink&>(sink).bytes_shipped()
             : 0;
}

}  // namespace

Result<std::shared_ptr<RowTable>> RowEngine::ImportRelation(
    const Relation& relation, std::string table_name) {
  if (table_name.empty()) {
    table_name = relation.name();
  }
  if (catalog_.HasTable(table_name)) {
    return Status::AlreadyExists("table exists: " + table_name);
  }
  auto table = RowTable::Create(table_name, relation.schema(),
                                options_.table_options, journal_);
  for (size_t i = 0; i < relation.num_rows(); ++i) {
    CRACK_RETURN_NOT_OK(table->Insert(relation.GetRow(i)));
  }
  table->Commit();
  CRACK_RETURN_NOT_OK(catalog_.RegisterRowTable(table));
  return table;
}

Result<uint64_t> RowEngine::Drain(RowIterator* root, ResultSink* sink,
                                  bool* truncated) {
  *truncated = false;
  CRACK_RETURN_NOT_OK(root->Open());
  std::vector<Value> row;
  bool eof = false;
  uint64_t count = 0;
  WallTimer deadline_timer;
  double deadline = options_.statement_deadline_seconds;
  while (true) {
    CRACK_RETURN_NOT_OK(root->Next(&row, &eof));
    if (eof) break;
    CRACK_RETURN_NOT_OK(sink->Consume(row));
    ++count;
    // Checked per tuple: under a nested-loop fallback plan a single tuple
    // may take an inner-relation scan to surface, so coarser checks would
    // overshoot the deadline by orders of magnitude.
    if (deadline > 0.0 && deadline_timer.ElapsedSeconds() > deadline) {
      *truncated = true;
      break;
    }
  }
  CRACK_RETURN_NOT_OK(sink->Finish());
  root->Close();
  return count;
}

Result<RunResult> RowEngine::RunSelect(const std::string& table,
                                       const std::string& column,
                                       const RangeBounds& range,
                                       Delivery delivery,
                                       const std::string& result_name) {
  auto table_result = catalog_.GetRowTable(table);
  if (!table_result.ok()) return table_result.status();
  std::shared_ptr<RowTable> src = *table_result;
  int col = src->schema().FieldIndex(column);
  if (col < 0) {
    return Status::NotFound("no column '" + column + "' in " + table);
  }

  RunResult run;
  IoStats before = TotalStats();
  WallTimer timer;

  auto tree = std::make_unique<FilterIterator>(
      std::make_unique<SeqScanIterator>(src), static_cast<size_t>(col),
      range);

  std::unique_ptr<ResultSink> sink;
  if (delivery == Delivery::kMaterialize) {
    if (catalog_.HasTable(result_name)) {
      CRACK_RETURN_NOT_OK(catalog_.DropTable(result_name));
    }
    auto target = RowTable::Create(result_name, src->schema(),
                                   options_.table_options, journal_);
    CRACK_RETURN_NOT_OK(catalog_.RegisterRowTable(target));
    sink = std::make_unique<RowMaterializeSink>(std::move(target));
  } else {
    sink = StreamSink(delivery);
  }

  CRACK_ASSIGN_OR_RETURN(run.count, Drain(tree.get(), sink.get(),
                                          &run.truncated));
  run.seconds = timer.ElapsedSeconds();
  run.io = TotalStats() - before;
  run.bytes_shipped = BytesShipped(delivery, *sink);
  return run;
}

Result<RunResult> RowEngine::CrackTableSql(const std::string& table,
                                           const std::string& column,
                                           const RangeBounds& range,
                                           const std::string& base) {
  auto table_result = catalog_.GetRowTable(table);
  if (!table_result.ok()) return table_result.status();
  std::shared_ptr<RowTable> src = *table_result;
  int col = src->schema().FieldIndex(column);
  if (col < 0) {
    return Status::NotFound("no column '" + column + "' in " + table);
  }

  RunResult run;
  IoStats before = TotalStats();
  WallTimer timer;

  // SELECT INTO <base>_in WHERE pred — first full scan.
  std::string in_name = base + "_in";
  std::string out_name = base + "_out";
  for (const std::string& frag : {in_name, out_name}) {
    if (catalog_.HasTable(frag)) {
      CRACK_RETURN_NOT_OK(catalog_.DropTable(frag));
    }
  }
  auto in_table = RowTable::Create(in_name, src->schema(),
                                   options_.table_options, journal_);
  CRACK_RETURN_NOT_OK(catalog_.RegisterRowTable(in_table));
  {
    FilterIterator tree(std::make_unique<SeqScanIterator>(src),
                        static_cast<size_t>(col), range);
    RowMaterializeSink sink(in_table);
    bool truncated = false;
    CRACK_ASSIGN_OR_RETURN(run.count, Drain(&tree, &sink, &truncated));
  }

  // SELECT INTO <base>_out WHERE NOT pred — second full scan (SQL cannot
  // route one scan into two result tables, §5.1).
  auto out_table = RowTable::Create(out_name, src->schema(),
                                    options_.table_options, journal_);
  CRACK_RETURN_NOT_OK(catalog_.RegisterRowTable(out_table));
  {
    FilterIterator tree(std::make_unique<SeqScanIterator>(src),
                        static_cast<size_t>(col), range, /*negate=*/true);
    RowMaterializeSink sink(out_table);
    bool truncated = false;
    CRACK_RETURN_NOT_OK(Drain(&tree, &sink, &truncated).status());
  }

  // Register the partitioned table.
  if (!catalog_.GetFragments(base).ok()) {
    CRACK_RETURN_NOT_OK(catalog_.CreatePartitionedTable(base));
  }
  FragmentInfo in_info;
  in_info.fragment_table = in_name;
  in_info.column = column;
  in_info.lo = range.lo;
  in_info.lo_inclusive = range.lo_incl;
  in_info.hi = range.hi;
  in_info.hi_inclusive = range.hi_incl;
  in_info.row_count = in_table->num_rows();
  CRACK_RETURN_NOT_OK(catalog_.AddFragment(base, in_info));

  FragmentInfo out_info;
  out_info.fragment_table = out_name;
  out_info.column = column;
  // The complement of a double-sided range is not an interval; only
  // single-sided predicates give the out-fragment usable bounds.
  if (range.lo == INT64_MIN) {
    out_info.lo = range.hi;
    out_info.lo_inclusive = !range.hi_incl;
    out_info.hi = INT64_MAX;
    out_info.hi_inclusive = true;
  } else if (range.hi == INT64_MAX) {
    out_info.lo = INT64_MIN;
    out_info.lo_inclusive = true;
    out_info.hi = range.lo;
    out_info.hi_inclusive = !range.lo_incl;
  } else {
    out_info.lo = INT64_MIN;
    out_info.lo_inclusive = true;
    out_info.hi = INT64_MAX;
    out_info.hi_inclusive = true;
  }
  out_info.row_count = out_table->num_rows();
  CRACK_RETURN_NOT_OK(catalog_.AddFragment(base, out_info));

  run.seconds = timer.ElapsedSeconds();
  run.io = TotalStats() - before;
  return run;
}

Result<RunResult> RowEngine::RunSelectPartitioned(const std::string& base,
                                                  const std::string& column,
                                                  const RangeBounds& range,
                                                  Delivery delivery) {
  if (delivery == Delivery::kMaterialize) {
    return Status::Unimplemented(
        "partitioned materialize: run per-fragment RunSelect instead");
  }
  CRACK_ASSIGN_OR_RETURN(
      std::vector<FragmentInfo> fragments,
      catalog_.FragmentsIntersecting(base, column, range.lo, range.hi));

  RunResult run;
  IoStats before = TotalStats();
  WallTimer timer;

  std::unique_ptr<ResultSink> sink = StreamSink(delivery);
  for (const FragmentInfo& frag : fragments) {
    auto table = catalog_.GetRowTable(frag.fragment_table);
    if (!table.ok()) return table.status();
    int col = (*table)->schema().FieldIndex(column);
    if (col < 0) {
      return Status::NotFound("no column '" + column + "' in fragment");
    }
    FilterIterator tree(std::make_unique<SeqScanIterator>(*table),
                        static_cast<size_t>(col), range);
    bool truncated = false;
    CRACK_ASSIGN_OR_RETURN(uint64_t n, Drain(&tree, sink.get(), &truncated));
    run.count += n;
    run.truncated |= truncated;
  }
  run.seconds = timer.ElapsedSeconds();
  run.io = TotalStats() - before;
  run.bytes_shipped = BytesShipped(delivery, *sink);
  return run;
}

Result<RunResult> RowEngine::RunChainJoin(
    const std::vector<std::string>& tables, const std::string& out_col,
    const std::string& in_col) {
  if (tables.size() < 2) {
    return Status::InvalidArgument("chain join needs at least two tables");
  }

  RunResult run;
  IoStats before = TotalStats();
  WallTimer timer;

  PlanDecision plan = PlanChainJoin(tables.size(), options_.optimizer);
  run.join_algo = plan.algo;
  run.plans_considered = plan.plans_considered;

  // Left-deep pipeline.
  std::unique_ptr<RowIterator> tree;
  size_t width = 0;
  size_t last_out_idx = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    auto table = catalog_.GetRowTable(tables[i]);
    if (!table.ok()) return table.status();
    const Schema& schema = (*table)->schema();
    int out_idx = schema.FieldIndex(out_col);
    int in_idx = schema.FieldIndex(in_col);
    if (out_idx < 0 || in_idx < 0) {
      return Status::NotFound("join columns missing in " + tables[i]);
    }
    auto scan = std::make_unique<SeqScanIterator>(*table);
    if (i == 0) {
      tree = std::move(scan);
    } else {
      size_t left_col = width - last_out_idx;  // see below
      if (plan.algo == JoinAlgo::kHash) {
        tree = std::make_unique<HashJoinIterator>(
            std::move(tree), std::move(scan), left_col,
            static_cast<size_t>(in_idx));
      } else {
        tree = std::make_unique<NestedLoopJoinIterator>(
            std::move(tree), std::move(scan), left_col,
            static_cast<size_t>(in_idx));
      }
    }
    // The out column of table i sits at concatenated offset
    // width + out_idx; remember its distance from the new width.
    last_out_idx = schema.num_columns() - static_cast<size_t>(out_idx);
    width += schema.num_columns();
  }

  CountSink sink;
  CRACK_ASSIGN_OR_RETURN(run.count, Drain(tree.get(), &sink, &run.truncated));
  run.seconds = timer.ElapsedSeconds();
  run.io = TotalStats() - before;
  return run;
}

}  // namespace crackstore
