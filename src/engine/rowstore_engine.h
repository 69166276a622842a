// Copyright 2026 The CrackStore Authors
//
// RowEngine: the traditional N-ary engine stand-in (MySQL/PostgreSQL/SQLite
// class in the paper's experiments). Tuple-at-a-time Volcano execution over
// journaled slotted-page tables, a catalog for partitioned tables, and a
// plan-budgeted optimizer. Used by the Fig. 1 / Fig. 9 / §5.1 benchmarks.

#ifndef CRACKSTORE_ENGINE_ROWSTORE_ENGINE_H_
#define CRACKSTORE_ENGINE_ROWSTORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/access_path.h"  // Delivery
#include "core/range_bounds.h"
#include "engine/plan_optimizer.h"
#include "engine/sinks.h"
#include "engine/volcano.h"
#include "rowstore/row_table.h"
#include "storage/relation.h"
#include "util/result.h"

namespace crackstore {

/// Measured outcome of one statement.
struct RunResult {
  uint64_t count = 0;        ///< result tuples
  double seconds = 0.0;      ///< wall clock
  IoStats io;                ///< deterministic cost delta
  uint64_t bytes_shipped = 0;  ///< kView only: wire bytes
  bool truncated = false;      ///< deadline hit before completion
  JoinAlgo join_algo = JoinAlgo::kHash;  ///< chain joins only
  uint64_t plans_considered = 0;         ///< chain joins only
};

/// Engine-wide knobs.
struct RowEngineOptions {
  RowTableOptions table_options;       ///< journaled vs light tables
  PlanOptimizerOptions optimizer;      ///< plan-space budget (Fig. 9)
  double statement_deadline_seconds = 0.0;  ///< 0 = no deadline
};

/// See file comment.
class RowEngine {
 public:
  explicit RowEngine(RowEngineOptions options = {});
  CRACK_DISALLOW_COPY_AND_ASSIGN(RowEngine);

  /// Bulk-loads a column relation into a new row table registered in the
  /// catalog. Loading is journaled per `table_options`.
  Result<std::shared_ptr<RowTable>> ImportRelation(const Relation& relation,
                                                   std::string table_name = "");

  /// SELECT <*> FROM `table` WHERE `column` IN range, delivered per
  /// `delivery` (Fig. 1): kCount counts, kView prints (ships every row
  /// through a FrontendSink), kMaterialize inserts into a new table named
  /// `result_name` (dropped and recreated when it exists).
  Result<RunResult> RunSelect(const std::string& table,
                              const std::string& column,
                              const RangeBounds& range, Delivery delivery,
                              const std::string& result_name = "tmp_result");

  /// The §5.1 SQL-level Ξ cracker: two full scans split `table` into
  /// fragments `<base>_in` (predicate true) and `<base>_out` (false), both
  /// materialized, journaled, and registered as partitions of `base`.
  Result<RunResult> CrackTableSql(const std::string& table,
                                  const std::string& column,
                                  const RangeBounds& range,
                                  const std::string& base);

  /// SELECT over a partitioned table: prunes fragments via catalog bounds,
  /// scans only intersecting fragments (the post-crack fast path of §5.1).
  /// Counts or prints; kMaterialize is Unimplemented (run RunSelect per
  /// fragment instead).
  Result<RunResult> RunSelectPartitioned(const std::string& base,
                                         const std::string& column,
                                         const RangeBounds& range,
                                         Delivery delivery);

  /// k-way linear chain join (Fig. 9): counts tables[0] ⋈ tables[1] ⋈ ...
  /// with join condition left.`out_col` == right.`in_col`. The optimizer
  /// picks hash joins while its plan budget lasts and nested loops beyond
  /// it.
  Result<RunResult> RunChainJoin(const std::vector<std::string>& tables,
                                 const std::string& out_col,
                                 const std::string& in_col);

  Catalog& catalog() { return catalog_; }
  const RowEngineOptions& options() const { return options_; }

 private:
  /// Snapshot of all counters this engine can touch.
  IoStats TotalStats() const;

  /// Pulls `root` to completion into `sink`, honouring the deadline.
  Result<uint64_t> Drain(RowIterator* root, ResultSink* sink,
                         bool* truncated);

  RowEngineOptions options_;
  Catalog catalog_;
  std::shared_ptr<Journal> journal_;
  uint64_t import_counter_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_ENGINE_ROWSTORE_ENGINE_H_
