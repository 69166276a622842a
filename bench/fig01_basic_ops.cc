// Copyright 2026 The CrackStore Authors
//
// Figure 1 (a,b,c): "Response time for basic operations" — response time vs
// selectivity for (a) materialization into a temporary table, (b) sending
// the output to the front-end, (c) just counting the qualifying tuples.
//
// The paper ran MySQL/ISAM, PostgreSQL, SQLite and MonetDB out of the box;
// we run the three architectural classes built in this repository:
//   txn-row   — journaled slotted-page row store (PostgreSQL/MySQL class)
//   lite-row  — the same engine without the redo journal (SQLite-in-memory
//               / ISAM class)
//   column    — the adaptive store with the scan strategy (MonetDB class:
//               operator-at-a-time over whole BATs). SelectRange counts
//               (kCount) or gathers the qualifying rows column-at-a-time
//               into a new relation (kMaterialize); print materializes, then
//               ships every row of the result through the row engine's
//               FrontendSink.
// The row engines print through the same sink (Delivery::kView).
// Expected shape: (a) expensive and linear in the fragment size, dominated
// by transactional materialization; (b) cheaper; (c) cheapest and flat-ish;
// the column line below the row engines throughout.
//
// Output: CSV rows (mode, engine, selectivity_pct, seconds, tuples,
// tuples_read, tuples_written, journal_writes, bytes_shipped).

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/rowstore_engine.h"
#include "util/timer.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

/// Fig. 1's name for a delivery: kView ships rows to the front-end.
const char* ModeName(Delivery delivery) {
  switch (delivery) {
    case Delivery::kMaterialize:
      return "materialize";
    case Delivery::kView:
      return "print";
    case Delivery::kCount:
      return "count";
  }
  return "?";
}

/// One statement of the column line: a count, or a materialization that a
/// print then ships row by row through a FrontendSink.
Result<RunResult> ColumnSelect(AdaptiveStore* store, const RangeBounds& range,
                               Delivery delivery) {
  RunResult run;
  WallTimer timer;
  const Delivery gather =
      delivery == Delivery::kCount ? Delivery::kCount : Delivery::kMaterialize;
  CRACK_ASSIGN_OR_RETURN(QueryResult result,
                         store->SelectRange("R", "c0", range, gather));
  run.count = result.count;
  run.io = result.io;
  if (delivery == Delivery::kView) {
    const Relation& rows = *result.materialized;
    FrontendSink sink;
    std::vector<Value> row(rows.num_columns());
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      for (size_t c = 0; c < rows.num_columns(); ++c) {
        row[c] = rows.column(c)->GetValue(r);
      }
      CRACK_RETURN_NOT_OK(sink.Consume(row));
    }
    run.bytes_shipped = sink.bytes_shipped();
  }
  run.seconds = timer.ElapsedSeconds();
  return run;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = flags.GetUint("n", 200000);
  uint64_t seed = flags.GetUint("seed", 20040901);

  bench::Banner("fig01_basic_ops", "Fig. 1 (a,b,c) of CIDR'05 cracking",
                StrFormat("n=%llu seed=%llu (--n=, --seed=)",
                          static_cast<unsigned long long>(n),
                          static_cast<unsigned long long>(seed)));

  TapestryOptions topts;
  topts.num_rows = n;
  topts.num_columns = 2;
  topts.seed = seed;
  auto rel = BuildTapestry("R", topts);
  if (!rel.ok()) {
    std::fprintf(stderr, "tapestry: %s\n", rel.status().ToString().c_str());
    return 1;
  }

  RowEngineOptions txn_opts;
  txn_opts.table_options.journaled = true;
  RowEngine txn_row(txn_opts);
  RowEngineOptions lite_opts;
  lite_opts.table_options.journaled = false;
  RowEngine lite_row(lite_opts);
  DbOptions column_opts;
  column_opts.strategy = AccessStrategy::kScan;
  auto column = AdaptiveStore::Open(column_opts);
  if (!txn_row.ImportRelation(**rel).ok() ||
      !lite_row.ImportRelation(**rel).ok() || !column.ok() ||
      !(*column)->AddTable(*rel).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  const std::vector<double> selectivities{0.01, 0.02, 0.05, 0.1, 0.2,
                                          0.3,  0.4,  0.5,  0.6, 0.7,
                                          0.8,  0.9,  1.0};
  TablePrinter out;
  out.SetHeader({"mode", "engine", "selectivity_pct", "seconds", "tuples",
                 "tuples_read", "tuples_written", "journal_writes",
                 "bytes_shipped"});

  auto emit = [&out](const char* mode, const char* engine, double sel,
                     const RunResult& run) {
    out.AddRow({mode, engine, StrFormat("%.0f", sel * 100),
                StrFormat("%.6f", run.seconds),
                StrFormat("%llu", static_cast<unsigned long long>(run.count)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.io.tuples_read)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      run.io.tuples_written)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      run.io.journal_writes)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.bytes_shipped))});
  };

  for (Delivery delivery :
       {Delivery::kMaterialize, Delivery::kView, Delivery::kCount}) {
    for (double sel : selectivities) {
      RangeBounds range = RangeBounds::Closed(
          1, static_cast<int64_t>(sel * static_cast<double>(n)));
      auto a = txn_row.RunSelect("R", "c0", range, delivery, "tmp_txn");
      auto b = lite_row.RunSelect("R", "c0", range, delivery, "tmp_lite");
      auto c = ColumnSelect(column->get(), range, delivery);
      if (!a.ok() || !b.ok() || !c.ok()) {
        std::fprintf(stderr, "query failed\n");
        return 1;
      }
      emit(ModeName(delivery), "txn-row", sel, *a);
      emit(ModeName(delivery), "lite-row", sel, *b);
      emit(ModeName(delivery), "column", sel, *c);
    }
  }
  out.PrintCsv(stdout);
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
