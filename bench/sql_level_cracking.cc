// Copyright 2026 The CrackStore Authors
//
// §5.1 "Crackers in an SQL Environment": the cost anatomy of cracking a
// table at the SQL level, treating the engine as a black box. Reproduces
// the narrative experiment: a 5%-selectivity query costs X to answer,
// storing the answer costs more, and *cracking* (two SELECT INTO scans plus
// catalog work) costs a multiple of that — an investment that is hard to
// recover at this level, while sorting the column costs even more. Then
// shows the post-crack payoff: partition-pruned selects.
//
// Output: CSV rows (operation, seconds, tuples_read, tuples_written,
// journal_writes, catalog_ops, result_tuples).

#include <string>

#include "bench_common.h"
#include "core/sorted_column.h"
#include "engine/rowstore_engine.h"
#include "util/timer.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = flags.GetUint("n", 200000);
  double sigma = flags.GetDouble("sigma", 0.05);
  uint64_t seed = flags.GetUint("seed", 20040901);

  bench::Banner("sql_level_cracking", "§5.1 of CIDR'05 cracking",
                StrFormat("n=%llu sigma=%.2f",
                          static_cast<unsigned long long>(n), sigma));

  TapestryOptions topts;
  topts.num_rows = n;
  topts.seed = seed;
  auto rel = *BuildTapestry("R", topts);

  RowEngine engine;
  CRACK_CHECK(engine.ImportRelation(*rel).ok());

  int64_t hi = static_cast<int64_t>(sigma * static_cast<double>(n));
  RangeBounds pred = RangeBounds::AtMost(hi);

  TablePrinter out;
  out.SetHeader({"operation", "seconds", "tuples_read", "tuples_written",
                 "journal_writes", "catalog_ops", "result_tuples"});
  auto emit = [&out](const std::string& op, const RunResult& run) {
    out.AddRow({op, StrFormat("%.6f", run.seconds),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.io.tuples_read)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      run.io.tuples_written)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      run.io.journal_writes)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.io.catalog_ops)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.count))});
  };

  // 1) Deliver the answer to the GUI (the cheap case the narrative starts
  //    from).
  emit("select_print", *engine.RunSelect("R", "c0", pred, Delivery::kView));
  // 2) Store the same answer in a temporary table (adds transactional
  //    materialization).
  emit("select_into", *engine.RunSelect("R", "c0", pred,
                                        Delivery::kMaterialize, "tmp"));
  // 3) Crack the table at the SQL level: two scans, two materializations,
  //    catalog registration — "the investment ... is hard to turn into a
  //    profit".
  emit("crack_table_sql", *engine.CrackTableSql("R", "c0", pred, "Rp"));
  // 4) The payoff: the same query against the partitioned table prunes to
  //    the in-fragment.
  emit("select_partitioned",
       *engine.RunSelectPartitioned("Rp", "c0", pred, Delivery::kView));
  // 5) A narrower follow-up query also prunes.
  emit("followup_partitioned",
       *engine.RunSelectPartitioned("Rp", "c0",
                                    RangeBounds::Closed(1, hi / 2),
                                    Delivery::kView));
  // 6) The sorting alternative on the raw column ("sorting the table on
  //    this attribute alone took about 250 seconds" — relatively, the most
  //    expensive single operation here as well).
  {
    RunResult sort_run;
    WallTimer timer;
    IoStats stats;
    SortedColumn<int64_t> sorted(*rel->column("c0"), &stats);
    sort_run.seconds = timer.ElapsedSeconds();
    sort_run.io = stats;
    sort_run.count = sorted.size();
    emit("sort_column", sort_run);
  }
  // 7) Aggregation below the SQL level: SUM over the same predicate against
  //    a warmed cracked column, first materialize-then-loop (collect the
  //    oid view, gather every value), then the span-kernel pushdown that
  //    never builds the oid list. The gap is the result-materialization tax
  //    §5.1 charges every SQL-level answer.
  {
    DbOptions sopts;
    auto store = *bench::OpenStore(flags, sopts);
    auto agg_rel = *BuildTapestry("R", topts);
    CRACK_CHECK(store->AddTable(agg_rel).ok());
    CRACK_CHECK(store->SelectRange("R", "c0", pred).ok());  // warm the crack

    const int64_t* base =
        reinterpret_cast<const int64_t*>((*agg_rel->column("c0"))->raw_data());
    int64_t mat_sum = 0;
    {
      RunResult mat;
      WallTimer timer;
      auto qr = *store->SelectRange("R", "c0", pred, Delivery::kView);
      for (Oid oid : qr.CollectOids()) mat_sum += base[oid];
      mat.seconds = timer.ElapsedSeconds();
      mat.io = qr.io;
      mat.count = qr.count;
      emit("agg_materialize", mat);
    }
    {
      RunResult push;
      WallTimer timer;
      auto agg = store->AggregateRange("R", "c0", pred);
      push.seconds = timer.ElapsedSeconds();
      if (agg.ok()) {
        CRACK_CHECK(agg->sum == mat_sum);
        push.io = agg->io;
        push.count = agg->rows;
      }
      emit("agg_pushdown", push);
    }
  }

  out.PrintCsv(stdout);
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
