// Copyright 2026 The CrackStore Authors
//
// Figure 9: "Linear join experiment" — response time of a k-way linear join
// (self-join chain unrolling the reachability relation of a random-pair
// table) for k up to 128. The paper's traditional engines exhaust their
// optimizers and fall back to nested loops (or break outright); MonetDB
// stays efficient. Here:
//   column      — BAT-at-a-time chain (MonetDB class): every join step runs
//                 the reference hash join HashJoinOids(R.c1, R.c0) over the
//                 whole columns and carries the number of join paths ending
//                 at each row by oid; linear in k.
//   row-default — Volcano row engine with a realistic plan budget: hash
//                 joins while the optimizer copes (k <= ~8), nested-loop
//                 fallback with a statement deadline beyond that —
//                 "running out of optimizer resource space".
//   row-nl      — the same engine forced to nested loops from the start
//                 (the broken/timeouted runs the paper reports;
//                 truncated=1 rows are "the system gave up").
//
// Tapestry columns are permutations, so every chain has exactly one path
// per row: the bench exits non-zero when a load or any chain run fails, or
// when a column chain counts anything but n paths.
//
// Output: CSV rows (engine, joins, seconds, result_tuples, algo,
// plans_considered, truncated).

#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/join_cracker.h"
#include "engine/rowstore_engine.h"
#include "util/timer.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

/// The column line: a `joins`-step chain R ⋈ R ⋈ ... on c1 = c0, one whole
/// reference hash join per step. paths[i] counts the join paths that end at
/// row i of the chain's current operand.
Result<RunResult> ColumnChainJoin(const Relation& rel, size_t joins) {
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> out_col, rel.column("c1"));
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> in_col, rel.column("c0"));
  RunResult run;
  WallTimer timer;
  const Oid base = in_col->head_base();
  std::vector<uint64_t> paths(rel.num_rows(), 1);
  for (size_t step = 0; step < joins; ++step) {
    CRACK_ASSIGN_OR_RETURN(std::vector<OidPair> pairs,
                           HashJoinOids(out_col, in_col, &run.io));
    std::vector<uint64_t> next(rel.num_rows(), 0);
    for (const OidPair& p : pairs) next[p.right - base] += paths[p.left - base];
    paths = std::move(next);
  }
  run.count = std::accumulate(paths.begin(), paths.end(), uint64_t{0});
  run.seconds = timer.ElapsedSeconds();
  return run;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n_col = flags.GetUint("n", 100000);
  uint64_t n_row = flags.GetUint("n_row", 20000);
  double deadline = flags.GetDouble("deadline", 2.0);
  uint64_t seed = flags.GetUint("seed", 20040901);
  uint64_t max_joins = flags.GetUint("max_joins", 128);

  bench::Banner(
      "fig09_join_sequence", "Fig. 9 of CIDR'05 cracking",
      StrFormat("n=%llu n_row=%llu deadline=%.1fs max_joins=%llu",
                static_cast<unsigned long long>(n_col),
                static_cast<unsigned long long>(n_row), deadline,
                static_cast<unsigned long long>(max_joins)));

  // One random-pair table per engine; the chain self-joins it repeatedly
  // ("unrolling the reachability relation", §5.1).
  TapestryOptions topts;
  topts.num_rows = n_col;
  topts.seed = seed;
  auto col_rel = BuildTapestry("R", topts);
  topts.num_rows = n_row;
  auto row_rel = BuildTapestry("R", topts);

  RowEngineOptions default_opts;  // stock plan budget: exhausts near k=10
  default_opts.statement_deadline_seconds = deadline;
  RowEngine row_default(default_opts);

  RowEngineOptions nl_opts;
  nl_opts.optimizer.plan_budget = 1;  // always exhausted: nested loop
  nl_opts.statement_deadline_seconds = deadline;
  RowEngine row_nl(nl_opts);

  if (!col_rel.ok() || !row_rel.ok() ||
      !row_default.ImportRelation(**row_rel).ok() ||
      !row_nl.ImportRelation(**row_rel).ok()) {
    std::fprintf(stderr, "load failed\n");
    return 1;
  }

  TablePrinter out;
  out.SetHeader({"engine", "joins", "seconds", "result_tuples", "algo",
                 "plans_considered", "truncated"});
  auto emit = [&out](const char* engine, size_t joins, const RunResult& run) {
    out.AddRow({engine, StrFormat("%zu", joins),
                StrFormat("%.6f", run.seconds),
                StrFormat("%llu", static_cast<unsigned long long>(run.count)),
                JoinAlgoName(run.join_algo),
                StrFormat("%llu",
                          static_cast<unsigned long long>(run.plans_considered)),
                run.truncated ? "1" : "0"});
  };

  std::vector<size_t> chain_lengths;
  for (size_t k = 2; k <= max_joins; k *= 2) chain_lengths.push_back(k);

  bool row_nl_dead = false;
  bool row_default_dead = false;
  for (size_t k : chain_lengths) {
    std::vector<std::string> chain(k + 1, "R");  // k joins need k+1 operands

    auto col_run = ColumnChainJoin(**col_rel, k);
    if (!col_run.ok()) {
      std::fprintf(stderr, "column chain k=%zu: %s\n", k,
                   col_run.status().ToString().c_str());
      return 1;
    }
    if (col_run->count != n_col) {
      std::fprintf(stderr, "column chain k=%zu: %llu paths, want %llu\n", k,
                   static_cast<unsigned long long>(col_run->count),
                   static_cast<unsigned long long>(n_col));
      return 1;
    }
    emit("column", k, *col_run);

    // One row engine's chain, unless its series already timed out; false
    // when the run fails.
    auto run_row = [&](const char* engine_name, RowEngine* engine,
                       bool* dead) {
      if (*dead) return true;
      auto run = engine->RunChainJoin(chain, "c1", "c0");
      if (!run.ok()) {
        std::fprintf(stderr, "%s chain k=%zu: %s\n", engine_name, k,
                     run.status().ToString().c_str());
        return false;
      }
      emit(engine_name, k, *run);
      *dead = run->truncated;  // the series ends once it times out
      return true;
    };
    if (!run_row("row-default", &row_default, &row_default_dead) ||
        !run_row("row-nl", &row_nl, &row_nl_dead)) {
      return 1;
    }
  }
  out.PrintCsv(stdout);
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
