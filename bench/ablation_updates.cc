// Copyright 2026 The CrackStore Authors
//
// Ablation (§2.2/§7): "What are the effects of updates on the scheme
// proposed?" — quantified end-to-end through the public AdaptiveStore
// facade, so every write crosses the type-erased access path exactly as
// SQL DML does. Two phases per (updates_per_query, merge_policy) point:
//
//   * auto-commit — a 128-query random range workload interleaved with
//     varying update rates (inserts+deletes per query), the PR 2 shape;
//   * txn-mixed   — the same workload wrapped in snapshot transactions
//     that alternate COMMIT and ROLLBACK, so MVCC stamping, conflict
//     admission and undo cost show up in the perf trajectory, followed by
//     a VACUUM whose reclaim is measured separately.
//
// Output: CSV rows (phase, updates_per_query, merge_policy, total_seconds,
// vacuum_seconds, tuples_read, tuples_written, merges, pending_at_end,
// versions_at_end, final_pieces); --json=PATH additionally writes the
// series as a BENCH_*.json document (the trajectory CI uploads).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_store.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

struct PolicyPoint {
  DeltaMergePolicy policy;
  double fraction;
  const char* label;
};

struct RowOut {
  const char* phase;
  uint64_t updates_per_query;
  const char* policy;
  double seconds;
  double vacuum_seconds;
  uint64_t tuples_read;
  uint64_t tuples_written;
  size_t merges;
  size_t pending;
  size_t versions;
  size_t pieces;
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = flags.GetUint("n", 1000000);
  size_t queries = flags.GetUint("queries", 128);
  double sigma = flags.GetDouble("sigma", 0.02);
  uint64_t seed = flags.GetUint("seed", 20040901);
  std::string json_path = flags.GetString("json", "");

  bench::Banner("ablation_updates",
                "§2.2/§7 updates question, DML + MVCC txns through the facade",
                StrFormat("n=%llu queries=%zu sigma=%.2f "
                          "(--n= --queries= --sigma= --seed= --json=)",
                          static_cast<unsigned long long>(n), queries,
                          sigma));

  int64_t n64 = static_cast<int64_t>(n);
  int64_t width = std::max<int64_t>(
      1, static_cast<int64_t>(sigma * static_cast<double>(n)));

  const PolicyPoint kPolicies[] = {
      {DeltaMergePolicy::kImmediate, 0.0, "immediate"},
      {DeltaMergePolicy::kThreshold, 0.01, "threshold-0.01"},
      {DeltaMergePolicy::kThreshold, 0.10, "threshold-0.10"},
      {DeltaMergePolicy::kRippleOnSelect, 0.0, "ripple"},
  };

  std::vector<RowOut> rows;
  for (int phase = 0; phase <= 1; ++phase) {
    bool txn_mixed = phase == 1;
    for (uint64_t updates_per_query : {0ULL, 1ULL, 10ULL, 100ULL}) {
      for (const PolicyPoint& point : kPolicies) {
        auto column = BuildPermutationColumn(n, seed, "c0");
        auto relation = Relation::FromColumns(
            "R", Schema({{"c0", ValueType::kInt64}}), {column});
        CRACK_CHECK(relation.ok());

        DbOptions opts;
        opts.strategy = AccessStrategy::kCrack;
        opts.delta_merge.policy = point.policy;
        if (point.fraction > 0) {
          opts.delta_merge.threshold_fraction = point.fraction;
        }
        opts.track_lineage = false;  // measure the write path, not the DAG
        auto store_or = bench::OpenStore(flags, opts);
        CRACK_CHECK(store_or.ok());
        AdaptiveStore& store = **store_or;
        CRACK_CHECK(store.AddTable(*relation).ok());

        Pcg32 rng(seed ^ 0x5EED);
        std::vector<Oid> live_inserted;
        WallTimer timer;
        for (size_t q = 0; q < queries; ++q) {
          TxnId txn = kNoTxn;
          if (txn_mixed) {
            auto begun = store.Begin();
            CRACK_CHECK(begun.ok());
            txn = *begun;
          }
          for (uint64_t u = 0; u < updates_per_query; ++u) {
            if (rng.NextBounded(4) != 0 || live_inserted.empty()) {
              int64_t v = rng.NextInRange(1, n64);
              auto inserted = store.Insert("R", {Value(v)}, txn);
              CRACK_CHECK(inserted.ok());
              live_inserted.push_back(inserted->inserted_oid);
            } else {
              size_t pick = rng.NextBounded(
                  static_cast<uint32_t>(live_inserted.size()));
              CRACK_CHECK(
                  store.DeleteOids("R", {live_inserted[pick]}, txn).ok());
              live_inserted.erase(live_inserted.begin() +
                                  static_cast<ptrdiff_t>(pick));
            }
          }
          int64_t lo = rng.NextInRange(1, std::max<int64_t>(1, n64 - width));
          auto sel = store.SelectRange("R", "c0",
                                       RangeBounds::Closed(lo, lo + width - 1),
                                       Delivery::kCount, txn);
          CRACK_CHECK(sel.ok());
          if (txn_mixed) {
            // Alternate committers and aborters: half the write volume is
            // undone, so both stamping and rollback cost are in the clock.
            if (q % 2 == 0) {
              CRACK_CHECK(store.Commit(txn).ok());
            } else {
              CRACK_CHECK(store.Rollback(txn).ok());
              // The rolled-back inserts are dead; stop deleting them.
              size_t undone = std::min<uint64_t>(live_inserted.size(),
                                                 updates_per_query);
              live_inserted.resize(live_inserted.size() - undone);
            }
          }
        }
        double seconds = timer.ElapsedSeconds();
        // Version-log footprint before vacuum reclaims it.
        size_t versions = 0;
        auto counts = store.VersionCountsFor("R");
        if (counts.ok()) {
          versions = counts->row_versions + counts->chain_entries;
        }
        double vacuum_seconds = 0.0;
        if (txn_mixed) {
          WallTimer vtimer;
          CRACK_CHECK(store.Vacuum().ok());
          vacuum_seconds = vtimer.ElapsedSeconds();
        }
        const IoStats& io = store.total_io();
        auto path = store.AccessPathFor("R", "c0");
        RowOut row;
        row.phase = txn_mixed ? "txn-mixed" : "auto-commit";
        row.updates_per_query = updates_per_query;
        row.policy = point.label;
        row.seconds = seconds;
        row.vacuum_seconds = vacuum_seconds;
        row.tuples_read = io.tuples_read;
        row.tuples_written = io.tuples_written;
        row.merges = path.ok() ? (*path)->merges_performed() : 0;
        row.pending = path.ok() ? (*path)->pending_inserts() : 0;
        row.versions = versions;
        row.pieces = *store.NumPieces("R", "c0");
        rows.push_back(row);
        std::fprintf(stderr, "# %s u=%llu %s  %.3fs (+%.3fs vacuum)\n",
                     row.phase,
                     static_cast<unsigned long long>(updates_per_query),
                     row.policy, row.seconds, row.vacuum_seconds);
      }
    }
  }

  TablePrinter out;
  out.SetHeader({"phase", "updates_per_query", "merge_policy",
                 "total_seconds", "vacuum_seconds", "tuples_read",
                 "tuples_written", "merges", "pending_at_end",
                 "versions_at_end", "final_pieces"});
  for (const RowOut& r : rows) {
    out.AddRow({r.phase,
                StrFormat("%llu",
                          static_cast<unsigned long long>(r.updates_per_query)),
                r.policy, StrFormat("%.6f", r.seconds),
                StrFormat("%.6f", r.vacuum_seconds),
                StrFormat("%llu",
                          static_cast<unsigned long long>(r.tuples_read)),
                StrFormat("%llu",
                          static_cast<unsigned long long>(r.tuples_written)),
                StrFormat("%zu", r.merges), StrFormat("%zu", r.pending),
                StrFormat("%zu", r.versions), StrFormat("%zu", r.pieces)});
  }
  out.PrintCsv(stdout);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_updates\",\n"
                 "  \"n\": %llu,\n  \"queries\": %zu,\n  \"results\": [\n",
                 static_cast<unsigned long long>(n), queries);
    for (size_t i = 0; i < rows.size(); ++i) {
      const RowOut& r = rows[i];
      std::fprintf(
          f,
          "    {\"phase\": \"%s\", \"updates_per_query\": %llu, "
          "\"merge_policy\": \"%s\", \"total_seconds\": %.6f, "
          "\"vacuum_seconds\": %.6f, \"tuples_read\": %llu, "
          "\"tuples_written\": %llu, \"merges\": %zu, "
          "\"pending_at_end\": %zu, \"versions_at_end\": %zu, "
          "\"final_pieces\": %zu}%s\n",
          r.phase, static_cast<unsigned long long>(r.updates_per_query),
          r.policy, r.seconds, r.vacuum_seconds,
          static_cast<unsigned long long>(r.tuples_read),
          static_cast<unsigned long long>(r.tuples_written), r.merges,
          r.pending, r.versions, r.pieces,
          i + 1 < rows.size() ? "," : "");
    }
    // Commit-log activity for the run (all zeros when --db= is absent and
    // the store is purely in memory) — the WAL-overhead gate in CI reads
    // these alongside the timings.
    std::fprintf(
        f, "  ],\n  \"wal\": %s\n}\n",
        obs::MetricsRegistry::Global().RenderJson("wal.%").c_str());
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
