// Copyright 2026 The CrackStore Authors
//
// Data-mining drill-down (the paper's "homerun" user, §4): an analyst zooms
// into a region of statistical interest over a 16-step refinement session.
// We run the identical session twice — against plain scans and against the
// cracking store — and print the per-step and cumulative times side by
// side. This is a runnable miniature of Figure 10.
//
// Build & run:  ./build/examples/datamining_zoom

#include <cstdio>

#include "core/adaptive_store.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

using namespace crackstore;  // NOLINT — example brevity

int main() {
  constexpr uint64_t kRows = 1000000;
  TapestryOptions topts;
  topts.num_rows = kRows;
  topts.num_columns = 3;  // e.g. (timestamp, sensor, magnitude) surrogates
  auto table = *BuildTapestry("events", topts);

  // A 16-step homerun session: the user trims the candidate set quickly
  // (exponential contraction) down to 2% of the table.
  MqsSpec spec;
  spec.num_rows = kRows;
  spec.sequence_length = 16;
  spec.target_selectivity = 0.02;
  spec.rho = ContractionModel::kExponential;
  spec.profile = Profile::kHomerun;
  auto queries = *GenerateSequence(spec);

  DbOptions scan_opts;
  scan_opts.strategy = AccessStrategy::kScan;
  auto scan_db = AdaptiveStore::Open(scan_opts);
  auto crack_db = AdaptiveStore::Open(DbOptions{});  // default: cracking
  if (!scan_db.ok() || !crack_db.ok()) return 1;
  AdaptiveStore& scans = **scan_db;
  AdaptiveStore& cracks = **crack_db;
  (void)scans.AddTable(table);
  (void)cracks.AddTable(table);

  std::printf("step | selectivity |   scan ms | crack ms | crack touched\n");
  std::printf("-----+-------------+-----------+----------+--------------\n");
  double scan_total = 0;
  double crack_total = 0;
  for (const RangeQuery& q : queries) {
    RangeBounds range = RangeBounds::Closed(q.lo, q.hi);
    auto s = *scans.SelectRange("events", "c0", range);
    auto c = *cracks.SelectRange("events", "c0", range);
    scan_total += s.seconds;
    crack_total += c.seconds;
    std::printf("%4zu | %10.1f%% | %9.3f | %8.3f | %13llu\n", q.step,
                q.selectivity * 100, s.seconds * 1e3, c.seconds * 1e3,
                static_cast<unsigned long long>(c.io.tuples_read));
  }
  std::printf("-----+-------------+-----------+----------+--------------\n");
  std::printf("totals: scan %.3f ms, crack %.3f ms (%.1fx), final pieces=%zu\n",
              scan_total * 1e3, crack_total * 1e3,
              scan_total / crack_total, *cracks.NumPieces("events", "c0"));

  // The lineage DAG of the session (paper Figs. 5-6), ready for graphviz.
  std::printf("\nlineage (dot, first lines):\n");
  std::string dot = cracks.lineage().ToDot();
  std::printf("%.400s...\n", dot.c_str());
  return 0;
}
