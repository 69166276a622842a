// Copyright 2026 The CrackStore Authors
//
// Figure 10: "Homerun experiment (MonetDB)" — cumulative response time of a
// homerun query sequence of up to 128 steps against a 1M tapestry column,
// with and without cracking, for target selectivities 5%, 45% and 75%.
// Expected shape: the nocrack lines grow linearly (every query scans);
// cracking overtakes after a few steps and per-step times approach those of
// a fully indexed table.
//
// Output: CSV rows (step, then cumulative seconds and cumulative
// tuples_read for crack/nocrack at each selectivity).

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_store.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

struct Series {
  std::vector<double> cumulative_seconds;
  std::vector<uint64_t> cumulative_reads;
};

Series RunSeries(const bench::Flags& flags,
                 const std::shared_ptr<Relation>& rel,
                 const std::vector<RangeQuery>& queries,
                 AccessStrategy strategy) {
  DbOptions opts;
  opts.strategy = strategy;
  opts.track_lineage = false;
  auto store_or = bench::OpenStore(flags, opts);
  CRACK_CHECK(store_or.ok());
  AdaptiveStore& store = **store_or;
  CRACK_CHECK(store.AddTable(rel).ok());

  Series series;
  double total_seconds = 0;
  uint64_t total_reads = 0;
  for (const RangeQuery& q : queries) {
    auto result =
        store.SelectRange(rel->name(), "c0", RangeBounds::Closed(q.lo, q.hi));
    CRACK_CHECK(result.ok());
    total_seconds += result->seconds;
    total_reads += result->io.tuples_read;
    series.cumulative_seconds.push_back(total_seconds);
    series.cumulative_reads.push_back(total_reads);
  }
  return series;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = flags.GetUint("n", 1000000);
  size_t k = flags.GetUint("k", 128);
  uint64_t seed = flags.GetUint("seed", 20040901);
  ContractionModel rho =
      ContractionModelFromString(flags.GetString("rho", "linear"));

  bench::Banner("fig10_homerun", "Fig. 10 of CIDR'05 cracking",
                StrFormat("n=%llu k=%zu rho=%s (--n=, --k=, --rho=linear|"
                          "exp|log, --seed=)",
                          static_cast<unsigned long long>(n), k,
                          ContractionModelName(rho)));

  TapestryOptions topts;
  topts.num_rows = n;
  topts.seed = seed;
  auto rel = *BuildTapestry("R", topts);

  const std::vector<double> targets{0.05, 0.45, 0.75};
  std::vector<Series> crack_series;
  std::vector<Series> scan_series;
  for (double sigma : targets) {
    MqsSpec spec;
    spec.num_rows = n;
    spec.sequence_length = k;
    spec.target_selectivity = sigma;
    spec.rho = rho;
    spec.profile = Profile::kHomerun;
    spec.seed = seed;
    auto queries = *GenerateSequence(spec);
    crack_series.push_back(RunSeries(flags, rel, queries, AccessStrategy::kCrack));
    scan_series.push_back(RunSeries(flags, rel, queries, AccessStrategy::kScan));
  }

  std::vector<std::string> header{"step"};
  for (double sigma : targets) {
    header.push_back(StrFormat("crack_%.0fpct_s", sigma * 100));
    header.push_back(StrFormat("nocrack_%.0fpct_s", sigma * 100));
    header.push_back(StrFormat("crack_%.0fpct_reads", sigma * 100));
    header.push_back(StrFormat("nocrack_%.0fpct_reads", sigma * 100));
  }
  TablePrinter out;
  out.SetHeader(header);
  for (size_t step = 0; step < k; ++step) {
    std::vector<std::string> row{StrFormat("%zu", step + 1)};
    for (size_t t = 0; t < targets.size(); ++t) {
      row.push_back(
          StrFormat("%.6f", crack_series[t].cumulative_seconds[step]));
      row.push_back(
          StrFormat("%.6f", scan_series[t].cumulative_seconds[step]));
      row.push_back(StrFormat("%llu", static_cast<unsigned long long>(
                                          crack_series[t]
                                              .cumulative_reads[step])));
      row.push_back(StrFormat("%llu", static_cast<unsigned long long>(
                                          scan_series[t]
                                              .cumulative_reads[step])));
    }
    out.AddRow(std::move(row));
  }
  out.PrintCsv(stdout);

  for (size_t t = 0; t < targets.size(); ++t) {
    std::fprintf(
        stderr, "# sigma=%.0f%%: total crack %.3fs vs nocrack %.3fs (%.1fx)\n",
        targets[t] * 100, crack_series[t].cumulative_seconds.back(),
        scan_series[t].cumulative_seconds.back(),
        scan_series[t].cumulative_seconds.back() /
            std::max(1e-9, crack_series[t].cumulative_seconds.back()));
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
