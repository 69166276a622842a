// Copyright 2026 The CrackStore Authors
//
// MQS space sweep (paper §4): "A study along the different dimensions
// provides insight in the ability of a DBMS to cope with and exploit the
// nature of such sequences." This binary walks the (profile × ρ) plane of
// the MQS(α, N, k, σ, ρ, δ) space and reports the session totals for the
// three physical designs, quantifying where cracking pays off most
// (homeruns) and least (pure random strolls).
//
// Output: CSV rows (profile, rho, strategy, total_seconds, touched_tuples,
// final_pieces).

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_store.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = flags.GetUint("n", 1000000);
  size_t k = flags.GetUint("k", 64);
  double sigma = flags.GetDouble("sigma", 0.05);
  uint64_t seed = flags.GetUint("seed", 20040901);

  bench::Banner("mqs_profile_sweep", "§4 MQS space of CIDR'05 cracking",
                StrFormat("n=%llu k=%zu sigma=%.2f",
                          static_cast<unsigned long long>(n), k, sigma));

  TapestryOptions topts;
  topts.num_rows = n;
  topts.seed = seed;
  auto rel = *BuildTapestry("R", topts);

  TablePrinter out;
  out.SetHeader({"profile", "rho", "strategy", "total_seconds",
                 "touched_tuples", "final_pieces"});

  for (Profile profile : {Profile::kHomerun, Profile::kHiking,
                          Profile::kStrolling, Profile::kStrollingConverge}) {
    for (ContractionModel rho :
         {ContractionModel::kLinear, ContractionModel::kExponential,
          ContractionModel::kLogarithmic}) {
      MqsSpec spec;
      spec.num_rows = n;
      spec.sequence_length = k;
      spec.target_selectivity = sigma;
      spec.rho = rho;
      spec.profile = profile;
      spec.seed = seed;
      auto queries = *GenerateSequence(spec);

      for (AccessStrategy strategy :
           {AccessStrategy::kScan, AccessStrategy::kSort,
            AccessStrategy::kCrack}) {
        DbOptions opts;
        opts.strategy = strategy;
        opts.track_lineage = false;
        auto store_or = bench::OpenStore(flags, opts);
        CRACK_CHECK(store_or.ok());
        AdaptiveStore& store = **store_or;
        CRACK_CHECK(store.AddTable(rel).ok());
        double total = 0;
        for (const RangeQuery& q : queries) {
          auto result = store.SelectRange("R", "c0",
                                          RangeBounds::Closed(q.lo, q.hi));
          CRACK_CHECK(result.ok());
          total += result->seconds;
        }
        uint64_t touched = store.total_io().tuples_read +
                           store.total_io().tuples_written;
        out.AddRow({ProfileName(profile), ContractionModelName(rho),
                    AccessStrategyName(strategy), StrFormat("%.6f", total),
                    StrFormat("%llu", static_cast<unsigned long long>(touched)),
                    StrFormat("%zu", *store.NumPieces("R", "c0"))});
      }
    }
  }
  out.PrintCsv(stdout);
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
