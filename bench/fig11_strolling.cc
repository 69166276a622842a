// Copyright 2026 The CrackStore Authors
//
// Figure 11: "Random converge experiment (MonetDB)" — a k-step strolling
// sequence converging to a 5% target (ρ-driven sizes, random positions),
// comparing three strategies: plain scans (nocrack), one-time upfront sort
// (sort), and cracking (crack). Expected shape: cracking beats scanning
// after a few queries; sorting wins only once the sequence is long enough
// to amortize the upfront N log N investment (the paper puts the crossover
// beyond ~100 random queries).
//
// Output: CSV rows (step, nocrack_s, sort_s, crack_s, nocrack_reads,
// sort_reads, crack_reads) — all cumulative.

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
  size_t k = flags.GetUint("k", 128);
  double sigma = flags.GetDouble("sigma", 0.05);
  uint64_t seed = flags.GetUint("seed", 20040901);
  std::string policy_name = flags.GetString("policy", "standard");
  CrackPolicy policy = CrackPolicy::kStandard;
  if (!ParseCrackPolicy(policy_name, &policy)) {
    std::fprintf(stderr,
                 "unknown --policy=%s (use "
                 "standard|stochastic|coarse|auto|progressive, or "
                 "ddc|dd1c)\n",
                 policy_name.c_str());
    return 2;
  }

  bench::Banner("fig11_strolling", "Fig. 11 of CIDR'05 cracking",
                StrFormat("n=%llu k=%zu sigma=%.2f policy=%s (--n=, --k=, "
                          "--sigma=, --policy=)",
                          static_cast<unsigned long long>(n), k, sigma,
                          CrackPolicyName(policy)));

  TapestryOptions topts;
  topts.num_rows = n;
  topts.seed = seed;
  auto rel = *BuildTapestry("R", topts);

  MqsSpec spec;
  spec.num_rows = n;
  spec.sequence_length = k;
  spec.target_selectivity = sigma;
  spec.profile = Profile::kStrollingConverge;
  spec.seed = seed;
  auto queries = *GenerateSequence(spec);

  struct Strategy {
    const char* name;
    AccessStrategy strategy;
    std::vector<double> seconds;
    std::vector<uint64_t> reads;
  };
  std::vector<Strategy> strategies{
      {"nocrack", AccessStrategy::kScan, {}, {}},
      {"sort", AccessStrategy::kSort, {}, {}},
      {"crack", AccessStrategy::kCrack, {}, {}},
  };

  for (Strategy& s : strategies) {
    DbOptions opts;
    opts.strategy = s.strategy;
    opts.policy.policy = policy;  // pivot discipline of the crack line
    opts.track_lineage = false;
    auto store_or = bench::OpenStore(flags, opts);
    CRACK_CHECK(store_or.ok());
    AdaptiveStore& store = **store_or;
    CRACK_CHECK(store.AddTable(rel).ok());
    double total_seconds = 0;
    uint64_t total_reads = 0;
    for (const RangeQuery& q : queries) {
      auto result =
          store.SelectRange("R", "c0", RangeBounds::Closed(q.lo, q.hi));
      CRACK_CHECK(result.ok());
      total_seconds += result->seconds;
      // The sort build charges N log N writes; count reads+writes so the
      // upfront investment is visible in deterministic units too.
      total_reads += result->io.tuples_read + result->io.tuples_written;
      s.seconds.push_back(total_seconds);
      s.reads.push_back(total_reads);
    }
  }

  TablePrinter out;
  out.SetHeader({"step", "nocrack_s", "sort_s", "crack_s", "nocrack_cost",
                 "sort_cost", "crack_cost"});
  for (size_t step = 0; step < k; ++step) {
    out.AddRow({StrFormat("%zu", step + 1),
                StrFormat("%.6f", strategies[0].seconds[step]),
                StrFormat("%.6f", strategies[1].seconds[step]),
                StrFormat("%.6f", strategies[2].seconds[step]),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      strategies[0].reads[step])),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      strategies[1].reads[step])),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      strategies[2].reads[step]))});
  }
  out.PrintCsv(stdout);

  for (const Strategy& s : strategies) {
    std::fprintf(stderr, "# %s: total %.3fs, %llu touched tuples\n", s.name,
                 s.seconds.back(),
                 static_cast<unsigned long long>(s.reads.back()));
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
