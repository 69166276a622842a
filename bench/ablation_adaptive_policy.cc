// Copyright 2026 The CrackStore Authors
//
// Ablation: self-driving cracking. Sweeps every workload pattern against
// every crack policy — the three fixed disciplines (standard / stochastic /
// coarse), the kAuto workload detector that switches the effective policy
// at runtime, and kProgressive budgeted cracking — and reports per-query
// latency distributions (p50/p99/max), cumulative cost, and the largest
// single-query crack-write bill.
//
// The two claims this makes measurable (CI gates on the --json output):
//   1. kAuto never loses badly: its total cost stays within a small factor
//      of the best *fixed* policy on every workload, without knowing the
//      workload in advance.
//   2. kProgressive bounds the per-query reorganization: no query performs
//      more than progressive_budget x column-size crack writes (plus a
//      small absolute floor), turning first-touch crack spikes into a
//      smooth tail.
//
// Patterns:
//   random     — uniform bound draws (standard cracking's best case)
//   sequential — ascending adjacent ranges (the classic worst case)
//   skewed     — bounds clustered in a narrow hot region with restarts
//   shift      — periodic regime change: sequential sweeps inside a hot
//                region that relocates every k/4 queries (exercises the
//                detector's re-classification)
//
// Output: CSV summary rows to stdout; --json=BENCH_adaptive.json writes the
// machine-readable document CI uploads and gates on.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/access_path.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace crackstore {
namespace {

struct Pattern {
  const char* name;
  std::vector<RangeBounds> queries;
};

std::vector<Pattern> BuildPatterns(size_t n, size_t k, size_t width,
                                   uint64_t seed) {
  std::vector<Pattern> patterns;

  {
    Pattern random{"random", {}};
    Pcg32 rng(seed);
    for (size_t q = 0; q < k; ++q) {
      int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n - width));
      random.queries.push_back(
          RangeBounds::HalfOpen(lo, lo + static_cast<int64_t>(width)));
    }
    patterns.push_back(std::move(random));
  }

  {
    Pattern sequential{"sequential", {}};
    int64_t step = static_cast<int64_t>(n / k);
    for (size_t q = 0; q < k; ++q) {
      int64_t lo = static_cast<int64_t>(q) * step + 1;
      sequential.queries.push_back(RangeBounds::HalfOpen(lo, lo + step));
    }
    patterns.push_back(std::move(sequential));
  }

  {
    Pattern skewed{"skewed", {}};
    Pcg32 rng(seed + 1);
    int64_t hot_lo = static_cast<int64_t>(n / 2);
    int64_t hot_width = static_cast<int64_t>(n / 20);
    for (size_t q = 0; q < k; ++q) {
      if (rng.NextBounded(10) == 0) {  // 10%: jump to a fresh region
        hot_lo = rng.NextInRange(1, static_cast<int64_t>(n - width));
      }
      int64_t lo = std::min(hot_lo + rng.NextInRange(0, hot_width),
                            static_cast<int64_t>(n - width));
      skewed.queries.push_back(
          RangeBounds::HalfOpen(lo, lo + static_cast<int64_t>(width)));
    }
    patterns.push_back(std::move(skewed));
  }

  {
    // Regime changes: an ascending sweep inside a hot region, the region
    // relocating every k/4 queries. The detector must re-classify across
    // the shift without thrashing.
    Pattern shift{"shift", {}};
    Pcg32 rng(seed + 2);
    size_t phase = std::max<size_t>(1, k / 4);
    int64_t region = 0;
    int64_t step = static_cast<int64_t>(std::max<size_t>(width, n / (4 * k)));
    for (size_t q = 0; q < k; ++q) {
      if (q % phase == 0) {
        region = rng.NextInRange(
            1, static_cast<int64_t>(n - phase * step - width));
      }
      int64_t lo = region + static_cast<int64_t>(q % phase) * step;
      shift.queries.push_back(
          RangeBounds::HalfOpen(lo, lo + static_cast<int64_t>(width)));
    }
    patterns.push_back(std::move(shift));
  }

  return patterns;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct ComboResult {
  std::string pattern;
  std::string policy;
  double total_seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  uint64_t total_cost = 0;     ///< cumulative tuples read + written
  uint64_t max_query_writes = 0;  ///< largest single-query kernel-write bill
  size_t pieces = 0;
  uint64_t switches = 0;
  size_t pending = 0;          ///< progressive frontier rows left at the end
  std::string effective;
  std::string detected;
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = std::max<uint64_t>(flags.GetUint("n", 1000000), 1000);
  size_t k = std::clamp<size_t>(flags.GetUint("k", 256), 8, n / 2);
  size_t width =
      std::clamp<size_t>(flags.GetUint("width", n / 200), 1, n / 2);
  size_t min_piece = std::max<size_t>(flags.GetUint("min_piece", 1024), 1);
  double budget = flags.GetDouble("budget", 0.1);
  uint64_t seed = flags.GetUint("seed", 20120101);
  std::string json_path = flags.GetString("json", "");

  bench::Banner(
      "ablation_adaptive_policy",
      "self-driving cracking: runtime policy switching + budgeted cracks",
      StrFormat("n=%llu k=%zu width=%zu min_piece=%zu budget=%.3f (--n=, "
                "--k=, --width=, --min_piece=, --budget=, --json=)",
                static_cast<unsigned long long>(n), k, width, min_piece,
                budget));

  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i + 1);
  Pcg32 shuffle_rng(seed);
  Shuffle(&values, &shuffle_rng);
  auto column = Bat::FromVector(values, "c0");

  const CrackPolicy policies[] = {
      CrackPolicy::kStandard, CrackPolicy::kStochastic, CrackPolicy::kCoarse,
      CrackPolicy::kAuto, CrackPolicy::kProgressive};
  constexpr size_t kNumPolicies = 5;

  std::vector<ComboResult> results;
  for (const Pattern& pattern : BuildPatterns(n, k, width, seed)) {
    std::vector<uint64_t> counts;  // per-query answers, policy-invariant
    for (size_t p = 0; p < kNumPolicies; ++p) {
      AccessPathConfig config;
      config.strategy = AccessStrategy::kCrack;
      config.policy.policy = policies[p];
      config.policy.min_piece_size = min_piece;
      config.policy.seed = seed;
      config.policy.progressive_budget = budget;
      auto path = CreateColumnAccessPath(column, config);
      CRACK_CHECK(path.ok());

      ComboResult r;
      r.pattern = pattern.name;
      r.policy = CrackPolicyName(policies[p]);
      std::vector<double> latencies;
      latencies.reserve(pattern.queries.size());
      for (size_t q = 0; q < pattern.queries.size(); ++q) {
        IoStats io;
        WallTimer timer;
        AccessSelection sel =
            (*path)->Select(pattern.queries[q], /*detach=*/false, &io);
        latencies.push_back(timer.ElapsedSeconds());
        // Every policy must deliver the same answer.
        if (p == 0) {
          counts.push_back(sel.count);
        } else {
          CRACK_CHECK(sel.count == counts[q]);
        }
        r.total_cost += io.tuples_read + io.tuples_written;
        r.max_query_writes = std::max(r.max_query_writes, io.kernel_writes);
      }
      for (double s : latencies) r.total_seconds += s;
      std::sort(latencies.begin(), latencies.end());
      r.p50_ms = Percentile(latencies, 0.50) * 1e3;
      r.p99_ms = Percentile(latencies, 0.99) * 1e3;
      r.max_ms = latencies.back() * 1e3;
      r.pieces = (*path)->NumPieces();
      PathPolicyStatus status = (*path)->PolicyStatus();
      r.switches = status.switches;
      r.pending = status.progressive_pending;
      r.effective = CrackPolicyName(status.effective);
      r.detected = WorkloadPatternName(status.pattern);
      results.push_back(std::move(r));
    }
  }

  TablePrinter out;
  out.SetHeader({"pattern", "policy", "total_s", "p50_ms", "p99_ms", "max_ms",
                 "total_cost", "max_query_writes", "pieces", "switches",
                 "pending", "effective", "detected"});
  for (const ComboResult& r : results) {
    out.AddRow({r.pattern, r.policy, StrFormat("%.4f", r.total_seconds),
                StrFormat("%.4f", r.p50_ms), StrFormat("%.4f", r.p99_ms),
                StrFormat("%.4f", r.max_ms),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      r.total_cost)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      r.max_query_writes)),
                StrFormat("%zu", r.pieces),
                StrFormat("%llu", static_cast<unsigned long long>(r.switches)),
                StrFormat("%zu", r.pending), r.effective, r.detected});
  }
  out.PrintCsv(stdout);

  if (!json_path.empty()) {
    // The per-query write pool is max(floor, budget x touched-piece span)
    // shared across both bounds; a pass may overshoot by one swap. The
    // column itself bounds every piece span, so this is the hard per-query
    // ceiling the progressive gate checks.
    const uint64_t writes_limit =
        std::max<uint64_t>(256, static_cast<uint64_t>(
                                    budget * static_cast<double>(n))) +
        32;
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_adaptive_policy\",\n"
                 "  \"n\": %llu,\n  \"k\": %zu,\n  \"width\": %zu,\n"
                 "  \"budget\": %.6f,\n  \"progressive_writes_limit\": %llu,\n"
                 "  \"results\": [\n",
                 static_cast<unsigned long long>(n), k, width, budget,
                 static_cast<unsigned long long>(writes_limit));
    for (size_t i = 0; i < results.size(); ++i) {
      const ComboResult& r = results[i];
      std::fprintf(
          f,
          "    {\"pattern\": \"%s\", \"policy\": \"%s\", "
          "\"total_seconds\": %.6f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"max_ms\": %.4f, \"total_cost\": %llu, "
          "\"max_query_writes\": %llu, \"pieces\": %zu, "
          "\"switches\": %llu, \"pending\": %zu, "
          "\"effective\": \"%s\", \"detected\": \"%s\"}%s\n",
          r.pattern.c_str(), r.policy.c_str(), r.total_seconds, r.p50_ms,
          r.p99_ms, r.max_ms,
          static_cast<unsigned long long>(r.total_cost),
          static_cast<unsigned long long>(r.max_query_writes), r.pieces,
          static_cast<unsigned long long>(r.switches), r.pending,
          r.effective.c_str(), r.detected.c_str(),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
                 obs::MetricsRegistry::Global().RenderJson("").c_str());
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
