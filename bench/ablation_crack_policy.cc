// Copyright 2026 The CrackStore Authors
//
// Ablation: cracking-policy robustness across workload patterns. Standard
// cracking (pivot = query bound) is optimal on random workloads but
// degenerates to near-full scans under sequential or skewed bound
// sequences; the stochastic policy (DDC-style random auxiliary pivots)
// stays robust, and the coarse policy (DD1C-style stop-below-threshold)
// caps the piece-table administration. This sweep makes the claim
// measurable, per-pattern and per-policy.
//
// Patterns:
//   random     — uniform bound draws (standard cracking's best case)
//   sequential — ascending adjacent ranges (the classic worst case)
//   skewed     — bounds clustered in a narrow hot region, occasionally
//                jumping outside (zoom-in with restarts)
//
// Since PR 3, the sweep also covers the dictionary-encoded string paths:
// two extra "patterns" (str_low / str_high) run the same per-policy
// comparison over a string column drawn from a low- and a high-cardinality
// dictionary, with random string-range queries translated through the
// order-preserving encoding (the code column cracks like an integer, so the
// policy claims must carry over; this makes it measurable).
//
// Output: CSV rows (pattern, step, then per policy: cumulative tuples
// touched and cumulative seconds, plus final piece counts on stderr).
//
// This sweep covers the three *fixed* disciplines only; the self-driving
// policies (auto, progressive) have their own harness with latency
// distributions and CI gates in ablation_adaptive_policy.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/access_path.h"
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

  return patterns;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  uint64_t n = std::max<uint64_t>(flags.GetUint("n", 1000000), 1000);
  size_t k = std::clamp<size_t>(flags.GetUint("k", 128), 1, n / 2);
  size_t width =
      std::clamp<size_t>(flags.GetUint("width", n / 200), 1, n / 2);
  size_t min_piece = std::max<size_t>(flags.GetUint("min_piece", 1024), 1);
  uint64_t seed = flags.GetUint("seed", 20120101);

  bench::Banner(
      "ablation_crack_policy",
      "Halim et al. 2012 (stochastic cracking) over CIDR'05 cracking",
      StrFormat("n=%llu k=%zu width=%zu min_piece=%zu (--n=, --k=, "
                "--width=, --min_piece=)",
                static_cast<unsigned long long>(n), k, width, min_piece));

  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i + 1);
  Pcg32 shuffle_rng(seed);
  Shuffle(&values, &shuffle_rng);
  auto column = Bat::FromVector(values, "c0");

  const CrackPolicy policies[] = {CrackPolicy::kStandard,
                                  CrackPolicy::kStochastic,
                                  CrackPolicy::kCoarse};

  TablePrinter out;
  out.SetHeader({"pattern", "step", "standard_cost", "stochastic_cost",
                 "coarse_cost", "standard_s", "stochastic_s", "coarse_s"});

  for (const Pattern& pattern : BuildPatterns(n, k, width, seed)) {
    // cumulative[policy][step]
    std::vector<std::vector<uint64_t>> cost(3);
    std::vector<std::vector<double>> secs(3);
    std::vector<size_t> pieces(3);
    std::vector<uint64_t> counts;  // per-query answers, policy-invariant
    for (size_t p = 0; p < 3; ++p) {
      AccessPathConfig config;
      config.strategy = AccessStrategy::kCrack;
      config.policy.policy = policies[p];
      config.policy.min_piece_size = min_piece;
      config.policy.seed = seed;
      auto path = CreateColumnAccessPath(column, config);
      CRACK_CHECK(path.ok());
      uint64_t total_cost = 0;
      double total_secs = 0;
      for (size_t q = 0; q < pattern.queries.size(); ++q) {
        IoStats io;
        WallTimer timer;
        AccessSelection sel =
            (*path)->Select(pattern.queries[q], /*detach=*/false, &io);
        total_secs += timer.ElapsedSeconds();
        // Every policy must deliver the same answer.
        if (p == 0) {
          counts.push_back(sel.count);
        } else {
          CRACK_CHECK(sel.count == counts[q]);
        }
        total_cost += io.tuples_read + io.tuples_written;
        cost[p].push_back(total_cost);
        secs[p].push_back(total_secs);
      }
      pieces[p] = (*path)->NumPieces();
    }
    for (size_t step = 0; step < k; ++step) {
      out.AddRow({pattern.name, StrFormat("%zu", step + 1),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[0][step])),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[1][step])),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[2][step])),
                  StrFormat("%.6f", secs[0][step]),
                  StrFormat("%.6f", secs[1][step]),
                  StrFormat("%.6f", secs[2][step])});
    }
    std::fprintf(stderr, "# %s: final pieces standard=%zu stochastic=%zu "
                         "coarse=%zu\n",
                 pattern.name, pieces[0], pieces[1], pieces[2]);
  }

  // --- dictionary-encoded string sweep -------------------------------------
  // Same policy comparison over string columns: every value is one of
  // `cardinality` distinct keys (zero-padded, so bytewise order equals key
  // order) and every query is a random closed string range. The low
  // cardinality regime stresses duplicate-heavy pieces, the high one the
  // dictionary itself.
  struct StringSweep {
    const char* name;
    size_t cardinality;
  };
  const StringSweep sweeps[] = {{"str_low", 64},
                                {"str_high", std::min<size_t>(n / 4, 65536)}};
  for (const StringSweep& sweep : sweeps) {
    std::vector<std::string> keys(sweep.cardinality);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = StrFormat("k%08zu", i);
    }
    Pcg32 fill_rng(seed + 7);
    auto column = Bat::Create(ValueType::kString, "s0");
    for (size_t i = 0; i < n; ++i) {
      column->AppendString(
          keys[fill_rng.NextBounded(static_cast<uint32_t>(keys.size()))]);
    }
    size_t key_width = std::max<size_t>(1, keys.size() / 20);
    Pcg32 query_rng(seed + 8);
    std::vector<TypedRange> queries;
    queries.reserve(k);
    for (size_t q = 0; q < k; ++q) {
      size_t lo = static_cast<size_t>(query_rng.NextBounded(
          static_cast<uint32_t>(keys.size() - key_width)));
      queries.push_back(TypedRange::Closed(Value(keys[lo]),
                                           Value(keys[lo + key_width])));
    }

    std::vector<std::vector<uint64_t>> cost(3);
    std::vector<std::vector<double>> secs(3);
    std::vector<size_t> pieces(3);
    std::vector<uint64_t> counts;
    for (size_t p = 0; p < 3; ++p) {
      AccessPathConfig config;
      config.strategy = AccessStrategy::kCrack;
      config.policy.policy = policies[p];
      config.policy.min_piece_size = min_piece;
      config.policy.seed = seed;
      auto path = CreateColumnAccessPath(column, config);
      CRACK_CHECK(path.ok());
      uint64_t total_cost = 0;
      double total_secs = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        IoStats io;
        WallTimer timer;
        auto sel = (*path)->SelectTyped(queries[q], /*detach=*/false, &io);
        CRACK_CHECK(sel.ok());
        total_secs += timer.ElapsedSeconds();
        if (p == 0) {
          counts.push_back(sel->count);
        } else {
          CRACK_CHECK(sel->count == counts[q]);
        }
        total_cost += io.tuples_read + io.tuples_written;
        cost[p].push_back(total_cost);
        secs[p].push_back(total_secs);
      }
      pieces[p] = (*path)->NumPieces();
    }
    for (size_t step = 0; step < k; ++step) {
      out.AddRow({sweep.name, StrFormat("%zu", step + 1),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[0][step])),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[1][step])),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(cost[2][step])),
                  StrFormat("%.6f", secs[0][step]),
                  StrFormat("%.6f", secs[1][step]),
                  StrFormat("%.6f", secs[2][step])});
    }
    std::fprintf(stderr,
                 "# %s (cardinality %zu): final pieces standard=%zu "
                 "stochastic=%zu coarse=%zu\n",
                 sweep.name, sweep.cardinality, pieces[0], pieces[1],
                 pieces[2]);
  }

  out.PrintCsv(stdout);
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
