// Copyright 2026 The CrackStore Authors
//
// google-benchmark micro suite for the core primitives: crack kernels vs a
// plain scan vs std::sort, plus whole cracker-index query paths. These
// numbers ground the claim of §2.2 that "with proper engineering the total
// CPU cost for such an incremental scheme is in the same order of magnitude
// as sorting".
//
// `--json=PATH` switches to a self-contained SIMD-tier comparison: every
// supported kernel tier (scalar / predicated / avx2 / neon) cracks 1M rows
// per element type and selectivity, and the medians land in PATH as JSON —
// plus an aggregate-pushdown comparison (SUM over a warmed cracked int32
// column via span kernels and piece summaries vs materialize-then-loop) and
// the piece-summary walk's worst case (`agg_fine_pieces_vs_scan`), and the
// snapshot filter's probe count on a column with scattered versions
// (`mvcc_marked_rows` / `mvcc_version_probes`). CI's bench-smoke lane reads
// `dispatched_vs_scalar_int32`, `agg_pushdown_vs_materialize_int32`,
// `agg_repeat_tuples_read` and the two mvcc counts from that file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/adaptive_store.h"
#include "core/crack_kernels.h"
#include "core/cracker_index.h"
#include "core/simd_dispatch.h"
#include "core/sorted_column.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::vector<int64_t> RandomValues(size_t n, uint64_t seed = 99) {
  Pcg32 rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.NextInRange(0, static_cast<int64_t>(n));
  return v;
}

void BM_Scan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> data = RandomValues(n);
  int64_t pivot = static_cast<int64_t>(n / 2);
  for (auto _ : state) {
    uint64_t count = 0;
    for (int64_t v : data) count += v < pivot;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Scan)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackInTwo(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  int64_t pivot = static_cast<int64_t>(n / 2);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    CrackSplit split = CrackInTwoLt(data.data(), nullptr, n, pivot);
    benchmark::DoNotOptimize(split.split);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CrackInTwo)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackInThree(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  int64_t lo = static_cast<int64_t>(n / 3);
  int64_t hi = static_cast<int64_t>(2 * n / 3);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    Crack3Split split =
        CrackInThree(data.data(), nullptr, n, lo, true, hi, true);
    benchmark::DoNotOptimize(split.first);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CrackInThree)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_StdSort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<int64_t> original = RandomValues(n);
  std::vector<int64_t> data(n);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_CrackerIndexQuerySequence(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto column = BuildPermutationColumn(n, 7, "perm");
  int64_t width = static_cast<int64_t>(n / 20);
  for (auto _ : state) {
    state.PauseTiming();
    CrackerIndex<int64_t> index(column);
    Pcg32 rng(11);
    state.ResumeTiming();
    for (int q = 0; q < 64; ++q) {
      int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
      benchmark::DoNotOptimize(
          index.Select(lo, true, lo + width - 1, true).count());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CrackerIndexQuerySequence)->Arg(1 << 18)->Arg(1 << 20);

void BM_SortedColumnQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto column = BuildPermutationColumn(n, 7, "perm");
  SortedColumn<int64_t> sorted(column);
  Pcg32 rng(11);
  int64_t width = static_cast<int64_t>(n / 20);
  for (auto _ : state) {
    int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
    benchmark::DoNotOptimize(
        sorted.Select(lo, true, lo + width - 1, true).count());
  }
}
BENCHMARK(BM_SortedColumnQuery)->Arg(1 << 18)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// --json mode: tier comparison matrix.
// ---------------------------------------------------------------------------

/// Median wall time in ns of one crack-in-two over `n` rows with the oid
/// map in lockstep (the shape every access path runs). The clone back to
/// the unsorted input is outside the timed region.
template <typename T>
double MedianCrack2Ns(SimdTier tier, double selectivity, size_t n, int reps) {
  Pcg32 rng(99);
  std::vector<T> original(n);
  for (auto& x : original)
    x = static_cast<T>(rng.NextInRange(0, static_cast<int64_t>(n)));
  const T pivot = static_cast<T>(selectivity * static_cast<double>(n));
  std::vector<T> data(n);
  std::vector<Oid> oids(n);
  std::vector<double> times;
  for (int r = 0; r <= reps; ++r) {  // rep 0 is warm-up
    std::copy(original.begin(), original.end(), data.begin());
    std::iota(oids.begin(), oids.end(), Oid{0});
    auto t0 = std::chrono::steady_clock::now();
    CrackSplit split = CrackInTwoLtTier(data.data(), oids.data(), n, pivot, tier);
    auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(split.split);
    if (r > 0) {
      times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct TierRow {
  const char* type;
  double selectivity;
  SimdTier tier;
  double ns;
};

struct AggCompare {
  double pushdown_ns = 0.0;     ///< median AggregateRange wall time
  double materialize_ns = 0.0;  ///< median SelectRange(kView)+loop wall time
  double ratio = 0.0;           ///< materialize / pushdown (higher = better)
  uint64_t repeat_tuples_read = 0;  ///< tuples the timed AggregateRanges read
};

/// SUM over a warmed cracked int32 column: the pushdown path (after the
/// warm-up rep every piece of the range answers from its summary) against
/// the materialize-then-loop oracle (collect the oid view, gather each value
/// from the base column, accumulate). CI's bench-smoke lane gates
/// `agg_pushdown_vs_materialize_int32` from this at >= 2x and
/// `agg_repeat_tuples_read` at 0.
AggCompare MeasureAggPushdown(size_t n, int reps) {
  AggCompare out;
  AdaptiveStoreOptions opts;  // defaults: crack strategy, standard policy
  AdaptiveStore store(opts);
  auto rel_or = Relation::Create("B", Schema({{"k", ValueType::kInt32}}));
  if (!rel_or.ok()) return out;
  std::shared_ptr<Relation> rel = *rel_or;
  Pcg32 rng(1203);
  for (size_t i = 0; i < n; ++i) {
    (void)rel->AppendRow({Value(static_cast<int32_t>(
        rng.NextInRange(0, static_cast<int64_t>(n))))});
  }
  if (!store.AddTable(rel).ok()) return out;

  // Warm the cracker: a few scattered cuts plus the measured range, so both
  // paths read an already-cracked column (the steady state the read path
  // optimizes).
  const RangeBounds range = RangeBounds::Closed(
      static_cast<int64_t>(n) / 4, 3 * static_cast<int64_t>(n) / 4);
  for (int q = 0; q < 8; ++q) {
    int64_t lo = rng.NextInRange(0, static_cast<int64_t>(n) - n / 10);
    (void)store.SelectRange("B", "k",
                            RangeBounds::Closed(lo, lo + static_cast<int64_t>(n) / 10));
  }
  if (!store.SelectRange("B", "k", range).ok()) return out;

  const int32_t* base =
      reinterpret_cast<const int32_t*>(rel->column(0)->raw_data());
  std::vector<double> push_times, mat_times;
  int64_t push_sum = 0, mat_sum = 0;
  for (int r = 0; r <= reps; ++r) {  // rep 0 is warm-up
    auto t0 = std::chrono::steady_clock::now();
    auto agg = store.AggregateRange("B", "k", range);
    auto t1 = std::chrono::steady_clock::now();
    if (!agg.ok()) return out;
    push_sum = agg->sum;
    if (r > 0) out.repeat_tuples_read += agg->io.tuples_read;
    auto t2 = std::chrono::steady_clock::now();
    auto qr = store.SelectRange("B", "k", range, Delivery::kView);
    if (!qr.ok()) return out;
    std::vector<Oid> oids = std::move(*qr).CollectOids();
    int64_t sum = 0;
    for (Oid oid : oids) sum += base[oid];
    auto t3 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sum);
    mat_sum = sum;
    if (r > 0) {
      push_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      mat_times.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
              .count()));
    }
  }
  if (push_sum != mat_sum) {
    std::fprintf(stderr, "agg pushdown mismatch: %lld vs %lld\n",
                 static_cast<long long>(push_sum),
                 static_cast<long long>(mat_sum));
    return out;
  }
  std::sort(push_times.begin(), push_times.end());
  std::sort(mat_times.begin(), mat_times.end());
  out.pushdown_ns = push_times[push_times.size() / 2];
  out.materialize_ns = mat_times[mat_times.size() / 2];
  if (out.pushdown_ns > 0.0) out.ratio = out.materialize_ns / out.pushdown_ns;
  return out;
}

struct FinePieces {
  size_t pieces = 0;
  double reduce_ns = 0.0;  ///< median warm ReducePieces over the span
  double scan_ns = 0.0;    ///< median AggregateSpan over the same slots
  double ratio = 0.0;      ///< reduce / scan (lower = better)
};

/// The summary walk's worst case: a permutation of 1..1M (int64) cracked by
/// 65,536 random point queries (~123k pieces of ~8 rows), then a warm
/// reduction over 80% of the domain through CrackerIndex::ReducePieces
/// against one AggregateSpan over the same slots, interleaved in one
/// process. Reported as `agg_fine_pieces_vs_scan`, not gated.
FinePieces MeasureFinePieces(size_t n, int reps) {
  FinePieces out;
  CrackerIndex<int64_t> index(BuildPermutationColumn(n, 7, "fine"));
  const int64_t domain = static_cast<int64_t>(n);
  Pcg32 rng(4242);
  for (int q = 0; q < 65536; ++q) {
    (void)index.SelectEquals(rng.NextInRange(1, domain));
  }
  out.pieces = index.num_pieces();
  CrackSelection sel =
      index.Select(domain / 10, true, domain - domain / 10, false);
  const size_t begin = sel.values.offset();
  const size_t end = begin + sel.values.size();
  const int64_t* data = index.values()->TailData<int64_t>();
  (void)index.ReducePieces(begin, end);  // warm-up keeps the summaries
  std::vector<double> reduce_times, scan_times;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    SpanAggregates walked = index.ReducePieces(begin, end);
    auto t1 = std::chrono::steady_clock::now();
    SpanAggregates scanned = AggregateSpan(data + begin, end - begin);
    auto t2 = std::chrono::steady_clock::now();
    if (walked.sum_i != scanned.sum_i || walked.count != scanned.count) {
      std::fprintf(stderr, "fine-piece reduction mismatch\n");
      return out;
    }
    reduce_times.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    scan_times.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  std::sort(reduce_times.begin(), reduce_times.end());
  std::sort(scan_times.begin(), scan_times.end());
  out.reduce_ns = reduce_times[reduce_times.size() / 2];
  out.scan_ns = scan_times[scan_times.size() / 2];
  if (out.scan_ns > 0.0) out.ratio = out.reduce_ns / out.scan_ns;
  return out;
}

struct MvccProbes {
  uint64_t marked_rows = 0;     ///< answer rows carrying version state
  uint64_t version_probes = 0;  ///< rows the COUNT looked up in version maps
  uint64_t answer_rows = 0;     ///< rows the COUNT's span covered
  double ns_per_row = 0.0;      ///< median warm COUNT time per span row
};

/// A 1M-row int64 crack column with 1,000 committed single-row UPDATEs (of
/// a sibling column) and 1,000 committed single-row DELETEs spread over the
/// domain, no vacuum, then a warm COUNT over 10% of the domain. The
/// snapshot filter must send only the marked answer rows to the version
/// maps: CI asserts `mvcc_version_probes == mvcc_marked_rows` (a filter
/// probing every answer row would report ~100k).
MvccProbes MeasureMvccProbes(size_t n, int reps) {
  MvccProbes out;
  AdaptiveStore store;  // defaults: crack strategy, lineage on, no vacuum
  TapestryOptions topts;
  topts.num_rows = n;
  topts.num_columns = 2;
  topts.seed = 31;
  auto rel = BuildTapestry("M", topts);
  if (!rel.ok() || !store.AddTable(*rel).ok()) return out;
  const int64_t domain = static_cast<int64_t>(n);
  const int64_t lo = domain / 2;
  const int64_t hi = lo + domain / 10 - 1;
  for (int64_t k = 0; k < 2000; ++k) {
    // Evenly spread keys: even k updates the row, odd k deletes it.
    const int64_t key = 1 + k * (domain / 2000) + 7;
    std::vector<AdaptiveStore::ColumnRange> where{
        {"c0", RangeBounds::Equal(key)}};
    const bool ok =
        k % 2 == 0
            ? store.Update("M", {{"c1", Value(int64_t{0})}}, where).ok()
            : store.Delete("M", where).ok();
    if (!ok) return out;
    if (key >= lo && key <= hi) ++out.marked_rows;
  }
  const RangeBounds range = RangeBounds::Closed(lo, hi);
  if (!store.SelectRange("M", "c0", range).ok()) return out;  // cold crack
  obs::Counter* probes =
      obs::MetricsRegistry::Global().GetCounter("snapshot.version_probes");
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const uint64_t before = probes->Value();
    auto t0 = std::chrono::steady_clock::now();
    auto qr = store.SelectRange("M", "c0", range);
    auto t1 = std::chrono::steady_clock::now();
    if (!qr.ok()) return out;
    if (r == 0) {
      out.version_probes = probes->Value() - before;
      out.answer_rows = static_cast<uint64_t>(hi - lo + 1);
    }
    times.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(times.begin(), times.end());
  out.ns_per_row = times[times.size() / 2] / static_cast<double>(hi - lo + 1);
  return out;
}

int RunTierComparison(const std::string& path) {
  const size_t kRows = 1 << 20;
  const int kReps = 7;
  const double kSelectivities[] = {0.1, 0.5, 0.9};
  std::vector<SimdTier> tiers;
  for (SimdTier t : {SimdTier::kScalar, SimdTier::kPredicated, SimdTier::kAvx2,
                     SimdTier::kNeon}) {
    if (SimdTierSupported(t)) tiers.push_back(t);
  }

  std::vector<TierRow> rows;
  for (double sel : kSelectivities) {
    for (SimdTier t : tiers)
      rows.push_back({"int32", sel, t, MedianCrack2Ns<int32_t>(t, sel, kRows, kReps)});
    for (SimdTier t : tiers)
      rows.push_back({"int64", sel, t, MedianCrack2Ns<int64_t>(t, sel, kRows, kReps)});
    for (SimdTier t : tiers)
      rows.push_back({"double", sel, t, MedianCrack2Ns<double>(t, sel, kRows, kReps)});
  }

  // Headline ratio for CI: the dispatched tier vs scalar on int32 keys,
  // geometric-mean across selectivities.
  const SimdTier active = ActiveSimdTier();
  double log_sum = 0.0;
  int pairs = 0;
  for (double sel : kSelectivities) {
    double scalar_ns = 0.0, active_ns = 0.0;
    for (const TierRow& r : rows) {
      if (std::strcmp(r.type, "int32") != 0 || r.selectivity != sel) continue;
      if (r.tier == SimdTier::kScalar) scalar_ns = r.ns;
      if (r.tier == active) active_ns = r.ns;
    }
    if (scalar_ns > 0.0 && active_ns > 0.0) {
      log_sum += std::log(scalar_ns / active_ns);
      ++pairs;
    }
  }
  const double dispatched_vs_scalar =
      pairs > 0 ? std::exp(log_sum / pairs) : 1.0;

  const AggCompare agg = MeasureAggPushdown(kRows, kReps);
  const FinePieces fine = MeasureFinePieces(1000000, 101);
  const MvccProbes mvcc = MeasureMvccProbes(1000000, 21);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"kernel\": \"crack_in_two_lt\",\n";
  out << "  \"rows\": " << kRows << ",\n";
  out << "  \"reps\": " << kReps << ",\n";
  out << "  \"active_tier\": \"" << SimdTierName(active) << "\",\n";
  out << "  \"dispatched_vs_scalar_int32\": " << dispatched_vs_scalar << ",\n";
  out << "  \"agg_pushdown_median_ns\": " << agg.pushdown_ns << ",\n";
  out << "  \"agg_materialize_median_ns\": " << agg.materialize_ns << ",\n";
  out << "  \"agg_pushdown_vs_materialize_int32\": " << agg.ratio << ",\n";
  out << "  \"agg_repeat_tuples_read\": " << agg.repeat_tuples_read << ",\n";
  out << "  \"agg_fine_pieces\": " << fine.pieces << ",\n";
  out << "  \"agg_fine_reduce_median_ns\": " << fine.reduce_ns << ",\n";
  out << "  \"agg_fine_scan_median_ns\": " << fine.scan_ns << ",\n";
  out << "  \"agg_fine_pieces_vs_scan\": " << fine.ratio << ",\n";
  out << "  \"mvcc_marked_rows\": " << mvcc.marked_rows << ",\n";
  out << "  \"mvcc_version_probes\": " << mvcc.version_probes << ",\n";
  out << "  \"mvcc_answer_rows\": " << mvcc.answer_rows << ",\n";
  out << "  \"mvcc_count_ns_per_row\": " << mvcc.ns_per_row << ",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const TierRow& r = rows[i];
    out << "    {\"type\": \"" << r.type << "\", \"selectivity\": "
        << r.selectivity << ", \"tier\": \"" << SimdTierName(r.tier)
        << "\", \"median_ns\": " << r.ns << ", \"ns_per_row\": "
        << r.ns / static_cast<double>(kRows) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  out.close();

  std::printf("active tier: %s\n", SimdTierName(active));
  std::printf("dispatched vs scalar (int32, geomean): %.2fx\n",
              dispatched_vs_scalar);
  std::printf("agg pushdown vs materialize (int32 SUM, warmed crack): %.2fx\n",
              agg.ratio);
  std::printf("agg repeat tuples read: %llu\n",
              static_cast<unsigned long long>(agg.repeat_tuples_read));
  std::printf("fine pieces (%zu): ReducePieces %.0fns vs AggregateSpan %.0fns "
              "(%.3fx)\n",
              fine.pieces, fine.reduce_ns, fine.scan_ns, fine.ratio);
  std::printf("mvcc warm COUNT: %llu version probes for %llu marked of "
              "%llu answer rows, %.2f ns/row\n",
              static_cast<unsigned long long>(mvcc.version_probes),
              static_cast<unsigned long long>(mvcc.marked_rows),
              static_cast<unsigned long long>(mvcc.answer_rows),
              mvcc.ns_per_row);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      return crackstore::RunTierComparison(argv[i] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
