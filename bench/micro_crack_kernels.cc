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
// column via span kernels and cut records vs materialize-then-loop), a
// reduction over very fine pieces (`agg_fine_pieces_vs_scan`), the span rows
// a cold aggregate reads on a radix-built column (`agg_cold_span_rows_read`),
// and the
// snapshot filter's probe count on a column with scattered versions
// (`mvcc_marked_rows` / `mvcc_version_probes`), and the first statements on
// a fresh 2^22-row column with and without the radix build
// (`first_touch_*`), and the block read path (`block_reads`: ns per walked
// row of a warm conjunction probe; `sort_oids_speedup`: ToOids' radix sort
// against std::sort). CI's bench-smoke lane reads
// `dispatched_vs_scalar_int32`, `agg_pushdown_vs_materialize_int32`,
// `agg_repeat_tuples_read`, `agg_cold_span_rows_read`, the mvcc counts (a
// sort-strategy store's warm COUNT and kView select among them),
// `first_touch_tuples_ratio` and `sort_oids_speedup` from that file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
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
#include "workload/sequence.h"
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

/// SUM over a warmed cracked int32 column: the pushdown path (the range's
/// span answers from the records at its two cuts) against
/// the materialize-then-loop oracle (collect the oid view, gather each value
/// from the base column, accumulate). CI's bench-smoke lane gates
/// `agg_pushdown_vs_materialize_int32` from this at >= 2x and
/// `agg_repeat_tuples_read` at 0.
AggCompare MeasureAggPushdown(size_t n, int reps) {
  AggCompare out;
  auto db = AdaptiveStore::Open(DbOptions{});  // crack, standard policy
  if (!db.ok()) return out;
  AdaptiveStore& store = **db;
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

/// Very fine pieces: a permutation of 1..1M (int64) cracked by 65,536
/// random point queries (~123k pieces of ~8 rows), then a warm reduction
/// over 80% of the domain through CrackerIndex::ReducePieces (two record
/// lookups, whatever the piece count) against one AggregateSpan over the
/// same slots, interleaved in one process. Reported as
/// `agg_fine_pieces_vs_scan`, not gated.
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
  (void)index.ReducePieces(begin, end);  // warm-up
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

/// Two first aggregates over fresh ranges of a fresh 2^22-row int64 column:
/// the first touch (which radix-builds the cracker column, then cracks the
/// range's edge pieces) and one more range elsewhere. Their cracks fill the
/// records at the span's cuts, so neither reads a span row beyond them:
/// returns the span rows the two read (pushdown rows minus record-answered
/// rows), which CI asserts is 0.
uint64_t MeasureColdSpanRowsRead() {
  const int64_t n = int64_t{1} << 22;
  auto db = AdaptiveStore::Open(DbOptions{});
  if (!db.ok()) return UINT64_MAX;
  AdaptiveStore& store = **db;
  TapestryOptions topts;
  topts.num_rows = static_cast<size_t>(n);
  topts.num_columns = 1;
  topts.seed = 23;
  auto rel = BuildTapestry("Z", topts);
  if (!rel.ok() || !store.AddTable(*rel).ok()) return UINT64_MAX;
  uint64_t read = 0;
  for (const RangeBounds& r :
       {RangeBounds::Closed(n / 10 + 17, n / 10 + n / 50),
        RangeBounds::Closed(n / 2 + 12345, n / 2 + n / 20)}) {
    auto agg = store.AggregateRange("Z", "c0", r);
    if (!agg.ok() || agg->pushdown_rows == 0) return UINT64_MAX;
    read += agg->pushdown_rows - agg->summary_rows;
  }
  return read;
}

struct MvccProbes {
  uint64_t marked_rows = 0;     ///< answer rows carrying version state
  uint64_t version_probes = 0;  ///< rows the COUNT looked up in version maps
  uint64_t answer_rows = 0;     ///< rows the COUNT's span covered
  double ns_per_row = 0.0;      ///< median warm COUNT time per span row
  uint64_t count_tuples_read = 0;  ///< the warm COUNT's tuples read
  uint64_t sum_tuples_read = 0;    ///< a warm SUM's over the same range
  uint64_t sum_summary_rows = 0;   ///< of the SUM's rows, from records
  uint64_t sum_edge_rows = 0;      ///< of the SUM's rows, scanned by a kernel
  uint64_t pending_rows = 0;       ///< pending inserts of the column's path
  /// The warm COUNT's tuples read on a sort-strategy store of the same
  /// shape (binary searches included).
  uint64_t sort_count_tuples_read = 0;
  /// The same warm select as kView on the sort store: it also places every
  /// hidden row in the span.
  uint64_t sort_view_tuples_read = 0;
};

/// A store of `strategy` over a 1M-row two-column tapestry with 1,000
/// committed single-row UPDATEs (of the sibling column c1) and 1,000
/// committed single-row DELETEs spread over c0's domain, no vacuum.
/// `*marked` counts those rows inside [lo, hi]. Null on failure.
std::unique_ptr<AdaptiveStore> MvccStore(size_t n, AccessStrategy strategy,
                                         int64_t lo, int64_t hi,
                                         uint64_t* marked) {
  DbOptions opts;  // defaults: standard crack policy, lineage on
  opts.strategy = strategy;
  opts.autovacuum_version_threshold = 0;  // no vacuum: the marks must stay
  auto db = AdaptiveStore::Open(opts);
  if (!db.ok()) return nullptr;
  TapestryOptions topts;
  topts.num_rows = n;
  topts.num_columns = 2;
  topts.seed = 31;
  auto rel = BuildTapestry("M", topts);
  if (!rel.ok() || !(*db)->AddTable(*rel).ok()) return nullptr;
  const int64_t domain = static_cast<int64_t>(n);
  *marked = 0;
  for (int64_t k = 0; k < 2000; ++k) {
    // Evenly spread keys: even k updates the row, odd k deletes it.
    const int64_t key = 1 + k * (domain / 2000) + 7;
    std::vector<AdaptiveStore::ColumnRange> where{
        {"c0", RangeBounds::Equal(key)}};
    const bool ok =
        k % 2 == 0
            ? (*db)->Update("M", {{"c1", Value(int64_t{0})}}, where).ok()
            : (*db)->Delete("M", where).ok();
    if (!ok) return nullptr;
    if (key >= lo && key <= hi) ++*marked;
  }
  return std::move(*db);
}

/// The MvccStore shape on the crack strategy, then a warm COUNT and a warm
/// SUM over 10% of the domain. The snapshot filter must send only the
/// marked answer rows to the version maps: CI asserts
/// `mvcc_version_probes == mvcc_marked_rows` (a filter probing every answer
/// row would report ~100k). Neither read may touch the span's rows beyond
/// the marked ones, the pending inserts and the span rows no cut record
/// covers: CI asserts `mvcc_count_tuples_read` and `mvcc_sum_tuples_read`
/// <= marked + pending + `mvcc_sum_edge_rows`, and `mvcc_sum_summary_rows`
/// > 0. The same warm COUNT on a sort-strategy store reads the marked rows,
/// the pending inserts and its two binary searches: CI asserts
/// `mvcc_sort_count_tuples_read` <= marked + pending + 2 ceil(log2 n). As
/// kView it also finds each marked row by one binary search on its value:
/// CI asserts `mvcc_sort_view_tuples_read` <= marked (ceil(log2 n) + 1) +
/// pending + 2 ceil(log2 n).
MvccProbes MeasureMvccProbes(size_t n, int reps) {
  MvccProbes out;
  const int64_t domain = static_cast<int64_t>(n);
  const int64_t lo = domain / 2;
  const int64_t hi = lo + domain / 10 - 1;
  std::unique_ptr<AdaptiveStore> db =
      MvccStore(n, AccessStrategy::kCrack, lo, hi, &out.marked_rows);
  if (db == nullptr) return out;
  AdaptiveStore& store = *db;
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
      out.count_tuples_read = qr->io.tuples_read;
    }
    times.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  std::sort(times.begin(), times.end());
  out.ns_per_row = times[times.size() / 2] / static_cast<double>(hi - lo + 1);
  // The first SUM runs once untimed; the second is measured.
  if (!store.AggregateRange("M", "c0", range).ok()) return out;
  auto sum = store.AggregateRange("M", "c0", range);
  if (!sum.ok()) return out;
  out.sum_tuples_read = sum->io.tuples_read;
  out.sum_summary_rows = sum->summary_rows;
  out.sum_edge_rows = sum->pushdown_rows - sum->summary_rows;
  auto path = store.AccessPathFor("M", "c0");
  if (path.ok()) out.pending_rows = (*path)->pending_inserts();
  uint64_t sort_marked = 0;
  std::unique_ptr<AdaptiveStore> sorted =
      MvccStore(n, AccessStrategy::kSort, lo, hi, &sort_marked);
  if (sorted == nullptr || !sorted->SelectRange("M", "c0", range).ok()) {
    return out;  // the first select builds the sorted copy
  }
  auto warm = sorted->SelectRange("M", "c0", range);
  if (warm.ok()) out.sort_count_tuples_read = warm->io.tuples_read;
  auto view = sorted->SelectRange("M", "c0", range, Delivery::kView);
  if (view.ok()) out.sort_view_tuples_read = view->io.tuples_read;
  return out;
}

struct FirstTouch {
  int bits = 0;  ///< PartitionBitsFor(rows)
  /// Crack-kernel tuples over the statements, radix pass included: with
  /// the radix build [0] and with the copy (k = 0) [1].
  uint64_t tuples[2] = {0, 0};
  double build_ms[2] = {0.0, 0.0};         ///< index construction
  double first_select_ms[2] = {0.0, 0.0};  ///< the first statement
  double ratio = 0.0;                      ///< tuples[1] / tuples[0]
};

/// The first 10 statements of a zoom homerun sequence (perfbench `zoom`'s
/// first sequence shape: target 0.05%, linear contraction) over a fresh
/// 2^22-row permutation column, once built with PartitionBitsFor(n) bits
/// and once with the copy. Crack tuples are deterministic, so CI gates
/// their ratio (`first_touch_tuples_ratio`); the build and first-select
/// times are reported, not gated.
FirstTouch MeasureFirstTouch() {
  FirstTouch out;
  const size_t n = size_t{1} << 22;
  auto column = BuildPermutationColumn(n, 7, "zoom");
  MqsSpec spec;
  spec.num_rows = n;
  spec.sequence_length = 25;
  spec.profile = Profile::kHomerun;
  spec.target_selectivity = 0.0005;
  spec.rho = ContractionModel::kLinear;
  spec.seed = 1;
  auto queries = GenerateSequence(spec);
  if (!queries.ok() || queries->size() < 10) return out;
  out.bits = PartitionBitsFor(n);
  // Two rounds, sides alternating; the second round's times are kept, so
  // neither side alone pays for the process's first page faults.
  for (int round = 0; round < 2; ++round) {
    for (int side = 0; side < 2; ++side) {
      CrackerIndexOptions options;
      options.partition_bits = side == 0 ? out.bits : 0;
      IoStats build;
      auto t0 = std::chrono::steady_clock::now();
      CrackerIndex<int64_t> index(column, &build, options);
      auto t1 = std::chrono::steady_clock::now();
      out.build_ms[side] =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      // The radix pass is charged as a crack; the copy is not one.
      out.tuples[side] = build.cracks > 0 ? build.tuples_read : 0;
      for (size_t q = 0; q < 10; ++q) {
        const RangeQuery& query = (*queries)[q];
        IoStats stats;
        auto t2 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(
            index.Select(query.lo, true, query.hi, true, &stats).count());
        auto t3 = std::chrono::steady_clock::now();
        if (q == 0) {
          out.first_select_ms[side] =
              std::chrono::duration<double, std::milli>(t3 - t2).count();
        }
        out.tuples[side] += stats.tuples_read;
      }
    }
  }
  if (out.tuples[0] > 0) {
    out.ratio = static_cast<double>(out.tuples[1]) /
                static_cast<double>(out.tuples[0]);
  }
  return out;
}

struct BlockReads {
  uint64_t walked_rows = 0;     ///< rows the conjunctions walk
  uint64_t survivors = 0;       ///< rows that pass the probed conjunct
  double count_ns_per_row = 0;  ///< median warm kCount conjunction per row
  double view_ns_per_row = 0;   ///< median warm kView conjunction per row
  uint64_t sort_oids = 0;       ///< oids in the sorted answer
  double radix_us = 0;          ///< median ToOids (radix) wall time
  double std_sort_us = 0;       ///< median gather + std::sort wall time
  double sort_speedup = 0;      ///< std_sort_us / radix_us
};

/// The block read path on a 500k-row, 2-column tapestry (perfbench
/// multi_attr's table size): a warm conjunction that walks ~25k rows of c0's
/// crack answer and probes c1 by oid, timed per walked row for kCount and
/// kView; and a ~6k-row crack answer ordered by ToOids (radix) against the
/// same oids gathered and ordered by std::sort, interleaved over `reps`
/// runs. CI's bench-smoke lane gates `sort_oids_speedup`.
BlockReads MeasureBlockReads(size_t n, int reps) {
  BlockReads out;
  auto db = AdaptiveStore::Open(DbOptions{});
  if (!db.ok()) return out;
  AdaptiveStore& store = **db;
  TapestryOptions topts;
  topts.num_rows = n;
  topts.num_columns = 2;
  topts.seed = 22;
  auto rel = BuildTapestry("P", topts);
  if (!rel.ok() || !store.AddTable(*rel).ok()) return out;
  const int64_t lo = static_cast<int64_t>(n) / 3;
  const std::vector<AdaptiveStore::ColumnRange> conjunction{
      {"c0", RangeBounds::Closed(lo, lo + 24999)},
      {"c1", RangeBounds::Closed(1, static_cast<int64_t>(n) / 2)}};
  const RangeBounds sort_range = RangeBounds::Closed(lo / 2, lo / 2 + 5999);
  // Warm-up: crack both columns' ranges.
  for (Delivery d : {Delivery::kCount, Delivery::kView}) {
    if (!store.SelectConjunction("P", conjunction, d).ok()) return out;
  }
  if (!store.SelectRange("P", "c0", sort_range, Delivery::kView).ok()) {
    return out;
  }
  std::vector<double> count_ns, view_ns, radix_us, std_us;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    auto counted = store.SelectConjunction("P", conjunction, Delivery::kCount);
    auto t1 = std::chrono::steady_clock::now();
    auto viewed = store.SelectConjunction("P", conjunction, Delivery::kView);
    auto t2 = std::chrono::steady_clock::now();
    if (!counted.ok() || !viewed.ok() || counted->count != viewed->count) {
      std::fprintf(stderr, "block read conjunction mismatch\n");
      return out;
    }
    out.survivors = counted->count;
    count_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
    view_ns.push_back(
        std::chrono::duration<double, std::nano>(t2 - t1).count());

    auto answer = store.SelectRange("P", "c0", sort_range, Delivery::kView);
    if (!answer.ok()) return out;
    const OidSpanSet& set = answer->span_set;
    auto t3 = std::chrono::steady_clock::now();
    std::vector<Oid> radix = set.ToOids();
    auto t4 = std::chrono::steady_clock::now();
    std::vector<Oid> sorted;
    sorted.reserve(set.count());
    set.ForEachBlock([&sorted](const OidBlock& block) {
      for (uint64_t m = block.live; m != 0; m &= m - 1) {
        sorted.push_back(block.oids[__builtin_ctzll(m)]);
      }
    });
    std::sort(sorted.begin(), sorted.end());
    auto t5 = std::chrono::steady_clock::now();
    if (radix != sorted) {
      std::fprintf(stderr, "ToOids disagrees with std::sort\n");
      return out;
    }
    out.sort_oids = radix.size();
    radix_us.push_back(
        std::chrono::duration<double, std::micro>(t4 - t3).count());
    std_us.push_back(
        std::chrono::duration<double, std::micro>(t5 - t4).count());
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.walked_rows = 25000;
  out.count_ns_per_row = median(count_ns) / static_cast<double>(out.walked_rows);
  out.view_ns_per_row = median(view_ns) / static_cast<double>(out.walked_rows);
  out.radix_us = median(radix_us);
  out.std_sort_us = median(std_us);
  if (out.radix_us > 0.0) out.sort_speedup = out.std_sort_us / out.radix_us;
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
  const FirstTouch first = MeasureFirstTouch();
  const uint64_t cold_span_rows = MeasureColdSpanRowsRead();
  const BlockReads block = MeasureBlockReads(500000, 21);

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
  out << "  \"agg_cold_span_rows_read\": " << cold_span_rows << ",\n";
  out << "  \"mvcc_marked_rows\": " << mvcc.marked_rows << ",\n";
  out << "  \"mvcc_version_probes\": " << mvcc.version_probes << ",\n";
  out << "  \"mvcc_answer_rows\": " << mvcc.answer_rows << ",\n";
  out << "  \"mvcc_count_ns_per_row\": " << mvcc.ns_per_row << ",\n";
  out << "  \"mvcc_count_tuples_read\": " << mvcc.count_tuples_read << ",\n";
  out << "  \"mvcc_sum_tuples_read\": " << mvcc.sum_tuples_read << ",\n";
  out << "  \"mvcc_sum_summary_rows\": " << mvcc.sum_summary_rows << ",\n";
  out << "  \"mvcc_sum_edge_rows\": " << mvcc.sum_edge_rows << ",\n";
  out << "  \"mvcc_pending_rows\": " << mvcc.pending_rows << ",\n";
  out << "  \"mvcc_sort_count_tuples_read\": " << mvcc.sort_count_tuples_read
      << ",\n";
  out << "  \"mvcc_sort_view_tuples_read\": " << mvcc.sort_view_tuples_read
      << ",\n";
  out << "  \"first_touch_bits\": " << first.bits << ",\n";
  out << "  \"first_touch_tuples_partitioned\": " << first.tuples[0]
      << ",\n";
  out << "  \"first_touch_tuples_copy\": " << first.tuples[1] << ",\n";
  out << "  \"first_touch_tuples_ratio\": " << first.ratio << ",\n";
  out << "  \"first_touch_build_ms_partitioned\": " << first.build_ms[0]
      << ",\n";
  out << "  \"first_touch_build_ms_copy\": " << first.build_ms[1] << ",\n";
  out << "  \"first_touch_first_select_ms_partitioned\": "
      << first.first_select_ms[0] << ",\n";
  out << "  \"first_touch_first_select_ms_copy\": " << first.first_select_ms[1]
      << ",\n";
  out << "  \"block_reads\": {\"rows\": 500000, \"walked_rows\": "
      << block.walked_rows << ", \"survivors\": " << block.survivors
      << ", \"count_ns_per_walked_row\": " << block.count_ns_per_row
      << ", \"view_ns_per_walked_row\": " << block.view_ns_per_row
      << ", \"sort_oids\": " << block.sort_oids
      << ", \"radix_to_oids_median_us\": " << block.radix_us
      << ", \"std_sort_median_us\": " << block.std_sort_us << "},\n";
  out << "  \"sort_oids_speedup\": " << block.sort_speedup << ",\n";
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
  std::printf("cold aggregates (2^22 rows, radix-built): %llu span rows "
              "read\n",
              static_cast<unsigned long long>(cold_span_rows));
  std::printf("mvcc warm COUNT: %llu version probes for %llu marked of "
              "%llu answer rows, %.2f ns/row\n",
              static_cast<unsigned long long>(mvcc.version_probes),
              static_cast<unsigned long long>(mvcc.marked_rows),
              static_cast<unsigned long long>(mvcc.answer_rows),
              mvcc.ns_per_row);
  std::printf("mvcc warm reads: COUNT read %llu tuples, SUM %llu (%llu rows "
              "from records, %llu scanned), %llu pending rows\n",
              static_cast<unsigned long long>(mvcc.count_tuples_read),
              static_cast<unsigned long long>(mvcc.sum_tuples_read),
              static_cast<unsigned long long>(mvcc.sum_summary_rows),
              static_cast<unsigned long long>(mvcc.sum_edge_rows),
              static_cast<unsigned long long>(mvcc.pending_rows));
  std::printf("mvcc warm select on a sort store: COUNT read %llu tuples, "
              "kView %llu\n",
              static_cast<unsigned long long>(mvcc.sort_count_tuples_read),
              static_cast<unsigned long long>(mvcc.sort_view_tuples_read));
  std::printf("first touch (2^22 rows, 10 zoom statements): %llu crack "
              "tuples with %d radix bits vs %llu with the copy (%.2fx); "
              "build %.1f vs %.1f ms, first select %.2f vs %.2f ms\n",
              static_cast<unsigned long long>(first.tuples[0]), first.bits,
              static_cast<unsigned long long>(first.tuples[1]), first.ratio,
              first.build_ms[0], first.build_ms[1], first.first_select_ms[0],
              first.first_select_ms[1]);
  std::printf("block reads (500k rows, %llu walked): kCount %.2f ns/row, "
              "kView %.2f ns/row; ToOids of %llu oids %.1f us vs std::sort "
              "%.1f us (%.2fx)\n",
              static_cast<unsigned long long>(block.walked_rows),
              block.count_ns_per_row, block.view_ns_per_row,
              static_cast<unsigned long long>(block.sort_oids),
              block.radix_us, block.std_sort_us, block.sort_speedup);
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
