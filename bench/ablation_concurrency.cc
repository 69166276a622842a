// Copyright 2026 The CrackStore Authors
//
// Concurrency ablation: aggregate SELECT throughput of the AdaptiveStore at
// 1..max_threads reader threads, per access strategy, on a *disjoint-range*
// workload (reader k draws subranges from its own value stripe, so after
// the first few queries every thread cracks and reads its own pieces — the
// workload the per-piece range locks are built for). A second phase mixes
// writer threads (INSERT + DELETE through the delta layer) under the
// readers to exercise the shared-latch DML protocol.
//
// Output: CSV rows (phase, strategy, threads, queries, seconds, qps,
// speedup_vs_1) to stdout; --json=PATH additionally writes the series as a
// JSON document (the BENCH_*.json trajectory CI uploads as an artifact).

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/adaptive_store.h"
#include "core/task_pool.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

struct Row {
  std::string phase;
  std::string strategy;
  size_t threads;
  uint64_t queries;
  double seconds;
  double qps;
  double speedup;
};

struct RunConfig {
  uint64_t n;
  uint64_t queries_per_thread;
  uint64_t seed;
  size_t writers;
};

AccessStrategy StrategyFromName(const std::string& name) {
  if (name == "scan") return AccessStrategy::kScan;
  if (name == "sort") return AccessStrategy::kSort;
  return AccessStrategy::kCrack;
}

std::vector<std::string> SplitCsvList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// One timed run: `threads` readers over disjoint value stripes, plus
/// `writers` writer threads when mixed. Returns reader wall-clock seconds.
double RunPhase(AdaptiveStore* store, const RunConfig& cfg, size_t threads,
                size_t writers, uint64_t* queries_done) {
  const int64_t domain = static_cast<int64_t>(cfg.n);
  std::atomic<bool> go{false};
  std::atomic<bool> stop_writers{false};
  std::atomic<uint64_t> done{0};

  std::vector<std::thread> pool;
  pool.reserve(threads + writers);
  for (size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      // Reader k owns the value stripe [lo, hi) and draws narrow subranges
      // from it — disjoint stripes mean disjoint pieces once cracked.
      int64_t stripe = domain / static_cast<int64_t>(threads);
      int64_t lo = 1 + static_cast<int64_t>(k) * stripe;
      int64_t hi = k + 1 == threads ? domain + 1 : lo + stripe;
      // Fixed query width across thread counts, so the per-query work is
      // comparable and the qps ratio measures parallelism, not workload
      // drift.
      int64_t width = std::max<int64_t>(1, domain / 512);
      Pcg32 rng(cfg.seed + 101 * k);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t q = 0; q < cfg.queries_per_thread; ++q) {
        int64_t a = rng.NextInRange(lo, hi - 1);
        int64_t b = std::min<int64_t>(hi - 1, a + width);
        auto r = store->SelectRange("R", "c0", RangeBounds::Closed(a, b),
                                    Delivery::kCount);
        if (!r.ok()) {
          std::fprintf(stderr, "reader: %s\n",
                       r.status().ToString().c_str());
          return;
        }
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t w = 0; w < writers; ++w) {
    pool.emplace_back([&, w] {
      Pcg32 rng(cfg.seed + 977 * (w + 1));
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::vector<Oid> mine;
      while (!stop_writers.load(std::memory_order_acquire)) {
        auto ins = store->Insert(
            "R", {Value(rng.NextInRange(1, domain)),
                  Value(rng.NextInRange(1, domain))});
        if (ins.ok() && ins->inserted_oid != kInvalidOid) {
          mine.push_back(ins->inserted_oid);
        }
        if (mine.size() > 64) {
          (void)store->DeleteOids("R", {mine.front()});
          mine.erase(mine.begin());
        }
      }
    });
  }

  WallTimer timer;
  go.store(true, std::memory_order_release);
  for (size_t k = 0; k < threads; ++k) pool[k].join();
  double seconds = timer.ElapsedSeconds();
  stop_writers.store(true, std::memory_order_release);
  for (size_t k = threads; k < pool.size(); ++k) pool[k].join();
  *queries_done = done.load(std::memory_order_relaxed);
  return seconds;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  RunConfig cfg;
  cfg.n = flags.GetUint("n", 1000000);
  cfg.queries_per_thread = flags.GetUint("queries", 1000);
  cfg.seed = flags.GetUint("seed", 20040901);
  cfg.writers = flags.GetUint("writers", 2);
  size_t max_threads = flags.GetUint("max_threads", 16);
  std::string strategies = flags.GetString("strategies", "crack,scan");
  std::string json_path = flags.GetString("json", "");

  bench::Banner("ablation_concurrency",
                "ROADMAP: per-piece parallel cracking / concurrent writers",
                StrFormat("n=%llu queries=%llu max_threads=%zu writers=%zu "
                          "(--n= --queries= --max_threads= --writers= "
                          "--strategies= --seed= --json=)",
                          static_cast<unsigned long long>(cfg.n),
                          static_cast<unsigned long long>(
                              cfg.queries_per_thread),
                          max_threads, cfg.writers));

  // Reader threads carry the parallelism here; keep the intra-query fan-out
  // pool out of the measurement.
  TaskPool::SetGlobalThreads(0);

  std::vector<size_t> thread_counts;
  for (size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  std::vector<Row> rows;
  for (const std::string& strategy_name : SplitCsvList(strategies)) {
    AccessStrategy strategy = StrategyFromName(strategy_name);
    double qps_at_1 = 0.0;
    for (size_t t : thread_counts) {
      for (int mixed = 0; mixed <= (strategy == AccessStrategy::kCrack &&
                                    cfg.writers > 0
                                        ? 1
                                        : 0);
           ++mixed) {
        DbOptions opts;
        opts.strategy = strategy;
        opts.concurrent = true;
        opts.track_lineage = false;
        auto store_or = bench::OpenStore(flags, opts);
        CRACK_CHECK(store_or.ok());
        AdaptiveStore& store = **store_or;
        TapestryOptions topts;
        topts.num_rows = cfg.n;
        topts.num_columns = 2;
        topts.seed = cfg.seed;
        auto rel = BuildTapestry("R", topts);
        if (!rel.ok()) {
          std::fprintf(stderr, "tapestry: %s\n",
                       rel.status().ToString().c_str());
          return 1;
        }
        (void)store.AddTable(*rel);
        // Warm-up: pay the accelerator build outside the timed section.
        (void)store.SelectRange("R", "c0",
                                RangeBounds::Closed(1, static_cast<int64_t>(
                                                           cfg.n)),
                                Delivery::kCount);

        uint64_t queries = 0;
        double seconds = RunPhase(&store, cfg, t,
                                  mixed == 1 ? cfg.writers : 0, &queries);
        Row row;
        row.phase = mixed == 1 ? "mixed" : "read-only";
        row.strategy = strategy_name;
        row.threads = t;
        row.queries = queries;
        row.seconds = seconds;
        row.qps = seconds > 0 ? static_cast<double>(queries) / seconds : 0;
        if (mixed == 0 && t == 1) qps_at_1 = row.qps;
        row.speedup = (qps_at_1 > 0 && mixed == 0) ? row.qps / qps_at_1 : 0;
        rows.push_back(row);
        std::fprintf(stderr, "# %s %s t=%zu  %.0f q/s (%.2fx)\n",
                     row.strategy.c_str(), row.phase.c_str(), t, row.qps,
                     row.speedup);
      }
    }
  }

  TablePrinter out;
  out.SetHeader({"phase", "strategy", "threads", "queries", "seconds", "qps",
                 "speedup_vs_1"});
  for (const Row& r : rows) {
    out.AddRow({r.phase, r.strategy, StrFormat("%zu", r.threads),
                StrFormat("%llu", static_cast<unsigned long long>(r.queries)),
                StrFormat("%.4f", r.seconds), StrFormat("%.1f", r.qps),
                StrFormat("%.3f", r.speedup)});
  }
  out.PrintCsv(stdout);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"ablation_concurrency\",\n"
                 "  \"n\": %llu,\n  \"queries_per_thread\": %llu,\n"
                 "  \"results\": [\n",
                 static_cast<unsigned long long>(cfg.n),
                 static_cast<unsigned long long>(cfg.queries_per_thread));
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"phase\": \"%s\", \"strategy\": \"%s\", \"threads\": %zu, "
          "\"queries\": %llu, \"seconds\": %.6f, \"qps\": %.1f, "
          "\"speedup_vs_1\": %.4f}%s\n",
          r.phase.c_str(), r.strategy.c_str(), r.threads,
          static_cast<unsigned long long>(r.queries), r.seconds, r.qps,
          r.speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace crackstore

int main(int argc, char** argv) { return crackstore::Run(argc, argv); }
