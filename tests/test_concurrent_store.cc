// Copyright 2026 The CrackStore Authors
//
// Concurrency suite for the latch-protocol AdaptiveStore (and the
// primitives underneath it): the RangeLockTable, the TaskPool, a serialized
// parity sweep across every strategy × crack-policy × delta-merge-policy
// combination (the concurrent code paths must answer exactly like the
// model oracle), and free-running reader/writer races whose final state is
// checked against a replayed oracle. The free-running sections are the
// ThreadSanitizer targets: any latch-protocol hole shows up as a data race
// there long before it corrupts an answer.

// Randomized sections print their seed on failure; rerun a reported seed
// with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_store.h"
#include "core/latch.h"
#include "core/task_pool.h"
#include "engine/colstore_engine.h"
#include "sql/executor.h"
#include "storage/relation.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// ---------------------------------------------------------------------------
// RangeLockTable.
// ---------------------------------------------------------------------------

TEST(RangeLockTable, SharedHoldersOverlap) {
  RangeLockTable table;
  table.Acquire(0, 10, /*exclusive=*/false);
  table.Acquire(5, 15, /*exclusive=*/false);  // overlapping shared: no block
  EXPECT_EQ(table.holders(), 2u);
  table.Release(0, 10, false);
  table.Release(5, 15, false);
  EXPECT_EQ(table.holders(), 0u);
}

TEST(RangeLockTable, DisjointExclusivesOverlap) {
  RangeLockTable table;
  table.Acquire(0, 10, /*exclusive=*/true);
  table.Acquire(10, 20, /*exclusive=*/true);  // disjoint: no block
  EXPECT_EQ(table.holders(), 2u);
  table.Release(0, 10, true);
  table.Release(10, 20, true);
}

TEST(RangeLockTable, ExclusiveBlocksOverlapUntilReleased) {
  RangeLockTable table;
  table.Acquire(0, 10, /*exclusive=*/true);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    table.Acquire(5, 15, /*exclusive=*/false);
    acquired.store(true, std::memory_order_release);
    table.Release(5, 15, false);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire));
  table.Release(0, 10, true);
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
}

TEST(RangeLockTable, EmptyRangeIsNoOp) {
  RangeLockTable table;
  table.Acquire(7, 7, /*exclusive=*/true);  // must not register or block
  EXPECT_EQ(table.holders(), 0u);
  RangeLockGuard guard(&table, 3, 3, /*exclusive=*/true);
  EXPECT_EQ(table.holders(), 0u);
}

// ---------------------------------------------------------------------------
// TaskPool.
// ---------------------------------------------------------------------------

TEST(TaskPool, RunsEveryTask) {
  TaskPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&sum, i] { sum.fetch_add(i); });
  }
  pool.RunBatch(std::move(tasks));
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(TaskPool, InlineWithZeroThreads) {
  TaskPool pool(0);
  int sum = 0;  // no atomics needed: inline execution
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.emplace_back([&sum] { ++sum; });
  pool.RunBatch(std::move(tasks));
  EXPECT_EQ(sum, 8);
}

TEST(TaskPool, NestedBatchesDoNotDeadlock) {
  TaskPool pool(2);  // fewer workers than outer tasks: submitters must help
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 8; ++i) {
    outer.emplace_back([&pool, &sum] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 4; ++j) inner.emplace_back([&sum] { ++sum; });
      pool.RunBatch(std::move(inner));
    });
  }
  pool.RunBatch(std::move(outer));
  EXPECT_EQ(sum.load(), 32);
}

// ---------------------------------------------------------------------------
// Store fixtures.
// ---------------------------------------------------------------------------

struct StoreConfig {
  AccessStrategy strategy;
  CrackPolicy policy;
  DeltaMergePolicy merge;
};

std::string ConfigName(const StoreConfig& config) {
  return std::string(AccessStrategyName(config.strategy)) + "/" +
         CrackPolicyName(config.policy) + "/" +
         DeltaMergePolicyName(config.merge);
}

std::vector<StoreConfig> AllConfigs() {
  std::vector<StoreConfig> configs;
  for (AccessStrategy strategy :
       {AccessStrategy::kScan, AccessStrategy::kCrack,
        AccessStrategy::kSort}) {
    for (DeltaMergePolicy merge :
         {DeltaMergePolicy::kImmediate, DeltaMergePolicy::kThreshold,
          DeltaMergePolicy::kRippleOnSelect}) {
      std::vector<CrackPolicy> policies{CrackPolicy::kStandard};
      if (strategy == AccessStrategy::kCrack) {
        policies = {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                    CrackPolicy::kCoarse};
      }
      for (CrackPolicy policy : policies) {
        configs.push_back({strategy, policy, merge});
      }
    }
  }
  return configs;
}

std::unique_ptr<AdaptiveStore> MakeConcurrentStore(const StoreConfig& config) {
  AdaptiveStoreOptions opts;
  opts.strategy = config.strategy;
  opts.policy.policy = config.policy;
  opts.policy.min_piece_size = 32;
  opts.delta_merge.policy = config.merge;
  opts.delta_merge.threshold_fraction = 0.05;
  opts.concurrent = true;
  return std::make_unique<AdaptiveStore>(opts);
}

/// Two-column (c0, c1) int64 table; c0 values come from `values`.
std::shared_ptr<Relation> MakeTable(const std::string& name,
                                    const std::vector<int64_t>& values) {
  auto rel = *Relation::Create(
      name, Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
  for (size_t i = 0; i < values.size(); ++i) {
    Status st = rel->AppendRow(
        {Value(values[i]), Value(static_cast<int64_t>(i))});
    CRACK_CHECK(st.ok());
  }
  return rel;
}

/// Oracle of live rows: oid -> c0 value.
using Model = std::map<Oid, int64_t>;

std::vector<Oid> ModelOids(const Model& model, int64_t lo, int64_t hi) {
  std::vector<Oid> oids;
  for (const auto& [oid, value] : model) {
    if (value >= lo && value <= hi) oids.push_back(oid);
  }
  return oids;  // std::map iterates ascending
}

// ---------------------------------------------------------------------------
// Serialized parity: many threads, one op at a time, exact answers. This
// drives every concurrent-mode code path (latches, shared selects, the
// maintenance hook) through the full configuration sweep while keeping the
// oracle comparable after every read.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, SerializedParityAcrossConfigSweep) {
  const uint64_t base_seed = TestSeed(20260728);
  const int64_t domain = 1200;
  const size_t n0 = 500;
  size_t config_index = 0;
  for (const StoreConfig& config : AllConfigs()) {
    uint64_t seed = base_seed + 13 * config_index++;
    SCOPED_TRACE("config=" + ConfigName(config) +
                 " seed=" + std::to_string(seed) +
                 " (rerun with CRACKSTORE_TEST_SEED)");
    Pcg32 init_rng(seed);
    std::vector<int64_t> initial(n0);
    for (auto& v : initial) v = init_rng.NextInRange(1, domain);
    auto store = MakeConcurrentStore(config);
    ASSERT_TRUE(store->AddTable(MakeTable("t", initial)).ok());
    Model model;
    for (size_t i = 0; i < n0; ++i) model[i] = initial[i];

    std::mutex oracle_mu;  // serializes store-op + oracle + check
    const size_t kThreads = 4;
    const size_t kOpsPerThread = 90;
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (size_t k = 0; k < kThreads; ++k) {
      threads.emplace_back([&, k] {
        Pcg32 rng(seed + 1000 * (k + 1));
        for (size_t op = 0; op < kOpsPerThread && !failed; ++op) {
          std::lock_guard<std::mutex> lock(oracle_mu);
          int dice = static_cast<int>(rng.NextBounded(100));
          if (dice < 50) {  // range select, exact parity
            int64_t lo = rng.NextInRange(-20, domain + 20);
            int64_t hi = lo + rng.NextInRange(0, domain / 3);
            auto r = store->SelectRange("t", "c0",
                                        RangeBounds::Closed(lo, hi),
                                        Delivery::kView);
            if (!r.ok()) {
              ADD_FAILURE() << "select: " << r.status().ToString();
              failed = true;
              return;
            }
            std::vector<Oid> got = std::move(*r).CollectOids();
            std::vector<Oid> want = ModelOids(model, lo, hi);
            if (got != want) {
              ADD_FAILURE() << "parity: got " << got.size() << " want "
                            << want.size() << " in [" << lo << "," << hi
                            << "]";
              failed = true;
              return;
            }
          } else if (dice < 70) {  // insert
            int64_t v = rng.NextInRange(1, domain);
            auto r = store->Insert("t", {Value(v), Value(int64_t{0})});
            if (!r.ok() || r->inserted_oid == kInvalidOid) {
              ADD_FAILURE() << "insert: " << r.status().ToString();
              failed = true;
              return;
            }
            model[r->inserted_oid] = v;
          } else if (dice < 85) {  // delete a random live row
            if (model.empty()) continue;
            auto it = model.begin();
            std::advance(it, rng.NextBounded(
                                 static_cast<uint32_t>(model.size())));
            auto r = store->DeleteOids("t", {it->first});
            if (!r.ok() || r->count != 1) {
              ADD_FAILURE() << "delete: " << r.status().ToString();
              failed = true;
              return;
            }
            model.erase(it);
          } else {  // value-predicate update of c0
            int64_t from = rng.NextInRange(1, domain);
            int64_t to = rng.NextInRange(1, domain);
            auto r = store->Update(
                "t", {{"c0", Value(to)}},
                {{"c0", TypedRange(RangeBounds::Equal(from))}});
            if (!r.ok()) {
              ADD_FAILURE() << "update: " << r.status().ToString();
              failed = true;
              return;
            }
            uint64_t touched = 0;
            for (auto& [oid, value] : model) {
              if (value == from) {
                value = to;
                ++touched;
              }
            }
            if (r->count != touched) {
              ADD_FAILURE() << "update count " << r->count << " want "
                            << touched;
              failed = true;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) return;

    auto live = store->LiveRowCount("t");
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(*live, model.size());
  }
}

// ---------------------------------------------------------------------------
// Free-running readers and writers (the TSan target). Writers own disjoint
// value stripes and oid sets, so a per-writer op log replays into an exact
// final oracle regardless of cross-thread interleaving; readers assert
// structural invariants while the store churns.
// ---------------------------------------------------------------------------

struct WriterOp {
  enum Kind { kInsert, kDelete, kUpdate } kind;
  Oid oid = 0;       // kInsert (assigned) / kDelete
  int64_t from = 0;  // kUpdate: WHERE c0 = from
  int64_t to = 0;    // kInsert value / kUpdate SET value
};

void RunReaderWriterRace(const StoreConfig& config, uint64_t seed) {
  SCOPED_TRACE("config=" + ConfigName(config) +
               " seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  const int64_t domain = 2000;
  const size_t n0 = 600;
  const size_t kWriters = 2;
  const size_t kReaders = 2;
  const size_t kWriterOps = 140;

  // Writer w owns value stripe [w*domain/W + 1, (w+1)*domain/W] and the
  // initial rows whose index % W == w (their values drawn from w's stripe).
  auto stripe_lo = [&](size_t w) {
    return static_cast<int64_t>(w) * domain / kWriters + 1;
  };
  auto stripe_hi = [&](size_t w) {
    return static_cast<int64_t>(w + 1) * domain / kWriters;
  };
  Pcg32 init_rng(seed);
  std::vector<int64_t> initial(n0);
  for (size_t i = 0; i < n0; ++i) {
    size_t w = i % kWriters;
    initial[i] = init_rng.NextInRange(stripe_lo(w), stripe_hi(w));
  }
  auto store = MakeConcurrentStore(config);
  ASSERT_TRUE(store->AddTable(MakeTable("t", initial)).ok());

  std::vector<std::vector<WriterOp>> logs(kWriters);
  std::atomic<bool> writers_done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Pcg32 rng(seed + 31 * (w + 1));
      std::vector<std::pair<Oid, int64_t>> live;  // my live rows (oid, c0)
      for (size_t i = w; i < n0; i += kWriters) {
        live.emplace_back(i, initial[i]);
      }
      for (size_t op = 0; op < kWriterOps && !failed; ++op) {
        int dice = static_cast<int>(rng.NextBounded(100));
        if (dice < 40 || live.empty()) {  // insert into my stripe
          int64_t v = rng.NextInRange(stripe_lo(w), stripe_hi(w));
          auto r = store->Insert("t", {Value(v), Value(int64_t{7})});
          if (!r.ok() || r->inserted_oid == kInvalidOid) {
            ADD_FAILURE() << "insert: " << r.status().ToString();
            failed = true;
            return;
          }
          Oid oid = r->inserted_oid;
          live.emplace_back(oid, v);
          logs[w].push_back({WriterOp::kInsert, oid, 0, v});
        } else if (dice < 70) {  // delete one of my rows
          size_t pick = rng.NextBounded(static_cast<uint32_t>(live.size()));
          Oid oid = live[pick].first;
          auto r = store->DeleteOids("t", {oid});
          if (!r.ok() || r->count != 1) {
            ADD_FAILURE() << "delete oid " << oid << ": "
                          << r.status().ToString();
            failed = true;
            return;
          }
          live.erase(live.begin() + pick);
          logs[w].push_back({WriterOp::kDelete, oid, 0, 0});
        } else {  // value-predicate update within my stripe
          size_t pick = rng.NextBounded(static_cast<uint32_t>(live.size()));
          int64_t from = live[pick].second;
          int64_t to = rng.NextInRange(stripe_lo(w), stripe_hi(w));
          auto r = store->Update(
              "t", {{"c0", Value(to)}},
              {{"c0", TypedRange(RangeBounds::Equal(from))}});
          if (!r.ok()) {
            ADD_FAILURE() << "update: " << r.status().ToString();
            failed = true;
            return;
          }
          for (auto& row : live) {
            if (row.second == from) row.second = to;
          }
          logs[w].push_back({WriterOp::kUpdate, 0, from, to});
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Pcg32 rng(seed + 7777 * (r + 1));
      // Bounded: enough to overlap the writers' whole run, but readers must
      // not spin the clock out once the writers are done.
      for (int q = 0; q < 200 && !failed; ++q) {
        if (writers_done.load(std::memory_order_acquire) && q >= 40) break;
        int64_t lo = rng.NextInRange(1, domain);
        int64_t hi = lo + rng.NextInRange(0, domain / 4);
        bool view = rng.NextBounded(2) == 0;
        auto qr = store->SelectRange("t", "c0", RangeBounds::Closed(lo, hi),
                                     view ? Delivery::kView
                                          : Delivery::kCount);
        if (!qr.ok()) {
          ADD_FAILURE() << "reader: " << qr.status().ToString();
          failed = true;
          return;
        }
        if (view) {
          // Structural invariants: sorted, unique, count-consistent.
          std::vector<Oid> oids = std::move(*qr).CollectOids();
          for (size_t i = 1; i < oids.size(); ++i) {
            if (oids[i - 1] >= oids[i]) {
              ADD_FAILURE() << "oids not strictly ascending";
              failed = true;
              return;
            }
          }
        }
        if (q % 8 == 0) {
          // Values never leave [1, domain]: the band above it stays empty.
          auto empty = store->SelectRange("t", "c0",
                                          RangeBounds::AtLeast(domain + 100),
                                          Delivery::kCount);
          if (!empty.ok() || empty->count != 0) {
            ADD_FAILURE() << "phantom rows beyond the domain";
            failed = true;
            return;
          }
        }
      }
    });
  }
  // Writers are the first kWriters threads.
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  if (failed) return;

  // Replay the per-writer logs into the oracle. Stripes are disjoint, so
  // cross-writer order is irrelevant; per-writer order is the log order.
  Model model;
  for (size_t i = 0; i < n0; ++i) model[i] = initial[i];
  for (size_t w = 0; w < kWriters; ++w) {
    for (const WriterOp& op : logs[w]) {
      switch (op.kind) {
        case WriterOp::kInsert:
          model[op.oid] = op.to;
          break;
        case WriterOp::kDelete:
          model.erase(op.oid);
          break;
        case WriterOp::kUpdate:
          for (auto& [oid, value] : model) {
            // Only w's rows can hold a value inside w's stripe.
            if (value == op.from) value = op.to;
          }
          break;
      }
    }
  }

  auto live = store->LiveRowCount("t");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, model.size());
  auto full = store->SelectRange("t", "c0", RangeBounds::Closed(1, domain),
                                 Delivery::kView);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(std::move(*full).CollectOids(), ModelOids(model, 1, domain));
  Pcg32 check_rng(seed + 5);
  for (int i = 0; i < 16; ++i) {
    int64_t lo = check_rng.NextInRange(1, domain);
    int64_t hi = lo + check_rng.NextInRange(0, domain / 3);
    auto qr = store->SelectRange("t", "c0", RangeBounds::Closed(lo, hi),
                                 Delivery::kView);
    ASSERT_TRUE(qr.ok());
    EXPECT_EQ(std::move(*qr).CollectOids(), ModelOids(model, lo, hi))
        << "final range [" << lo << "," << hi << "]";
  }
}

TEST(ConcurrentStore, ReadersAndWritersRace) {
  const uint64_t base_seed = TestSeed(4242);
  const std::vector<StoreConfig> configs = {
      {AccessStrategy::kCrack, CrackPolicy::kStandard,
       DeltaMergePolicy::kThreshold},
      {AccessStrategy::kCrack, CrackPolicy::kStandard,
       DeltaMergePolicy::kRippleOnSelect},
      {AccessStrategy::kCrack, CrackPolicy::kStandard,
       DeltaMergePolicy::kImmediate},
      {AccessStrategy::kCrack, CrackPolicy::kStochastic,
       DeltaMergePolicy::kThreshold},
      {AccessStrategy::kCrack, CrackPolicy::kCoarse,
       DeltaMergePolicy::kImmediate},
      {AccessStrategy::kSort, CrackPolicy::kStandard,
       DeltaMergePolicy::kThreshold},
      {AccessStrategy::kSort, CrackPolicy::kStandard,
       DeltaMergePolicy::kRippleOnSelect},
      {AccessStrategy::kScan, CrackPolicy::kStandard,
       DeltaMergePolicy::kImmediate},
  };
  size_t i = 0;
  for (const StoreConfig& config : configs) {
    RunReaderWriterRace(config, base_seed + 97 * i++);
  }
}

// ---------------------------------------------------------------------------
// Steered policies (stochastic / coarse) ride the shared-latch path: the
// access path must advertise shared reads, and racing readers must answer
// exactly like a serial store over the same data.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, SteeredPoliciesRideSharedPath) {
  const uint64_t seed = TestSeed(515151);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TaskPool::SetGlobalThreads(4);
  for (CrackPolicy policy : {CrackPolicy::kStochastic, CrackPolicy::kCoarse}) {
    SCOPED_TRACE(CrackPolicyName(policy));
    TapestryOptions topts;
    topts.num_rows = 3000;
    topts.seed = seed;

    AdaptiveStoreOptions sopts;
    sopts.strategy = AccessStrategy::kCrack;
    sopts.policy.policy = policy;
    sopts.policy.min_piece_size = 64;
    AdaptiveStore serial(sopts);
    ASSERT_TRUE(serial.AddTable(*BuildTapestry("R", topts)).ok());

    AdaptiveStoreOptions copts = sopts;
    copts.concurrent = true;
    AdaptiveStore concurrent(copts);
    ASSERT_TRUE(concurrent.AddTable(*BuildTapestry("R", topts)).ok());

    // Warm the accelerator, then check the policy no longer forces the
    // exclusive latch.
    ASSERT_TRUE(
        concurrent.SelectRange("R", "c0", RangeBounds::Closed(1, 10)).ok());
    auto path = concurrent.AccessPathFor("R", "c0");
    ASSERT_TRUE(path.ok());
    EXPECT_EQ((*path)->concurrency(), PathConcurrency::kSharedReads);

    // Fixed query set with a serial oracle; issued from racing readers.
    const int64_t n = static_cast<int64_t>(topts.num_rows);
    struct Query {
      int64_t lo = 0;
      int64_t hi = 0;
      uint64_t want = 0;
    };
    Pcg32 rng(seed + 7);
    std::vector<Query> queries;
    for (int i = 0; i < 32; ++i) {
      Query q;
      q.lo = rng.NextInRange(1, n);
      q.hi = q.lo + rng.NextInRange(0, n / 3);
      auto want = serial.SelectRange("R", "c0", RangeBounds::Closed(q.lo, q.hi));
      ASSERT_TRUE(want.ok());
      q.want = want->count;
      queries.push_back(q);
    }
    std::vector<std::thread> threads;
    for (size_t k = 0; k < 4; ++k) {
      threads.emplace_back([&, k] {
        for (size_t i = k; i < queries.size(); i += 4) {
          auto got = concurrent.SelectRange(
              "R", "c0", RangeBounds::Closed(queries[i].lo, queries[i].hi));
          if (!got.ok() || got->count != queries[i].want) {
            ADD_FAILURE() << CrackPolicyName(policy) << " query " << i
                          << ": got " << (got.ok() ? got->count : 0)
                          << " want " << queries[i].want;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();

    // The policy must have steered: stochastic shrinks big pieces with
    // auxiliary pivots, coarse leaves bound-straddling pieces whole.
    auto pieces = concurrent.NumPieces("R", "c0");
    ASSERT_TRUE(pieces.ok());
    EXPECT_GT(*pieces, 1u);
  }
  TaskPool::SetGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Conjunctions fan their legs over the task pool; answers must match a
// serial store fed the same queries.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, ParallelConjunctionMatchesSerial) {
  const uint64_t seed = TestSeed(918273);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TaskPool::SetGlobalThreads(4);
  TapestryOptions topts;
  topts.num_rows = 4000;
  topts.num_columns = 3;
  topts.seed = seed;

  AdaptiveStoreOptions serial_opts;
  AdaptiveStore serial(serial_opts);
  ASSERT_TRUE(serial.AddTable(*BuildTapestry("R", topts)).ok());

  AdaptiveStoreOptions conc_opts;
  conc_opts.concurrent = true;
  AdaptiveStore concurrent(conc_opts);
  ASSERT_TRUE(concurrent.AddTable(*BuildTapestry("R", topts)).ok());

  // Fixed query set, issued from several threads against the concurrent
  // store; counts must match the serial store's answers exactly.
  const int64_t n = static_cast<int64_t>(topts.num_rows);
  struct Query {
    std::vector<AdaptiveStore::ColumnRange> conjuncts;
    uint64_t want = 0;
  };
  std::vector<Query> queries;
  Pcg32 rng(seed + 1);
  for (int i = 0; i < 24; ++i) {
    Query q;
    for (int c = 0; c < 3; ++c) {
      int64_t lo = rng.NextInRange(1, n);
      int64_t hi = lo + rng.NextInRange(0, n / 2);
      q.conjuncts.push_back(
          {"c" + std::to_string(c), TypedRange(RangeBounds::Closed(lo, hi))});
    }
    auto want = serial.SelectConjunction("R", q.conjuncts, Delivery::kCount);
    ASSERT_TRUE(want.ok());
    q.want = want->count;
    queries.push_back(std::move(q));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (size_t k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      for (size_t i = k; i < queries.size(); i += 4) {
        auto got = concurrent.SelectConjunction("R", queries[i].conjuncts,
                                                Delivery::kCount);
        if (!got.ok() || got->count != queries[i].want) {
          ADD_FAILURE() << "conjunction " << i << ": got "
                        << (got.ok() ? got->count : 0) << " want "
                        << queries[i].want;
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  TaskPool::SetGlobalThreads(0);
  (void)failed;
}

// ---------------------------------------------------------------------------
// The engine's batched count-selects fan legs over the task pool; answers
// must match the one-at-a-time API.
// ---------------------------------------------------------------------------

TEST(ColumnEngineBatch, MatchesSequentialCounts) {
  const uint64_t seed = TestSeed(66601);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TapestryOptions topts;
  topts.num_rows = 2000;
  topts.num_columns = 3;
  topts.seed = seed;

  ColumnEngineOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  ColumnEngine engine(opts);
  ASSERT_TRUE(engine.AddTable(*BuildTapestry("R", topts)).ok());

  const int64_t n = static_cast<int64_t>(topts.num_rows);
  Pcg32 rng(seed + 3);
  std::vector<ColumnEngine::SelectSpec> specs;
  for (int i = 0; i < 18; ++i) {
    int64_t lo = rng.NextInRange(1, n);
    int64_t hi = lo + rng.NextInRange(0, n / 2);
    specs.push_back({"R", "c" + std::to_string(i % 3),
                     TypedRange(RangeBounds::Closed(lo, hi))});
  }
  // Expected counts from a second engine driven one select at a time.
  ColumnEngine oracle(opts);
  ASSERT_TRUE(oracle.AddTable(*BuildTapestry("R", topts)).ok());
  std::vector<uint64_t> want;
  for (const auto& spec : specs) {
    auto r = oracle.RunSelect(spec.table, spec.column, spec.range,
                              DeliveryMode::kCount);
    ASSERT_TRUE(r.ok());
    want.push_back(r->count);
  }

  TaskPool::SetGlobalThreads(4);
  auto got = engine.RunSelectCountBatch(specs);
  TaskPool::SetGlobalThreads(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, want);
}

// ---------------------------------------------------------------------------
// The stale-window fix: an UPDATE whose victim set was computed before a
// concurrent DELETE landed must skip the dead rows, not abort half-applied.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, UpdateSkipsRowsDeletedMidStatement) {
  const uint64_t seed = TestSeed(55501);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const int64_t domain = 1000;
  const size_t n0 = 800;
  Pcg32 init_rng(seed);
  std::vector<int64_t> initial(n0);
  for (auto& v : initial) v = init_rng.NextInRange(1, domain);
  auto store = MakeConcurrentStore({AccessStrategy::kCrack,
                                    CrackPolicy::kStandard,
                                    DeltaMergePolicy::kThreshold});
  ASSERT_TRUE(store->AddTable(MakeTable("t", initial)).ok());

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::thread updater([&] {
    Pcg32 rng(seed + 1);
    for (int i = 0; i < 60 && !failed; ++i) {
      // Wide WHERE: the victim set routinely overlaps the deleter's picks.
      auto r = store->Update("t", {{"c1", Value(static_cast<int64_t>(i))}},
                             {{"c0", TypedRange(RangeBounds::Closed(
                                         1, domain / 2))}});
      if (!r.ok()) {
        ADD_FAILURE() << "update must not abort: " << r.status().ToString();
        failed = true;
      }
    }
    done = true;
  });
  std::thread deleter([&] {
    Pcg32 rng(seed + 2);
    while (!done.load(std::memory_order_acquire) && !failed) {
      Oid oid = rng.NextBounded(static_cast<uint32_t>(n0));
      (void)store->DeleteOids("t", {oid});  // AlreadyExists duplicates fine
    }
  });
  updater.join();
  deleter.join();
  ASSERT_FALSE(failed);

  // The store stays internally consistent: live count equals a full select.
  auto live = store->LiveRowCount("t");
  ASSERT_TRUE(live.ok());
  auto full = store->SelectRange("t", "c0", RangeBounds::Closed(1, domain),
                                 Delivery::kCount);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->count, *live);
}

// ---------------------------------------------------------------------------
// Duplicate SET clauses on one column are legal (last one wins); the
// concurrent write path must lock that column's latch once, not deadlock
// trying to acquire it twice. Regression for the distinct-latch-set fix.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, DuplicateSetColumnsDoNotSelfDeadlock) {
  // Stochastic policy: the path is kExclusiveOnly, so a duplicate column
  // would have meant two unique_lock acquisitions of one shared_mutex.
  auto store = MakeConcurrentStore({AccessStrategy::kCrack,
                                    CrackPolicy::kStochastic,
                                    DeltaMergePolicy::kImmediate});
  ASSERT_TRUE(store->AddTable(MakeTable("t", {5, 10, 15, 20})).ok());
  // Touch the column so the path exists before the update.
  ASSERT_TRUE(store
                  ->SelectRange("t", "c0", RangeBounds::Closed(1, 100),
                                Delivery::kCount)
                  .ok());
  auto r = store->Update("t", {{"c0", Value(int64_t{7})},
                               {"c0", Value(int64_t{9})}},
                         {{"c0", TypedRange(RangeBounds::Equal(10))}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  // Last assignment wins, matching the serial path's semantics.
  auto nine = store->SelectRange("t", "c0", RangeBounds::Equal(9),
                                 Delivery::kCount);
  ASSERT_TRUE(nine.ok());
  EXPECT_EQ(nine->count, 1u);
}

// ---------------------------------------------------------------------------
// String columns run exclusive-only; contention must still be safe and the
// single-writer history exact.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, StringColumnUnderContention) {
  const uint64_t seed = TestSeed(31337);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto rel = *Relation::Create(
      "p", Schema({{"s", ValueType::kString}, {"v", ValueType::kInt64}}));
  Pcg32 init_rng(seed);
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06u", init_rng.NextBounded(64));
    ASSERT_TRUE(
        rel->AppendRow({Value(std::string(key)), Value(int64_t{1})}).ok());
  }
  auto store = MakeConcurrentStore({AccessStrategy::kCrack,
                                    CrackPolicy::kStandard,
                                    DeltaMergePolicy::kThreshold});
  ASSERT_TRUE(store->AddTable(rel).ok());

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> inserted{0};
  std::thread writer([&] {
    Pcg32 rng(seed + 1);
    for (int i = 0; i < 120 && !failed; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%06u", rng.NextBounded(256));
      auto r = store->Insert("p", {Value(std::string(key)),
                                   Value(int64_t{2})});
      if (!r.ok()) {
        ADD_FAILURE() << "string insert: " << r.status().ToString();
        failed = true;
        return;
      }
      inserted.fetch_add(1);
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int k = 0; k < 2; ++k) {
    readers.emplace_back([&, k] {
      Pcg32 rng(seed + 100 + k);
      while (!done.load(std::memory_order_acquire) && !failed) {
        char lo[16];
        std::snprintf(lo, sizeof(lo), "k%06u", rng.NextBounded(128));
        TypedRange range;
        range.lo = Value(std::string(lo));
        range.lo_incl = true;
        auto r = store->SelectRange("p", "s", range, Delivery::kCount);
        if (!r.ok()) {
          ADD_FAILURE() << "string select: " << r.status().ToString();
          failed = true;
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed);

  auto live = store->LiveRowCount("p");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 300 + inserted.load());
  // Full string-range count agrees with the live count.
  TypedRange all;
  all.lo = Value(std::string(""));
  all.lo_incl = true;
  auto full = store->SelectRange("p", "s", all, Delivery::kCount);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->count, *live);
}

// ---------------------------------------------------------------------------
// Executor-side base reads race appends: projections, the aggregate sink and
// the conjunction probe read base columns by oid while inserts grow (and
// reallocate) them. Every such read goes through the store's base-read
// scope, which holds the table's base latch shared — TSan flags any read
// that bypasses it. Every row keeps c1 == 2 * c0, so a torn or stale read
// also shows up as a wrong row.
// ---------------------------------------------------------------------------

TEST(ConcurrentStore, ProjectionsRaceInserts) {
  const uint64_t seed = TestSeed(4242);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto rel = *Relation::Create(
      "t", Schema({{"c0", ValueType::kInt64}, {"c1", ValueType::kInt64}}));
  for (int64_t i = 1; i <= 64; ++i) {
    ASSERT_TRUE(rel->AppendRow({Value(i), Value(2 * i)}).ok());
  }
  auto store = MakeConcurrentStore({AccessStrategy::kCrack,
                                    CrackPolicy::kStandard,
                                    DeltaMergePolicy::kThreshold});
  ASSERT_TRUE(store->AddTable(rel).ok());

  constexpr int64_t kInserts = 1500;
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 65; i <= 64 + kInserts && !failed; ++i) {
      auto r = store->Insert("t", {Value(i), Value(2 * i)});
      if (!r.ok()) {
        ADD_FAILURE() << "insert: " << r.status().ToString();
        failed = true;
      }
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int k = 0; k < 2; ++k) {
    readers.emplace_back([&, k] {
      Pcg32 rng(seed + 7 * k);
      while (!done.load(std::memory_order_acquire) && !failed) {
        int64_t lo = rng.NextInRange(1, 64 + kInserts);
        int64_t hi = lo + rng.NextInRange(0, 200);
        std::string between = " BETWEEN " + std::to_string(lo) + " AND " +
                              std::to_string(hi);
        auto rows = sql::ExecuteSql(
            store.get(), "SELECT c0, c1 FROM t WHERE c0" + between);
        auto probe = sql::ExecuteSql(
            store.get(), "SELECT c1 FROM t WHERE c0" + between +
                             " AND c1 >= " + std::to_string(2 * lo));
        auto sum = sql::ExecuteSql(store.get(),
                                   "SELECT SUM(c0) FROM t WHERE c1" + between);
        if (!rows.ok() || !probe.ok() || !sum.ok()) {
          ADD_FAILURE() << "reader statement failed";
          failed = true;
          return;
        }
        for (size_t r = 0; r < rows->rows->num_rows(); ++r) {
          std::vector<Value> row = rows->rows->GetRow(r);
          int64_t c0 = row[0].ToInt64();
          if (c0 < lo || c0 > hi || row[1].ToInt64() != 2 * c0) {
            ADD_FAILURE() << "bad row c0=" << c0 << " c1=" << row[1].ToInt64();
            failed = true;
            return;
          }
        }
        // Inserts only add rows, so the later probe sees at least as many.
        if (probe->count < rows->count) {
          ADD_FAILURE() << "probe kept " << probe->count << " of "
                        << rows->count << " rows";
          failed = true;
          return;
        }
        for (size_t r = 0; r < probe->rows->num_rows(); ++r) {
          int64_t c1 = probe->rows->GetRow(r)[0].ToInt64();
          if (c1 < 2 * lo || c1 > 2 * hi || c1 % 2 != 0) {
            ADD_FAILURE() << "bad probed row c1=" << c1;
            failed = true;
            return;
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed);
  auto all = sql::ExecuteSql(store.get(), "SELECT SUM(c1) FROM t WHERE c0 > 0");
  ASSERT_TRUE(all.ok());
  const int64_t n = 64 + kInserts;
  EXPECT_EQ(all->groups[0].value, n * (n + 1));
}

}  // namespace
}  // namespace crackstore
