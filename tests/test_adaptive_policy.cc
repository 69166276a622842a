// Copyright 2026 The CrackStore Authors
//
// Self-driving cracking suite: the workload detector
// (core/workload_monitor.h), the kAuto runtime policy switch, and the
// kProgressive budgeted-crack policy (core/crack_policy.h,
// core/access_path.h). Three claims are pinned down:
//
//   * the detector classifies random / sequential / skewed bound streams
//     correctly and stays kUnknown below its sample floor;
//   * kAuto switches the effective policy live (no stop-the-world) and
//     every answer — before, during and after a switch — matches a fixed
//     oracle, including under racing readers and racing SET POLICY;
//   * kProgressive answers exactly like standard cracking while never
//     spending more than max(floor, budget x column size) kernel writes in
//     a single query, and repeated queries drain the carried-over frontier
//     to zero pending rows.
//
// A fourth section races Configure against running statements.
//
// The racing sections are ThreadSanitizer targets (see ci.yml's tsan lane).
// Randomized sections print their seed on failure; rerun a reported seed
// with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "core/crack_policy.h"
#include "core/task_pool.h"
#include "core/workload_monitor.h"
#include "sql/executor.h"
#include "storage/bat.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

std::shared_ptr<Bat> PermutationColumn(size_t n, uint64_t seed) {
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(i + 1);
  Pcg32 rng(seed);
  Shuffle(&values, &rng);
  return Bat::FromVector(values, "c");
}

// ---------------------------------------------------------------------------
// WorkloadMonitor: the classifier itself.
// ---------------------------------------------------------------------------

TEST(WorkloadMonitorTest, UnknownBelowSampleFloor) {
  WorkloadMonitorOptions opts;
  WorkloadMonitor monitor(opts);
  EXPECT_EQ(monitor.Classify(), WorkloadPattern::kUnknown);
  for (size_t i = 0; i + 1 < opts.min_samples; ++i) {
    monitor.Record(static_cast<double>(i) * 100.0);
    EXPECT_EQ(monitor.Classify(), WorkloadPattern::kUnknown)
        << "classified after only " << (i + 1) << " samples";
  }
  monitor.Record(static_cast<double>(opts.min_samples) * 100.0);
  EXPECT_NE(monitor.Classify(), WorkloadPattern::kUnknown);
  EXPECT_EQ(monitor.samples(), opts.min_samples);
}

TEST(WorkloadMonitorTest, ClassifiesSequentialSweep) {
  WorkloadMonitor monitor;
  for (int i = 0; i < 20; ++i) monitor.Record(i * 1000.0);
  EXPECT_EQ(monitor.Classify(), WorkloadPattern::kSequential);
  // Descending sweeps are sequential too (majority sign, not "+").
  WorkloadMonitor down;
  for (int i = 20; i > 0; --i) down.Record(i * 1000.0);
  EXPECT_EQ(down.Classify(), WorkloadPattern::kSequential);
}

TEST(WorkloadMonitorTest, ClassifiesSkewedCluster) {
  // Locality is measured against the all-time span, so establish the span
  // first (two probes at the domain edges), then hammer one narrow region
  // with non-monotone bounds.
  WorkloadMonitor monitor;
  monitor.Record(0.0);
  monitor.Record(100000.0);
  Pcg32 rng(TestSeed(11));
  for (int i = 0; i < 30; ++i) {
    monitor.Record(50000.0 + static_cast<double>(rng.NextInRange(0, 500)));
  }
  EXPECT_EQ(monitor.Classify(), WorkloadPattern::kSkewed);
}

TEST(WorkloadMonitorTest, ClassifiesRandomJumps) {
  const uint64_t seed = TestSeed(17);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  WorkloadMonitor monitor;
  Pcg32 rng(seed);
  for (int i = 0; i < 32; ++i) {
    monitor.Record(static_cast<double>(rng.NextInRange(0, 1000000)));
  }
  EXPECT_EQ(monitor.Classify(), WorkloadPattern::kRandom);
}

TEST(WorkloadMonitorTest, ResetDropsState) {
  WorkloadMonitor monitor;
  for (int i = 0; i < 20; ++i) monitor.Record(i * 1000.0);
  ASSERT_EQ(monitor.Classify(), WorkloadPattern::kSequential);
  monitor.Reset();
  EXPECT_EQ(monitor.Classify(), WorkloadPattern::kUnknown);
  EXPECT_EQ(monitor.samples(), 0u);
}

// ---------------------------------------------------------------------------
// Policy-name surface.
// ---------------------------------------------------------------------------

TEST(AdaptivePolicyTest, ParseRoundTripsSelfDrivingNames) {
  for (CrackPolicy policy :
       {CrackPolicy::kStandard, CrackPolicy::kStochastic, CrackPolicy::kCoarse,
        CrackPolicy::kAuto, CrackPolicy::kProgressive}) {
    CrackPolicy parsed = CrackPolicy::kCoarse;  // arbitrary non-default
    EXPECT_TRUE(ParseCrackPolicy(CrackPolicyName(policy), &parsed))
        << CrackPolicyName(policy);
    EXPECT_EQ(parsed, policy);
  }
  CrackPolicy parsed = CrackPolicy::kProgressive;
  EXPECT_TRUE(ParseCrackPolicy("ddc", &parsed));
  EXPECT_EQ(parsed, CrackPolicy::kStochastic);
  EXPECT_TRUE(ParseCrackPolicy("dd1c", &parsed));
  EXPECT_EQ(parsed, CrackPolicy::kCoarse);
  // Unknown names fail and leave the out-param untouched.
  parsed = CrackPolicy::kAuto;
  EXPECT_FALSE(ParseCrackPolicy("garbage", &parsed));
  EXPECT_EQ(parsed, CrackPolicy::kAuto);
}

// ---------------------------------------------------------------------------
// kAuto: the engine-level switch protocol (hysteresis, counters), then the
// same behavior observed through a live access path.
// ---------------------------------------------------------------------------

TEST(AdaptivePolicyTest, EngineSwitchesOnConfirmedReclassification) {
  const uint64_t seed = TestSeed(23);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  CrackPolicyOptions opts;
  opts.policy = CrackPolicy::kAuto;
  CrackPolicyEngine engine(opts);
  // The robust prior: stochastic until the detector has evidence.
  EXPECT_EQ(engine.policy(), CrackPolicy::kAuto);
  EXPECT_EQ(engine.effective(), CrackPolicy::kStochastic);
  EXPECT_EQ(engine.switches(), 0u);

  // Random bound stream: the detector must steer to standard.
  Pcg32 rng(seed);
  for (int i = 0; i < 24; ++i) {
    engine.Observe(static_cast<double>(rng.NextInRange(0, 1000000)));
  }
  EXPECT_EQ(engine.pattern(), WorkloadPattern::kRandom);
  EXPECT_EQ(engine.effective(), CrackPolicy::kStandard);
  EXPECT_EQ(engine.switches(), 1u);
  EXPECT_EQ(engine.observed_samples(), 24u);

  // Regime change to a sequential sweep: back to stochastic.
  for (int i = 0; i < 48; ++i) engine.Observe(i * 10000.0);
  EXPECT_EQ(engine.pattern(), WorkloadPattern::kSequential);
  EXPECT_EQ(engine.effective(), CrackPolicy::kStochastic);
  EXPECT_EQ(engine.switches(), 2u);

  // Reset re-arms everything.
  engine.Reset(opts);
  EXPECT_EQ(engine.effective(), CrackPolicy::kStochastic);
  EXPECT_EQ(engine.switches(), 0u);
  EXPECT_EQ(engine.pattern(), WorkloadPattern::kUnknown);
}

TEST(AdaptivePolicyTest, AutoPathDetectsAndAnswersLikeStandard) {
  const uint64_t seed = TestSeed(29);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const size_t n = 20000;
  const int64_t width = 200;
  auto bat = PermutationColumn(n, seed);

  auto make_path = [&](CrackPolicy policy) {
    AccessPathConfig config;
    config.strategy = AccessStrategy::kCrack;
    config.policy.policy = policy;
    config.policy.min_piece_size = 128;
    auto path = CreateColumnAccessPath(bat, config);
    EXPECT_TRUE(path.ok());
    return std::move(*path);
  };
  auto oracle = make_path(CrackPolicy::kStandard);
  auto auto_path = make_path(CrackPolicy::kAuto);

  Pcg32 rng(seed + 1);
  for (int q = 0; q < 40; ++q) {
    int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
    RangeBounds bounds = RangeBounds::HalfOpen(lo, lo + width);
    IoStats io;
    AccessSelection want = oracle->Select(bounds, Delivery::kView, &io);
    AccessSelection got = auto_path->Select(bounds, Delivery::kView, &io);
    EXPECT_EQ(got.count, want.count) << "query " << q;
  }
  PathPolicyStatus status = auto_path->PolicyStatus();
  EXPECT_EQ(status.configured, CrackPolicy::kAuto);
  EXPECT_EQ(status.effective, CrackPolicy::kStandard);  // random detected
  EXPECT_EQ(status.pattern, WorkloadPattern::kRandom);
  EXPECT_GE(status.switches, 1u);
  EXPECT_EQ(status.samples, 40u);
  EXPECT_TRUE(status.crack);
}

// ---------------------------------------------------------------------------
// kProgressive: oracle parity, the per-query write bound, and frontier
// convergence under repetition.
// ---------------------------------------------------------------------------

TEST(ProgressivePolicyTest, MatchesOracleAndBoundsPerQueryWrites) {
  const uint64_t seed = TestSeed(31);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const size_t n = 50000;
  const double budget = 0.05;
  const int64_t width = 500;
  auto bat = PermutationColumn(n, seed);

  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  config.policy.policy = CrackPolicy::kStandard;
  config.policy.min_piece_size = 256;
  auto oracle = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(oracle.ok());
  config.policy.policy = CrackPolicy::kProgressive;
  config.policy.progressive_budget = budget;
  auto progressive = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(progressive.ok());

  // The pool is budget x the touched piece's span with an absolute floor;
  // the whole column bounds every span, and a partition pass may overshoot
  // by a couple of swaps — hence the small slack.
  const uint64_t limit =
      std::max<uint64_t>(256, static_cast<uint64_t>(
                                  budget * static_cast<double>(n))) +
      32;
  uint64_t oracle_max_writes = 0;
  Pcg32 rng(seed + 1);
  for (int q = 0; q < 60; ++q) {
    int64_t lo = rng.NextInRange(1, static_cast<int64_t>(n) - width);
    RangeBounds bounds = RangeBounds::HalfOpen(lo, lo + width);
    IoStats oracle_io;
    AccessSelection want =
        (*oracle)->Select(bounds, Delivery::kView, &oracle_io);
    oracle_max_writes = std::max(oracle_max_writes, oracle_io.kernel_writes);
    IoStats io;
    AccessSelection got =
        (*progressive)->Select(bounds, Delivery::kView, &io);
    EXPECT_EQ(got.count, want.count) << "query " << q;
    EXPECT_LE(io.kernel_writes, limit)
        << "query " << q << " blew the progressive budget";
  }
  // The bound is not vacuous: standard cracking's first-touch spikes far
  // exceed it on a column this size.
  EXPECT_GT(oracle_max_writes, limit);
  PathPolicyStatus status = (*progressive)->PolicyStatus();
  EXPECT_EQ(status.configured, CrackPolicy::kProgressive);
  EXPECT_EQ(status.progressive_budget, budget);
}

TEST(ProgressivePolicyTest, RepeatedQueriesDrainTheFrontier) {
  const uint64_t seed = TestSeed(37);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const size_t n = 20000;
  auto bat = PermutationColumn(n, seed);

  AccessPathConfig config;
  config.strategy = AccessStrategy::kCrack;
  config.policy.policy = CrackPolicy::kProgressive;
  config.policy.min_piece_size = 128;
  config.policy.progressive_budget = 0.1;
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());

  // A fixed query set, repeated: every pass advances the carried-over
  // frontiers by at least the budget pool, so the pending rows must reach
  // zero — after which the cuts are exact and stay exact.
  const std::vector<RangeBounds> queries = {
      RangeBounds::HalfOpen(1000, 2000),  RangeBounds::HalfOpen(5000, 5500),
      RangeBounds::HalfOpen(9000, 12000), RangeBounds::HalfOpen(15000, 15100),
      RangeBounds::HalfOpen(17500, 19000)};
  std::vector<uint64_t> want;
  size_t pending = n;
  for (int round = 0; round < 400 && pending > 0; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      IoStats io;
      AccessSelection sel =
          (*path)->Select(queries[q], Delivery::kView, &io);
      if (round == 0) {
        want.push_back(sel.count);
      } else {
        ASSERT_EQ(sel.count, want[q]) << "round " << round << " query " << q;
      }
    }
    pending = (*path)->PolicyStatus().progressive_pending;
  }
  EXPECT_EQ(pending, 0u) << "frontier never drained";
}

// ---------------------------------------------------------------------------
// Runtime SET POLICY through the store: live switch (accelerators kept),
// report surface, and SQL statements.
// ---------------------------------------------------------------------------

TEST(AdaptivePolicyTest, StoreSwitchesPolicyLiveAndReportsIt) {
  TapestryOptions topts;
  topts.num_rows = 4000;
  topts.seed = 19;
  DbOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.policy.min_piece_size = 128;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());

  auto count = [&](int64_t lo, int64_t hi) {
    auto result = store.SelectRange("R", "c0", RangeBounds::Closed(lo, hi));
    EXPECT_TRUE(result.ok());
    return result->count;
  };
  uint64_t want = count(100, 1500);
  size_t pieces_before = *store.NumPieces("R", "c0");

  CrackPolicyOptions next = store.options().policy;
  next.policy = CrackPolicy::kProgressive;
  next.progressive_budget = 0.2;
  ASSERT_TRUE(store.SetPolicy(next).ok());
  EXPECT_EQ(store.options().policy.policy, CrackPolicy::kProgressive);
  // Live switch: the accelerator (and its pieces) survived.
  EXPECT_EQ(*store.NumPieces("R", "c0"), pieces_before);
  EXPECT_EQ(count(100, 1500), want);

  auto report = store.PolicyReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].table, "R");
  EXPECT_EQ(report[0].column, "c0");
  EXPECT_EQ(report[0].status.configured, CrackPolicy::kProgressive);
  EXPECT_EQ(report[0].status.progressive_budget, 0.2);

  next.policy = CrackPolicy::kAuto;
  ASSERT_TRUE(store.SetPolicy(next).ok());
  EXPECT_EQ(count(100, 1500), want);
  EXPECT_EQ(store.PolicyReport()[0].status.configured, CrackPolicy::kAuto);
}

TEST(AdaptivePolicyTest, SqlSetAndShowPolicy) {
  TapestryOptions topts;
  topts.num_rows = 2000;
  DbOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());

  // Before any query: the report is empty but the statement still works.
  auto show = sql::ExecuteSql(&store, "SHOW POLICY");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->count, 0u);

  auto set = sql::ExecuteSql(&store, "SET POLICY progressive BUDGET 0.25");
  ASSERT_TRUE(set.ok());
  EXPECT_NE(set->message.find("progressive"), std::string::npos);
  EXPECT_EQ(store.options().policy.policy, CrackPolicy::kProgressive);
  EXPECT_EQ(store.options().policy.progressive_budget, 0.25);

  // Research aliases parse through SQL too.
  ASSERT_TRUE(sql::ExecuteSql(&store, "SET POLICY ddc").ok());
  EXPECT_EQ(store.options().policy.policy, CrackPolicy::kStochastic);
  // ... and the budget knob survives a switch that does not restate it.
  EXPECT_EQ(store.options().policy.progressive_budget, 0.25);

  EXPECT_FALSE(sql::ExecuteSql(&store, "SET POLICY bogus").ok());
  EXPECT_FALSE(sql::ExecuteSql(&store, "SET POLICY progressive BUDGET 2").ok());

  // After a query the report carries the column's live state.
  ASSERT_TRUE(
      sql::ExecuteSql(&store, "SELECT COUNT(*) FROM R WHERE c0 < 500").ok());
  show = sql::ExecuteSql(&store, "SHOW POLICY");
  ASSERT_TRUE(show.ok());
  EXPECT_EQ(show->count, 1u);
  EXPECT_NE(show->message.find("R"), std::string::npos);
  EXPECT_NE(show->message.find("c0"), std::string::npos);
  EXPECT_NE(show->message.find("stochastic"), std::string::npos);

  // POLICY stayed a soft keyword: a column named "policy" still updates.
  EXPECT_FALSE(sql::ExecuteSql(&store, "UPDATE R SET policy = 5").ok());
  // (fails on the unknown column, not in the parser)
  auto parse_check = sql::ParseStatement("UPDATE R SET policy = 5");
  ASSERT_TRUE(parse_check.ok());
  EXPECT_EQ(parse_check->kind, sql::StatementKind::kUpdate);
}

// ---------------------------------------------------------------------------
// Concurrency: the self-driving policies ride the shared-latch path, and a
// racing SET POLICY must never corrupt an answer (TSan targets).
// ---------------------------------------------------------------------------

TEST(AdaptivePolicyTest, SelfDrivingPoliciesRideSharedPathUnderRace) {
  const uint64_t seed = TestSeed(616161);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TaskPool::SetGlobalThreads(4);
  for (CrackPolicy policy : {CrackPolicy::kAuto, CrackPolicy::kProgressive}) {
    SCOPED_TRACE(CrackPolicyName(policy));
    TapestryOptions topts;
    topts.num_rows = 3000;
    topts.seed = seed;

    DbOptions sopts;
    sopts.strategy = AccessStrategy::kCrack;
    sopts.policy.policy = policy;
    sopts.policy.min_piece_size = 64;
    sopts.policy.progressive_budget = 0.1;
    auto serial_db = *AdaptiveStore::Open(sopts);
    AdaptiveStore& serial = *serial_db;
    ASSERT_TRUE(serial.AddTable(*BuildTapestry("R", topts)).ok());

    DbOptions copts = sopts;
    copts.concurrent = true;
    auto concurrent_db = *AdaptiveStore::Open(copts);
    AdaptiveStore& concurrent = *concurrent_db;
    ASSERT_TRUE(concurrent.AddTable(*BuildTapestry("R", topts)).ok());

    const int64_t n = static_cast<int64_t>(topts.num_rows);
    struct Query {
      int64_t lo = 0;
      int64_t hi = 0;
      uint64_t want = 0;
    };
    Pcg32 rng(seed + 7);
    std::vector<Query> queries;
    for (int i = 0; i < 48; ++i) {
      Query q;
      q.lo = rng.NextInRange(1, n);
      q.hi = q.lo + rng.NextInRange(0, n / 3);
      auto want =
          serial.SelectRange("R", "c0", RangeBounds::Closed(q.lo, q.hi));
      ASSERT_TRUE(want.ok());
      q.want = want->count;
      queries.push_back(q);
    }
    std::vector<std::thread> threads;
    for (size_t k = 0; k < 4; ++k) {
      threads.emplace_back([&, k] {
        for (int pass = 0; pass < 4; ++pass) {
          for (size_t i = k; i < queries.size(); i += 4) {
            auto got = concurrent.SelectRange(
                "R", "c0", RangeBounds::Closed(queries[i].lo, queries[i].hi));
            if (!got.ok() || got->count != queries[i].want) {
              ADD_FAILURE()
                  << CrackPolicyName(policy) << " query " << i << ": got "
                  << (got.ok() ? got->count : 0) << " want "
                  << queries[i].want;
              return;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_GT(*concurrent.NumPieces("R", "c0"), 1u);
  }
  TaskPool::SetGlobalThreads(0);
}

TEST(AdaptivePolicyTest, RuntimeSetPolicyRacesReaders) {
  const uint64_t seed = TestSeed(717171);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TaskPool::SetGlobalThreads(4);
  TapestryOptions topts;
  topts.num_rows = 3000;
  topts.seed = seed;

  DbOptions sopts;
  sopts.strategy = AccessStrategy::kCrack;
  sopts.policy.min_piece_size = 64;
  auto serial_db = *AdaptiveStore::Open(sopts);
  AdaptiveStore& serial = *serial_db;
  ASSERT_TRUE(serial.AddTable(*BuildTapestry("R", topts)).ok());

  DbOptions copts = sopts;
  copts.concurrent = true;
  auto concurrent_db = *AdaptiveStore::Open(copts);
  AdaptiveStore& concurrent = *concurrent_db;
  ASSERT_TRUE(concurrent.AddTable(*BuildTapestry("R", topts)).ok());

  const int64_t n = static_cast<int64_t>(topts.num_rows);
  struct Query {
    int64_t lo = 0;
    int64_t hi = 0;
    uint64_t want = 0;
  };
  Pcg32 rng(seed + 3);
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) {
    Query q;
    q.lo = rng.NextInRange(1, n);
    q.hi = q.lo + rng.NextInRange(0, n / 4);
    auto want = serial.SelectRange("R", "c0", RangeBounds::Closed(q.lo, q.hi));
    ASSERT_TRUE(want.ok());
    q.want = want->count;
    queries.push_back(q);
  }

  // Readers hammer the fixed query set while the main thread keeps
  // switching the live policy across every discipline. Every answer must
  // stay exact through every switch.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t k = 0; k < 4; ++k) {
    readers.emplace_back([&, k] {
      size_t i = k;
      while (!stop.load(std::memory_order_relaxed)) {
        const Query& q = queries[i % queries.size()];
        auto got = concurrent.SelectRange("R", "c0",
                                          RangeBounds::Closed(q.lo, q.hi));
        if (!got.ok() || got->count != q.want) {
          ADD_FAILURE() << "query " << (i % queries.size()) << ": got "
                        << (got.ok() ? got->count : 0) << " want " << q.want;
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        ++i;
      }
    });
  }
  const CrackPolicy cycle[] = {CrackPolicy::kStochastic, CrackPolicy::kCoarse,
                               CrackPolicy::kProgressive, CrackPolicy::kAuto,
                               CrackPolicy::kStandard};
  for (int round = 0; round < 20 && !stop.load(); ++round) {
    CrackPolicyOptions next = concurrent.options().policy;
    next.policy = cycle[round % 5];
    ASSERT_TRUE(concurrent.SetPolicy(next).ok());
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(concurrent.options().policy.policy, CrackPolicy::kStandard);
  TaskPool::SetGlobalThreads(0);
}

// Configure re-arms a store while statements run on it: a writer thread
// inserts and aggregates (its first aggregate builds the column's path, so
// the build reads the options mid-stream) while the main thread keeps
// changing the maintenance thresholds and the defaults for new paths. The
// store's options are written only under its exclusive latch and read only
// under its latch, so ThreadSanitizer sees no race.
TEST(AdaptivePolicyTest, ConfigureRacesRunningStatements) {
  DbOptions opts;
  opts.concurrent = true;
  opts.track_lineage = false;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;
  TapestryOptions topts;
  topts.num_rows = 2000;
  topts.num_columns = 2;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());

  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{0};
  std::thread writer([&] {
    for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      auto ins = store.Insert("R", {Value(i), Value(i)});
      auto agg = store.AggregateRange("R", "c1", RangeBounds::Closed(0, 999));
      started.store(true, std::memory_order_relaxed);
      if (!ins.ok() || !agg.ok()) {
        ADD_FAILURE() << (ins.ok() ? agg.status() : ins.status()).ToString();
        return;
      }
      inserted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const DeltaMergePolicy merges[] = {DeltaMergePolicy::kImmediate,
                                     DeltaMergePolicy::kThreshold,
                                     DeltaMergePolicy::kRippleOnSelect};
  DbOptions next = opts;
  for (int i = 0; i < 200; ++i) {
    next.autovacuum_version_threshold = i % 2 == 0 ? 64 : 65536;
    next.checkpoint_interval_bytes = static_cast<uint64_t>(i % 4 + 1) << 20;
    next.delta_merge.policy = merges[i % 3];
    next.merge_budget =
        i % 2 == 0 ? MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 16}
                   : MergeBudget{};
    Status st = store.Configure(next);
    if (!st.ok()) {
      ADD_FAILURE() << st.ToString();
      break;
    }
    if (i == 0) {
      while (!started.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(*store.LiveRowCount("R"),
            topts.num_rows + static_cast<uint64_t>(inserted.load()));
  // The last re-arm stands.
  const DbOptions last = store.options();
  EXPECT_EQ(last.autovacuum_version_threshold,
            next.autovacuum_version_threshold);
  EXPECT_EQ(last.checkpoint_interval_bytes, next.checkpoint_interval_bytes);
  EXPECT_EQ(last.delta_merge.policy, next.delta_merge.policy);
  EXPECT_TRUE(last.merge_budget.unlimited());
}

}  // namespace
}  // namespace crackstore
