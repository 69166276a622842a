// Copyright 2026 The CrackStore Authors
//
// Tests for the observability layer: the metrics registry primitives, the
// per-statement QueryTrace, EXPLAIN ANALYZE / SHOW STATS through SQL, and
// the logging helpers. The EXPLAIN ANALYZE counts are cross-checked against
// the store's own introspection (NumPieces), so the report cannot drift
// from what the cracker index actually did.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_store.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MatchLike;
using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram primitives.
// ---------------------------------------------------------------------------

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(c.Value(), 42u);
  } else {
    EXPECT_EQ(c.Value(), 0u);
  }
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "built with CRACKSTORE_NO_METRICS";
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(g.Value(), 7);
  }
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketIndexAtPowerOfTwoEdges) {
  // Bucket i holds values of bit width i: [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  for (size_t k = 1; k < 63; ++k) {
    const uint64_t pow = uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(pow), k + 1) << "v=2^" << k;
    EXPECT_EQ(Histogram::BucketIndex(pow - 1), k) << "v=2^" << k << "-1";
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
}

TEST(HistogramTest, ObserveFillsBucketsSumAndCount) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "built with CRACKSTORE_NO_METRICS";
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(7);
  h.Observe(8);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_EQ(h.Sum(), 16u);
  EXPECT_EQ(h.BucketCount(0), 1u);  // 0
  EXPECT_EQ(h.BucketCount(1), 1u);  // 1
  EXPECT_EQ(h.BucketCount(3), 1u);  // 7
  EXPECT_EQ(h.BucketCount(4), 1u);  // 8
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
}

// ---------------------------------------------------------------------------
// MatchLike (the SHOW STATS LIKE glob).
// ---------------------------------------------------------------------------

TEST(MatchLikeTest, Wildcards) {
  EXPECT_TRUE(MatchLike("", "anything"));
  EXPECT_TRUE(MatchLike("%", "anything"));
  EXPECT_TRUE(MatchLike("crack%", "crack.cracks"));
  EXPECT_FALSE(MatchLike("crack%", "latch.range_waits"));
  EXPECT_TRUE(MatchLike("%size", "crack.piece_size"));
  EXPECT_TRUE(MatchLike("%piece%", "crack.piece_size"));
  EXPECT_TRUE(MatchLike("crack.crack_", "crack.cracks"));
  EXPECT_FALSE(MatchLike("crack.crack_", "crack.crack"));
  EXPECT_TRUE(MatchLike("a%b%c", "a-x-b-y-c"));
  EXPECT_FALSE(MatchLike("a%b%c", "a-x-c-y-b"));
  EXPECT_TRUE(MatchLike("exact", "exact"));
  EXPECT_FALSE(MatchLike("exact", "exactly"));
}

// ---------------------------------------------------------------------------
// MetricsRegistry: stable pointers, rows, exporters, reset.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, StablePointersAndRows) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.reg.counter", "a test counter");
  Counter* b = reg.GetCounter("test.reg.counter");
  EXPECT_EQ(a, b);
  a->Add(5);
  Gauge* g = reg.GetGauge("test.reg.gauge");
  g->Set(-2);
  reg.GetHistogram("test.reg.hist")->Observe(3);

  auto rows = reg.Rows("test.reg.%");
  ASSERT_EQ(rows.size(), 3u);
  // Rows are sorted by name: counter, gauge, hist.
  EXPECT_EQ(rows[0][0], "test.reg.counter");
  EXPECT_EQ(rows[0][1], "counter");
  EXPECT_EQ(rows[1][0], "test.reg.gauge");
  EXPECT_EQ(rows[2][0], "test.reg.hist");
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(rows[0][2], "5");
    EXPECT_EQ(rows[1][2], "-2");
  }
}

TEST(MetricsRegistryTest, RenderTextIsPrometheusShaped) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.prom.counter", "described")->Add(7);
  reg.GetHistogram("test.prom.hist")->Observe(5);
  std::string text = reg.RenderText("test.prom.%");
  EXPECT_NE(text.find("# HELP crackstore_test_prom_counter described"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE crackstore_test_prom_counter counter"),
            std::string::npos);
  if (obs::kMetricsEnabled) {
    EXPECT_NE(text.find("crackstore_test_prom_counter 7"), std::string::npos);
    EXPECT_NE(text.find("_bucket{le="), std::string::npos);
    EXPECT_NE(text.find("crackstore_test_prom_hist_count 1"),
              std::string::npos);
  }
}

TEST(MetricsRegistryTest, RenderJsonHasSections) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.json.counter")->Add(1);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesValuesKeepsNames) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test.reset.counter");
  c->Add(9);
  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_FALSE(reg.Rows("test.reset.%").empty());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE / SHOW STATS through SQL, cross-checked against the
// store's introspection.
// ---------------------------------------------------------------------------

class ObservabilitySqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TapestryOptions opts;
    opts.num_rows = 4000;
    opts.num_columns = 2;
    opts.seed = 71;
    ASSERT_TRUE(store_.AddTable(*BuildTapestry("R", opts)).ok());
  }

  AdaptiveStore store_;
};

TEST_F(ObservabilitySqlTest, ExplainAnalyzeReportsCrackWork) {
  auto out = *sql::ExecuteSql(
      &store_, "EXPLAIN ANALYZE SELECT COUNT(*) FROM R "
               "WHERE c0 BETWEEN 1000 AND 2000");
  EXPECT_EQ(out.kind, sql::OutputKind::kTxn);
  // The inner statement's result rides along for cross-checking.
  EXPECT_EQ(out.count, 1001u);

  // The report must name the acceptance-criteria quantities.
  EXPECT_NE(out.message.find("pieces touched"), std::string::npos);
  EXPECT_NE(out.message.find("crack kernel writes"), std::string::npos);
  EXPECT_NE(out.message.find("rows filtered"), std::string::npos);
  EXPECT_NE(out.message.find("wait time"), std::string::npos);
  EXPECT_NE(out.message.find("plan"), std::string::npos);
  EXPECT_NE(out.message.find("parse"), std::string::npos);

  // Cross-check: a BETWEEN on a fresh crack column splits the single
  // initial piece; the pieces the report counts must equal the cracker
  // index's own piece table growth.
  EXPECT_GT(out.io.cracks, 0u);
  EXPECT_GT(out.io.pieces_created, 0u);
  EXPECT_GT(out.io.pieces_touched, 0u);
  size_t pieces = *store_.NumPieces("R", "c0");
  EXPECT_EQ(pieces, 1u + out.io.pieces_created);
}

TEST_F(ObservabilitySqlTest, ExplainAnalyzePieceCountsAccumulate) {
  IoStats total;
  const char* queries[] = {
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM R WHERE c0 BETWEEN 100 AND 700",
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM R WHERE c0 BETWEEN 1500 AND 2500",
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM R WHERE c0 > 3600",
  };
  for (const char* q : queries) {
    auto out = *sql::ExecuteSql(&store_, q);
    total += out.io;
  }
  size_t pieces = *store_.NumPieces("R", "c0");
  EXPECT_EQ(pieces, 1u + total.pieces_created);
}

TEST_F(ObservabilitySqlTest, ExplainAnalyzeSeesSnapshotFiltering) {
  ASSERT_TRUE(sql::ExecuteSql(&store_, "DELETE FROM R WHERE c0 < 500").ok());
  auto out = *sql::ExecuteSql(
      &store_, "EXPLAIN ANALYZE SELECT COUNT(*) FROM R WHERE c0 < 1000");
  EXPECT_EQ(out.count, 500u);
  // The 500 deleted rows are hidden by snapshot visibility; the trace must
  // report a non-zero filtered count.
  EXPECT_NE(out.message.find("rows filtered="), std::string::npos);
  EXPECT_EQ(out.message.find("rows filtered=0,"), std::string::npos);
}

TEST_F(ObservabilitySqlTest, ExplainAnalyzeOfDmlAndVacuum) {
  auto ins = *sql::ExecuteSql(
      &store_, "EXPLAIN ANALYZE INSERT INTO R VALUES (90001, 90002)");
  EXPECT_EQ(ins.kind, sql::OutputKind::kTxn);
  EXPECT_EQ(ins.count, 1u);
  auto vac = *sql::ExecuteSql(&store_, "EXPLAIN ANALYZE VACUUM");
  EXPECT_EQ(vac.kind, sql::OutputKind::kTxn);
  EXPECT_NE(vac.message.find("total"), std::string::npos);
}

TEST_F(ObservabilitySqlTest, ShowStatsRendersRegistry) {
  ASSERT_TRUE(sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM R WHERE c0 < 100")
                  .ok());
  auto out = *sql::ExecuteSql(&store_, "SHOW STATS");
  EXPECT_EQ(out.kind, sql::OutputKind::kTxn);
  EXPECT_NE(out.message.find("instrument"), std::string::npos);
  EXPECT_NE(out.message.find("crack.cracks"), std::string::npos);
  EXPECT_GT(out.count, 0u);

  auto filtered = *sql::ExecuteSql(&store_, "SHOW STATS LIKE 'crack%'");
  EXPECT_NE(filtered.message.find("crack.cracks"), std::string::npos);
  EXPECT_EQ(filtered.message.find("latch."), std::string::npos);
  EXPECT_LT(filtered.count, out.count);

  // SHOW STATS and the shared renderer show the same registry.
  EXPECT_EQ(filtered.message, sql::RenderStats("crack%"));
}

TEST_F(ObservabilitySqlTest, ShowStatsRejectsBadLike) {
  auto result = sql::ExecuteSql(&store_, "SHOW STATS LIKE crack");
  EXPECT_FALSE(result.ok());
}

TEST_F(ObservabilitySqlTest, NestedExplainAnalyzeParses) {
  auto out = *sql::ExecuteSql(
      &store_, "EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT COUNT(*) FROM R");
  EXPECT_EQ(out.kind, sql::OutputKind::kTxn);
  EXPECT_EQ(out.count, 4000u);
}

// A cross-column SUM under a half-open pair: the pair normalizes into one
// range, so c0 is cracked once, and the aggregate sink walks the span answer
// without materializing oids. The statement span must be explained by its
// children (plan, select, gather), cold and warm.
TEST(ObservabilityPlanTest, HalfOpenCrossSumIsOneSelectAndAGather) {
  AdaptiveStore store;
  TapestryOptions topts;
  topts.num_rows = 200000;
  topts.num_columns = 2;
  topts.seed = 5;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());
  sql::Statement stmt = *sql::ParseStatement(
      "SELECT SUM(c1) FROM R WHERE c0 >= 100 AND c0 < 90000");
  for (const char* run : {"cold", "warm"}) {
    SCOPED_TRACE(run);
    obs::QueryTrace trace;
    obs::ExecContext ctx;
    ctx.trace = &trace;
    auto out = sql::Execute(&store, stmt, ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->groups.size(), 1u);

    std::vector<obs::QueryTrace::Span> spans = trace.Spans();
    size_t stmt_idx = spans.size();
    std::vector<std::string> selects;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name.rfind("select-stmt", 0) == 0) stmt_idx = i;
      if (spans[i].name.rfind("select ", 0) == 0) {
        selects.push_back(spans[i].name);
      }
    }
    ASSERT_LT(stmt_idx, spans.size());
    EXPECT_EQ(selects, std::vector<std::string>{"select R.c0"});
    double children = 0.0;
    bool saw_gather = false;
    for (size_t i = stmt_idx + 1;
         i < spans.size() && spans[i].depth > spans[stmt_idx].depth; ++i) {
      if (spans[i].depth != spans[stmt_idx].depth + 1) continue;
      children += spans[i].seconds;
      saw_gather |= spans[i].name == "gather R.c1";
    }
    EXPECT_TRUE(saw_gather);
    EXPECT_GE(children, 0.9 * spans[stmt_idx].seconds)
        << trace.Render(out->io, out->seconds);
    if (obs::kMetricsEnabled) {
      std::string report = trace.Render(out->io, out->seconds);
      EXPECT_NE(report.find("materialized oids=0,"), std::string::npos)
          << report;
    }
  }
}

// A same-column SUM pushes down to the cracker index. Its second run cracks
// nothing and answers every row from piece summaries: the trace reports them
// as summary rows and the statement reads no tuples.
TEST(ObservabilityPlanTest, RepeatedPushdownAnswersFromSummaries) {
  AdaptiveStore store;
  TapestryOptions topts;
  topts.num_rows = 200000;
  topts.num_columns = 1;
  topts.seed = 6;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());
  sql::Statement stmt = *sql::ParseStatement(
      "SELECT SUM(c0) FROM R WHERE c0 BETWEEN 1000 AND 150000");
  for (const char* run : {"cold", "warm"}) {
    SCOPED_TRACE(run);
    const bool warm = run[0] == 'w';
    obs::QueryTrace trace;
    obs::ExecContext ctx;
    ctx.trace = &trace;
    auto out = sql::Execute(&store, stmt, ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (warm) {
      EXPECT_EQ(out->io.tuples_read, 0u);
    }
    if (obs::kMetricsEnabled) {
      const obs::TraceCounters live = trace.LiveSnapshot();
      EXPECT_EQ(live.agg_pushdown_rows, 149001u);
      EXPECT_EQ(live.agg_summary_rows, warm ? 149001u : 0u);
      std::string report = trace.Render(out->io, out->seconds);
      EXPECT_NE(report.find(warm ? "summary rows=149001" : "summary rows=0"),
                std::string::npos)
          << report;
    }
  }
}

// A warm COUNT over a range holding k rows with version state: the snapshot
// filter sends exactly those k rows to the version maps (every other answer
// row is settled by the table's marks), and EXPLAIN ANALYZE reports them.
TEST(ObservabilityPlanTest, WarmCountProbesOnlyMarkedRows) {
  AdaptiveStore store;
  TapestryOptions topts;
  topts.num_rows = 50000;
  topts.num_columns = 2;
  topts.seed = 8;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("R", topts)).ok());
  // 10 deleted rows and 5 rows with a superseded c1: 15 marked rows, all
  // inside the counted range.
  ASSERT_TRUE(
      sql::ExecuteSql(&store, "DELETE FROM R WHERE c0 >= 1000 AND c0 < 1010")
          .ok());
  ASSERT_TRUE(sql::ExecuteSql(&store,
                              "UPDATE R SET c1 = 0 WHERE c0 >= 2000 AND "
                              "c0 < 2005")
                  .ok());
  const char* count = "SELECT COUNT(*) FROM R WHERE c0 BETWEEN 500 AND 30000";
  ASSERT_EQ(sql::ExecuteSql(&store, count)->count, 29491u);  // cold: cracks
  auto out = *sql::ExecuteSql(&store, std::string("EXPLAIN ANALYZE ") + count);
  EXPECT_EQ(out.count, 29491u);
  if (obs::kMetricsEnabled) {
    EXPECT_NE(out.message.find("version probes=15\n"), std::string::npos)
        << out.message;
    EXPECT_NE(out.message.find("rows filtered=10,"), std::string::npos)
        << out.message;
  }
}

// ---------------------------------------------------------------------------
// Self-driving policy instruments: policy.switches must count exactly the
// runtime switches the access paths performed (cross-checked against the
// paths' own switch counters), and both policy instruments must compile to
// no-ops under CRACKSTORE_NO_METRICS.
// ---------------------------------------------------------------------------

TEST(PolicyInstrumentsTest, RecordersAreNoOpsWhenDisabled) {
  // Direct calls must always compile and be safe; they only move the
  // registry when metrics are enabled.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* switches = reg.GetCounter("policy.switches");
  Counter* deferred = reg.GetCounter("crack.progressive_deferred_rows");
  const uint64_t switches_before = switches->Value();
  const uint64_t deferred_before = deferred->Value();
  obs::RecordPolicySwitch();
  obs::RecordProgressiveDeferred(5);
  obs::RecordProgressiveDeferred(0);  // zero-row calls never count
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(switches->Value(), switches_before + 1);
    EXPECT_EQ(deferred->Value(), deferred_before + 5);
  } else {
    EXPECT_EQ(switches->Value(), 0u);
    EXPECT_EQ(deferred->Value(), 0u);
  }
}

TEST(PolicyInstrumentsTest, SwitchCounterMatchesPathCountersExactly) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "built with CRACKSTORE_NO_METRICS";
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("policy.switches");
  const uint64_t before = counter->Value();

  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.policy.policy = CrackPolicy::kAuto;
  opts.policy.min_piece_size = 128;
  AdaptiveStore store(opts);
  TapestryOptions topts;
  topts.num_rows = 4000;
  topts.num_columns = 2;
  topts.seed = 97;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("T", topts)).ok());

  // A random workload over both columns: each column's detector confirms
  // kRandom and switches stochastic -> standard once.
  Pcg32 rng(131);
  for (int q = 0; q < 24; ++q) {
    int64_t lo = rng.NextInRange(1, 3800);
    for (const char* col : {"c0", "c1"}) {
      ASSERT_TRUE(
          store.SelectRange("T", col, RangeBounds::Closed(lo, lo + 100)).ok());
    }
  }
  uint64_t path_switches = 0;
  for (const auto& row : store.PolicyReport()) {
    path_switches += row.status.switches;
  }
  EXPECT_GT(path_switches, 0u);
  // Exactness: the global instrument advanced by precisely what the paths
  // report (no other kAuto store is live in this process while this runs).
  EXPECT_EQ(counter->Value(), before + path_switches);
}

// ---------------------------------------------------------------------------
// Trace parity across crack policies and serial/concurrent stores: every
// configuration must produce spans, crack counts that match the statement
// IoStats, and (concurrent only) latch activity.
// ---------------------------------------------------------------------------

struct TraceParityConfig {
  CrackPolicy policy;
  bool concurrent;
};

class TraceParityTest : public ::testing::TestWithParam<TraceParityConfig> {};

TEST_P(TraceParityTest, TraceMatchesStatementIo) {
  const TraceParityConfig& config = GetParam();
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.policy.policy = config.policy;
  opts.concurrent = config.concurrent;
  AdaptiveStore store(opts);
  TapestryOptions topts;
  topts.num_rows = 3000;
  topts.num_columns = 2;
  topts.seed = 83;
  ASSERT_TRUE(store.AddTable(*BuildTapestry("T", topts)).ok());

  // Warm-up: the first touch builds the accelerator under the exclusive
  // column latch; the piece-granular range-lock path only engages on later
  // queries, once SharedSelectReady(). The traced query below must exercise
  // the steady-state path so latch counters are live in concurrent mode.
  ASSERT_TRUE(
      sql::ExecuteSql(&store, "SELECT COUNT(*) FROM T WHERE c0 < 100").ok());

  obs::QueryTrace trace;
  obs::ExecContext ctx;
  ctx.trace = &trace;
  sql::Statement stmt = *sql::ParseStatement(
      "SELECT COUNT(*) FROM T WHERE c0 BETWEEN 500 AND 1500");
  auto out = *sql::Execute(&store, stmt, ctx);
  EXPECT_EQ(out.count, 1001u);

  auto spans = trace.Spans();
  ASSERT_FALSE(spans.empty());
  const obs::QueryTrace::Span* stmt_span = nullptr;
  bool saw_parse = false, saw_plan = false;
  for (const auto& span : spans) {
    EXPECT_FALSE(span.open) << span.name;
    if (span.name.rfind("select-stmt", 0) == 0) stmt_span = &span;
    if (span.name == "parse") saw_parse = true;
    if (span.name.rfind("plan", 0) == 0) saw_plan = true;
  }
  EXPECT_TRUE(saw_parse);
  EXPECT_TRUE(saw_plan);
  ASSERT_NE(stmt_span, nullptr);
  // The statement span watched the same IoStats the statement reported, so
  // crack counts agree between trace and output.
  EXPECT_EQ(stmt_span->io.cracks, out.io.cracks);
  EXPECT_EQ(stmt_span->io.pieces_created, out.io.pieces_created);
  EXPECT_EQ(stmt_span->io.kernel_writes, out.io.kernel_writes);
  EXPECT_GT(out.io.cracks, 0u);

  if (obs::kMetricsEnabled) {
    obs::TraceCounters live = trace.LiveSnapshot();
    EXPECT_GT(live.simd_total(), 0u) << "crack kernels must report a tier";
    if (config.concurrent) {
      EXPECT_GT(live.latch_acquisitions, 0u);
    }
  }

  const std::string report = trace.Render(out.io, out.seconds);
  EXPECT_NE(report.find("pieces touched"), std::string::npos);
  EXPECT_NE(report.find("simd kernel calls"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndConcurrency, TraceParityTest,
    ::testing::Values(
        TraceParityConfig{CrackPolicy::kStandard, false},
        TraceParityConfig{CrackPolicy::kStochastic, false},
        TraceParityConfig{CrackPolicy::kCoarse, false},
        TraceParityConfig{CrackPolicy::kStandard, true},
        TraceParityConfig{CrackPolicy::kStochastic, true},
        TraceParityConfig{CrackPolicy::kCoarse, true}),
    [](const ::testing::TestParamInfo<TraceParityConfig>& info) {
      return std::string(CrackPolicyName(info.param.policy)) +
             (info.param.concurrent ? "Concurrent" : "Serial");
    });

// ---------------------------------------------------------------------------
// Trace plumbing without SQL: bindings nest and spans without a bound trace
// are free no-ops.
// ---------------------------------------------------------------------------

TEST(TraceBindingTest, NestsAndRestores) {
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
  obs::QueryTrace outer, inner;
  {
    obs::TraceBinding bind_outer(&outer);
    EXPECT_EQ(obs::CurrentTrace(), &outer);
    {
      obs::TraceBinding bind_inner(&inner);
      EXPECT_EQ(obs::CurrentTrace(), &inner);
    }
    EXPECT_EQ(obs::CurrentTrace(), &outer);
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST(TraceSpanTest, NoOpWithoutBoundTrace) {
  obs::TraceSpan span("orphan", std::string("detail"));
  span.Close();  // must be safe
}

TEST(TraceSpanTest, WatchedIoDeltaAndRender) {
  obs::QueryTrace trace;
  IoStats io;
  {
    obs::TraceBinding bind(&trace);
    obs::TraceSpan span("work", std::string("unit"), &io);
    io.tuples_read += 10;
    io.cracks += 2;
  }
  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work unit");
  EXPECT_EQ(spans[0].io.tuples_read, 10u);
  EXPECT_EQ(spans[0].io.cracks, 2u);
  trace.AddCompletedSpan("parse", 0.001);
  std::string report = trace.Render(io, 0.002);
  EXPECT_NE(report.find("work unit"), std::string::npos);
  EXPECT_NE(report.find("parse"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logging satellite: level parsing and the EVERY_N macro.
// ---------------------------------------------------------------------------

TEST(LoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_EQ(level, LogLevel::kWarn);  // untouched on failure
}

TEST(LoggingTest, LogEveryNSamplesTheSite) {
  // The macro must expand to a valid statement and only evaluate its stream
  // arguments on sampled passes.
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output quiet
  std::atomic<int> evaluations{0};
  auto expensive = [&evaluations] {
    ++evaluations;
    return "detail";
  };
  for (int i = 0; i < 10; ++i) {
    CRACK_LOG_EVERY_N(Info, 3) << "sampled " << expensive();
  }
  // Passes 0, 3, 6, 9 build the message (even though the level filter
  // swallows the emission).
  EXPECT_EQ(evaluations.load(), 4);
  SetLogLevel(saved);
}

}  // namespace
}  // namespace crackstore
