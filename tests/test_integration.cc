// Copyright 2026 The CrackStore Authors
//
// End-to-end integration tests: full MQS sessions against the AdaptiveStore
// under every strategy, cross-checked per step; engine-level workloads; the
// §5.1 SQL-level cracking round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "util/rng.h"
#include "engine/colstore_engine.h"
#include "engine/rowstore_engine.h"
#include "sim/crack_sim.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

namespace crackstore {
namespace {

std::shared_ptr<Relation> Tapestry(uint64_t n, uint64_t seed = 77) {
  TapestryOptions opts;
  opts.num_rows = n;
  opts.seed = seed;
  return *BuildTapestry("R", opts);
}

AdaptiveStoreOptions WithStrategy(AccessStrategy strategy,
                                  bool track_lineage) {
  AdaptiveStoreOptions opts;
  opts.strategy = strategy;
  opts.track_lineage = track_lineage;
  return opts;
}

class MqsSessionTest : public ::testing::TestWithParam<Profile> {};

TEST_P(MqsSessionTest, StrategiesAgreeStepByStep) {
  const uint64_t n = 20000;
  auto rel = Tapestry(n);

  MqsSpec spec;
  spec.num_rows = n;
  spec.sequence_length = 32;
  spec.target_selectivity = 0.05;
  spec.profile = GetParam();
  spec.seed = 4242;
  auto queries = GenerateSequence(spec);
  ASSERT_TRUE(queries.ok());

  AdaptiveStore scan(WithStrategy(AccessStrategy::kScan, false));
  AdaptiveStore crack(WithStrategy(AccessStrategy::kCrack, true));
  AdaptiveStore sort(WithStrategy(AccessStrategy::kSort, false));
  for (AdaptiveStore* s : {&scan, &crack, &sort}) {
    ASSERT_TRUE(s->AddTable(rel).ok());
  }

  for (const RangeQuery& q : *queries) {
    RangeBounds range = RangeBounds::Closed(q.lo, q.hi);
    auto a = scan.SelectRange("R", "c0", range);
    auto b = crack.SelectRange("R", "c0", range);
    auto c = sort.SelectRange("R", "c0", range);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    ASSERT_EQ(a->count, b->count) << "step " << q.step;
    ASSERT_EQ(a->count, c->count) << "step " << q.step;
    // Tapestry columns are permutations: count == window width.
    ASSERT_EQ(a->count, static_cast<uint64_t>(q.width())) << "step " << q.step;
  }

  // Cracking accumulated less read volume than scanning by the end.
  EXPECT_LT(crack.total_io().tuples_read, scan.total_io().tuples_read);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, MqsSessionTest,
                         ::testing::Values(Profile::kHomerun,
                                           Profile::kHiking,
                                           Profile::kStrolling,
                                           Profile::kStrollingConverge));

TEST(IntegrationTest, HomerunCrackBeatsScanInTouchedTuples) {
  const uint64_t n = 100000;
  auto rel = Tapestry(n);
  MqsSpec spec;
  spec.num_rows = n;
  spec.sequence_length = 64;
  spec.target_selectivity = 0.05;
  // The exponential user trims the candidate set early (paper §4); from
  // then on cracking touches only the small target region while the scan
  // keeps reading everything — the factor-4+ win of Fig. 10.
  spec.rho = ContractionModel::kExponential;
  spec.profile = Profile::kHomerun;
  auto queries = *GenerateSequence(spec);

  AdaptiveStore scan(WithStrategy(AccessStrategy::kScan, false));
  AdaptiveStore crack(WithStrategy(AccessStrategy::kCrack, false));
  ASSERT_TRUE(scan.AddTable(rel).ok());
  ASSERT_TRUE(crack.AddTable(rel).ok());
  for (const RangeQuery& q : queries) {
    RangeBounds range = RangeBounds::Closed(q.lo, q.hi);
    ASSERT_TRUE(scan.SelectRange("R", "c0", range).ok());
    ASSERT_TRUE(crack.SelectRange("R", "c0", range).ok());
  }
  // Fig. 10's claim: the cracking total is a multiple below the scan total.
  EXPECT_LT(crack.total_io().tuples_read * 3,
            scan.total_io().tuples_read);
}

TEST(IntegrationTest, LineageStaysLosslessThroughSession) {
  auto rel = Tapestry(5000);
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  Pcg32 rng(5);
  for (int q = 0; q < 25; ++q) {
    int64_t lo = rng.NextInRange(1, 4500);
    ASSERT_TRUE(
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 400)).ok());
  }
  ASSERT_GT(store.lineage().num_pieces(), 10u);
  EXPECT_TRUE(store.lineage().CheckLossless(0).ok());
  // Leaves of the lineage root tile the column exactly.
  uint64_t leaf_sum = 0;
  for (PieceId leaf : store.lineage().Leaves(0)) {
    leaf_sum += store.lineage().piece(leaf).size;
  }
  EXPECT_EQ(leaf_sum, 5000u);
}

TEST(IntegrationTest, SqlLevelCrackingRoundTrip) {
  // §5.1: crack at the SQL level, then answer the same query from the
  // partitioned table and compare against the monolithic table.
  RowEngine engine;
  ASSERT_TRUE(engine.ImportRelation(*Tapestry(2000)).ok());
  ASSERT_TRUE(
      engine.CrackTableSql("R", "c0", RangeBounds::AtMost(800), "Rp").ok());

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 100}, {700, 900}, {900, 2000}, {1, 2000}}) {
    auto direct = engine.RunSelect("R", "c0", RangeBounds::Closed(lo, hi),
                                   DeliveryMode::kCount);
    auto partitioned = engine.RunSelectPartitioned(
        "Rp", "c0", RangeBounds::Closed(lo, hi), DeliveryMode::kCount);
    ASSERT_TRUE(direct.ok() && partitioned.ok());
    EXPECT_EQ(direct->count, partitioned->count) << lo << ".." << hi;
  }

  // Pruned query reads fewer tuples than the monolithic scan.
  auto pruned = engine.RunSelectPartitioned(
      "Rp", "c0", RangeBounds::Closed(1, 100), DeliveryMode::kCount);
  ASSERT_TRUE(pruned.ok());
  EXPECT_LT(pruned->io.tuples_read, 2000u);
}

TEST(IntegrationTest, WedgeThenXiComposition) {
  // The paper's Fig. 5 session shape: Ξ on R.a, then ^ on R.k = S.k, then a
  // Ξ on S.b — all through the facade, checking counts against scans.
  TapestryOptions opts;
  opts.num_rows = 3000;
  opts.seed = 9;
  auto r = *BuildTapestry("R", opts);
  opts.seed = 10;
  auto s = *BuildTapestry("S", opts);

  AdaptiveStore crack(WithStrategy(AccessStrategy::kCrack, true));
  AdaptiveStore scan(WithStrategy(AccessStrategy::kScan, false));
  for (AdaptiveStore* store : {&crack, &scan}) {
    ASSERT_TRUE(store->AddTable(r).ok());
    ASSERT_TRUE(store->AddTable(s).ok());
  }

  for (AdaptiveStore* store : {&crack, &scan}) {
    auto q1 = store->SelectRange("R", "c1", RangeBounds::LessThan(10));
    ASSERT_TRUE(q1.ok());
    EXPECT_EQ(q1->count, 9u);
    auto q2 = store->JoinOids("R", "c0", "S", "c0");
    ASSERT_TRUE(q2.ok());
    EXPECT_EQ(q2->size(), 3000u);
    auto q3 = store->SelectRange("S", "c1", RangeBounds::GreaterThan(2975));
    ASSERT_TRUE(q3.ok());
    EXPECT_EQ(q3->count, 25u);
  }
}

TEST(IntegrationTest, GroupByAfterCracking) {
  // Ω composed with Ξ: crack a column, then group-aggregate another.
  Schema schema({{"g", ValueType::kInt64}, {"v", ValueType::kInt64}});
  auto rel = *Relation::Create("G", schema);
  Pcg32 rng(21);
  std::map<int64_t, int64_t> expected_sum;
  for (int i = 0; i < 2000; ++i) {
    int64_t g = rng.NextInRange(0, 9);
    int64_t v = rng.NextInRange(-50, 50);
    ASSERT_TRUE(rel->AppendRow({Value(g), Value(v)}).ok());
    expected_sum[g] += v;
  }
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  ASSERT_TRUE(store.SelectRange("G", "v", RangeBounds::AtLeast(0)).ok());
  auto sums = store.GroupBy("G", "g", "v", AggKind::kSum);
  ASSERT_TRUE(sums.ok());
  ASSERT_EQ(sums->size(), 10u);
  for (const auto& agg : *sums) {
    EXPECT_EQ(agg.value, expected_sum[agg.group]) << "group " << agg.group;
  }
}

TEST(IntegrationTest, CrackingAVerticalFragment) {
  // Ψ then Ξ: crack a table vertically, register the projected fragment as
  // its own table, and range-crack inside it — the oid surrogates keep the
  // fragment joinable back to the remainder afterwards.
  auto rel = Tapestry(2000);
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto psi = store.Project("R", {"c0"});
  ASSERT_TRUE(psi.ok());
  ASSERT_TRUE(store.AddTable(psi->projected).ok());

  auto result = store.SelectRange(psi->projected->name(), "c0",
                                  RangeBounds::Closed(100, 200),
                                  Delivery::kView);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, 101u);

  // Reconstruct the original through the surrogates and spot-check rows.
  auto rebuilt = ReconstructProjection(*psi, rel->schema(), "R2");
  ASSERT_TRUE(rebuilt.ok());
  for (size_t i : {size_t{0}, size_t{999}, size_t{1999}}) {
    EXPECT_EQ((*rebuilt)->GetRow(i), rel->GetRow(i));
  }
}

TEST(IntegrationTest, MergeBudgetSessionKeepsLineageConsistent) {
  // Long session with an aggressive fusion budget: every drop trims the
  // lineage subtree (§3.2's inverse operation); the DAG must stay loss-less
  // throughout.
  auto rel = Tapestry(10000);
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.merge_budget = MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 6};
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(rel).ok());
  Pcg32 rng(3);
  for (int q = 0; q < 60; ++q) {
    int64_t lo = rng.NextInRange(1, 9000);
    auto result =
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 500));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->count, 501u) << "query " << q;
    ASSERT_TRUE(store.lineage().CheckLossless(0).ok()) << "query " << q;
  }
  // Budget 6 bounds -> at most 13 pieces.
  EXPECT_LE(*store.NumPieces("R", "c0"), 13u);
  // Leaves of the (repeatedly trimmed) root still tile the column.
  uint64_t leaf_sum = 0;
  for (PieceId leaf : store.lineage().Leaves(0)) {
    leaf_sum += store.lineage().piece(leaf).size;
  }
  EXPECT_EQ(leaf_sum, 10000u);
}

// The root lineage node labelled `label` ("table.column").
PieceId RootNamed(const LineageGraph& g, const std::string& label) {
  for (size_t i = 0; i < g.num_pieces(); ++i) {
    const LineagePiece& p = g.piece(static_cast<PieceId>(i));
    if (p.is_root && p.label == label) return p.id;
  }
  return kInvalidPieceId;
}

using SlotRanges = std::vector<std::pair<size_t, size_t>>;

// The [begin, end) slot ranges of `root`'s leaves, ascending. Ξ outputs
// carry their range in the label ("R.c0[3,17)"); an uncracked root covers
// its whole size.
SlotRanges LeafRanges(const LineageGraph& g, PieceId root) {
  SlotRanges out;
  for (PieceId id : g.Leaves(root)) {
    const LineagePiece& p = g.piece(id);
    if (id == root) {
      out.emplace_back(0, p.size);
      continue;
    }
    size_t open = p.label.rfind('[');
    size_t comma = p.label.find(',', open);
    size_t begin = std::stoull(p.label.substr(open + 1));
    size_t end = std::stoull(p.label.substr(comma + 1));
    EXPECT_EQ(end - begin, p.size) << p.label;
    out.emplace_back(begin, end);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// After a crack statement on (table, column), the column's lineage leaves
// tile the accelerator exactly like its piece table, and the DAG is
// loss-less.
void ExpectLineageMatchesPieces(const AdaptiveStore& store,
                                const std::string& table,
                                const std::string& column) {
  const LineageGraph& g = store.lineage();
  PieceId root = RootNamed(g, table + "." + column);
  ASSERT_NE(root, kInvalidPieceId);
  Status lossless = g.CheckLossless(root);
  ASSERT_TRUE(lossless.ok()) << lossless.ToString();
  auto path = store.AccessPathFor(table, column);
  ASSERT_TRUE(path.ok());
  SlotRanges pieces;
  for (const PieceInfo& p : (*path)->Pieces()) {
    pieces.emplace_back(p.begin, p.end);
  }
  EXPECT_EQ(g.piece(root).size, (*path)->accel_tuples());
  ASSERT_EQ(LeafRanges(g, root), pieces);
}

// A delta merge rebuilds the cracker column at a new size; the re-rooted
// subtree must hold the merged rows, not the rows of the first load — after
// inserts merge in and after vacuumed deletes merge out.
TEST(IntegrationTest, LineageRerootsAtTheMergedSize) {
  auto rel = Tapestry(10000);
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.track_lineage = true;
  opts.delta_merge.policy = DeltaMergePolicy::kImmediate;
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(rel).ok());
  Pcg32 rng(15);
  auto select = [&] {
    int64_t lo = rng.NextInRange(1, 9000);
    auto r = store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 700));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  };
  for (int q = 0; q < 5; ++q) select();
  for (int64_t i = 1; i <= 50; ++i) {
    ASSERT_TRUE(
        store.Insert("R", {Value(int64_t{10000} + i), Value(-i)}).ok());
  }
  select();
  Status lossless = store.lineage().CheckLossless(0);
  ASSERT_TRUE(lossless.ok()) << lossless.ToString();
  EXPECT_EQ(store.lineage().piece(0).size, 10050u);
  ExpectLineageMatchesPieces(store, "R", "c0");

  auto removed = store.Delete(
      "R", {{"c0", TypedRange::Closed(Value(int64_t{1}), Value(int64_t{30}))}});
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed->count, 30u);
  auto vac = store.Vacuum();
  ASSERT_TRUE(vac.ok());
  ASSERT_EQ(vac->rows_purged, 30u);
  select();
  EXPECT_EQ(store.lineage().piece(0).size, 10020u);
  ExpectLineageMatchesPieces(store, "R", "c0");
}

// Seeded select/aggregate streams with inserts, deletes, vacuums, pivot
// injections between statements and a dictionary-encoded string column:
// after every crack statement the lineage leaves equal the piece table.
struct LineageStreamCase {
  CrackPolicy policy;
  bool merge_budget;
  DeltaMergePolicy delta;
};

class LineageStreamTest : public ::testing::TestWithParam<LineageStreamCase> {};

TEST_P(LineageStreamTest, LeavesEqualThePieceTable) {
  const LineageStreamCase& c = GetParam();
  const int64_t n = 6000;
  Schema schema({{"c0", ValueType::kInt64}, {"s", ValueType::kString}});
  auto rel = *Relation::Create("R", schema);
  Pcg32 data_rng(7);
  auto word = [](Pcg32* rng) {
    std::string w;
    for (int k = 0; k < 3; ++k) {
      w += static_cast<char>('a' + rng->NextInRange(0, 25));
    }
    return w;
  };
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        rel->AppendRow({Value((i * 7919) % n + 1), Value(word(&data_rng))})
            .ok());
  }
  AdaptiveStoreOptions opts;
  opts.strategy = AccessStrategy::kCrack;
  opts.track_lineage = true;
  opts.policy.policy = c.policy;
  opts.policy.min_piece_size = 64;
  opts.delta_merge.policy = c.delta;
  opts.delta_merge.threshold_fraction = 0.005;
  if (c.merge_budget) {
    opts.merge_budget = MergeBudget{MergePolicyKind::kLeastRecentlyUsed, 8};
  }
  AdaptiveStore store(opts);
  ASSERT_TRUE(store.AddTable(rel).ok());

  Pcg32 rng(1000 + static_cast<uint64_t>(c.policy) * 10 +
            (c.merge_budget ? 1 : 0));
  int64_t next_key = n + 1;
  for (int step = 0; step < 160; ++step) {
    SCOPED_TRACE(step);
    const int64_t lo = rng.NextInRange(1, n);
    const int64_t hi = lo + rng.NextInRange(0, 600);
    switch (rng.NextInRange(0, 9)) {
      case 0:
      case 1:
      case 2: {
        auto r = store.SelectRange("R", "c0", RangeBounds::Closed(lo, hi));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectLineageMatchesPieces(store, "R", "c0");
        break;
      }
      case 3: {
        auto r = store.AggregateRange(
            "R", "c0",
            TypedRange::Closed(Value(lo), Value(hi)));
        if (!r.ok()) {
          ASSERT_TRUE(r.status().IsUnimplemented()) << r.status().ToString();
          break;
        }
        ExpectLineageMatchesPieces(store, "R", "c0");
        break;
      }
      case 4: {
        std::string a = word(&rng), b = word(&rng);
        if (b < a) std::swap(a, b);
        auto r = store.SelectRange("R", "s",
                                   TypedRange::Closed(Value(a), Value(b)));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectLineageMatchesPieces(store, "R", "s");
        break;
      }
      case 5:
      case 6: {
        // Unseen strings may exhaust a dictionary code gap and re-encode
        // the column under a fresh inner path.
        std::string w = word(&rng) + "x";
        ASSERT_TRUE(store.Insert("R", {Value(next_key++), Value(w)}).ok());
        break;
      }
      case 7: {
        auto r = store.Delete(
            "R", {{"c0", TypedRange::Closed(Value(lo), Value(lo + 3))}});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ExpectLineageMatchesPieces(store, "R", "c0");
        if (rng.NextInRange(0, 1) == 0) {
          ASSERT_TRUE(store.Vacuum().ok());
        }
        break;
      }
      case 8:
      case 9: {
        // A pivot injected between statements is picked up by the next
        // statement's lineage sync.
        for (const char* col : {"c0", "s"}) {
          auto path = store.AccessPathFor("R", col);
          if (!path.ok()) continue;
          PivotChoice choice;
          choice.value = col[0] == 'c' ? lo : rng.NextInRange(0, 1 << 20);
          choice.after_duplicates = rng.NextInRange(0, 1) == 1;
          ASSERT_TRUE((*path)->ApplyPolicy(choice).ok());
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LineageStreamTest,
    ::testing::Values(
        LineageStreamCase{CrackPolicy::kStandard, false,
                          DeltaMergePolicy::kImmediate},
        LineageStreamCase{CrackPolicy::kStandard, true,
                          DeltaMergePolicy::kThreshold},
        LineageStreamCase{CrackPolicy::kStochastic, false,
                          DeltaMergePolicy::kThreshold},
        LineageStreamCase{CrackPolicy::kStochastic, true,
                          DeltaMergePolicy::kRippleOnSelect},
        LineageStreamCase{CrackPolicy::kCoarse, false,
                          DeltaMergePolicy::kRippleOnSelect},
        LineageStreamCase{CrackPolicy::kCoarse, true,
                          DeltaMergePolicy::kImmediate},
        LineageStreamCase{CrackPolicy::kProgressive, false,
                          DeltaMergePolicy::kThreshold},
        LineageStreamCase{CrackPolicy::kProgressive, true,
                          DeltaMergePolicy::kImmediate}),
    [](const auto& info) {
      return std::string(CrackPolicyName(info.param.policy)) +
             (info.param.merge_budget ? "_budget_" : "_") +
             DeltaMergePolicyName(info.param.delta);
    });

TEST(IntegrationTest, SimAgreesWithRealStoreOnTouchedTuples) {
  // The §2.2 simulation and the real cracker must tell the same story: the
  // first query touches everything, later ones touch little.
  CrackSimOptions opts;
  opts.num_granules = 20000;
  opts.selectivity = 0.05;
  opts.steps = 20;
  auto sim = RunCrackSimulation(opts);
  ASSERT_TRUE(sim.ok());

  auto rel = Tapestry(20000);
  AdaptiveStore store;
  ASSERT_TRUE(store.AddTable(rel).ok());
  Pcg32 rng(opts.seed ^ 0xC0FFEE);
  uint64_t store_first = 0, store_last = 0;
  for (int q = 0; q < 20; ++q) {
    int64_t lo = rng.NextInRange(1, 19000);
    auto result =
        store.SelectRange("R", "c0", RangeBounds::Closed(lo, lo + 999));
    ASSERT_TRUE(result.ok());
    if (q == 0) store_first = result->io.tuples_read;
    store_last = result->io.tuples_read;
  }
  EXPECT_GE(store_first, 20000u);
  EXPECT_LT(store_last, 6000u);
  EXPECT_EQ(sim->steps.front().crack_touched, 20000u);
  EXPECT_LT(sim->steps.back().crack_touched, 6000u);
}

}  // namespace
}  // namespace crackstore
