// Copyright 2026 The CrackStore Authors
//
// Parity for the dictionary-encoded string access paths: every strategy
// (scan/crack/sort) × delta-merge policy (immediate/threshold/ripple) ×
// crack policy must answer string range/equality selections and absorb
// full DML — including inserts of out-of-order unseen strings, which
// exercise the order-preserving code assignment and its rebuild/remap
// path — identically to a model oracle, both at the raw ColumnAccessPath
// level and end-to-end through the AdaptiveStore facade and the SQL
// executor the shell runs on. Also holds the StringDictionary unit tests.
//
// Randomized sections print their seed on failure; rerun a reported seed
// with CRACKSTORE_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/access_path.h"
#include "core/adaptive_store.h"
#include "sql/executor.h"
#include "storage/bat.h"
#include "storage/dictionary.h"
#include "util/rng.h"

namespace crackstore {
namespace {

/// Base seed of the randomized sections, overridable for reproduction.
uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// ---------------------------------------------------------------------------
// StringDictionary.
// ---------------------------------------------------------------------------

std::shared_ptr<Bat> StringBat(const std::vector<std::string>& values,
                               const std::string& name = "s") {
  auto bat = Bat::Create(ValueType::kString, name);
  for (const std::string& v : values) bat->AppendString(v);
  return bat;
}

TEST(StringDictionaryTest, CodesPreserveOrder) {
  auto bat = StringBat({"pear", "apple", "fig", "apple", "banana", "fig"});
  auto dict = *StringDictionary::FromColumn(*bat);
  EXPECT_EQ(dict.size(), 4u);  // duplicates collapse
  int64_t apple, banana, fig, pear;
  ASSERT_TRUE(dict.CodeFor("apple", &apple));
  ASSERT_TRUE(dict.CodeFor("banana", &banana));
  ASSERT_TRUE(dict.CodeFor("fig", &fig));
  ASSERT_TRUE(dict.CodeFor("pear", &pear));
  EXPECT_LT(apple, banana);
  EXPECT_LT(banana, fig);
  EXPECT_LT(fig, pear);
  EXPECT_EQ(dict.StringFor(banana), "banana");
  int64_t missing;
  EXPECT_FALSE(dict.CodeFor("grape", &missing));
}

TEST(StringDictionaryTest, CeilAndFloorTranslateAbsentBounds) {
  auto bat = StringBat({"bb", "dd", "ff"});
  auto dict = *StringDictionary::FromColumn(*bat);
  int64_t bb, dd, ff, code;
  ASSERT_TRUE(dict.CodeFor("bb", &bb));
  ASSERT_TRUE(dict.CodeFor("dd", &dd));
  ASSERT_TRUE(dict.CodeFor("ff", &ff));
  ASSERT_TRUE(dict.CeilCode("cc", &code));
  EXPECT_EQ(code, dd);
  ASSERT_TRUE(dict.CeilCode("bb", &code));  // exact hits are their own ceil
  EXPECT_EQ(code, bb);
  ASSERT_TRUE(dict.CeilCode("", &code));
  EXPECT_EQ(code, bb);
  EXPECT_FALSE(dict.CeilCode("zz", &code));  // after everything
  ASSERT_TRUE(dict.FloorCode("ee", &code));
  EXPECT_EQ(code, dd);
  ASSERT_TRUE(dict.FloorCode("zz", &code));
  EXPECT_EQ(code, ff);
  EXPECT_FALSE(dict.FloorCode("aa", &code));  // before everything
}

TEST(StringDictionaryTest, MidpointInsertionAvoidsRebuild) {
  auto bat = StringBat({"aa", "zz"});
  auto dict = *StringDictionary::FromColumn(*bat);
  int64_t aa, mm, zz;
  ASSERT_TRUE(dict.CodeFor("aa", &aa));
  ASSERT_TRUE(dict.CodeFor("zz", &zz));
  mm = dict.InternOrdered("mm");
  EXPECT_GT(mm, aa);
  EXPECT_LT(mm, zz);
  EXPECT_EQ(dict.rebuilds(), 0u);
  // Idempotent re-intern.
  EXPECT_EQ(dict.InternOrdered("mm"), mm);
  EXPECT_EQ(dict.size(), 3u);
  // Appending before/after the extremes never exhausts.
  EXPECT_LT(dict.InternOrdered("a"), aa);
  EXPECT_GT(dict.InternOrdered("zzz"), zz);
  EXPECT_EQ(dict.rebuilds(), 0u);
}

TEST(StringDictionaryTest, GapExhaustionRebuildsWithMonotoneRemap) {
  auto heap = std::make_shared<VarHeap>();
  StringDictionary dict(heap, /*gap=*/4);
  dict.InternOrdered("a");
  dict.InternOrdered("c");
  size_t remaps = 0;
  StringDictionary::RemapMap last;
  auto hook = [&](const StringDictionary::RemapMap& m) {
    ++remaps;
    last = m;
  };
  // Repeated insertions between the same neighbors exhaust a gap of 4 in a
  // couple of steps.
  std::string s = "a";
  for (int i = 0; i < 8; ++i) {
    s += "b";  // "ab" < "abb" < ... < "c"
    dict.InternOrdered(s, hook);
  }
  EXPECT_GE(dict.rebuilds(), 1u);
  EXPECT_EQ(remaps, dict.rebuilds());
  ASSERT_FALSE(last.empty());
  for (const auto& [before, after] : last) {
    // Monotonicity of each rebuild: order never changes, so any two mapped
    // codes keep their relative order.
    for (const auto& [before2, after2] : last) {
      if (before < before2) {
        EXPECT_LT(after, after2);
      }
    }
  }
  // Everything remains ordered and addressable after the rebuild(s).
  int64_t prev;
  ASSERT_TRUE(dict.CodeFor("a", &prev));
  std::string t = "a";
  for (int i = 0; i < 8; ++i) {
    t += "b";
    int64_t code;
    ASSERT_TRUE(dict.CodeFor(t, &code));
    EXPECT_GT(code, prev);
    prev = code;
  }
}

TEST(StringDictionaryTest, EmptyStringAndNonAsciiBytesOrderBytewise) {
  auto bat = StringBat({"", "a", std::string("\xff\x01", 2), "A"});
  auto dict = *StringDictionary::FromColumn(*bat);
  int64_t empty, upper, lower, high;
  ASSERT_TRUE(dict.CodeFor("", &empty));
  ASSERT_TRUE(dict.CodeFor("A", &upper));
  ASSERT_TRUE(dict.CodeFor("a", &lower));
  ASSERT_TRUE(dict.CodeFor(std::string_view("\xff\x01", 2), &high));
  // Bytewise unsigned order: "" < "A" < "a" < "\xff\x01".
  EXPECT_LT(empty, upper);
  EXPECT_LT(upper, lower);
  EXPECT_LT(lower, high);
  EXPECT_EQ(dict.StringFor(high), std::string_view("\xff\x01", 2));
}

// ---------------------------------------------------------------------------
// Path-level parity.
// ---------------------------------------------------------------------------

std::vector<AccessPathConfig> AllStringConfigs() {
  std::vector<AccessPathConfig> configs;
  for (AccessStrategy strategy :
       {AccessStrategy::kScan, AccessStrategy::kCrack, AccessStrategy::kSort}) {
    for (DeltaMergePolicy merge :
         {DeltaMergePolicy::kImmediate, DeltaMergePolicy::kThreshold,
          DeltaMergePolicy::kRippleOnSelect}) {
      std::vector<CrackPolicy> crack_policies{CrackPolicy::kStandard};
      if (strategy == AccessStrategy::kCrack) {
        crack_policies = {CrackPolicy::kStandard, CrackPolicy::kStochastic,
                          CrackPolicy::kCoarse};
      }
      for (CrackPolicy policy : crack_policies) {
        AccessPathConfig config;
        config.strategy = strategy;
        config.policy.policy = policy;
        config.policy.min_piece_size = 64;
        config.delta_merge.policy = merge;
        config.delta_merge.threshold_fraction = 0.05;
        configs.push_back(config);
      }
    }
  }
  return configs;
}

std::string ConfigName(const AccessPathConfig& config) {
  return std::string(AccessStrategyName(config.strategy)) + "/" +
         CrackPolicyName(config.policy.policy) + "/" +
         DeltaMergePolicyName(config.delta_merge.policy);
}

/// A random word; short alphabet + length so that draws collide with the
/// column often (seen strings) while fresh draws land anywhere in the sort
/// order (unseen, out-of-order).
std::string RandomWord(Pcg32* rng) {
  size_t len = 1 + rng->NextBounded(6);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->NextBounded(6));
  }
  return s;
}

using StringModel = std::map<Oid, std::string>;

std::vector<Oid> ModelOids(const StringModel& model, const TypedRange& range) {
  std::vector<Oid> oids;
  for (const auto& [oid, value] : model) {
    if (range.Contains(std::string_view(value))) oids.push_back(oid);
  }
  return oids;  // std::map iterates ascending
}

/// The store's delta-fold rule (AdaptiveStore::MaintainColumn) on a bare
/// path: flush when the path says a fold is due, before a read
/// (`before_read`) or after a write.
Status Maintain(ColumnAccessPath* path, bool before_read) {
  return path->WantsMaintenance(before_read) ? path->FlushDeltas()
                                             : Status::OK();
}

/// One randomized mixed string workload against one path configuration.
/// Deltas fold mid-stream by the store's rule.
void RunStringSession(const AccessPathConfig& config, uint64_t seed) {
  SCOPED_TRACE("config=" + ConfigName(config) +
               " seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  const size_t n0 = 600;
  Pcg32 rng(seed);

  auto bat = Bat::Create(ValueType::kString, "s");
  StringModel model;
  for (size_t i = 0; i < n0; ++i) {
    std::string w = RandomWord(&rng);
    bat->AppendString(w);
    model[i] = std::move(w);
  }

  auto path_result = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path_result.ok());
  ColumnAccessPath* path = path_result->get();

  auto check_select = [&](int op, const TypedRange& range) {
    ASSERT_TRUE(Maintain(path, /*before_read=*/true).ok()) << "op " << op;
    IoStats io;
    auto sel = path->SelectTyped(range, Delivery::kView, &io);
    ASSERT_TRUE(sel.ok()) << "op " << op << ": " << sel.status().ToString();
    std::vector<Oid> expected = ModelOids(model, range);
    ASSERT_EQ(sel->count, expected.size()) << "op " << op;
    ASSERT_EQ(sel->span_set.ToOids(), expected) << "op " << op;
  };

  auto random_range = [&]() {
    std::string a = RandomWord(&rng);
    std::string b = RandomWord(&rng);
    if (b < a) std::swap(a, b);
    return TypedRange{Value(a), rng.NextBounded(2) == 0, Value(b),
                      rng.NextBounded(2) == 0};
  };

  for (int op = 0; op < 300; ++op) {
    uint32_t dice = rng.NextBounded(100);
    if (dice < 30) {
      check_select(op, random_range());
    } else if (dice < 40) {
      // Equality probe — half the time for a string known to be live.
      std::string probe;
      if (!model.empty() && rng.NextBounded(2) == 0) {
        auto it = model.begin();
        std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
        probe = it->second;
      } else {
        probe = RandomWord(&rng);
      }
      check_select(op, TypedRange::Equal(Value(probe)));
    } else if (dice < 65) {
      // INSERT: base append first (the facade's contract), then the path.
      std::string w = RandomWord(&rng);
      bat->AppendString(w);
      Oid oid = bat->head_base() + bat->size() - 1;
      ASSERT_TRUE(path->Insert(Value(w), oid).ok()) << "op " << op;
      model[oid] = std::move(w);
    } else if (dice < 82) {
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      ASSERT_TRUE(path->Delete(it->first).ok()) << "op " << op;
      model.erase(it);
    } else {
      if (model.empty()) continue;
      // UPDATE: base write-through first, then the path.
      auto it = model.begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(model.size())));
      std::string w = RandomWord(&rng);
      ASSERT_TRUE(
          bat->SetString(static_cast<size_t>(it->first - bat->head_base()), w)
              .ok());
      ASSERT_TRUE(path->Update(it->first, Value(it->second), Value(w)).ok())
          << "op " << op;
      it->second = std::move(w);
    }
    if (dice >= 40) {
      ASSERT_TRUE(Maintain(path, /*before_read=*/false).ok()) << "op " << op;
    }
  }

  ASSERT_TRUE(path->FlushDeltas().ok());
  if (config.strategy != AccessStrategy::kScan) {
    EXPECT_EQ(path->pending_inserts(), 0u);
    EXPECT_EQ(path->pending_deletes(), 0u);
  }
  check_select(-1, TypedRange::All());
}

TEST(StringPathTest, MixedWorkloadParityAllStrategiesAndMergePolicies) {
  uint64_t seed = TestSeed(1117);
  for (const AccessPathConfig& config : AllStringConfigs()) {
    RunStringSession(config, seed++);
  }
}

TEST(StringPathTest, DeepMidpointInsertsSurviveDictionaryRebuild) {
  // "a", "ab", "abb", ... each sorts between its predecessor and "b": the
  // code interval halves every insert, so the default 2^32 gap exhausts
  // after ~32 of them and the dictionary must rebuild + remap mid-workload.
  for (const AccessPathConfig& config : AllStringConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    auto bat = StringBat({"b", "c", "d"});
    StringModel model{{0, "b"}, {1, "c"}, {2, "d"}};
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    IoStats io;
    // Materialize the accelerator so inserts hit live delta structures.
    auto all = (*path)->SelectTyped(TypedRange::All(), Delivery::kView, &io);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ((*all).count, 3u);

    std::string s = "a";
    for (int i = 0; i < 40; ++i) {
      bat->AppendString(s);
      Oid oid = bat->head_base() + bat->size() - 1;
      ASSERT_TRUE((*path)->Insert(Value(s), oid).ok()) << "insert " << i;
      model[oid] = s;
      s += "b";
    }
    // Everything below "b" is exactly the 40 midpoint strings.
    auto below = (*path)->SelectTyped(
        TypedRange::LessThan(Value(std::string("b"))), Delivery::kView, &io);
    ASSERT_TRUE(below.ok());
    EXPECT_EQ((*below).count, 40u);
    EXPECT_EQ(below->span_set.ToOids(),
              ModelOids(model, TypedRange::LessThan(Value(std::string("b")))));
    // And a mid-chain equality still resolves post-remap.
    auto probe = (*path)->SelectTyped(
        TypedRange::Equal(Value(std::string("abbbb"))), Delivery::kView, &io);
    ASSERT_TRUE(probe.ok());
    EXPECT_EQ((*probe).count, 1u);
    // The rebuild actually happened (visible in the explain report).
    EXPECT_NE((*path)->Explain().find("rebuild"), std::string::npos);
  }
}

TEST(StringPathTest, DeleteValidationMatchesNumericPaths) {
  // Out-of-range and duplicate deletes answer like the numeric paths do,
  // pre- and post-encode; a rejected oid must not poison the wrapper's
  // replayable tombstone set.
  for (const AccessPathConfig& config : AllStringConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    auto bat = StringBat({"x", "y", "z"});
    auto path = CreateColumnAccessPath(bat, config);
    ASSERT_TRUE(path.ok());
    EXPECT_TRUE((*path)->Delete(99).IsNotFound());
    ASSERT_TRUE((*path)->Delete(1).ok());
    EXPECT_TRUE((*path)->Delete(1).IsAlreadyExists());
    IoStats io;
    auto sel = (*path)->SelectTyped(TypedRange::All(), Delivery::kView, &io);
    ASSERT_TRUE(sel.ok());
    EXPECT_EQ(sel->count, 2u);
    EXPECT_EQ(sel->span_set.ToOids(), (std::vector<Oid>{0, 2}));
    EXPECT_TRUE((*path)->Delete(99).IsNotFound());  // post-encode too
    EXPECT_TRUE((*path)->Delete(1).IsAlreadyExists());
  }
}

TEST(StringPathTest, MistypedPredicatesAndValuesAreRejected) {
  auto bat = StringBat({"x", "y"});
  AccessPathConfig config;
  auto path = CreateColumnAccessPath(bat, config);
  ASSERT_TRUE(path.ok());
  IoStats io;
  // Numeric bounds on a string column.
  auto sel =
      (*path)->SelectTyped(RangeBounds::Closed(1, 5), Delivery::kView, &io);
  EXPECT_TRUE(sel.status().IsTypeMismatch());
  // String bounds on a numeric column.
  auto nbat = Bat::FromVector(std::vector<int64_t>{1, 2, 3}, "n");
  auto npath = CreateColumnAccessPath(nbat, config);
  ASSERT_TRUE(npath.ok());
  auto nsel = (*npath)->SelectTyped(
      TypedRange::Equal(Value(std::string("x"))), Delivery::kView, &io);
  EXPECT_TRUE(nsel.status().IsTypeMismatch());
  // Numeric DML value on a string column (post-build so it is not absorbed
  // by the lazy no-op).
  ASSERT_TRUE(
      (*path)->SelectTyped(TypedRange::All(), Delivery::kView, &io).ok());
  bat->AppendString("z");
  EXPECT_TRUE((*path)->Insert(Value(int64_t{7}), 2).IsTypeMismatch());
}

// ---------------------------------------------------------------------------
// Facade-level parity (typed predicates + DML through AdaptiveStore).
// ---------------------------------------------------------------------------

struct CatalogRow {
  std::string name;
  int64_t qty;
  bool live = true;
};

class StringFacadeTest
    : public ::testing::TestWithParam<
          std::tuple<AccessStrategy, DeltaMergePolicy>> {};

TEST_P(StringFacadeTest, RandomizedStringDmlMatchesOracle) {
  auto [strategy, merge] = GetParam();
  uint64_t seed = TestSeed(2203) + static_cast<uint64_t>(strategy) * 13 +
                  static_cast<uint64_t>(merge) * 7;
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun with CRACKSTORE_TEST_SEED)");
  DbOptions opts;
  opts.strategy = strategy;
  opts.delta_merge.policy = merge;
  opts.delta_merge.threshold_fraction = 0.05;
  auto db = *AdaptiveStore::Open(opts);
  AdaptiveStore& store = *db;

  Pcg32 rng(seed);
  auto rel = *Relation::Create(
      "P", Schema({{"name", ValueType::kString}, {"qty", ValueType::kInt64}}));
  std::vector<CatalogRow> rows;
  for (size_t i = 0; i < 400; ++i) {
    CatalogRow row{RandomWord(&rng), rng.NextInRange(1, 500)};
    ASSERT_TRUE(rel->AppendRow({Value(row.name), Value(row.qty)}).ok());
    rows.push_back(row);
  }
  ASSERT_TRUE(store.AddTable(rel).ok());

  auto oracle_count = [&](const TypedRange& name_r, const RangeBounds* qty_r) {
    uint64_t count = 0;
    for (const CatalogRow& row : rows) {
      if (!row.live) continue;
      if (!name_r.Contains(std::string_view(row.name))) continue;
      if (qty_r != nullptr && !qty_r->Contains(row.qty)) continue;
      ++count;
    }
    return count;
  };

  auto random_name_range = [&]() {
    std::string a = RandomWord(&rng);
    std::string b = RandomWord(&rng);
    if (b < a) std::swap(a, b);
    return TypedRange::Closed(Value(a), Value(b));
  };

  for (int op = 0; op < 100; ++op) {
    uint32_t dice = rng.NextBounded(100);
    if (dice < 30) {
      TypedRange range = random_name_range();
      auto qr = store.SelectRange("P", "name", range, Delivery::kView);
      ASSERT_TRUE(qr.ok()) << "op " << op;
      ASSERT_EQ(qr->count, oracle_count(range, nullptr)) << "op " << op;
      ASSERT_EQ(qr->CollectOids().size(), qr->count) << "op " << op;
    } else if (dice < 45) {
      // Mixed string + numeric conjunction.
      TypedRange name_r = random_name_range();
      RangeBounds qty_r = RangeBounds::Closed(
          rng.NextInRange(1, 400), rng.NextInRange(1, 400) + 100);
      auto qr =
          store.SelectConjunction("P", {{"name", name_r}, {"qty", qty_r}});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      ASSERT_EQ(qr->count, oracle_count(name_r, &qty_r)) << "op " << op;
    } else if (dice < 65) {
      CatalogRow row{RandomWord(&rng), rng.NextInRange(1, 500)};
      auto qr = store.Insert("P", {Value(row.name), Value(row.qty)});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      rows.push_back(row);
    } else if (dice < 80) {
      // DELETE a narrow name band.
      std::string lo = RandomWord(&rng);
      TypedRange range = TypedRange::Closed(Value(lo), Value(lo + "c"));
      auto qr = store.Delete("P", {{"name", range}});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      uint64_t expected = 0;
      for (CatalogRow& row : rows) {
        if (row.live && range.Contains(std::string_view(row.name))) {
          row.live = false;
          ++expected;
        }
      }
      ASSERT_EQ(qr->count, expected) << "op " << op;
    } else {
      // UPDATE names in a qty band to a fresh (often unseen) string.
      int64_t lo = rng.NextInRange(1, 500);
      RangeBounds qty_r = RangeBounds::Closed(lo, lo + 10);
      std::string fresh = RandomWord(&rng) + "_v2";
      auto qr =
          store.Update("P", {{"name", Value(fresh)}}, {{"qty", qty_r}});
      ASSERT_TRUE(qr.ok()) << "op " << op;
      uint64_t expected = 0;
      for (CatalogRow& row : rows) {
        if (row.live && qty_r.Contains(row.qty)) {
          row.name = fresh;
          ++expected;
        }
      }
      ASSERT_EQ(qr->count, expected) << "op " << op;
    }
  }

  uint64_t live = 0;
  for (const CatalogRow& row : rows) live += row.live ? 1 : 0;
  ASSERT_EQ(*store.LiveRowCount("P"), live);
  auto all = store.SelectRange("P", "name", TypedRange::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count, live);
}

INSTANTIATE_TEST_SUITE_P(
    StrategyByMergePolicy, StringFacadeTest,
    ::testing::Combine(
        ::testing::Values(AccessStrategy::kScan, AccessStrategy::kCrack,
                          AccessStrategy::kSort),
        ::testing::Values(DeltaMergePolicy::kImmediate,
                          DeltaMergePolicy::kThreshold,
                          DeltaMergePolicy::kRippleOnSelect)),
    [](const auto& info) {
      return std::string(AccessStrategyName(std::get<0>(info.param))) + "_" +
             DeltaMergePolicyName(std::get<1>(info.param));
    });

TEST(StringFacadeTest, MaterializeDecodesStrings) {
  auto db = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store = *db;
  auto rel = *Relation::Create(
      "P", Schema({{"name", ValueType::kString}, {"qty", ValueType::kInt64}}));
  for (const char* n : {"delta", "alpha", "echo", "bravo", "charlie"}) {
    ASSERT_TRUE(
        rel->AppendRow({Value(std::string(n)), Value(int64_t{1})}).ok());
  }
  ASSERT_TRUE(store.AddTable(rel).ok());
  auto qr = store.SelectRange(
      "P", "name",
      TypedRange::Closed(Value(std::string("b")), Value(std::string("d"))),
      Delivery::kMaterialize);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->count, 2u);  // bravo, charlie
  ASSERT_NE(qr->materialized, nullptr);
  std::vector<std::string> names;
  for (size_t i = 0; i < qr->materialized->num_rows(); ++i) {
    names.push_back(qr->materialized->GetRow(i)[0].AsString());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"bravo", "charlie"}));
  // Cracking happened on the code column like on any integer column.
  if (store.options().strategy == AccessStrategy::kCrack) {
    EXPECT_GT(*store.NumPieces("P", "name"), 1u);
  }
}

// ---------------------------------------------------------------------------
// SQL round-trips (the executor the shell runs on).
// ---------------------------------------------------------------------------

class SqlStringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto rel = *Relation::Create(
        "P",
        Schema({{"name", ValueType::kString}, {"qty", ValueType::kInt64}}));
    const std::vector<std::pair<std::string, int64_t>> seedrows = {
        {"apple", 10}, {"banana", 20}, {"cherry", 30},
        {"fig", 40},   {"grape", 50},  {"melon", 60}};
    for (const auto& [n, q] : seedrows) {
      ASSERT_TRUE(rel->AppendRow({Value(n), Value(q)}).ok());
    }
    ASSERT_TRUE(store_.AddTable(rel).ok());
  }

  std::unique_ptr<AdaptiveStore> db_ = *AdaptiveStore::Open(DbOptions{});
  AdaptiveStore& store_ = *db_;
};

TEST_F(SqlStringTest, StringEqualityAndRanges) {
  EXPECT_EQ(
      sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P WHERE name = 'fig'")
          ->count,
      1u);
  EXPECT_EQ(sql::ExecuteSql(
                &store_,
                "SELECT COUNT(*) FROM P WHERE name BETWEEN 'b' AND 'g'")
                ->count,
            3u);  // banana cherry fig
  EXPECT_EQ(
      sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P WHERE name >= 'grape'")
          ->count,
      2u);  // grape melon
  EXPECT_EQ(
      sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P WHERE name = 'kiwi'")
          ->count,
      0u);
  // Mixed string + numeric conjunction.
  EXPECT_EQ(sql::ExecuteSql(&store_,
                            "SELECT COUNT(*) FROM P WHERE name < 'd' AND "
                            "qty >= 20")
                ->count,
            2u);  // banana cherry
}

TEST_F(SqlStringTest, SelectStarDecodesStringsInOutput) {
  auto out = *sql::ExecuteSql(&store_, "SELECT * FROM P WHERE name = 'cherry'");
  ASSERT_EQ(out.kind, sql::OutputKind::kRows);
  ASSERT_EQ(out.rows->num_rows(), 1u);
  EXPECT_EQ(out.rows->GetRow(0)[0].AsString(), "cherry");
  EXPECT_EQ(out.rows->GetRow(0)[1].AsInt64(), 30);
  std::string rendered = sql::FormatOutput(out);
  EXPECT_NE(rendered.find("cherry"), std::string::npos);
  EXPECT_NE(rendered.find("name:string"), std::string::npos);
}

TEST_F(SqlStringTest, DmlRoundTripWithStringLiterals) {
  // INSERT an unseen out-of-order string (sorts between existing keys).
  auto ins =
      *sql::ExecuteSql(&store_, "INSERT INTO P VALUES ('blueberry', 70)");
  EXPECT_EQ(ins.count, 1u);
  EXPECT_EQ(sql::ExecuteSql(&store_,
                            "SELECT COUNT(*) FROM P WHERE name BETWEEN "
                            "'b' AND 'bz'")
                ->count,
            2u);  // banana blueberry
  // UPDATE through a string WHERE, SET to a string literal with '' escape.
  auto upd = *sql::ExecuteSql(
      &store_, "UPDATE P SET name = 'bob''s fig' WHERE name = 'fig'");
  EXPECT_EQ(upd.count, 1u);
  EXPECT_EQ(
      sql::ExecuteSql(&store_,
                      "SELECT COUNT(*) FROM P WHERE name = 'bob''s fig'")
          ->count,
      1u);
  EXPECT_EQ(
      sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P WHERE name = 'fig'")
          ->count,
      0u);
  // DELETE by string range.
  auto del = *sql::ExecuteSql(&store_, "DELETE FROM P WHERE name < 'c'");
  EXPECT_EQ(del.count, 4u);  // apple banana blueberry bob's fig
  EXPECT_EQ(sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P")->count, 3u);
  // The string WHERE clauses cracked the code column like any SELECT.
  if (store_.options().strategy == AccessStrategy::kCrack) {
    EXPECT_GT(*store_.NumPieces("P", "name"), 1u);
  }
}

TEST_F(SqlStringTest, TypeErrorsSurfaceAsStatuses) {
  EXPECT_TRUE(sql::ExecuteSql(&store_,
                              "SELECT COUNT(*) FROM P WHERE name < 5")
                  .status()
                  .IsTypeMismatch());
  EXPECT_TRUE(sql::ExecuteSql(&store_,
                              "SELECT COUNT(*) FROM P WHERE qty = 'x'")
                  .status()
                  .IsTypeMismatch());
  EXPECT_FALSE(sql::ExecuteSql(&store_, "INSERT INTO P VALUES (5, 'x')").ok());
  EXPECT_FALSE(
      sql::ExecuteSql(&store_, "UPDATE P SET qty = 'many' WHERE qty = 10")
          .ok());
  auto unterminated =
      sql::ExecuteSql(&store_, "SELECT COUNT(*) FROM P WHERE name = 'oops");
  ASSERT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("unterminated"),
            std::string::npos);
}

}  // namespace
}  // namespace crackstore
