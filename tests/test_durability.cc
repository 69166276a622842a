// Copyright 2026 The CrackStore Authors
//
// Durability suite: log-format framing, journal recovery semantics,
// checkpoint round-trips, and the crash-torture harness — run a mixed DML
// workload against a durable store, copy the database directory mid-flight
// (the files are exactly what a kill -9 would leave), truncate the commit
// log at an arbitrary byte offset, reopen, and assert the recovered state
// equals the commit-prefix oracle. The matrix covers
// {standard, stochastic, auto} crack policies x {serial, concurrent}
// stores; accelerators are never persisted, so every post-recovery query
// also proves lazy rebuild.
//
// Randomized sections log their seed on failure; rerun a failing seed with
// CRACKSTORE_TEST_SEED=<seed>.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "core/adaptive_store.h"
#include "durability/fs.h"
#include "durability/log_format.h"
#include "durability/manifest.h"
#include "durability/wal.h"
#include "rowstore/journal.h"
#include "storage/relation.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace crackstore {
namespace {

uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("CRACKSTORE_TEST_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return fallback;
}

// ---------------------------------------------------------------------------
// Filesystem scaffolding.
// ---------------------------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/crackstore_dur_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir);
}

void RemoveAll(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveAll(path);
    } else {
      ::unlink(path.c_str());
    }
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

/// Copies every regular file of `src` into `dst` — the crash image. The WAL
/// writer appends with plain write(2), so the copied bytes are exactly what
/// the kernel would expose after a process kill.
void CopyDirFiles(const std::string& src, const std::string& dst) {
  ASSERT_TRUE(durability::EnsureDir(dst).ok());
  DIR* d = ::opendir(src.c_str());
  ASSERT_NE(d, nullptr);
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    auto contents = durability::ReadFile(src + "/" + name);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    ASSERT_TRUE(durability::WriteFileAtomic(dst, name, *contents).ok());
  }
  ::closedir(d);
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

class TempDirs {
 public:
  ~TempDirs() {
    for (const std::string& d : dirs_) RemoveAll(d);
  }
  std::string Make() {
    dirs_.push_back(MakeTempDir());
    return dirs_.back();
  }

 private:
  std::vector<std::string> dirs_;
};

// ---------------------------------------------------------------------------
// Log format: frame round-trips and tail classification.
// ---------------------------------------------------------------------------

TEST(LogFormat, FrameRoundTrip) {
  std::string log;
  durability::AppendFrame(&log, 1, "alpha");
  durability::AppendFrame(&log, 2, "beta");
  durability::AppendFrame(&log, 3, "");
  std::vector<std::pair<uint64_t, std::string>> seen;
  auto scan = durability::ScanFrames(
      log, 0, [&](uint64_t lsn, std::string_view body) {
        seen.emplace_back(lsn, std::string(body));
        return Status::OK();
      });
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 3u);
  EXPECT_EQ(scan->last_lsn, 3u);
  EXPECT_EQ(scan->valid_bytes, log.size());
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[1].second, "beta");
}

TEST(LogFormat, TruncationIsTornTail) {
  std::string log;
  durability::AppendFrame(&log, 1, "alpha");
  size_t first_end = log.size();
  durability::AppendFrame(&log, 2, "beta");
  log.resize(log.size() - 3);  // cut into the second frame's body
  auto scan = durability::ScanFrames(log, 0, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records, 1u);
  EXPECT_EQ(scan->valid_bytes, first_end);
}

TEST(LogFormat, MidLogCorruptionIsIoError) {
  std::string log;
  durability::AppendFrame(&log, 1, "alpha");
  size_t first_end = log.size();
  durability::AppendFrame(&log, 2, "beta");
  log[first_end - 2] ^= 0x5A;  // damage the FIRST frame's body
  auto scan = durability::ScanFrames(log, 0, nullptr);
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsIoError());
}

// ---------------------------------------------------------------------------
// rowstore::Journal: strict verify vs lenient recovery (satellite fix).
// ---------------------------------------------------------------------------

TEST(JournalRecovery, TornTailTruncatesAndResumesLsn) {
  Journal journal;
  journal.Append("t", "payload-1");
  size_t intact = journal.log_bytes();
  journal.Append("t", "payload-2");
  journal.TruncateForTesting(journal.log_bytes() - 4);

  auto scan = journal.Recover();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->records, 1u);
  EXPECT_EQ(scan->valid_bytes, intact);
  EXPECT_EQ(journal.log_bytes(), intact);  // the torn bytes are gone

  // Appending resumes right above the recovered prefix; the log verifies
  // clean again.
  EXPECT_EQ(journal.Append("t", "payload-3"), scan->last_lsn + 1);
  auto verified = journal.VerifyLog();
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_EQ(*verified, 2u);
}

TEST(JournalRecovery, MidLogCorruptionSurfacesError) {
  Journal journal;
  journal.Append("t", "payload-1");
  journal.Append("t", "payload-2");
  size_t before = journal.log_bytes();
  journal.CorruptByteForTesting(14);  // inside the first record
  auto scan = journal.Recover();
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsIoError());
  EXPECT_EQ(journal.log_bytes(), before);  // corruption is never truncated
}

TEST(JournalRecovery, RotateToWritesDurableSegment) {
  TempDirs tmp;
  std::string dir = tmp.Make();
  Journal journal;
  journal.Append("t", "payload-1");
  size_t bytes = journal.log_bytes();
  ASSERT_TRUE(journal.RotateTo(dir, "segment-1.log").ok());
  EXPECT_EQ(journal.log_bytes(), 0u);
  auto contents = durability::ReadFile(dir + "/segment-1.log");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->size(), bytes);
  // The rotated segment scans clean with the shared codec.
  auto scan = durability::ScanFrames(*contents, 0, nullptr);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records, 1u);
}

// ---------------------------------------------------------------------------
// Lifecycle API: Open validation, Configure, Close.
// ---------------------------------------------------------------------------

TEST(Lifecycle, OpenValidatesOptions) {
  DbOptions opts;
  opts.durability = DurabilityMode::kWal;  // no path
  EXPECT_FALSE(AdaptiveStore::Open(opts).ok());

  DbOptions bad_policy;
  bad_policy.policy.min_piece_size = 0;
  EXPECT_FALSE(AdaptiveStore::Open(bad_policy).ok());
}

TEST(Lifecycle, ConfigureRejectsFrozenAxes) {
  auto db = AdaptiveStore::Open(DbOptions{});
  ASSERT_TRUE(db.ok());
  DbOptions next = (*db)->options();
  next.strategy = AccessStrategy::kSort;
  EXPECT_FALSE((*db)->Configure(next).ok());

  next = (*db)->options();
  next.policy.policy = CrackPolicy::kStochastic;
  EXPECT_TRUE((*db)->Configure(next).ok());
  EXPECT_EQ((*db)->options().policy.policy, CrackPolicy::kStochastic);
}

TEST(Lifecycle, SetPolicyRoutesThroughConfigure) {
  auto db = AdaptiveStore::Open(DbOptions{});
  ASSERT_TRUE(db.ok());
  CrackPolicyOptions opts = (*db)->options().policy;
  opts.policy = CrackPolicy::kCoarse;
  ASSERT_TRUE((*db)->SetPolicy(opts).ok());
  // The unified config surface sees the switch.
  EXPECT_EQ((*db)->options().policy.policy, CrackPolicy::kCoarse);
}

TEST(Lifecycle, CheckpointRequiresDurableStore) {
  auto db = AdaptiveStore::Open(DbOptions{});
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->Checkpoint().ok());
  EXPECT_TRUE((*db)->Close().ok());  // Close is a no-op in-memory
}

TEST(Lifecycle, CloseIsIdempotent) {
  TempDirs tmp;
  DbOptions opts;
  opts.path = tmp.Make();
  opts.durability = DurabilityMode::kWal;
  opts.fsync_policy = durability::FsyncPolicy::kOff;
  auto db = AdaptiveStore::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->durable());
  EXPECT_TRUE((*db)->Close().ok());
  EXPECT_TRUE((*db)->Close().ok());
}

// ---------------------------------------------------------------------------
// Checkpoint + replay round trips.
// ---------------------------------------------------------------------------

Result<std::shared_ptr<Relation>> BuildSmallTable(const std::string& name,
                                                  int64_t rows) {
  CRACK_ASSIGN_OR_RETURN(
      auto rel,
      Relation::Create(name, Schema({{"c0", ValueType::kInt64},
                                     {"s", ValueType::kString}})));
  for (int64_t i = 0; i < rows; ++i) {
    CRACK_RETURN_NOT_OK(rel->AppendRow(
        {Value(i), Value(StrFormat("row-%04lld", static_cast<long long>(i)))}));
  }
  return rel;
}

TEST(Recovery, CleanCloseRoundTripsTablesAndStrings) {
  TempDirs tmp;
  DbOptions opts;
  opts.path = tmp.Make();
  opts.durability = DurabilityMode::kWal;
  opts.fsync_policy = durability::FsyncPolicy::kOff;

  {
    auto db = AdaptiveStore::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto rel = BuildSmallTable("T", 64);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*db)->AddTable(*rel).ok());
    ASSERT_TRUE((*db)->Insert("T", {Value(int64_t{100}), Value("extra")}).ok());
    ASSERT_TRUE(
        (*db)->Delete("T", {{"c0", RangeBounds::Closed(0, 9)}}, kNoTxn).ok());
    ASSERT_TRUE((*db)->Close().ok());
  }

  auto db = AdaptiveStore::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->recovery_info().recovered);
  EXPECT_EQ((*db)->recovery_info().replayed_commits, 0u);  // checkpointed
  auto live = (*db)->LiveRowCount("T");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 64u + 1 - 10);
  // String columns round-trip through the dictionary rebuild.
  auto rel = (*db)->table("T");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->GetRow(20)[1], Value("row-0020"));
  // A range query proves the accelerators rebuild lazily from recovered
  // base state.
  auto q = (*db)->SelectRange("T", "c0", RangeBounds::Closed(10, 40));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->count, 31u);
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(Recovery, ReplayWithoutCheckpointRestoresCommits) {
  TempDirs tmp;
  DbOptions opts;
  opts.path = tmp.Make();
  opts.durability = DurabilityMode::kWal;
  opts.fsync_policy = durability::FsyncPolicy::kOff;

  std::string crash_dir = tmp.Make();
  {
    auto db = AdaptiveStore::Open(opts);
    ASSERT_TRUE(db.ok());
    auto rel = BuildSmallTable("T", 16);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*db)->AddTable(*rel).ok());
    for (int64_t v = 100; v < 110; ++v) {
      ASSERT_TRUE(
          (*db)
              ->Insert("T", {Value(v), Value(StrFormat(
                                           "ins-%lld",
                                           static_cast<long long>(v)))})
              .ok());
    }
    // Copy the directory BEFORE Close: no final checkpoint has run, so the
    // reopen must reconstruct everything from the table image + commits.
    CopyDirFiles(opts.path, crash_dir);
    ASSERT_TRUE((*db)->Close().ok());
  }

  DbOptions crash_opts = opts;
  crash_opts.path = crash_dir;
  auto db = AdaptiveStore::Open(crash_opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_info().replayed_commits, 10u);
  auto live = (*db)->LiveRowCount("T");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 26u);
  auto rel = (*db)->table("T");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->GetRow(16)[0], Value(int64_t{100}));
  EXPECT_EQ((*rel)->GetRow(16)[1], Value("ins-100"));
  ASSERT_TRUE((*db)->Close().ok());
}

// A checkpoint swaps in the next log segment while commits run beside it:
// auto-commit INSERTs on one thread of a concurrent store, explicit
// checkpoints on another, and the store's own auto-checkpoints (a tiny
// threshold) on the inserting thread. A commit makes its record durable
// after releasing the commit mutex, on the writer it appended to, which a
// swap must neither free nor strand: every acknowledged row survives a
// reopen (and the TSan lane sees no race on the writer).
TEST(Recovery, CheckpointsRaceAutoCommits) {
  TempDirs tmp;
  DbOptions opts;
  opts.path = tmp.Make();
  opts.durability = DurabilityMode::kWal;
  opts.fsync_policy = durability::FsyncPolicy::kOff;
  opts.concurrent = true;
  opts.checkpoint_interval_bytes = 4096;
  std::vector<int64_t> acked;
  {
    auto db = AdaptiveStore::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    AdaptiveStore& store = **db;
    auto rel = BuildSmallTable("T", 16);
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE(store.AddTable(*rel).ok());
    std::atomic<bool> stop{false};
    std::thread inserter([&] {
      for (int64_t v = 1000; !stop.load(); ++v) {
        if (store.Insert("T", {Value(v), Value("ins")}).ok()) {
          acked.push_back(v);
        }
        // A gap between statements, where a checkpoint can quiesce.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    int taken = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (taken < 300 && std::chrono::steady_clock::now() < deadline) {
      Status st = store.Checkpoint();
      // Aborted: an insert was in flight; try again.
      EXPECT_TRUE(st.ok() || st.IsAborted()) << st.ToString();
      if (st.ok()) {
        ++taken;
      } else {
        std::this_thread::yield();
      }
    }
    stop.store(true);
    inserter.join();
    EXPECT_EQ(taken, 300);
    ASSERT_TRUE(store.Close().ok());
  }
  ASSERT_FALSE(acked.empty());
  auto db = AdaptiveStore::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rel = (*db)->table("T");
  ASSERT_TRUE(rel.ok());
  std::set<int64_t> present;
  for (size_t r = 0; r < (*rel)->num_rows(); ++r) {
    present.insert((*rel)->GetRow(r)[0].AsInt64());
  }
  for (int64_t v : acked) {
    ASSERT_EQ(present.count(v), 1u) << "acknowledged row " << v << " lost";
  }
  auto live = (*db)->LiveRowCount("T");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*live, 16u + acked.size());
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(Recovery, FsyncPoliciesRoundTrip) {
  for (durability::FsyncPolicy policy :
       {durability::FsyncPolicy::kCommit, durability::FsyncPolicy::kInterval}) {
    TempDirs tmp;
    DbOptions opts;
    opts.path = tmp.Make();
    opts.durability = DurabilityMode::kWal;
    opts.fsync_policy = policy;
    opts.fsync_interval_seconds = 0.001;
    {
      auto db = AdaptiveStore::Open(opts);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      auto rel = Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
      ASSERT_TRUE(rel.ok());
      ASSERT_TRUE((*db)->AddTable(*rel).ok());
      for (int64_t v = 0; v < 20; ++v) {
        ASSERT_TRUE((*db)->Insert("R", {Value(v)}).ok());
      }
      ASSERT_TRUE((*db)->Close().ok());
    }
    auto db = AdaptiveStore::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto live = (*db)->LiveRowCount("R");
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(*live, 20u) << "policy " << durability::FsyncPolicyName(policy);
    ASSERT_TRUE((*db)->Close().ok());
  }
}

TEST(Recovery, CheckpointResumesTunedCrackPolicy) {
  TempDirs tmp;
  DbOptions opts;
  opts.path = tmp.Make();
  opts.durability = DurabilityMode::kWal;
  opts.fsync_policy = durability::FsyncPolicy::kOff;
  opts.policy.policy = CrackPolicy::kStochastic;
  opts.policy.progressive_budget = 0.25;
  {
    auto db = AdaptiveStore::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto rel = Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
    ASSERT_TRUE(rel.ok());
    ASSERT_TRUE((*db)->AddTable(*rel).ok());
    for (int64_t v = 0; v < 512; ++v) {
      ASSERT_TRUE((*db)->Insert("R", {Value(v)}).ok());
    }
    // Materialize the accelerator so its policy state exists to persist.
    ASSERT_TRUE((*db)->SelectRange("R", "c0", RangeBounds::Closed(100, 300))
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  // Reopen with a *different* default policy: the per-column state recorded
  // in the checkpoint must win over the store default when the column's
  // path is rebuilt.
  DbOptions reopened = opts;
  reopened.policy.policy = CrackPolicy::kStandard;
  reopened.policy.progressive_budget = 0.1;
  auto db = AdaptiveStore::Open(reopened);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->SelectRange("R", "c0", RangeBounds::Closed(50, 200)).ok());
  std::vector<AdaptiveStore::ColumnPolicy> report = (*db)->PolicyReport();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].table, "R");
  EXPECT_EQ(report[0].column, "c0");
  EXPECT_EQ(report[0].status.configured, CrackPolicy::kStochastic);
  EXPECT_DOUBLE_EQ(report[0].status.progressive_budget, 0.25);
  ASSERT_TRUE((*db)->Close().ok());
}

// ---------------------------------------------------------------------------
// Crash torture: truncate the commit log anywhere, reopen, compare against
// the commit-prefix oracle.
// ---------------------------------------------------------------------------

struct ModelOp {
  enum Kind { kInsert, kDelete, kUpdate } kind;
  Oid oid = kInvalidOid;
  int64_t value = 0;
};
using ModelCommit = std::vector<ModelOp>;
using Model = std::map<Oid, int64_t>;  // live oid -> c0

void ApplyToModel(Model* model, const ModelCommit& commit) {
  for (const ModelOp& op : commit) {
    switch (op.kind) {
      case ModelOp::kInsert:
      case ModelOp::kUpdate:
        (*model)[op.oid] = op.value;
        break;
      case ModelOp::kDelete:
        model->erase(op.oid);
        break;
    }
  }
}

/// Runs the mixed DML workload. Values are unique (a monotone counter), so
/// a `c0 = v` conjunct always matches exactly one row and the oracle stays
/// exact. Appends the commits in commit order (single-threaded driver:
/// commit order == program order).
void RunWorkload(AdaptiveStore* store, Model* model,
                 std::vector<ModelCommit>* commits, uint64_t seed,
                 size_t num_ops) {
  Pcg32 rng(seed);
  int64_t next_value = 1 << 20;

  auto pick_live = [&](Oid* oid, int64_t* value) {
    if (model->empty()) return false;
    auto it = model->begin();
    std::advance(it, rng.NextBounded(static_cast<uint32_t>(model->size())));
    *oid = it->first;
    *value = it->second;
    return true;
  };

  // Rows touched by the open explicit transaction; the model only reflects
  // committed state, so in-txn picks must come from here-adjusted views.
  auto run_one = [&](TxnId txn, Model* view, ModelCommit* commit) {
    uint32_t dice = rng.NextBounded(4);
    if (dice < 2) {  // insert
      int64_t v = next_value++;
      auto r = store->Insert("R", {Value(v)}, txn);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      commit->push_back({ModelOp::kInsert, r->inserted_oid, v});
      (*view)[r->inserted_oid] = v;
    } else if (dice == 2) {  // delete one live row
      Oid oid = kInvalidOid;
      int64_t v = 0;
      if (model == view) {
        if (!pick_live(&oid, &v)) return;
      } else {
        if (view->empty()) return;
        auto it = view->begin();
        std::advance(it,
                     rng.NextBounded(static_cast<uint32_t>(view->size())));
        oid = it->first;
        v = it->second;
      }
      auto r = store->Delete("R", {{"c0", RangeBounds::Equal(v)}}, txn);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      commit->push_back({ModelOp::kDelete, oid, v});
      view->erase(oid);
    } else {  // update one live row to a fresh unique value
      Oid oid = kInvalidOid;
      int64_t v = 0;
      if (view->empty()) return;
      auto it = view->begin();
      std::advance(it, rng.NextBounded(static_cast<uint32_t>(view->size())));
      oid = it->first;
      v = it->second;
      int64_t nv = next_value++;
      auto r = store->Update("R", {{"c0", Value(nv)}},
                             {{"c0", RangeBounds::Equal(v)}}, txn);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      commit->push_back({ModelOp::kUpdate, oid, nv});
      (*view)[oid] = nv;
    }
  };

  for (size_t i = 0; i < num_ops; ++i) {
    if (i % 8 == 7) {
      // Explicit multi-statement transaction: one commit record.
      auto txn = store->Begin();
      ASSERT_TRUE(txn.ok())
          << txn.status().ToString() << " (seed " << seed << ")";
      ModelCommit commit;
      Model view = *model;  // the txn's private view of live rows
      for (int j = 0; j < 3; ++j) {
        run_one(*txn, &view, &commit);
        if (::testing::Test::HasFatalFailure()) return;
      }
      if (rng.NextBounded(8) == 0) {
        ASSERT_TRUE(store->Rollback(*txn).ok());  // no commit, no WAL record
      } else {
        ASSERT_TRUE(store->Commit(*txn).ok());
        if (!commit.empty()) {
          ApplyToModel(model, commit);
          commits->push_back(std::move(commit));
        }
      }
    } else {
      // Auto-commit statement: one commit record per mutating statement.
      ModelCommit commit;
      run_one(kNoTxn, model, &commit);
      if (::testing::Test::HasFatalFailure()) return;
      if (!commit.empty()) commits->push_back(std::move(commit));
    }
    if (i % 16 == 5) {
      // Interleaved reads keep the accelerators cracking mid-workload.
      auto q =
          store->SelectRange("R", "c0", RangeBounds::Closed(0, next_value));
      ASSERT_TRUE(q.ok());
    }
  }
}

void ExpectStoreMatchesModel(AdaptiveStore* store, const Model& model) {
  auto live = store->LiveOids("R");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::vector<Oid> expected;
  expected.reserve(model.size());
  for (const auto& [oid, value] : model) expected.push_back(oid);
  ASSERT_EQ(*live, expected);
  auto rel = store->table("R");
  ASSERT_TRUE(rel.ok());
  for (const auto& [oid, value] : model) {
    ASSERT_EQ((*rel)->GetRow(oid)[0], Value(value))
        << "row " << oid << " diverged";
  }
  // A cracking query over the full domain: lazily rebuilds the accelerator
  // and must agree with the live-row count.
  auto q =
      store->SelectRange("R", "c0", RangeBounds::Closed(0, int64_t{1} << 40));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->count, model.size());
}

struct TortureImage {
  DbOptions opts;                    ///< options of the original store
  Model base_model;                  ///< committed state at the checkpoint
  std::vector<ModelCommit> commits;  ///< post-checkpoint commits, in order
  std::string crash_dir;             ///< directory copied before Close
  std::string wal_name;              ///< commit-log file inside crash_dir
  uint64_t wal_bytes = 0;            ///< its size at the copy
};

/// Builds one crash image: seed table -> checkpoint (so the log holds only
/// DML commits) -> mixed workload -> copy-before-close.
void BuildTortureImage(CrackPolicy policy, bool concurrent, uint64_t seed,
                       size_t num_ops, TempDirs* tmp, TortureImage* image) {
  image->opts.path = tmp->Make();
  image->opts.durability = DurabilityMode::kWal;
  image->opts.fsync_policy = durability::FsyncPolicy::kOff;
  image->opts.policy.policy = policy;
  image->opts.concurrent = concurrent;
  image->opts.autovacuum_version_threshold = 0;  // deterministic versions
  image->crash_dir = tmp->Make();

  auto db = AdaptiveStore::Open(image->opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rel = Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
  ASSERT_TRUE(rel.ok());
  const size_t kInitialRows = 64;
  for (size_t i = 0; i < kInitialRows; ++i) {
    ASSERT_TRUE((*rel)->AppendRow({Value(static_cast<int64_t>(i))}).ok());
    image->base_model[static_cast<Oid>(i)] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE((*db)->AddTable(*rel).ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());

  Model model = image->base_model;
  RunWorkload(db->get(), &model, &image->commits, seed, num_ops);
  if (::testing::Test::HasFatalFailure()) return;

  CopyDirFiles(image->opts.path, image->crash_dir);
  if (::testing::Test::HasFatalFailure()) return;
  auto manifest = durability::ReadManifest(image->crash_dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  image->wal_name = manifest->wal_file;
  image->wal_bytes =
      FileSize(durability::JoinPath(image->crash_dir, image->wal_name));
  ASSERT_TRUE((*db)->Close().ok());
}

/// Truncates a fresh copy of the crash image's commit log at `offset` bytes,
/// reopens, and asserts the recovered state matches the prefix oracle.
void CheckTruncatedRecovery(const TortureImage& image, TempDirs* tmp,
                            uint64_t offset, uint64_t seed) {
  SCOPED_TRACE(StrFormat("offset=%llu of %llu, seed=%llu",
                         static_cast<unsigned long long>(offset),
                         static_cast<unsigned long long>(image.wal_bytes),
                         static_cast<unsigned long long>(seed)));
  std::string work = tmp->Make();
  CopyDirFiles(image.crash_dir, work);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(
      durability::TruncateFile(durability::JoinPath(work, image.wal_name),
                               offset)
          .ok());

  DbOptions opts = image.opts;
  opts.path = work;
  auto db = AdaptiveStore::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  uint64_t replayed = (*db)->recovery_info().replayed_commits;
  ASSERT_LE(replayed, image.commits.size());
  if (offset >= image.wal_bytes) {
    EXPECT_EQ(replayed, image.commits.size());  // nothing was lost
  }

  Model expected = image.base_model;
  for (uint64_t k = 0; k < replayed; ++k) {
    ApplyToModel(&expected, image.commits[k]);
  }
  ExpectStoreMatchesModel(db->get(), expected);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE((*db)->Close().ok());
}

TEST(CrashTorture, PolicyByConcurrencyMatrix) {
  const uint64_t seed = TestSeed(20040901);
  TempDirs tmp;
  Pcg32 rng(seed);
  int leg = 0;
  for (CrackPolicy policy :
       {CrackPolicy::kStandard, CrackPolicy::kStochastic, CrackPolicy::kAuto}) {
    for (bool concurrent : {false, true}) {
      SCOPED_TRACE(StrFormat("policy=%d concurrent=%d",
                             static_cast<int>(policy), concurrent ? 1 : 0));
      TortureImage image;
      BuildTortureImage(policy, concurrent, seed + leg++, 96, &tmp, &image);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_GT(image.commits.size(), 0u);
      ASSERT_GT(image.wal_bytes, 0u);

      // Fixed structural offsets plus one random cut per leg.
      std::vector<uint64_t> offsets = {0, image.wal_bytes / 2,
                                       image.wal_bytes - 1, image.wal_bytes};
      offsets.push_back(rng.NextBounded(
          static_cast<uint32_t>(std::min<uint64_t>(image.wal_bytes, 1u << 30))));
      for (uint64_t offset : offsets) {
        CheckTruncatedRecovery(image, &tmp, offset, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(CrashTorture, EveryOffsetOnSmallLog) {
  const uint64_t seed = TestSeed(19991231);
  TempDirs tmp;
  TortureImage image;
  BuildTortureImage(CrackPolicy::kStandard, /*concurrent=*/false, seed, 24,
                    &tmp, &image);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_GT(image.wal_bytes, 0u);
  // Every offset modulo a stride, plus the exact end: the recovered state
  // must be a committed prefix no matter where the crash landed.
  for (uint64_t offset = 0; offset <= image.wal_bytes; offset += 7) {
    CheckTruncatedRecovery(image, &tmp, offset, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
  CheckTruncatedRecovery(image, &tmp, image.wal_bytes, seed);
}

// ---------------------------------------------------------------------------
// Autovacuum: the version log stays bounded under sustained churn.
// ---------------------------------------------------------------------------

TEST(Autovacuum, BoundsVersionLogUnderChurn) {
  DbOptions opts;  // in-memory: autovacuum is independent of the WAL
  opts.autovacuum_version_threshold = 256;
  auto db = AdaptiveStore::Open(opts);
  ASSERT_TRUE(db.ok());
  auto rel = Relation::Create("R", Schema({{"c0", ValueType::kInt64}}));
  ASSERT_TRUE(rel.ok());
  const int64_t kRows = 64;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE((*rel)->AppendRow({Value(i)}).ok());
  }
  ASSERT_TRUE((*db)->AddTable(*rel).ok());

  // Sustained update churn: every commit adds version-chain entries. With
  // the threshold at 256, an unbounded log would pass 1200 entries.
  int64_t next_value = 1 << 20;
  Pcg32 rng(TestSeed(7));
  std::vector<int64_t> current(kRows);
  for (int64_t i = 0; i < kRows; ++i) current[i] = i;
  for (int iter = 0; iter < 1200; ++iter) {
    int64_t row = rng.NextBounded(kRows);
    int64_t nv = next_value++;
    auto r = (*db)->Update("R", {{"c0", Value(nv)}},
                           {{"c0", RangeBounds::Equal(current[row])}}, kNoTxn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    current[row] = nv;
  }

  EXPECT_GT((*db)->autovacuum_runs(), 0u);
  auto counts = (*db)->VersionCountsFor("R");
  ASSERT_TRUE(counts.ok());
  uint64_t footprint =
      counts->row_versions + counts->chain_entries + counts->purged;
  EXPECT_LT(footprint, 768u)  // threshold + probe slack, far below 1200+
      << "row_versions=" << counts->row_versions
      << " chain_entries=" << counts->chain_entries
      << " purged=" << counts->purged;
}

}  // namespace
}  // namespace crackstore
