// Copyright 2026 The CrackStore Authors

#include "core/adaptive_store.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <string_view>
#include <type_traits>

#include "core/simd_dispatch.h"
#include "core/task_pool.h"
#include "durability/checkpoint.h"
#include "obs/instruments.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crackstore {

namespace {

/// Splits a conjunction into one leg per column (its first conjunct) and
/// the conjuncts on already-answered columns, which are probed per row: a
/// second crack of a column would reshuffle its first answer's span.
void SplitLegs(const std::vector<AdaptiveStore::ColumnRange>& conjuncts,
               std::vector<const AdaptiveStore::ColumnRange*>* legs,
               std::vector<const AdaptiveStore::ColumnRange*>* probes) {
  for (const AdaptiveStore::ColumnRange& c : conjuncts) {
    bool answered =
        std::any_of(legs->begin(), legs->end(),
                    [&c](const AdaptiveStore::ColumnRange* leg) {
                      return leg->column == c.column;
                    });
    (answered ? probes : legs)->push_back(&c);
  }
}

/// Validates every SET clause of an UPDATE up front so a bad column name, a
/// mistyped value or an overflowing literal cannot leave the statement
/// half-applied.
Status ValidateAssignments(const Relation& rel,
                           const std::vector<AdaptiveStore::Assignment>& sets) {
  for (const AdaptiveStore::Assignment& set : sets) {
    auto bat_result = rel.column(set.column);
    if (!bat_result.ok()) return bat_result.status();
    ValueType type = (*bat_result)->tail_type();
    bool integral_value = set.value.is_int32() || set.value.is_int64();
    switch (type) {
      case ValueType::kInt32: {
        // Doubles are rejected on integer columns (silent fraction
        // truncation; an out-of-range double->int64 cast is UB).
        if (!integral_value) break;
        int64_t wide = set.value.ToInt64();
        if (wide < std::numeric_limits<int32_t>::min() ||
            wide > std::numeric_limits<int32_t>::max()) {
          return Status::InvalidArgument(
              StrFormat("value %lld overflows int32 column %s",
                        static_cast<long long>(wide), set.column.c_str()));
        }
        continue;
      }
      case ValueType::kInt64:
        if (!integral_value) break;
        continue;
      case ValueType::kFloat64:
        if (!integral_value && !set.value.is_double()) break;
        continue;
      case ValueType::kString:
        if (!set.value.is_string()) break;
        continue;
      default:
        break;
    }
    return Status::TypeMismatch(
        StrFormat("cannot SET %s:%s to %s", set.column.c_str(),
                  ValueTypeName(type), set.value.ToString().c_str()));
  }
  return Status::OK();
}

/// First oid of `rel`'s dense head (0 for empty schemas).
Oid BaseOid(const Relation& rel) {
  return rel.num_columns() > 0 ? rel.column(size_t{0})->head_base() : 0;
}

/// Writes the values of `oids` in `src` (at its snapshot) to the empty
/// column `dst` of the same type, one block per step: fixed-width values go
/// straight into the reserved tail, strings are interned one by one.
template <typename T>
void GatherBlocks(const SnapshotColumn& src, const std::vector<Oid>& oids,
                  Bat* dst) {
  const size_t n = oids.size();
  if constexpr (std::is_same_v<T, std::string_view>) {
    std::string_view values[kBlockRows];
    for (size_t i = 0; i < n; i += kBlockRows) {
      const size_t m = std::min(kBlockRows, n - i);
      src.Gather(OidBlock{oids.data() + i, m, BlockMask(m)}, values);
      for (size_t j = 0; j < m; ++j) dst->AppendString(values[j]);
    }
  } else {
    dst->Reserve(n);
    T* tail = dst->MutableTailData<T>();
    for (size_t i = 0; i < n; i += kBlockRows) {
      const size_t m = std::min(kBlockRows, n - i);
      src.Gather(OidBlock{oids.data() + i, m, BlockMask(m)}, tail + i);
    }
    dst->SetCountUnsafe(n);
  }
}

void GatherColumn(const SnapshotColumn& src, const std::vector<Oid>& oids,
                  Bat* dst) {
  switch (src.type()) {
    case ValueType::kInt32:
      return GatherBlocks<int32_t>(src, oids, dst);
    case ValueType::kInt64:
      return GatherBlocks<int64_t>(src, oids, dst);
    case ValueType::kFloat64:
      return GatherBlocks<double>(src, oids, dst);
    case ValueType::kOid:
      return GatherBlocks<Oid>(src, oids, dst);
    case ValueType::kString:
      return GatherBlocks<std::string_view>(src, oids, dst);
  }
}

}  // namespace

std::vector<Oid> QueryResult::CollectOids() const& {
  // A detached list was counted when the store detached it.
  if (!span_set.detached()) obs::RecordMaterializedOids(span_set.count());
  return span_set.ToOids();
}

std::vector<Oid> QueryResult::CollectOids() && {
  if (!span_set.detached()) obs::RecordMaterializedOids(span_set.count());
  return std::move(span_set).ToOids();
}

AdaptiveStore::AdaptiveStore(const DbOptions& options) : options_(options) {
  // Lineage bookkeeping splits leaves at the cuts a statement logged, which
  // cannot be kept consistent while neighbors crack pieces concurrently;
  // concurrent mode trades the DAG away (README "Concurrency model").
  if (options_.concurrent) options_.track_lineage = false;
}

AdaptiveStore::~AdaptiveStore() {
  Status s = Close();
  (void)s;
}

Status AdaptiveStore::AddTable(std::shared_ptr<Relation> relation) {
  std::unique_lock<std::shared_mutex> g(global_mu_);
  if (relation == nullptr) return Status::InvalidArgument("null relation");
  std::unique_lock<std::mutex> rl(registry_mu_);
  if (tables_.count(relation->name()) > 0) {
    return Status::AlreadyExists("table exists: " + relation->name());
  }
  std::string name = relation->name();
  Oid base = BaseOid(*relation);
  size_t rows = relation->num_rows();
  const Relation* rel = relation.get();
  tables_.emplace(name, std::move(relation));
  versions_.emplace(name, std::make_unique<VersionedTable>(base, rows));
  rl.unlock();
  if (wal_ != nullptr && !replaying_) {
    // A table created after the last checkpoint must survive a crash: log
    // its full image (schema + rows) through the checkpoint codec.
    durability::TableSnapshot snap;
    snap.rel = rel;
    snap.head_base = base;
    std::string image;
    durability::EncodeTableImage(snap, &image);
    CRACK_ASSIGN_OR_RETURN(uint64_t lsn, wal_->AppendTableImage(image));
    CRACK_RETURN_NOT_OK(wal_->CommitDurable(lsn));
  }
  return Status::OK();
}

Result<std::shared_ptr<Relation>> AdaptiveStore::table(
    const std::string& name) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

std::vector<std::string> AdaptiveStore::TableNames() const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, rel] : tables_) out.push_back(name);
  return out;
}

Result<std::shared_ptr<Bat>> AdaptiveStore::ResolveColumn(
    const std::string& table, const std::string& column) const {
  auto rel = this->table(table);
  if (!rel.ok()) return rel.status();
  return (*rel)->column(column);
}

AccessPathConfig AdaptiveStore::PathConfigFor(const std::string& key) const {
  AccessPathConfig config{options_.strategy, options_.policy,
                          options_.merge_budget, options_.delta_merge,
                          options_.concurrent};
  auto it = recovered_policies_.find(key);
  if (it != recovered_policies_.end()) {
    // Resume what the previous run's workload taught this column rather
    // than re-learning from the store-wide default.
    config.policy.policy = it->second.first;
    config.policy.progressive_budget = it->second.second;
  }
  return config;
}

// --- MVCC machinery ---------------------------------------------------------

VersionedTable* AdaptiveStore::VersionsFor(const std::string& table) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  auto it = versions_.find(table);
  if (it == versions_.end()) {
    Oid base = 0;
    size_t rows = 0;
    auto t = tables_.find(table);
    if (t != tables_.end()) {
      base = BaseOid(*t->second);
      rows = t->second->num_rows();
    }
    it = versions_
             .emplace(table, std::make_unique<VersionedTable>(base, rows))
             .first;
  }
  return it->second.get();
}

VersionedTable* AdaptiveStore::VersionsIfAny(const std::string& table) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  auto it = versions_.find(table);
  return it == versions_.end() ? nullptr : it->second.get();
}

Result<Snapshot> AdaptiveStore::ReadSnapshot(TxnId txn) const {
  if (txn == kNoTxn) {
    // Under commit_mu_: a snapshot must never observe a commit timestamp
    // whose version stamps have not landed yet (see commit_mu_).
    std::lock_guard<std::mutex> cl(commit_mu_);
    return txn_mgr_.LatestSnapshot();
  }
  return txn_mgr_.SnapshotOf(txn);
}

SnapshotView AdaptiveStore::ViewForColumn(const std::string& table,
                                          const std::string& column,
                                          const Snapshot& snap) const {
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return SnapshotView();
  // Concurrent stores always get an active view: rows appended while the
  // statement runs must fall beyond the view's horizon even when no
  // version state existed at build time.
  return vt->ViewFor(snap, column, /*force_active=*/options_.concurrent);
}

Result<const SnapshotColumn*> AdaptiveStore::BaseReadScope::Column(
    const std::string& column) {
  auto it = columns_.find(column);
  if (it != columns_.end()) return it->second.get();
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> bat, rel_->column(column));
  auto values = std::make_unique<SnapshotColumn>(
      std::move(bat), store_->ViewForColumn(table_, column, snap_));
  const SnapshotColumn* out = values.get();
  columns_.emplace(column, std::move(values));
  return out;
}

Result<std::shared_ptr<Relation>> AdaptiveStore::BaseReadScope::Materialize(
    const std::string& name, const std::vector<Oid>& oids,
    const std::vector<std::string>& columns, IoStats* io) {
  std::vector<ColumnDef> defs;
  if (columns.empty()) {
    defs = rel_->schema().columns();
  } else {
    for (const std::string& column : columns) {
      int idx = rel_->schema().FieldIndex(column);
      if (idx < 0) {
        return Status::NotFound("no column '" + column + "' in " + table_);
      }
      defs.push_back(rel_->schema().column(static_cast<size_t>(idx)));
    }
  }
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> out,
                         Relation::Create(name, Schema(defs)));
  for (size_t c = 0; c < defs.size(); ++c) {
    CRACK_ASSIGN_OR_RETURN(const SnapshotColumn* src, Column(defs[c].name));
    GatherColumn(*src, oids, out->column(c).get());
  }
  const uint64_t cells = oids.size() * defs.size();
  io->tuples_read += cells;
  io->tuples_written += cells;
  obs::RecordBaseRows(cells);
  return out;
}

Result<std::unique_ptr<AdaptiveStore::BaseReadScope>>
AdaptiveStore::OpenBaseScope(const std::string& table, const Snapshot& snap,
                             bool lock_global) const {
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
  std::unique_ptr<BaseReadScope> scope(new BaseReadScope());
  if (lock_global) {
    scope->global_ = std::shared_lock<std::shared_mutex>(global_mu_);
  }
  scope->base_ =
      std::shared_lock<std::shared_mutex>(TableStateFor(table)->base_latch);
  scope->store_ = this;
  scope->table_ = table;
  scope->rel_ = std::move(rel);
  scope->snap_ = snap;
  return scope;
}

Result<std::unique_ptr<AdaptiveStore::BaseReadScope>> AdaptiveStore::ReadBase(
    const std::string& table, TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  return OpenBaseScope(table, snap, /*lock_global=*/true);
}

Result<TxnId> AdaptiveStore::Begin() {
  TxnId txn;
  Snapshot snap;
  {
    std::lock_guard<std::mutex> cl(commit_mu_);  // see commit_mu_
    txn = txn_mgr_.Begin();
    CRACK_ASSIGN_OR_RETURN(snap, txn_mgr_.SnapshotOf(txn));
  }
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  TxnState state;
  state.snap = snap;
  txn_states_.emplace(txn, std::move(state));
  return txn;
}

bool AdaptiveStore::TxnActive(TxnId txn) const {
  return txn != kNoTxn && txn_mgr_.IsActive(txn);
}

Result<AdaptiveStore::WriteScope> AdaptiveStore::BeginWriteScope(TxnId txn) {
  WriteScope scope;
  if (txn == kNoTxn) {
    // Auto-commit: the statement is its own transaction — its writes
    // become visible atomically when FinishWriteScope commits, and a
    // failed statement leaves no visibility trace.
    {
      std::lock_guard<std::mutex> cl(commit_mu_);  // see commit_mu_
      scope.txn = txn_mgr_.Begin();
      CRACK_ASSIGN_OR_RETURN(scope.snap, txn_mgr_.SnapshotOf(scope.txn));
    }
    scope.implicit = true;
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    TxnState state;
    state.snap = scope.snap;
    state.implicit = true;
    txn_states_.emplace(scope.txn, std::move(state));
    return scope;
  }
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(txn);
  if (it == txn_states_.end()) {
    return Status::NotFound(
        StrFormat("no active transaction %llu",
                  static_cast<unsigned long long>(txn)));
  }
  if (it->second.abort_only) {
    return Status::Aborted(
        "transaction hit a write-write conflict; roll it back");
  }
  scope.txn = txn;
  scope.snap = it->second.snap;
  scope.implicit = false;
  return scope;
}

Status AdaptiveStore::FinishWriteScope(const WriteScope& scope,
                                       Status op_status) {
  if (scope.implicit) {
    if (op_status.ok()) return Commit(scope.txn);
    Status rb = Rollback(scope.txn);
    CRACK_DCHECK(rb.ok());
    (void)rb;
    return op_status;
  }
  if (op_status.IsAborted()) {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(scope.txn);
    if (it != txn_states_.end()) it->second.abort_only = true;
  }
  return op_status;
}

void AdaptiveStore::Touch(const WriteScope& scope, const std::string& table,
                          Oid oid) {
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.touched[table].push_back(oid);
}

void AdaptiveStore::PushUndo(const WriteScope& scope, UndoRecord record) {
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.undo.push_back(std::move(record));
}

void AdaptiveStore::PushRedo(const WriteScope& scope, durability::WalOp op) {
  if (wal_ == nullptr) return;
  std::lock_guard<std::mutex> tl(txn_states_mu_);
  auto it = txn_states_.find(scope.txn);
  if (it != txn_states_.end()) it->second.redo.push_back(std::move(op));
}

Status AdaptiveStore::Commit(TxnId txn) {
  if (txn == kNoTxn) {
    return Status::InvalidArgument("auto-commit has no transaction to commit");
  }
  bool abort_only = false;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    if (it == txn_states_.end()) {
      return Status::NotFound(
          StrFormat("no active transaction %llu",
                    static_cast<unsigned long long>(txn)));
    }
    abort_only = it->second.abort_only;
  }
  if (abort_only) {
    CRACK_RETURN_NOT_OK(Rollback(txn));
    return Status::Aborted(
        "transaction hit a write-write conflict and was rolled back");
  }
  TxnState state;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    state = std::move(it->second);
    txn_states_.erase(it);
  }
  // Formal first-committer-wins validation. Write admission already locks
  // rows eagerly, so this cannot fire today — it is the commit-time guard
  // the protocol is defined by.
  for (const auto& [table, oids] : state.touched) {
    Status st = VersionsFor(table)->ValidateWriteSet(state.snap, txn, oids);
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> tl(txn_states_mu_);
        txn_states_.emplace(txn, std::move(state));
      }
      CRACK_RETURN_NOT_OK(Rollback(txn));
      return st;
    }
  }
  uint64_t wal_lsn = 0;
  // The writer the record went to, kept alive until the record is durable:
  // a checkpoint may swap in the next log segment meanwhile.
  std::shared_ptr<durability::WalWriter> wal;
  {
    // Atomic with respect to snapshot acquisition: no reader may pin a
    // read_ts covering `cts` before every marker is stamped.
    std::lock_guard<std::mutex> cl(commit_mu_);
    CRACK_ASSIGN_OR_RETURN(Ts cts, txn_mgr_.FinishCommit(txn));
    for (const auto& [table, oids] : state.touched) {
      VersionsFor(table)->CommitTxn(txn, cts, oids);
    }
    // Append the redo record while still inside commit_mu_, so the log
    // holds commit records in commit-stamp order (replay depends on it).
    // The fsync happens after release — appends are cheap, stalls are not.
    if (wal_ != nullptr && !state.redo.empty()) {
      durability::WalCommit record;
      record.commit_ts = cts;
      record.ops = std::move(state.redo);
      CRACK_ASSIGN_OR_RETURN(wal_lsn, wal_->AppendCommit(record));
      wal = wal_;
    }
  }
  if (wal_lsn != 0) CRACK_RETURN_NOT_OK(wal->CommitDurable(wal_lsn));
  MaybeRunMaintenance();
  return Status::OK();
}

Status AdaptiveStore::Rollback(TxnId txn) {
  if (txn == kNoTxn) {
    return Status::InvalidArgument(
        "auto-commit has no transaction to roll back");
  }
  TxnState state;
  {
    std::lock_guard<std::mutex> tl(txn_states_mu_);
    auto it = txn_states_.find(txn);
    if (it == txn_states_.end()) {
      return Status::NotFound(
          StrFormat("no active transaction %llu",
                    static_cast<unsigned long long>(txn)));
    }
    state = std::move(it->second);
    txn_states_.erase(it);
  }
  // Physical value restores need the store quiesced (they bypass the
  // per-column latch protocol).
  std::unique_lock<std::shared_mutex> g(global_mu_);
  return RollbackLocked(txn, &state);
}

Status AdaptiveStore::RollbackLocked(TxnId txn, TxnState* state) {
  Status result = Status::OK();
  // Undo physical update writes in reverse order, so multiple writes to
  // one slot unwind to the oldest value.
  for (auto it = state->undo.rbegin(); it != state->undo.rend(); ++it) {
    auto rel = this->table(it->table);
    if (!rel.ok()) {
      result = rel.status();
      continue;
    }
    auto bat = (*rel)->column(it->column);
    if (!bat.ok()) {
      result = bat.status();
      continue;
    }
    const size_t row = static_cast<size_t>(it->oid - (*bat)->head_base());
    // The value being undone is what the accelerator holds for the row.
    Value undone = (*bat)->GetValue(row);
    Status st = (*bat)->SetValue(row, it->old_value);
    if (!st.ok()) result = st;
    ColumnAccessPath* path = nullptr;
    {
      std::lock_guard<std::mutex> rl(registry_mu_);
      auto ait = accels_.find(it->table + "." + it->column);
      if (ait != accels_.end()) path = ait->second.PathIfAny();
    }
    if (path != nullptr) {
      // A delta like any other: it folds at the column's next statement.
      st = path->Update(it->oid, undone, it->old_value);
      if (!st.ok() && !st.IsNotFound()) result = st;
    }
  }
  for (const auto& [table, oids] : state->touched) {
    VersionsFor(table)->RollbackTxn(txn, oids);
  }
  Status fin = txn_mgr_.FinishRollback(txn);
  if (!fin.ok()) result = fin;
  return result;
}

Result<uint64_t> AdaptiveStore::StampDeletes(const std::string& table,
                                             const WriteScope& scope,
                                             const std::vector<Oid>& oids,
                                             IoStats* stats) {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  VersionedTable* vt = VersionsFor(table);
  Oid base = BaseOid(**rel_result);
  Oid end = vt->horizon();
  uint64_t removed = 0;
  for (Oid oid : oids) {
    if (oid < base || oid >= end) {
      return Status::InvalidArgument(
          StrFormat("oid %llu outside %s's row range",
                    static_cast<unsigned long long>(oid), table.c_str()));
    }
    std::string why;
    VersionedTable::Admission adm =
        vt->AdmitWrite(oid, scope.snap, scope.txn, &why);
    if (adm == VersionedTable::Admission::kSkip) continue;  // already dead
    if (adm == VersionedTable::Admission::kConflict) {
      if (scope.implicit) continue;  // pre-MVCC race semantics: skip the row
      return Status::Aborted("DELETE " + why);
    }
    Touch(scope, table, oid);
    vt->StampDelete(oid, TxnStamp(scope.txn));
    if (wal_ != nullptr) {
      durability::WalOp op;
      op.kind = durability::WalOpKind::kDelete;
      op.table = table;
      op.oid = oid;
      PushRedo(scope, std::move(op));
    }
    ++removed;
    if (stats != nullptr) ++stats->tuples_written;
  }
  return removed;
}

// --- statement machinery ---------------------------------------------------

AdaptiveStore::ColumnAccel* AdaptiveStore::AccelFor(const std::string& table,
                                                    const std::string& column) {
  std::lock_guard<std::mutex> rl(registry_mu_);
  return &accels_[table + "." + column];
}

AdaptiveStore::TableState* AdaptiveStore::TableStateFor(
    const std::string& table) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  return &table_states_[table];
}

Status AdaptiveStore::CreatePath(const std::string& table,
                                 const std::string& column, ColumnAccel* accel,
                                 const std::shared_ptr<Bat>& bat) {
  if (accel->PathIfAny() != nullptr) return Status::OK();
  CRACK_ASSIGN_OR_RETURN(
      accel->path,
      CreateColumnAccessPath(bat, PathConfigFor(table + "." + column)));
  // A path born after a vacuum must not resurrect purged rows: the lazy
  // accelerator build reads the append-only base, which still holds them
  // physically, so replay them before publishing the path. (Versioned but
  // unpurged deletes need no replay — the SnapshotView filters them at read
  // time.)
  VersionedTable* vt = VersionsIfAny(table);
  if (vt != nullptr) {
    for (Oid oid : vt->PurgedOids()) {
      Status st = accel->path->Delete(oid);
      CRACK_DCHECK(st.ok() || st.IsNotFound());
      (void)st;
    }
  }
  accel->has_path.store(true, std::memory_order_release);
  return Status::OK();
}

Status AdaptiveStore::MaintainColumn(ColumnAccel* accel, TableState* ts,
                                     bool before_read, IoStats* stats) {
  ColumnAccessPath* path = accel->PathIfAny();
  if (path == nullptr || !path->WantsMaintenance(before_read)) {
    return Status::OK();
  }
  std::unique_lock<std::shared_mutex> col(accel->latch);
  std::shared_lock<std::shared_mutex> base(ts->base_latch);
  return path->FlushDeltas(stats);
}

Status AdaptiveStore::LatchColumn(const std::string& table,
                                  const std::string& column,
                                  const std::shared_ptr<Bat>& bat,
                                  IoStats* stats, ColumnLatch* latch) {
  latch->accel = AccelFor(table, column);
  TableState* ts = TableStateFor(table);
  // Fold what the column's delta-merge policy says is due before a read
  // (ripple folds only here), under the exclusive latch.
  CRACK_RETURN_NOT_OK(
      MaintainColumn(latch->accel, ts, /*before_read=*/true, stats));
  ColumnAccessPath* path = latch->accel->PathIfAny();
  if (path != nullptr &&
      path->concurrency() == PathConcurrency::kSharedReads &&
      path->SharedSelectReady()) {
    latch->shared = std::shared_lock<std::shared_mutex>(latch->accel->latch);
  } else {
    latch->exclusive =
        std::unique_lock<std::shared_mutex>(latch->accel->latch);
  }
  latch->base = std::shared_lock<std::shared_mutex>(ts->base_latch);
  return CreatePath(table, column, latch->accel, bat);
}

void AdaptiveStore::LatchForWrite(std::vector<ColumnAccel*> columns,
                                  WriteLatches* latches) {
  // One order for every writer: ascending slot address (slots never move).
  // Duplicates collapse, so no thread locks one latch twice.
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()), columns.end());
  latches->shared.reserve(columns.size());
  for (ColumnAccel* accel : columns) {
    ColumnAccessPath* path = accel->PathIfAny();
    if (path != nullptr &&
        path->concurrency() == PathConcurrency::kSharedReads) {
      latches->shared.emplace_back(accel->latch);
    } else {
      latches->exclusive.emplace_back(accel->latch);
    }
  }
}

void AdaptiveStore::FinishSelect(AccessSelection sel, Delivery delivery,
                                 QueryResult* result) const {
  result->count = sel.count;
  obs::RecordSpanAnswer(sel.span_set.num_spans(), sel.count);
  if (sel.span_set.detached()) obs::RecordMaterializedOids(sel.count);
  if (delivery != Delivery::kCount) result->span_set = std::move(sel.span_set);
}

Result<QueryResult> AdaptiveStore::SelectRangeAt(const std::string& table,
                                                 const std::string& column,
                                                 const TypedRange& range,
                                                 Delivery delivery,
                                                 const Snapshot& snap) {
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> bat,
                         ResolveColumn(table, column));
  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("select", table + "." + column, &result.io);
  // The MVCC read filter, captured before any latch: its horizon hides rows
  // appended after this point, so the filter needs no base latch.
  SnapshotView view = ViewForColumn(table, column, snap);
  {
    ColumnLatch latch;
    CRACK_RETURN_NOT_OK(LatchColumn(table, column, bat, &result.io, &latch));
    ColumnAccessPath* path = latch.accel->path.get();
    const bool is_crack = path->strategy() == AccessStrategy::kCrack;
    // The path learns the delivery: a count never reads its rows, and a
    // shared store's crack answers that deliver rows leave detached (a
    // neighbour's crack may reshuffle the span once the latches drop).
    CRACK_ASSIGN_OR_RETURN(
        AccessSelection sel,
        path->SelectTyped(range, delivery, &result.io,
                          view.active() ? &view : nullptr));
    const bool fused = sel.bounds_dropped > 0;
    FinishSelect(std::move(sel), delivery, &result);
    if (is_crack && options_.track_lineage) {
      UpdateLineage(table, column, latch.accel, fused);
    }
  }
  if (delivery == Delivery::kMaterialize) {
    obs::TraceSpan mat_span("materialize", &result.io);
    // Rows are gathered by oid at the statement's snapshot: a row a later
    // commit rewrote keeps the value the snapshot reads.
    CRACK_ASSIGN_OR_RETURN(std::unique_ptr<BaseReadScope> base,
                           OpenBaseScope(table, snap, /*lock_global=*/false));
    CRACK_ASSIGN_OR_RETURN(
        result.materialized,
        base->Materialize(table + "_" + column + "_result",
                          result.CollectOids(), {}, &result.io));
  }
  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<ColumnAggregates> AdaptiveStore::AggregateRangeAt(
    const std::string& table, const std::string& column,
    const RangeBounds& bounds, const Snapshot& snap) {
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Bat> bat,
                         ResolveColumn(table, column));
  IoStats io;
  obs::TraceSpan trace_span("aggregate", table + "." + column, &io);
  SnapshotView view = ViewForColumn(table, column, snap);
  ColumnAggregates out;
  {
    ColumnLatch latch;
    CRACK_RETURN_NOT_OK(LatchColumn(table, column, bat, &io, &latch));
    ColumnAccessPath* path = latch.accel->path.get();
    CRACK_ASSIGN_OR_RETURN(
        out,
        path->AggregateRange(bounds, &io, view.active() ? &view : nullptr));
    if (path->strategy() == AccessStrategy::kCrack &&
        options_.track_lineage) {
      // The aggregate's cuts crack the column exactly like a select's.
      UpdateLineage(table, column, latch.accel, out.bounds_dropped > 0);
    }
  }
  out.io = io;
  obs::RecordAggPushdown(out.pushdown_rows, out.summary_rows);
  AddIo(io);
  return out;
}

Result<QueryResult> AdaptiveStore::SelectConjunctionAt(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    Delivery delivery, const Snapshot& snap) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("conjunction needs at least one predicate");
  }
  if (delivery == Delivery::kMaterialize) {
    return Status::Unimplemented(
        "materialize a conjunction via kView and ReadBase");
  }
  if (conjuncts.size() == 1) {
    return SelectRangeAt(table, conjuncts[0].column, conjuncts[0].range,
                         delivery, snap);
  }

  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("conjunction", table, &result.io);

  // The stateless scan strategy needs no legs at all while every base row
  // is visible at every snapshot — the table has no version state, so its
  // views are inactive (never the case on a concurrent store, whose views
  // always carry a horizon): one fused pass probes every conjunct against
  // every row. Any stamp routes the conjunction per-column, where the
  // SnapshotView applies.
  if (options_.strategy == AccessStrategy::kScan &&
      !ViewForColumn(table, conjuncts[0].column, snap).active()) {
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
    QueryResult all_rows;
    all_rows.count = rel->num_rows();
    all_rows.span_set.BindIdentity(BaseOid(*rel));
    all_rows.span_set.AddSpan(0, rel->num_rows());
    std::vector<const ColumnRange*> probes;
    for (const ColumnRange& c : conjuncts) probes.push_back(&c);
    CRACK_RETURN_NOT_OK(ProbeConjunction(table, snap, probes, delivery,
                                         std::move(all_rows), &result));
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  }

  // Answer each column once through its access path (every conjunct is
  // still advice to crack), keeping each answer as its span set.
  std::vector<const ColumnRange*> leg_ranges;
  std::vector<const ColumnRange*> probes;
  SplitLegs(conjuncts, &leg_ranges, &probes);
  struct Leg {
    Status status;
    QueryResult answer;
  };
  std::vector<Leg> legs(leg_ranges.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(leg_ranges.size());
  for (size_t i = 0; i < leg_ranges.size(); ++i) {
    tasks.emplace_back([this, &table, &leg_ranges, &legs, &snap, i] {
      auto qr = SelectRangeAt(table, leg_ranges[i]->column,
                              leg_ranges[i]->range, Delivery::kView, snap);
      if (!qr.ok()) {
        legs[i].status = qr.status();
        return;
      }
      legs[i].answer = std::move(*qr);
    });
  }
  if (options_.concurrent) {
    // Each leg latches only its own column, so legs over different columns
    // crack concurrently.
    TaskPool::Global()->RunBatch(std::move(tasks));
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) {
      tasks[i]();
      CRACK_RETURN_NOT_OK(legs[i].status);
    }
  }
  for (const Leg& leg : legs) {
    CRACK_RETURN_NOT_OK(leg.status);
    result.io += leg.answer.io;
  }
  // Scan legs answer over the identity layout: clean ones intersect as
  // interval algebra, touching only span boundaries.
  OidSpanSet folded;
  std::vector<bool> in_fold(legs.size(), false);
  bool have_folded = false;
  for (size_t i = 0; i < legs.size(); ++i) {
    OidSpanSet& set = legs[i].answer.span_set;
    if (!set.identity() || set.exceptions() != 0 || set.extras() != 0) {
      continue;
    }
    result.io.tuples_read += set.num_spans();
    folded = have_folded ? IntersectIdentitySpanSets(folded, set)
                         : std::move(set);
    have_folded = true;
    in_fold[i] = true;
  }
  // Walk the smallest answer; every conjunct it does not cover is probed
  // per row against snapshot-visible values.
  size_t pick = legs.size();
  uint64_t smallest = have_folded ? folded.count() : UINT64_MAX;
  for (size_t i = 0; i < legs.size(); ++i) {
    if (!in_fold[i] && legs[i].answer.count < smallest) {
      smallest = legs[i].answer.count;
      pick = i;
    }
  }
  QueryResult walk;
  if (pick == legs.size()) {
    walk.count = folded.count();
    walk.span_set = std::move(folded);
  } else {
    walk = std::move(legs[pick].answer);
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    bool covered = pick == legs.size() ? in_fold[i] : i == pick;
    if (!covered) probes.push_back(leg_ranges[i]);
  }
  CRACK_RETURN_NOT_OK(
      ProbeConjunction(table, snap, probes, delivery, std::move(walk),
                       &result));

  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

std::vector<uint64_t> AdaptiveStore::VisibleRows(const std::string& table,
                                                 const Relation& rel,
                                                 const Snapshot& snap) const {
  const size_t n = rel.num_rows();
  std::vector<uint64_t> bm(BitmapWords(n));
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) {
    BitmapFill(bm.data(), n);
    return bm;
  }
  // One version-log latch acquisition for the whole base run: a horizon
  // clip, then one probe per marked row.
  SnapshotView view = vt->ViewFor(snap, /*column=*/"", /*force_active=*/true);
  view.VisibleRangeMask(BaseOid(rel), n, bm.data());
  return bm;
}

Result<std::vector<Oid>> AdaptiveStore::LiveOidsAt(const std::string& table,
                                                   const Snapshot& snap) const {
  CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
  std::shared_lock<std::shared_mutex> base(TableStateFor(table)->base_latch);
  const std::vector<uint64_t> visible = VisibleRows(table, *rel, snap);
  const Oid base_oid = BaseOid(*rel);
  std::vector<Oid> oids;
  oids.reserve(BitmapCount(visible.data(), rel->num_rows()));
  for (size_t w = 0; w < visible.size(); ++w) {
    for (uint64_t m = visible[w]; m != 0; m &= m - 1) {
      oids.push_back(base_oid + (w << 6) + size_t(__builtin_ctzll(m)));
    }
  }
  return oids;
}

void AdaptiveStore::AddIo(const IoStats& io) {
  {
    std::lock_guard<std::mutex> il(io_mu_);
    total_io_ += io;
  }
  obs::MirrorIo(io);
}

Result<QueryResult> AdaptiveStore::SelectRange(const std::string& table,
                                               const std::string& column,
                                               const TypedRange& range,
                                               Delivery delivery, TxnId txn) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_);
  return SelectRangeAt(table, column, range, delivery, snap);
}

Result<ColumnAggregates> AdaptiveStore::AggregateRange(
    const std::string& table, const std::string& column,
    const TypedRange& range, TxnId txn) {
  if (range.has_string()) {
    return Status::Unimplemented("aggregate pushdown: string predicate");
  }
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_);
  return AggregateRangeAt(table, column, range.ToNumericBounds(), snap);
}

Result<QueryResult> AdaptiveStore::SelectConjunction(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    Delivery delivery, TxnId txn) {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_);
  return SelectConjunctionAt(table, conjuncts, delivery, snap);
}

Status AdaptiveStore::ProbeConjunction(
    const std::string& table, const Snapshot& snap,
    const std::vector<const ColumnRange*>& probes, Delivery delivery,
    QueryResult walk, QueryResult* result) {
  obs::TraceSpan probe_span("probe", table, &result->io);
  // Compiling every probe first also type-checks conjuncts that never
  // reached an access path, even when the walked answer is empty.
  CRACK_ASSIGN_OR_RETURN(std::unique_ptr<BaseReadScope> base,
                         OpenBaseScope(table, snap, /*lock_global=*/false));
  std::vector<RowProbe> tests;
  tests.reserve(probes.size());
  for (const ColumnRange* c : probes) {
    CRACK_ASSIGN_OR_RETURN(const SnapshotColumn* column,
                           base->Column(c->column));
    CRACK_ASSIGN_OR_RETURN(RowProbe test, RowProbe::Make(column, c->range));
    tests.push_back(test);
  }
  const uint64_t cells = walk.count * tests.size();
  result->io.tuples_read += cells;
  obs::RecordBaseRows(cells);
  // Each test reads every live row of the block (no early exit, no branch
  // on an outcome), so the rows' random base reads stay independent and
  // overlap.
  auto pass = [&tests](const OidBlock& block) {
    uint64_t keep = block.live;
    for (const RowProbe& test : tests) keep &= test.Pass(block);
    return keep;
  };
  if (delivery == Delivery::kCount) {
    uint64_t survivors = tests.empty() ? walk.count : 0;
    if (!tests.empty()) {
      walk.span_set.ForEachBlock([&](const OidBlock& block) {
        survivors += static_cast<uint64_t>(__builtin_popcountll(pass(block)));
      });
    }
    result->count = survivors;
    return Status::OK();
  }
  // kView narrows the walked answer in place: each block's failing rows
  // become one exception word.
  if (!tests.empty()) walk.span_set.Narrow(pass);
  result->count = walk.span_set.count();
  result->span_set = std::move(walk.span_set);
  return Status::OK();
}

Result<QueryResult> AdaptiveStore::Insert(const std::string& table,
                                          std::vector<Value> values,
                                          TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_);
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("insert", table, &result.io);
    CRACK_RETURN_NOT_OK(CoerceRow(rel->schema(), &values));

    size_t ncols = rel->num_columns();
    std::vector<ColumnAccel*> accels(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      accels[c] = AccelFor(table, rel->schema().column(c).name);
    }
    TableState* ts = TableStateFor(table);
    VersionedTable* vt = VersionsFor(table);
    Oid oid = 0;
    {
      WriteLatches latches;
      LatchForWrite(accels, &latches);
      std::unique_lock<std::shared_mutex> base(ts->base_latch);
      // Stamp before the physical append: any reader that can observe the
      // row physically must find its (uncommitted) version stamp.
      oid = BaseOid(*rel) + rel->num_rows();
      vt->NoteInsert(oid, TxnStamp(scope.txn));
      Touch(scope, table, oid);  // with the stamp: rollback must revert it
      CRACK_RETURN_NOT_OK(rel->AppendRow(values));
      result.io.tuples_written += ncols;
      // Every materialized accelerator absorbs the new row; columns never
      // queried stay lazy (their eventual build reads the appended base).
      for (size_t c = 0; c < ncols; ++c) {
        ColumnAccessPath* path = accels[c]->PathIfAny();
        if (path == nullptr) continue;
        CRACK_RETURN_NOT_OK(path->Insert(values[c], oid, &result.io));
      }
    }
    if (wal_ != nullptr) {
      durability::WalOp op;
      op.kind = durability::WalOpKind::kInsert;
      op.table = table;
      op.oid = oid;
      op.row = values;  // post-coercion: replay appends them verbatim
      PushRedo(scope, std::move(op));
    }
    // Post-statement folds (immediate / threshold) outside the DML latches.
    for (ColumnAccel* accel : accels) {
      CRACK_RETURN_NOT_OK(
          MaintainColumn(accel, ts, /*before_read=*/false, &result.io));
    }

    result.count = 1;
    result.inserted_oid = oid;  // the new row's identity
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::DeleteOids(const std::string& table,
                                              const std::vector<Oid>& oids,
                                              TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("delete-oids", table, &result.io);
    // Version stamps only — the shared store latch suffices.
    std::shared_lock<std::shared_mutex> g(global_mu_);
    CRACK_ASSIGN_OR_RETURN(result.count,
                           StampDeletes(table, scope, oids, &result.io));
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::Delete(
    const std::string& table, const std::vector<ColumnRange>& conjuncts,
    TxnId txn) {
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_);
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("delete", table, &result.io);
    std::vector<Oid> oids;
    if (conjuncts.empty()) {
      CRACK_ASSIGN_OR_RETURN(oids, LiveOidsAt(table, scope.snap));
    } else {
      // The WHERE is a read like any other: it cracks the referenced
      // columns on its way to the victim set.
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          SelectConjunctionAt(table, conjuncts, Delivery::kView, scope.snap));
      result.io += qr.io;
      oids = std::move(qr).CollectOids();
    }
    // Deletes are version stamps only — no access-path latches needed; the
    // rows stay physically in place until vacuum folds them out.
    CRACK_ASSIGN_OR_RETURN(result.count,
                           StampDeletes(table, scope, oids, &result.io));
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<QueryResult> AdaptiveStore::Update(
    const std::string& table, const std::vector<Assignment>& sets,
    const std::vector<ColumnRange>& conjuncts, TxnId txn) {
  if (sets.empty()) {
    return Status::InvalidArgument("UPDATE needs at least one SET clause");
  }
  return RunInWriteScope(txn, [&](const WriteScope& scope)
                                  -> Result<QueryResult> {
    std::shared_lock<std::shared_mutex> g(global_mu_);
    CRACK_ASSIGN_OR_RETURN(std::shared_ptr<Relation> rel, this->table(table));
    QueryResult result;
    WallTimer timer;
    obs::TraceSpan trace_span("update", table, &result.io);
    std::vector<Oid> oids;
    if (conjuncts.empty()) {
      CRACK_ASSIGN_OR_RETURN(oids, LiveOidsAt(table, scope.snap));
    } else {
      CRACK_ASSIGN_OR_RETURN(
          QueryResult qr,
          SelectConjunctionAt(table, conjuncts, Delivery::kView, scope.snap));
      result.io += qr.io;
      oids = std::move(qr).CollectOids();
    }

    CRACK_RETURN_NOT_OK(ValidateAssignments(*rel, sets));

    // Duplicate SET clauses on one column are legal (last one wins);
    // LatchForWrite latches the column once.
    std::vector<ColumnAccel*> accels(sets.size());
    for (size_t s = 0; s < sets.size(); ++s) {
      accels[s] = AccelFor(table, sets[s].column);
    }
    TableState* ts = TableStateFor(table);
    VersionedTable* vt = VersionsFor(table);

    uint64_t applied = 0;
    {
      WriteLatches latches;
      LatchForWrite(accels, &latches);
      // Base exclusive: the slot overwrites must not race base readers.
      std::unique_lock<std::shared_mutex> base(ts->base_latch);

      std::vector<std::shared_ptr<Bat>> bats(sets.size());
      std::vector<ColumnAccessPath*> paths(sets.size());
      for (size_t s = 0; s < sets.size(); ++s) {
        bats[s] = *rel->column(sets[s].column);
        paths[s] = accels[s]->PathIfAny();
      }
      for (Oid oid : oids) {
        // Write admission revalidates liveness (the row may have died
        // between the WHERE select and this write phase) and detects
        // write-write conflicts first-committer-wins.
        std::string why;
        VersionedTable::Admission adm =
            vt->AdmitWrite(oid, scope.snap, scope.txn, &why);
        if (adm == VersionedTable::Admission::kSkip) continue;
        if (adm == VersionedTable::Admission::kConflict) {
          if (scope.implicit) continue;  // pre-MVCC race semantics
          return Status::Aborted("UPDATE " + why);
        }
        Touch(scope, table, oid);
        bool row_applied = true;
        for (size_t s = 0; s < sets.size(); ++s) {
          size_t row = static_cast<size_t>(oid - bats[s]->head_base());
          // Log the superseded value (older snapshots keep reading it),
          // then write through: base first, then the accelerator's delta.
          Value old_value = bats[s]->GetValue(row);
          vt->StampUpdate(oid, sets[s].column, old_value,
                          TxnStamp(scope.txn));
          PushUndo(scope, UndoRecord{table, sets[s].column, oid, old_value});
          CRACK_RETURN_NOT_OK(bats[s]->SetValue(row, sets[s].value));
          if (wal_ != nullptr) {
            durability::WalOp op;
            op.kind = durability::WalOpKind::kUpdate;
            op.table = table;
            op.oid = oid;
            op.column = sets[s].column;
            op.value = sets[s].value;
            PushRedo(scope, std::move(op));
          }
          result.io.tuples_written += 1;
          if (paths[s] == nullptr) continue;
          Status st =
              paths[s]->Update(oid, old_value, sets[s].value, &result.io);
          if (st.IsNotFound()) {
            // The path believes the row is physically dead (vacuum-purged
            // under our feet); skip the row rather than aborting the
            // statement half-applied.
            row_applied = false;
            continue;
          }
          CRACK_RETURN_NOT_OK(st);
        }
        if (row_applied) ++applied;
      }
    }
    for (ColumnAccel* accel : accels) {
      CRACK_RETURN_NOT_OK(
          MaintainColumn(accel, ts, /*before_read=*/false, &result.io));
    }

    result.count = applied;
    result.seconds = timer.ElapsedSeconds();
    AddIo(result.io);
    return result;
  });
}

Result<std::vector<Oid>> AdaptiveStore::LiveOids(const std::string& table,
                                                 TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_);
  return LiveOidsAt(table, snap);
}

Result<uint64_t> AdaptiveStore::LiveRowCount(const std::string& table,
                                             TxnId txn) const {
  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  std::shared_lock<std::shared_mutex> g(global_mu_);
  std::shared_lock<std::shared_mutex> base_lock(
      TableStateFor(table)->base_latch);
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr || vt->empty()) return rel->num_rows();
  const std::vector<uint64_t> visible = VisibleRows(table, *rel, snap);
  return BitmapCount(visible.data(), rel->num_rows());
}

Status AdaptiveStore::MarkDeleted(const std::string& table,
                                  const std::vector<Oid>& oids) {
  // Hand-over replay is an ordinary (auto-commit) delete by oid: the rows
  // get committed end stamps at a fresh timestamp; already-dead rows skip.
  auto removed = DeleteOids(table, oids);
  return removed.ok() ? Status::OK() : removed.status();
}

Result<std::vector<Oid>> AdaptiveStore::DeletedOids(
    const std::string& table) const {
  std::shared_lock<std::shared_mutex> g(global_mu_);
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  std::shared_ptr<Relation> rel = *rel_result;
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return std::vector<Oid>{};
  std::shared_lock<std::shared_mutex> base_lock(
      TableStateFor(table)->base_latch);
  return vt->InvisibleOids(txn_mgr_.LatestSnapshot(), BaseOid(*rel),
                           rel->num_rows());
}

Result<AdaptiveStore::VacuumStats> AdaptiveStore::Vacuum() {
  // Quiesce the store: the physical purge calls into access paths and
  // flushes deltas outside the per-statement latch discipline.
  std::unique_lock<std::shared_mutex> g(global_mu_);
  VacuumStats stats;
  stats.low_water = txn_mgr_.low_water();
  IoStats io;
  obs::TraceSpan trace_span("vacuum", &io);
  for (const std::string& name : TableNames()) {
    VersionedTable* vt = VersionsIfAny(name);
    if (vt == nullptr) continue;
    VersionedTable::VacuumResult res = vt->Vacuum(stats.low_water);
    stats.rows_purged += res.purged.size();
    stats.versions_dropped += res.versions_dropped;
    stats.chain_entries_dropped += res.chain_entries_dropped;
    if (res.purged.empty()) continue;
    // Hand the purge to every materialized access path of the table: each
    // tombstones the rows and folds them through the ordinary Merge
    // machinery once.
    std::vector<ColumnAccessPath*> paths;
    {
      std::lock_guard<std::mutex> rl(registry_mu_);
      std::string prefix = name + ".";
      for (auto it = accels_.lower_bound(prefix);
           it != accels_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
           ++it) {
        if (ColumnAccessPath* path = it->second.PathIfAny()) {
          paths.push_back(path);
        }
      }
    }
    for (ColumnAccessPath* path : paths) {
      CRACK_RETURN_NOT_OK(path->Purge(res.purged, &io));
    }
  }
  AddIo(io);
  return stats;
}

Result<VersionedTable::Counts> AdaptiveStore::VersionCountsFor(
    const std::string& table) const {
  auto rel_result = this->table(table);
  if (!rel_result.ok()) return rel_result.status();
  VersionedTable* vt = VersionsIfAny(table);
  if (vt == nullptr) return VersionedTable::Counts{};
  return vt->counts();
}

Result<QueryResult> AdaptiveStore::JoinEquals(const std::string& left_table,
                                              const std::string& left_column,
                                              const std::string& right_table,
                                              const std::string& right_column,
                                              TxnId txn) {
  // Joins crack base columns and fill store-wide caches without per-column
  // latches; they hold the store exclusively instead.
  std::unique_lock<std::shared_mutex> g(global_mu_);
  QueryResult result;
  WallTimer timer;
  obs::TraceSpan trace_span("join", left_table + "." + left_column + "=" +
                                        right_table + "." + right_column,
                            &result.io);
  CRACK_ASSIGN_OR_RETURN(
      std::vector<OidPair> pairs,
      JoinOidsInternal(left_table, left_column, right_table, right_column,
                       &result.io, txn));
  result.count = pairs.size();
  result.seconds = timer.ElapsedSeconds();
  AddIo(result.io);
  return result;
}

Result<std::vector<OidPair>> AdaptiveStore::JoinOids(
    const std::string& left_table, const std::string& left_column,
    const std::string& right_table, const std::string& right_column,
    TxnId txn) {
  std::unique_lock<std::shared_mutex> g(global_mu_);
  IoStats io;
  auto out = JoinOidsInternal(left_table, left_column, right_table,
                              right_column, &io, txn);
  AddIo(io);
  return out;
}

AdaptiveStore::CrackCacheStamp AdaptiveStore::StampFor(
    const std::string& table) const {
  CrackCacheStamp s;
  auto rel = this->table(table);
  if (rel.ok()) s.rows = (*rel)->num_rows();
  VersionedTable* vt = VersionsIfAny(table);
  if (vt != nullptr) s.counts = vt->counts();
  return s;
}

Result<std::vector<OidPair>> AdaptiveStore::JoinOidsInternal(
    const std::string& left_table, const std::string& left_column,
    const std::string& right_table, const std::string& right_column,
    IoStats* stats, TxnId txn) {
  auto left = ResolveColumn(left_table, left_column);
  if (!left.ok()) return left.status();
  auto right = ResolveColumn(right_table, right_column);
  if (!right.ok()) return right.status();

  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  SnapshotView lview = ViewForColumn(left_table, left_column, snap);
  SnapshotView rview = ViewForColumn(right_table, right_column, snap);

  if (options_.strategy != AccessStrategy::kCrack) {
    return HashJoinOids(*left, *right, stats, &lview, &rview);
  }

  std::string key = left_table + "." + left_column + "|" + right_table + "." +
                    right_column;
  CrackCacheStamp lstamp = StampFor(left_table);
  CrackCacheStamp rstamp = StampFor(right_table);
  auto it = join_cracks_.find(key);
  if (it != join_cracks_.end() && (it->second.left_stamp != lstamp ||
                                   it->second.right_stamp != rstamp)) {
    // Version churn since the ^ crack was built: its clones snapshot base
    // data that has changed (append, in-place update, vacuum). Rebuild.
    join_cracks_.erase(it);
    it = join_cracks_.end();
  }
  if (it == join_cracks_.end()) {
    CRACK_ASSIGN_OR_RETURN(JoinCrackResult cracked,
                           CrackJoin(*left, *right, stats));
    if (options_.track_lineage) {
      PieceId lroot = lineage_.AddRoot(left_table + "." + left_column,
                                       (*left)->size());
      PieceId rroot = lineage_.AddRoot(right_table + "." + right_column,
                                       (*right)->size());
      (void)lineage_.AddCrack(
          CrackOp::kWedge, {lroot, rroot},
          {{key + " P1 (L match)", cracked.left.split},
           {key + " P2 (L rest)", (*left)->size() - cracked.left.split},
           {key + " P3 (R match)", cracked.right.split},
           {key + " P4 (R rest)", (*right)->size() - cracked.right.split}});
    }
    JoinCrackEntry entry;
    entry.cracked = std::move(cracked);
    entry.left_stamp = lstamp;
    entry.right_stamp = rstamp;
    it = join_cracks_.emplace(key, std::move(entry)).first;
  }
  return JoinMatchingAreas(it->second.cracked, stats, &lview, &rview);
}

Result<std::vector<GroupAggregate>> AdaptiveStore::GroupBy(
    const std::string& table, const std::string& group_column,
    const std::string& agg_column, AggKind kind, TxnId txn) {
  std::unique_lock<std::shared_mutex> g(global_mu_);
  auto grp = ResolveColumn(table, group_column);
  if (!grp.ok()) return grp.status();
  auto agg = ResolveColumn(table, agg_column);
  if (!agg.ok()) return agg.status();

  CRACK_ASSIGN_OR_RETURN(Snapshot snap, ReadSnapshot(txn));
  SnapshotView group_view = ViewForColumn(table, group_column, snap);
  SnapshotView agg_view = ViewForColumn(table, agg_column, snap);

  IoStats io;
  obs::TraceSpan trace_span("group-by", table + "." + group_column, &io);
  std::string key = table + "." + group_column;
  CrackCacheStamp stamp = StampFor(table);
  auto it = group_cracks_.find(key);
  if (it != group_cracks_.end() && it->second.stamp != stamp) {
    // Version churn since the Ω crack was built (see JoinOidsInternal).
    group_cracks_.erase(it);
    it = group_cracks_.end();
  }
  if (it == group_cracks_.end()) {
    CRACK_ASSIGN_OR_RETURN(GroupCrackResult cracked, CrackGroup(*grp, &io));
    if (options_.track_lineage && cracked.groups.size() <= 1024) {
      PieceId root = lineage_.AddRoot(key + " (pre-Ω)", (*grp)->size());
      std::vector<std::pair<std::string, uint64_t>> outputs;
      outputs.reserve(cracked.groups.size());
      for (const GroupPiece& g : cracked.groups) {
        outputs.emplace_back(
            StrFormat("%s=%lld", key.c_str(), static_cast<long long>(g.value)),
            g.size());
      }
      (void)lineage_.AddCrack(CrackOp::kOmega, {root}, outputs);
    }
    GroupCrackEntry entry;
    entry.cracked = std::move(cracked);
    entry.stamp = stamp;
    it = group_cracks_.emplace(key, std::move(entry)).first;
  }
  auto out =
      AggregateGroups(it->second.cracked, *agg, kind, &io, &group_view,
                      &agg_view);
  AddIo(io);
  return out;
}

Result<ProjectionCrackResult> AdaptiveStore::Project(
    const std::string& table, const std::vector<std::string>& attrs) {
  std::unique_lock<std::shared_mutex> g(global_mu_);
  auto rel = this->table(table);
  if (!rel.ok()) return rel.status();
  IoStats io;
  auto out = CrackProjection(*rel, attrs, &io);
  if (out.ok() && options_.track_lineage) {
    PieceId root = lineage_.AddRoot(table + " (pre-Ψ)", (*rel)->num_rows());
    (void)lineage_.AddCrack(
        CrackOp::kPsi, {root},
        {{out->projected->name(), out->projected->num_rows()},
         {out->remainder->name(), out->remainder->num_rows()}});
  }
  AddIo(io);
  return out;
}

Result<ColumnAccessPath*> AdaptiveStore::AccessPathFor(
    const std::string& table, const std::string& column) const {
  // The borrowed pointer is safe to hand out (paths are never destroyed
  // while the store lives), but using it for introspection is only
  // meaningful on a quiesced store.
  const ColumnAccel* accel = AccelIfAny(table, column);
  if (accel == nullptr) {
    return Status::NotFound("no access path yet for " + table + "." + column);
  }
  return accel->path.get();
}

const AdaptiveStore::ColumnAccel* AdaptiveStore::AccelIfAny(
    const std::string& table, const std::string& column) const {
  std::lock_guard<std::mutex> rl(registry_mu_);
  auto it = accels_.find(table + "." + column);
  if (it == accels_.end() || it->second.PathIfAny() == nullptr) return nullptr;
  return &it->second;
}

Result<size_t> AdaptiveStore::NumPieces(const std::string& table,
                                        const std::string& column) const {
  std::shared_lock<std::shared_mutex> g(global_mu_);
  const ColumnAccel* accel = AccelIfAny(table, column);
  if (accel == nullptr) return size_t{1};
  std::shared_lock<std::shared_mutex> col(accel->latch);
  return accel->path->NumPieces();
}

Result<std::string> AdaptiveStore::ExplainColumn(
    const std::string& table, const std::string& column) const {
  std::shared_lock<std::shared_mutex> g(global_mu_);
  auto bat = ResolveColumn(table, column);
  if (!bat.ok()) return bat.status();
  std::string out = StrFormat("%s.%s: %s, %zu tuples, strategy=%s\n",
                              table.c_str(), column.c_str(),
                              ValueTypeName((*bat)->tail_type()),
                              (*bat)->size(),
                              AccessStrategyName(options_.strategy));
  const ColumnAccel* accel = AccelIfAny(table, column);
  if (accel == nullptr) return out + "no accelerator yet (never queried)\n";
  // Exclusive: Explain reads piece tables and delta sizes wholesale.
  std::unique_lock<std::shared_mutex> col(accel->latch);
  return out + accel->path->Explain();
}

Status AdaptiveStore::SetPolicy(const CrackPolicyOptions& options) {
  // SET POLICY is a Configure with only the policy axis changed: the SQL
  // executor, the shell and startup options all flow through the same
  // validation and re-arm path.
  DbOptions next = this->options();
  next.policy = options;
  return Configure(next);
}

DbOptions AdaptiveStore::options() const {
  std::shared_lock<std::shared_mutex> g(global_mu_);
  return options_;
}

Status AdaptiveStore::ApplyPolicy(const CrackPolicyOptions& options) {
  // The caller holds global_mu_ exclusively; per-column exclusive latches
  // come next — the same order every write takes, so no deadlock with
  // running queries.
  std::vector<ColumnAccel*> accels;
  {
    std::lock_guard<std::mutex> rl(registry_mu_);
    for (auto& [key, accel] : accels_) {
      if (accel.PathIfAny() != nullptr) accels.push_back(&accel);
    }
  }
  for (ColumnAccel* accel : accels) {
    std::unique_lock<std::shared_mutex> col(accel->latch);
    CRACK_RETURN_NOT_OK(accel->path->SetPolicyOptions(options));
  }
  return Status::OK();
}

std::vector<AdaptiveStore::ColumnPolicy> AdaptiveStore::PolicyReport() const {
  std::shared_lock<std::shared_mutex> g(global_mu_);
  std::vector<ColumnPolicy> report;
  std::vector<std::pair<std::string, const ColumnAccel*>> accels;
  {
    std::lock_guard<std::mutex> rl(registry_mu_);
    for (const auto& [key, accel] : accels_) {
      if (accel.PathIfAny() != nullptr) accels.emplace_back(key, &accel);
    }
  }
  for (const auto& [key, accel] : accels) {
    ColumnPolicy row;
    size_t dot = key.find('.');
    row.table = key.substr(0, dot);
    row.column = dot == std::string::npos ? "" : key.substr(dot + 1);
    std::shared_lock<std::shared_mutex> col(accel->latch);
    row.status = accel->path->PolicyStatus();
    report.push_back(std::move(row));
  }
  return report;
}

void AdaptiveStore::UpdateLineage(const std::string& table,
                                  const std::string& column,
                                  ColumnAccel* accel, bool fused) {
  obs::TraceSpan span("lineage");
  // The root holds the accelerator's rows; nothing is cracked before the
  // accelerator exists.
  const size_t n = accel->path->accel_tuples();
  if (n == 0) return;
  const size_t merges = accel->path->merges_performed();
  const bool fresh = accel->root == kInvalidPieceId;
  if (fresh) accel->root = lineage_.AddRoot(table + "." + column, n);
  if (fresh || fused || merges != accel->merges_seen) {
    // Fused pieces (or a delta merge's rebuilt cracker column) no longer
    // tile the registered nodes; apply the inverse operation to the
    // column's subtree (§3.2: "trimming the graph") and re-register the
    // surviving partitioning — the path's whole cut log — from a root
    // sized to the accelerator.
    (void)lineage_.Reroot(accel->root, n);
    accel->leaves.clear();
    accel->leaves.emplace(0, std::make_pair(n, accel->root));
    accel->cut_cursor = 0;
    accel->merges_seen = merges;
  }
  std::vector<size_t> cuts;
  accel->cut_cursor = accel->path->CutsSince(accel->cut_cursor, &cuts);
  std::sort(cuts.begin(), cuts.end());
  const std::string prefix = table + "." + column;
  // Every new cut lies inside exactly one leaf (cuts only ever subdivide).
  // Log one Ξ per split leaf: the leaf cut at every new position inside it.
  for (size_t i = 0; i < cuts.size();) {
    auto leaf = std::prev(accel->leaves.upper_bound(cuts[i]));
    const size_t end = leaf->second.first;
    const PieceId parent = leaf->second.second;
    std::vector<size_t> edges{leaf->first};
    for (; i < cuts.size() && cuts[i] < end; ++i) {
      if (cuts[i] > edges.back()) edges.push_back(cuts[i]);
    }
    if (edges.size() == 1) continue;  // already a leaf boundary
    edges.push_back(end);
    std::vector<std::pair<std::string, uint64_t>> outputs;
    outputs.reserve(edges.size() - 1);
    for (size_t k = 0; k + 1 < edges.size(); ++k) {
      outputs.emplace_back(StrFormat("%s[%zu,%zu)", prefix.c_str(), edges[k],
                                     edges[k + 1]),
                           edges[k + 1] - edges[k]);
    }
    auto ids = lineage_.AddCrack(CrackOp::kXi, {parent}, outputs);
    CRACK_DCHECK(ids.ok());
    for (size_t k = 0; k + 1 < edges.size(); ++k) {
      accel->leaves[edges[k]] = {edges[k + 1], (*ids)[k]};
    }
  }
}

}  // namespace crackstore
