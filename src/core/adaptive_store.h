// Copyright 2026 The CrackStore Authors
//
// AdaptiveStore: the public facade of CrackStore. It owns a set of column
// tables and, per the paper's architecture (§3), sits "between the semantic
// analyzer and the query optimizer": every incoming selection, join or
// group-by is interpreted both as a request for a subset and as advice to
// crack the store. Physical access per column is delegated to the
// type-erased ColumnAccessPath layer (core/access_path.h), so the facade is
// independent of both element widths and the strategy/policy axes: strategy
// knobs allow running the same query stream as plain scans (the paper's
// "nocrack" lines) or against an upfront sorted copy (the "sort" line of
// Fig. 11), and the crack strategy composes with any CrackPolicy
// (standard / stochastic / coarse, core/crack_policy.h).

#ifndef CRACKSTORE_CORE_ADAPTIVE_STORE_H_
#define CRACKSTORE_CORE_ADAPTIVE_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/access_path.h"
#include "core/crack_policy.h"
#include "core/group_cracker.h"
#include "core/join_cracker.h"
#include "core/lineage.h"
#include "core/merge_policy.h"
#include "core/projection_cracker.h"
#include "core/range_bounds.h"
#include "core/snapshot_column.h"
#include "core/txn_manager.h"
#include "durability/checkpoint.h"
#include "durability/manifest.h"
#include "durability/wal.h"
#include "obs/query_stats.h"
#include "storage/relation.h"
#include "util/result.h"

namespace crackstore {

/// Whether a database survives the process (DbOptions::durability).
enum class DurabilityMode : uint8_t {
  kNone = 0,  ///< in-memory only; nothing written to disk
  kWal = 1,   ///< commit log + checkpoints under DbOptions::path
};

/// The configuration of a database: the cracking axes, durability and
/// maintenance. Passed to AdaptiveStore::Open at startup and to
/// AdaptiveStore::Configure for runtime re-arms, so both share one
/// validation path.
struct DbOptions {
  // --- store behaviour -----------------------------------------------------
  AccessStrategy strategy = AccessStrategy::kCrack;
  CrackPolicyOptions policy;  ///< pivot discipline (crack strategy only)
  MergeBudget merge_budget;   ///< piece-fusion budget (crack strategy only)
  DeltaMergeOptions delta_merge;  ///< when DML deltas fold back per column
  bool track_lineage = true;  ///< record the Ξ/Ψ/^/Ω DAG (Figs. 5-6)

  /// Concurrent mode: every public operation may be called from any thread.
  /// Every store runs the same latched statement bodies (see README,
  /// "Concurrency model"); a serial store has one caller at a time, so its
  /// latches are never contended. The flag decides only what sharing the
  /// store with other threads requires: crack answers are detached (their
  /// rows resolved under the answer span's range lock) while sort and scan
  /// answers leave as spans; lineage is off (the store forces
  /// track_lineage off); snapshot views are always active, so rows appended
  /// mid-statement fall past the horizon; conjunction legs fan out over the
  /// task pool; and Configure refuses to change it. Delta folds do not
  /// depend on it: both modes fold in the store's maintenance step, at the
  /// same statements.
  bool concurrent = false;

  // --- durability --------------------------------------------------------
  /// Database directory. Required (and created if absent) when durability
  /// is kWal; ignored for kNone.
  std::string path;
  DurabilityMode durability = DurabilityMode::kNone;
  /// When the commit log reaches stable storage (kWal only).
  durability::FsyncPolicy fsync_policy = durability::FsyncPolicy::kCommit;
  /// Max staleness under FsyncPolicy::kInterval.
  double fsync_interval_seconds = 0.05;
  /// Auto-checkpoint when the WAL grows past this many bytes (0 = manual
  /// checkpoints only). Checked after commits; skipped while transactions
  /// are open.
  uint64_t checkpoint_interval_bytes = 64ull << 20;

  // --- maintenance -------------------------------------------------------
  /// Autovacuum when the total version-log footprint (row versions + chain
  /// entries + purged markers) exceeds this many entries (0 = never).
  uint64_t autovacuum_version_threshold = 65536;
};

/// Result of one query against the store.
struct QueryResult {
  uint64_t count = 0;  ///< qualifying tuples
  /// The qualifying rows of a selection (empty for kCount): spans over the
  /// access path's layout plus exception/extra overlays for snapshot-hidden
  /// and delta rows, or a detached sorted list for a crack answer of a
  /// concurrent store. A span answer must be consumed before the next crack
  /// of its column (core/oid_span_set.h).
  OidSpanSet span_set;
  /// The oid assigned to the row of an Insert (concurrent writers learn
  /// their row's identity from it); kInvalidOid for every other statement.
  Oid inserted_oid = kInvalidOid;
  /// The new table for Delivery::kMaterialize.
  std::shared_ptr<Relation> materialized;
  double seconds = 0.0;  ///< wall-clock of this query
  IoStats io;            ///< deterministic cost of this query

  /// The qualifying oids, sorted ascending (OidSpanSet::ToOids). The rvalue
  /// overload hands a detached list out without a copy.
  std::vector<Oid> CollectOids() const&;
  std::vector<Oid> CollectOids() &&;
};

/// See file comment.
class AdaptiveStore {
 public:
  /// Opens a database, the only way to get a store. Validates `options`,
  /// builds the store, and — when options.durability is kWal — recovers the
  /// on-disk state under options.path (checkpoint load + commit-log replay,
  /// truncating a torn tail) before arming the commit log for new writes.
  /// Accelerators are never recovered: they rebuild lazily from the first
  /// queries, which is the paper's disposability claim at work.
  static Result<std::unique_ptr<AdaptiveStore>> Open(const DbOptions& options);

  ~AdaptiveStore();
  CRACK_DISALLOW_COPY_AND_ASSIGN(AdaptiveStore);

  /// Validation shared by Open and Configure.
  static Status ValidateOptions(const DbOptions& options);

  /// Re-arms the runtime-adjustable configuration from `options`: crack
  /// policy (every materialized path restarts its policy engine in place),
  /// delta-merge defaults, checkpoint interval, autovacuum threshold.
  /// Construction-frozen axes — strategy, concurrent, track_lineage, path,
  /// durability, fsync policy — must match the open database or the call
  /// fails with InvalidArgument. This is the single code path behind the
  /// shell `policy` command and SQL SET POLICY.
  Status Configure(const DbOptions& options);

  /// Takes a checkpoint: snapshots every table's base state to a fresh
  /// generation, swaps in an empty commit log, and deletes the old
  /// generation. Requires no active transactions (Aborted otherwise) and a
  /// durable store (InvalidArgument otherwise).
  Status Checkpoint();

  /// Rolls back any transactions still open, takes a final checkpoint, and
  /// seals the commit log. Idempotent; a no-op for in-memory stores. The
  /// destructor calls it as a backstop, but calling it explicitly is the
  /// only way to observe a close-time error.
  Status Close();

  /// True when this store persists commits (opened with kWal).
  bool durable() const { return wal_ != nullptr; }

  /// A copy of the options the store runs: what Open was given (with
  /// track_lineage forced off on a concurrent store) as Configure last
  /// re-armed it.
  DbOptions options() const;

  /// What Open() found and replayed from disk.
  struct RecoveryInfo {
    bool recovered = false;  ///< an existing database was found under path
    uint64_t checkpoint_tables = 0;  ///< tables loaded from the checkpoint
    uint64_t replayed_commits = 0;   ///< commit records applied from the log
    uint64_t replayed_records = 0;   ///< all log records applied
    bool torn_tail = false;  ///< the log ended mid-record and was truncated
    double replay_seconds = 0.0;
  };
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// Maintenance counters (tests / shell introspection).
  uint64_t autovacuum_runs() const { return autovacuum_runs_.load(); }
  uint64_t checkpoints_taken() const { return checkpoints_.load(); }

  /// Registers a table; its columns become crackable.
  Status AddTable(std::shared_ptr<Relation> relation);

  Result<std::shared_ptr<Relation>> table(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // --- transactions ---------------------------------------------------------
  // Snapshot isolation over the versioned delta layer (core/txn_manager.h).
  // Every read and DML method takes an optional trailing TxnId; kNoTxn (the
  // default) preserves auto-commit semantics for existing callers — the
  // statement runs as its own transaction, committed on success, rolled
  // back on failure. Inside an explicit transaction, reads see the state as
  // of Begin() plus the transaction's own writes; writes take row-level
  // write locks and conflict first-committer-wins: a row committed by a
  // competitor after this transaction's snapshot aborts the statement with
  // Status::Aborted, after which only Rollback (or Commit, which then
  // performs the rollback and reports Aborted) is meaningful. A transaction
  // is single-threaded; different transactions may run on different
  // threads of a concurrent store.

  /// Opens a transaction pinned at the current committed snapshot.
  Result<TxnId> Begin();

  /// Publishes the transaction's writes at a fresh commit timestamp.
  /// Aborted statements force a rollback instead (returned as Aborted).
  Status Commit(TxnId txn);

  /// Undoes the transaction's writes (base values restored, version stamps
  /// reverted; aborted insert rows become vacuum garbage).
  Status Rollback(TxnId txn);

  bool TxnActive(TxnId txn) const;

  /// What a vacuum pass reclaimed.
  struct VacuumStats {
    uint64_t rows_purged = 0;        ///< dead versions physically purged
    uint64_t versions_dropped = 0;   ///< fully-visible stamps folded away
    uint64_t chain_entries_dropped = 0;  ///< superseded values reclaimed
    Ts low_water = 0;                ///< the snapshot floor vacuum honored
  };

  /// Folds every version below the low-water snapshot into the physical
  /// delta machinery: dead rows become access-path tombstones and the
  /// affected columns FlushDeltas (the existing Merge maintenance hook), so
  /// storage shrinks without disturbing any open snapshot. Quiesces the
  /// store for the pass.
  Result<VacuumStats> Vacuum();

  /// Version-log sizes of `table` (tests / shell introspection).
  Result<VersionedTable::Counts> VersionCountsFor(
      const std::string& table) const;

  const TxnManager& txn_manager() const { return txn_mgr_; }

  /// The version log of `table` — what every snapshot view filters by —
  /// or nullptr for an unknown table (test support).
  const VersionedTable* versions(const std::string& table) const {
    return VersionsIfAny(table);
  }

  /// Snapshot-visible base reads of one table: the single door through
  /// which the executor (projections, aggregate sinks), the conjunction
  /// probe and kMaterialize read base columns by oid. Each column's override
  /// lookup is built once, on first use. The scope holds the store latch and
  /// the table's base latch shared for its lifetime, so a concurrent append
  /// cannot reallocate a column mid-read; holders must not call back into
  /// the store.
  class BaseReadScope {
   public:
    /// The snapshot-visible values of `column`.
    Result<const SnapshotColumn*> Column(const std::string& column);

    /// Copies the rows named by `oids`, as the scope's snapshot reads them,
    /// into a fresh Relation called `name` that keeps `columns` (empty =
    /// every column, in schema order), one block of each column per step.
    /// An unknown column is NotFound. Both the copy's reads and its writes
    /// are charged to `io`.
    Result<std::shared_ptr<Relation>> Materialize(
        const std::string& name, const std::vector<Oid>& oids,
        const std::vector<std::string>& columns, IoStats* io);

   private:
    friend class AdaptiveStore;
    BaseReadScope() = default;

    const AdaptiveStore* store_ = nullptr;
    std::string table_;
    std::shared_ptr<Relation> rel_;
    Snapshot snap_;
    std::shared_lock<std::shared_mutex> global_;
    std::shared_lock<std::shared_mutex> base_;
    std::map<std::string, std::unique_ptr<SnapshotColumn>> columns_;
  };

  /// Opens a BaseReadScope over `table` at `txn`'s snapshot (latest
  /// committed when kNoTxn).
  Result<std::unique_ptr<BaseReadScope>> ReadBase(const std::string& table,
                                                  TxnId txn = kNoTxn) const;

  /// σ/Ξ: range selection over a column, cracking per the strategy. The
  /// predicate is typed: numeric RangeBounds convert implicitly, string
  /// endpoints (TypedRange over Value) reach dictionary-encoded string
  /// columns and crack their code domain exactly like integers.
  Result<QueryResult> SelectRange(const std::string& table,
                                  const std::string& column,
                                  const TypedRange& range,
                                  Delivery delivery = Delivery::kCount,
                                  TxnId txn = kNoTxn);

  /// Aggregate pushdown: SUM/MIN/MAX/COUNT of `column` over the rows
  /// matching `range`, reduced by horizontal SIMD kernels directly over the
  /// cracked pieces — no oid list, no value gather. Snapshot divergence is
  /// folded in as O(overrides + pending) corrections. Integer columns only;
  /// paths that cannot push down (progressive budgeted cracks, string
  /// columns) return Unimplemented and the caller falls back to
  /// materialize-then-loop.
  Result<ColumnAggregates> AggregateRange(const std::string& table,
                                          const std::string& column,
                                          const TypedRange& range,
                                          TxnId txn = kNoTxn);

  /// One conjunct of a multi-attribute selection (typed; numeric
  /// RangeBounds convert implicitly).
  struct ColumnRange {
    std::string column;
    TypedRange range;
  };

  /// σ over a conjunction of range predicates (WHERE a IN r1 AND b IN r2
  /// ...). Every referenced column is answered once by its own access path
  /// — under kCrack "each and every query initiates breaking the database
  /// further into pieces" (§2.2); further conjuncts on an answered column
  /// are tested per row, never cracked a second time. The answer with the
  /// smallest count is walked and every other conjunct is probed against
  /// each row's snapshot-visible value (clean scan legs first intersect as
  /// intervals). Returns the qualifying count, and for kView the walked
  /// answer narrowed to the survivors.
  Result<QueryResult> SelectConjunction(
      const std::string& table, const std::vector<ColumnRange>& conjuncts,
      Delivery delivery = Delivery::kCount, TxnId txn = kNoTxn);

  // --- DML ------------------------------------------------------------------
  // Writes route through the same type-erased access paths as reads: the
  // base column is mutated first (append / in-place overwrite), then every
  // materialized accelerator absorbs the change into its delta structures,
  // which the store folds back per options().delta_merge (MaintainColumn,
  // after the statement and before the column's next read). WHERE
  // predicates of Delete/Update are themselves advice to crack — a mixed
  // workload keeps teaching the store.

  /// Appends one row. Numeric values are coerced to the column types
  /// (range-checked). `count` of the result is 1 and `inserted_oid` carries
  /// the oid assigned to the new row (concurrent writers learn their row's
  /// identity from it).
  Result<QueryResult> Insert(const std::string& table,
                             std::vector<Value> values, TxnId txn = kNoTxn);

  /// Deletes the rows matching the conjunction (all live rows when
  /// `conjuncts` is empty). `count` reports the rows removed. Deletes are
  /// version stamps: the rows stay physically present (and visible to
  /// older snapshots) until Vacuum folds them out.
  Result<QueryResult> Delete(const std::string& table,
                             const std::vector<ColumnRange>& conjuncts,
                             TxnId txn = kNoTxn);

  /// One SET clause of an UPDATE. The value is typed: int64 literals for
  /// integer columns, doubles for float columns (fraction preserved),
  /// strings for dictionary-encoded string columns.
  struct Assignment {
    std::string column;
    Value value;
  };

  /// Sets `sets` on the rows matching the conjunction (all live rows when
  /// `conjuncts` is empty). Row oids survive updates; only the written
  /// columns' accelerators are touched. `count` reports the rows changed.
  Result<QueryResult> Update(const std::string& table,
                             const std::vector<Assignment>& sets,
                             const std::vector<ColumnRange>& conjuncts,
                             TxnId txn = kNoTxn);

  /// Deletes specific rows by oid (streaming-expiry support; the WHERE-less
  /// primitive underneath Delete).
  Result<QueryResult> DeleteOids(const std::string& table,
                                 const std::vector<Oid>& oids,
                                 TxnId txn = kNoTxn);

  /// The oids of the rows live at `txn`'s snapshot (latest committed when
  /// kNoTxn), ascending.
  Result<std::vector<Oid>> LiveOids(const std::string& table,
                                    TxnId txn = kNoTxn) const;

  /// Rows visible at the snapshot — what COUNT(*) without a WHERE reports.
  Result<uint64_t> LiveRowCount(const std::string& table,
                                TxnId txn = kNoTxn) const;

  /// Re-registers deletions on a fresh store (session hand-over support:
  /// the base relations are append-only, so dead rows must be re-marked
  /// when tables move to a new store). Stamped as committed deletes at a
  /// fresh timestamp.
  Status MarkDeleted(const std::string& table, const std::vector<Oid>& oids);

  /// The oids invisible at the latest committed snapshot (committed
  /// deletes, aborted inserts, vacuum-purged rows), ascending — the
  /// hand-over counterpart of MarkDeleted.
  Result<std::vector<Oid>> DeletedOids(const std::string& table) const;

  /// ⋈/^: equi-join of two integer columns. The first call ^-cracks both
  /// operands (cached); subsequent calls join only the matching areas.
  /// `txn` pins the snapshot the join evaluates against (latest committed
  /// when kNoTxn): hidden rows drop out and overridden keys re-join with
  /// their snapshot values. The ^ cache is stamped with the operands' base
  /// sizes and version counts and is rebuilt when either churns (appends,
  /// in-place updates, vacuum all change what a fresh crack would see).
  Result<QueryResult> JoinEquals(const std::string& left_table,
                                 const std::string& left_column,
                                 const std::string& right_table,
                                 const std::string& right_column,
                                 TxnId txn = kNoTxn);

  /// The oid pairs of the most natural join evaluation (cached ^ areas under
  /// kCrack, full hash join otherwise), at `txn`'s snapshot.
  Result<std::vector<OidPair>> JoinOids(const std::string& left_table,
                                        const std::string& left_column,
                                        const std::string& right_table,
                                        const std::string& right_column,
                                        TxnId txn = kNoTxn);

  /// γ/Ω: grouped aggregate over integer columns. The first call Ω-cracks
  /// the grouping column (cached); later aggregates reuse the clustering.
  /// `txn` pins the snapshot (see JoinEquals); the Ω cache carries the same
  /// churn stamp as the ^ cache.
  Result<std::vector<GroupAggregate>> GroupBy(const std::string& table,
                                              const std::string& group_column,
                                              const std::string& agg_column,
                                              AggKind kind, TxnId txn = kNoTxn);

  /// π/Ψ: vertical crack of `table` on `attrs` (fragments share physical
  /// columns; both registered in the lineage).
  Result<ProjectionCrackResult> Project(const std::string& table,
                                        const std::vector<std::string>& attrs);

  /// The access path currently accelerating (table, column), or NotFound
  /// when the column was never queried. Borrowed pointer, owned by the
  /// store.
  Result<ColumnAccessPath*> AccessPathFor(const std::string& table,
                                          const std::string& column) const;

  /// Pieces currently delimiting (table, column); 1 when never cracked.
  Result<size_t> NumPieces(const std::string& table,
                           const std::string& column) const;

  /// Human-readable report of a column's physical state: access-path kind,
  /// active crack policy, piece table with value bounds and sizes. The
  /// EXPLAIN of an adaptive store — what a DBA would ask "what did the
  /// workload teach you about this column?".
  Result<std::string> ExplainColumn(const std::string& table,
                                    const std::string& column) const;

  /// One row of PolicyReport(): the live policy state of a materialized
  /// column accelerator.
  struct ColumnPolicy {
    std::string table;
    std::string column;
    PathPolicyStatus status;
  };

  /// Re-arms every materialized access path (and the default for paths yet
  /// to be built) with `options` at runtime — SET POLICY. Cracker state is
  /// kept; only the policy engine restarts, so no stop-the-world rebuild.
  Status SetPolicy(const CrackPolicyOptions& options);

  /// Live policy state of every materialized column accelerator, sorted by
  /// "table.column" key (SHOW POLICY / shell `policy` support).
  std::vector<ColumnPolicy> PolicyReport() const;

  const LineageGraph& lineage() const { return lineage_; }

  /// Cumulative cost of every query answered so far.
  const IoStats& total_io() const { return total_io_; }
  void ResetTotalIo() { total_io_.Reset(); }

 private:
  /// Open's constructor. A concurrent store forces track_lineage off here.
  explicit AdaptiveStore(const DbOptions& options);

  struct ColumnAccel {
    std::unique_ptr<ColumnAccessPath> path;
    /// `path` is written once, under `latch` held exclusively; has_path
    /// (release-stored after the write) is the latch-free existence hint.
    /// The flag is monotonic — paths are never destroyed while the store
    /// lives.
    std::atomic<bool> has_path{false};
    /// The path, or nullptr while the column was never queried.
    ColumnAccessPath* PathIfAny() const {
      return has_path.load(std::memory_order_acquire) ? path.get() : nullptr;
    }
    /// The per-column reader/writer latch.
    mutable std::shared_mutex latch;
    PieceId root = kInvalidPieceId;
    /// The root's current leaves, keyed by begin slot: {end slot, node}.
    /// They tile the accelerator exactly like its piece table does.
    std::map<size_t, std::pair<size_t, PieceId>> leaves;
    /// How far into the path's cut log (ColumnAccessPath::CutsSince) the
    /// leaves have been split.
    size_t cut_cursor = 0;
    /// Delta merges folded when the lineage was last synced; a change means
    /// the accelerator was rebuilt and the piece subtree must re-root.
    size_t merges_seen = 0;
  };

  /// Per-table latch state.
  struct TableState {
    /// Base-storage latch: row appends and in-place slot overwrites take it
    /// exclusive; anything reading base columns (scans, lazy accelerator
    /// builds, oid validation) takes it shared. Ordered after the column
    /// latches, before the leaf mutexes.
    mutable std::shared_mutex base_latch;
  };

  /// One in-flight transaction: its snapshot, the rows it stamped (per
  /// table), and the undo log for rolling physical update writes back.
  struct UndoRecord {
    std::string table;
    std::string column;
    Oid oid = 0;
    Value old_value;
  };
  struct TxnState {
    Snapshot snap;
    bool implicit = false;    ///< an auto-commit statement's mini-txn
    bool abort_only = false;  ///< a statement hit a write-write conflict
    std::map<std::string, std::vector<Oid>> touched;  ///< stamped rows
    std::vector<UndoRecord> undo;  ///< update undo, in write order
    /// Redo log for the WAL (durable stores only), in statement order;
    /// serialized as one commit record at Commit.
    std::vector<durability::WalOp> redo;
  };

  /// The per-statement transactional context: an explicit transaction's
  /// state, or a fresh implicit mini-transaction that FinishWrite commits
  /// (visibility flips atomically at the end of the statement) or rolls
  /// back on failure.
  struct WriteScope {
    TxnId txn = kNoTxn;
    Snapshot snap;
    bool implicit = false;
  };

  Result<std::shared_ptr<Bat>> ResolveColumn(const std::string& table,
                                             const std::string& column) const;

  Result<std::vector<OidPair>> JoinOidsInternal(const std::string& left_table,
                                                const std::string& left_column,
                                                const std::string& right_table,
                                                const std::string& right_column,
                                                IoStats* stats, TxnId txn);

  /// Records the Ξ piece splits of a crack statement into the lineage: the
  /// cuts the path logged since the last sync split the leaves containing
  /// them. `fused`: the statement dropped boundaries (merge budget), so the
  /// subtree re-roots, as it does after a delta merge.
  void UpdateLineage(const std::string& table, const std::string& column,
                     ColumnAccel* accel, bool fused);

  // --- MVCC machinery -------------------------------------------------------

  /// The version log of `table`, created on demand. Stable pointer.
  VersionedTable* VersionsFor(const std::string& table) const;
  /// ... or nullptr when the table has no version state yet (const probe).
  VersionedTable* VersionsIfAny(const std::string& table) const;

  /// The snapshot a read at `txn` evaluates against (latest committed for
  /// kNoTxn). Errors on an unknown transaction.
  Result<Snapshot> ReadSnapshot(TxnId txn) const;

  /// The read filter of (table, column) at `snap`; inactive when the table
  /// has no version state (serial fast path — concurrent stores always get
  /// an active view, the horizon must hide mid-statement appends).
  SnapshotView ViewForColumn(const std::string& table,
                             const std::string& column,
                             const Snapshot& snap) const;

  /// Opens the transactional context of a statement (see WriteScope).
  Result<WriteScope> BeginWriteScope(TxnId txn);
  /// Commits an implicit mini-transaction on OK / rolls it back on error;
  /// marks an explicit transaction abort-only on Aborted. Returns the
  /// statement's status (op_status, unless finishing itself fails).
  Status FinishWriteScope(const WriteScope& scope, Status op_status);

  /// The write-statement frame every DML entry point shares: open the
  /// scope, run `body(scope)` (which must release any store latches before
  /// returning — FinishWriteScope may take the store exclusively to roll
  /// back), finish the scope per the body's status.
  template <typename Fn>
  Result<QueryResult> RunInWriteScope(TxnId txn, Fn&& body) {
    CRACK_ASSIGN_OR_RETURN(WriteScope scope, BeginWriteScope(txn));
    Result<QueryResult> out = body(scope);
    Status fin =
        FinishWriteScope(scope, out.ok() ? Status::OK() : out.status());
    if (!fin.ok()) return fin;
    return out;
  }

  /// Row-level write admission + version stamping shared by every delete
  /// flow. Appends stamped rows to the scope's touched set; returns the
  /// rows newly deleted. Conflicts abort explicit transactions and are
  /// skipped by implicit ones (the pre-MVCC race semantics).
  Result<uint64_t> StampDeletes(const std::string& table,
                                const WriteScope& scope,
                                const std::vector<Oid>& oids, IoStats* stats);

  /// Rollback body shared by Rollback() and failed implicit statements.
  /// Caller holds global_mu_ exclusively.
  Status RollbackLocked(TxnId txn, TxnState* state);

  /// Records `oid` as touched by `scope`'s transaction.
  void Touch(const WriteScope& scope, const std::string& table, Oid oid);
  /// Records an update's undo information.
  void PushUndo(const WriteScope& scope, UndoRecord record);
  /// Records a redo operation for the WAL (no-op on in-memory stores).
  void PushRedo(const WriteScope& scope, durability::WalOp op);

  // --- durability machinery (core/store_durability.cc) ----------------------

  /// Recovers / creates the on-disk state under options_.path and arms
  /// the commit log. Called once by Open, before the store is shared.
  Status OpenDurable();
  /// Registers one recovered table (checkpoint or WAL table image) and
  /// re-marks its dead rows.
  Status InstallRecoveredTable(durability::LoadedTable table);
  /// Applies one committed transaction's redo ops during replay.
  Status ApplyWalCommit(const durability::WalCommit& commit);
  /// Checkpoint body; caller has quiesced the store (no active txns, and
  /// the global lock held exclusively).
  Status CheckpointLocked();
  /// Post-commit maintenance: autovacuum on version-log growth and
  /// auto-checkpoint on WAL growth. Cheap when neither trigger is armed.
  void MaybeRunMaintenance();
  /// Re-arms every materialized access path with `options` (the policy
  /// engine restarts in place; cracker state is kept). Configure's policy
  /// leg; the caller holds global_mu_ exclusively.
  Status ApplyPolicy(const CrackPolicyOptions& options);

  // --- statement machinery ------------------------------------------------
  // Every store runs the same bodies under the same latches. Lock order,
  // outer to inner: global_mu_ -> column latches (a write takes several in
  // ascending slot address) -> table base latch -> {range locks | path delta latches | tombstone latches |
  // registry_mu_ | io_mu_}. Public entry points take global_mu_ shared and
  // call a body (the *At functions below, which read at a fixed snapshot);
  // internal calls — a DML statement's WHERE, conjunction legs — call the
  // body directly, so no thread ever locks one shared_mutex twice.

  /// The accel slot of (table, column) and the latch state of `table`,
  /// created (empty) on demand. Pointers are stable: the maps only grow.
  ColumnAccel* AccelFor(const std::string& table, const std::string& column);
  TableState* TableStateFor(const std::string& table) const;
  /// The accel slot of (table, column) once it has a path, else nullptr.
  const ColumnAccel* AccelIfAny(const std::string& table,
                                const std::string& column) const;

  /// Creates accel->path if the column has none (caller holds accel->latch
  /// exclusive + the base latch shared) and replays the table's
  /// vacuum-purged rows into it.
  Status CreatePath(const std::string& table, const std::string& column,
                    ColumnAccel* accel, const std::shared_ptr<Bat>& bat);

  /// The latches one column's read holds (see LatchColumn).
  struct ColumnLatch {
    ColumnAccel* accel = nullptr;
    std::shared_lock<std::shared_mutex> shared;
    std::unique_lock<std::shared_mutex> exclusive;
    std::shared_lock<std::shared_mutex> base;
  };

  /// The column latches of a write (see LatchForWrite).
  struct WriteLatches {
    std::vector<std::shared_lock<std::shared_mutex>> shared;
    std::vector<std::unique_lock<std::shared_mutex>> exclusive;
  };

  /// Latches the columns a write touches, each once, in the writers' lock
  /// order. A latch is shared where the path serves shared DML and
  /// exclusive otherwise — a pathless column's exclusive latch keeps a path
  /// from being created (and built from a half-written base) while the
  /// write lands.
  static void LatchForWrite(std::vector<ColumnAccel*> columns,
                            WriteLatches* latches);

  /// Latches (table, column) for a read: first folds deltas the path's
  /// policy says are due, then takes the column latch shared when the path
  /// serves shared reads and is ready, exclusive otherwise (creating the
  /// path when absent), then the table's base latch shared.
  Status LatchColumn(const std::string& table, const std::string& column,
                     const std::shared_ptr<Bat>& bat, IoStats* stats,
                     ColumnLatch* latch);

  /// The per-column AccessPathConfig: the store-wide options, overlaid
  /// with the column's checkpoint-recovered (policy, progressive budget)
  /// when the database was reopened from a v2 checkpoint.
  AccessPathConfig PathConfigFor(const std::string& key) const;

  /// The store's one delta-fold trigger, for serial and concurrent stores
  /// alike: if the path's delta-merge policy says a fold is due
  /// (ColumnAccessPath::WantsMaintenance), takes the exclusive column latch
  /// and flushes. Runs before each read of the column (`before_read`) and
  /// after each statement that wrote to it. Safe to call with no latches
  /// held.
  Status MaintainColumn(ColumnAccel* accel, TableState* ts, bool before_read,
                        IoStats* stats);

  /// Statement bodies: callers hold global_mu_ shared.
  Result<QueryResult> SelectRangeAt(const std::string& table,
                                    const std::string& column,
                                    const TypedRange& range,
                                    Delivery delivery, const Snapshot& snap);
  Result<ColumnAggregates> AggregateRangeAt(const std::string& table,
                                            const std::string& column,
                                            const RangeBounds& bounds,
                                            const Snapshot& snap);
  Result<QueryResult> SelectConjunctionAt(
      const std::string& table, const std::vector<ColumnRange>& conjuncts,
      Delivery delivery, const Snapshot& snap);
  Result<std::vector<Oid>> LiveOidsAt(const std::string& table,
                                      const Snapshot& snap) const;
  /// Bit i set iff base row i of `rel` (table `table`) is visible at `snap`,
  /// decided under one version-log latch acquisition. Caller holds the
  /// table's base latch.
  std::vector<uint64_t> VisibleRows(const std::string& table,
                                    const Relation& rel,
                                    const Snapshot& snap) const;

  /// Turns a path's answer into the statement's result shape. Caller holds
  /// the column latch.
  void FinishSelect(AccessSelection sel, Delivery delivery,
                    QueryResult* result) const;
  /// The conjunction filter every conjunction ends in: walks `walk` (the
  /// smallest leg's answer) once, a block at a time, and keeps the rows
  /// whose snapshot-visible values satisfy every range in `probes`. kCount
  /// builds no list; kView narrows the walked span set in place
  /// (OidSpanSet::Narrow).
  Status ProbeConjunction(const std::string& table, const Snapshot& snap,
                          const std::vector<const ColumnRange*>& probes,
                          Delivery delivery, QueryResult walk,
                          QueryResult* result);
  /// ReadBase at a fixed snapshot. `lock_global` = false when the caller
  /// already holds global_mu_ shared.
  Result<std::unique_ptr<BaseReadScope>> OpenBaseScope(
      const std::string& table, const Snapshot& snap, bool lock_global) const;

  void AddIo(const IoStats& io);

  /// Guarded by global_mu_ (see there).
  DbOptions options_;
  std::map<std::string, std::shared_ptr<Relation>> tables_;
  std::map<std::string, ColumnAccel> accels_;  // key: table + "." + column
  /// Checkpoint-recovered per-column (policy, progressive budget), keyed by
  /// "table.column". Filled once by OpenDurable before the store is shared;
  /// read-only afterwards (consulted when a column's path is first built).
  std::map<std::string, std::pair<CrackPolicy, double>> recovered_policies_;
  mutable std::map<std::string, TableState> table_states_;
  /// Per-table version logs (MVCC). unique_ptr: pointers stay stable while
  /// the registry map grows. Guarded by registry_mu_; the VersionedTable
  /// itself is internally latched.
  mutable std::map<std::string, std::unique_ptr<VersionedTable>> versions_;
  TxnManager txn_mgr_;
  /// In-flight transaction state; txn_states_mu_ guards the map structure
  /// (each transaction is single-threaded by contract).
  mutable std::mutex txn_states_mu_;
  std::map<TxnId, TxnState> txn_states_;
  /// Makes (allocate commit ts, stamp markers) atomic with respect to
  /// snapshot acquisition: without it a reader could pin read_ts >= cts
  /// while the markers are still unstamped, and watch visibility at its
  /// fixed snapshot flip when they land. Ordered before every other lock
  /// it meets (txn-manager mutex, version latches); never held across
  /// physical work.
  mutable std::mutex commit_mu_;
  /// Version-churn stamp of a ^/Ω cache entry: what the operand columns
  /// looked like when the crack was built. Any mismatch (append, in-place
  /// update adding a chain entry, vacuum purging rows) invalidates the
  /// entry — the cached clone snapshots base data that has since changed.
  struct CrackCacheStamp {
    size_t rows = 0;
    VersionedTable::Counts counts;
    bool operator==(const CrackCacheStamp& o) const {
      return rows == o.rows && counts.row_versions == o.counts.row_versions &&
             counts.chain_entries == o.counts.chain_entries &&
             counts.purged == o.counts.purged;
    }
    bool operator!=(const CrackCacheStamp& o) const { return !(*this == o); }
  };
  CrackCacheStamp StampFor(const std::string& table) const;

  struct JoinCrackEntry {
    JoinCrackResult cracked;
    CrackCacheStamp left_stamp;
    CrackCacheStamp right_stamp;
  };
  struct GroupCrackEntry {
    GroupCrackResult cracked;
    CrackCacheStamp stamp;
  };
  std::map<std::string, JoinCrackEntry> join_cracks_;
  std::map<std::string, GroupCrackEntry> group_cracks_;
  LineageGraph lineage_;
  IoStats total_io_;
  /// global_mu_: selections and DML run shared; joins, group-bys,
  /// projections, AddTable, rollback, vacuum and checkpoints run exclusive
  /// (they touch base columns and caches without per-column latches), and
  /// so does Configure, the one writer of options_.
  /// registry_mu_: guards the map *structure* of tables_/accels_/
  /// table_states_/versions_ (leaf). io_mu_: guards total_io_ (leaf).
  mutable std::shared_mutex global_mu_;
  mutable std::mutex registry_mu_;
  mutable std::mutex io_mu_;

  // --- durability state (core/store_durability.cc) --------------------------
  durability::Manifest manifest_;
  /// The log writer; null on in-memory stores. Only a checkpoint replaces
  /// it, under commit_mu_, and a commit holds a reference to the writer it
  /// appended to until its record is durable, so a swap never frees a
  /// writer in use.
  std::shared_ptr<durability::WalWriter> wal_;
  bool replaying_ = false;  ///< recovery replay in flight: don't re-log
  bool closed_ = false;
  RecoveryInfo recovery_info_;
  std::atomic<uint64_t> commits_since_maintenance_{0};
  std::atomic<bool> maintenance_running_{false};
  std::atomic<uint64_t> autovacuum_runs_{0};
  std::atomic<uint64_t> checkpoints_{0};
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_ADAPTIVE_STORE_H_
