// Copyright 2026 The CrackStore Authors
//
// The MVCC core of CrackStore: versioned delta visibility for a store whose
// physical layout keeps reorganizing underneath the readers.
//
// PR 2 gave the store tombstone visibility ("a deleted row disappears the
// instant the tombstone lands") and PR 4 made the physical delta structures
// concurrent; this module replaces the boolean liveness model with snapshot
// semantics. Every row-level event — insert, delete, value overwrite — is a
// *version stamp*: an oid carries a [begin, end) interval of commit
// timestamps, and superseded values hang off an append-only per-column
// version log (BigFoot's WAL-pipeline observation: keep the version history
// append-only and separate from the cracked base, exactly the shape the
// delta layer already has). A reader never consults raw tombstone bits;
// it evaluates stamps against its Snapshot:
//
//   visible(row, S)  :=  committed_before(begin, S) && !committed_before(end, S)
//
// where an uncommitted stamp (a transaction marker) is "committed" only for
// the transaction that wrote it. The physical accelerators (cracker
// indexes, sorted copies, dictionary code columns) keep every version's
// rows until a *vacuum* pass folds versions below the low-water snapshot
// into the existing FlushDeltas/Merge maintenance machinery.
//
// Three collaborating pieces:
//   * TxnManager      — monotone commit timestamps, transaction registry,
//                       low-water mark over the open snapshots;
//   * VersionedTable  — one table's version stamps + per-column value logs,
//                       guarded by an internal latch (the version-side
//                       sibling of the per-column delta latch);
//   * SnapshotView    — the per-(statement, column) read filter handed down
//                       to ColumnAccessPath::Select*, answering "is this
//                       oid visible?" and "which rows carry a different
//                       value at my snapshot?".
//
// Concurrency contract: VersionedTable methods are individually
// thread-safe (internal shared_mutex, a leaf lock — never call out while
// holding it). SnapshotView reads row stamps through the VersionedTable's
// latch per probe, and carries its value overrides by copy, so paths can
// evaluate it under any (or no) column latch.

#ifndef CRACKSTORE_CORE_TXN_MANAGER_H_
#define CRACKSTORE_CORE_TXN_MANAGER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/oid_bit_table.h"
#include "storage/types.h"
#include "util/result.h"

namespace crackstore {

/// Commit timestamp. The value space is split: plain values are committed
/// timestamps (monotone, allocated by TxnManager); values with the high bit
/// set are *transaction markers* — stamps written by a still-running
/// transaction, rewritten to its commit timestamp at commit.
using Ts = uint64_t;

/// Transaction identity. 0 is reserved (kNoTxn = "auto-commit caller").
using TxnId = uint64_t;

inline constexpr TxnId kNoTxn = 0;

/// The "never ends" sentinel of a row version's [begin, end) interval.
inline constexpr Ts kTsInfinity = std::numeric_limits<uint64_t>::max();

/// High bit: the stamp is a transaction marker, not a commit timestamp.
inline constexpr Ts kTxnStampFlag = uint64_t{1} << 63;

/// The begin stamp of a rolled-back insert: a marker owned by txn 0, which
/// matches no live transaction — the row is visible to nobody, ever.
inline constexpr Ts kTsAborted = kTxnStampFlag;

inline Ts TxnStamp(TxnId txn) { return kTxnStampFlag | txn; }
inline bool IsTxnStamp(Ts stamp) {
  return stamp != kTsInfinity && (stamp & kTxnStampFlag) != 0;
}
inline TxnId TxnOfStamp(Ts stamp) { return stamp & ~kTxnStampFlag; }

/// A point-in-time read position: every version committed at or before
/// `read_ts` is visible, plus the uncommitted writes of `txn` (its own
/// statements must see their own effects).
struct Snapshot {
  Ts read_ts = 0;
  TxnId txn = kNoTxn;
};

/// True when `stamp` denotes an event this snapshot observes as committed.
inline bool StampVisible(Ts stamp, const Snapshot& snap) {
  if (stamp == kTsInfinity) return false;
  if (stamp & kTxnStampFlag) {
    TxnId owner = TxnOfStamp(stamp);
    return owner != kNoTxn && owner == snap.txn;
  }
  return stamp <= snap.read_ts;
}

/// One row's version interval plus the write-conflict bookkeeping.
/// Rows without an entry are implicit {begin: 0, end: inf}: present since
/// table registration, visible to every snapshot.
struct RowVersion {
  Ts begin = 0;            ///< insert stamp (0 = since load)
  Ts end = kTsInfinity;    ///< delete stamp
  Ts write_ts = 0;         ///< last committed writer (first-committer-wins)
  TxnId writer = kNoTxn;   ///< in-flight writer holding the row

  bool VisibleTo(const Snapshot& snap) const {
    return StampVisible(begin, snap) && !StampVisible(end, snap);
  }
};

/// One superseded value of (column, oid): `value` was current until the
/// write stamped `end` replaced it. A snapshot that does not observe `end`
/// still reads `value`.
struct ValueVersion {
  Value value;
  Ts end = kTsInfinity;
};

class VersionedTable;

/// See file comment. Default-constructed views are *inactive*: they hide
/// nothing and carry no overrides (the pre-MVCC fast path).
class SnapshotView {
 public:
  SnapshotView() = default;

  bool active() const { return table_ != nullptr; }

  /// Row-level visibility at this view's snapshot (vacuum-purged rows are
  /// invisible to everyone).
  bool RowVisible(Oid oid) const;

  /// True when `oid` must be dropped from a path's physical answer: either
  /// the row is invisible, or its value at this snapshot differs from the
  /// physical one (the caller re-admits it through overrides()).
  bool Hides(Oid oid) const;

  /// Batch visibility: sets bit i of `bm` iff !Hides(oids[i]). Takes the
  /// version-log latch once for the whole batch instead of once per row —
  /// the branchless sibling of the per-row Hides() probe — and sends only
  /// the rows the table has marked (see VersionedTable) on to the version
  /// maps. `bm` must hold BitmapWords(n) words; tail bits of the last word
  /// are zeroed.
  void VisibleMask(const Oid* oids, size_t n, uint64_t* bm) const;

  /// VisibleMask for the contiguous oid run [first, first + n) — the shape
  /// every base-column scan has (oid = base + slot): a horizon clip, then
  /// one probe per marked oid of the run, found 64 oids at a time.
  void VisibleRangeMask(Oid first, size_t n, uint64_t* bm) const;

  /// The value this snapshot reads for `oid`, when it differs from the
  /// physical one; nullptr otherwise. Linear over overrides() — they are
  /// few (only rows updated since the snapshot).
  const Value* OverrideFor(Oid oid) const;

  /// (oid, value-at-snapshot) for every row of this view's column whose
  /// current physical value postdates the snapshot. Paths re-admit these
  /// against the predicate after filtering their physical answer.
  const std::vector<std::pair<Oid, Value>>& overrides() const {
    return overrides_;
  }

  const Snapshot& snapshot() const { return snap_; }

  /// A copy of this view with its value overrides replaced — encoding
  /// decorators use it to translate overrides into the inner path's domain
  /// (e.g. strings to dictionary codes). Row visibility is unchanged.
  SnapshotView WithOverrides(
      std::vector<std::pair<Oid, Value>> overrides) const;

 private:
  friend class VersionedTable;
  Snapshot snap_;
  const VersionedTable* table_ = nullptr;
  /// Rows at or beyond this oid postdate the snapshot (appended after the
  /// view was opened) and are invisible even without a version entry.
  Oid horizon_ = kInvalidOid;
  /// True when the table held no version state at view build: every row
  /// below the horizon is visible and stays visible at this snapshot
  /// (later commits carry timestamps beyond it), so probes skip the
  /// version-log latch entirely — the hot-loop fast path of force-active
  /// views in concurrent stores.
  bool all_below_horizon_visible_ = false;
  std::vector<std::pair<Oid, Value>> overrides_;
  std::unordered_set<Oid> overridden_;
};

/// Per-table MVCC state: row version stamps, per-column superseded-value
/// logs, and the vacuum-purged set. All methods thread-safe; the internal
/// latch is a leaf lock.
///
/// A bit table marks every oid that has a row stamp, a purged entry or a
/// superseded value in any column: the marks are a superset of the oids the
/// version maps know, so a reader that finds an oid unmarked answers from
/// the horizon alone and never probes a map. Writers set the bit under the
/// unique latch as the oid gains its first entry; nothing clears it until
/// Vacuum rebuilds the table from the entries that survive (vacuum runs
/// quiesced, so no open view can miss an override it still holds).
class VersionedTable {
 public:
  /// `initial_rows` / `base_oid` describe the rows present at registration
  /// (they stay implicitly visible-to-all until a write stamps them).
  VersionedTable(Oid base_oid, size_t initial_rows)
      : marks_(base_oid), horizon_(base_oid + initial_rows) {}
  CRACK_DISALLOW_COPY_AND_ASSIGN(VersionedTable);

  /// Registers a freshly allocated row. Call *before* the physical base
  /// append so no reader can observe the row without its stamp. `stamp` is
  /// a txn marker (or a commit ts for replay paths like MarkDeleted).
  void NoteInsert(Oid oid, Ts stamp);

  /// Row-level write admission for DELETE/UPDATE under snapshot `snap`.
  enum class Admission : uint8_t {
    kOk = 0,       ///< row locked for `writer`; stamp away
    kSkip = 1,     ///< row invisible at `snap` (already deleted) — skip it
    kConflict = 2  ///< write-write conflict (first-committer-wins)
  };
  /// On kOk the row is write-locked by `writer` until CommitTxn/RollbackTxn
  /// releases it — record the oid in the transaction's touched set even if
  /// the statement later skips the row.
  Admission AdmitWrite(Oid oid, const Snapshot& snap, TxnId writer,
                       std::string* conflict_detail);

  /// Stamps the end of `oid`'s current version (delete).
  void StampDelete(Oid oid, Ts stamp);

  /// Logs that `column`'s value of `oid` — previously `old_value` — was
  /// superseded at `stamp`.
  void StampUpdate(Oid oid, const std::string& column, Value old_value,
                   Ts stamp);

  /// Rewrites every marker of `txn` on `touched` rows (and their value-log
  /// entries) to the commit timestamp `cts`, and releases the row locks.
  void CommitTxn(TxnId txn, Ts cts, const std::vector<Oid>& touched);

  /// Undoes `txn`'s stamps on `touched` rows: inserts become aborted
  /// (invisible to all, reclaimed by vacuum), delete stamps revert to
  /// infinity, value-log entries drop (the caller restored the physical
  /// values first), and the row locks release.
  void RollbackTxn(TxnId txn, const std::vector<Oid>& touched);

  /// Commit-time validation of first-committer-wins: returns Aborted if any
  /// touched row was committed-written after `snap` by someone else. With
  /// eager AdmitWrite locking this cannot fire; it is the formal guard.
  Status ValidateWriteSet(const Snapshot& snap, TxnId txn,
                          const std::vector<Oid>& touched) const;

  /// The read filter for (snapshot, column). `force_active` produces an
  /// active view even over empty state — required in concurrent stores,
  /// where rows may be appended while the statement runs (the horizon
  /// hides them).
  SnapshotView ViewFor(const Snapshot& snap, const std::string& column,
                       bool force_active = false) const;

  /// Row-level visibility without a view (LiveOids / COUNT(*) loops).
  bool RowVisibleAt(Oid oid, const Snapshot& snap) const;

  /// Oids invisible at `snap` among [base, base + rows): committed deletes,
  /// uncommitted/aborted inserts and vacuum-purged rows — the hand-over set
  /// MarkDeleted replays onto a fresh store. Ascending.
  std::vector<Oid> InvisibleOids(const Snapshot& snap, Oid base,
                                 size_t rows) const;

  /// The vacuum-purged rows (physically dead to everyone), ascending —
  /// replayed into freshly created access paths, which rebuild from the
  /// append-only base.
  std::vector<Oid> PurgedOids() const;

  struct VacuumResult {
    std::vector<Oid> purged;            ///< rows to physically purge now
    uint64_t versions_dropped = 0;      ///< fully-visible stamps folded away
    uint64_t chain_entries_dropped = 0; ///< superseded values reclaimed
  };
  /// Reclaims everything no snapshot at or above `low_water` can ever read:
  /// rows whose end stamp is committed at or below it (and aborted inserts)
  /// move to the purged set; value-log entries superseded at or below it
  /// drop; fully-visible begin-only stamps fold away entirely.
  VacuumResult Vacuum(Ts low_water);

  struct Counts {
    size_t row_versions = 0;
    size_t chain_entries = 0;
    size_t purged = 0;
  };
  Counts counts() const;

  /// True when no version state exists at all (fast-path probe).
  bool empty() const;

  /// One past the highest oid ever registered (initial rows + inserts) —
  /// the oid-range bound DML validation checks against without touching
  /// the base latch.
  Oid horizon() const;

 private:
  friend class SnapshotView;

  bool RowVisibleLocked(Oid oid, const Snapshot& snap) const {
    return marks_.Test(oid) ? MarkedRowVisibleLocked(oid, snap)
                            : oid < horizon_;
  }

  /// RowVisibleLocked for an oid known to be marked: probes the maps.
  bool MarkedRowVisibleLocked(Oid oid, const Snapshot& snap) const;

  mutable std::shared_mutex mu_;
  std::unordered_map<Oid, RowVersion> rows_;
  /// column -> oid -> superseded values, oldest first.
  std::map<std::string, std::unordered_map<Oid, std::vector<ValueVersion>>>
      chains_;
  std::unordered_set<Oid> purged_;
  /// Superset of the oids in rows_, purged_ and chains_ (see class comment).
  OidBitTable marks_;
  /// One past the highest oid ever registered (insert stamps move it).
  Oid horizon_;
};

/// Issues transaction identities, commit timestamps and snapshots, and
/// tracks the low-water mark vacuum must respect. Thread-safe.
class TxnManager {
 public:
  TxnManager() = default;
  CRACK_DISALLOW_COPY_AND_ASSIGN(TxnManager);

  /// The auto-commit read position: everything committed so far.
  Snapshot LatestSnapshot() const;

  /// Opens a transaction pinned at the current committed state. The
  /// transaction participates in the low-water mark until finished.
  TxnId Begin();

  Result<Snapshot> SnapshotOf(TxnId txn) const;
  bool IsActive(TxnId txn) const;

  /// Allocates the commit timestamp and retires the transaction. The
  /// caller stamps the transaction's markers with the returned ts.
  Result<Ts> FinishCommit(TxnId txn);
  Status FinishRollback(TxnId txn);

  /// The oldest read position any live transaction holds (or the latest
  /// committed ts when none are open): versions ending at or below it are
  /// invisible to every present and future snapshot.
  Ts low_water() const;

  /// Commit timestamps handed out so far.
  Ts last_commit_ts() const;

  /// Fast-forwards the timestamp sequence past `ts` (recovery replay: new
  /// commits must stamp above every replayed commit). No-op when the
  /// sequence is already beyond it.
  void AdvanceTo(Ts ts) {
    std::lock_guard<std::mutex> lock(mu_);
    if (next_ts_ <= ts) next_ts_ = ts + 1;
  }

  size_t active_count() const;

 private:
  mutable std::mutex mu_;
  Ts next_ts_ = 1;
  TxnId next_txn_ = 1;
  std::map<TxnId, Ts> active_;  ///< txn -> pinned read_ts
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_TXN_MANAGER_H_
