// Copyright 2026 The CrackStore Authors
//
// ColumnDeltas: the write deltas of one value-ordered accelerator — a
// cracker column or a sorted copy — and the table of its rows whose
// visibility can differ. The paper leaves updates open (§2.2/§7); the store
// answers with the differential scheme the follow-on literature settled on
// (Idreos, Kersten & Manegold, "Updating a Cracked Database", SIGMOD 2007):
// writes collect next to the accelerator and fold back in bulk.
//
//   * inserts -> a pending list;
//   * deletes -> tombstones, each filed under the value the accelerator
//     holds for the row;
//   * updates -> a tombstone for the old copy plus a pending row under the
//     same oid, so sibling columns keep naming the same logical row;
//   * a fold  -> the owning path rebuilds its accelerator from the
//     survivors and the pending rows (the cracker index re-cracks its
//     learned boundaries, the sorted copy merges two sorted runs), then
//     calls Retire.
//
// A value-ordered accelerator holds, in the span it answers a range with,
// every row whose physical value is in range (a coarse or progressive span
// also holds value misses). The rows of the span that must not count are
// its *hidden candidates*: the tombstones filed in range and the rows the
// version log marks, each filed under its physical value. HiddenIn finds
// them with two binary searches and tests them against the snapshot in one
// batch, so every answer is span − hidden candidates + extras (pending
// inserts and snapshot re-admissions).
//
// Not thread-safe: the owning path calls it under its delta latch or the
// exclusive column latch.

#ifndef CRACKSTORE_CORE_COLUMN_DELTAS_H_
#define CRACKSTORE_CORE_COLUMN_DELTAS_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/oid_bit_table.h"
#include "core/txn_manager.h"
#include "core/value_ordered_oids.h"
#include "obs/query_stats.h"
#include "storage/bat.h"
#include "util/status.h"

namespace crackstore {

/// See file comment. T in {int32_t, int64_t, double}.
template <typename T>
class ColumnDeltas {
 public:
  /// Deltas against an accelerator built from `column`, the base column
  /// whose slots owners write before they notify the path.
  explicit ColumnDeltas(std::shared_ptr<Bat> column);

  CRACK_DISALLOW_COPY_AND_ASSIGN(ColumnDeltas);

  /// The accelerator was just built from the base: it holds every row
  /// below the base's end, and inserts must come after them. A tombstone
  /// filed before takes the row's value from the base now.
  void Start();

  /// Registers the freshly appended row `oid` carrying `value`. Oids must
  /// be fresh (beyond the rows held at Start and every earlier insert).
  /// After Start.
  Status Insert(T value, Oid oid);

  /// Tombstones row `oid` under the value the accelerator holds for it:
  /// its base value, since a row's base slot and its held copy differ only
  /// while its tombstone is already set. A pending row is cancelled instead
  /// (an updated row's old copy stays tombstoned). Before Start only the
  /// oid is filed.
  Status Delete(Oid oid);

  /// Changes live row `oid` to `value`: a pending row is rewritten in
  /// place; a held row is tombstoned under `old_value` — the value it held
  /// until the owner overwrote its base slot — and re-enters as a pending
  /// row under the same oid. After Start.
  Status Update(Oid oid, T old_value, T value);

  /// The owning path folded: its rebuilt accelerator holds `rows` tuples,
  /// the survivors (held rows without a tombstone) and the pending rows.
  /// Rows tombstoned without a rebirth are gone for good, so a later write
  /// to them reports the row dead.
  void Retire(size_t rows);

  /// True when nothing is pending and nothing tombstoned.
  bool empty() const { return pending_.empty() && deleted_.empty(); }

  /// The pending inserts (and re-entered updates), in arrival order.
  const std::vector<std::pair<T, Oid>>& pending() const { return pending_; }

  /// The tombstones against the accelerator's rows.
  const OidBitTable& tombstones() const { return deleted_; }

  size_t pending_inserts() const { return pending_.size(); }
  size_t pending_deletes() const { return deleted_.count(); }

  /// Folds retired so far.
  size_t folds() const { return folds_; }

  bool IsDeleted(Oid oid) const { return deleted_.Test(oid); }

  /// True iff the accelerator physically holds `oid` (tombstoned or not):
  /// every oid registered before Start or the last fold that no fold has
  /// removed. Pending inserts are not held.
  bool Holds(Oid oid) const {
    return oid >= base_oid_ && oid < held_end_ && !purged_.Test(oid);
  }

  /// The rows of a span over [lo, hi] that an answer must drop, in (value,
  /// oid) order: every tombstone filed in range and, under an active
  /// view, every marked row in range the view hides. Only the candidate
  /// table is read — two binary searches — and the candidates are tested
  /// against the view in one batch (one version-log latch acquisition).
  /// Charges the candidates to `stats`.
  std::vector<std::pair<T, Oid>> HiddenIn(T lo, bool lo_incl, T hi,
                                          bool hi_incl,
                                          const SnapshotView* view,
                                          IoStats* stats);

  /// Checks the deltas against the accelerator's rows (values[i], oids[i]),
  /// i < n: every row is held, every tombstone is a held row filed under
  /// the value it holds, and pending oids are fresh and unique. Test
  /// support.
  Status Validate(const T* values, const Oid* oids, size_t n) const;

 private:
  /// The base value of `oid`.
  T BaseValue(Oid oid) const;

  /// Brings the marked half of the candidate table up to date with the
  /// view's version log: the rows the accelerator holds that the log marked
  /// since the last pull, filed under their physical value. A fold (which
  /// changes the rows held and their values), a vacuum's re-mark (a new log
  /// generation) or another log rebuilds it from the whole log.
  void PullMarks(const SnapshotView* view);

  std::shared_ptr<Bat> column_;
  const Oid base_oid_;  ///< lowest oid of the base column
  bool started_ = false;
  Oid next_fresh_oid_;  ///< lowest oid never seen (insert validation)
  /// next_fresh_oid_ as of Start or the last fold: the oids below it that
  /// no fold removed are exactly the ones the accelerator holds.
  Oid held_end_;
  std::vector<std::pair<T, Oid>> pending_;
  OidBitTable deleted_;  ///< tombstones against held rows
  /// deleted_ with each tombstone's physical value (filled from Start on).
  ValueOrderedOids<T> tombstone_values_;
  OidBitTable purged_;  ///< oids gone for good: folded away or cancelled
  size_t folds_ = 0;
  /// The marked half of the candidate table (the tombstones are the other):
  /// the rows the accelerator holds that a version log marked, under their
  /// physical value.
  ValueOrderedOids<T> marked_;
  const VersionedTable* marks_log_ = nullptr;  ///< the log marked_ follows
  VersionedTable::MarkCursor mark_cursor_;     ///< how far marked_ has read
  size_t marks_folds_ = 0;        ///< folds_ as of marked_'s last rebuild
  std::vector<Oid> fresh_marks_;  ///< PullMarks' scratch buffer
};

extern template class ColumnDeltas<int32_t>;
extern template class ColumnDeltas<int64_t>;
extern template class ColumnDeltas<double>;

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_COLUMN_DELTAS_H_
