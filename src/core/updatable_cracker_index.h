// Copyright 2026 The CrackStore Authors
//
// UpdatableCrackerIndex: the paper's open question — "What are the effects
// of updates on the scheme proposed?" (§2.2/§7) — answered with the
// differential scheme the follow-on literature settled on: updates are
// collected in small delta structures next to the cracked column and merged
// back lazily.
//
//   * inserts  -> a pending list, consulted by every selection;
//   * deletes  -> a tombstone set filtered out of every answer, each
//     tombstone kept with its physical value, so the tombstones inside a
//     range are found by value (TombstonesIn) without reading the span;
//   * Merge()  -> folds both into a fresh cracker column, *re-applying the
//     learned piece boundaries* so the index survives its own maintenance.
//
// Selections therefore return a CrackSelection over the contiguous cracked
// area plus a (small) delta vector; count() and ForEach() present the union
// view. The index never decides to fold: its owner calls Merge() (the crack
// access path, from FlushDeltas, when the store's maintenance step finds a
// fold due under the column's DeltaMergePolicy).

#ifndef CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_
#define CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cracker_index.h"
#include "core/oid_bit_table.h"
#include "core/value_ordered_oids.h"
#include "obs/query_stats.h"
#include "util/result.h"

namespace crackstore {

/// A selection over an updatable cracked column: the cracked contiguous
/// area plus pending inserts, minus tombstones.
template <typename T>
struct UpdatableSelection {
  CrackSelection base;                        ///< from the cracker column
  std::vector<std::pair<T, Oid>> delta;       ///< qualifying pending inserts
  uint64_t deleted_in_base = 0;               ///< tombstoned rows inside base

  /// Number of qualifying live tuples.
  uint64_t count() const {
    return base.count() - deleted_in_base + delta.size();
  }
};

/// See file comment. T in {int32_t, int64_t, double}.
template <typename T>
class UpdatableCrackerIndex {
 public:
  /// `index_options` configure the cracker column, and every column a
  /// Merge() rebuilds.
  explicit UpdatableCrackerIndex(const std::shared_ptr<Bat>& source,
                                 IoStats* stats = nullptr,
                                 CrackerIndexOptions index_options = {});

  CRACK_DISALLOW_COPY_AND_ASSIGN(UpdatableCrackerIndex);

  /// Registers a new tuple. Oids must be fresh (beyond the source range and
  /// previous inserts); the caller owns the oid space.
  Status Insert(T value, Oid oid);

  /// Tombstones a tuple by oid (source or previously inserted); `value` is
  /// the value the cracker column holds for it. Deleting a pending insert
  /// cancels it directly (`value` is then unused).
  Status Delete(Oid oid, T value);

  /// Changes the value of an existing tuple *without* retiring its oid: a
  /// pending insert is rewritten in place; a merged tuple is tombstoned and
  /// re-entered as a pending insert carrying the same oid, so the oid keeps
  /// naming the same logical row across every column of a table.
  /// `old_value` is the value the tuple held until now — the one the
  /// tombstone keeps (owners overwrite their base slot before calling).
  Status Update(T value, Oid oid, T old_value);

  /// Range selection over the live tuples (see UpdatableSelection). Never
  /// folds the deltas; only Merge() does.
  UpdatableSelection<T> Select(T lo, bool lo_incl, T hi, bool hi_incl,
                               IoStats* stats = nullptr);

  /// Calls `fn(value, oid)` for every qualifying live tuple of `selection`.
  void ForEach(const UpdatableSelection<T>& selection,
               const std::function<void(T, Oid)>& fn) const;

  /// Folds pending inserts and tombstones into a fresh cracker column and
  /// re-applies every learned boundary (O(pieces · n) cracks), preserving
  /// the index's navigation knowledge.
  Status Merge(IoStats* stats = nullptr);

  /// Live tuple count (source − deleted + inserted).
  size_t size() const {
    return merged_size_ - deleted_.count() + pending_.size();
  }

  size_t pending_inserts() const { return pending_.size(); }
  size_t pending_deletes() const { return deleted_.count(); }
  size_t num_pieces() const { return index_->num_pieces(); }

  /// Number of Merge() folds performed.
  size_t merges_performed() const { return merges_performed_; }

  const CrackerIndex<T>& index() const { return *index_; }

  /// Mutable access to the inner cracker index, for callers that steer
  /// cracking beyond plain selections (pivot policies, merge budgets). The
  /// delta structures stay consistent: they reference oids, not positions.
  /// NOTE: Merge() replaces the index wholesale — never cache this pointer
  /// across a call that may merge (under a shared owner, across a release
  /// of the exclusive column latch).
  CrackerIndex<T>* mutable_index() { return index_.get(); }

  /// The pending inserts, in arrival order. The owning access path guards
  /// every reader/writer of this list (and of IsDeleted) with its delta
  /// latch.
  const std::vector<std::pair<T, Oid>>& pending() const { return pending_; }

  /// True iff `oid` is tombstoned against the merged area.
  bool IsDeleted(Oid oid) const { return deleted_.Test(oid); }

  /// The tombstones against the merged area.
  const OidBitTable& tombstones() const { return deleted_; }

  /// Calls fn(value, oid) for every tombstone whose physical value lies in
  /// the range, in value order: exactly the tombstoned rows of the
  /// value-exact cracked span for that range.
  template <typename Fn>
  void TombstonesIn(T lo, bool lo_incl, T hi, bool hi_incl, Fn&& fn) const {
    tombstone_values_.ForEachIn(lo, lo_incl, hi, hi_incl,
                                std::forward<Fn>(fn));
  }

  /// True iff the cracker column physically holds `oid` (tombstoned or
  /// not): every oid registered before the last build or merge that no
  /// merge has removed. Pending inserts are not held.
  bool Holds(Oid oid) const {
    return oid >= base_oid_ && oid < merged_end_ && !purged_.Test(oid);
  }

  /// Exhaustive consistency check (test support).
  Status Validate() const;

 private:
  CrackerIndexOptions index_options_;
  std::unique_ptr<CrackerIndex<T>> index_;
  size_t merged_size_ = 0;   ///< tuples inside the cracker column
  Oid next_fresh_oid_ = 0;   ///< lowest oid never seen (insert validation)
  std::vector<std::pair<T, Oid>> pending_;
  Oid base_oid_ = 0;         ///< lowest oid of the source column
  OidBitTable deleted_;      ///< tombstones against merged tuples
  /// deleted_ with each tombstone's physical value, in value order.
  ValueOrderedOids<T> tombstone_values_;
  /// next_fresh_oid_ as of the last build or merge: the oids below it that
  /// were not purged are exactly the ones the cracker column holds.
  Oid merged_end_ = 0;
  OidBitTable purged_;       ///< oids physically removed by merges
  size_t merges_performed_ = 0;
};

extern template class UpdatableCrackerIndex<int32_t>;
extern template class UpdatableCrackerIndex<int64_t>;
extern template class UpdatableCrackerIndex<double>;

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_
