// Copyright 2026 The CrackStore Authors
//
// UpdatableCrackerIndex: the paper's open question — "What are the effects
// of updates on the scheme proposed?" (§2.2/§7) — answered with the
// differential scheme the follow-on literature settled on: updates are
// collected in small delta structures next to the cracked column and merged
// back lazily.
//
//   * inserts  -> a pending list, consulted by every selection;
//   * deletes  -> a tombstone set filtered out of every answer;
//   * Merge()  -> folds both into a fresh cracker column, *re-applying the
//     learned piece boundaries* so the index survives its own maintenance.
//
// Selections therefore return a CrackSelection over the contiguous cracked
// area plus a (small) delta vector; count() and ForEach() present the union
// view.

#ifndef CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_
#define CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cracker_index.h"
#include "core/oid_bit_table.h"
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

/// Tuning knobs.
struct UpdatableCrackerIndexOptions {
  /// Merge() is triggered automatically by Select when the delta grows past
  /// this fraction of the column (0 disables auto-merge).
  double auto_merge_fraction = 0.1;
  CrackerIndexOptions index_options;
};

/// See file comment. T in {int32_t, int64_t, double}.
template <typename T>
class UpdatableCrackerIndex {
 public:
  explicit UpdatableCrackerIndex(const std::shared_ptr<Bat>& source,
                                 IoStats* stats = nullptr,
                                 UpdatableCrackerIndexOptions options = {});

  CRACK_DISALLOW_COPY_AND_ASSIGN(UpdatableCrackerIndex);

  /// Registers a new tuple. Oids must be fresh (beyond the source range and
  /// previous inserts); the caller owns the oid space.
  Status Insert(T value, Oid oid);

  /// Tombstones a tuple by oid (source or previously inserted). Deleting a
  /// pending insert cancels it directly.
  Status Delete(Oid oid);

  /// Changes the value of an existing tuple *without* retiring its oid: a
  /// pending insert is rewritten in place; a merged tuple is tombstoned and
  /// re-entered as a pending insert carrying the same oid, so the oid keeps
  /// naming the same logical row across every column of a table.
  Status Update(T value, Oid oid);

  /// Range selection over the live tuples (see UpdatableSelection). May
  /// trigger an automatic Merge() first.
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

  /// Number of Merge() folds performed (manual + automatic).
  size_t merges_performed() const { return merges_performed_; }

  const CrackerIndex<T>& index() const { return *index_; }

  /// Mutable access to the inner cracker index, for callers that steer
  /// cracking beyond plain selections (pivot policies, merge budgets). The
  /// delta structures stay consistent: they reference oids, not positions.
  /// NOTE: Merge() replaces the index wholesale — never cache this pointer
  /// across a call that may merge (in concurrent mode, across a release of
  /// the exclusive column latch).
  CrackerIndex<T>* mutable_index() { return index_.get(); }

  /// The pending inserts, in arrival order. Concurrent mode: the owning
  /// access path guards every reader/writer of this list (and of
  /// IsDeleted) with its delta latch.
  const std::vector<std::pair<T, Oid>>& pending() const { return pending_; }

  /// True iff `oid` is tombstoned against the merged area.
  bool IsDeleted(Oid oid) const { return deleted_.Test(oid); }

  /// The tombstones against the merged area.
  const OidBitTable& tombstones() const { return deleted_; }

  /// True when the delta has outgrown options().auto_merge_fraction.
  bool ShouldAutoMerge() const {
    if (options_.auto_merge_fraction <= 0) return false;
    size_t delta = pending_.size() + deleted_.count();
    return delta > static_cast<size_t>(options_.auto_merge_fraction *
                                       static_cast<double>(merged_size_));
  }

  /// Exhaustive consistency check (test support).
  Status Validate() const;

 private:
  UpdatableCrackerIndexOptions options_;
  std::unique_ptr<CrackerIndex<T>> index_;
  size_t merged_size_ = 0;   ///< tuples inside the cracker column
  Oid next_fresh_oid_ = 0;   ///< lowest oid never seen (insert validation)
  std::vector<std::pair<T, Oid>> pending_;
  Oid base_oid_ = 0;         ///< lowest oid of the source column
  OidBitTable deleted_;      ///< tombstones against merged tuples
  OidBitTable purged_;       ///< oids physically removed by merges
  size_t merges_performed_ = 0;
};

extern template class UpdatableCrackerIndex<int32_t>;
extern template class UpdatableCrackerIndex<int64_t>;
extern template class UpdatableCrackerIndex<double>;

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_UPDATABLE_CRACKER_INDEX_H_
