// Copyright 2026 The CrackStore Authors

#include "core/column_deltas.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/simd_dispatch.h"
#include "obs/instruments.h"
#include "util/string_util.h"

namespace crackstore {

namespace {

Status NeverInserted(Oid oid) {
  return Status::NotFound(StrFormat("oid %llu was never inserted",
                                    static_cast<unsigned long long>(oid)));
}

Status AlreadyDeleted(Oid oid) {
  return Status::AlreadyExists(StrFormat(
      "oid %llu already deleted", static_cast<unsigned long long>(oid)));
}

/// Equal values, NaN equal to NaN.
template <typename T>
bool SameValue(T a, T b) {
  return !ValueLess(a, b) && !ValueLess(b, a);
}

}  // namespace

template <typename T>
ColumnDeltas<T>::ColumnDeltas(std::shared_ptr<Bat> column)
    : column_(std::move(column)),
      base_oid_(column_->head_base()),
      next_fresh_oid_(base_oid_),
      held_end_(base_oid_),
      deleted_(base_oid_),
      purged_(base_oid_) {}

template <typename T>
void ColumnDeltas<T>::Start() {
  CRACK_DCHECK(!started_);
  started_ = true;
  next_fresh_oid_ = base_oid_ + column_->size();
  held_end_ = next_fresh_oid_;
  deleted_.ForEach(
      [this](Oid oid) { tombstone_values_.Insert(BaseValue(oid), oid); });
}

template <typename T>
T ColumnDeltas<T>::BaseValue(Oid oid) const {
  CRACK_DCHECK(oid - base_oid_ < column_->size());
  return column_->template TailData<T>()[oid - base_oid_];
}

template <typename T>
Status ColumnDeltas<T>::Insert(T value, Oid oid) {
  CRACK_DCHECK(started_);
  if (oid < next_fresh_oid_) {
    return Status::InvalidArgument(
        StrFormat("oid %llu already in use (next fresh: %llu)",
                  static_cast<unsigned long long>(oid),
                  static_cast<unsigned long long>(next_fresh_oid_)));
  }
  pending_.emplace_back(value, oid);
  next_fresh_oid_ = oid + 1;
  return Status::OK();
}

template <typename T>
Status ColumnDeltas<T>::Delete(Oid oid) {
  const Oid end = started_ ? next_fresh_oid_ : base_oid_ + column_->size();
  if (oid < base_oid_ || oid >= end) return NeverInserted(oid);
  // A pending row is cancelled directly. An inserted row joins the
  // physically-gone set, so that a later Update()/Delete() on it reports the
  // row dead instead of re-entering it as a held row; an updated row's old
  // copy stays held, tombstoned, until the fold.
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [oid](const auto& p) { return p.second == oid; });
  if (it != pending_.end()) {
    pending_.erase(it);
    if (!deleted_.Test(oid)) purged_.Set(oid);
    return Status::OK();
  }
  if (purged_.Test(oid) || !deleted_.Set(oid)) return AlreadyDeleted(oid);
  if (started_) tombstone_values_.Insert(BaseValue(oid), oid);
  return Status::OK();
}

template <typename T>
Status ColumnDeltas<T>::Update(Oid oid, T old_value, T value) {
  // The classification below (pending? purged? deleted? else held) runs
  // under the owner's delta latch, so it cannot go stale before the delta
  // mutation. It keys on oids, which survive any concurrent crack's
  // shuffle, unlike positions. The window that remains is between a
  // caller's WHERE scan and this call; the store closes it by revalidating
  // liveness per oid inside its write-latch scope and treating the NotFound
  // below as "row died, skip". A fold re-checks the whole tombstone set
  // against the rows it keeps, so a stale entry never silently drops rows.
  CRACK_DCHECK(started_);
  if (oid < base_oid_ || oid >= next_fresh_oid_) return NeverInserted(oid);
  // A pending row is rewritten in place.
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [oid](const auto& p) { return p.second == oid; });
  if (it != pending_.end()) {
    it->first = value;
    return Status::OK();
  }
  if (purged_.Test(oid) || deleted_.Test(oid)) {
    return Status::NotFound(StrFormat("oid %llu is deleted",
                                      static_cast<unsigned long long>(oid)));
  }
  // Held row: tombstone the old value, re-enter the new one under the same
  // oid. The fold keeps one live copy.
  deleted_.Set(oid);
  tombstone_values_.Insert(old_value, oid);
  pending_.emplace_back(value, oid);
  return Status::OK();
}

template <typename T>
void ColumnDeltas<T>::Retire(size_t rows) {
  // An Update() leaves its oid both tombstoned (old value) and pending (new
  // value): the fold keeps that row alive, so only tombstones without a
  // pending rebirth are physically gone.
  for (const auto& [value, oid] : pending_) deleted_.Clear(oid);
  deleted_.ForEach([this](Oid oid) { purged_.Set(oid); });
  deleted_.ClearAll();
  tombstone_values_.Clear();
  pending_.clear();
  held_end_ = next_fresh_oid_;
  ++folds_;
  obs::RecordMerge(rows);
}

template <typename T>
std::vector<std::pair<T, Oid>> ColumnDeltas<T>::HiddenIn(
    T lo, bool lo_incl, T hi, bool hi_incl, const SnapshotView* view,
    IoStats* stats) {
  const bool versioned = view != nullptr && view->active();
  std::vector<std::pair<T, Oid>> candidates;
  tombstone_values_.ForEachIn(lo, lo_incl, hi, hi_incl, [&](T value, Oid oid) {
    candidates.emplace_back(value, oid);
  });
  const size_t tombstoned = candidates.size();
  if (versioned) {
    PullMarks(view);
    marked_.ForEachIn(lo, lo_incl, hi, hi_incl, [&](T value, Oid oid) {
      // A row tombstoned after its mark was pulled is filed above, under
      // the same physical value.
      if (!deleted_.Test(oid)) candidates.emplace_back(value, oid);
    });
  }
  if (stats != nullptr) stats->tuples_read += candidates.size();
  obs::RecordHiddenCandidates(candidates.size());
  // Without a view the candidates are the tombstones, in value order.
  if (candidates.empty() || !versioned) return candidates;
  std::vector<Oid> oids(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    oids[i] = candidates[i].second;
  }
  std::vector<uint64_t> visible(BitmapWords(oids.size()));
  view->VisibleMask(oids.data(), oids.size(), visible.data());
  std::vector<std::pair<T, Oid>> hidden;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i < tombstoned || !BitmapTest(visible.data(), i)) {
      hidden.push_back(candidates[i]);
    }
  }
  std::sort(hidden.begin(), hidden.end());
  return hidden;
}

template <typename T>
void ColumnDeltas<T>::PullMarks(const SnapshotView* view) {
  const VersionedTable* log = view->table();
  if (log != marks_log_ || folds_ != marks_folds_) {
    marked_.Clear();
    mark_cursor_ = {};
    marks_log_ = log;
    marks_folds_ = folds_;
  }
  fresh_marks_.clear();
  if (!log->MarksSince(&mark_cursor_, &fresh_marks_)) marked_.Clear();
  const size_t rows = column_->size();
  for (Oid oid : fresh_marks_) {
    // Pending inserts stay with the pending overlay, and a tombstoned row
    // is filed with its tombstone. Any other row the accelerator holds has
    // its base value physically: owners write base slots through before
    // notifying the path, and every rewrite tombstones the old copy.
    if (!Holds(oid) || deleted_.Test(oid) || oid - base_oid_ >= rows) {
      continue;
    }
    marked_.Insert(BaseValue(oid), oid);
  }
}

template <typename T>
Status ColumnDeltas<T>::Validate(const T* values, const Oid* oids,
                                 size_t n) const {
  if (tombstone_values_.size() != deleted_.count()) {
    return Status::Internal("tombstone values out of step with tombstones");
  }
  std::unordered_map<Oid, T> tombstoned;
  for (size_t i = 0; i < n; ++i) {
    if (!Holds(oids[i])) {
      return Status::Internal(
          StrFormat("the accelerator holds oid %llu, which is not held",
                    static_cast<unsigned long long>(oids[i])));
    }
    if (deleted_.Test(oids[i])) tombstoned.emplace(oids[i], values[i]);
  }
  if (tombstoned.size() != deleted_.count()) {
    return Status::Internal("tombstone references unknown oid");
  }
  Status st = Status::OK();
  tombstone_values_.ForEach([&](T value, Oid oid) {
    auto it = tombstoned.find(oid);
    if (st.ok() && (it == tombstoned.end() || !SameValue(it->second, value))) {
      st = Status::Internal(
          StrFormat("tombstone of oid %llu keeps a value the accelerator "
                    "does not hold",
                    static_cast<unsigned long long>(oid)));
    }
  });
  CRACK_RETURN_NOT_OK(st);
  std::unordered_set<Oid> seen;
  for (const auto& [value, oid] : pending_) {
    if (oid >= next_fresh_oid_) {
      return Status::Internal("pending oid beyond fresh watermark");
    }
    if (!seen.insert(oid).second) {
      return Status::Internal("duplicate pending oid");
    }
  }
  return Status::OK();
}

template class ColumnDeltas<int32_t>;
template class ColumnDeltas<int64_t>;
template class ColumnDeltas<double>;

}  // namespace crackstore
