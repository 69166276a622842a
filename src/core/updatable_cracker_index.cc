// Copyright 2026 The CrackStore Authors

#include "core/updatable_cracker_index.h"

#include <algorithm>
#include <unordered_set>

#include "obs/instruments.h"
#include "util/string_util.h"

namespace crackstore {

template <typename T>
UpdatableCrackerIndex<T>::UpdatableCrackerIndex(
    const std::shared_ptr<Bat>& source, IoStats* stats,
    UpdatableCrackerIndexOptions options)
    : options_(options),
      index_(std::make_unique<CrackerIndex<T>>(source, stats,
                                               options.index_options)),
      merged_size_(source->size()),
      next_fresh_oid_(source->head_base() + source->size()),
      base_oid_(source->head_base()),
      deleted_(source->head_base()),
      purged_(source->head_base()) {}

template <typename T>
Status UpdatableCrackerIndex<T>::Insert(T value, Oid oid) {
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
Status UpdatableCrackerIndex<T>::Delete(Oid oid) {
  if (oid < base_oid_ || oid >= next_fresh_oid_) {
    return Status::NotFound(
        StrFormat("oid %llu was never inserted",
                  static_cast<unsigned long long>(oid)));
  }
  // A pending insert is cancelled directly. The oid joins the physically-
  // gone set so that a later Update()/Delete() on it reports the row dead
  // instead of re-entering it as a "merged tuple" rebirth.
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [oid](const auto& p) { return p.second == oid; });
  if (it != pending_.end()) {
    pending_.erase(it);
    purged_.Set(oid);
    return Status::OK();
  }
  if (purged_.Test(oid) || !deleted_.Set(oid)) {
    return Status::AlreadyExists(
        StrFormat("oid %llu already deleted",
                  static_cast<unsigned long long>(oid)));
  }
  return Status::OK();
}

template <typename T>
Status UpdatableCrackerIndex<T>::Update(T value, Oid oid) {
  // Concurrency audit (PR 4): this routine runs strictly under the owning
  // path's delta latch, so the classification below (pending? purged?
  // deleted? else merged) cannot go stale between the checks and the
  // delta mutation. The *piece map* is deliberately never consulted here —
  // the tombstone + re-pend pair keys on oids, which survive any concurrent
  // crack's shuffle, unlike positions. The window that remains is between a
  // caller's WHERE scan and this call; the facade closes it by revalidating
  // liveness per oid inside its write-latch scope and treating the NotFound
  // below as "row died, skip" rather than a statement abort. Merge()
  // re-checks the whole tombstone set against the fold
  // ("tombstone set references missing oids"), so a stale entry can never
  // silently drop rows.
  if (oid < base_oid_ || oid >= next_fresh_oid_) {
    return Status::NotFound(
        StrFormat("oid %llu was never inserted",
                  static_cast<unsigned long long>(oid)));
  }
  // A pending insert is rewritten in place.
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [oid](const auto& p) { return p.second == oid; });
  if (it != pending_.end()) {
    it->first = value;
    return Status::OK();
  }
  if (purged_.Test(oid) || deleted_.Test(oid)) {
    return Status::NotFound(
        StrFormat("oid %llu is deleted",
                  static_cast<unsigned long long>(oid)));
  }
  // Merged tuple: tombstone the old value, re-enter the new one under the
  // same oid. Merge() folds both sides, leaving one live copy.
  deleted_.Set(oid);
  pending_.emplace_back(value, oid);
  return Status::OK();
}

template <typename T>
UpdatableSelection<T> UpdatableCrackerIndex<T>::Select(T lo, bool lo_incl,
                                                       T hi, bool hi_incl,
                                                       IoStats* stats) {
  if (ShouldAutoMerge()) {
    Status st = Merge(stats);
    CRACK_DCHECK(st.ok());
  }

  UpdatableSelection<T> out;
  out.base = index_->Select(lo, lo_incl, hi, hi_incl, stats);

  if (!deleted_.empty()) {
    const Oid* oids =
        index_->oids()->template TailData<Oid>() + out.base.oids.offset();
    for (size_t i = 0; i < out.base.oids.size(); ++i) {
      out.deleted_in_base += deleted_.Test(oids[i]) ? 1 : 0;
    }
    if (stats != nullptr) stats->tuples_read += out.base.oids.size();
  }
  auto in_range = [&](T v) {
    if (lo_incl ? v < lo : v <= lo) return false;
    if (hi_incl ? v > hi : v >= hi) return false;
    return true;
  };
  for (const auto& [value, oid] : pending_) {
    if (in_range(value)) out.delta.emplace_back(value, oid);
  }
  if (stats != nullptr) stats->tuples_read += pending_.size();
  return out;
}

template <typename T>
void UpdatableCrackerIndex<T>::ForEach(
    const UpdatableSelection<T>& selection,
    const std::function<void(T, Oid)>& fn) const {
  for (size_t i = 0; i < selection.base.count(); ++i) {
    Oid oid = selection.base.oids.template Get<Oid>(i);
    if (deleted_.Test(oid)) continue;
    fn(selection.base.values.template Get<T>(i), oid);
  }
  for (const auto& [value, oid] : selection.delta) fn(value, oid);
}

template <typename T>
Status UpdatableCrackerIndex<T>::Merge(IoStats* stats) {
  if (pending_.empty() && deleted_.empty()) return Status::OK();

  // Snapshot the learned boundaries before rebuilding.
  std::vector<CrackBound<T>> bounds = index_->Bounds();

  // New cracker column: the current (clustered!) survivors followed by the
  // pending inserts.
  size_t old_n = index_->size();
  auto values = Bat::Create(TypeTraits<T>::kType, "merged#crack");
  auto oids = Bat::Create(ValueType::kOid, "merged#crackmap");
  values->Reserve(old_n + pending_.size());
  oids->Reserve(old_n + pending_.size());
  T* vd = values->template MutableTailData<T>();
  Oid* od = oids->template MutableTailData<Oid>();
  const T* src_v = index_->values()->template TailData<T>();
  const Oid* src_o = index_->oids()->template TailData<Oid>();
  size_t w = 0;
  for (size_t i = 0; i < old_n; ++i) {
    if (deleted_.Test(src_o[i])) continue;
    vd[w] = src_v[i];
    od[w] = src_o[i];
    ++w;
  }
  size_t survivors = w;
  if (survivors + deleted_.count() != old_n) {
    return Status::Internal("tombstone set references missing oids");
  }
  for (const auto& [value, oid] : pending_) {
    vd[w] = value;
    od[w] = oid;
    ++w;
  }
  values->SetCountUnsafe(w);
  oids->SetCountUnsafe(w);
  if (stats != nullptr) {
    stats->tuples_read += old_n + pending_.size();
    stats->tuples_written += w;
  }

  auto rebuilt = std::make_unique<CrackerIndex<T>>(
      std::move(values), std::move(oids), options_.index_options);

  // Re-apply the learned boundaries. Replaying in binary-split order (the
  // median bound first, then recursively each half) keeps every re-crack
  // confined to half its parent's region: O(n log B) total instead of the
  // O(B n) a value-ordered replay would cost.
  std::function<void(size_t, size_t)> replay = [&](size_t lo, size_t hi) {
    if (lo >= hi) return;
    size_t mid = lo + (hi - lo) / 2;
    const CrackBound<T>& b = bounds[mid];
    if (b.has_excl) {
      (void)rebuilt->SelectLessThan(b.value, /*inclusive=*/false, stats);
    }
    if (b.has_incl) {
      (void)rebuilt->SelectLessThan(b.value, /*inclusive=*/true, stats);
    }
    replay(lo, mid);
    replay(mid + 1, hi);
  };
  replay(0, bounds.size());

  index_ = std::move(rebuilt);
  merged_size_ = w;
  // An Update() leaves its oid both tombstoned (old value) and pending (new
  // value): the fold keeps that row alive, so only tombstones without a
  // pending rebirth are physically gone.
  for (const auto& [value, oid] : pending_) deleted_.Clear(oid);
  deleted_.ForEach([this](Oid oid) { purged_.Set(oid); });
  deleted_.ClearAll();
  pending_.clear();
  ++merges_performed_;
  obs::RecordMerge(w);
  return Status::OK();
}

template <typename T>
Status UpdatableCrackerIndex<T>::Validate() const {
  CRACK_RETURN_NOT_OK(index_->Validate());
  if (index_->size() != merged_size_) {
    return Status::Internal("merged size drifted from index size");
  }
  // Tombstones must reference oids that exist in the cracker column.
  if (!deleted_.empty()) {
    const Oid* oids = index_->oids()->template TailData<Oid>();
    size_t found = 0;
    for (size_t i = 0; i < index_->size(); ++i) {
      found += deleted_.Test(oids[i]) ? 1 : 0;
    }
    if (found != deleted_.count()) {
      return Status::Internal("tombstone references unknown oid");
    }
  }
  // Pending oids must be fresh and unique.
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

template class UpdatableCrackerIndex<int32_t>;
template class UpdatableCrackerIndex<int64_t>;
template class UpdatableCrackerIndex<double>;

}  // namespace crackstore
