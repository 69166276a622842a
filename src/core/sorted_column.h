// Copyright 2026 The CrackStore Authors
//
// SortedColumn: the classical alternative to cracking (paper §2.2): "An
// alternative strategy (and optimal in read-only settings) would be to
// completely sort or index the table upfront, which would require N log N
// writes. This investment would be recovered after log N queries." Fig. 11
// compares this baseline against cracking and scanning.

#ifndef CRACKSTORE_CORE_SORTED_COLUMN_H_
#define CRACKSTORE_CORE_SORTED_COLUMN_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cracker_index.h"
#include "storage/bat.h"
#include "obs/query_stats.h"
#include "util/macros.h"

namespace crackstore {

/// ⌈log2 n⌉, at least 1: the rows one binary search over n sorted rows
/// reads in the paper's cost model, and the per-row factor of sorting them.
inline uint64_t CeilLog2(size_t n) {
  return n < 2 ? 1 : static_cast<uint64_t>(std::ceil(std::log2(n)));
}

/// A fully sorted copy of a column with its oid map, answering range
/// selections by binary search.
template <typename T>
class SortedColumn {
 public:
  /// Sorts a clone of `source`. The build charges n reads and (paper's cost
  /// model) n·ceil(log2 n) writes to `stats`, plus the real wall-clock cost
  /// of the sort.
  explicit SortedColumn(const std::shared_ptr<Bat>& source,
                        IoStats* stats = nullptr) {
    CRACK_CHECK(source != nullptr);
    CRACK_CHECK(source->tail_type() == TypeTraits<T>::kType);
    n_ = source->size();
    const T* src = source->TailData<T>();

    // argsort (NaN after every number), then scatter values and oids.
    std::vector<size_t> perm(n_);
    std::iota(perm.begin(), perm.end(), size_t{0});
    std::sort(perm.begin(), perm.end(), [src](size_t a, size_t b) {
      return ValueLess(src[a], src[b]);
    });

    values_ = Bat::Create(source->tail_type(), source->name() + "#sorted");
    oids_ = Bat::Create(ValueType::kOid, source->name() + "#sortedmap");
    values_->Reserve(n_);
    oids_->Reserve(n_);
    T* dst = values_->MutableTailData<T>();
    Oid* om = oids_->MutableTailData<Oid>();
    Oid base = source->head_base();
    for (size_t i = 0; i < n_; ++i) {
      dst[i] = src[perm[i]];
      om[i] = base + perm[i];
    }
    values_->SetCountUnsafe(n_);
    oids_->SetCountUnsafe(n_);

    if (stats != nullptr) {
      stats->tuples_read += n_;
      stats->tuples_written += n_ * CeilLog2(n_);
    }
  }

  /// Adopts pre-sorted parallel (values, oids) columns without re-sorting.
  /// Used by delta maintenance that rebuilds the sorted copy by merging
  /// sorted runs. `values` must be typed T and ascending by ValueLess,
  /// `oids` typed kOid, equal length.
  SortedColumn(std::shared_ptr<Bat> values, std::shared_ptr<Bat> oids)
      : values_(std::move(values)), oids_(std::move(oids)) {
    CRACK_CHECK(values_ != nullptr && oids_ != nullptr);
    CRACK_CHECK(values_->tail_type() == TypeTraits<T>::kType);
    CRACK_CHECK(oids_->tail_type() == ValueType::kOid);
    CRACK_CHECK(values_->size() == oids_->size());
    n_ = values_->size();
  }

  CRACK_DISALLOW_COPY_AND_ASSIGN(SortedColumn);

  /// Binary-search range selection; O(log n) reads charged to `stats`. The
  /// NaN rows sort last and lie in no range.
  CrackSelection Select(T lo, bool lo_incl, T hi, bool hi_incl,
                        IoStats* stats = nullptr) const {
    const T* d = values_->TailData<T>();
    const T* begin = d;
    const T* end = d + n_;
    const T* from = lo_incl ? std::lower_bound(begin, end, lo, ValueLess<T>)
                            : std::upper_bound(begin, end, lo, ValueLess<T>);
    const T* to = hi_incl ? std::upper_bound(begin, end, hi, ValueLess<T>)
                          : std::lower_bound(begin, end, hi, ValueLess<T>);
    if (to < from) to = from;
    size_t off = static_cast<size_t>(from - d);
    size_t len = static_cast<size_t>(to - from);
    if (stats != nullptr) stats->tuples_read += 2 * CeilLog2(n_);
    return CrackSelection{BatView(values_, off, len),
                          BatView(oids_, off, len)};
  }

  size_t size() const { return n_; }
  const std::shared_ptr<Bat>& values() const { return values_; }
  const std::shared_ptr<Bat>& oids() const { return oids_; }

 private:
  std::shared_ptr<Bat> values_;
  std::shared_ptr<Bat> oids_;
  size_t n_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_SORTED_COLUMN_H_
