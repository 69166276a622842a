// Copyright 2026 The CrackStore Authors
//
// ValueOrderedOids: a set of (value, oid) rows kept in value order (NaN
// after every number, ValueLess). An accelerator's delta store
// (core/column_deltas.h) keeps the few rows of a value-ordered layout whose
// visibility can differ from "visible, with its physical value" —
// tombstones, and rows the version log marks — in such tables, keyed by the
// physical value the row holds. A value-exact span holds exactly the rows
// whose physical value lies in its range, so two binary searches find the
// table rows that sit in a span without touching the span itself (the
// value-ordered pending updates of Idreos, Kersten & Manegold, "Updating a
// Cracked Database", SIGMOD 2007). Inserts are O(log n).

#ifndef CRACKSTORE_CORE_VALUE_ORDERED_OIDS_H_
#define CRACKSTORE_CORE_VALUE_ORDERED_OIDS_H_

#include <limits>
#include <set>
#include <utility>

#include "storage/types.h"

namespace crackstore {

/// (value, oid) rows by ValueLess on the value, then by oid.
struct ValueOidLess {
  template <typename T>
  bool operator()(const std::pair<T, Oid>& a,
                  const std::pair<T, Oid>& b) const {
    if (ValueLess(a.first, b.first)) return true;
    if (ValueLess(b.first, a.first)) return false;
    return a.second < b.second;
  }
};

template <typename T>
class ValueOrderedOids {
 public:
  /// Adds the row; a row already present is kept once.
  void Insert(T value, Oid oid) { rows_.emplace(value, oid); }

  void Clear() { rows_.clear(); }
  size_t size() const { return rows_.size(); }

  /// Calls fn(value, oid) for every row whose value satisfies
  /// (lo_incl ? v >= lo : v > lo) && (hi_incl ? v <= hi : v < hi), in
  /// (value, oid) order. A NaN row satisfies no range.
  template <typename Fn>
  void ForEachIn(T lo, bool lo_incl, T hi, bool hi_incl, Fn&& fn) const {
    constexpr Oid kMaxOid = std::numeric_limits<Oid>::max();
    auto it = lo_incl ? rows_.lower_bound({lo, Oid{0}})
                      : rows_.upper_bound({lo, kMaxOid});
    for (; it != rows_.end(); ++it) {
      if (!(hi_incl ? it->first <= hi : it->first < hi)) break;
      fn(it->first, it->second);
    }
  }

  /// Calls fn(value, oid) for every row, in (value, oid) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [value, oid] : rows_) fn(value, oid);
  }

 private:
  std::set<std::pair<T, Oid>, ValueOidLess> rows_;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_VALUE_ORDERED_OIDS_H_
