// Copyright 2026 The CrackStore Authors
//
// OidBitTable: a set of oids kept as one bit per oid at or above a base oid,
// plus a member count. The delta layer's tombstone sets and the version
// log's "this row has version state" marks both use it: membership is one
// word load instead of a hash probe, a contiguous oid run (a base-column
// scan) subtracts the members word by word, and an empty table holds no
// memory — the words grow on the first Set.

#ifndef CRACKSTORE_CORE_OID_BIT_TABLE_H_
#define CRACKSTORE_CORE_OID_BIT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/types.h"
#include "util/macros.h"

namespace crackstore {

class OidBitTable {
 public:
  /// Oids below `base` are never members.
  explicit OidBitTable(Oid base = 0) : base_(base) {}

  bool Test(Oid oid) const {
    if (oid < base_) return false;
    const uint64_t i = oid - base_;
    const size_t w = static_cast<size_t>(i >> 6);
    return w < words_.size() && ((words_[w] >> (i & 63)) & 1) != 0;
  }

  /// Adds `oid` (at or above the base); false when it was already a member.
  bool Set(Oid oid) {
    CRACK_CHECK(oid >= base_);
    const uint64_t i = oid - base_;
    const size_t w = static_cast<size_t>(i >> 6);
    if (w >= words_.size()) words_.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((words_[w] & bit) != 0) return false;
    words_[w] |= bit;
    ++count_;
    return true;
  }

  /// Removes `oid`; false when it was not a member.
  bool Clear(Oid oid) {
    if (!Test(oid)) return false;
    const uint64_t i = oid - base_;
    words_[static_cast<size_t>(i >> 6)] &= ~(uint64_t{1} << (i & 63));
    --count_;
    return true;
  }

  /// Removes every member (the words keep their capacity).
  void ClearAll() {
    words_.clear();
    count_ = 0;
  }

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Calls `fn(oid)` for every member, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t m = words_[w]; m != 0; m &= m - 1) {
        fn(base_ + (uint64_t{w} << 6) + uint64_t(__builtin_ctzll(m)));
      }
    }
  }

  /// Clears bit i of `bm` for every member `first + i`, i < n: one AND-NOT
  /// per 64 oids of the run. `first` must be at or above the base.
  void ClearMembers(Oid first, size_t n, uint64_t* bm) const {
    if (count_ == 0) return;
    CRACK_DCHECK(first >= base_);
    const uint64_t off = first - base_;
    const size_t words = std::min(OutWords(n), OutWords(StoredBitsFrom(off)));
    for (size_t k = 0; k < words; ++k) {
      bm[k] &= ~Window(off + (uint64_t{k} << 6));
    }
  }

  /// Calls `fn(i)` for every member `first + i`, i < n, ascending; runs of
  /// non-members cost one word test per 64 oids. `first` must be at or
  /// above the base.
  template <typename Fn>
  void ForEachIn(Oid first, size_t n, Fn&& fn) const {
    if (count_ == 0) return;
    CRACK_DCHECK(first >= base_);
    const uint64_t off = first - base_;
    const size_t words = std::min(OutWords(n), OutWords(StoredBitsFrom(off)));
    for (size_t k = 0; k < words; ++k) {
      uint64_t m = Window(off + (uint64_t{k} << 6));
      const size_t left = n - (k << 6);
      if (left < 64) m &= (uint64_t{1} << left) - 1;  // not past the run
      for (; m != 0; m &= m - 1) {
        fn((k << 6) + size_t(__builtin_ctzll(m)));
      }
    }
  }

 private:
  static size_t OutWords(uint64_t bits) {
    return static_cast<size_t>((bits + 63) / 64);
  }

  /// Stored bits at or after bit `off` (relative to the base).
  uint64_t StoredBitsFrom(uint64_t off) const {
    const uint64_t stored = uint64_t{words_.size()} << 6;
    return off < stored ? stored - off : 0;
  }

  /// The 64 bits starting at bit `i` (relative to the base); bits past the
  /// stored words read as zero.
  uint64_t Window(uint64_t i) const {
    const size_t w = static_cast<size_t>(i >> 6);
    const unsigned s = static_cast<unsigned>(i & 63);
    const uint64_t lo = w < words_.size() ? words_[w] : 0;
    if (s == 0) return lo;
    const uint64_t hi = w + 1 < words_.size() ? words_[w + 1] : 0;
    return (lo >> s) | (hi << (64 - s));
  }

  Oid base_;
  std::vector<uint64_t> words_;
  size_t count_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_OID_BIT_TABLE_H_
