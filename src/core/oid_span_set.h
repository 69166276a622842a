// Copyright 2026 The CrackStore Authors
//
// OidSpanSet: the one answer shape of the read path. Cracking's central
// property (paper §2.2) is that a range answer is a *contiguous piece* of the
// cracked column; materializing it into a std::vector<Oid> throws that away
// and caps every downstream consumer at pointer-chasing speed. Every access
// path (crack, sort, scan, dictionary) answers as an OidSpanSet:
//
//   * an ordered list of contiguous [begin, end) position spans over one
//     layout — either a permuted oid column (the cracker/sorted oid BAT) or
//     the identity layout (oid = identity_base + position, the scan case);
//   * a word-wise exception bitmap over the concatenated span positions,
//     marking rows the answer must *exclude* (snapshot-hidden rows, vacuum
//     tombstones, value misses inside a conservative coarse or progressive
//     piece);
//   * a list of extra oids the spans cannot express (delta-buffer inserts,
//     snapshot override re-admissions).
//
// ToOids() is the only place an answer's oid list is built, and it runs only
// at true materialization boundaries; counts, aggregates and span-aware
// intersections consume the spans directly. Consumers that read base
// columns by oid walk the set with ForEachBlock: up to 64 oids at a time,
// aligned to one exception-bitmap word, with the block's live mask — so a
// gather is one typed loop per block, and a filter (Narrow) writes one
// exception word per block.
//
// Contract: a set over a cracker column's oid map must be consumed before
// the next crack of that column, which may reshuffle the positions its spans
// name (the serial-statement contract). An answer that must outlive its
// range lock — a crack answer of a store shared with other threads — is
// Detach()ed first: its rows move into the sorted extras list and the set
// stops reading the map. A sorted copy is replaced on merge, never rewritten
// in place, and the set pins the copy it spans; identity spans borrow
// nothing.

#ifndef CRACKSTORE_CORE_OID_SPAN_SET_H_
#define CRACKSTORE_CORE_OID_SPAN_SET_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "storage/bat.h"
#include "storage/types.h"

namespace crackstore {

/// One contiguous [begin, end) position range over the bound layout.
struct OidSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Rows per block of the block read path: one word of an answer's
/// exception bitmap.
inline constexpr size_t kBlockRows = 64;

/// The live mask of a full block of n rows (bits 0..n-1).
inline uint64_t BlockMask(size_t n) {
  return n >= kBlockRows ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// One block of an answer: up to kBlockRows oids and the rows among them
/// that are in the answer (bit i of `live` for oids[i]).
struct OidBlock {
  const Oid* oids = nullptr;
  size_t n = 0;
  uint64_t live = 0;
};

/// See file comment.
class OidSpanSet {
 public:
  OidSpanSet() = default;

  /// Binds the permuted layout: position p of a span resolves to
  /// oid_map[p]. The map is shared (zero-copy) with the accelerator; the
  /// set pins it alive (see the contract in the file comment).
  void BindOidMap(std::shared_ptr<Bat> oid_map) {
    oid_map_ = std::move(oid_map);
  }

  /// Binds the identity layout: position p resolves to base + p.
  void BindIdentity(Oid base) {
    oid_map_ = nullptr;
    identity_base_ = base;
  }

  bool identity() const { return oid_map_ == nullptr; }
  Oid identity_base() const { return identity_base_; }
  const std::shared_ptr<Bat>& oid_map() const { return oid_map_; }

  /// Appends a span; coalesces with the previous span when adjacent.
  /// Spans must arrive in ascending, non-overlapping position order.
  void AddSpan(size_t begin, size_t end);

  /// Excludes the row at concatenated span position `concat_pos` (position
  /// within the concatenation of all spans added so far, in order).
  void MarkException(size_t concat_pos);

  /// Adds an oid the spans cannot express (delta insert / override
  /// re-admission). Sorted lazily at consumption time.
  void AddExtra(Oid oid) {
    extras_.push_back(oid);
    detached_ = false;
  }

  /// Total positions covered by the spans (before exceptions).
  uint64_t span_rows() const { return span_rows_; }
  uint64_t exceptions() const { return exception_count_; }
  uint64_t extras() const { return extras_.size(); }
  size_t num_spans() const { return spans_.size(); }
  const std::vector<OidSpan>& spans() const { return spans_; }
  const std::vector<Oid>& extra_oids() const { return extras_; }

  /// True once Detach() has run: the rows are the ascending extras list.
  bool detached() const { return detached_; }

  /// Qualifying rows: span positions minus exceptions plus extras.
  uint64_t count() const {
    return span_rows_ - exception_count_ + extras_.size();
  }

  /// True when position `concat_pos` is excluded by the exception overlay.
  bool IsException(size_t concat_pos) const {
    size_t w = concat_pos >> 6;
    if (w >= exceptions_.size()) return false;
    return (exceptions_[w] >> (concat_pos & 63)) & 1u;
  }

  /// Invokes fn(const OidBlock&) for every block of the set: the spans
  /// first (layout order, NOT oid order for permuted layouts), one block per
  /// exception-bitmap word a span covers, then the extras 64 at a time.
  /// Blocks whose rows are all exceptions are skipped.
  template <typename Fn>
  void ForEachBlock(Fn&& fn) const {
    WalkBlocks([&fn](const OidBlock& block, size_t, size_t) { fn(block); });
  }

  /// Narrows the set to the live rows whose bit pass(block) sets: a span
  /// block's failing rows become one OR into their exception word, failing
  /// extras drop out, so a filtered answer still builds no oid list.
  template <typename Pass>
  void Narrow(Pass&& pass) {
    if (!spans_.empty()) {
      exceptions_.resize(std::max(exceptions_.size(), (span_rows_ + 63) / 64));
    }
    size_t kept = 0;
    WalkBlocks([&](const OidBlock& block, size_t word, size_t shift) {
      const uint64_t keep = pass(block) & block.live;
      if (word != kExtrasWord) {
        const uint64_t fail = block.live & ~keep;
        exceptions_[word] |= fail << shift;
        exception_count_ += static_cast<uint64_t>(__builtin_popcountll(fail));
        return;
      }
      // Extras blocks are all live; compaction writes at or behind the read.
      for (uint64_t m = keep; m != 0; m &= m - 1) {
        extras_[kept++] = block.oids[__builtin_ctzll(m)];
      }
    });
    extras_.resize(kept);
  }

  /// The qualifying oids, ascending. The only place an answer's oid list is
  /// built — call it only when a consumer genuinely needs the list. A
  /// permuted answer is ordered by SortOids. The rvalue overload hands a
  /// detached list out without a copy or a sort.
  std::vector<Oid> ToOids() const&;
  std::vector<Oid> ToOids() &&;

  /// A detached set over `oids`, which must be ascending and distinct.
  static OidSpanSet FromSortedOids(std::vector<Oid> oids);

  /// Resolves every row into the extras list (ToOids) and drops the spans,
  /// exceptions and layout binding, so the set no longer reads the
  /// accelerator. Called under the answer span's range lock when the answer
  /// must outlive it.
  void Detach();

  /// Builds an identity-layout span set from a match bitmap over
  /// [base, base + n): runs of set bits become spans (no exceptions).
  static OidSpanSet FromMatchBitmap(const uint64_t* bm, size_t n, Oid base);

 private:
  /// The word argument WalkBlocks passes for an extras block.
  static constexpr size_t kExtrasWord = ~size_t{0};

  /// The one block walk: fn(block, word, shift) per block, where a span
  /// block's row i is concatenated position word * 64 + shift + i.
  template <typename Fn>
  void WalkBlocks(Fn&& fn) const {
    const Oid* map = oid_map_ ? oid_map_->TailData<Oid>() : nullptr;
    Oid identity[kBlockRows];
    size_t concat = 0;
    for (const OidSpan& s : spans_) {
      for (size_t p = s.begin; p < s.end;) {
        const size_t word = concat >> 6;
        const size_t shift = concat & 63;
        const size_t n = std::min(kBlockRows - shift, s.end - p);
        uint64_t live = BlockMask(n);
        if (word < exceptions_.size()) live &= ~(exceptions_[word] >> shift);
        if (live != 0) {
          const Oid* oids = identity;
          if (map != nullptr) {
            oids = map + p;
          } else {
            for (size_t i = 0; i < n; ++i) identity[i] = identity_base_ + p + i;
          }
          fn(OidBlock{oids, n, live}, word, shift);
        }
        p += n;
        concat += n;
      }
    }
    for (size_t i = 0; i < extras_.size(); i += kBlockRows) {
      const size_t n = std::min(kBlockRows, extras_.size() - i);
      fn(OidBlock{extras_.data() + i, n, BlockMask(n)}, kExtrasWord, 0);
    }
  }

  std::shared_ptr<Bat> oid_map_;  ///< null => identity layout
  Oid identity_base_ = 0;
  std::vector<OidSpan> spans_;
  std::vector<uint64_t> exceptions_;  ///< bitmap over concatenated positions
  std::vector<Oid> extras_;
  uint64_t span_rows_ = 0;
  uint64_t exception_count_ = 0;
  bool detached_ = false;  ///< extras_ holds every row, ascending
};

/// Sorts `oids` ascending: std::sort below kRadixSortMinOids, else an LSD
/// radix sort of (oid - min) through one scratch buffer, in as few passes of
/// at most 11-bit digits as the range (max - min) needs.
void SortOids(std::vector<Oid>* oids);

/// Below this many oids SortOids keeps std::sort: a histogram pass would
/// cost more than the sort (a DML statement's 1-2-row answer allocates
/// nothing).
inline constexpr size_t kRadixSortMinOids = 256;

/// Intersects two identity-layout span sets by interval overlap, producing
/// a third identity span set over *absolute* oids (identity base 0) —
/// O(spans_a + spans_b), no per-row work at all. A scan-strategy
/// conjunction leg answers with such spans, so two clean legs intersect
/// without an oid list. Requires both sets to be identity() and to carry no
/// exceptions or extras.
OidSpanSet IntersectIdentitySpanSets(const OidSpanSet& a,
                                     const OidSpanSet& b);

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_OID_SPAN_SET_H_
