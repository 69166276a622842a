// Copyright 2026 The CrackStore Authors
//
// OidSpanSet: the zero-materialization answer representation of the read
// path. Cracking's central property (paper §2.2) is that a range answer is a
// *contiguous piece* of the cracked column; materializing it into a
// std::vector<Oid> throws that away and caps every downstream consumer at
// pointer-chasing speed. An OidSpanSet keeps the answer as
//
//   * an ordered list of contiguous [begin, end) position spans over one
//     layout — either a permuted oid column (the cracker/sorted oid BAT) or
//     the identity layout (oid = identity_base + position, the scan case);
//   * a word-wise exception bitmap over the concatenated span positions,
//     marking rows the answer must *exclude* (snapshot-hidden rows, vacuum
//     tombstones, value misses inside a conservative piece);
//   * a sorted list of extra oids the spans cannot express (delta-buffer
//     inserts, snapshot override re-admissions).
//
// ToOids() is lazy and only runs at true materialization boundaries; counts,
// aggregates and span-aware intersections consume the spans directly.

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

/// See file comment.
class OidSpanSet {
 public:
  OidSpanSet() = default;

  /// Binds the permuted layout: position p of a span resolves to
  /// oid_map[p]. The map is shared (zero-copy) with the accelerator; the
  /// set pins it alive. Callers must not consume the set after the
  /// accelerator may have reshuffled (the serial-statement contract).
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
  void AddExtra(Oid oid);

  /// Total positions covered by the spans (before exceptions).
  uint64_t span_rows() const { return span_rows_; }
  uint64_t exceptions() const { return exception_count_; }
  uint64_t extras() const { return extras_.size(); }
  size_t num_spans() const { return spans_.size(); }
  const std::vector<OidSpan>& spans() const { return spans_; }
  const std::vector<Oid>& extra_oids() const { return extras_; }

  /// True when the set carries no structure at all (never populated).
  bool empty_structure() const {
    return spans_.empty() && extras_.empty();
  }

  /// Qualifying rows: span positions minus exceptions plus extras.
  uint64_t count() const {
    return span_rows_ - exception_count_ + extras_.size();
  }

  /// True when position `concat_pos` is excluded by the exception overlay.
  bool IsException(size_t concat_pos) const {
    if (exceptions_.empty()) return false;
    size_t w = concat_pos >> 6;
    if (w >= exceptions_.size()) return false;
    return (exceptions_[w] >> (concat_pos & 63)) & 1u;
  }

  /// Invokes fn(oid) for every included row, spans first (layout order,
  /// NOT oid order for permuted layouts), then extras.
  template <typename Fn>
  void ForEachOid(Fn&& fn) const {
    const Oid* map =
        oid_map_ ? oid_map_->TailData<Oid>() : nullptr;
    const bool filtered = exception_count_ > 0;
    size_t concat = 0;
    for (const OidSpan& s : spans_) {
      if (map != nullptr && !filtered) {
        // The hot shape (a clean cracked piece): a straight pass over the
        // oid map.
        for (size_t p = s.begin; p < s.end; ++p) fn(map[p]);
        concat += s.size();
        continue;
      }
      for (size_t p = s.begin; p < s.end; ++p, ++concat) {
        if (filtered && IsException(concat)) continue;
        fn(map ? map[p] : identity_base_ + p);
      }
    }
    for (Oid oid : extras_) fn(oid);
  }

  /// Narrows the set to the rows for which keep(oid) holds: failing span
  /// rows become exception bits and failing extras drop out, so a filtered
  /// answer still builds no oid list.
  template <typename Keep>
  void Retain(Keep&& keep) {
    const Oid* map = oid_map_ ? oid_map_->TailData<Oid>() : nullptr;
    exceptions_.resize(std::max(exceptions_.size(), (span_rows_ + 63) / 64));
    size_t concat = 0;
    for (const OidSpan& s : spans_) {
      for (size_t p = s.begin; p < s.end; ++p, ++concat) {
        // Branch-free on keep's outcome (see RowProbe::Test).
        uint64_t& word = exceptions_[concat >> 6];
        const uint64_t bit = uint64_t{1} << (concat & 63);
        const uint64_t drop =
            bit & (uint64_t{0} - !keep(map ? map[p] : identity_base_ + p));
        exception_count_ += (drop & ~word) != 0;
        word |= drop;
      }
    }
    size_t kept = 0;
    for (Oid oid : extras_) {
      extras_[kept] = oid;
      kept += keep(oid);
    }
    extras_.resize(kept);
  }

  /// Materializes the qualifying oids, ascending. The lazy boundary — call
  /// only when a consumer genuinely needs the list.
  std::vector<Oid> ToOids() const;

  /// Builds an identity-layout span set from a match bitmap over
  /// [base, base + n): runs of set bits become spans (no exceptions).
  static OidSpanSet FromMatchBitmap(const uint64_t* bm, size_t n, Oid base);

 private:
  std::shared_ptr<Bat> oid_map_;  ///< null => identity layout
  Oid identity_base_ = 0;
  std::vector<OidSpan> spans_;
  std::vector<uint64_t> exceptions_;  ///< bitmap over concatenated positions
  std::vector<Oid> extras_;
  uint64_t span_rows_ = 0;
  uint64_t exception_count_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_OID_SPAN_SET_H_
