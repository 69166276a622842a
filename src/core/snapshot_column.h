// Copyright 2026 The CrackStore Authors
//
// SnapshotColumn: one base column read by oid at a statement's snapshot.
// The value a snapshot sees is the base value, unless the row was written
// after the snapshot; then the column's SnapshotView carries the older value
// as an override. Every read of base values that bypasses the access paths
// (the conjunction probe, aggregate sinks, projections) goes through this
// class, so the snapshot rule lives in one place.
//
// Reads are block-wise (paper §3.1's tuple reconstruction, 64 rows at a
// time): Gather reads one OidBlock's live rows in one typed loop, with no
// per-row call, status or type switch, and patches the block's overridden
// rows only when the view has overrides.
//
// RowProbe compiles one range conjunct against a SnapshotColumn and turns a
// block into a pass mask with the access paths' own predicate semantics:
// numeric endpoints lower through TypedRange::ToNumericBounds and compare in
// the column's domain, string endpoints compare bytewise (the order the
// dictionary encoding preserves).

#ifndef CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_
#define CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "core/oid_span_set.h"
#include "core/range_bounds.h"
#include "core/txn_manager.h"
#include "core/typed_range.h"
#include "storage/bat.h"
#include "util/result.h"

namespace crackstore {

/// See file comment.
class SnapshotColumn {
 public:
  /// `view` is the column's read filter at the statement's snapshot. An
  /// inactive view has no overrides, so no lookup is built.
  SnapshotColumn(std::shared_ptr<Bat> bat, const SnapshotView& view);

  ValueType type() const { return type_; }

  /// Writes the value of each live row of `block` to out[i], as the
  /// snapshot reads it. T is the column's storage type (int32_t, int64_t,
  /// double, Oid), or std::string_view for a string column, which reads its
  /// heap row by row. The slots of rows that are not live are zeroed (empty
  /// for strings).
  template <typename T>
  void Gather(const OidBlock& block, T* out) const {
    auto read = [this, &block](size_t i) -> T {
      const size_t row = static_cast<size_t>(block.oids[i] - base_);
      if constexpr (std::is_same_v<T, std::string_view>) {
        return bat_->GetString(row);
      } else {
        return static_cast<const T*>(tail_)[row];
      }
    };
    if constexpr (!std::is_same_v<T, std::string_view>) {
      CRACK_DCHECK(TypeTraits<T>::kType == type_);
    }
    if (block.live == BlockMask(block.n)) {
      for (size_t i = 0; i < block.n; ++i) out[i] = read(i);
    } else {
      std::fill(out, out + block.n, T{});
      for (uint64_t m = block.live; m != 0; m &= m - 1) {
        const size_t i = size_t(__builtin_ctzll(m));
        out[i] = read(i);
      }
    }
    if (!overrides_.empty()) PatchOverrides(block, out);
  }

 private:
  /// Replaces the value of each live row of `block` that has an override.
  template <typename T>
  void PatchOverrides(const OidBlock& block, T* out) const {
    for (uint64_t m = block.live; m != 0; m &= m - 1) {
      const size_t i = size_t(__builtin_ctzll(m));
      auto it = overrides_.find(block.oids[i]);
      if (it == overrides_.end()) continue;
      const Value& v = it->second;
      if constexpr (std::is_same_v<T, std::string_view>) {
        out[i] = v.AsString();
      } else if constexpr (std::is_same_v<T, double>) {
        out[i] = v.is_double() ? v.AsDouble()
                               : static_cast<double>(v.ToInt64());
      } else if constexpr (std::is_same_v<T, Oid>) {
        out[i] = v.is_oid() ? v.AsOid() : static_cast<Oid>(v.ToInt64());
      } else {
        out[i] = static_cast<T>(v.ToInt64());
      }
    }
  }

  std::shared_ptr<Bat> bat_;
  ValueType type_;
  Oid base_;
  const void* tail_ = nullptr;  ///< fixed-width tails (not strings)
  std::unordered_map<Oid, Value> overrides_;
};

/// One range conjunct compiled against a SnapshotColumn (see file comment).
class RowProbe {
 public:
  /// TypeMismatch when the range's family does not fit the column — the
  /// error the column's access path would report.
  static Result<RowProbe> Make(const SnapshotColumn* column,
                               const TypedRange& range);

  /// Bit i set iff row i of `block` is live and its snapshot value lies in
  /// the range. Numeric blocks compare branch-free: a probe's outcome is
  /// data-dependent, so a mispredicted branch per row would serialize the
  /// random base reads that a block otherwise overlaps.
  uint64_t Pass(const OidBlock& block) const;

 private:
  enum class Kind : uint8_t { kInt32, kInt64, kDouble, kString, kNever };

  template <typename T>
  uint64_t PassInts(const OidBlock& block) const;

  const SnapshotColumn* column_ = nullptr;
  Kind kind_ = Kind::kInt64;
  uint64_t lo_i_ = 0;    ///< integers: inclusive lower bound (as uint64)
  uint64_t width_ = 0;   ///< integers: hi - lo of the inclusive interval
  double lo_ = 0.0;      ///< kDouble: bounds in the column's domain
  double hi_ = 0.0;
  bool lo_incl_ = true;
  bool hi_incl_ = true;
  TypedRange range_;     ///< kString
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_
