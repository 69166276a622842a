// Copyright 2026 The CrackStore Authors
//
// SnapshotColumn: one base column read by oid at a statement's snapshot.
// The value a snapshot sees is the base value, unless the row was written
// after the snapshot; then the column's SnapshotView carries the older value
// as an override. Every read of base values that bypasses the access paths
// (the conjunction probe, aggregate sinks, projections) goes through this
// class, so the snapshot rule lives in one place.
//
// RowProbe compiles one range conjunct against a SnapshotColumn and tests
// rows with the access paths' own predicate semantics: numeric endpoints
// lower through TypedRange::ToNumericBounds and compare in the column's
// domain, string endpoints compare bytewise (the order the dictionary
// encoding preserves).

#ifndef CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_
#define CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>

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

  /// Integer columns (int32/int64), int64-widened.
  int64_t IntAt(Oid oid) const {
    if (const Value* ov = Override(oid)) return ov->ToInt64();
    size_t row = static_cast<size_t>(oid - base_);
    return i64_ != nullptr ? i64_[row] : static_cast<int64_t>(i32_[row]);
  }

  /// Float64 columns.
  double DoubleAt(Oid oid) const {
    if (const Value* ov = Override(oid)) {
      return ov->is_double() ? ov->AsDouble()
                             : static_cast<double>(ov->ToInt64());
    }
    return f64_[oid - base_];
  }

  /// String columns.
  std::string_view StringAt(Oid oid) const {
    if (const Value* ov = Override(oid)) return ov->AsString();
    return bat_->GetString(static_cast<size_t>(oid - base_));
  }

  /// Any column, dynamically typed.
  Value ValueAt(Oid oid) const;

  /// Appends the row's value to `dst` (a column of the same type).
  Status AppendTo(Oid oid, Bat* dst) const;

 private:
  const Value* Override(Oid oid) const {
    if (overrides_.empty()) return nullptr;
    auto it = overrides_.find(oid);
    return it == overrides_.end() ? nullptr : &it->second;
  }

  std::shared_ptr<Bat> bat_;
  ValueType type_;
  Oid base_;
  const int32_t* i32_ = nullptr;
  const int64_t* i64_ = nullptr;
  const double* f64_ = nullptr;
  std::unordered_map<Oid, Value> overrides_;
};

/// One range conjunct compiled against a SnapshotColumn (see file comment).
class RowProbe {
 public:
  /// TypeMismatch when the range's family does not fit the column — the
  /// error the column's access path would report.
  static Result<RowProbe> Make(const SnapshotColumn* column,
                               const TypedRange& range);

  /// Branch-free for numeric columns: a probe's outcome is data-dependent,
  /// so a mispredicted branch per row would serialize the random base
  /// reads that a walk over many rows otherwise overlaps.
  bool Test(Oid oid) const {
    switch (kind_) {
      case Kind::kInt:
        // One unsigned compare against the inclusive interval [lo_i, hi_i].
        return static_cast<uint64_t>(column_->IntAt(oid)) - lo_i_ <= width_;
      case Kind::kDouble: {
        double v = column_->DoubleAt(oid);
        return ((v > lo_) | (lo_incl_ & (v == lo_))) &
               ((v < hi_) | (hi_incl_ & (v == hi_)));
      }
      case Kind::kString:
        return range_.Contains(column_->StringAt(oid));
      case Kind::kNever:
        break;
    }
    return false;
  }

 private:
  enum class Kind : uint8_t { kInt, kDouble, kString, kNever };

  const SnapshotColumn* column_ = nullptr;
  Kind kind_ = Kind::kInt;
  uint64_t lo_i_ = 0;    ///< kInt: inclusive lower bound (as uint64)
  uint64_t width_ = 0;   ///< kInt: hi - lo of the inclusive interval
  double lo_ = 0.0;      ///< kDouble: bounds in the column's domain
  double hi_ = 0.0;
  bool lo_incl_ = true;
  bool hi_incl_ = true;
  TypedRange range_;     ///< kString
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_SNAPSHOT_COLUMN_H_
