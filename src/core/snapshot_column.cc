// Copyright 2026 The CrackStore Authors

#include "core/snapshot_column.h"

#include <cstdint>
#include <utility>

#include "util/string_util.h"

namespace crackstore {

SnapshotColumn::SnapshotColumn(std::shared_ptr<Bat> bat,
                               const SnapshotView& view)
    : bat_(std::move(bat)),
      type_(bat_->tail_type()),
      base_(bat_->head_base()) {
  switch (type_) {
    case ValueType::kInt32:
      i32_ = bat_->TailData<int32_t>();
      break;
    case ValueType::kInt64:
      i64_ = bat_->TailData<int64_t>();
      break;
    case ValueType::kFloat64:
      f64_ = bat_->TailData<double>();
      break;
    default:
      break;
  }
  if (view.active()) {
    overrides_.reserve(view.overrides().size());
    for (const auto& [oid, value] : view.overrides()) {
      overrides_.emplace(oid, value);
    }
  }
}

Value SnapshotColumn::ValueAt(Oid oid) const {
  if (const Value* ov = Override(oid)) return *ov;
  return bat_->GetValue(static_cast<size_t>(oid - base_));
}

Status SnapshotColumn::AppendTo(Oid oid, Bat* dst) const {
  if (const Value* ov = Override(oid)) return dst->AppendValue(*ov);
  size_t row = static_cast<size_t>(oid - base_);
  switch (type_) {
    case ValueType::kInt32:
      dst->Append<int32_t>(i32_[row]);
      return Status::OK();
    case ValueType::kInt64:
      dst->Append<int64_t>(i64_[row]);
      return Status::OK();
    case ValueType::kFloat64:
      dst->Append<double>(f64_[row]);
      return Status::OK();
    case ValueType::kString:
      dst->AppendString(bat_->GetString(row));
      return Status::OK();
    default:
      return dst->AppendValue(bat_->GetValue(row));
  }
}

Result<RowProbe> RowProbe::Make(const SnapshotColumn* column,
                                const TypedRange& range) {
  RowProbe probe;
  probe.column_ = column;
  const ValueType type = column->type();
  if (type == ValueType::kString) {
    if ((!range.lo.is_null() && !range.lo.is_string()) ||
        (!range.hi.is_null() && !range.hi.is_string())) {
      return Status::TypeMismatch("numeric predicate on a string column");
    }
    probe.kind_ = Kind::kString;
    probe.range_ = range;
    return probe;
  }
  if (type != ValueType::kInt32 && type != ValueType::kInt64 &&
      type != ValueType::kFloat64) {
    return Status::Unimplemented(StrFormat("no range predicate on %s columns",
                                           ValueTypeName(type)));
  }
  if (range.has_string()) {
    return Status::TypeMismatch(
        "string predicate on a numeric access path (string bounds need a "
        "string column)");
  }
  const RangeBounds b = range.ToNumericBounds();
  if (type == ValueType::kFloat64) {
    // The int64 bounds widen exactly as the float access paths clamp them.
    probe.kind_ = Kind::kDouble;
    probe.lo_ = static_cast<double>(b.lo);
    probe.hi_ = static_cast<double>(b.hi);
    probe.lo_incl_ = b.lo_incl;
    probe.hi_incl_ = b.hi_incl;
    return probe;
  }
  // Integers: the inclusive interval [lo, hi], or kNever when it is empty.
  const bool empty = (!b.lo_incl && b.lo == INT64_MAX) ||
                     (!b.hi_incl && b.hi == INT64_MIN);
  const int64_t lo = b.lo_incl || empty ? b.lo : b.lo + 1;
  const int64_t hi = b.hi_incl || empty ? b.hi : b.hi - 1;
  if (empty || lo > hi) {
    probe.kind_ = Kind::kNever;
    return probe;
  }
  probe.lo_i_ = static_cast<uint64_t>(lo);
  probe.width_ = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  return probe;
}

}  // namespace crackstore
