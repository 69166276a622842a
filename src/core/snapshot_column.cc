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
  if (type_ != ValueType::kString) tail_ = bat_->raw_data();
  if (view.active()) {
    overrides_.reserve(view.overrides().size());
    for (const auto& [oid, value] : view.overrides()) {
      overrides_.emplace(oid, value);
    }
  }
}

template <typename T>
uint64_t RowProbe::PassInts(const OidBlock& block) const {
  T values[kBlockRows];
  column_->Gather(block, values);
  uint64_t pass = 0;
  for (size_t i = 0; i < block.n; ++i) {
    // One unsigned compare against the inclusive interval [lo_i, hi_i].
    const uint64_t v = static_cast<uint64_t>(static_cast<int64_t>(values[i]));
    pass |= uint64_t{v - lo_i_ <= width_} << i;
  }
  return pass & block.live;
}

uint64_t RowProbe::Pass(const OidBlock& block) const {
  switch (kind_) {
    case Kind::kInt32:
      return PassInts<int32_t>(block);
    case Kind::kInt64:
      return PassInts<int64_t>(block);
    case Kind::kDouble: {
      double values[kBlockRows];
      column_->Gather(block, values);
      uint64_t pass = 0;
      for (size_t i = 0; i < block.n; ++i) {
        const double v = values[i];
        const bool in = ((v > lo_) | (lo_incl_ & (v == lo_))) &
                        ((v < hi_) | (hi_incl_ & (v == hi_)));
        pass |= uint64_t{in} << i;
      }
      return pass & block.live;
    }
    case Kind::kString: {
      std::string_view values[kBlockRows];
      column_->Gather(block, values);
      uint64_t pass = 0;
      for (uint64_t m = block.live; m != 0; m &= m - 1) {
        const size_t i = size_t(__builtin_ctzll(m));
        pass |= uint64_t{range_.Contains(values[i])} << i;
      }
      return pass;
    }
    case Kind::kNever:
      break;
  }
  return 0;
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
  probe.kind_ = type == ValueType::kInt32 ? Kind::kInt32 : Kind::kInt64;
  probe.lo_i_ = static_cast<uint64_t>(lo);
  probe.width_ = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  return probe;
}

}  // namespace crackstore
