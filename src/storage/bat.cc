// Copyright 2026 The CrackStore Authors

#include "storage/bat.h"

#include <algorithm>
#include <limits>

#include "util/string_util.h"

namespace crackstore {

Bat::Bat(ValueType tail_type, std::string name, std::shared_ptr<VarHeap> heap)
    : name_(std::move(name)),
      tail_type_(tail_type),
      width_(ValueTypeWidth(tail_type)),
      heap_(std::move(heap)) {
  if (tail_type_ == ValueType::kString && heap_ == nullptr) {
    heap_ = std::make_shared<VarHeap>();
  }
}

std::shared_ptr<Bat> Bat::Create(ValueType tail_type, std::string name,
                                 std::shared_ptr<VarHeap> heap) {
  return std::shared_ptr<Bat>(
      new Bat(tail_type, std::move(name), std::move(heap)));
}

void Bat::AppendString(std::string_view s) {
  CRACK_DCHECK(tail_type_ == ValueType::kString);
  uint64_t offset = heap_->Intern(s);
  size_t pos = count_ * width_;
  if (pos + width_ > data_.size()) Grow();
  std::memcpy(data_.data() + pos, &offset, sizeof(uint64_t));
  ++count_;
  InvalidateStats();
}

Status Bat::AppendValue(const Value& v) {
  switch (tail_type_) {
    case ValueType::kInt32:
      if (!v.is_int32()) break;
      Append<int32_t>(v.AsInt32());
      return Status::OK();
    case ValueType::kInt64:
      if (v.is_int64()) {
        Append<int64_t>(v.AsInt64());
        return Status::OK();
      }
      if (v.is_int32()) {
        Append<int64_t>(v.AsInt32());
        return Status::OK();
      }
      break;
    case ValueType::kFloat64:
      if (!v.is_double()) break;
      Append<double>(v.AsDouble());
      return Status::OK();
    case ValueType::kOid:
      if (!v.is_oid()) break;
      Append<Oid>(v.AsOid());
      return Status::OK();
    case ValueType::kString:
      if (!v.is_string()) break;
      AppendString(v.AsString());
      return Status::OK();
  }
  return Status::TypeMismatch(
      StrFormat("cannot append %s to %s tail", v.ToString().c_str(),
                ValueTypeName(tail_type_)));
}

Status Bat::SetNumeric(size_t i, int64_t value) {
  if (i >= count_) {
    return Status::InvalidArgument(
        StrFormat("row %zu out of range (size %zu)", i, count_));
  }
  switch (tail_type_) {
    case ValueType::kInt32:
      if (value < std::numeric_limits<int32_t>::min() ||
          value > std::numeric_limits<int32_t>::max()) {
        return Status::InvalidArgument(
            StrFormat("value %lld overflows int32",
                      static_cast<long long>(value)));
      }
      MutableTailData<int32_t>()[i] = static_cast<int32_t>(value);
      return Status::OK();
    case ValueType::kInt64:
      MutableTailData<int64_t>()[i] = value;
      return Status::OK();
    case ValueType::kFloat64:
      MutableTailData<double>()[i] = static_cast<double>(value);
      return Status::OK();
    case ValueType::kOid:
    case ValueType::kString:
      break;
  }
  return Status::TypeMismatch(
      StrFormat("cannot overwrite %s tail with a number",
                ValueTypeName(tail_type_)));
}

Status Bat::SetString(size_t i, std::string_view s) {
  if (i >= count_) {
    return Status::InvalidArgument(
        StrFormat("row %zu out of range (size %zu)", i, count_));
  }
  if (tail_type_ != ValueType::kString) {
    return Status::TypeMismatch(
        StrFormat("cannot overwrite %s tail with a string",
                  ValueTypeName(tail_type_)));
  }
  uint64_t offset = heap_->Intern(s);
  std::memcpy(data_.data() + i * width_, &offset, sizeof(uint64_t));
  InvalidateStats();
  return Status::OK();
}

Status Bat::SetValue(size_t i, const Value& v) {
  if (v.is_string()) return SetString(i, v.AsString());
  if (tail_type_ == ValueType::kFloat64 && v.is_double()) {
    if (i >= count_) {
      return Status::InvalidArgument(
          StrFormat("row %zu out of range (size %zu)", i, count_));
    }
    MutableTailData<double>()[i] = v.AsDouble();
    return Status::OK();
  }
  if (v.is_null()) {
    return Status::InvalidArgument("cannot overwrite with a null value");
  }
  return SetNumeric(i, v.ToInt64());
}

Value Bat::GetValue(size_t i) const {
  CRACK_DCHECK(i < count_);
  switch (tail_type_) {
    case ValueType::kInt32:
      return Value(Get<int32_t>(i));
    case ValueType::kInt64:
      return Value(Get<int64_t>(i));
    case ValueType::kFloat64:
      return Value(Get<double>(i));
    case ValueType::kOid:
      return Value::FromOid(Get<Oid>(i));
    case ValueType::kString:
      return Value(std::string(GetString(i)));
  }
  return Value();
}

std::string_view Bat::GetString(size_t i) const {
  CRACK_DCHECK(tail_type_ == ValueType::kString);
  CRACK_DCHECK(i < count_);
  uint64_t offset;
  std::memcpy(&offset, data_.data() + i * width_, sizeof(uint64_t));
  return heap_->Read(offset);
}

namespace {

template <typename T>
void ScanStats(const uint8_t* data, size_t n, BatStats* stats) {
  const T* values = reinterpret_cast<const T*>(data);
  bool sorted = true;
  T mn = values[0];
  T mx = values[0];
  for (size_t i = 1; i < n; ++i) {
    sorted &= values[i - 1] <= values[i];
    mn = std::min(mn, values[i]);
    mx = std::max(mx, values[i]);
  }
  stats->sorted_asc = sorted;
  stats->min = static_cast<int64_t>(mn);
  stats->max = static_cast<int64_t>(mx);
}

}  // namespace

const BatStats& Bat::ComputeStats() const {
  if (stats_.valid) return stats_;
  stats_ = BatStats{};
  stats_.valid = true;
  if (count_ == 0) {
    stats_.sorted_asc = true;
    return stats_;
  }
  switch (tail_type_) {
    case ValueType::kInt32:
      ScanStats<int32_t>(data_.data(), count_, &stats_);
      break;
    case ValueType::kInt64:
      ScanStats<int64_t>(data_.data(), count_, &stats_);
      break;
    case ValueType::kFloat64:
      ScanStats<double>(data_.data(), count_, &stats_);
      break;
    case ValueType::kOid:
    case ValueType::kString:
      ScanStats<uint64_t>(data_.data(), count_, &stats_);
      break;
  }
  return stats_;
}

std::shared_ptr<Bat> Bat::Clone(std::string name) const {
  auto out = Create(tail_type_, name.empty() ? name_ + "_clone" : name, heap_);
  out->head_base_ = head_base_;
  out->Reserve(count_);
  if (count_ > 0) std::memcpy(out->data_.data(), data_.data(), count_ * width_);
  out->count_ = count_;
  return out;
}

std::shared_ptr<Bat> BatView::Materialize(std::string name) const {
  CRACK_DCHECK(valid());
  auto out =
      Bat::Create(bat_->tail_type(),
                  name.empty() ? bat_->name() + "_view" : name, bat_->heap());
  out->set_head_base(bat_->head_base() + offset_);
  out->Reserve(size_);
  size_t width = ValueTypeWidth(bat_->tail_type());
  if (size_ > 0) {
    std::memcpy(out->mutable_raw_data(), bat_->raw_data() + offset_ * width,
                size_ * width);
  }
  out->SetCountUnsafe(size_);
  return out;
}

}  // namespace crackstore
