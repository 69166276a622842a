// Copyright 2026 The CrackStore Authors
//
// Value types understood by the storage layer. The cracking experiments use
// fixed-width integers (tapestry tables are permutations of 1..N), but the
// store supports the usual scalar types plus strings via a variable heap.

#ifndef CRACKSTORE_STORAGE_TYPES_H_
#define CRACKSTORE_STORAGE_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>

#include "util/macros.h"

namespace crackstore {

/// Object identifier: the surrogate key that glues vertical fragments
/// together (paper §3.1, Ψ-cracking) and names tuples inside BATs.
using Oid = uint64_t;

/// Sentinel for "no oid".
inline constexpr Oid kInvalidOid = ~0ULL;

/// Runtime type tag of a BAT tail.
enum class ValueType : uint8_t {
  kOid = 0,
  kInt32 = 1,
  kInt64 = 2,
  kFloat64 = 3,
  kString = 4,  // stored as uint64 offsets into a VarHeap
};

/// Returns the in-storage width of a value of `type` in bytes.
inline size_t ValueTypeWidth(ValueType type) {
  switch (type) {
    case ValueType::kOid:
      return sizeof(Oid);
    case ValueType::kInt32:
      return sizeof(int32_t);
    case ValueType::kInt64:
      return sizeof(int64_t);
    case ValueType::kFloat64:
      return sizeof(double);
    case ValueType::kString:
      return sizeof(uint64_t);
  }
  return 0;
}

/// Stable display name, e.g. "int64".
const char* ValueTypeName(ValueType type);

/// Maps a C++ type to its ValueType tag (compile-time).
template <typename T>
struct TypeTraits;

template <>
struct TypeTraits<int32_t> {
  static constexpr ValueType kType = ValueType::kInt32;
};
template <>
struct TypeTraits<int64_t> {
  static constexpr ValueType kType = ValueType::kInt64;
};
template <>
struct TypeTraits<double> {
  static constexpr ValueType kType = ValueType::kFloat64;
};
template <>
struct TypeTraits<Oid> {
  static constexpr ValueType kType = ValueType::kOid;
};

/// The store's value order: numbers ascending, NaN after every number. It
/// is the order crack kernels partition by (a NaN fails every `v < pivot`
/// and `v <= pivot`, so it lies in no range), and the one sorted copies and
/// value-ordered tables keep.
template <typename T>
inline bool ValueLess(T a, T b) {
  // a == a is false only for NaN.
  return a < b || (a == a && b != b);
}

/// A dynamically-typed scalar used at API boundaries (predicate constants,
/// row materialization). Hot loops never touch Value; they run on typed
/// contiguous arrays.
class Value {
 public:
  Value() : repr_(std::monostate{}) {}
  explicit Value(int32_t v) : repr_(v) {}
  explicit Value(int64_t v) : repr_(v) {}
  explicit Value(double v) : repr_(v) {}
  explicit Value(std::string v) : repr_(std::move(v)) {}

  static Value FromOid(Oid oid) {
    Value v;
    v.repr_ = oid;
    return v;
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(repr_); }
  bool is_int32() const { return std::holds_alternative<int32_t>(repr_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_oid() const { return std::holds_alternative<Oid>(repr_); }

  int32_t AsInt32() const { return std::get<int32_t>(repr_); }
  int64_t AsInt64() const { return std::get<int64_t>(repr_); }
  double AsDouble() const { return std::get<double>(repr_); }
  const std::string& AsString() const { return std::get<std::string>(repr_); }
  Oid AsOid() const { return std::get<Oid>(repr_); }

  /// Numeric widening view: any numeric alternative as int64 (DCHECKs on
  /// strings/null).
  int64_t ToInt64() const;

  /// Renders the value for diagnostics.
  std::string ToString() const;

  bool operator==(const Value& other) const { return repr_ == other.repr_; }
  bool operator!=(const Value& other) const { return !(*this == other); }

 private:
  std::variant<std::monostate, int32_t, int64_t, double, std::string, Oid>
      repr_;
};

}  // namespace crackstore

#endif  // CRACKSTORE_STORAGE_TYPES_H_
