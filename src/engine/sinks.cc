// Copyright 2026 The CrackStore Authors

#include "engine/sinks.h"

#include <cstring>

namespace crackstore {

namespace {

template <typename T>
void PutRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// One tagged binary value: [tag byte][payload].
void PutBinaryValue(std::string* out, const Value& v) {
  if (v.is_int32()) {
    out->push_back(1);
    PutRaw<int32_t>(out, v.AsInt32());
  } else if (v.is_int64()) {
    out->push_back(2);
    PutRaw<int64_t>(out, v.AsInt64());
  } else if (v.is_double()) {
    out->push_back(3);
    PutRaw<double>(out, v.AsDouble());
  } else if (v.is_string()) {
    out->push_back(4);
    const std::string& s = v.AsString();
    PutRaw<uint32_t>(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  } else if (v.is_oid()) {
    out->push_back(5);
    PutRaw<Oid>(out, v.AsOid());
  } else {
    out->push_back(0);  // null
  }
}

}  // namespace

Status FrontendSink::Consume(const std::vector<Value>& row) {
  ++count_;
  // Row frame: [u32 length][tagged values...], patched after encoding.
  const size_t frame_start = buffer_.size();
  PutRaw<uint32_t>(&buffer_, 0);
  for (const Value& v : row) PutBinaryValue(&buffer_, v);
  uint32_t frame_len =
      static_cast<uint32_t>(buffer_.size() - frame_start - sizeof(uint32_t));
  std::memcpy(buffer_.data() + frame_start, &frame_len, sizeof(uint32_t));
  bytes_shipped_ += buffer_.size() - frame_start;
  if (buffer_.size() >= flush_bytes_) {
    buffer_.clear();  // wire flush; the bytes were already accounted
  }
  return Status::OK();
}

}  // namespace crackstore
