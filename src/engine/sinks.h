// Copyright 2026 The CrackStore Authors
//
// Result delivery sinks (paper §2.1, Fig. 1): the cost of a query depends
// heavily on where its answer goes — (a) materialized into a new table,
// (b) shipped to the front-end, or (c) merely counted: `Delivery`'s
// kMaterialize, kView and kCount (core/access_path.h). Each sink performs
// the real work of its mode (journaled inserts, wire formatting, nothing)
// so the benchmarked spread is genuine, not simulated.

#ifndef CRACKSTORE_ENGINE_SINKS_H_
#define CRACKSTORE_ENGINE_SINKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rowstore/row_table.h"
#include "storage/types.h"
#include "util/status.h"

namespace crackstore {

/// Consumer of result tuples.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Receives one result tuple.
  virtual Status Consume(const std::vector<Value>& row) = 0;

  /// Called once after the last tuple (commit point / flush).
  virtual Status Finish() { return Status::OK(); }

  /// Tuples consumed so far.
  uint64_t count() const { return count_; }

 protected:
  uint64_t count_ = 0;
};

/// Mode (c): counts tuples, nothing else.
class CountSink : public ResultSink {
 public:
  Status Consume(const std::vector<Value>& row) override {
    (void)row;
    ++count_;
    return Status::OK();
  }
};

/// Mode (b): encodes every tuple as a length-framed tagged binary row (as
/// DB wire protocols do) into a wire buffer and periodically "flushes" by
/// recycling the buffer. The encoding cost is real; nothing reaches stdout.
class FrontendSink : public ResultSink {
 public:
  explicit FrontendSink(size_t flush_bytes = 64 * 1024)
      : flush_bytes_(flush_bytes) {}

  Status Consume(const std::vector<Value>& row) override;

  /// Total bytes that crossed the simulated wire.
  uint64_t bytes_shipped() const { return bytes_shipped_; }

 private:
  size_t flush_bytes_;
  std::string buffer_;
  uint64_t bytes_shipped_ = 0;
};

/// Mode (a): inserts every tuple into a fresh RowTable (with its journal),
/// then commits.
class RowMaterializeSink : public ResultSink {
 public:
  explicit RowMaterializeSink(std::shared_ptr<RowTable> target)
      : target_(std::move(target)) {}

  Status Consume(const std::vector<Value>& row) override {
    ++count_;
    return target_->Insert(row);
  }

  Status Finish() override {
    target_->Commit();
    return Status::OK();
  }

 private:
  std::shared_ptr<RowTable> target_;
};

}  // namespace crackstore

#endif  // CRACKSTORE_ENGINE_SINKS_H_
