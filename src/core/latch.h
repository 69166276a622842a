// Copyright 2026 The CrackStore Authors
//
// Latching primitives for concurrent access to a cracked store. Cracking is
// hostile to naive concurrency — every read is a potential write to the
// piece layout — so the store uses a three-level protocol:
//
//   1. a per-column reader/writer latch (std::shared_mutex, owned by the
//      facade): selections, aggregates and DML take it shared once the
//      column's accelerator is built; builds, delta merges, merge-budget
//      paths and the dictionary-string wrapper take it exclusive;
//   2. a per-column *delta latch* (plain mutex): writers append pending
//      inserts / tombstones under it, readers form their answer under it;
//   3. a piece-granular RangeLockTable (this file) keyed on slot ranges of
//      the cracker column: every crack takes its piece exclusively and
//      every answer holds its span shared while it is formed, so queries
//      whose bounds land in different pieces shuffle concurrently under the
//      *shared* column latch — pieces are disjoint slot ranges.
//
// There is one statement path: a serial store takes the same latches as a
// concurrent one, always uncontended.
//
// Lock order (outer to inner): column latch(es) -> table base latch ->
// {range locks | delta latch | tombstone latch | registry/io leaves}; a
// range lock may also be held while taking the delta latch. A thread never
// holds two range locks at once and never sleeps while holding one, so the
// table needs no deadlock detection.

#ifndef CRACKSTORE_CORE_LATCH_H_
#define CRACKSTORE_CORE_LATCH_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/instruments.h"
#include "util/macros.h"

namespace crackstore {

/// A lock table over half-open slot ranges [begin, end). Two holders
/// conflict iff their ranges overlap and at least one is exclusive. The
/// holder set is expected to stay small (one entry per in-flight query), so
/// conflict checks are a linear scan under one mutex; the expensive work —
/// the crack kernel's shuffle — runs outside it.
class RangeLockTable {
 public:
  RangeLockTable() = default;
  CRACK_DISALLOW_COPY_AND_ASSIGN(RangeLockTable);

  /// Blocks until [begin, end) has no conflicting holder, then registers
  /// the caller. Empty ranges (begin >= end) are no-ops.
  void Acquire(size_t begin, size_t end, bool exclusive) {
    if (begin >= end) return;
    std::unique_lock<std::mutex> lk(mu_);
    obs::RecordLatchAcquisition();
    if (Conflicts(begin, end, exclusive)) {
      // Only a blocked acquisition pays for the clock reads; the fast path
      // above stays a mutex + linear scan.
      const auto wait_start = std::chrono::steady_clock::now();
      cv_.wait(lk, [&] { return !Conflicts(begin, end, exclusive); });
      const auto waited = std::chrono::steady_clock::now() - wait_start;
      obs::RecordLatchWait(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
              .count()));
    }
    held_.push_back(Held{begin, end, exclusive});
  }

  /// Releases one registration made by Acquire with identical arguments.
  void Release(size_t begin, size_t end, bool exclusive) {
    if (begin >= end) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto it = held_.begin(); it != held_.end(); ++it) {
        if (it->begin == begin && it->end == end &&
            it->exclusive == exclusive) {
          held_.erase(it);
          break;
        }
      }
    }
    cv_.notify_all();
  }

  /// Holders currently registered (test support).
  size_t holders() const {
    std::lock_guard<std::mutex> lk(mu_);
    return held_.size();
  }

 private:
  struct Held {
    size_t begin;
    size_t end;
    bool exclusive;
  };

  bool Conflicts(size_t begin, size_t end, bool exclusive) const {
    for (const Held& h : held_) {
      if (h.begin < end && begin < h.end && (exclusive || h.exclusive)) {
        return true;
      }
    }
    return false;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Held> held_;
};

/// RAII holder of one RangeLockTable registration. Movable so factories can
/// hand guards out; the moved-from guard releases nothing.
class RangeLockGuard {
 public:
  RangeLockGuard() = default;

  RangeLockGuard(RangeLockTable* table, size_t begin, size_t end,
                 bool exclusive)
      : table_(table), begin_(begin), end_(end), exclusive_(exclusive) {
    if (table_ != nullptr) table_->Acquire(begin_, end_, exclusive_);
  }

  RangeLockGuard(RangeLockGuard&& other) noexcept
      : table_(other.table_),
        begin_(other.begin_),
        end_(other.end_),
        exclusive_(other.exclusive_) {
    other.table_ = nullptr;
  }

  RangeLockGuard& operator=(RangeLockGuard&& other) noexcept {
    if (this != &other) {
      Reset();
      table_ = other.table_;
      begin_ = other.begin_;
      end_ = other.end_;
      exclusive_ = other.exclusive_;
      other.table_ = nullptr;
    }
    return *this;
  }

  RangeLockGuard(const RangeLockGuard&) = delete;
  RangeLockGuard& operator=(const RangeLockGuard&) = delete;

  ~RangeLockGuard() { Reset(); }

  void Reset() {
    if (table_ != nullptr) {
      table_->Release(begin_, end_, exclusive_);
      table_ = nullptr;
    }
  }

 private:
  RangeLockTable* table_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool exclusive_ = false;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_LATCH_H_
