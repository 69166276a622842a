// Copyright 2026 The CrackStore Authors

#include "core/radix_partition.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/simd_dispatch.h"
#include "util/macros.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace crackstore {
namespace {

constexpr size_t kLineBytes = 64;

/// Write-combines one output array of the scatter. Per range it buffers the
/// cache line of the array that the range's next slot falls in; a buffer is
/// written out once that line is complete. A line wholly inside its range
/// goes out as one line (streaming stores when kStream); the partial lines
/// at a range's two ends, shared with its neighbours, take plain stores.
/// Lines follow the array's own address, so values and oids each flush
/// whole cache lines whatever their alignment.
template <typename T, bool kStream>
class LineCombiner {
 public:
  static constexpr size_t kSlots = kLineBytes / sizeof(T);

  /// `begins[p]` is the first slot of range p in `out`.
  LineCombiner(T* out, const size_t* begins, size_t ranges)
      : out_(out),
        begins_(begins),
        phase_((reinterpret_cast<uintptr_t>(out) % kLineBytes) / sizeof(T)),
        lines_(ranges) {}

  /// Buffers `v` for slot `at` of range p.
  void Put(size_t p, size_t at, T v) {
    const size_t slot = (at + phase_) & (kSlots - 1);
    lines_[p].slot[slot] = v;
    if (slot == kSlots - 1) Flush(p, at + 1);
  }

  /// Writes out what range p still buffers once its last slot is `end - 1`.
  void Finish(size_t p, size_t end) {
    const size_t last = (end - 1 + phase_) & (kSlots - 1);
    if (end > begins_[p] && last != kSlots - 1) Flush(p, end);
  }

 private:
  struct alignas(kLineBytes) Line {
    T slot[kSlots];
  };

  /// Writes range p's buffered slots of the line holding slot end - 1.
  void Flush(size_t p, size_t end) {
    const size_t last = (end - 1 + phase_) & (kSlots - 1);
    const size_t count = std::min(last + 1, end - begins_[p]);
    const T* from = lines_[p].slot + last + 1 - count;
    T* to = out_ + end - count;
#if defined(__SSE2__)
    if constexpr (kStream) {
      if (count == kSlots) {  // `to` starts a cache line
        const __m128i* s = reinterpret_cast<const __m128i*>(from);
        __m128i* d = reinterpret_cast<__m128i*>(to);
        for (size_t k = 0; k < kLineBytes / 16; ++k) {
          _mm_stream_si128(d + k, _mm_load_si128(s + k));
        }
        return;
      }
    }
#endif
    std::memcpy(to, from, count * sizeof(T));
  }

  T* out_;
  const size_t* begins_;
  size_t phase_;
  std::vector<Line> lines_;
};

/// The scatter pass: every value and its oid to the next slot of its range.
template <typename T, bool kStream>
void Scatter(const T* src, size_t n, Oid base, uint64_t umin, unsigned shift,
             const std::vector<RadixRange>& ranges, T* values, Oid* oids) {
  std::vector<size_t> begins(ranges.size());
  for (size_t p = 0; p < ranges.size(); ++p) begins[p] = ranges[p].begin;
  std::vector<size_t> next = begins;
  LineCombiner<T, kStream> value_lines(values, begins.data(), begins.size());
  LineCombiner<Oid, kStream> oid_lines(oids, begins.data(), begins.size());
  for (size_t i = 0; i < n; ++i) {
    const T v = src[i];
    const size_t p = static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<int64_t>(v)) - umin) >> shift);
    const size_t at = next[p]++;
    value_lines.Put(p, at, v);
    oid_lines.Put(p, at, base + i);
  }
  for (size_t p = 0; p < ranges.size(); ++p) {
    value_lines.Finish(p, next[p]);
    oid_lines.Finish(p, next[p]);
  }
#if defined(__SSE2__)
  // Streaming stores are weakly ordered: fence them before the caller
  // publishes the column to other threads.
  if constexpr (kStream) _mm_sfence();
#endif
}

}  // namespace

template <typename T>
RadixLayout<T> RadixPartition(const T* src, size_t n, Oid base, int bits,
                              T* values, Oid* oids, bool streaming) {
  CRACK_CHECK(bits >= 0 && bits <= kMaxPartitionBits);
  RadixLayout<T> out;
  if (n == 0) return out;
  const SpanAggregates bounds = AggregateSpan(src, n);
  const uint64_t umin = static_cast<uint64_t>(bounds.min_i);
  const uint64_t width = static_cast<uint64_t>(bounds.max_i) - umin;
  const uint64_t fanout = uint64_t{1} << bits;
  unsigned shift = 0;
  while ((width >> shift) >= fanout) ++shift;
  out.min = static_cast<T>(bounds.min_i);
  out.shift = shift;
  out.ranges.resize(static_cast<size_t>(width >> shift) + 1);
  for (RadixRange& r : out.ranges) {
    r.min = std::numeric_limits<T>::max();
    r.max = std::numeric_limits<T>::min();
  }

  // Histogram, with each range's reduction riding along.
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(src[i]);
    RadixRange& r =
        out.ranges[static_cast<size_t>((static_cast<uint64_t>(v) - umin) >>
                                       shift)];
    ++r.count;
    r.sum = static_cast<int64_t>(static_cast<uint64_t>(r.sum) +
                                 static_cast<uint64_t>(v));
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  size_t at = 0;
  for (RadixRange& r : out.ranges) {
    r.begin = at;
    at += r.count;
  }

#if defined(__SSE2__)
  if (streaming && reinterpret_cast<uintptr_t>(values) % sizeof(T) == 0 &&
      reinterpret_cast<uintptr_t>(oids) % sizeof(Oid) == 0) {
    Scatter<T, true>(src, n, base, umin, shift, out.ranges, values, oids);
    return out;
  }
#else
  (void)streaming;
#endif
  Scatter<T, false>(src, n, base, umin, shift, out.ranges, values, oids);
  return out;
}

template RadixLayout<int32_t> RadixPartition<int32_t>(const int32_t*, size_t,
                                                      Oid, int, int32_t*,
                                                      Oid*, bool);
template RadixLayout<int64_t> RadixPartition<int64_t>(const int64_t*, size_t,
                                                      Oid, int, int64_t*,
                                                      Oid*, bool);

}  // namespace crackstore
