// Copyright 2026 The CrackStore Authors
//
// Per-statement crack tracing: a QueryTrace collects RAII spans
// (parse -> plan -> per-column crack/select -> materialize) plus live event
// counters that hot paths bump through obs/instruments.h. The trace is
// threaded explicitly through the SQL layer via ExecContext and ambiently
// (thread_local) below it, so deep call sites — crack kernels, latches,
// snapshot filters — need no parameter plumbing. TaskPool propagates the
// ambient binding to its workers, so fan-out work lands in the right trace.
//
// Cost model: when no trace is bound, every hook is a thread_local load and
// a branch; span constructors do not even build their name strings.
// EXPLAIN ANALYZE binds a trace for one statement and renders the result.

#ifndef CRACKSTORE_OBS_TRACE_H_
#define CRACKSTORE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_stats.h"

namespace crackstore {
namespace obs {

/// Plain snapshot of the live event counters; span deltas are computed as
/// (snapshot at close) - (snapshot at open).
struct TraceCounters {
  uint64_t latch_acquisitions = 0;
  uint64_t latch_waits = 0;        ///< acquisitions that had to block
  uint64_t latch_wait_ns = 0;      ///< total blocked time
  uint64_t snap_rows_filtered = 0; ///< rows hidden by snapshot visibility
  uint64_t snap_override_hits = 0; ///< value overrides served to a snapshot
  uint64_t snap_version_probes = 0; ///< answer rows probed in version maps
  uint64_t snap_hidden_candidates = 0;  ///< crack rows tested by value
  uint64_t simd_calls[4] = {0, 0, 0, 0};  ///< crack kernel calls per tier
  uint64_t tasks_run = 0;
  uint64_t task_batches = 0;
  uint64_t policy_switches = 0;       ///< kAuto runtime policy switches
  uint64_t progressive_deferred = 0;  ///< rows progressive cuts deferred
  uint64_t select_spans = 0;          ///< spans answered without oid gathers
  uint64_t select_span_rows = 0;      ///< rows covered by span answers
  uint64_t select_materialized = 0;   ///< oids materialized into lists
  uint64_t base_rows = 0;             ///< base values read by oid
  uint64_t agg_pushdown_rows = 0;     ///< rows answered by aggregate pushdown
  uint64_t agg_summary_rows = 0;      ///< of those, from piece summaries

  TraceCounters operator-(const TraceCounters& o) const {
    TraceCounters d;
    d.latch_acquisitions = latch_acquisitions - o.latch_acquisitions;
    d.latch_waits = latch_waits - o.latch_waits;
    d.latch_wait_ns = latch_wait_ns - o.latch_wait_ns;
    d.snap_rows_filtered = snap_rows_filtered - o.snap_rows_filtered;
    d.snap_override_hits = snap_override_hits - o.snap_override_hits;
    d.snap_version_probes = snap_version_probes - o.snap_version_probes;
    d.snap_hidden_candidates =
        snap_hidden_candidates - o.snap_hidden_candidates;
    for (int i = 0; i < 4; ++i) d.simd_calls[i] = simd_calls[i] - o.simd_calls[i];
    d.tasks_run = tasks_run - o.tasks_run;
    d.task_batches = task_batches - o.task_batches;
    d.policy_switches = policy_switches - o.policy_switches;
    d.progressive_deferred = progressive_deferred - o.progressive_deferred;
    d.select_spans = select_spans - o.select_spans;
    d.select_span_rows = select_span_rows - o.select_span_rows;
    d.select_materialized = select_materialized - o.select_materialized;
    d.base_rows = base_rows - o.base_rows;
    d.agg_pushdown_rows = agg_pushdown_rows - o.agg_pushdown_rows;
    d.agg_summary_rows = agg_summary_rows - o.agg_summary_rows;
    return d;
  }

  uint64_t simd_total() const {
    return simd_calls[0] + simd_calls[1] + simd_calls[2] + simd_calls[3];
  }
};

/// One statement's trace. Spans are opened/closed on the binding thread;
/// the live counters are relaxed atomics so TaskPool workers bound to the
/// same trace can report concurrently.
class QueryTrace {
 public:
  struct Span {
    std::string name;
    int depth = 0;
    double seconds = 0.0;
    IoStats io;             ///< IoStats delta observed while the span was open
    TraceCounters counters; ///< live-counter delta while the span was open
    bool open = false;

    // Bookkeeping while open.
    std::chrono::steady_clock::time_point start;
    const IoStats* watch = nullptr;
    IoStats watch_at_open;
    TraceCounters live_at_open;
  };

  /// Relaxed atomics bumped by obs/instruments.h hooks (possibly from
  /// TaskPool workers carrying this trace).
  struct Live {
    std::atomic<uint64_t> latch_acquisitions{0};
    std::atomic<uint64_t> latch_waits{0};
    std::atomic<uint64_t> latch_wait_ns{0};
    std::atomic<uint64_t> snap_rows_filtered{0};
    std::atomic<uint64_t> snap_override_hits{0};
    std::atomic<uint64_t> snap_version_probes{0};
    std::atomic<uint64_t> snap_hidden_candidates{0};
    std::atomic<uint64_t> simd_calls[4] = {};
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> task_batches{0};
    std::atomic<uint64_t> policy_switches{0};
    std::atomic<uint64_t> progressive_deferred{0};
    std::atomic<uint64_t> select_spans{0};
    std::atomic<uint64_t> select_span_rows{0};
    std::atomic<uint64_t> select_materialized{0};
    std::atomic<uint64_t> base_rows{0};
    std::atomic<uint64_t> agg_pushdown_rows{0};
    std::atomic<uint64_t> agg_summary_rows{0};
  };

  /// Opens a span; returns its index for CloseSpan. `watch` (optional) is an
  /// IoStats the span snapshots at open and diffs at close — it must outlive
  /// the span.
  size_t OpenSpan(std::string name, const IoStats* watch = nullptr);
  void CloseSpan(size_t idx);

  /// Records an already-timed span (e.g. parse, measured before the trace
  /// had anything to wrap).
  void AddCompletedSpan(std::string name, double seconds);

  TraceCounters LiveSnapshot() const;
  std::vector<Span> Spans() const;

  /// Human-readable report: span tree with per-span timings and deltas,
  /// then statement totals (pieces touched, kernel writes, rows filtered by
  /// snapshot, latch wait time, SIMD tier calls).
  std::string Render(const IoStats& statement_io, double total_seconds) const;

  Live live;

 private:
  mutable std::mutex mu_;  // guards spans_/depth_ (cold: span open/close only)
  std::vector<Span> spans_;
  int depth_ = 0;
};

/// The trace bound to the current thread, or nullptr.
QueryTrace* CurrentTrace();

/// RAII thread_local binding; restores the previous binding on destruction.
class TraceBinding {
 public:
  explicit TraceBinding(QueryTrace* trace);
  ~TraceBinding();
  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  QueryTrace* prev_;
};

/// RAII span against the ambient trace. When no trace is bound, construction
/// is a thread_local load and a branch — the name string is never built.
class TraceSpan {
 public:
  TraceSpan() = default;

  /// Span named "<op> <detail>" (detail omitted when empty).
  TraceSpan(const char* op, const std::string& detail,
            const IoStats* watch = nullptr);
  explicit TraceSpan(const char* op, const IoStats* watch = nullptr);

  TraceSpan(TraceSpan&& o) noexcept : trace_(o.trace_), idx_(o.idx_) {
    o.trace_ = nullptr;
  }
  TraceSpan& operator=(TraceSpan&& o) noexcept {
    Close();
    trace_ = o.trace_;
    idx_ = o.idx_;
    o.trace_ = nullptr;
    return *this;
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Close(); }

  void Close();

 private:
  QueryTrace* trace_ = nullptr;
  size_t idx_ = 0;
};

/// Execution context handed through the SQL layer. Today it carries only the
/// trace; it is the seam where deadlines/priorities would ride later.
struct ExecContext {
  QueryTrace* trace = nullptr;
};

}  // namespace obs
}  // namespace crackstore

#endif  // CRACKSTORE_OBS_TRACE_H_
