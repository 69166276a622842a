// Copyright 2026 The CrackStore Authors

#include "obs/trace.h"

#include "core/simd_dispatch.h"
#include "util/string_util.h"

namespace crackstore {
namespace obs {

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

QueryTrace* CurrentTrace() { return g_current_trace; }

TraceBinding::TraceBinding(QueryTrace* trace) : prev_(g_current_trace) {
  g_current_trace = trace;
}

TraceBinding::~TraceBinding() { g_current_trace = prev_; }

size_t QueryTrace::OpenSpan(std::string name, const IoStats* watch) {
  const TraceCounters now = LiveSnapshot();
  std::lock_guard<std::mutex> lk(mu_);
  Span span;
  span.name = std::move(name);
  span.depth = depth_++;
  span.open = true;
  span.start = std::chrono::steady_clock::now();
  span.watch = watch;
  if (watch != nullptr) span.watch_at_open = *watch;
  span.live_at_open = now;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void QueryTrace::CloseSpan(size_t idx) {
  const TraceCounters now = LiveSnapshot();
  const auto end = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  if (idx >= spans_.size()) return;
  Span& span = spans_[idx];
  if (!span.open) return;
  span.open = false;
  span.seconds = std::chrono::duration<double>(end - span.start).count();
  if (span.watch != nullptr) span.io = *span.watch - span.watch_at_open;
  span.watch = nullptr;
  span.counters = now - span.live_at_open;
  --depth_;
}

void QueryTrace::AddCompletedSpan(std::string name, double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  Span span;
  span.name = std::move(name);
  span.depth = depth_;
  span.seconds = seconds;
  spans_.push_back(std::move(span));
}

TraceCounters QueryTrace::LiveSnapshot() const {
  TraceCounters c;
  c.latch_acquisitions = live.latch_acquisitions.load(std::memory_order_relaxed);
  c.latch_waits = live.latch_waits.load(std::memory_order_relaxed);
  c.latch_wait_ns = live.latch_wait_ns.load(std::memory_order_relaxed);
  c.snap_rows_filtered =
      live.snap_rows_filtered.load(std::memory_order_relaxed);
  c.snap_override_hits =
      live.snap_override_hits.load(std::memory_order_relaxed);
  c.snap_version_probes =
      live.snap_version_probes.load(std::memory_order_relaxed);
  for (int i = 0; i < 4; ++i) {
    c.simd_calls[i] = live.simd_calls[i].load(std::memory_order_relaxed);
  }
  c.tasks_run = live.tasks_run.load(std::memory_order_relaxed);
  c.task_batches = live.task_batches.load(std::memory_order_relaxed);
  c.policy_switches = live.policy_switches.load(std::memory_order_relaxed);
  c.progressive_deferred =
      live.progressive_deferred.load(std::memory_order_relaxed);
  c.select_spans = live.select_spans.load(std::memory_order_relaxed);
  c.select_span_rows = live.select_span_rows.load(std::memory_order_relaxed);
  c.select_materialized =
      live.select_materialized.load(std::memory_order_relaxed);
  c.agg_pushdown_rows =
      live.agg_pushdown_rows.load(std::memory_order_relaxed);
  c.agg_summary_rows = live.agg_summary_rows.load(std::memory_order_relaxed);
  return c;
}

std::vector<QueryTrace::Span> QueryTrace::Spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::string QueryTrace::Render(const IoStats& statement_io,
                               double total_seconds) const {
  std::vector<Span> spans = Spans();
  const TraceCounters totals = LiveSnapshot();
  std::string out;
  for (const Span& span : spans) {
    std::string indent(static_cast<size_t>(span.depth) * 2, ' ');
    out += StrFormat("%s%-*s %9.3f ms", indent.c_str(),
                     static_cast<int>(28 - indent.size()), span.name.c_str(),
                     span.seconds * 1e3);
    const IoStats& io = span.io;
    if (io.tuples_read + io.tuples_written + io.cracks + io.pieces_created +
            io.kernel_writes >
        0) {
      out += StrFormat(
          "  read=%llu written=%llu cracks=%llu pieces+%llu touched=%llu "
          "kernel_w=%llu",
          static_cast<unsigned long long>(io.tuples_read),
          static_cast<unsigned long long>(io.tuples_written),
          static_cast<unsigned long long>(io.cracks),
          static_cast<unsigned long long>(io.pieces_created),
          static_cast<unsigned long long>(io.pieces_touched),
          static_cast<unsigned long long>(io.kernel_writes));
    }
    if (span.counters.snap_rows_filtered > 0) {
      out += StrFormat(" snap_filtered=%llu",
                       static_cast<unsigned long long>(
                           span.counters.snap_rows_filtered));
    }
    if (span.counters.latch_waits > 0) {
      out += StrFormat(" latch_waits=%llu",
                       static_cast<unsigned long long>(
                           span.counters.latch_waits));
    }
    out += "\n";
  }
  out += StrFormat("total                        %9.3f ms\n",
                   total_seconds * 1e3);
  out += StrFormat(
      "io: tuples read=%llu written=%llu, cracks=%llu, pieces created=%llu, "
      "pieces touched=%llu, crack kernel writes=%llu\n",
      static_cast<unsigned long long>(statement_io.tuples_read),
      static_cast<unsigned long long>(statement_io.tuples_written),
      static_cast<unsigned long long>(statement_io.cracks),
      static_cast<unsigned long long>(statement_io.pieces_created),
      static_cast<unsigned long long>(statement_io.pieces_touched),
      static_cast<unsigned long long>(statement_io.kernel_writes));
  out += StrFormat(
      "snapshot: rows filtered=%llu, override hits=%llu\n",
      static_cast<unsigned long long>(totals.snap_rows_filtered),
      static_cast<unsigned long long>(totals.snap_override_hits));
  out += StrFormat(
      "latches: acquisitions=%llu, waits=%llu, wait time=%.3f ms\n",
      static_cast<unsigned long long>(totals.latch_acquisitions),
      static_cast<unsigned long long>(totals.latch_waits),
      static_cast<double>(totals.latch_wait_ns) / 1e6);
  out += "simd kernel calls:";
  for (int i = 0; i < 4; ++i) {
    out += StrFormat(" %s=%llu",
                     SimdTierName(static_cast<SimdTier>(i)),
                     static_cast<unsigned long long>(totals.simd_calls[i]));
  }
  out += StrFormat("\ntasks: batches=%llu, run=%llu\n",
                   static_cast<unsigned long long>(totals.task_batches),
                   static_cast<unsigned long long>(totals.tasks_run));
  if (totals.policy_switches > 0 || totals.progressive_deferred > 0) {
    out += StrFormat(
        "policy: switches=%llu, progressive deferred rows=%llu\n",
        static_cast<unsigned long long>(totals.policy_switches),
        static_cast<unsigned long long>(totals.progressive_deferred));
  }
  if (totals.select_spans > 0 || totals.select_materialized > 0 ||
      totals.agg_pushdown_rows > 0 || totals.snap_version_probes > 0) {
    out += StrFormat(
        "read path: spans=%llu (rows=%llu), materialized oids=%llu, "
        "agg pushdown rows=%llu, summary rows=%llu, version probes=%llu\n",
        static_cast<unsigned long long>(totals.select_spans),
        static_cast<unsigned long long>(totals.select_span_rows),
        static_cast<unsigned long long>(totals.select_materialized),
        static_cast<unsigned long long>(totals.agg_pushdown_rows),
        static_cast<unsigned long long>(totals.agg_summary_rows),
        static_cast<unsigned long long>(totals.snap_version_probes));
  }
  return out;
}

TraceSpan::TraceSpan(const char* op, const std::string& detail,
                     const IoStats* watch) {
  QueryTrace* trace = CurrentTrace();
  if (trace == nullptr) return;
  std::string name(op);
  if (!detail.empty()) {
    name += ' ';
    name += detail;
  }
  trace_ = trace;
  idx_ = trace->OpenSpan(std::move(name), watch);
}

TraceSpan::TraceSpan(const char* op, const IoStats* watch) {
  QueryTrace* trace = CurrentTrace();
  if (trace == nullptr) return;
  trace_ = trace;
  idx_ = trace->OpenSpan(std::string(op), watch);
}

void TraceSpan::Close() {
  if (trace_ != nullptr) {
    trace_->CloseSpan(idx_);
    trace_ = nullptr;
  }
}

}  // namespace obs
}  // namespace crackstore
