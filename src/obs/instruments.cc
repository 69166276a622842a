// Copyright 2026 The CrackStore Authors

#include "obs/instruments.h"

#if !defined(CRACKSTORE_NO_METRICS)

#include "obs/metrics.h"
#include "obs/query_stats.h"
#include "obs/trace.h"

namespace crackstore {
namespace obs {

namespace {

// Each hook caches its instrument pointers in function-local statics: the
// registry mutex is paid once per process per instrument, after which a hook
// is a call, a relaxed fetch_add, and a thread_local trace check.
MetricsRegistry& Reg() { return MetricsRegistry::Global(); }

}  // namespace

void RecordCrack(uint64_t tuples, uint64_t kernel_writes,
                 uint64_t pieces_created, uint64_t pieces_touched) {
  static Counter* cracks =
      Reg().GetCounter("crack.cracks", "crack kernel invocations");
  static Counter* touched_tuples = Reg().GetCounter(
      "crack.tuples_touched", "tuples inspected by crack kernels");
  static Counter* writes = Reg().GetCounter(
      "crack.kernel_writes", "tuple swaps performed by crack kernels");
  static Counter* created = Reg().GetCounter(
      "crack.pieces_created", "new pieces registered in cracker indexes");
  static Counter* touched = Reg().GetCounter(
      "crack.pieces_touched", "existing pieces shuffled by crack kernels");
  cracks->Add(1);
  touched_tuples->Add(tuples);
  writes->Add(kernel_writes);
  created->Add(pieces_created);
  touched->Add(pieces_touched);
}

void RecordPieceSize(uint64_t size) {
  static Histogram* h = Reg().GetHistogram(
      "crack.piece_size", "sizes of pieces produced by cracks (tuples)");
  h->Observe(size);
}

void RecordLatchAcquisition() {
  static Counter* c = Reg().GetCounter("latch.range_acquisitions",
                                       "piece range-lock acquisitions");
  c->Add(1);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.latch_acquisitions.fetch_add(1, std::memory_order_relaxed);
  }
}

void RecordLatchWait(uint64_t ns) {
  static Counter* waits = Reg().GetCounter(
      "latch.range_waits", "range-lock acquisitions that blocked");
  static Counter* wait_ns =
      Reg().GetCounter("latch.range_wait_ns", "total range-lock blocked time");
  waits->Add(1);
  wait_ns->Add(ns);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.latch_waits.fetch_add(1, std::memory_order_relaxed);
    t->live.latch_wait_ns.fetch_add(ns, std::memory_order_relaxed);
  }
}

void RecordTaskBatch(uint64_t tasks) {
  static Counter* batches =
      Reg().GetCounter("pool.batches", "task batches submitted");
  static Counter* submitted =
      Reg().GetCounter("pool.tasks_submitted", "tasks submitted in batches");
  batches->Add(1);
  submitted->Add(tasks);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.task_batches.fetch_add(1, std::memory_order_relaxed);
  }
}

void RecordTaskRun(bool submitter) {
  static Counter* run = Reg().GetCounter("pool.tasks_run", "tasks executed");
  static Counter* drains = Reg().GetCounter(
      "pool.submitter_drains", "tasks drained by the submitting thread");
  run->Add(1);
  if (submitter) drains->Add(1);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.tasks_run.fetch_add(1, std::memory_order_relaxed);
  }
}

void AddQueueDepth(int64_t delta) {
  static Gauge* g =
      Reg().GetGauge("pool.queue_depth", "batches waiting in the task queue");
  g->Add(delta);
}

void RecordTxnBegin() {
  static Counter* c = Reg().GetCounter("txn.begins", "transactions begun");
  c->Add(1);
}

void RecordTxnCommit() {
  static Counter* c = Reg().GetCounter("txn.commits", "transactions committed");
  c->Add(1);
}

void RecordTxnAbort() {
  static Counter* c = Reg().GetCounter("txn.aborts", "transactions rolled back");
  c->Add(1);
}

void RecordTxnConflict() {
  static Counter* c = Reg().GetCounter(
      "txn.conflicts", "first-committer-wins write conflicts");
  c->Add(1);
}

void AddVersionRows(int64_t delta) {
  static Gauge* g =
      Reg().GetGauge("versions.rows", "rows with live version-log entries");
  g->Add(delta);
}

void AddVersionChainEntries(int64_t delta) {
  static Gauge* g = Reg().GetGauge("versions.chain_entries",
                                   "superseded-value chain entries");
  g->Add(delta);
}

void RecordVacuum(uint64_t purged_rows) {
  static Counter* runs = Reg().GetCounter("vacuum.runs", "vacuum invocations");
  static Counter* purged = Reg().GetCounter(
      "vacuum.purged_rows", "row versions folded below the low-water mark");
  runs->Add(1);
  purged->Add(purged_rows);
}

void RecordMerge(uint64_t rows) {
  static Counter* folds =
      Reg().GetCounter("merge.folds", "delta-merge rebuilds");
  static Counter* merged =
      Reg().GetCounter("merge.rows", "tuples absorbed by delta merges");
  folds->Add(1);
  merged->Add(rows);
}

void RecordSnapshotFiltered(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "snapshot.rows_filtered", "rows hidden from a statement's snapshot");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.snap_rows_filtered.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordSnapshotOverride(uint64_t hits) {
  if (hits == 0) return;
  static Counter* c = Reg().GetCounter(
      "snapshot.override_hits", "superseded values served to old snapshots");
  c->Add(hits);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.snap_override_hits.fetch_add(hits, std::memory_order_relaxed);
  }
}

void RecordVersionProbes(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "snapshot.version_probes", "answer rows looked up in the version maps");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.snap_version_probes.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordHiddenCandidates(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "snapshot.hidden_candidates",
      "crack-answer rows tested by value as possibly hidden");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.snap_hidden_candidates.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordSpanAnswer(uint64_t spans, uint64_t rows) {
  if (spans == 0) return;
  static Counter* c = Reg().GetCounter(
      "select.spans", "contiguous spans handed out as selection answers");
  static Counter* r = Reg().GetCounter(
      "select.span_rows", "rows answered through span sets (never gathered)");
  c->Add(spans);
  r->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.select_spans.fetch_add(spans, std::memory_order_relaxed);
    t->live.select_span_rows.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordMaterializedOids(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "select.materialized_oids", "oids materialized into answer lists");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.select_materialized.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordBaseRows(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "gather.base_rows",
      "base-column values read by oid (probes, aggregate sinks, gathers)");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.base_rows.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordAggPushdown(uint64_t rows, uint64_t summary_rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "agg.pushdown_rows", "rows answered by pushed-down aggregates");
  static Counter* s = Reg().GetCounter(
      "agg.summary_rows", "pushed-down aggregate rows read from summaries");
  c->Add(rows);
  if (summary_rows) s->Add(summary_rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.agg_pushdown_rows.fetch_add(rows, std::memory_order_relaxed);
    t->live.agg_summary_rows.fetch_add(summary_rows,
                                       std::memory_order_relaxed);
  }
}

void RecordSimdCall(int tier) {
  static Counter* tiers[4] = {
      Reg().GetCounter("simd.calls.scalar", "crack kernel calls, scalar tier"),
      Reg().GetCounter("simd.calls.predicated",
                       "crack kernel calls, predicated tier"),
      Reg().GetCounter("simd.calls.avx2", "crack kernel calls, AVX2 tier"),
      Reg().GetCounter("simd.calls.neon", "crack kernel calls, NEON tier"),
  };
  if (tier < 0 || tier > 3) return;
  tiers[tier]->Add(1);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.simd_calls[tier].fetch_add(1, std::memory_order_relaxed);
  }
}

void MirrorIo(const IoStats& io) {
  static Counter* tuples_read =
      Reg().GetCounter("io.tuples_read", "tuples whose value was inspected");
  static Counter* tuples_written = Reg().GetCounter(
      "io.tuples_written", "tuples moved/copied/materialized");
  static Counter* journal_writes =
      Reg().GetCounter("io.journal_writes", "redo-journal records");
  static Counter* catalog_ops =
      Reg().GetCounter("io.catalog_ops", "catalog/schema mutations");
  if (io.tuples_read) tuples_read->Add(io.tuples_read);
  if (io.tuples_written) tuples_written->Add(io.tuples_written);
  if (io.journal_writes) journal_writes->Add(io.journal_writes);
  if (io.catalog_ops) catalog_ops->Add(io.catalog_ops);
}

void RecordSqlStatement() {
  static Counter* c =
      Reg().GetCounter("sql.statements", "SQL statements executed");
  c->Add(1);
}

void RecordPolicySwitch() {
  static Counter* c = Reg().GetCounter(
      "policy.switches", "runtime crack-policy switches by the detector");
  c->Add(1);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.policy_switches.fetch_add(1, std::memory_order_relaxed);
  }
}

void RecordProgressiveDeferred(uint64_t rows) {
  if (rows == 0) return;
  static Counter* c = Reg().GetCounter(
      "crack.progressive_deferred_rows",
      "rows budgeted progressive cuts left for later queries");
  c->Add(rows);
  if (QueryTrace* t = CurrentTrace()) {
    t->live.progressive_deferred.fetch_add(rows, std::memory_order_relaxed);
  }
}

void RecordWalAppend(uint64_t bytes) {
  static Counter* appends =
      Reg().GetCounter("wal.appends", "records appended to the commit log");
  static Counter* total = Reg().GetCounter(
      "wal.bytes_appended", "framed bytes appended to the commit log");
  appends->Add(1);
  total->Add(bytes);
}

void RecordWalFsync() {
  static Counter* c =
      Reg().GetCounter("wal.fsyncs", "fsyncs issued against the commit log");
  c->Add(1);
}

void RecordWalGroupCommit(uint64_t txns) {
  static Histogram* h = Reg().GetHistogram(
      "wal.group_commit_txns", "commit records covered per group-commit fsync");
  h->Observe(txns);
}

void RecordWalReplay(uint64_t records, uint64_t ns) {
  static Counter* replays =
      Reg().GetCounter("wal.replays", "recovery replays of a commit log");
  static Counter* recs = Reg().GetCounter(
      "wal.replayed_records", "log records applied during recovery");
  static Counter* time =
      Reg().GetCounter("wal.replay_ns", "wall clock spent replaying, ns");
  replays->Add(1);
  recs->Add(records);
  time->Add(ns);
}

void RecordCheckpoint(uint64_t bytes) {
  static Counter* runs =
      Reg().GetCounter("wal.checkpoints", "checkpoints written");
  static Counter* total = Reg().GetCounter(
      "wal.checkpoint_bytes", "bytes written into checkpoint files");
  runs->Add(1);
  total->Add(bytes);
}

void RecordAutovacuum() {
  static Counter* c = Reg().GetCounter(
      "vacuum.auto_runs", "vacuum passes triggered by the maintenance hook");
  c->Add(1);
}

}  // namespace obs
}  // namespace crackstore

#endif  // !CRACKSTORE_NO_METRICS
