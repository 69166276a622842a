// Copyright 2026 The CrackStore Authors
//
// Hot-path instrumentation hooks. Core code calls these tiny free functions
// instead of touching the MetricsRegistry or the ambient QueryTrace
// directly; each hook bumps the matching named registry instrument and, when
// a trace is bound to the calling thread, the trace's live counters.
//
// Under -DCRACKSTORE_NO_METRICS every hook is an inline empty function, so
// the compiler deletes the call sites — the fig02 overhead gate in CI
// compares the two builds on the crack hot loop.
//
// Instrument catalog (see README "Observability"):
//   crack.cracks / crack.pieces_created / crack.pieces_touched /
//   crack.kernel_writes / crack.tuples_touched / crack.piece_size (histogram)
//   crack.progressive_deferred_rows
//   policy.switches
//   latch.range_acquisitions / latch.range_waits / latch.range_wait_ns
//   pool.batches / pool.tasks_run / pool.submitter_drains / pool.queue_depth
//   txn.begins / txn.commits / txn.aborts / txn.conflicts
//   versions.rows / versions.chain_entries (gauges) / vacuum.runs /
//   vacuum.purged_rows
//   merge.folds / merge.rows
//   snapshot.rows_filtered / snapshot.override_hits / snapshot.version_probes
//   select.spans / select.span_rows / select.materialized_oids
//   agg.pushdown_rows / agg.summary_rows
//   simd.calls.{scalar,predicated,avx2,neon}
//   io.* (mirrored from every IoStats delta the facade accumulates)
//   sql.statements
//   wal.appends / wal.bytes_appended / wal.fsyncs /
//   wal.group_commit_txns (histogram) / wal.replays /
//   wal.replayed_records / wal.replay_ns
//   wal.checkpoints / wal.checkpoint_bytes / vacuum.auto_runs

#ifndef CRACKSTORE_OBS_INSTRUMENTS_H_
#define CRACKSTORE_OBS_INSTRUMENTS_H_

#include <cstdint>

namespace crackstore {

struct IoStats;

namespace obs {

#if defined(CRACKSTORE_NO_METRICS)

inline void RecordCrack(uint64_t, uint64_t, uint64_t, uint64_t) {}
inline void RecordPieceSize(uint64_t) {}
inline void RecordLatchAcquisition() {}
inline void RecordLatchWait(uint64_t) {}
inline void RecordTaskBatch(uint64_t) {}
inline void RecordTaskRun(bool) {}
inline void AddQueueDepth(int64_t) {}
inline void RecordTxnBegin() {}
inline void RecordTxnCommit() {}
inline void RecordTxnAbort() {}
inline void RecordTxnConflict() {}
inline void AddVersionRows(int64_t) {}
inline void AddVersionChainEntries(int64_t) {}
inline void RecordVacuum(uint64_t) {}
inline void RecordMerge(uint64_t) {}
inline void RecordSnapshotFiltered(uint64_t) {}
inline void RecordSnapshotOverride(uint64_t) {}
inline void RecordVersionProbes(uint64_t) {}
inline void RecordSpanAnswer(uint64_t, uint64_t) {}
inline void RecordMaterializedOids(uint64_t) {}
inline void RecordAggPushdown(uint64_t, uint64_t) {}
inline void RecordSimdCall(int) {}
inline void MirrorIo(const IoStats&) {}
inline void RecordSqlStatement() {}
inline void RecordPolicySwitch() {}
inline void RecordProgressiveDeferred(uint64_t) {}
inline void RecordWalAppend(uint64_t) {}
inline void RecordWalFsync() {}
inline void RecordWalGroupCommit(uint64_t) {}
inline void RecordWalReplay(uint64_t, uint64_t) {}
inline void RecordCheckpoint(uint64_t) {}
inline void RecordAutovacuum() {}

#else

/// One crack kernel run: tuples inspected, tuple swaps it performed, and how
/// many new pieces it registered (the touched piece count is 1 per kernel).
void RecordCrack(uint64_t tuples, uint64_t kernel_writes,
                 uint64_t pieces_created, uint64_t pieces_touched);
/// Size of a piece produced by a crack (feeds the piece-size histogram).
void RecordPieceSize(uint64_t size);

void RecordLatchAcquisition();
void RecordLatchWait(uint64_t ns);

void RecordTaskBatch(uint64_t tasks);
void RecordTaskRun(bool submitter);
void AddQueueDepth(int64_t delta);

void RecordTxnBegin();
void RecordTxnCommit();
void RecordTxnAbort();
void RecordTxnConflict();

/// Version-log level tracking (gauges; deltas may be negative on vacuum or
/// rollback).
void AddVersionRows(int64_t delta);
void AddVersionChainEntries(int64_t delta);
void RecordVacuum(uint64_t purged_rows);

/// A delta-merge fold into a rebuilt accelerator; `rows` is the number of
/// tuples the rebuilt accelerator absorbed.
void RecordMerge(uint64_t rows);

void RecordSnapshotFiltered(uint64_t rows);
void RecordSnapshotOverride(uint64_t hits);

/// `rows` answer rows a snapshot filter looked up in the version maps (the
/// rows the table had marked; every other row is decided by the horizon).
void RecordVersionProbes(uint64_t rows);

/// One selection answered as an OidSpanSet: `spans` contiguous pieces
/// covering `rows` qualifying rows, zero oids materialized.
void RecordSpanAnswer(uint64_t spans, uint64_t rows);

/// `rows` oids materialized into a list at a true boundary (caller asked
/// for oids, span set unavailable, or a permuted-layout intersection).
void RecordMaterializedOids(uint64_t rows);

/// `rows` answered by a pushed-down aggregate instead of a
/// materialize-then-loop pass; `summary_rows` of them came from piece
/// summaries rather than a kernel.
void RecordAggPushdown(uint64_t rows, uint64_t summary_rows);

/// One dispatched crack kernel call on the given SimdTier (0..3).
void RecordSimdCall(int tier);

/// Mirrors an IoStats delta into the registry's io.* counters.
void MirrorIo(const IoStats& io);

void RecordSqlStatement();

/// One runtime policy switch landed by the kAuto workload detector.
void RecordPolicySwitch();

/// Rows a budgeted progressive cut left unpartitioned this pass.
void RecordProgressiveDeferred(uint64_t rows);

/// One record appended to the commit log (`bytes` = framed size).
void RecordWalAppend(uint64_t bytes);
/// One fsync issued against the commit log.
void RecordWalFsync();
/// One group-commit fsync covering `txns` commit records.
void RecordWalGroupCommit(uint64_t txns);
/// One recovery replay of a commit log (`ns` = wall clock).
void RecordWalReplay(uint64_t records, uint64_t ns);
/// One checkpoint written (`bytes` = checkpoint file size).
void RecordCheckpoint(uint64_t bytes);
/// One vacuum pass triggered by the autovacuum maintenance hook.
void RecordAutovacuum();

#endif  // CRACKSTORE_NO_METRICS

}  // namespace obs
}  // namespace crackstore

#endif  // CRACKSTORE_OBS_INSTRUMENTS_H_
