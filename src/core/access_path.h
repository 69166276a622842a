// Copyright 2026 The CrackStore Authors
//
// ColumnAccessPath: the type-erased physical-acceleration layer of one
// column. The paper's architecture treats every query as "advice to crack
// the store" (§2.2); this interface is where that advice lands. A path owns
// whatever auxiliary state its strategy needs — a cracker index, a sorted
// copy, or nothing at all — and answers range selections behind a virtual
// interface, so the facade (AdaptiveStore), the column engine and the SQL
// executor never see element widths or strategy internals. Every path
// answers in one shape, an OidSpanSet over its own layout (AccessSelection).
//
// Three concrete paths (each templated over int32_t/int64_t/double
// internally):
//   * crack — query-driven cracking with a pluggable CrackPolicy
//             (standard / stochastic / coarse, core/crack_policy.h);
//   * sort  — upfront sort on first touch, then binary search (Fig. 11's
//             "sort" line);
//   * scan  — stateless full scan per query (the "nocrack" baseline).
//
// String columns compose with all of the above through an encoding
// decorator: an order-preserving dictionary (storage/dictionary.h) presents
// the column as an int64 code domain, string predicates translate to code
// ranges (SelectTyped), and the inner path cracks/sorts/scans codes exactly
// like integers.
//
// Construction is lazy: building the accelerator is deferred to the first
// Select, so its investment is charged to the query that triggered it —
// exactly the accounting Figures 2-3 analyze.
//
// Paths also absorb DML (§2.2/§7's updates question). The crack and sort
// paths keep their inserts, tombstones and hidden-candidate table in one
// ColumnDeltas (core/column_deltas.h) and answer every range as span −
// hidden candidates + extras; the scan path keeps a tombstone set. Deltas
// fold back into the accelerator per a DeltaMergePolicy — immediately, past
// a threshold, or rippled into the next selection — preserving the learned
// physical order across maintenance. A path never decides to fold: its
// owner asks WantsMaintenance and calls FlushDeltas.

#ifndef CRACKSTORE_CORE_ACCESS_PATH_H_
#define CRACKSTORE_CORE_ACCESS_PATH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/crack_policy.h"
#include "core/cracker_index.h"
#include "core/merge_policy.h"
#include "core/oid_span_set.h"
#include "core/range_bounds.h"
#include "core/txn_manager.h"
#include "core/typed_range.h"
#include "storage/bat.h"
#include "obs/query_stats.h"
#include "util/result.h"

namespace crackstore {

/// What a query delivers (paper §2.1, Fig. 1): counting is cheapest,
/// view/stream delivery is middle, materializing a new table is dearest.
enum class Delivery : uint8_t {
  kCount = 0,  ///< only the qualifying-tuple count
  /// The qualifying rows as an OidSpanSet (spans over the accelerator, no
  /// copy): walk them with ForEachBlock, or ToOids() for an ascending list.
  kView = 1,
  kMaterialize = 2,  ///< a fresh Relation holding the qualifying rows
};

/// How a column is accessed across a query sequence.
enum class AccessStrategy : uint8_t {
  kScan = 0,   ///< full scan per query (the "nocrack" baseline)
  kCrack = 1,  ///< query-driven cracking (the paper's proposal)
  kSort = 2,   ///< sort upfront on first touch, then binary search
};

const char* AccessStrategyName(AccessStrategy strategy);

/// Everything needed to build one column's access path.
struct AccessPathConfig {
  AccessStrategy strategy = AccessStrategy::kCrack;
  CrackPolicyOptions policy;  ///< pivot discipline (crack strategy only)
  MergeBudget merge_budget;   ///< piece-fusion budget (crack strategy only)
  DeltaMergeOptions delta_merge;  ///< when write deltas fold back
  /// Detaches crack answers that deliver rows (see ColumnAccessPath::Select).
  /// A concurrent owner sets it, because threads sharing the column may
  /// crack it once the answer's span lock drops. Nothing else depends on
  /// it: every path takes its delta latch and range locks unconditionally,
  /// and only the owner's maintenance step folds deltas (WantsMaintenance ->
  /// FlushDeltas under the exclusive column latch).
  bool concurrent = false;
};

/// What a path guarantees under the owner's per-column latch.
enum class PathConcurrency : uint8_t {
  kExclusiveOnly = 0,  ///< every operation needs the exclusive column latch
  kSharedReads = 1,    ///< Select/DML are safe under the shared column latch
};

/// Type-erased snapshot of one piece (int64-widened value decorations).
struct PieceInfo {
  size_t begin = 0;  ///< first position in the accelerator column
  size_t end = 0;    ///< one past the last position
  bool has_lo = false;
  int64_t lo = 0;          ///< if has_lo: every value v in the piece satisfies
  bool lo_strict = false;  ///< lo_strict ? v > lo : v >= lo
  bool has_hi = false;
  int64_t hi = 0;          ///< if has_hi: every value v satisfies
  bool hi_strict = false;  ///< hi_strict ? v < hi : v <= hi
  size_t size() const { return end - begin; }
};

/// An explicit pivot injection — advice arriving from outside any query
/// (a policy warm-up pass, the optimizer, an operator hint).
struct PivotChoice {
  int64_t value = 0;
  /// false: cut before the duplicates of `value` (left side < value);
  /// true: cut after them (left side <= value).
  bool after_duplicates = false;
};

/// Live policy state of one access path (SHOW POLICY / shell support).
struct PathPolicyStatus {
  CrackPolicy configured = CrackPolicy::kStandard;  ///< what was asked for
  CrackPolicy effective = CrackPolicy::kStandard;   ///< what runs now
  WorkloadPattern pattern = WorkloadPattern::kUnknown;  ///< detector verdict
  uint64_t switches = 0;        ///< runtime policy switches (kAuto)
  uint64_t samples = 0;         ///< queries the detector has seen
  double progressive_budget = 0.0;
  size_t progressive_pending = 0;  ///< rows awaiting progressive completion
  bool crack = false;  ///< true when the path actually cracks (policy is live)
};

/// The answer of one access-path selection: the qualifying rows as one
/// OidSpanSet (core/oid_span_set.h). Exact crack answers and sort answers
/// are one span over the accelerator's oid map; a coarse or progressive
/// answer is its conservative span with every value miss marked as an
/// exception; a scan answer is identity spans over the base. Deltas and the
/// caller's snapshot land as exceptions (hidden rows) and extras (pending
/// inserts, override re-admissions).
///
/// A Delivery::kCount answer of a crack or sort path never reads its hidden
/// rows: it carries `count` and its span (with a conservative span's value
/// misses), no hidden row marked and no extra listed. Other answers are
/// whole (count == span_set.count()).
struct AccessSelection {
  uint64_t count = 0;         ///< qualifying tuples
  OidSpanSet span_set;        ///< the qualifying rows (see above)
  size_t bounds_dropped = 0;  ///< boundaries fused by the merge budget
};

/// What an aggregate pushdown computes in one span-kernel pass over the
/// qualifying rows (SIMD reduction over contiguous accelerator spans +
/// O(deltas) scalar corrections). Values are int64-widened: the SQL layer
/// only pushes integer aggregate columns down, and integer sums wrap mod
/// 2^64 exactly like the executor's scalar accumulator.
struct ColumnAggregates {
  uint64_t rows = 0;           ///< qualifying rows (COUNT of the range)
  uint64_t pushdown_rows = 0;  ///< rows answered by the pushdown
  uint64_t summary_rows = 0;   ///< of those, rows taken from cut records
  int64_t sum = 0;             ///< wrapping sum over qualifying rows
  bool has_minmax = false;     ///< rows > 0
  int64_t min = 0;
  int64_t max = 0;
  size_t bounds_dropped = 0;   ///< boundaries fused by the merge budget
  IoStats io;                  ///< cost of the pushdown (facade-filled)
};

/// See file comment.
class ColumnAccessPath {
 public:
  virtual ~ColumnAccessPath() = default;

  virtual AccessStrategy strategy() const = 0;

  /// The policy configuration this path runs (meaningful for kCrack; other
  /// strategies report their config verbatim).
  virtual const AccessPathConfig& config() const = 0;

  /// Tuples in the underlying column.
  virtual size_t size() const = 0;

  /// Range selection over the path's *native accelerator domain* —
  /// element values for numeric columns, dictionary codes for encoded
  /// string columns. `delivery` says what the caller reads: a kCount
  /// answer may carry only its count (see AccessSelection). Under
  /// config().concurrent a crack answer that delivers rows leaves as a
  /// sorted oid list (OidSpanSet::Detach), resolved before the answer
  /// span's range lock drops, since threads sharing the column may crack
  /// it next; sort and scan answers stay spans, which remain valid.
  ///
  /// `view` (optional) is the caller's MVCC read filter: rows the snapshot
  /// cannot see are dropped from the physical answer, and rows whose value
  /// postdates the snapshot are re-admitted per view->overrides(). A null
  /// or inactive view reads the latest physical state (the pre-MVCC
  /// behavior, still filtered by the path's own vacuum tombstones).
  virtual AccessSelection Select(const RangeBounds& range, Delivery delivery,
                                 IoStats* stats,
                                 const SnapshotView* view = nullptr) = 0;

  /// Typed range selection — the boundary the facade and SQL cross.
  /// Numeric endpoints lower to RangeBounds (the default implementation);
  /// encoding-aware paths translate string endpoints into their code
  /// domain. Mistyped predicates (string bounds on a numeric column and
  /// vice versa) come back as TypeMismatch instead of silently widening.
  /// `view`: see Select.
  virtual Result<AccessSelection> SelectTyped(const TypedRange& range,
                                              Delivery delivery,
                                              IoStats* stats,
                                              const SnapshotView* view =
                                                  nullptr);

  /// Aggregate pushdown: COUNT/SUM/MIN/MAX of the rows matching `range`,
  /// computed by horizontal SIMD reductions over the answer spans instead
  /// of materializing an oid list. The range still cracks the column
  /// (queries remain advice); snapshot divergence lands as O(overrides)
  /// additive corrections — the span reduction already excludes overridden
  /// and hidden rows, so re-admissions only add.
  /// Returns Unimplemented when this path cannot push the aggregate down
  /// (non-integer domains; budgeted progressive cracks, which must not
  /// exceed their write budget) — callers fall back to the
  /// materialize-then-loop path.
  virtual Result<ColumnAggregates> AggregateRange(const RangeBounds& range,
                                                  IoStats* stats,
                                                  const SnapshotView* view =
                                                      nullptr) {
    (void)range;
    (void)stats;
    (void)view;
    return Status::Unimplemented("aggregate pushdown: unsupported path");
  }

  // --- DML ------------------------------------------------------------------
  // Contract: the owner of the base column applies the physical mutation
  // FIRST (append the row for Insert, overwrite the slot for Update; Delete
  // leaves the append-only base untouched), then notifies the path. A path
  // whose accelerator is not built yet absorbs Insert/Update for free — the
  // lazy build reads the already-mutated base — and only buffers tombstones.
  // Values cross the type-erased boundary dynamically typed (a fractional
  // double must reach a double column intact; int64-widening, as RangeBounds
  // does, would silently truncate it).

  /// Registers the freshly appended row `oid` carrying `value`.
  virtual Status Insert(const Value& value, Oid oid,
                        IoStats* stats = nullptr) = 0;

  /// Tombstones row `oid` *physically*; every later Select excludes it
  /// regardless of any SnapshotView. Under the MVCC facade deletes are
  /// version stamps first (core/txn_manager.h) and reach a path only when
  /// vacuum purges a version below the low-water snapshot (Purge); direct
  /// (non-transactional) users keep the original instant-delete semantics.
  virtual Status Delete(Oid oid, IoStats* stats = nullptr) = 0;

  /// Changes the value of live row `oid` (the oid survives, so sibling
  /// columns keep referencing the same logical row). `old_value` is the
  /// value the row held until the owner overwrote its base slot: a path
  /// that keeps the row's old copy (a crack column's tombstone) files it
  /// under that value.
  virtual Status Update(Oid oid, const Value& old_value, const Value& value,
                        IoStats* stats = nullptr) = 0;

  /// Vacuum's physical purge: tombstones every row of `oids` still present
  /// (rows already gone, or never landed, are skipped) and folds the
  /// deltas once, whatever the DeltaMergePolicy. Requires the exclusive
  /// column latch.
  Status Purge(const std::vector<Oid>& oids, IoStats* stats = nullptr);

  /// Folds all pending deltas into the accelerator now, regardless of the
  /// configured DeltaMergePolicy. No-op for paths without pending state.
  /// Requires the exclusive column latch.
  virtual Status FlushDeltas(IoStats* stats = nullptr) = 0;

  // --- concurrency contract ---------------------------------------------------
  // The owner serializes via a per-column std::shared_mutex. A path whose
  // concurrency() is kSharedReads accepts Select, AggregateRange and DML
  // calls under the *shared* latch once SharedSelectReady() is true
  // (readiness is monotonic); builds, flushes and kExclusiveOnly paths need
  // the exclusive latch. Every answer is formed while the path holds the
  // answer span's shared range lock and its delta latch. A path never
  // merges deltas on its own: the owner polls WantsMaintenance() before
  // each read of the column and after each statement that wrote to it, and
  // calls FlushDeltas under the exclusive latch, so shared-latch readers
  // only ever overlay deltas.

  /// The latch mode this path's operations need (see above). Constant for
  /// the path's lifetime.
  virtual PathConcurrency concurrency() const {
    return PathConcurrency::kExclusiveOnly;
  }

  /// True once selections are safe under the shared column latch (the
  /// accelerator is built). Monotonic; callable without any latch.
  virtual bool SharedSelectReady() const { return false; }

  /// True when config().delta_merge says a fold is due; the owner then
  /// takes the exclusive latch and calls FlushDeltas. `before_read`: the
  /// poll precedes a read of the column (true) or follows a statement that
  /// wrote to it (false). Weighs the sizes the path last published
  /// (PublishDeltas), so it is callable without any latch.
  bool WantsMaintenance(bool before_read) const;

  /// Pending delta sizes and maintenance history (shell / EXPLAIN support).
  virtual size_t pending_inserts() const = 0;
  virtual size_t pending_deletes() const = 0;
  virtual size_t merges_performed() const = 0;

  /// Tuples physically held by the accelerator (cracker column / sorted
  /// copy / dictionary code column), 0 when none is built or the strategy
  /// keeps no copy (scan). Vacuum tests assert this shrinks after purged
  /// versions merge out.
  virtual size_t accel_tuples() const { return 0; }

  /// Pieces currently delimiting the column; {[0, n)} when never cracked.
  virtual std::vector<PieceInfo> Pieces() const = 0;

  /// Number of pieces (cheaper than Pieces().size()).
  virtual size_t NumPieces() const = 0;

  /// The piece table's cut log (CrackerIndex::CutsSince): appends the
  /// interior cut positions registered since `cursor` to *out and returns
  /// the new cursor. A rebuilt accelerator (merges_performed() moves) or a
  /// fusion (AccessSelection::bounds_dropped) restarts the log; readers then
  /// resume from cursor 0. Paths without a piece table log nothing.
  virtual size_t CutsSince(size_t cursor, std::vector<size_t>* out) const {
    (void)out;
    return cursor;
  }

  /// Applies an explicit pivot: cracks the column at `choice` outside any
  /// query. Unimplemented for paths without a piece table (sort, scan).
  virtual Status ApplyPolicy(const PivotChoice& choice,
                             IoStats* stats = nullptr) = 0;

  /// Human-readable physical state: accelerator kind, active policy, piece
  /// table. The per-column body of AdaptiveStore::ExplainColumn.
  virtual std::string Explain() const = 0;

  /// Live policy state (configured vs effective policy, detector verdict,
  /// progressive backlog). Non-cracking strategies report their configured
  /// policy with crack=false.
  virtual PathPolicyStatus PolicyStatus() const {
    PathPolicyStatus status;
    status.configured = config().policy.policy;
    status.effective = status.configured;
    status.progressive_budget = config().policy.progressive_budget;
    return status;
  }

  /// Re-arms the path's policy engine with fresh options at runtime (SET
  /// POLICY). No-op success for strategies without a policy engine, so a
  /// store-wide policy change never errors on scan/sort columns.
  /// Requires the exclusive column latch.
  virtual Status SetPolicyOptions(const CrackPolicyOptions& options) {
    (void)options;
    return Status::OK();
  }

 protected:
  /// Publishes what WantsMaintenance weighs: the pending deltas (inserts +
  /// tombstones) and the accelerator's tuple count. A path publishes once
  /// its accelerator is built, so deltas buffered before the build fold at
  /// the column's next statement, never before it. Callers hold the path's
  /// delta latch or the exclusive column latch.
  void PublishDeltas(size_t pending, size_t accel_tuples) {
    pending_deltas_.store(pending, std::memory_order_relaxed);
    accel_tuples_.store(accel_tuples, std::memory_order_relaxed);
  }

  /// Publishes `inner`'s sizes as this path's own: a decorator answers the
  /// poll for the path it wraps without touching it outside its own calls.
  void PublishDeltasOf(const ColumnAccessPath& inner) {
    PublishDeltas(inner.pending_deltas_.load(std::memory_order_relaxed),
                  inner.accel_tuples_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<size_t> pending_deltas_{0};
  std::atomic<size_t> accel_tuples_{0};
};

/// Builds the access path for `column` per `config`. The factory is
/// encoding-aware: kInt32/kInt64/kFloat64 columns run the strategy
/// directly; kString columns are wrapped in an order-preserving dictionary
/// encoding (storage/dictionary.h) whose int64 code column runs the very
/// same strategy underneath — every {encoding} x {strategy} x {policy}
/// combination shares one implementation. Anything else is Unimplemented.
/// Accelerator (and dictionary) construction is lazy (first Select pays).
Result<std::unique_ptr<ColumnAccessPath>> CreateColumnAccessPath(
    std::shared_ptr<Bat> column, const AccessPathConfig& config);

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_ACCESS_PATH_H_
