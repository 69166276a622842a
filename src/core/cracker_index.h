// Copyright 2026 The CrackStore Authors
//
// CrackerIndex: the auxiliary structure of paper §3.2. For one column it
// maintains
//   * a *cracker column*: a clone of the source tail that crack kernels
//     shuffle in place, plus a parallel oid array (the cracker map) linking
//     every slot back to its source tuple;
//   * a decorated search tree over *piece boundaries*: value v -> position p
//     such that everything left of p is < v (exclusive bound) or <= v
//     (inclusive bound). Pieces are the maximal runs between boundaries; the
//     tree stores their (min,max) knowledge, sizes and usage clocks, and the
//     integer summaries pushed-down aggregates leave behind (ReducePieces).
//
// Each range selection first navigates the tree, cracks at most the two
// pieces at the predicate boundaries (crack-in-three when both ends fall in
// one piece), registers the new boundaries, and answers with a zero-copy
// contiguous view — "the incremental buildup of a search accelerator, driven
// by actual queries" (paper §2.2).

#ifndef CRACKSTORE_CORE_CRACKER_INDEX_H_
#define CRACKSTORE_CORE_CRACKER_INDEX_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/crack_kernels.h"
#include "core/latch.h"
#include "storage/bat.h"
#include "obs/query_stats.h"
#include "util/macros.h"
#include "util/status.h"

namespace crackstore {

/// A contiguous answer of a cracked selection: parallel views over the
/// cracker column's values and oids.
struct CrackSelection {
  BatView values;  ///< the qualifying tail values (contiguous)
  BatView oids;    ///< their source oids, position-aligned with `values`
  size_t count() const { return values.size(); }
};

/// Descriptive snapshot of one piece (test & optimizer support).
template <typename T>
struct CrackPiece {
  size_t begin = 0;  ///< first position in the cracker column
  size_t end = 0;    ///< one past the last position
  bool has_lo = false;
  T lo{};            ///< if has_lo: every value v in the piece satisfies
  bool lo_strict = false;  ///< lo_strict ? v > lo : v >= lo
  bool has_hi = false;
  T hi{};            ///< if has_hi: every value v satisfies
  bool hi_strict = false;  ///< hi_strict ? v < hi : v <= hi
  size_t size() const { return end - begin; }
};

/// Snapshot of one registered boundary (merge-policy support).
template <typename T>
struct CrackBound {
  T value{};
  bool has_excl = false;
  size_t pos_excl = 0;  ///< first index holding values >= value
  bool has_incl = false;
  size_t pos_incl = 0;  ///< first index holding values > value
  uint64_t last_used = 0;
  uint64_t created = 0;
};

/// Result of a budgeted (progressive) cut attempt. When `exact`, the cut is
/// registered and lo == hi == its position. Otherwise [lo, hi) is the still
/// unpartitioned frontier of the touched piece: every slot left of `lo`
/// definitely satisfies the cut predicate, every slot at or right of `hi`
/// definitely does not, and the caller must answer conservatively (treat
/// [lo, hi) as "maybe" and filter).
struct ProgressiveCut {
  size_t lo = 0;
  size_t hi = 0;
  bool exact = false;
  size_t deferred = 0;  ///< rows left unpartitioned in the touched piece
};

/// Tuning knobs of a cracker index.
struct CrackerIndexOptions {
  /// §3.1 proposes a *three-piece* Ξ for double-sided ranges so the
  /// consecutive-ranges property is regained in one pass. When false, a
  /// pristine range is handled as two successive crack-in-two passes
  /// instead (the ablation the bench suite measures).
  bool use_crack_in_three = true;
};

/// The cracker index over one numeric column. T in {int32_t, int64_t,
/// double}.
template <typename T>
class CrackerIndex {
 public:
  /// Builds the index over `source`, cloning its tail into the cracker
  /// column and materializing the oid map. The copy cost (n reads, n writes)
  /// is charged to `stats` — this is the investment Figures 2-3 analyze.
  explicit CrackerIndex(const std::shared_ptr<Bat>& source,
                        IoStats* stats = nullptr,
                        CrackerIndexOptions options = {});

  /// Adopts pre-built parallel (values, oids) columns without copying.
  /// Used by maintenance operations (delta merging) that rebuild the
  /// cracker column while preserving an arbitrary source-oid mapping.
  /// `values` must be typed T, `oids` typed kOid, equal length.
  CrackerIndex(std::shared_ptr<Bat> values, std::shared_ptr<Bat> oids,
               CrackerIndexOptions options = {});

  CRACK_DISALLOW_COPY_AND_ASSIGN(CrackerIndex);

  /// Range selection with explicit bound inclusivity. The result holds
  /// values v with (lo_incl ? v >= lo : v > lo) && (hi_incl ? v <= hi :
  /// v < hi). Cracks at most two pieces. An inverted range yields an empty
  /// selection.
  CrackSelection Select(T lo, bool lo_incl, T hi, bool hi_incl,
                        IoStats* stats = nullptr);

  /// One-sided selections (attr θ cst for θ in {<, <=, >, >=}).
  CrackSelection SelectLessThan(T v, bool inclusive,
                                IoStats* stats = nullptr);
  CrackSelection SelectGreaterThan(T v, bool inclusive,
                                   IoStats* stats = nullptr);

  /// Point selection (attr == v), a degenerate double-sided range (§3.1).
  CrackSelection SelectEquals(T v, IoStats* stats = nullptr);

  /// The whole cracker column as one selection (no cracking).
  CrackSelection SelectAll() const;

  // --- policy hooks (core/crack_policy.h) ---------------------------------
  // Cracking policies steer *where* pivots land beyond the query bounds;
  // these primitives let them inspect and cut the piece table directly.

  /// True (and `*pos` set) iff the cut for value `v` with the requested
  /// inclusivity is already registered. Never cracks, never touches clocks.
  bool FindCut(T v, bool want_incl, size_t* pos) const;

  /// Refreshes the usage clock of the boundary at `v` (no-op when absent).
  /// Callers answering from a FindCut hit use this to keep LRU-based merge
  /// budgets honest about which boundaries the workload still needs.
  void TouchBound(T v);

  /// Registers the cut for `v` (cracking the enclosing piece if needed) and
  /// returns its position — the crack-at-pivot primitive:
  ///   want_incl == false -> first index holding values >= v
  ///   want_incl == true  -> first index holding values >  v
  size_t ForceCut(T v, bool want_incl, IoStats* stats = nullptr) {
    return Cut(v, want_incl, stats);
  }

  // --- progressive cracking (CrackPolicy::kProgressive) --------------------
  // A budgeted cut performs at most `max_writes` tuple writes (plus one
  // swap of overshoot) and carries the partition frontier per piece, so the
  // cut completes incrementally across queries. One job lives per piece; a
  // query hitting a piece owned by a different pivot first spends its
  // budget finishing that job (the piece then subdivides and navigation
  // retries), so every piece converges and per-query work stays bounded.

  /// Budgeted ForceCut (serial contract, like Cut). See ProgressiveCut for
  /// the answer semantics.
  ProgressiveCut CutProgressive(T v, bool want_incl, size_t max_writes,
                                IoStats* stats = nullptr);

  /// Thread-safe CutProgressive: frontier advances run under the exclusive
  /// range lock of the enclosing piece, frontier state under map_mu_.
  /// Non-exact frontiers stay conservative under concurrency: a partial
  /// pass only moves rows inside the open frontier, and completed cuts only
  /// subdivide, so a span read from a stale frontier is still a superset of
  /// the qualifying rows (callers filter under LockRangeShared).
  ProgressiveCut CutProgressiveConcurrent(T v, bool want_incl,
                                          size_t max_writes,
                                          IoStats* stats = nullptr);

  /// Rows still awaiting partitioning across all carried frontiers (0 once
  /// the column has converged). Thread-safe.
  size_t progressive_pending() const;

  // --- concurrent cracking (core/latch.h) ----------------------------------
  // Pieces are disjoint slot ranges, so crack kernels on different pieces
  // can shuffle concurrently. CutConcurrent navigates the boundary map under
  // a short internal mutex, then takes an *exclusive* range lock on the
  // enclosing piece for the shuffle itself; registered cut positions never
  // move afterwards (cracks only ever subdivide pieces), so readers may rely
  // on returned positions without further coordination. Callers reading tail
  // data inside a span must hold LockRangeShared over it for the duration of
  // the read, which excludes in-flight shuffles of enclosed pieces.
  //
  // Contract: concurrent callers use ONLY CutConcurrent + LockRangeShared +
  // PieceSpanForConcurrent + ValueAtConcurrent + the const accessors below;
  // the serial primitives (Select/ForceCut/...) require external exclusive
  // ownership of the whole index. The two modes must not be mixed without
  // that exclusion.

  /// Thread-safe ForceCut: same postcondition, callable from many threads
  /// at once. Returns the (stable) cut position.
  size_t CutConcurrent(T v, bool want_incl, IoStats* stats = nullptr);

  /// Thread-safe FindCut + usage-clock touch: true (and *pos set) iff the
  /// cut is already registered. CutConcurrent's fast path, exposed so
  /// callers can skip fan-out scheduling when no shuffle is pending.
  bool FindCutConcurrent(T v, bool want_incl, size_t* pos);

  /// Blocks until no concurrent cut is shuffling inside [begin, end); the
  /// returned guard keeps those pieces still while the caller reads them.
  RangeLockGuard LockRangeShared(size_t begin, size_t end) {
    return RangeLockGuard(&range_locks_, begin, end, /*exclusive=*/false);
  }

  /// Thread-safe PieceSpanFor: the undivided slot range around `v`, read
  /// under the boundary-map mutex. A racing cut may subdivide the span the
  /// moment the mutex drops; steered policies tolerate that (a narrower
  /// live span only means the auxiliary work was already done by someone
  /// else).
  std::pair<size_t, size_t> PieceSpanForConcurrent(T v) const;

  /// Thread-safe read of the tail value at `slot`: holds a shared range
  /// lock over [slot, slot+1) so no in-flight shuffle is mid-swap there.
  /// Any value observed is a valid pivot — shuffles only permute tuples
  /// within a piece, so whatever sits at `slot` is some element of the
  /// piece that covered it.
  T ValueAtConcurrent(size_t slot);

  /// The slot range [begin, end) of the piece(s) still undivided around
  /// value `v`: every tuple with tail value v lies inside. Derived from
  /// registered boundaries strictly below/above v, so an existing boundary
  /// at v itself does not narrow the span.
  std::pair<size_t, size_t> PieceSpanFor(T v) const {
    return {LowerLimitFor(v), UpperLimitFor(v)};
  }

  size_t size() const { return n_; }

  /// Number of pieces currently delimited (distinct cut positions + 1).
  /// O(1): the distinct interior cuts are counted as they are registered
  /// and removed.
  size_t num_pieces() const;

  /// Pieces smaller than this get no summary of their own: ReducePieces
  /// covers a run of them with one map lookup and one summary instead of a
  /// step per piece (a lookup costs about what scanning a few hundred rows
  /// does).
  static constexpr size_t kSummaryMinRows = 4096;

  /// Reduces the cracker column over [begin, end), an answer of whole
  /// pieces. Each cut keeps one summary (sum, min, max) of the rows from it
  /// to a later cut: a piece of at least kSummaryMinRows rows, or a run of
  /// at least that many rows of smaller pieces. The walk reuses every
  /// summary inside the answer and scans, then summarizes, the rest. Equal
  /// to AggregateSpan over the same slots in every integer field;
  /// `*rows_read` (optional) is set to the rows a kernel actually read.
  ///
  /// Summaries never go stale: a registered cut at p means slots [0, p)
  /// hold the p smallest values, so the rows between two registered cuts
  /// are a fixed multiset for the index's lifetime, whatever cracks,
  /// progressive passes or fusions did in between; a summary is exact for
  /// as long as both of its cuts exist. Double columns are scanned whole
  /// (their sums depend on the order of addition). Callers sharing the
  /// index hold LockRangeShared over the span; the piece table is read and
  /// written under map_mu_, the kernels run outside it.
  SpanAggregates ReducePieces(size_t begin, size_t end,
                              size_t* rows_read = nullptr);

  /// The cut log: appends to *out every interior cut position registered
  /// since `cursor` (a position in the log), in registration order, and
  /// returns the new cursor. Registered positions never move; a fused cut
  /// (RemoveBound) is struck from the log, so a reader that saw a fusion
  /// restarts from cursor 0 and reads exactly the live cuts. A rebuilt
  /// index (delta merge) starts with a fresh log. Thread-safe.
  size_t CutsSince(size_t cursor, std::vector<size_t>* out) const;

  /// Number of registered boundary values.
  size_t num_bounds() const { return bounds_.size(); }

  /// Piece table in physical order, with value-bound decoration.
  std::vector<CrackPiece<T>> Pieces() const;

  /// Boundary table in value order.
  std::vector<CrackBound<T>> Bounds() const;

  /// Fuses the pieces around `value` by dropping its boundary — no data
  /// movement, only loss of navigation knowledge (paper §3.2: "Fusion of
  /// pieces becomes a necessity"). Fails if no such boundary exists.
  Status RemoveBound(T value);

  /// The cracker column (values, shuffled in place by cracking).
  const std::shared_ptr<Bat>& values() const { return values_; }

  /// The parallel oid map; oids()->Get<Oid>(i) is the source oid of
  /// values()->Get<T>(i).
  const std::shared_ptr<Bat>& oids() const { return oids_; }

  /// Exhaustively re-checks every boundary's semantics against the data
  /// (O(bounds * n); test support).
  Status Validate() const;

 private:
  struct Bound {
    bool has_excl = false;
    size_t pos_excl = 0;
    bool has_incl = false;
    size_t pos_incl = 0;
    uint64_t last_used = 0;
    uint64_t created = 0;
  };

  T* data() { return values_->MutableTailData<T>(); }
  const T* data() const { return values_->TailData<T>(); }
  Oid* oid_data() { return oids_->MutableTailData<Oid>(); }

  /// Largest known position that is <= any cut for value v; scans bounds
  /// strictly below v.
  size_t LowerLimitFor(T v) const;

  /// Smallest known position that is >= any cut for value v; scans bounds
  /// strictly above v.
  size_t UpperLimitFor(T v) const;

  /// Returns the cut position for value `v`:
  ///   want_incl == false -> first index holding values >= v
  ///   want_incl == true  -> first index holding values >  v
  /// Cracks the enclosing piece if the cut is not yet known.
  size_t Cut(T v, bool want_incl, IoStats* stats);

  /// The slot region a cut for `v`/`want_incl` would have to shuffle. Only
  /// valid when the cut is not yet registered.
  void CrackRegionFor(T v, bool want_incl, size_t* begin, size_t* end) const;

  /// Records the cut position `pos` for `v`/`want_incl` and touches the
  /// boundary's usage clock.
  void RegisterCut(T v, bool want_incl, size_t pos);

  /// Sets one side of `b` to `pos`, keeping cut_refs_ in step.
  void SetCutSide(Bound* b, bool incl, size_t pos);

  /// Adds `delta` (+1/-1) references to the cut position `pos`; positions
  /// at the column edges delimit no piece and are not tracked.
  void RefCut(size_t pos, int delta);

  /// FindCut that refreshes the usage clock on a hit (CutConcurrent's
  /// fast path; callers hold map_mu_).
  bool FindCutAndTouch(T v, bool want_incl, size_t* pos);

  void Touch(Bound* b) { b->last_used = clock_++; }

  /// A carried partition frontier: the piece [begin, end) is being
  /// partitioned around `pivot`, with [begin, lo) already satisfying the
  /// predicate, [hi, end) already not, and [lo, hi) open.
  struct ProgressiveJob {
    T pivot{};
    bool want_incl = false;
    size_t begin = 0;
    size_t end = 0;
    size_t lo = 0;
    size_t hi = 0;
  };

  /// Runs one budgeted partition pass on `job` against the cracker column,
  /// charges stats/metrics, sets *done when the frontier closed. Returns
  /// the writes performed. Caller owns the piece (serial contract or the
  /// exclusive range lock).
  size_t AdvanceProgressive(ProgressiveJob* job, size_t max_writes,
                            bool* done, IoStats* stats);

  /// Drops any frontier carried for the piece starting at `begin` — called
  /// wherever a full (non-progressive) kernel is about to repartition that
  /// piece, which invalidates the frontier's invariant.
  void InvalidateProgressive(size_t begin) { progressive_.erase(begin); }

  /// Integer reduction of the slots from a cut to the later cut `end`
  /// (0: none kept); exact for as long as `end` is still a cut.
  struct PieceSummary {
    size_t end = 0;
    int64_t sum = 0;  ///< wrapping
    int64_t min = 0;
    int64_t max = 0;
  };

  /// One interior cut position: how many bound sides sit there, and the
  /// summary kept for the rows starting at it.
  struct CutRef {
    uint32_t refs = 0;
    PieceSummary summary;
  };

  std::map<T, Bound> bounds_;
  /// Interior cut positions -> CutRef. Its size is the number of distinct
  /// cuts, so num_pieces() is O(1). Guarded like bounds_ (map_mu_ on the
  /// concurrent path).
  std::map<size_t, CutRef> cut_refs_;
  /// Summary kept for the rows starting at slot 0 (no cut_refs_ entry).
  PieceSummary head_summary_;
  /// The keys of cut_refs_ in registration order (see CutsSince). Guarded
  /// like cut_refs_.
  std::vector<size_t> cut_log_;
  /// Progressive frontiers, keyed by their piece's begin slot (one job per
  /// piece). Guarded by map_mu_ on the concurrent path.
  std::map<size_t, ProgressiveJob> progressive_;
  std::shared_ptr<Bat> values_;
  std::shared_ptr<Bat> oids_;
  /// Raw tail pointers, cached so concurrent kernels skip the Bat accessor
  /// (whose stats invalidation is a write). The cracker column never grows,
  /// so the pointers are stable for the index's lifetime.
  T* raw_values_ = nullptr;
  Oid* raw_oids_ = nullptr;
  size_t n_ = 0;
  uint64_t clock_ = 1;
  CrackerIndexOptions options_;
  /// Guards bounds_/clock_ among CutConcurrent callers (and makes the const
  /// piece/bound snapshots safe against in-flight concurrent cuts). The
  /// serial primitives bypass it; see the concurrency contract above.
  mutable std::mutex map_mu_;
  RangeLockTable range_locks_;  ///< piece-granular data locks
};

extern template class CrackerIndex<int32_t>;
extern template class CrackerIndex<int64_t>;
extern template class CrackerIndex<double>;

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_CRACKER_INDEX_H_
