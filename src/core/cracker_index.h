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
//     tree stores their (min,max) knowledge, sizes and usage clocks, and per
//     cut position one record (prefix sum, extremes of its two pieces) that
//     the crack creating it fills and pushed-down aggregates read
//     (ReducePieces).
//
// Each range selection first navigates the tree, cracks at most the two
// pieces at the predicate boundaries (crack-in-three when both ends fall in
// one piece), registers the new boundaries, and answers with a zero-copy
// contiguous view — "the incremental buildup of a search accelerator, driven
// by actual queries" (paper §2.2).

#ifndef CRACKSTORE_CORE_CRACKER_INDEX_H_
#define CRACKSTORE_CORE_CRACKER_INDEX_H_

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/crack_kernels.h"
#include "core/latch.h"
#include "core/oid_bit_table.h"
#include "core/radix_partition.h"
#include "storage/bat.h"
#include "obs/query_stats.h"
#include "util/macros.h"
#include "util/result.h"
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
  /// Radix bits k of the build, in [0, kMaxPartitionBits]. k = 0 copies the
  /// source tail; k > 0 scatters an integer column into 2^k equal-width
  /// value ranges (core/radix_partition.h) and registers their edges as
  /// cuts. Double columns always copy.
  int partition_bits = 0;
};

/// The radix bits the store builds an n-row integer cracker column with:
/// 0 (a plain copy) below 2^21 rows, otherwise enough bits for value
/// ranges of 2^15..2^16 rows of a dense domain, at most kMaxPartitionBits.
/// Smaller columns keep the copy: their first crack is cheap enough that a
/// radix pass would cost more than it saves.
inline int PartitionBitsFor(size_t n) {
  if (n < (size_t{1} << 21)) return 0;
  int bits = 0;
  while (bits < kMaxPartitionBits && ((n - 1) >> (16 + bits)) != 0) ++bits;
  return bits;
}

/// The cracker index over one numeric column. T in {int32_t, int64_t,
/// double}.
template <typename T>
class CrackerIndex {
 public:
  /// Builds the index over `source`, cloning its tail into the cracker
  /// column and materializing the oid map. The copy cost (n reads, n writes)
  /// is charged to `stats` — this is the investment Figures 2-3 analyze.
  /// With options.partition_bits > 0 an integer column is radix-partitioned
  /// instead: the value ranges' edges become exclusive cuts whose records
  /// come from the ranges' reductions, and the pass is charged like a crack
  /// (n reads, n writes, one kernel pass, a new piece per non-empty range
  /// after the first).
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

  /// The delta fold: a new index over this column's rows except `drop`,
  /// followed by the rows `add`, cracked at every boundary this one has
  /// learned, so the navigation knowledge survives maintenance. The
  /// boundaries replay in binary-split order (the median first, then each
  /// half recursively), which keeps every re-crack inside half its
  /// parent's region: O(n log B) instead of a value-ordered replay's
  /// O(B n). Fails when `drop` names a row the column does not hold.
  /// Charges the copy and the re-cracks to `stats`; the caller keeps this
  /// index quiet.
  Result<std::unique_ptr<CrackerIndex>> Fold(
      const OidBitTable& drop, const std::vector<std::pair<T, Oid>>& add,
      IoStats* stats = nullptr) const;

  // --- concurrency contract -------------------------------------------------
  // Every primitive below is safe to call from many threads at once. Pieces
  // are disjoint slot ranges, so crack kernels on different pieces shuffle
  // concurrently: a primitive reads the boundary map under a short internal
  // mutex (map_mu_), then takes an *exclusive* range lock on the enclosing
  // piece for the shuffle, re-reads the map under that lock (a neighbour may
  // have cut the piece meanwhile; pieces only ever subdivide) and registers
  // the new cut. Registered cut positions never move afterwards. A caller
  // reading tail data inside a span — a selection's views, a piece it
  // reduces — holds LockRangeShared over it for the duration of the read,
  // which excludes in-flight shuffles of the pieces inside. Single-threaded
  // callers take the same locks, always uncontended.

  /// Range selection with explicit bound inclusivity. The result holds
  /// values v with (lo_incl ? v >= lo : v > lo) && (hi_incl ? v <= hi :
  /// v < hi). Cracks at most two pieces; when both bounds fall in one piece
  /// it is cracked in three with a single pass. An inverted range yields an
  /// empty selection. The views are stable only under LockRangeShared.
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
  /// inclusivity is already registered. Never cracks; a hit refreshes the
  /// boundary's usage clock, so LRU-based merge budgets stay honest about
  /// which boundaries the workload still needs.
  bool FindCut(T v, bool want_incl, size_t* pos);

  /// Registers the cut for `v` (cracking the enclosing piece if needed) and
  /// returns its position — the crack-at-pivot primitive:
  ///   want_incl == false -> first index holding values >= v
  ///   want_incl == true  -> first index holding values >  v
  /// `stats` is charged the kernel pass and the pieces this call created.
  size_t Cut(T v, bool want_incl, IoStats* stats = nullptr);

  /// The slot range [begin, end) of the piece(s) still undivided around
  /// value `v`: every tuple with tail value v lies inside. Derived from
  /// registered boundaries strictly below/above v, so an existing boundary
  /// at v itself does not narrow the span. A racing cut may subdivide the
  /// span the moment the map mutex drops; steered policies tolerate that (a
  /// narrower live span only means the work was already done by someone
  /// else).
  std::pair<size_t, size_t> PieceSpanFor(T v) const;

  /// The piece holding slot `pos`: [last cut at or before pos, first cut
  /// after it), with 0 and size() standing in at the column's edges. Every
  /// row of it lies below every row right of it.
  std::pair<size_t, size_t> PieceAt(size_t pos) const;

  /// The tail value at `slot`, read under a shared range lock over
  /// [slot, slot+1) so no in-flight shuffle is mid-swap there. Any value
  /// observed is a valid pivot: shuffles only permute tuples within a
  /// piece, so whatever sits at `slot` is some element of the piece that
  /// covered it.
  T ValueAt(size_t slot);

  /// Blocks until no cut is shuffling inside [begin, end); the returned
  /// guard keeps those pieces still while the caller reads them.
  RangeLockGuard LockRangeShared(size_t begin, size_t end) {
    return RangeLockGuard(&range_locks_, begin, end, /*exclusive=*/false);
  }

  // --- progressive cracking (CrackPolicy::kProgressive) --------------------
  // A budgeted cut performs at most `max_writes` tuple writes (plus one
  // swap of overshoot) and carries the partition frontier per piece, so the
  // cut completes incrementally across queries. One job lives per piece; a
  // query hitting a piece owned by a different pivot first spends its
  // budget finishing that job (the piece then subdivides and navigation
  // retries), so every piece converges and per-query work stays bounded.

  /// Budgeted Cut. See ProgressiveCut for the answer semantics. Frontier
  /// advances run under the exclusive range lock of the enclosing piece,
  /// frontier state under map_mu_. Non-exact frontiers stay conservative
  /// under concurrency: a partial pass only moves rows inside the open
  /// frontier, and completed cuts only subdivide, so a span read from a
  /// stale frontier is still a superset of the qualifying rows (callers
  /// filter it under LockRangeShared).
  ProgressiveCut CutProgressive(T v, bool want_incl, size_t max_writes,
                                IoStats* stats = nullptr);

  /// Rows still awaiting partitioning across all carried frontiers (0 once
  /// the column has converged).
  size_t progressive_pending() const;

  size_t size() const { return n_; }

  /// Radix bits the column was built with (0: a copy). A delta merge's
  /// rebuilt index keeps the number: it replays the range edges as cuts.
  int partition_bits() const { return options_.partition_bits; }

  /// Number of pieces currently delimited (distinct cut positions + 1).
  /// O(1): the distinct interior cuts are counted as they are registered
  /// and removed.
  size_t num_pieces() const;

  /// Reduces the cracker column over any [begin, end). The whole pieces
  /// between the first record position at or after begin and the last at
  /// or before end (a cut, or 0 and n once the column's first crack has
  /// run) are answered from those two records: SUM = P(last) - P(first),
  /// COUNT = last - first, MIN = the min after `first`, MAX = the max
  /// before `last`. Only the partial pieces at the two edges are scanned,
  /// so an answer whose ends are both cuts reads no row. Equal to
  /// AggregateSpan over the same slots in every integer field; `*rows_read`
  /// (optional) is set to the rows a kernel actually read.
  ///
  /// Records never go stale: a registered cut at p means slots [0, p) hold
  /// the p smallest values, so P(p), the max of [0, p) and the min of
  /// [p, n) are fixed for the index's lifetime, whatever cracks,
  /// progressive passes or fusions happen later. Double columns are scanned
  /// whole (their sums depend on the order of addition). Callers hold
  /// LockRangeShared over [begin, end), which covers the edge scans; the
  /// records are read under map_mu_, the kernels run outside it.
  SpanAggregates ReducePieces(size_t begin, size_t end,
                              size_t* rows_read = nullptr);

  /// The cut log: appends to *out every interior cut position registered
  /// since `cursor` (a position in the log), in registration order, and
  /// returns the new cursor. Registered positions never move; a fused cut
  /// (RemoveBound) is struck from the log, so a reader that saw a fusion
  /// restarts from cursor 0 and reads exactly the live cuts. A rebuilt
  /// index (delta merge) starts with a fresh log.
  size_t CutsSince(size_t cursor, std::vector<size_t>* out) const;

  /// Number of registered boundary values.
  size_t num_bounds() const;

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

  /// Exhaustively re-checks every boundary's semantics and every cut record
  /// against the data (O(bounds * n); test support — the caller keeps the
  /// index quiet).
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

  /// Largest known position that is <= any cut for value v; scans bounds
  /// strictly below v.
  size_t LowerLimitFor(T v) const;

  /// Smallest known position that is >= any cut for value v; scans bounds
  /// strictly above v.
  size_t UpperLimitFor(T v) const;

  /// The slot region a cut for `v`/`want_incl` would have to shuffle. Only
  /// valid when the cut is not yet registered.
  void CrackRegionFor(T v, bool want_incl, size_t* begin, size_t* end) const;

  /// What the rows around one cut position p reduce to. Exact for the
  /// index's lifetime once filled (see ReducePieces).
  struct CutRecord {
    int64_t prefix = 0;  ///< wrapping sum of slots [0, p): P(p)
    /// Max of [0, p), i.e. of the piece ending at p (the identity at 0).
    int64_t max_before = std::numeric_limits<int64_t>::min();
    /// Min of [p, n), i.e. of the piece starting at p (the identity at n).
    int64_t min_after = std::numeric_limits<int64_t>::max();
  };

  /// The records of the positions a pass over [b, e) produced: `parts` are
  /// the reductions of its `num_parts` consecutive parts, `from` and `to`
  /// the records at b and e. out[0] is the record at b, out[k] the one
  /// after part k - 1, out[num_parts] the one at e (`from` and `to` may be
  /// out[0] and out[num_parts] themselves). Only from.prefix,
  /// from.max_before and to.min_after are read, and those are known at 0
  /// and n even before the column's first crack.
  static void RecordCuts(const CutRecord& from, const CutRecord& to,
                         const PartReduction* parts, size_t num_parts,
                         CutRecord* out);

  /// The record at the crack-region end `pos` (0, n or a registered cut).
  /// Caller holds map_mu_.
  CutRecord RecordAtLocked(size_t pos) const;

  /// After a pass over [b, e) whose positions got the records `out` (as
  /// RecordCuts lays them out) from parts that carry their outer extremes
  /// (see simd_dispatch.h): fills the records at 0 and n, and marks them
  /// known once a pass covered the whole column. The first pass is always
  /// one (no cut bounds it), and asks its kernel for those extremes; later
  /// cracks skip them. Caller holds map_mu_.
  void NoteEdgeRecords(size_t b, size_t e, const CutRecord* out,
                       size_t num_parts);

  /// Records the cut position `pos` for `v`/`want_incl` and touches the
  /// boundary's usage clock. `record` is stored if `pos` is a new interior
  /// cut position.
  void RegisterCut(T v, bool want_incl, size_t pos, const CutRecord& record);

  /// Sets one side of `b` to `pos`, keeping cut_refs_ in step.
  void SetCutSide(Bound* b, bool incl, size_t pos, const CutRecord& record);

  /// Adds a reference to the cut position `pos`, storing `record` if it is
  /// new; positions at the column edges delimit no piece and are not
  /// tracked.
  void AddCutRef(size_t pos, const CutRecord& record);

  /// Drops a reference to `pos`; the last one deletes its record.
  void DropCutRef(size_t pos);

  /// FindCut for callers that hold map_mu_.
  bool FindCutLocked(T v, bool want_incl, size_t* pos);

  /// Select's single-pass path: cracks the piece holding both bounds in
  /// three and registers both cuts. Returns false, having done nothing,
  /// when a boundary already lies inside [lo, hi].
  bool CrackInThreeIfWhole(T lo, bool lo_incl, T hi, bool hi_incl,
                           IoStats* stats, size_t* cut_lo, size_t* cut_hi);

  /// Charges one kernel pass over the piece [begin, end) that wrote
  /// `writes` tuples and split it at the `num_cuts` ascending positions
  /// `cuts`.
  void ChargeCrack(size_t begin, size_t end, size_t writes,
                   const size_t* cuts, size_t num_cuts, IoStats* stats) const;

  /// The radix build: scatters src (oids from `base`) into the cracker
  /// column, registers the range edges with their records, charges the
  /// pass.
  void PartitionBuild(const T* src, Oid base, IoStats* stats);

  void Touch(Bound* b) { b->last_used = clock_++; }

  /// A carried partition frontier: the piece [begin, end) is being
  /// partitioned around `pivot`, with [begin, lo) already satisfying the
  /// predicate, [hi, end) already not, and [lo, hi) open. `left` and
  /// `right` reduce [begin, lo) and [hi, end): once the frontier closes
  /// they are the parts the cut's record comes from.
  struct ProgressiveJob {
    T pivot{};
    bool want_incl = false;
    size_t begin = 0;
    size_t end = 0;
    size_t lo = 0;
    size_t hi = 0;
    PartReduction left;
    PartReduction right;
  };

  /// Runs one budgeted partition pass on `job` against the cracker column,
  /// charges stats/metrics, sets *done when the frontier closed. Returns
  /// the writes performed. Caller holds the piece's exclusive range lock.
  size_t AdvanceProgressive(ProgressiveJob* job, size_t max_writes,
                            bool* done, IoStats* stats);

  /// Drops any frontier carried for the piece starting at `begin` — called
  /// (under map_mu_) wherever a full (non-progressive) kernel is about to
  /// repartition that piece, which invalidates the frontier's invariant.
  void InvalidateProgressive(size_t begin) { progressive_.erase(begin); }

  /// One interior cut position: how many bound sides sit there, and its
  /// record.
  struct CutRef {
    uint32_t refs = 0;
    CutRecord record;
  };

  std::map<T, Bound> bounds_;
  /// Interior cut positions -> CutRef. Its size is the number of distinct
  /// cuts, so num_pieces() is O(1). Guarded by map_mu_, like bounds_.
  std::map<size_t, CutRef> cut_refs_;
  /// The records at positions 0 and n, valid once edges_recorded_: the
  /// column's min after 0, its sum and max before n. Filled by the first
  /// pass over the whole column (the radix build or the first crack).
  /// Guarded like cut_refs_.
  CutRecord edge_records_[2];
  bool edges_recorded_ = false;
  /// The keys of cut_refs_ in registration order (see CutsSince). Guarded
  /// like cut_refs_.
  std::vector<size_t> cut_log_;
  /// Progressive frontiers, keyed by their piece's begin slot (one job per
  /// piece). Guarded by map_mu_.
  std::map<size_t, ProgressiveJob> progressive_;
  std::shared_ptr<Bat> values_;
  std::shared_ptr<Bat> oids_;
  /// Raw tail pointers, cached so kernels skip the Bat accessor (whose
  /// stats invalidation is a write). The cracker column never grows,
  /// so the pointers are stable for the index's lifetime.
  T* raw_values_ = nullptr;
  Oid* raw_oids_ = nullptr;
  size_t n_ = 0;
  uint64_t clock_ = 1;
  CrackerIndexOptions options_;
  /// Guards the boundary map, the cut table, the usage clock and the
  /// progressive frontiers. Never held while a kernel runs.
  mutable std::mutex map_mu_;
  RangeLockTable range_locks_;  ///< piece-granular data locks
};

extern template class CrackerIndex<int32_t>;
extern template class CrackerIndex<int64_t>;
extern template class CrackerIndex<double>;

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_CRACKER_INDEX_H_
