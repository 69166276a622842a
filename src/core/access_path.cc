// Copyright 2026 The CrackStore Authors

#include "core/access_path.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/instruments.h"
#include "obs/trace.h"

#include "core/column_deltas.h"
#include "core/latch.h"
#include "core/oid_bit_table.h"
#include "core/sorted_column.h"
#include "core/value_ordered_oids.h"
#include "storage/dictionary.h"
#include "util/string_util.h"

namespace crackstore {

const char* AccessStrategyName(AccessStrategy strategy) {
  switch (strategy) {
    case AccessStrategy::kScan:
      return "scan";
    case AccessStrategy::kCrack:
      return "crack";
    case AccessStrategy::kSort:
      return "sort";
  }
  return "?";
}

Result<AccessSelection> ColumnAccessPath::SelectTyped(const TypedRange& range,
                                                      Delivery delivery,
                                                      IoStats* stats,
                                                      const SnapshotView* view) {
  if (range.has_string()) {
    return Status::TypeMismatch(
        "string predicate on a numeric access path (string bounds need a "
        "string column)");
  }
  return Select(range.ToNumericBounds(), delivery, stats, view);
}

Status ColumnAccessPath::Purge(const std::vector<Oid>& oids, IoStats* stats) {
  for (Oid oid : oids) {
    Status st = Delete(oid, stats);
    // NotFound: the row never physically landed (failed append);
    // AlreadyExists: an earlier purge already tombstoned it.
    if (!st.ok() && !st.IsNotFound() && !st.IsAlreadyExists()) return st;
  }
  return FlushDeltas(stats);
}

bool ColumnAccessPath::WantsMaintenance(bool before_read) const {
  const size_t pending = pending_deltas_.load(std::memory_order_relaxed);
  if (pending == 0) return false;
  const DeltaMergeOptions& merge = config().delta_merge;
  switch (merge.policy) {
    case DeltaMergePolicy::kImmediate:
      return true;
    case DeltaMergePolicy::kThreshold:
      return pending >
             static_cast<size_t>(
                 merge.threshold_fraction *
                 static_cast<double>(
                     accel_tuples_.load(std::memory_order_relaxed)));
    case DeltaMergePolicy::kRippleOnSelect:
      return before_read;
  }
  return false;
}

namespace {

/// Clamps int64 range bounds into the typed domain of the column so that
/// sentinel bounds (INT64_MIN/MAX) work for narrower types. Floating-point
/// columns take the bounds verbatim (every int64 is representable, modulo
/// rounding at the extremes).
template <typename T>
void ClampRange(const RangeBounds& range, T* lo, bool* lo_incl, T* hi,
                bool* hi_incl) {
  if constexpr (std::is_floating_point_v<T>) {
    *lo = static_cast<T>(range.lo);
    *hi = static_cast<T>(range.hi);
    *lo_incl = range.lo_incl;
    *hi_incl = range.hi_incl;
  } else {
    int64_t tmin = static_cast<int64_t>(std::numeric_limits<T>::min());
    int64_t tmax = static_cast<int64_t>(std::numeric_limits<T>::max());
    int64_t lo64 = std::clamp(range.lo, tmin, tmax);
    int64_t hi64 = std::clamp(range.hi, tmin, tmax);
    *lo = static_cast<T>(lo64);
    *hi = static_cast<T>(hi64);
    // A bound clamped from *outside* the domain keeps its meaning via the
    // inclusivity: lo = INT64_MIN over int32 becomes lo = INT32_MIN inclusive
    // (everything passes that side), while lo > INT32_MAX becomes
    // lo = INT32_MAX exclusive (nothing can satisfy v >= lo). Mirrored for hi.
    *lo_incl = (lo64 != range.lo) ? (range.lo < tmin) : range.lo_incl;
    *hi_incl = (hi64 != range.hi) ? (range.hi > tmax) : range.hi_incl;
  }
}

/// Narrows a dynamically-typed DML value into the column's domain. Owners
/// coerce rows to the column types before the base mutation (CoerceRow), so
/// this is a defensive cast, not a validation point.
template <typename T>
T CastValue(const Value& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v.is_double() ? static_cast<T>(v.AsDouble())
                         : static_cast<T>(v.ToInt64());
  } else {
    int64_t wide = v.is_double() ? static_cast<int64_t>(v.AsDouble())
                                 : v.ToInt64();
    return static_cast<T>(
        std::clamp(wide, static_cast<int64_t>(std::numeric_limits<T>::min()),
                   static_cast<int64_t>(std::numeric_limits<T>::max())));
  }
}

/// The range predicate, stated positively so that a NaN satisfies no range.
template <typename T>
bool InRange(T v, T lo, bool lo_incl, T hi, bool hi_incl) {
  return (lo_incl ? v >= lo : v > lo) && (hi_incl ? v <= hi : v < hi);
}

std::string ExplainPieces(const std::vector<PieceInfo>& pieces) {
  std::string out;
  size_t shown = 0;
  for (const PieceInfo& p : pieces) {
    if (++shown > 64) {
      out += StrFormat("  ... (%zu pieces)\n", pieces.size());
      break;
    }
    std::string lo = p.has_lo ? StrFormat("%s%lld", p.lo_strict ? ">" : ">=",
                                          static_cast<long long>(p.lo))
                              : "-inf";
    std::string hi = p.has_hi ? StrFormat("%s%lld", p.hi_strict ? "<" : "<=",
                                          static_cast<long long>(p.hi))
                              : "+inf";
    out += StrFormat("  piece [%zu, %zu) size=%zu  values %s .. %s\n",
                     p.begin, p.end, p.size(), lo.c_str(), hi.c_str());
  }
  return out;
}

/// Delete() validation of the scan and dictionary paths: inserts append to
/// the base before notifying the path, so the base size bounds every oid
/// ever issued (ColumnDeltas applies the same bound before its build).
Status CheckDeletableOid(const Bat& column, Oid oid) {
  if (oid < column.head_base() || oid >= column.head_base() + column.size()) {
    return Status::NotFound(
        StrFormat("oid %llu was never inserted",
                  static_cast<unsigned long long>(oid)));
  }
  return Status::OK();
}

Status AlreadyDeletedError(Oid oid) {
  return Status::AlreadyExists(
      StrFormat("oid %llu already deleted",
                static_cast<unsigned long long>(oid)));
}

/// The whole column as one undecorated piece.
std::vector<PieceInfo> WholeColumnPiece(size_t n) {
  PieceInfo piece;
  piece.begin = 0;
  piece.end = n;
  return {piece};
}

/// True when `view` can change an answer (hide rows or override values).
inline bool ViewActive(const SnapshotView* view) {
  return view != nullptr && view->active();
}

/// Calls fn(value, oid) for every row an answer over the physical rows
/// must add: the qualifying pending inserts the view does not hide, and the
/// rows whose value at the snapshot qualifies (a view's overrides: rows
/// whose value postdates the snapshot were dropped from the physical answer
/// with the hidden rows; vacuum-purged rows stay out via RowVisible).
template <typename T, typename Fn>
void ForEachExtra(const std::vector<std::pair<T, Oid>>& pending, T lo,
                  bool lo_incl, T hi, bool hi_incl, const SnapshotView* view,
                  Fn&& fn) {
  const bool versioned = ViewActive(view);
  for (const auto& [value, oid] : pending) {
    if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
    // Only the snapshot filter applies here: an updated row is tombstoned
    // at its old position AND pending at its new value — the tombstone
    // must not cancel the pending re-entry.
    if (versioned && view->Hides(oid)) continue;
    fn(value, oid);
  }
  if (!versioned) return;
  for (const auto& [oid, value] : view->overrides()) {
    if (!view->RowVisible(oid)) continue;
    const T tv = CastValue<T>(value);
    if (!InRange(tv, lo, lo_incl, hi, hi_incl)) continue;
    fn(tv, oid);
  }
}

/// Marks the hidden rows of the span [begin, end) of the oid map `map` as
/// exceptions of `set`, whose only span it is: one pass over the span's
/// oids, stopping at the last hidden one (a cracker column does not know
/// where in its piece a row lies). Every hidden row must lie in the span.
/// Returns the rows passed over.
template <typename T>
size_t MarkHidden(const Oid* map, size_t begin, size_t end,
                  const std::vector<std::pair<T, Oid>>& hidden,
                  OidSpanSet* set) {
  std::vector<Oid> oids;
  oids.reserve(hidden.size());
  // A 4096-bit filter on the low oid bits settles most rows with one bit
  // test; the rest are looked up among the sorted hidden oids.
  uint64_t filter[64] = {};
  for (const auto& [value, oid] : hidden) {
    oids.push_back(oid);
    filter[(oid >> 6) & 63] |= uint64_t{1} << (oid & 63);
  }
  std::sort(oids.begin(), oids.end());
  size_t left = oids.size();
  size_t i = begin;
  for (; i < end && left > 0; ++i) {
    const Oid oid = map[i];
    if (((filter[(oid >> 6) & 63] >> (oid & 63)) & 1) == 0) continue;
    if (!std::binary_search(oids.begin(), oids.end(), oid)) continue;
    set->MarkException(i - begin);
    --left;
  }
  CRACK_DCHECK(left == 0);
  return i - begin;
}

/// MarkHidden over a sorted copy's span, whose values `values` are in
/// order: a binary search finds each hidden row's value run, and only that
/// run is walked for its oid. Returns the rows read: one search of the span
/// per hidden row, plus the run rows walked past the first.
template <typename T>
size_t MarkHiddenSorted(const T* values, const Oid* map, size_t begin,
                        size_t end,
                        const std::vector<std::pair<T, Oid>>& hidden,
                        OidSpanSet* set) {
  const size_t search = CeilLog2(end - begin);
  size_t read = 0;
  size_t left = hidden.size();
  for (const auto& [value, oid] : hidden) {
    read += search;
    size_t i = static_cast<size_t>(
        std::lower_bound(values + begin, values + end, value, ValueLess<T>) -
        values);
    for (; i < end && !ValueLess(value, values[i]); ++i, ++read) {
      if (map[i] == oid) {
        set->MarkException(i - begin);
        --left;
        break;
      }
    }
  }
  CRACK_DCHECK(left == 0);
  return read;
}

/// The one answer rule of a value-ordered layout (a cracker column or a
/// sorted copy): `out->span_set`'s only span, [begin, end) over the oid map
/// `map`, holds every row whose physical value is in range, plus `misses`
/// value misses already marked as exceptions. Every hidden candidate is
/// filed by a value in range, so it lies in the span and is never a miss:
/// COUNT is span − misses − hidden + extras. A row-consuming answer also
/// marks the hidden rows and lists the extras (ForEachExtra's rows); a
/// kCount answer does neither. A sorted copy passes its values as
/// `sorted_values` and finds each hidden row by its value; a cracker column
/// passes null and walks the span. Callers hold the range lock over the
/// span and the delta latch.
template <typename T>
void AnswerSpan(ColumnDeltas<T>* deltas, const T* sorted_values,
                const Oid* map, size_t begin, size_t end, size_t misses, T lo,
                bool lo_incl, T hi, bool hi_incl, bool deliver_rows,
                const SnapshotView* view, IoStats* stats,
                AccessSelection* out) {
  std::vector<std::pair<T, Oid>> hidden =
      deltas->HiddenIn(lo, lo_incl, hi, hi_incl, view, stats);
  out->count = (end - begin) - misses - hidden.size();
  if (deliver_rows && !hidden.empty()) {
    const size_t read =
        sorted_values != nullptr
            ? MarkHiddenSorted(sorted_values, map, begin, end, hidden,
                               &out->span_set)
            : MarkHidden(map, begin, end, hidden, &out->span_set);
    if (stats != nullptr) stats->tuples_read += read;
  }
  ForEachExtra<T>(deltas->pending(), lo, lo_incl, hi, hi_incl, view,
                  [&](T, Oid oid) {
                    ++out->count;
                    if (deliver_rows) out->span_set.AddExtra(oid);
                  });
  if (stats != nullptr) stats->tuples_read += deltas->pending().size();
}

/// Takes the hidden rows (in value order) out of `agg`, the reduction of a
/// value-ordered span: COUNT and SUM subtract them; MIN and MAX stand
/// unless a hidden row holds the extreme, and then
/// `visible_extreme(want_min, &read)` finds the new one. Returns the rows
/// those rescans read.
template <typename T, typename Extreme>
size_t SubtractHidden(const std::vector<std::pair<T, Oid>>& hidden,
                      Extreme&& visible_extreme, SpanAggregates* agg) {
  uint64_t sum = static_cast<uint64_t>(agg->sum_i);
  for (const auto& [value, oid] : hidden) {
    sum -= static_cast<uint64_t>(static_cast<int64_t>(value));
  }
  agg->sum_i = static_cast<int64_t>(sum);
  agg->count -= hidden.size();
  size_t read = 0;
  if (agg->count == 0) return read;
  if (static_cast<int64_t>(hidden.front().first) == agg->min_i) {
    agg->min_i = visible_extreme(/*want_min=*/true, &read);
  }
  if (static_cast<int64_t>(hidden.back().first) == agg->max_i) {
    agg->max_i = visible_extreme(/*want_min=*/false, &read);
  }
  return read;
}

/// Folds a span-kernel result plus the scalar corrections — ForEachExtra's
/// qualifying pending inserts and snapshot override re-admissions — into
/// the int64-widened aggregate answer. The corrections are purely additive:
/// the span reduction already excludes every overridden and hidden row,
/// which is what makes MIN/MAX pushable at all. `span_read` of the `span_n`
/// span rows were read by a kernel; cut records answered the rest.
template <typename T>
void FoldAggregates(const SpanAggregates& agg, size_t span_n, size_t span_read,
                    const std::vector<std::pair<T, Oid>>& pending, T lo,
                    bool lo_incl, T hi, bool hi_incl, const SnapshotView* view,
                    IoStats* stats, ColumnAggregates* out) {
  out->pushdown_rows = span_n;
  out->summary_rows = span_n - span_read;
  out->rows = agg.count;
  // Wrapping uint64 matches both the kernel contract and the executor's
  // scalar int64 accumulator (two's complement).
  uint64_t sum = static_cast<uint64_t>(agg.sum_i);
  bool have = agg.count > 0;
  int64_t mn = have ? agg.min_i : 0;
  int64_t mx = have ? agg.max_i : 0;
  ForEachExtra<T>(pending, lo, lo_incl, hi, hi_incl, view, [&](T value, Oid) {
    const int64_t v = static_cast<int64_t>(value);
    sum += static_cast<uint64_t>(v);
    ++out->rows;
    if (!have || v < mn) mn = v;
    if (!have || v > mx) mx = v;
    have = true;
  });
  out->sum = static_cast<int64_t>(sum);
  out->has_minmax = have;
  out->min = mn;
  out->max = mx;
  if (stats != nullptr) stats->tuples_read += span_read + pending.size();
}

/// Shared empty-range probe for the aggregate entry points.
template <typename T>
bool EmptyRange(T lo, bool lo_incl, T hi, bool hi_incl) {
  return lo > hi || (lo == hi && !(lo_incl && hi_incl));
}

// --- crack ----------------------------------------------------------------

template <typename T>
class CrackAccessPath : public ColumnAccessPath {
 public:
  CrackAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)),
        config_(config),
        engine_(config.policy),
        deltas_(column_) {}

  AccessStrategy strategy() const override { return AccessStrategy::kCrack; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    // Cracking parallelizes across pieces: every shuffle is covered by a
    // range lock inside the cracker index, and every policy steers through
    // the index's thread-safe primitives. Only merge budgets need the
    // exclusive latch: they rewrite the boundary map on every select.
    return config_.merge_budget.unlimited() ? PathConcurrency::kSharedReads
                                            : PathConcurrency::kExclusiveOnly;
  }

  bool SharedSelectReady() const override {
    return built_.load(std::memory_order_acquire);
  }

  AccessSelection Select(const RangeBounds& range, Delivery delivery,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    AccessSelection out;
    // Provably-empty range: answer before paying the O(n) index build
    // (nothing — not even an override — can satisfy an empty range).
    if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
    // Pin the policy once: under kAuto a detector switch may land
    // mid-select, and the two bounds must run the same discipline.
    const CrackPolicy policy = Observe(lo, hi);
    EnsureBuilt(stats);
    CrackerIndex<T>* inner = index_.get();
    size_t cut_lo = 0;
    size_t cut_hi = 0;
    bool exact = true;
    switch (policy) {
      case CrackPolicy::kStochastic:
        // DDC: shrink the pieces the bounds land in with random pivots
        // first, so progress is made even when the bounds themselves follow
        // a pathological (e.g. sequential) pattern.
        StochasticShrink(lo, /*want_incl=*/!lo_incl, stats);
        StochasticShrink(hi, /*want_incl=*/hi_incl, stats);
        [[fallthrough]];
      case CrackPolicy::kStandard:
      case CrackPolicy::kAuto: {  // effective() never reports kAuto
        CrackSelection sel = inner->Select(lo, lo_incl, hi, hi_incl, stats);
        cut_lo = sel.values.offset();
        cut_hi = cut_lo + sel.count();
        break;
      }
      case CrackPolicy::kCoarse:
        exact = CoarseCuts(lo, lo_incl, hi, hi_incl, stats, &cut_lo, &cut_hi);
        break;
      case CrackPolicy::kProgressive:
        exact = ProgressiveCuts(lo, lo_incl, hi, hi_incl, stats, &cut_lo,
                                &cut_hi);
        break;
    }
    const bool deliver_rows = delivery != Delivery::kCount;
    {
      // The answer is formed while the span holds still (no shuffle inside
      // it) and the delta latch keeps the deltas and the hidden-candidate
      // table stable. Cut positions themselves never move once registered.
      RangeLockGuard span = inner->LockRangeShared(cut_lo, cut_hi);
      std::lock_guard<std::mutex> dl(delta_mu_);
      // Zero-materialization answer: a piece of the cracked column is one
      // span over its permuted oid map.
      out.span_set.BindOidMap(inner->oids());
      out.span_set.AddSpan(cut_lo, cut_hi);
      // A conservative span (a fuzzy coarse edge, an open progressive
      // frontier) first marks its value misses.
      const size_t misses =
          exact ? 0
                : MarkValueMisses(inner, cut_lo, cut_hi, lo, lo_incl, hi,
                                  hi_incl, stats, &out.span_set);
      AnswerSpan<T>(&deltas_, /*sorted_values=*/nullptr,
                    inner->oids()->template TailData<Oid>(), cut_lo, cut_hi,
                    misses, lo, lo_incl, hi, hi_incl, deliver_rows, view,
                    stats, &out);
      CRACK_DCHECK(!deliver_rows || out.count == out.span_set.count());
      // Rows delivered to a caller sharing the column with threads that may
      // crack it next must be resolved while the span still holds them.
      if (deliver_rows && config_.concurrent) out.span_set.Detach();
    }
    if (!config_.merge_budget.unlimited()) {
      out.bounds_dropped =
          EnforceMergeBudget(inner, config_.merge_budget, stats);
    }
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      // The aggregate is still a query, so it still advises the detector.
      const CrackPolicy policy = Observe(lo, hi);
      if (policy == CrackPolicy::kProgressive) {
        // A budgeted crack may leave open frontiers; cutting exactly here
        // would blow the write budget the policy promises to honor.
        return Status::Unimplemented(
            "aggregate pushdown: progressive cracks stay budgeted");
      }
      EnsureBuilt(stats);
      CrackerIndex<T>* inner = index_.get();
      if (policy == CrackPolicy::kStochastic) {
        StochasticShrink(lo, /*want_incl=*/!lo_incl, stats);
        StochasticShrink(hi, /*want_incl=*/hi_incl, stats);
      }
      // Every remaining policy cuts exactly at the bounds: a pushed-down
      // reduction needs value-exact spans and has no per-row loop left to
      // trim fuzzy edges in. kCoarse therefore cracks finer here than its
      // select threshold would — a documented deviation.
      CrackSelection sel = inner->Select(lo, lo_incl, hi, hi_incl, stats);
      {
        const size_t pos = sel.values.offset();
        RangeLockGuard span = inner->LockRangeShared(pos, pos + sel.count());
        std::lock_guard<std::mutex> dl(delta_mu_);
        AccumulateSpan(inner, pos, sel.count(), lo, lo_incl, hi, hi_incl,
                       view, stats, &out);
      }
      if (!config_.merge_budget.unlimited()) {
        out.bounds_dropped =
            EnforceMergeBudget(inner, config_.merge_budget, stats);
      }
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (index_ == nullptr) return Status::OK();  // lazy build reads base
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(deltas_.Insert(CastValue<T>(value), oid));
    SyncDirty();
    if (stats != nullptr) ++stats->tuples_written;
    return Status::OK();
  }

  Status Delete(Oid oid, IoStats* stats) override {
    (void)stats;
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(deltas_.Delete(oid));
    SyncDirty();
    return Status::OK();
  }

  Status Update(Oid oid, const Value& old_value, const Value& value,
                IoStats* stats) override {
    if (index_ == nullptr) return Status::OK();  // base slot overwritten
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(
        deltas_.Update(oid, CastValue<T>(old_value), CastValue<T>(value)));
    SyncDirty();
    if (stats != nullptr) ++stats->tuples_written;
    return Status::OK();
  }

  /// Folds the deltas into a fresh cracker column that keeps every learned
  /// boundary (CrackerIndex::Fold).
  Status FlushDeltas(IoStats* stats) override {
    if (index_ == nullptr && deltas_.empty()) return Status::OK();
    EnsureBuilt(stats);
    if (deltas_.empty()) return Status::OK();
    CRACK_ASSIGN_OR_RETURN(
        index_, index_->Fold(deltas_.tombstones(), deltas_.pending(), stats));
    deltas_.Retire(index_->size());
    SyncDirty();
    return Status::OK();
  }

  size_t pending_inserts() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deltas_.pending_inserts();
  }
  size_t pending_deletes() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deltas_.pending_deletes();
  }
  size_t merges_performed() const override { return deltas_.folds(); }

  size_t accel_tuples() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return index_ == nullptr ? 0 : index_->size();
  }

  std::vector<PieceInfo> Pieces() const override {
    if (index_ == nullptr) return WholeColumnPiece(column_->size());
    std::vector<PieceInfo> out;
    for (const CrackPiece<T>& p : index_->Pieces()) {
      PieceInfo info;
      info.begin = p.begin;
      info.end = p.end;
      info.has_lo = p.has_lo;
      info.lo = static_cast<int64_t>(p.lo);
      info.lo_strict = p.lo_strict;
      info.has_hi = p.has_hi;
      info.hi = static_cast<int64_t>(p.hi);
      info.hi_strict = p.hi_strict;
      out.push_back(info);
    }
    return out;
  }

  size_t NumPieces() const override {
    return index_ == nullptr ? 1 : index_->num_pieces();
  }

  size_t CutsSince(size_t cursor, std::vector<size_t>* out) const override {
    return index_ == nullptr ? cursor : index_->CutsSince(cursor, out);
  }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    EnsureBuilt(stats);
    T pivot;
    if constexpr (std::is_floating_point_v<T>) {
      pivot = static_cast<T>(choice.value);
    } else {
      pivot = static_cast<T>(std::clamp(
          choice.value,
          static_cast<int64_t>(std::numeric_limits<T>::min()),
          static_cast<int64_t>(std::numeric_limits<T>::max())));
    }
    index_->Cut(pivot, /*want_incl=*/choice.after_duplicates, stats);
    return Status::OK();
  }

  std::string Explain() const override {
    std::string out = StrFormat(
        "access path: crack, policy=%s, delta-merge=%s\n",
        CrackPolicyName(engine_.policy()),
        DeltaMergePolicyName(config_.delta_merge.policy));
    if (engine_.policy() == CrackPolicy::kAuto) {
      out += StrFormat(
          "auto: effective=%s, pattern=%s, switches=%llu, samples=%llu\n",
          CrackPolicyName(engine_.effective()),
          WorkloadPatternName(engine_.pattern()),
          static_cast<unsigned long long>(engine_.switches()),
          static_cast<unsigned long long>(engine_.observed_samples()));
    }
    if (engine_.effective() == CrackPolicy::kProgressive) {
      out += StrFormat("progressive: budget=%.3f, pending rows=%zu\n",
                       engine_.options().progressive_budget,
                       PolicyStatus().progressive_pending);
    }
    if (index_ == nullptr) {
      if (deltas_.pending_deletes() > 0) {
        out += StrFormat("deltas: %zu tombstones buffered pre-build\n",
                         deltas_.pending_deletes());
      }
      return out + "no accelerator yet (never queried)\n";
    }
    out += StrFormat("cracker index: %zu tuples, %zu pieces, %zu boundaries, "
                     "partitions=%zu\n",
                     index_->size(), index_->num_pieces(),
                     index_->num_bounds(),
                     size_t{1} << index_->partition_bits());
    out += StrFormat("deltas: %zu pending inserts, %zu tombstones, "
                     "%zu merges\n",
                     deltas_.pending_inserts(), deltas_.pending_deletes(),
                     deltas_.folds());
    return out + ExplainPieces(Pieces());
  }

  PathPolicyStatus PolicyStatus() const override {
    PathPolicyStatus status;
    status.configured = engine_.policy();
    status.effective = engine_.effective();
    status.pattern = engine_.pattern();
    status.switches = engine_.switches();
    status.samples = engine_.observed_samples();
    status.progressive_budget = engine_.options().progressive_budget;
    status.crack = true;
    if (built_.load(std::memory_order_acquire)) {
      status.progressive_pending = index_->progressive_pending();
    }
    return status;
  }

  Status SetPolicyOptions(const CrackPolicyOptions& options) override {
    // The owner holds the exclusive column latch, so no select is
    // mid-flight through the engine while it re-arms.
    config_.policy = options;
    engine_.Reset(options);
    return Status::OK();
  }

 private:
  void EnsureBuilt(IoStats* stats) {
    if (index_ != nullptr) return;
    obs::TraceSpan span("build", stats);
    CrackerIndexOptions opts;
    if constexpr (std::is_integral_v<T>) {
      // Large integer columns (dictionary codes included) build by radix
      // partitioning, so the first queries crack small pieces.
      opts.partition_bits = PartitionBitsFor(column_->size());
    }
    index_ = std::make_unique<CrackerIndex<T>>(column_, stats, opts);
    deltas_.Start();
    SyncDirty();
    // Publish readiness last: shared-latch readers may dereference
    // index_ as soon as they observe built_.
    built_.store(true, std::memory_order_release);
  }

  /// Publishes the delta and cracker-column sizes for the owner's
  /// maintenance poll (nothing before the build). Callers hold the delta
  /// latch or the exclusive column latch.
  void SyncDirty() {
    if (index_ == nullptr) return;
    PublishDeltas(deltas_.pending_inserts() + deltas_.pending_deletes(),
                  index_->size());
  }

  /// kAuto: one detector sample per query — the clamped range midpoint
  /// (averaged in halves so extreme integer bounds cannot overflow).
  /// Returns the policy the query then runs.
  CrackPolicy Observe(T lo, T hi) {
    if (engine_.policy() == CrackPolicy::kAuto) {
      const double mid =
          0.5 * static_cast<double>(lo) + 0.5 * static_cast<double>(hi);
      std::lock_guard<std::mutex> lk(engine_mu_);
      engine_.Observe(mid);
    }
    return engine_.effective();
  }

  /// Reduces the value-exact cracked span [pos, pos + n) plus the delta and
  /// override corrections into `out`: the span's cut records
  /// (ReducePieces) minus its hidden rows (SubtractHidden), plus
  /// ForEachExtra's rows. Callers hold the range lock over the span and the
  /// delta latch.
  void AccumulateSpan(CrackerIndex<T>* inner, size_t pos, size_t n, T lo,
                      bool lo_incl, T hi, bool hi_incl,
                      const SnapshotView* view, IoStats* stats,
                      ColumnAggregates* out) {
    size_t read = n;
    SpanAggregates agg = inner->ReducePieces(pos, pos + n, &read);
    std::vector<std::pair<T, Oid>> hidden =
        deltas_.HiddenIn(lo, lo_incl, hi, hi_incl, view, stats);
    if (!hidden.empty()) {
      const size_t rescanned = SubtractHidden(
          hidden,
          [&](bool want_min, size_t* rows) {
            return VisibleExtreme(inner, pos, pos + n, want_min, hidden, rows);
          },
          &agg);
      if (stats != nullptr) stats->tuples_read += rescanned;
    }
    FoldAggregates<T>(agg, n, read, deltas_.pending(), lo, lo_incl, hi,
                      hi_incl, view, stats, out);
  }

  /// The smallest (want_min) or largest visible value of the span
  /// [begin, end). Every row of a piece lies below every row of the pieces
  /// right of it, so the extreme sits in the first (last) piece that holds a
  /// visible row: the edge pieces are scanned one at a time, skipping hidden
  /// rows, until one does. The span must hold a visible row. Adds the rows
  /// scanned to *read. Callers hold the range lock over the span.
  int64_t VisibleExtreme(CrackerIndex<T>* inner, size_t begin, size_t end,
                         bool want_min,
                         const std::vector<std::pair<T, Oid>>& hidden,
                         size_t* read) const {
    const T* vals = inner->values()->template TailData<T>();
    const Oid* oids = inner->oids()->template TailData<Oid>();
    while (true) {
      CRACK_DCHECK(begin < end);
      std::pair<size_t, size_t> piece =
          inner->PieceAt(want_min ? begin : end - 1);
      const size_t a = std::max(begin, piece.first);
      const size_t b = std::min(end, piece.second);
      bool have = false;
      T best{};
      for (size_t i = a; i < b; ++i) {
        const T v = vals[i];
        // Only a row that would move the extreme needs the hidden test.
        if (have && (want_min ? v >= best : v <= best)) continue;
        if (!std::binary_search(hidden.begin(), hidden.end(),
                                std::make_pair(v, oids[i]))) {
          best = v;
          have = true;
        }
      }
      *read += b - a;
      if (have) return static_cast<int64_t>(best);
      if (want_min) {
        begin = b;
      } else {
        end = a;
      }
    }
  }

  /// Cracks the piece enclosing `v` at randomly drawn elements until it is
  /// at or below the policy threshold (or no pivot makes progress, e.g. all
  /// duplicates). Skipped when the cut for `v` is already registered.
  /// Races are benign: any element read under the cell lock is a valid
  /// pivot, and a neighbour subdividing the same piece just leaves less
  /// auxiliary work — the span re-probe observes their cuts too.
  void StochasticShrink(T v, bool want_incl, IoStats* stats) {
    CrackerIndex<T>* inner = index_.get();
    size_t pos;
    if (inner->FindCut(v, want_incl, &pos)) return;
    std::pair<size_t, size_t> span = inner->PieceSpanFor(v);
    while (engine_.WantsAuxiliaryPivot(span.second - span.first)) {
      size_t slot;
      {
        // The policy engine's pivot stream (Pcg32) is not thread-safe.
        std::lock_guard<std::mutex> lk(engine_mu_);
        slot = engine_.DrawSlot(span.first, span.second);
      }
      inner->Cut(inner->ValueAt(slot), /*want_incl=*/false, stats);
      std::pair<size_t, size_t> next = inner->PieceSpanFor(v);
      if (next == span) break;  // pivot was the piece minimum: no progress
      span = next;
    }
  }

  /// DD1C cuts: bounds landing in pieces above the threshold crack as
  /// usual; a bound inside a small piece stays uncracked and the enclosing
  /// piece's edge stands in. The edge is a registered cut (or 0/n), so it
  /// never moves even if a neighbour subdivides the piece meanwhile.
  /// Returns true when both cuts are exact.
  bool CoarseCuts(T lo, bool lo_incl, T hi, bool hi_incl, IoStats* stats,
                  size_t* cut_lo, size_t* cut_hi) {
    CrackerIndex<T>* inner = index_.get();
    bool lo_exact = inner->FindCut(lo, /*want_incl=*/!lo_incl, cut_lo);
    if (!lo_exact) {
      std::pair<size_t, size_t> span = inner->PieceSpanFor(lo);
      lo_exact = engine_.ShouldCrack(span.second - span.first);
      *cut_lo = lo_exact ? inner->Cut(lo, /*want_incl=*/!lo_incl, stats)
                         : span.first;  // conservative: keep the piece
    }
    bool hi_exact = inner->FindCut(hi, /*want_incl=*/hi_incl, cut_hi);
    if (!hi_exact) {
      std::pair<size_t, size_t> span = inner->PieceSpanFor(hi);
      hi_exact = engine_.ShouldCrack(span.second - span.first);
      *cut_hi = hi_exact ? inner->Cut(hi, /*want_incl=*/hi_incl, stats)
                         : span.second;  // conservative: keep the piece
    }
    if (*cut_hi < *cut_lo) *cut_hi = *cut_lo;  // empty result
    return lo_exact && hi_exact;
  }

  /// The per-query progressive write pool: a budgeted fraction of the
  /// larger touched piece, floored so tiny pieces converge in one pass
  /// instead of crawling (the bench gate measures against budget × piece
  /// size on large columns, where the floor is immaterial).
  static constexpr size_t kMinProgressiveWrites = 256;
  size_t ProgressivePool(size_t span_lo, size_t span_hi) const {
    const double budget = engine_.options().progressive_budget;
    const size_t span = std::max(span_lo, span_hi);
    const size_t pool =
        static_cast<size_t>(budget * static_cast<double>(span));
    return std::max(pool, kMinProgressiveWrites);
  }

  /// Progressive cuts: both bounds advance their pieces' carried frontiers
  /// within one shared write pool; an open frontier stands in as a
  /// conservative span edge, like a coarse fuzzy edge. Returns true when
  /// both cuts are exact.
  bool ProgressiveCuts(T lo, bool lo_incl, T hi, bool hi_incl, IoStats* stats,
                       size_t* cut_lo, size_t* cut_hi) {
    CrackerIndex<T>* inner = index_.get();
    std::pair<size_t, size_t> span_lo = inner->PieceSpanFor(lo);
    std::pair<size_t, size_t> span_hi = inner->PieceSpanFor(hi);
    size_t pool = ProgressivePool(span_lo.second - span_lo.first,
                                  span_hi.second - span_hi.first);
    IoStats local;
    ProgressiveCut plo =
        inner->CutProgressive(lo, /*want_incl=*/!lo_incl, pool, &local);
    pool -= std::min(pool, static_cast<size_t>(local.kernel_writes));
    ProgressiveCut phi =
        inner->CutProgressive(hi, /*want_incl=*/hi_incl, pool, &local);
    if (stats != nullptr) *stats += local;
    *cut_lo = plo.lo;  // conservative: open frontiers stay included
    *cut_hi = phi.exact ? phi.lo : phi.hi;
    if (*cut_hi < *cut_lo) *cut_hi = *cut_lo;
    return plo.exact && phi.exact;
  }

  /// Marks the value misses of a conservative span [cut_lo, cut_hi) — one
  /// with a fuzzy coarse edge or an open progressive frontier — as
  /// exceptions of `set`, whose only span it is, and returns how many there
  /// are. Charges the span's rows to `stats`. Callers hold the range lock
  /// over the span.
  size_t MarkValueMisses(CrackerIndex<T>* inner, size_t cut_lo, size_t cut_hi,
                         T lo, bool lo_incl, T hi, bool hi_incl,
                         IoStats* stats, OidSpanSet* set) {
    const T* data = inner->values()->template TailData<T>();
    size_t misses = 0;
    for (size_t i = cut_lo; i < cut_hi; ++i) {
      if (!InRange(data[i], lo, lo_incl, hi, hi_incl)) {
        set->MarkException(i - cut_lo);
        ++misses;
      }
    }
    if (stats != nullptr) stats->tuples_read += cut_hi - cut_lo;
    return misses;
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  CrackPolicyEngine engine_;
  /// Serializes the policy engine's detector and pivot stream (Pcg32 is not
  /// thread-safe).
  std::mutex engine_mu_;
  /// The cracker column; a fold replaces it wholesale, so never cache the
  /// pointer across a release of the exclusive column latch.
  std::unique_ptr<CrackerIndex<T>> index_;
  std::atomic<bool> built_{false};  ///< index_ is safe to dereference
  ColumnDeltas<T> deltas_;          ///< guarded by delta_mu_
  mutable std::mutex delta_mu_;     ///< guards deltas_
};

// --- sort -----------------------------------------------------------------

template <typename T>
class SortAccessPath : public ColumnAccessPath {
 public:
  SortAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)), config_(config), deltas_(column_) {}

  AccessStrategy strategy() const override { return AccessStrategy::kSort; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    return PathConcurrency::kSharedReads;
  }

  bool SharedSelectReady() const override {
    return built_.load(std::memory_order_acquire);
  }

  AccessSelection Select(const RangeBounds& range, Delivery delivery,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    EnsureBuilt(stats);
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    // Binary search over the sorted copy: read-only, so safe under the
    // shared latch. The answer is one span over the copy's oid map; a fold
    // replaces the copy instead of rewriting it, so the span stays valid
    // after the latch drops, and the copy needs no range lock.
    CrackSelection sel = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
    const size_t begin = sel.oids.offset();
    AccessSelection out;
    out.span_set.BindOidMap(sorted_->oids());
    out.span_set.AddSpan(begin, begin + sel.count());
    std::lock_guard<std::mutex> dl(delta_mu_);
    AnswerSpan<T>(&deltas_, sorted_->values()->template TailData<T>(),
                  sorted_->oids()->template TailData<Oid>(), begin,
                  begin + sel.count(), /*misses=*/0, lo, lo_incl, hi, hi_incl,
                  delivery != Delivery::kCount, view, stats, &out);
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      EnsureBuilt(stats);
      // Binary search bounds the answer span. A sorted copy keeps no cut
      // records, so the whole span is reduced; its hidden rows come out
      // afterwards.
      CrackSelection sel = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
      const T* vals = sel.values.template data<T>();
      const Oid* oids = sel.oids.template data<Oid>();
      const size_t n = sel.count();
      SpanAggregates agg = AggregateSpan(vals, n);
      std::lock_guard<std::mutex> dl(delta_mu_);
      std::vector<std::pair<T, Oid>> hidden =
          deltas_.HiddenIn(lo, lo_incl, hi, hi_incl, view, stats);
      if (!hidden.empty()) {
        const size_t rescanned = SubtractHidden(
            hidden,
            [&](bool want_min, size_t* rows) {
              return VisibleExtreme(vals, oids, n, want_min, hidden, rows);
            },
            &agg);
        if (stats != nullptr) stats->tuples_read += rescanned;
      }
      FoldAggregates<T>(agg, n, n, deltas_.pending(), lo, lo_incl, hi,
                        hi_incl, view, stats, &out);
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // lazy build reads base
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(deltas_.Insert(CastValue<T>(value), oid));
    SyncDirty();
    if (stats != nullptr) ++stats->tuples_written;
    return Status::OK();
  }

  Status Delete(Oid oid, IoStats* stats) override {
    (void)stats;
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(deltas_.Delete(oid));
    SyncDirty();
    return Status::OK();
  }

  Status Update(Oid oid, const Value& old_value, const Value& value,
                IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // base slot overwritten
    std::lock_guard<std::mutex> dl(delta_mu_);
    CRACK_RETURN_NOT_OK(
        deltas_.Update(oid, CastValue<T>(old_value), CastValue<T>(value)));
    SyncDirty();
    if (stats != nullptr) ++stats->tuples_written;
    return Status::OK();
  }

  Status FlushDeltas(IoStats* stats) override {
    if (sorted_ == nullptr && deltas_.empty()) return Status::OK();
    EnsureBuilt(stats);
    if (!deltas_.empty()) Fold(stats);
    return Status::OK();
  }

  size_t pending_inserts() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deltas_.pending_inserts();
  }
  size_t pending_deletes() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deltas_.pending_deletes();
  }
  size_t merges_performed() const override { return deltas_.folds(); }

  size_t accel_tuples() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return sorted_ == nullptr ? 0 : sorted_->size();
  }

  std::vector<PieceInfo> Pieces() const override {
    return WholeColumnPiece(column_->size());
  }
  size_t NumPieces() const override { return 1; }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    (void)choice;
    (void)stats;
    return Status::Unimplemented(
        "sort access path has no piece table to crack");
  }

  std::string Explain() const override {
    std::string out = StrFormat("access path: sort, delta-merge=%s\n",
                                DeltaMergePolicyName(
                                    config_.delta_merge.policy));
    if (sorted_ == nullptr) {
      return out + "no accelerator yet (never queried)\n";
    }
    out += "sorted copy present (binary-search access)\n";
    out += StrFormat("deltas: %zu pending inserts, %zu tombstones, "
                     "%zu merges\n",
                     deltas_.pending_inserts(), deltas_.pending_deletes(),
                     deltas_.folds());
    return out;
  }

 private:
  /// Builds the sorted copy on first use (exclusive column latch).
  void EnsureBuilt(IoStats* stats) {
    if (sorted_ != nullptr) return;
    obs::TraceSpan span("build", stats);
    sorted_ = std::make_unique<SortedColumn<T>>(column_, stats);
    deltas_.Start();
    SyncDirty();
    built_.store(true, std::memory_order_release);
  }

  /// See CrackAccessPath::SyncDirty. Callers hold the delta latch or the
  /// exclusive column latch.
  void SyncDirty() {
    if (sorted_ == nullptr) return;
    PublishDeltas(deltas_.pending_inserts() + deltas_.pending_deletes(),
                  sorted_->size());
  }

  /// The smallest (want_min) or largest visible value of the sorted span
  /// vals[0, n): the first row from that edge that is not hidden. A sorted
  /// copy has no pieces, so the rescan goes row by row. The span must hold
  /// a visible row. Adds the rows read to *read.
  static int64_t VisibleExtreme(const T* vals, const Oid* oids, size_t n,
                                bool want_min,
                                const std::vector<std::pair<T, Oid>>& hidden,
                                size_t* read) {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = want_min ? k : n - 1 - k;
      if (!std::binary_search(hidden.begin(), hidden.end(),
                              std::make_pair(vals[i], oids[i]))) {
        *read += k + 1;
        return static_cast<int64_t>(vals[i]);
      }
    }
    CRACK_DCHECK(false);
    *read += n;
    return 0;
  }

  /// Folds the deltas back by merging two sorted runs: the sorted copy's
  /// survivors and the value-sorted pending rows. The result adopts fresh
  /// (values, oids) columns — O(n + d log d), no re-sort of the bulk.
  void Fold(IoStats* stats) {
    std::vector<std::pair<T, Oid>> pending = deltas_.pending();
    std::sort(pending.begin(), pending.end(), ValueOidLess());
    const OidBitTable& deleted = deltas_.tombstones();
    size_t old_n = sorted_->size();
    auto values = Bat::Create(TypeTraits<T>::kType,
                              column_->name() + "#sorted");
    auto oids = Bat::Create(ValueType::kOid, column_->name() + "#sortedmap");
    values->Reserve(old_n + pending.size());
    oids->Reserve(old_n + pending.size());
    T* vd = values->template MutableTailData<T>();
    Oid* od = oids->template MutableTailData<Oid>();
    const T* src_v = sorted_->values()->template TailData<T>();
    const Oid* src_o = sorted_->oids()->template TailData<Oid>();
    size_t w = 0;
    size_t p = 0;
    for (size_t i = 0; i < old_n; ++i) {
      if (deleted.Test(src_o[i])) continue;
      while (p < pending.size() && ValueLess(pending[p].first, src_v[i])) {
        vd[w] = pending[p].first;
        od[w] = pending[p].second;
        ++w;
        ++p;
      }
      vd[w] = src_v[i];
      od[w] = src_o[i];
      ++w;
    }
    for (; p < pending.size(); ++p) {
      vd[w] = pending[p].first;
      od[w] = pending[p].second;
      ++w;
    }
    values->SetCountUnsafe(w);
    oids->SetCountUnsafe(w);
    if (stats != nullptr) {
      stats->tuples_read += old_n + pending.size();
      stats->tuples_written += w;
    }
    sorted_ = std::make_unique<SortedColumn<T>>(std::move(values),
                                                std::move(oids));
    deltas_.Retire(w);
    SyncDirty();
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  std::unique_ptr<SortedColumn<T>> sorted_;
  std::atomic<bool> built_{false};  ///< sorted_ is safe to dereference
  ColumnDeltas<T> deltas_;          ///< guarded by delta_mu_
  mutable std::mutex delta_mu_;     ///< guards deltas_
};

// --- scan -----------------------------------------------------------------

template <typename T>
class ScanAccessPath : public ColumnAccessPath {
 public:
  ScanAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)),
        config_(config),
        deleted_(column_->head_base()) {}

  AccessStrategy strategy() const override { return AccessStrategy::kScan; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    return PathConcurrency::kSharedReads;
  }

  // Stateless from birth: shared selections need no accelerator.
  bool SharedSelectReady() const override { return true; }

  AccessSelection Select(const RangeBounds& range, Delivery delivery,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    (void)delivery;  // identity spans borrow no layout
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    const T* data = column_->TailData<T>();
    size_t n = column_->size();
    Oid base = column_->head_base();
    // Branchless scan: one vectorized range bitmap, AND-ed with one batch
    // visibility bitmap (a single version-log latch acquisition instead of
    // one per row), tombstones cleared word-wise. Runs of matching rows
    // become identity spans (oid = base + position): clustered data scans
    // to a handful of spans.
    std::vector<uint64_t> match = MatchMask(data, n, base, lo, lo_incl, hi,
                                            hi_incl, view);
    AccessSelection out;
    out.span_set = OidSpanSet::FromMatchBitmap(match.data(), n, base);
    ForEachExtra<T>({}, lo, lo_incl, hi, hi_incl, view,
                    [&out](T, Oid oid) { out.span_set.AddExtra(oid); });
    out.count = out.span_set.count();
    if (stats != nullptr) stats->tuples_read += n;
    return out;
  }

  Result<ColumnAggregates> AggregateRange(
      const RangeBounds& range, IoStats* stats,
      const SnapshotView* view = nullptr) override {
    if constexpr (std::is_floating_point_v<T>) {
      (void)range;
      (void)stats;
      (void)view;
      return Status::Unimplemented(
          "aggregate pushdown: non-integer column domain");
    } else {
      T lo, hi;
      bool lo_incl, hi_incl;
      ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
      ColumnAggregates out;
      if (EmptyRange(lo, lo_incl, hi, hi_incl)) return out;
      const T* data = column_->TailData<T>();
      size_t n = column_->size();
      // Same mask pipeline as Select, but the finished bitmap feeds the
      // masked reduction kernel instead of a bit-iterate oid gather — the
      // whole column is the pushdown span.
      std::vector<uint64_t> match = MatchMask(
          data, n, column_->head_base(), lo, lo_incl, hi, hi_incl, view);
      SpanAggregates agg = AggregateSpanMasked(data, n, match.data());
      FoldAggregates<T>(agg, n, n, {}, lo, lo_incl, hi, hi_incl, view, stats,
                        &out);
      return out;
    }
  }

  // The base column carries inserts (appended) and updates (overwritten in
  // place); the only delta a scan must remember is the tombstone set.
  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    (void)value;
    (void)oid;
    (void)stats;
    return Status::OK();
  }

  Status Delete(Oid oid, IoStats* stats) override {
    (void)stats;
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    std::lock_guard<std::mutex> dl(delta_mu_);
    if (!deleted_.Set(oid)) return AlreadyDeletedError(oid);
    return Status::OK();
  }

  Status Update(Oid oid, const Value& old_value, const Value& value,
                IoStats* stats) override {
    (void)oid;
    (void)old_value;
    (void)value;
    (void)stats;
    return Status::OK();
  }

  Status FlushDeltas(IoStats* stats) override {
    (void)stats;
    return Status::OK();  // tombstones are the scan's terminal state
  }

  size_t pending_inserts() const override { return 0; }
  size_t pending_deletes() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deleted_.count();
  }
  size_t merges_performed() const override { return 0; }

  std::vector<PieceInfo> Pieces() const override {
    return WholeColumnPiece(column_->size());
  }
  size_t NumPieces() const override { return 1; }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    (void)choice;
    (void)stats;
    return Status::Unimplemented(
        "scan access path has no piece table to crack");
  }

  std::string Explain() const override {
    std::string out =
        "access path: scan\nno auxiliary structure (full scan per query)\n";
    if (!deleted_.empty()) {
      out += StrFormat("deltas: %zu tombstones filtered per scan\n",
                       deleted_.count());
    }
    return out;
  }

 private:
  /// The scan's answer bitmap over all n base rows: the range predicate,
  /// AND the snapshot's visibility, AND-NOT the tombstones. The delta latch
  /// is held only for the AND-NOT, one word per 64 rows.
  std::vector<uint64_t> MatchMask(const T* data, size_t n, Oid base, T lo,
                                  bool lo_incl, T hi, bool hi_incl,
                                  const SnapshotView* view) const {
    std::vector<uint64_t> match(BitmapWords(n));
    RangeMatchMask<T>(data, n, /*has_lo=*/true, lo, lo_incl, /*has_hi=*/true,
                      hi, hi_incl, match.data());
    if (ViewActive(view)) {
      std::vector<uint64_t> vis(BitmapWords(n));
      view->VisibleRangeMask(base, n, vis.data());
      for (size_t w = 0; w < match.size(); ++w) match[w] &= vis[w];
    }
    std::lock_guard<std::mutex> dl(delta_mu_);
    deleted_.ClearMembers(base, n, match.data());
    return match;
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  OidBitTable deleted_;
  mutable std::mutex delta_mu_;  ///< guards deleted_
};

template <typename T>
std::unique_ptr<ColumnAccessPath> MakePath(std::shared_ptr<Bat> column,
                                           const AccessPathConfig& config) {
  switch (config.strategy) {
    case AccessStrategy::kScan:
      return std::make_unique<ScanAccessPath<T>>(std::move(column), config);
    case AccessStrategy::kCrack:
      return std::make_unique<CrackAccessPath<T>>(std::move(column), config);
    case AccessStrategy::kSort:
      return std::make_unique<SortAccessPath<T>>(std::move(column), config);
  }
  return nullptr;
}

// --- dict-string ----------------------------------------------------------

/// Encoding decorator for kString columns: an order-preserving dictionary
/// presents the column as an int64 code domain, a shadow code column
/// mirrors the base row-for-row, and an inner numeric path (any strategy x
/// policy) cracks/sorts/scans the codes. String predicates arrive through
/// SelectTyped and translate to code ranges; DML interns unseen strings,
/// and when an out-of-order insert exhausts its code gap the dictionary's
/// remap hook folds the inner deltas through the existing Merge machinery,
/// rewrites the code column monotonically, and re-arms a fresh lazy
/// accelerator.
class DictStringAccessPath : public ColumnAccessPath {
 public:
  DictStringAccessPath(std::shared_ptr<Bat> column,
                       const AccessPathConfig& config)
      : column_(std::move(column)),
        config_(config),
        deleted_(column_->head_base()) {}

  AccessStrategy strategy() const override { return config_.strategy; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  // Inherited concurrency defaults are exactly right for this wrapper:
  // kExclusiveOnly (the dictionary has no internal locking and a
  // gap-exhaustion remap swaps the whole inner path), never shared-ready.
  // The maintenance poll answers from the inner path's sizes, published
  // after every call that can change them (Published).

  AccessSelection Select(const RangeBounds& range, Delivery delivery,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    // Native-domain selection: the bounds are dictionary codes.
    EnsureEncoded(stats);
    SnapshotView code_view;
    return Published(inner_->Select(range, delivery, stats,
                                    TranslateView(view, stats, &code_view)));
  }

  Result<AccessSelection> SelectTyped(const TypedRange& range,
                                      Delivery delivery, IoStats* stats,
                                      const SnapshotView* view = nullptr)
      override {
    if ((!range.lo.is_null() && !range.lo.is_string()) ||
        (!range.hi.is_null() && !range.hi.is_string())) {
      return Status::TypeMismatch(
          StrFormat("numeric predicate on string column %s",
                    column_->name().c_str()));
    }
    EnsureEncoded(stats);
    // Translate the view before the bounds: interning an unseen override
    // value may remap the whole code domain, which would stale previously
    // computed code bounds.
    SnapshotView code_view;
    const SnapshotView* inner_view = TranslateView(view, stats, &code_view);
    RangeBounds codes;  // defaults: unbounded both sides
    if (!range.lo.is_null()) {
      int64_t code;
      if (dict_->CodeFor(range.lo.AsString(), &code)) {
        codes.lo = code;
        codes.lo_incl = range.lo_incl;
      } else if (dict_->CeilCode(range.lo.AsString(), &code)) {
        // Absent bound: >s and >=s agree on the interned domain.
        codes.lo = code;
        codes.lo_incl = true;
      } else {
        return AccessSelection{};  // sorts after every string: empty
      }
    }
    if (!range.hi.is_null()) {
      int64_t code;
      if (dict_->CodeFor(range.hi.AsString(), &code)) {
        codes.hi = code;
        codes.hi_incl = range.hi_incl;
      } else if (dict_->FloorCode(range.hi.AsString(), &code)) {
        codes.hi = code;
        codes.hi_incl = true;
      } else {
        return AccessSelection{};  // sorts before every string: empty
      }
    }
    return Published(inner_->Select(codes, delivery, stats, inner_view));
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (!value.is_string()) {
      return Status::TypeMismatch(
          StrFormat("cannot insert %s into string column %s",
                    value.ToString().c_str(), column_->name().c_str()));
    }
    if (inner_ == nullptr) return Status::OK();  // lazy encode reads base
    int64_t code = Intern(value.AsString(), stats);
    codes_->Append<int64_t>(code);
    return Published(inner_->Insert(Value(code), oid, stats));
  }

  Status Delete(Oid oid, IoStats* stats) override {
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    // The all-time tombstone set is the wrapper's own: the shadow code
    // column is append-only, so a rebuilt inner path must re-learn every
    // historical delete.
    if (!deleted_.Set(oid)) return AlreadyDeletedError(oid);
    if (inner_ == nullptr) return Status::OK();
    Status st = inner_->Delete(oid, stats);
    if (!st.ok()) deleted_.Clear(oid);  // keep the replay set replayable
    return Published(st);
  }

  Status Update(Oid oid, const Value& old_value, const Value& value,
                IoStats* stats) override {
    (void)old_value;  // the superseded code is read off the code column
    if (!value.is_string()) {
      return Status::TypeMismatch(
          StrFormat("cannot update string column %s with %s",
                    column_->name().c_str(), value.ToString().c_str()));
    }
    if (inner_ == nullptr) return Status::OK();  // base slot overwritten
    int64_t code = Intern(value.AsString(), stats);
    const size_t row = static_cast<size_t>(oid - codes_->head_base());
    // Read after Intern: a code-gap remap inside it rewrites the column.
    const int64_t old_code =
        row < codes_->size() ? codes_->Get<int64_t>(row) : 0;
    CRACK_RETURN_NOT_OK(codes_->SetNumeric(row, code));
    return Published(inner_->Update(oid, Value(old_code), Value(code), stats));
  }

  Status FlushDeltas(IoStats* stats) override {
    if (inner_ == nullptr && deleted_.empty()) return Status::OK();
    EnsureEncoded(stats);
    return Published(inner_->FlushDeltas(stats));
  }

  size_t pending_inserts() const override {
    return inner_ == nullptr ? 0 : inner_->pending_inserts();
  }
  size_t pending_deletes() const override {
    return inner_ == nullptr ? deleted_.count() : inner_->pending_deletes();
  }
  size_t merges_performed() const override {
    return merges_carry_ +
           (inner_ == nullptr ? 0 : inner_->merges_performed());
  }

  size_t accel_tuples() const override {
    return inner_ == nullptr ? 0 : inner_->accel_tuples();
  }

  std::vector<PieceInfo> Pieces() const override {
    if (inner_ == nullptr) return WholeColumnPiece(column_->size());
    return inner_->Pieces();  // code-domain value decorations
  }
  size_t NumPieces() const override {
    return inner_ == nullptr ? 1 : inner_->NumPieces();
  }
  size_t CutsSince(size_t cursor, std::vector<size_t>* out) const override {
    return inner_ == nullptr ? cursor : inner_->CutsSince(cursor, out);
  }

  Status ApplyPolicy(const PivotChoice& choice, IoStats* stats) override {
    EnsureEncoded(stats);
    // The pivot is in the code domain.
    return Published(inner_->ApplyPolicy(choice, stats));
  }

  std::string Explain() const override {
    std::string out = StrFormat(
        "encoding: order-preserving dictionary over %s\n",
        column_->name().c_str());
    if (inner_ == nullptr) {
      if (!deleted_.empty()) {
        out += StrFormat("deltas: %zu tombstones buffered pre-encode\n",
                         deleted_.count());
      }
      return out + "no code column yet (never queried)\n";
    }
    out += StrFormat("dictionary: %zu distinct strings, gap=%lld, "
                     "%zu rebuild(s)\n",
                     dict_->size(), static_cast<long long>(dict_->gap()),
                     dict_->rebuilds());
    return out + inner_->Explain();
  }

  PathPolicyStatus PolicyStatus() const override {
    if (inner_ != nullptr) return inner_->PolicyStatus();
    PathPolicyStatus s;
    s.configured = config_.policy.policy;
    s.effective = config_.policy.policy;
    s.progressive_budget = config_.policy.progressive_budget;
    s.crack = config_.strategy == AccessStrategy::kCrack;
    return s;
  }

  Status SetPolicyOptions(const CrackPolicyOptions& options) override {
    config_.policy = options;
    if (inner_ != nullptr) return inner_->SetPolicyOptions(options);
    return Status::OK();
  }

 private:
  /// Publishes the inner path's delta sizes after a call that may have
  /// changed them (or built it), then hands the call's result through.
  template <typename R>
  R Published(R result) {
    PublishDeltasOf(*inner_);
    return result;
  }

  /// Translates the facade's string-valued overrides into the inner path's
  /// code domain (order-preserving, so range membership is preserved).
  /// Returns nullptr when the view is inactive; otherwise fills *storage
  /// and returns it. Unseen old values (an accelerator reset can outlive
  /// the version log) intern on demand — EnsureEncoded has already run, so
  /// a gap-exhaustion remap stays safely before the inner selection.
  const SnapshotView* TranslateView(const SnapshotView* view, IoStats* stats,
                                    SnapshotView* storage) {
    if (view == nullptr || !view->active()) return nullptr;
    if (view->overrides().empty()) return view;
    // Interning an unseen value can exhaust a code gap and remap the whole
    // code domain, which would stale codes translated earlier in this very
    // loop — restart the translation whenever a rebuild fires.
    std::vector<std::pair<Oid, Value>> code_overrides;
    bool remapped = true;
    while (remapped) {
      remapped = false;
      code_overrides.clear();
      code_overrides.reserve(view->overrides().size());
      size_t rebuilds = dict_->rebuilds();
      for (const auto& [oid, value] : view->overrides()) {
        if (!value.is_string()) {
          code_overrides.emplace_back(oid, value);  // already numeric
          continue;
        }
        int64_t code;
        if (!dict_->CodeFor(value.AsString(), &code)) {
          code = Intern(value.AsString(), stats);
          if (dict_->rebuilds() != rebuilds) {
            remapped = true;  // earlier translations are stale
            break;
          }
        }
        code_overrides.emplace_back(oid, Value(code));
      }
    }
    *storage = view->WithOverrides(std::move(code_overrides));
    return storage;
  }

  /// Lazily builds the dictionary, the shadow code column and the inner
  /// path — the whole encoding investment is charged to the first query.
  void EnsureEncoded(IoStats* stats) {
    if (inner_ != nullptr) return;
    obs::TraceSpan span("build", stats);
    auto dict = StringDictionary::FromColumn(*column_);
    CRACK_DCHECK(dict.ok());
    dict_ = std::make_unique<StringDictionary>(std::move(*dict));
    codes_ = Bat::Create(ValueType::kInt64, column_->name() + "#codes");
    codes_->set_head_base(column_->head_base());
    size_t n = column_->size();
    codes_->Reserve(n);
    int64_t* d = codes_->MutableTailData<int64_t>();
    const std::shared_ptr<VarHeap>& heap = column_->heap();
    const uint64_t* offsets = column_->TailData<uint64_t>();
    for (size_t i = 0; i < n; ++i) {
      int64_t code = 0;
      bool known = dict_->CodeFor(heap->Read(offsets[i]), &code);
      CRACK_DCHECK(known);
      (void)known;
      d[i] = code;
    }
    codes_->SetCountUnsafe(n);
    if (stats != nullptr) {
      stats->tuples_read += n;
      stats->tuples_written += n;
    }
    RebuildInner(stats);
  }

  /// Interns `s`, wiring the dictionary's rebuild path into this column's
  /// remap procedure.
  int64_t Intern(std::string_view s, IoStats* stats) {
    return dict_->InternOrdered(
        s, [this, stats](const StringDictionary::RemapMap& remap) {
          RemapCodes(remap, stats);
        });
  }

  /// A code-gap exhausted: every code was reassigned (monotonically).
  /// Rewrite the shadow column through the mapping and re-arm a fresh lazy
  /// inner path over the new codes. No flush is needed before the swap:
  /// pending inserts/updates are already physically in codes_ (the wrapper
  /// mutates codes_ before notifying the inner path) and tombstones replay
  /// from the wrapper's all-time deleted_ set, so the rebuilt path folds
  /// them through the ordinary Merge machinery on its next merge.
  void RemapCodes(const StringDictionary::RemapMap& remap, IoStats* stats) {
    // +1 marks the accelerator hand-over (even when nothing was pending),
    // so facade-level lineage re-roots the piece subtree.
    merges_carry_ += inner_->merges_performed() + 1;
    int64_t* d = codes_->MutableTailData<int64_t>();
    for (size_t i = 0; i < codes_->size(); ++i) {
      auto it = remap.find(d[i]);
      CRACK_DCHECK(it != remap.end());
      d[i] = it->second;
    }
    if (stats != nullptr) stats->tuples_written += codes_->size();
    RebuildInner(stats);
  }

  /// (Re)creates the inner numeric path over the code column and replays
  /// the all-time tombstones into it.
  void RebuildInner(IoStats* stats) {
    (void)stats;
    inner_ = MakePath<int64_t>(codes_, config_);
    deleted_.ForEach([this](Oid oid) {
      Status st = inner_->Delete(oid);
      CRACK_DCHECK(st.ok());
      (void)st;
    });
    PublishDeltasOf(*inner_);
  }

  std::shared_ptr<Bat> column_;  ///< the kString base (append-only)
  AccessPathConfig config_;
  std::unique_ptr<StringDictionary> dict_;
  std::shared_ptr<Bat> codes_;  ///< int64 shadow, row-parallel to the base
  std::unique_ptr<ColumnAccessPath> inner_;
  OidBitTable deleted_;  ///< all-time tombstones (replayable)
  size_t merges_carry_ = 0;  ///< merges of discarded inner paths (+rebuilds)
};

}  // namespace

Result<std::unique_ptr<ColumnAccessPath>> CreateColumnAccessPath(
    std::shared_ptr<Bat> column, const AccessPathConfig& config) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  switch (column->tail_type()) {
    case ValueType::kInt32:
      return MakePath<int32_t>(std::move(column), config);
    case ValueType::kInt64:
      return MakePath<int64_t>(std::move(column), config);
    case ValueType::kFloat64:
      return MakePath<double>(std::move(column), config);
    case ValueType::kString:
      return std::unique_ptr<ColumnAccessPath>(
          std::make_unique<DictStringAccessPath>(std::move(column), config));
    default:
      return Status::Unimplemented(
          StrFormat("no access path for %s columns",
                    ValueTypeName(column->tail_type())));
  }
}

}  // namespace crackstore
