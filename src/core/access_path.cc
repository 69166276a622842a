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

#include "core/latch.h"
#include "core/oid_bit_table.h"
#include "core/sorted_column.h"
#include "core/updatable_cracker_index.h"
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
                                                      bool detach,
                                                      IoStats* stats,
                                                      const SnapshotView* view) {
  if (range.has_string()) {
    return Status::TypeMismatch(
        "string predicate on a numeric access path (string bounds need a "
        "string column)");
  }
  return Select(range.ToNumericBounds(), detach, stats, view);
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

template <typename T>
bool InRange(T v, T lo, bool lo_incl, T hi, bool hi_incl) {
  if (lo_incl ? v < lo : v <= lo) return false;
  if (hi_incl ? v > hi : v >= hi) return false;
  return true;
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

/// Shared Delete() validation: inserts append to the base before notifying
/// the path, so the base size bounds every oid ever issued — one check for
/// all strategies, independent of build timing.
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

/// Owner-maintenance poll shared by the delta-carrying paths: do `dirty`
/// pending deltas against an accelerator of `accel_size` tuples warrant a
/// fold under `options`?
bool MaintenanceDue(const DeltaMergeOptions& options, size_t dirty,
                    size_t accel_size) {
  if (dirty == 0) return false;
  switch (options.policy) {
    case DeltaMergePolicy::kImmediate:
    case DeltaMergePolicy::kRippleOnSelect:
      return true;
    case DeltaMergePolicy::kThreshold:
      return dirty > static_cast<size_t>(options.threshold_fraction *
                                         static_cast<double>(accel_size));
  }
  return false;
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

/// Re-admits a view's value overrides into an answer as extras: rows whose
/// value at the snapshot differs from the physical one were excluded by the
/// visibility filter; the ones whose snapshot value qualifies join back here
/// (vacuum-purged rows stay out via RowVisible).
template <typename T>
void ReadmitOverrides(const SnapshotView* view, T lo, bool lo_incl, T hi,
                      bool hi_incl, OidSpanSet* set) {
  if (!ViewActive(view)) return;
  for (const auto& [oid, value] : view->overrides()) {
    if (!view->RowVisible(oid)) continue;
    if (!InRange(CastValue<T>(value), lo, lo_incl, hi, hi_incl)) continue;
    set->AddExtra(oid);
  }
}

/// The rows of the answer span [oid_data, oid_data + n) that neither a
/// tombstone nor the caller's snapshot hides, as a bitmap of
/// BitmapWords(n) words: one batch visibility mask (a single version-log
/// latch for the whole span) with tombstones cleared bit-wise.
std::vector<uint64_t> SurvivorMask(const Oid* oid_data, size_t n,
                                   const OidBitTable& tombstones,
                                   const SnapshotView* view) {
  std::vector<uint64_t> bm(BitmapWords(n));
  if (ViewActive(view)) {
    view->VisibleMask(oid_data, n, bm.data());
  } else {
    BitmapFill(bm.data(), n);
  }
  if (!tombstones.empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (tombstones.Test(oid_data[i])) BitmapClearBit(bm.data(), i);
    }
  }
  return bm;
}

/// Applies a path's pending write deltas — and the caller's MVCC read
/// filter — to a span answer over the path's oid map: physically tombstoned
/// and snapshot-invisible span rows become exception bits, and qualifying
/// pending inserts and overridden rows (per their value at the snapshot)
/// become extras. Returns true when the deltas or the view touch the
/// answer; the caller then charges the read of the answer's span.
template <typename T>
bool OverlayDeltaAnswer(const std::vector<std::pair<T, Oid>>& pending,
                        const OidBitTable& tombstones, T lo, bool lo_incl,
                        T hi, bool hi_incl, const SnapshotView* view,
                        IoStats* stats, OidSpanSet* set) {
  const bool versioned = ViewActive(view);
  bool delta_hits = false;
  for (const auto& [value, oid] : pending) {
    delta_hits |= InRange(value, lo, lo_incl, hi, hi_incl);
  }
  if (stats != nullptr) stats->tuples_read += pending.size();
  if (tombstones.empty() && !delta_hits && !versioned) return false;

  size_t concat = 0;
  for (const OidSpan& span : set->spans()) {
    // One survivor bitmap per span instead of a per-row Hides() probe.
    std::vector<uint64_t> keep = SurvivorMask(
        set->oid_map()->TailData<Oid>() + span.begin, span.size(), tombstones,
        view);
    for (size_t w = 0; w < keep.size(); ++w) {
      const size_t left = span.size() - (w << 6);
      uint64_t dropped = ~keep[w];
      if (left < 64) dropped &= (uint64_t{1} << left) - 1;
      for (; dropped != 0; dropped &= dropped - 1) {
        set->MarkException(concat + (w << 6) +
                           size_t(__builtin_ctzll(dropped)));
      }
    }
    concat += span.size();
  }
  for (const auto& [value, oid] : pending) {
    if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
    // Only the snapshot filter applies here: an updated row is tombstoned
    // at its old position AND pending at its new value — the tombstone
    // must not cancel the pending re-entry.
    if (versioned && view->Hides(oid)) continue;
    set->AddExtra(oid);
  }
  ReadmitOverrides<T>(view, lo, lo_incl, hi, hi_incl, set);
  return true;
}

/// Reduces the value span [vals, vals + n) with the optional visibility /
/// tombstone filters: the unmasked kernel runs when nothing can hide a row,
/// otherwise the survivor mask feeds the masked kernel.
template <typename T>
SpanAggregates ReduceSpan(const T* vals, const Oid* oid_data, size_t n,
                          const OidBitTable& tombstones,
                          const SnapshotView* view) {
  if (!ViewActive(view) && tombstones.empty()) return AggregateSpan(vals, n);
  std::vector<uint64_t> bm = SurvivorMask(oid_data, n, tombstones, view);
  return AggregateSpanMasked(vals, n, bm.data());
}

/// Folds a span-kernel result plus the scalar corrections — qualifying
/// pending inserts and snapshot override re-admissions — into the
/// int64-widened aggregate answer. The corrections are purely additive:
/// VisibleMask already excluded every overridden and hidden row from the
/// span reduction, which is what makes MIN/MAX pushable at all. `span_read`
/// of the `span_n` span rows were read by a kernel; piece summaries answered
/// the rest.
template <typename T>
void FoldAggregates(const SpanAggregates& agg, size_t span_n, size_t span_read,
                    const std::vector<std::pair<T, Oid>>& pending, T lo,
                    bool lo_incl, T hi, bool hi_incl, const SnapshotView* view,
                    IoStats* stats, ColumnAggregates* out) {
  bool versioned = ViewActive(view);
  out->pushdown_rows = span_n;
  out->summary_rows = span_n - span_read;
  out->rows = agg.count;
  // Wrapping uint64 matches both the kernel contract and the executor's
  // scalar int64 accumulator (two's complement).
  uint64_t sum = static_cast<uint64_t>(agg.sum_i);
  bool have = agg.count > 0;
  int64_t mn = have ? agg.min_i : 0;
  int64_t mx = have ? agg.max_i : 0;
  auto fold = [&](int64_t v) {
    sum += static_cast<uint64_t>(v);
    ++out->rows;
    if (!have || v < mn) mn = v;
    if (!have || v > mx) mx = v;
    have = true;
  };
  for (const auto& [value, oid] : pending) {
    if (!InRange(value, lo, lo_incl, hi, hi_incl)) continue;
    // Snapshot filter only: an updated row is tombstoned at its old
    // position AND pending at its new value.
    if (versioned && view->Hides(oid)) continue;
    fold(static_cast<int64_t>(value));
  }
  if (versioned) {
    for (const auto& [oid, value] : view->overrides()) {
      if (!view->RowVisible(oid)) continue;
      T tv = CastValue<T>(value);
      if (!InRange(tv, lo, lo_incl, hi, hi_incl)) continue;
      fold(static_cast<int64_t>(tv));
    }
  }
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
        pre_build_deletes_(column_->head_base()) {}

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

  bool WantsMaintenance() const override {
    if (!config_.concurrent || !built_.load(std::memory_order_acquire)) {
      return false;
    }
    return MaintenanceDue(config_.delta_merge,
                          dirty_count_.load(std::memory_order_relaxed),
                          accel_size_.load(std::memory_order_relaxed));
  }

  AccessSelection Select(const RangeBounds& range, bool detach,
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
    MaybeMergeOnSelect(stats);
    CrackerIndex<T>* inner = updatable_->mutable_index();
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
    {
      // The answer is formed while the span holds still (no shuffle inside
      // it) and the delta latch keeps the pending list and tombstones
      // stable. Cut positions themselves never move once registered.
      RangeLockGuard span = inner->LockRangeShared(cut_lo, cut_hi);
      std::lock_guard<std::mutex> dl(delta_mu_);
      // Zero-materialization answer: a piece of the cracked column is one
      // span over its permuted oid map. A conservative span marks its value
      // misses, and the overlay turns deltas into exception bits / extras.
      out.span_set.BindOidMap(inner->oids());
      out.span_set.AddSpan(cut_lo, cut_hi);
      if (!exact) {
        MarkValueMisses(inner, cut_lo, cut_hi, lo, lo_incl, hi, hi_incl,
                        &out.span_set);
      }
      const bool touched = OverlayDeltaAnswer<T>(
          updatable_->pending(), updatable_->tombstones(), lo, lo_incl, hi,
          hi_incl, view, stats, &out.span_set);
      if (stats != nullptr && (touched || !exact)) {
        stats->tuples_read += cut_hi - cut_lo;
      }
      out.count = out.span_set.count();
      // The rows must be resolved while the span still holds them.
      if (detach) out.span_set.Detach();
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
      MaybeMergeOnSelect(stats);
      CrackerIndex<T>* inner = updatable_->mutable_index();
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
        (void)EnforceMergeBudget(inner, config_.merge_budget, stats);
      }
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (updatable_ == nullptr) return Status::OK();  // lazy build reads base
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      CRACK_RETURN_NOT_OK(updatable_->Insert(CastValue<T>(value), oid));
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status Delete(Oid oid, IoStats* stats) override {
    if (updatable_ == nullptr) {
      // Mirror the built path's validation so the answer does not depend on
      // build timing (and so EnsureBuilt's replay cannot fail).
      CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
      std::lock_guard<std::mutex> dl(delta_mu_);
      if (!pre_build_deletes_.Set(oid)) return AlreadyDeletedError(oid);
      return Status::OK();
    }
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      CRACK_RETURN_NOT_OK(updatable_->Delete(oid));
      SyncDirty();
    }
    return MaybeMergeOnWrite(stats);
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (updatable_ == nullptr) return Status::OK();  // base slot overwritten
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      CRACK_RETURN_NOT_OK(updatable_->Update(CastValue<T>(value), oid));
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (updatable_ == nullptr && pre_build_deletes_.empty()) {
      return Status::OK();
    }
    EnsureBuilt(stats);
    Status st = updatable_->Merge(stats);
    SyncDirty();
    return st;
  }

  size_t pending_inserts() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return updatable_ == nullptr ? 0 : updatable_->pending_inserts();
  }
  size_t pending_deletes() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return updatable_ == nullptr ? pre_build_deletes_.count()
                                 : updatable_->pending_deletes();
  }
  size_t merges_performed() const override {
    return updatable_ == nullptr ? 0 : updatable_->merges_performed();
  }

  size_t accel_tuples() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return updatable_ == nullptr ? 0 : updatable_->index().size();
  }

  std::vector<PieceInfo> Pieces() const override {
    if (updatable_ == nullptr) return WholeColumnPiece(column_->size());
    std::vector<PieceInfo> out;
    for (const CrackPiece<T>& p : updatable_->index().Pieces()) {
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
    return updatable_ == nullptr ? 1 : updatable_->num_pieces();
  }

  size_t CutsSince(size_t cursor, std::vector<size_t>* out) const override {
    return updatable_ == nullptr ? cursor
                                 : updatable_->index().CutsSince(cursor, out);
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
    updatable_->mutable_index()->Cut(
        pivot, /*want_incl=*/choice.after_duplicates, stats);
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
    if (updatable_ == nullptr) {
      if (!pre_build_deletes_.empty()) {
        out += StrFormat("deltas: %zu tombstones buffered pre-build\n",
                         pre_build_deletes_.count());
      }
      return out + "no accelerator yet (never queried)\n";
    }
    const CrackerIndex<T>& inner = updatable_->index();
    out += StrFormat("cracker index: %zu tuples, %zu pieces, %zu boundaries\n",
                     inner.size(), inner.num_pieces(), inner.num_bounds());
    out += StrFormat("deltas: %zu pending inserts, %zu tombstones, "
                     "%zu merges\n",
                     updatable_->pending_inserts(),
                     updatable_->pending_deletes(),
                     updatable_->merges_performed());
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
      status.progressive_pending = updatable_->index().progressive_pending();
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
    if (updatable_ != nullptr) return;
    UpdatableCrackerIndexOptions opts;
    // The path drives merges per its DeltaMergePolicy; the index's own
    // select-time auto-merge only backs the threshold discipline.
    opts.auto_merge_fraction =
        config_.delta_merge.policy == DeltaMergePolicy::kThreshold
            ? config_.delta_merge.threshold_fraction
            : 0.0;
    updatable_ =
        std::make_unique<UpdatableCrackerIndex<T>>(column_, stats, opts);
    pre_build_deletes_.ForEach([this](Oid oid) {
      Status st = updatable_->Delete(oid);
      CRACK_DCHECK(st.ok());
      (void)st;
    });
    pre_build_deletes_.ClearAll();
    if (config_.delta_merge.policy == DeltaMergePolicy::kImmediate &&
        updatable_->pending_deletes() > 0) {
      (void)updatable_->Merge(stats);
    }
    SyncDirty();
    // Publish readiness last: shared-latch readers may dereference
    // updatable_ as soon as they observe built_.
    built_.store(true, std::memory_order_release);
  }

  /// Mirrors the delta/accelerator sizes into the latch-free counters the
  /// owner's maintenance poll reads. Callers hold the delta latch or the
  /// exclusive column latch.
  void SyncDirty() {
    if (updatable_ == nullptr) return;
    dirty_count_.store(
        updatable_->pending_inserts() + updatable_->pending_deletes(),
        std::memory_order_relaxed);
    accel_size_.store(updatable_->index().size(), std::memory_order_relaxed);
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
  /// override corrections into `out`. When nothing can hide a row the span
  /// is whole pieces, reduced through their summaries; otherwise every row
  /// goes through the visibility mask. Callers hold the range lock over the
  /// span and the delta latch.
  void AccumulateSpan(CrackerIndex<T>* inner, size_t pos, size_t n, T lo,
                      bool lo_incl, T hi, bool hi_incl,
                      const SnapshotView* view, IoStats* stats,
                      ColumnAggregates* out) {
    SpanAggregates agg;
    size_t read = n;
    if (!ViewActive(view) && updatable_->pending_deletes() == 0) {
      agg = inner->ReducePieces(pos, pos + n, &read);
    } else {
      agg = ReduceSpan<T>(inner->values()->template TailData<T>() + pos,
                          inner->oids()->template TailData<Oid>() + pos, n,
                          updatable_->tombstones(), view);
    }
    FoldAggregates<T>(agg, n, read, updatable_->pending(), lo, lo_incl, hi,
                      hi_incl, view, stats, out);
  }

  Status MaybeMergeOnWrite(IoStats* stats) {
    // Concurrent mode: merges swap the accelerator, which needs the
    // exclusive latch; DML runs under the shared one. The owner polls
    // WantsMaintenance() and flushes under the exclusive latch instead.
    if (config_.concurrent) return Status::OK();
    switch (config_.delta_merge.policy) {
      case DeltaMergePolicy::kImmediate:
        return updatable_->Merge(stats);
      case DeltaMergePolicy::kThreshold:
        if (updatable_->ShouldAutoMerge()) return updatable_->Merge(stats);
        return Status::OK();
      case DeltaMergePolicy::kRippleOnSelect:
        return Status::OK();  // the next selection folds the delta
    }
    return Status::OK();
  }

  void MaybeMergeOnSelect(IoStats* stats) {
    if (config_.concurrent) return;  // the owner's maintenance step folds
    bool dirty =
        updatable_->pending_inserts() + updatable_->pending_deletes() > 0;
    switch (config_.delta_merge.policy) {
      case DeltaMergePolicy::kImmediate:
        break;  // writes already merged
      case DeltaMergePolicy::kThreshold:
        if (updatable_->ShouldAutoMerge()) {
          (void)updatable_->Merge(stats);
        }
        break;
      case DeltaMergePolicy::kRippleOnSelect:
        if (dirty) (void)updatable_->Merge(stats);
        break;
    }
  }

  /// Cracks the piece enclosing `v` at randomly drawn elements until it is
  /// at or below the policy threshold (or no pivot makes progress, e.g. all
  /// duplicates). Skipped when the cut for `v` is already registered.
  /// Races are benign: any element read under the cell lock is a valid
  /// pivot, and a neighbour subdividing the same piece just leaves less
  /// auxiliary work — the span re-probe observes their cuts too.
  void StochasticShrink(T v, bool want_incl, IoStats* stats) {
    CrackerIndex<T>* inner = updatable_->mutable_index();
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
    CrackerIndex<T>* inner = updatable_->mutable_index();
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
    CrackerIndex<T>* inner = updatable_->mutable_index();
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
  /// with a fuzzy coarse edge or an open progressive frontier, at most its
  /// two edge pieces — as exceptions of `set`, whose only span it is.
  /// Callers hold the range lock over the span.
  void MarkValueMisses(CrackerIndex<T>* inner, size_t cut_lo, size_t cut_hi,
                       T lo, bool lo_incl, T hi, bool hi_incl,
                       OidSpanSet* set) {
    const T* data = inner->values()->template TailData<T>();
    for (size_t i = cut_lo; i < cut_hi; ++i) {
      if (!InRange(data[i], lo, lo_incl, hi, hi_incl)) {
        set->MarkException(i - cut_lo);
      }
    }
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  CrackPolicyEngine engine_;
  /// Serializes the policy engine's detector and pivot stream (Pcg32 is not
  /// thread-safe).
  std::mutex engine_mu_;
  std::unique_ptr<UpdatableCrackerIndex<T>> updatable_;
  OidBitTable pre_build_deletes_;  ///< tombstones before build
  std::atomic<bool> built_{false};     ///< updatable_ is safe to dereference
  mutable std::mutex delta_mu_;        ///< guards the delta structures
  std::atomic<size_t> dirty_count_{0};  ///< pending inserts + tombstones
  std::atomic<size_t> accel_size_{0};   ///< tuples in the cracker column
};

// --- sort -----------------------------------------------------------------

template <typename T>
class SortAccessPath : public ColumnAccessPath {
 public:
  SortAccessPath(std::shared_ptr<Bat> column, const AccessPathConfig& config)
      : column_(std::move(column)),
        config_(config),
        deleted_(column_->head_base()),
        purged_(column_->head_base()) {}

  AccessStrategy strategy() const override { return AccessStrategy::kSort; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  PathConcurrency concurrency() const override {
    return PathConcurrency::kSharedReads;
  }

  bool SharedSelectReady() const override {
    return built_.load(std::memory_order_acquire);
  }

  bool WantsMaintenance() const override {
    if (!config_.concurrent || !built_.load(std::memory_order_acquire)) {
      return false;
    }
    return MaintenanceDue(config_.delta_merge,
                          dirty_count_.load(std::memory_order_relaxed),
                          accel_size_.load(std::memory_order_relaxed));
  }

  AccessSelection Select(const RangeBounds& range, bool detach,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    (void)detach;  // the set pins the copy it spans; merges replace it
    EnsureBuilt(stats);
    MaybeMergeOnSelect(stats);
    T lo, hi;
    bool lo_incl, hi_incl;
    ClampRange<T>(range, &lo, &lo_incl, &hi, &hi_incl);
    // Binary search over the sorted copy: read-only, so safe under the
    // shared latch. The answer is one span over the copy's oid map; a merge
    // replaces the copy instead of rewriting it, so the span stays valid
    // after the latch drops.
    CrackSelection sel = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
    AccessSelection out;
    out.span_set.BindOidMap(sorted_->oids());
    out.span_set.AddSpan(sel.oids.offset(), sel.oids.offset() + sel.count());
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      if (OverlayDeltaAnswer<T>(pending_, deleted_, lo, lo_incl, hi, hi_incl,
                                view, stats, &out.span_set) &&
          stats != nullptr) {
        stats->tuples_read += sel.count();
      }
    }
    out.count = out.span_set.count();
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
      MaybeMergeOnSelect(stats);
      // Binary search bounds the answer span; the reduction reads the
      // sorted copy, which only the exclusive latch replaces.
      CrackSelection sel = sorted_->Select(lo, lo_incl, hi, hi_incl, stats);
      const T* vals = sel.values.template data<T>();
      const Oid* oid_data = sel.oids.template data<Oid>();
      size_t n = sel.values.size();
      std::lock_guard<std::mutex> dl(delta_mu_);
      SpanAggregates agg = ReduceSpan<T>(vals, oid_data, n, deleted_, view);
      FoldAggregates<T>(agg, n, n, pending_, lo, lo_incl, hi, hi_incl, view,
                        stats, &out);
      return out;
    }
  }

  Status Insert(const Value& value, Oid oid, IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // lazy build reads base
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      pending_.emplace_back(CastValue<T>(value), oid);
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status Delete(Oid oid, IoStats* stats) override {
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    std::unique_lock<std::mutex> dl(delta_mu_);
    if (purged_.Test(oid)) return AlreadyDeletedError(oid);
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [oid](const auto& p) { return p.second == oid; });
    if (it != pending_.end()) {
      // Cancel the pending insert; the oid joins the physically-gone set so
      // a later Update()/Delete() sees a dead row, not a merged tuple.
      pending_.erase(it);
      purged_.Set(oid);
      SyncDirty();
      return Status::OK();
    }
    if (!deleted_.Set(oid)) return AlreadyDeletedError(oid);
    SyncDirty();
    if (sorted_ == nullptr) return Status::OK();  // filtered until a merge
    dl.unlock();
    return MaybeMergeOnWrite(stats);
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (sorted_ == nullptr) return Status::OK();  // base slot overwritten
    CRACK_RETURN_NOT_OK(CheckDeletableOid(*column_, oid));
    {
      std::lock_guard<std::mutex> dl(delta_mu_);
      auto it = std::find_if(pending_.begin(), pending_.end(),
                             [oid](const auto& p) { return p.second == oid; });
      if (it != pending_.end()) {
        it->first = CastValue<T>(value);
        return Status::OK();
      }
      if (purged_.Test(oid) || !deleted_.Set(oid)) {
        return Status::NotFound(
            StrFormat("oid %llu is deleted",
                      static_cast<unsigned long long>(oid)));
      }
      pending_.emplace_back(CastValue<T>(value), oid);
      SyncDirty();
    }
    if (stats != nullptr) ++stats->tuples_written;
    return MaybeMergeOnWrite(stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (sorted_ == nullptr && pending_.empty() && deleted_.empty()) {
      return Status::OK();
    }
    EnsureBuilt(stats);
    return MergeDeltas(stats);
  }

  size_t pending_inserts() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return pending_.size();
  }
  size_t pending_deletes() const override {
    std::lock_guard<std::mutex> dl(delta_mu_);
    return deleted_.count();
  }
  size_t merges_performed() const override { return merges_; }

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
                     pending_.size(), deleted_.count(), merges_);
    return out;
  }

 private:
  /// Builds the sorted copy on first use (exclusive column latch).
  void EnsureBuilt(IoStats* stats) {
    if (sorted_ != nullptr) return;
    sorted_ = std::make_unique<SortedColumn<T>>(column_, stats);
    accel_size_.store(sorted_->size(), std::memory_order_relaxed);
    built_.store(true, std::memory_order_release);
  }

  /// See CrackAccessPath::SyncDirty. Callers hold the delta latch or the
  /// exclusive column latch.
  void SyncDirty() {
    dirty_count_.store(pending_.size() + deleted_.count(),
                       std::memory_order_relaxed);
  }

  Status MaybeMergeOnWrite(IoStats* stats) {
    // Concurrent mode: merging swaps the sorted copy (exclusive latch);
    // the owner's maintenance hook does it via FlushDeltas.
    if (config_.concurrent) return Status::OK();
    if (config_.delta_merge.policy == DeltaMergePolicy::kImmediate ||
        (config_.delta_merge.policy == DeltaMergePolicy::kThreshold &&
         OverThreshold())) {
      return MergeDeltas(stats);
    }
    return Status::OK();
  }

  void MaybeMergeOnSelect(IoStats* stats) {
    if (config_.concurrent) return;  // the owner's maintenance step folds
    bool dirty = !pending_.empty() || !deleted_.empty();
    if (!dirty) return;
    // kImmediate also folds here: tombstones buffered before the lazy build
    // could not merge at write time (there was nothing to merge into).
    if (config_.delta_merge.policy == DeltaMergePolicy::kRippleOnSelect ||
        config_.delta_merge.policy == DeltaMergePolicy::kImmediate ||
        (config_.delta_merge.policy == DeltaMergePolicy::kThreshold &&
         OverThreshold())) {
      (void)MergeDeltas(stats);
    }
  }

  bool OverThreshold() const {
    double fraction = config_.delta_merge.threshold_fraction;
    if (fraction <= 0 || sorted_ == nullptr) return false;
    return pending_.size() + deleted_.count() >
           static_cast<size_t>(fraction *
                               static_cast<double>(sorted_->size()));
  }

  /// Folds deltas back by merging two sorted runs: the surviving sorted
  /// copy (minus tombstones) and the value-sorted pending inserts. The
  /// result adopts fresh (values, oids) columns — O(n + d log d), no resort
  /// of the bulk.
  Status MergeDeltas(IoStats* stats) {
    if (pending_.empty() && deleted_.empty()) return Status::OK();
    std::sort(pending_.begin(), pending_.end());
    size_t old_n = sorted_->size();
    auto values = Bat::Create(TypeTraits<T>::kType,
                              column_->name() + "#sorted");
    auto oids = Bat::Create(ValueType::kOid, column_->name() + "#sortedmap");
    values->Reserve(old_n + pending_.size());
    oids->Reserve(old_n + pending_.size());
    T* vd = values->template MutableTailData<T>();
    Oid* od = oids->template MutableTailData<Oid>();
    const T* src_v = sorted_->values()->template TailData<T>();
    const Oid* src_o = sorted_->oids()->template TailData<Oid>();
    size_t w = 0;
    size_t p = 0;
    for (size_t i = 0; i < old_n; ++i) {
      if (deleted_.Test(src_o[i])) continue;
      while (p < pending_.size() && pending_[p].first < src_v[i]) {
        vd[w] = pending_[p].first;
        od[w] = pending_[p].second;
        ++w;
        ++p;
      }
      vd[w] = src_v[i];
      od[w] = src_o[i];
      ++w;
    }
    for (; p < pending_.size(); ++p) {
      vd[w] = pending_[p].first;
      od[w] = pending_[p].second;
      ++w;
    }
    values->SetCountUnsafe(w);
    oids->SetCountUnsafe(w);
    if (stats != nullptr) {
      stats->tuples_read += old_n + pending_.size();
      stats->tuples_written += w;
    }
    sorted_ = std::make_unique<SortedColumn<T>>(std::move(values),
                                                std::move(oids));
    // Only tombstones without a pending rebirth (an Update leaves both) are
    // physically gone; remember them so later writes report the row dead.
    for (const auto& [value, oid] : pending_) deleted_.Clear(oid);
    deleted_.ForEach([this](Oid oid) { purged_.Set(oid); });
    pending_.clear();
    deleted_.ClearAll();
    ++merges_;
    obs::RecordMerge(w);
    SyncDirty();
    accel_size_.store(sorted_->size(), std::memory_order_relaxed);
    return Status::OK();
  }

  std::shared_ptr<Bat> column_;
  AccessPathConfig config_;
  std::unique_ptr<SortedColumn<T>> sorted_;
  std::vector<std::pair<T, Oid>> pending_;  ///< inserts since the last merge
  OidBitTable deleted_;  ///< tombstones since the last merge
  OidBitTable purged_;   ///< oids physically gone (merged away)
  size_t merges_ = 0;
  std::atomic<bool> built_{false};      ///< sorted_ is safe to dereference
  mutable std::mutex delta_mu_;         ///< guards the delta structures
  std::atomic<size_t> dirty_count_{0};  ///< pending inserts + tombstones
  std::atomic<size_t> accel_size_{0};   ///< tuples in the sorted copy
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

  AccessSelection Select(const RangeBounds& range, bool detach,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    (void)detach;  // identity spans borrow no layout
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
    ReadmitOverrides<T>(view, lo, lo_incl, hi, hi_incl, &out.span_set);
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

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    (void)oid;
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
        inner_config_(config),
        deleted_(column_->head_base()) {
    // The wrapper is exclusive-only under concurrency (the dictionary has
    // no internal locking and a gap-exhaustion remap swaps the whole inner
    // path), so the inner numeric path keeps serial semantics — its inline
    // merges are safe under the wrapper's exclusive column latch.
    inner_config_.concurrent = false;
  }

  AccessStrategy strategy() const override { return config_.strategy; }
  const AccessPathConfig& config() const override { return config_; }
  size_t size() const override { return column_->size(); }

  // Inherited concurrency defaults are exactly right for this wrapper:
  // kExclusiveOnly, never shared-ready, no owner-driven maintenance.

  AccessSelection Select(const RangeBounds& range, bool detach,
                         IoStats* stats,
                         const SnapshotView* view = nullptr) override {
    // Native-domain selection: the bounds are dictionary codes.
    EnsureEncoded(stats);
    SnapshotView code_view;
    return inner_->Select(range, detach, stats,
                          TranslateView(view, stats, &code_view));
  }

  Result<AccessSelection> SelectTyped(const TypedRange& range, bool detach,
                                      IoStats* stats,
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
    return inner_->Select(codes, detach, stats, inner_view);
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
    return inner_->Insert(Value(code), oid, stats);
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
    return st;
  }

  Status Update(Oid oid, const Value& value, IoStats* stats) override {
    if (!value.is_string()) {
      return Status::TypeMismatch(
          StrFormat("cannot update string column %s with %s",
                    column_->name().c_str(), value.ToString().c_str()));
    }
    if (inner_ == nullptr) return Status::OK();  // base slot overwritten
    int64_t code = Intern(value.AsString(), stats);
    CRACK_RETURN_NOT_OK(codes_->SetNumeric(
        static_cast<size_t>(oid - codes_->head_base()), code));
    return inner_->Update(oid, Value(code), stats);
  }

  Status FlushDeltas(IoStats* stats) override {
    if (inner_ == nullptr && deleted_.empty()) return Status::OK();
    EnsureEncoded(stats);
    return inner_->FlushDeltas(stats);
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
    return inner_->ApplyPolicy(choice, stats);  // pivot in the code domain
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
    inner_config_.policy = options;
    if (inner_ != nullptr) return inner_->SetPolicyOptions(options);
    return Status::OK();
  }

 private:
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
    inner_ = MakePath<int64_t>(codes_, inner_config_);
    deleted_.ForEach([this](Oid oid) {
      Status st = inner_->Delete(oid);
      CRACK_DCHECK(st.ok());
      (void)st;
    });
  }

  std::shared_ptr<Bat> column_;  ///< the kString base (append-only)
  AccessPathConfig config_;
  AccessPathConfig inner_config_;  ///< config_ with concurrent forced off
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
