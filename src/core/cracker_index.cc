// Copyright 2026 The CrackStore Authors

#include "core/cracker_index.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <type_traits>

#include "obs/instruments.h"
#include "util/string_util.h"

namespace crackstore {

template <typename T>
CrackerIndex<T>::CrackerIndex(const std::shared_ptr<Bat>& source,
                              IoStats* stats, CrackerIndexOptions options)
    : options_(options) {
  CRACK_CHECK(source != nullptr);
  CRACK_CHECK(source->tail_type() == TypeTraits<T>::kType);
  if constexpr (std::is_floating_point_v<T>) options_.partition_bits = 0;
  n_ = source->size();
  const Oid base = source->head_base();
  oids_ = Bat::Create(ValueType::kOid, source->name() + "#crackmap");
  oids_->Reserve(n_);
  oids_->SetCountUnsafe(n_);
  raw_oids_ = oids_->MutableTailData<Oid>();
  if (options_.partition_bits > 0 && n_ > 0) {
    values_ = Bat::Create(TypeTraits<T>::kType, source->name() + "#crack");
    values_->set_head_base(base);
    values_->Reserve(n_);
    values_->SetCountUnsafe(n_);
    raw_values_ = values_->MutableTailData<T>();
    PartitionBuild(source->TailData<T>(), base, stats);
    return;
  }
  values_ = source->Clone(source->name() + "#crack");
  raw_values_ = values_->MutableTailData<T>();
  for (size_t i = 0; i < n_; ++i) raw_oids_[i] = base + i;
  if (stats != nullptr) {
    stats->tuples_read += n_;
    stats->tuples_written += n_;
  }
}

template <typename T>
void CrackerIndex<T>::PartitionBuild(const T* src, Oid base, IoStats* stats) {
  if constexpr (std::is_floating_point_v<T>) {
    (void)src;
    (void)base;
    (void)stats;  // double columns always copy
  } else {
    // The scalar tier keeps plain stores, so CRACKSTORE_SIMD=scalar runs
    // the build without any vector instruction.
    const RadixLayout<T> layout =
        RadixPartition(src, n_, base, options_.partition_bits, raw_values_,
                       raw_oids_, ActiveSimdTier() != SimdTier::kScalar);
    std::vector<size_t> cuts;
    cuts.reserve(layout.ranges.size());
    for (size_t p = 1; p < layout.ranges.size(); ++p) {
      cuts.push_back(layout.ranges[p].begin);
    }
    ChargeCrack(0, n_, n_, cuts.data(), cuts.size(), stats);
    // Every edge is registered, an empty range's too: a later cut at a
    // value inside an empty range then has an empty crack region.
    for (size_t p = 1; p < layout.ranges.size(); ++p) {
      RegisterCut(layout.Edge(p), /*want_incl=*/false, layout.ranges[p].begin);
    }
    for (const RadixRange& r : layout.ranges) {
      if (r.count < kSummaryMinRows) continue;
      const PieceSummary summary{r.begin + r.count, r.sum, r.min, r.max};
      if (r.begin == 0) {
        head_summary_ = summary;
      } else {
        cut_refs_[r.begin].summary = summary;
      }
    }
  }
}

template <typename T>
CrackerIndex<T>::CrackerIndex(std::shared_ptr<Bat> values,
                              std::shared_ptr<Bat> oids,
                              CrackerIndexOptions options)
    : options_(options) {
  CRACK_CHECK(values != nullptr && oids != nullptr);
  CRACK_CHECK(values->tail_type() == TypeTraits<T>::kType);
  CRACK_CHECK(oids->tail_type() == ValueType::kOid);
  CRACK_CHECK(values->size() == oids->size());
  n_ = values->size();
  values_ = std::move(values);
  oids_ = std::move(oids);
  raw_values_ = values_->MutableTailData<T>();
  raw_oids_ = oids_->MutableTailData<Oid>();
}

template <typename T>
size_t CrackerIndex<T>::LowerLimitFor(T v) const {
  auto it = bounds_.lower_bound(v);  // first entry >= v
  if (it == bounds_.begin()) return 0;
  --it;  // last entry < v
  const Bound& b = it->second;
  return b.has_incl ? b.pos_incl : b.pos_excl;
}

template <typename T>
size_t CrackerIndex<T>::UpperLimitFor(T v) const {
  auto it = bounds_.upper_bound(v);  // first entry > v
  if (it == bounds_.end()) return n_;
  const Bound& b = it->second;
  return b.has_excl ? b.pos_excl : b.pos_incl;
}

template <typename T>
void CrackerIndex<T>::CrackRegionFor(T v, bool want_incl, size_t* begin,
                                     size_t* end) const {
  auto it = bounds_.find(v);
  if (it != bounds_.end()) {
    // A boundary at v exists but with the other inclusivity; the slice of
    // duplicates of v bounds the crack region on one side.
    const Bound& b = it->second;
    if (want_incl) {
      // pos_incl lies in [pos_excl, successor); everything left of pos_excl
      // is already < v.
      CRACK_DCHECK(b.has_excl);
      *begin = b.pos_excl;
      *end = UpperLimitFor(v);
    } else {
      // pos_excl lies in [predecessor, pos_incl); everything right of
      // pos_incl is already > v.
      CRACK_DCHECK(b.has_incl);
      *begin = LowerLimitFor(v);
      *end = b.pos_incl;
    }
  } else {
    *begin = LowerLimitFor(v);
    *end = UpperLimitFor(v);
  }
  CRACK_DCHECK(*begin <= *end);
}

template <typename T>
void CrackerIndex<T>::RefCut(size_t pos, int delta) {
  if (pos == 0 || pos >= n_) return;
  if (delta > 0) {
    if (cut_refs_[pos].refs++ == 0) cut_log_.push_back(pos);
    return;
  }
  auto it = cut_refs_.find(pos);
  CRACK_DCHECK(it != cut_refs_.end());
  if (it != cut_refs_.end() && --it->second.refs == 0) {
    cut_refs_.erase(it);
    cut_log_.erase(std::find(cut_log_.begin(), cut_log_.end(), pos));
  }
}

template <typename T>
size_t CrackerIndex<T>::CutsSince(size_t cursor,
                                  std::vector<size_t>* out) const {
  std::lock_guard<std::mutex> lk(map_mu_);
  if (cursor < cut_log_.size()) {
    out->insert(out->end(), cut_log_.begin() + cursor, cut_log_.end());
  }
  return cut_log_.size();
}

template <typename T>
void CrackerIndex<T>::SetCutSide(Bound* b, bool incl, size_t pos) {
  bool& has = incl ? b->has_incl : b->has_excl;
  size_t& at = incl ? b->pos_incl : b->pos_excl;
  if (has) RefCut(at, -1);
  has = true;
  at = pos;
  RefCut(pos, +1);
}

template <typename T>
void CrackerIndex<T>::RegisterCut(T v, bool want_incl, size_t pos) {
  Bound& b = bounds_[v];
  if (b.created == 0) b.created = clock_;
  SetCutSide(&b, want_incl, pos);
  Touch(&b);
}

template <typename T>
bool CrackerIndex<T>::FindCutLocked(T v, bool want_incl, size_t* pos) {
  auto it = bounds_.find(v);
  if (it == bounds_.end()) return false;
  Bound& b = it->second;
  if (want_incl && b.has_incl) {
    Touch(&b);
    *pos = b.pos_incl;
    return true;
  }
  if (!want_incl && b.has_excl) {
    Touch(&b);
    *pos = b.pos_excl;
    return true;
  }
  return false;
}

template <typename T>
bool CrackerIndex<T>::FindCut(T v, bool want_incl, size_t* pos) {
  std::lock_guard<std::mutex> lk(map_mu_);
  return FindCutLocked(v, want_incl, pos);
}

template <typename T>
std::pair<size_t, size_t> CrackerIndex<T>::PieceSpanFor(T v) const {
  std::lock_guard<std::mutex> lk(map_mu_);
  return {LowerLimitFor(v), UpperLimitFor(v)};
}

template <typename T>
std::pair<size_t, size_t> CrackerIndex<T>::PieceAt(size_t pos) const {
  std::lock_guard<std::mutex> lk(map_mu_);
  auto next = cut_refs_.upper_bound(pos);  // first cut after pos
  const size_t end = next == cut_refs_.end() ? n_ : next->first;
  const size_t begin = next == cut_refs_.begin() ? 0 : std::prev(next)->first;
  return {begin, end};
}

template <typename T>
T CrackerIndex<T>::ValueAt(size_t slot) {
  CRACK_DCHECK(slot < n_);
  RangeLockGuard cell(&range_locks_, slot, slot + 1, /*exclusive=*/false);
  return raw_values_[slot];
}

template <typename T>
void CrackerIndex<T>::ChargeCrack(size_t begin, size_t end, size_t writes,
                                  const size_t* cuts, size_t num_cuts,
                                  IoStats* stats) const {
  // A strictly-interior cut is a brand-new cut position (registered cuts
  // bound the crack region, so its interior held none): one new piece each.
  uint64_t created = 0;
  size_t prev = begin;
  for (const size_t* it = cuts; it != cuts + num_cuts; ++it) {
    const size_t cut = *it;
    if (cut > prev) {
      obs::RecordPieceSize(cut - prev);
      created += cut < end ? 1 : 0;
    }
    prev = cut;
  }
  if (end > prev) obs::RecordPieceSize(end - prev);
  obs::RecordCrack(end - begin, writes, created, /*pieces_touched=*/1);
  if (stats != nullptr) {
    stats->tuples_read += end - begin;
    stats->tuples_written += writes;
    ++stats->cracks;
    ++stats->pieces_touched;
    stats->kernel_writes += writes;
    stats->pieces_created += created;
  }
}

template <typename T>
size_t CrackerIndex<T>::Cut(T v, bool want_incl, IoStats* stats) {
  size_t begin, end;
  {
    std::lock_guard<std::mutex> lk(map_mu_);
    size_t pos;
    if (FindCutLocked(v, want_incl, &pos)) return pos;
    CrackRegionFor(v, want_incl, &begin, &end);
  }
  for (;;) {
    // Shuffles only happen under an exclusive lock on the enclosing piece.
    // Between the map read and the lock grant another thread may have
    // subdivided (or fully cut) the region, so revalidate under the map
    // mutex once the lock is held: the live region is always a subrange of
    // the one we locked, because cracks only ever subdivide pieces.
    RangeLockGuard region(&range_locks_, begin, end, /*exclusive=*/true);
    size_t b2, e2;
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t pos;
      if (FindCutLocked(v, want_incl, &pos)) return pos;
      CrackRegionFor(v, want_incl, &b2, &e2);
      // The full kernel below repartitions [b2, e2); a carried frontier for
      // the piece becomes meaningless.
      if (b2 >= begin && e2 <= end) InvalidateProgressive(b2);
    }
    if (b2 < begin || e2 > end) {
      // Defensive: the region can only shrink; if it ever widened, retry
      // with the wider lock rather than shuffling outside the held range.
      begin = b2;
      end = e2;
      continue;
    }
    // The kernel runs outside map_mu_: no other thread can register a cut
    // inside [b2, e2) meanwhile (doing so would need this range lock), and
    // cuts elsewhere don't move data in here.
    CrackSplit split =
        want_incl ? CrackInTwoLe(raw_values_ + b2, raw_oids_ + b2, e2 - b2, v)
                  : CrackInTwoLt(raw_values_ + b2, raw_oids_ + b2, e2 - b2, v);
    const size_t pos = b2 + split.split;
    ChargeCrack(b2, e2, split.writes, &pos, 1, stats);
    std::lock_guard<std::mutex> lk(map_mu_);
    RegisterCut(v, want_incl, pos);
    return pos;
  }
}

template <typename T>
size_t CrackerIndex<T>::AdvanceProgressive(ProgressiveJob* job,
                                           size_t max_writes, bool* done,
                                           IoStats* stats) {
  const T pivot = job->pivot;
  const size_t old_lo = job->lo;
  const size_t old_hi = job->hi;
  size_t lo = old_lo;
  size_t hi = old_hi;
  size_t writes;
  if (job->want_incl) {
    writes = internal::PartialPartition2(
        raw_values_, raw_oids_, &lo, &hi,
        [pivot](T v) { return v <= pivot; }, max_writes);
  } else {
    writes = internal::PartialPartition2(
        raw_values_, raw_oids_, &lo, &hi,
        [pivot](T v) { return v < pivot; }, max_writes);
  }
  job->lo = lo;
  job->hi = hi;
  *done = lo >= hi;
  const size_t processed = (lo - old_lo) + (old_hi - hi);
  const bool interior = *done && lo > job->begin && lo < job->end;
  if (stats != nullptr) {
    stats->tuples_read += processed;
    stats->tuples_written += writes;
    ++stats->cracks;
    ++stats->pieces_touched;
    stats->kernel_writes += writes;
    if (interior) ++stats->pieces_created;
  }
  obs::RecordCrack(processed, writes, interior ? 1 : 0, /*pieces_touched=*/1);
  if (*done) {
    if (lo > job->begin) obs::RecordPieceSize(lo - job->begin);
    if (job->end > lo) obs::RecordPieceSize(job->end - lo);
  }
  return writes;
}

template <typename T>
ProgressiveCut CrackerIndex<T>::CutProgressive(T v, bool want_incl,
                                               size_t max_writes,
                                               IoStats* stats) {
  ProgressiveCut out;
  size_t begin, end;
  {
    std::lock_guard<std::mutex> lk(map_mu_);
    size_t pos;
    if (FindCutLocked(v, want_incl, &pos)) {
      out.lo = out.hi = pos;
      out.exact = true;
      return out;
    }
    CrackRegionFor(v, want_incl, &begin, &end);
  }
  size_t budget = max_writes;
  for (;;) {
    // Same lock order as Cut: exclusive range lock on the piece first, then
    // map_mu_ to revalidate and read/write frontier state.
    RangeLockGuard region(&range_locks_, begin, end, /*exclusive=*/true);
    ProgressiveJob job;
    bool ours;
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t pos;
      if (FindCutLocked(v, want_incl, &pos)) {
        out.lo = out.hi = pos;
        out.exact = true;
        return out;
      }
      size_t b2, e2;
      CrackRegionFor(v, want_incl, &b2, &e2);
      if (b2 < begin || e2 > end) {
        // Defensive, mirroring Cut: retry with the wider lock.
        begin = b2;
        end = e2;
        continue;
      }
      begin = b2;
      end = e2;
      auto it = progressive_.find(begin);
      if (it != progressive_.end() && it->second.end != end) {
        progressive_.erase(it);
        it = progressive_.end();
      }
      if (it == progressive_.end()) {
        job.pivot = v;
        job.want_incl = want_incl;
        job.begin = begin;
        job.end = end;
        job.lo = begin;
        job.hi = end;
        progressive_.emplace(begin, job);
        ours = true;
      } else {
        job = it->second;
        ours = job.pivot == v && job.want_incl == want_incl;
      }
    }
    // The pass runs outside map_mu_ but under the exclusive range lock:
    // nobody else can shuffle or advance this piece meanwhile.
    bool job_done = false;
    const size_t w = AdvanceProgressive(&job, budget, &job_done, stats);
    budget -= std::min(budget, w);
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      if (job_done) {
        RegisterCut(job.pivot, job.want_incl, job.lo);
        progressive_.erase(begin);
        if (ours) {
          out.lo = out.hi = job.lo;
          out.exact = true;
          return out;
        }
        // A foreign job completed: the piece subdivided; fall through to
        // re-navigate for our own pivot with the remaining budget.
      } else {
        auto it = progressive_.find(begin);
        if (it != progressive_.end()) it->second = job;
        out.deferred = job.hi - job.lo;
        if (ours) {
          out.lo = job.lo;
          out.hi = job.hi;
        } else {
          // Budget ran dry finishing a foreign job: nothing is known about
          // our pivot inside this piece.
          out.lo = begin;
          out.hi = end;
        }
        obs::RecordProgressiveDeferred(out.deferred);
        return out;
      }
    }
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t pos;
      if (FindCutLocked(v, want_incl, &pos)) {
        out.lo = out.hi = pos;
        out.exact = true;
        return out;
      }
      CrackRegionFor(v, want_incl, &begin, &end);
    }
  }
}

template <typename T>
size_t CrackerIndex<T>::progressive_pending() const {
  std::lock_guard<std::mutex> lk(map_mu_);
  size_t total = 0;
  for (const auto& [begin, job] : progressive_) total += job.hi - job.lo;
  return total;
}

template <typename T>
bool CrackerIndex<T>::CrackInThreeIfWhole(T lo, bool lo_incl, T hi,
                                          bool hi_incl, IoStats* stats,
                                          size_t* cut_lo, size_t* cut_hi) {
  size_t begin, end;
  {
    std::lock_guard<std::mutex> lk(map_mu_);
    if (bounds_.lower_bound(lo) != bounds_.upper_bound(hi)) return false;
    begin = LowerLimitFor(lo);
    end = UpperLimitFor(hi);
  }
  RangeLockGuard region(&range_locks_, begin, end, /*exclusive=*/true);
  {
    // Still one piece? A neighbour may have cut it between the map read and
    // the lock grant. A cut outside [lo, hi] only narrows the piece (still
    // inside the locked range); one inside it sends us to two cuts.
    std::lock_guard<std::mutex> lk(map_mu_);
    if (bounds_.lower_bound(lo) != bounds_.upper_bound(hi)) return false;
    const size_t b2 = LowerLimitFor(lo);
    const size_t e2 = UpperLimitFor(hi);
    if (b2 < begin || e2 > end) return false;
    begin = b2;
    end = e2;
    InvalidateProgressive(begin);
  }
  Crack3Split split = CrackInThree(raw_values_ + begin, raw_oids_ + begin,
                                   end - begin, lo, lo_incl, hi, hi_incl);
  *cut_lo = begin + split.first;
  *cut_hi = begin + split.second;
  const size_t cuts[] = {*cut_lo, *cut_hi};
  ChargeCrack(begin, end, split.writes, cuts, 2, stats);
  std::lock_guard<std::mutex> lk(map_mu_);
  uint64_t created_clock = clock_;
  if (lo == hi) {
    // Point query: both cuts decorate the same boundary value.
    Bound& b = bounds_[lo];
    if (b.created == 0) b.created = created_clock;
    SetCutSide(&b, /*incl=*/false, *cut_lo);
    SetCutSide(&b, /*incl=*/true, *cut_hi);
    Touch(&b);
  } else {
    Bound& bl = bounds_[lo];
    if (bl.created == 0) bl.created = created_clock;
    SetCutSide(&bl, /*incl=*/!lo_incl, *cut_lo);
    Touch(&bl);
    Bound& bh = bounds_[hi];
    if (bh.created == 0) bh.created = created_clock;
    SetCutSide(&bh, /*incl=*/hi_incl, *cut_hi);
    Touch(&bh);
  }
  return true;
}

template <typename T>
CrackSelection CrackerIndex<T>::Select(T lo, bool lo_incl, T hi, bool hi_incl,
                                       IoStats* stats) {
  // Degenerate/inverted ranges answer empty without cracking.
  if (lo > hi || (lo == hi && !(lo_incl && hi_incl))) {
    return CrackSelection{BatView(values_, 0, 0), BatView(oids_, 0, 0)};
  }
  size_t cut_lo;
  size_t cut_hi;
  // When no registered boundary falls inside [lo, hi], both cuts land in one
  // piece: crack it in three with a single pass (§3.1's three-piece Ξ).
  // Otherwise crack (at most) the two edge pieces.
  if (!options_.use_crack_in_three ||
      !CrackInThreeIfWhole(lo, lo_incl, hi, hi_incl, stats, &cut_lo,
                           &cut_hi)) {
    cut_lo = Cut(lo, /*want_incl=*/!lo_incl, stats);
    cut_hi = Cut(hi, /*want_incl=*/hi_incl, stats);
  }
  if (cut_hi < cut_lo) cut_hi = cut_lo;  // empty result
  return CrackSelection{BatView(values_, cut_lo, cut_hi - cut_lo),
                        BatView(oids_, cut_lo, cut_hi - cut_lo)};
}

template <typename T>
CrackSelection CrackerIndex<T>::SelectLessThan(T v, bool inclusive,
                                               IoStats* stats) {
  size_t cut = Cut(v, /*want_incl=*/inclusive, stats);
  return CrackSelection{BatView(values_, 0, cut), BatView(oids_, 0, cut)};
}

template <typename T>
CrackSelection CrackerIndex<T>::SelectGreaterThan(T v, bool inclusive,
                                                  IoStats* stats) {
  size_t cut = Cut(v, /*want_incl=*/!inclusive, stats);
  return CrackSelection{BatView(values_, cut, n_ - cut),
                        BatView(oids_, cut, n_ - cut)};
}

template <typename T>
CrackSelection CrackerIndex<T>::SelectEquals(T v, IoStats* stats) {
  return Select(v, /*lo_incl=*/true, v, /*hi_incl=*/true, stats);
}

template <typename T>
CrackSelection CrackerIndex<T>::SelectAll() const {
  return CrackSelection{BatView(values_, 0, n_), BatView(oids_, 0, n_)};
}

template <typename T>
size_t CrackerIndex<T>::num_pieces() const {
  std::lock_guard<std::mutex> lk(map_mu_);
  return cut_refs_.size() + 1;
}

template <typename T>
size_t CrackerIndex<T>::num_bounds() const {
  std::lock_guard<std::mutex> lk(map_mu_);
  return bounds_.size();
}

namespace {

/// Folds one reduction into a running one, in AggregateSpan's integer
/// contract (wrapping sum; min/max meaningful once count > 0).
void FoldInto(SpanAggregates* acc, uint64_t count, int64_t sum, int64_t mn,
              int64_t mx) {
  if (count == 0) return;
  acc->sum_i = static_cast<int64_t>(static_cast<uint64_t>(acc->sum_i) +
                                    static_cast<uint64_t>(sum));
  acc->min_i = acc->count == 0 ? mn : std::min(acc->min_i, mn);
  acc->max_i = acc->count == 0 ? mx : std::max(acc->max_i, mx);
  acc->count += count;
}

}  // namespace

template <typename T>
SpanAggregates CrackerIndex<T>::ReducePieces(size_t begin, size_t end,
                                             size_t* rows_read) {
  CRACK_DCHECK(begin <= end && end <= n_);
  if constexpr (std::is_floating_point_v<T>) {
    if (rows_read != nullptr) *rows_read = end - begin;
    return AggregateSpan(raw_values_ + begin, end - begin);
  } else {
    // Slot runs a kernel must read; `keep` marks a run between two cuts
    // whose reduction becomes the summary kept at its first cut.
    struct Run {
      size_t begin;
      size_t end;
      bool keep;
    };
    std::vector<Run> runs;
    SpanAggregates acc;
    acc.min_i = std::numeric_limits<T>::max();
    acc.max_i = std::numeric_limits<T>::min();
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t pos = begin;
      auto it = cut_refs_.lower_bound(pos);  // first cut at or after pos
      auto pos_of = [this](auto i) {
        return i == cut_refs_.end() ? n_ : i->first;
      };
      while (pos < end) {
        // The piece holding pos ends at the first cut after it; only a run
        // that starts at pos (slot 0 or a cut) can carry a summary.
        PieceSummary* slot = nullptr;
        auto next = it;
        if (pos == 0) {
          slot = &head_summary_;
        } else if (it != cut_refs_.end() && it->first == pos) {
          slot = &it->second.summary;
          ++next;
        }
        const size_t piece_end = pos_of(next);
        if (piece_end > end) {  // the answer ends inside this piece
          runs.push_back({pos, end, false});
          break;
        }
        if (slot != nullptr && slot->end >= piece_end && slot->end <= end) {
          // The summary covers [pos, slot->end): still exact if that end is
          // still a cut (free to check when it is the next one).
          auto to = slot->end == piece_end ? next : cut_refs_.find(slot->end);
          if (pos_of(to) == slot->end) {
            FoldInto(&acc, slot->end - pos, slot->sum, slot->min, slot->max);
            pos = slot->end;
            it = to;
            continue;
          }
        }
        auto to = next;
        if (piece_end - pos < kSummaryMinRows && next != cut_refs_.end()) {
          // A small piece: extend the run with one lookup instead of a step
          // per piece. The cut before `far` lies below pos + kSummaryMinRows,
          // so every piece left of it is small; the piece it starts may not
          // be, and then the run stops there.
          auto far = cut_refs_.lower_bound(pos + kSummaryMinRows);
          to = std::prev(far);
          if (pos_of(far) - to->first < kSummaryMinRows) to = far;
        }
        size_t stop = pos_of(to);
        if (stop > end) {  // clipped: keep it only if `end` is a cut
          to = cut_refs_.lower_bound(end);
          stop = end;
        }
        runs.push_back({pos, stop,
                        slot != nullptr && pos_of(to) == stop &&
                            stop - pos >= kSummaryMinRows});
        pos = stop;
        it = to;
      }
    }

    size_t read = 0;
    std::vector<std::pair<size_t, PieceSummary>> fresh;
    for (const Run& r : runs) {
      SpanAggregates a = AggregateSpan(raw_values_ + r.begin, r.end - r.begin);
      FoldInto(&acc, a.count, a.sum_i, a.min_i, a.max_i);
      read += r.end - r.begin;
      if (r.keep) {
        fresh.push_back({r.begin, PieceSummary{r.end, a.sum_i, a.min_i,
                                               a.max_i}});
      }
    }
    if (rows_read != nullptr) *rows_read = read;
    if (!fresh.empty()) {
      // Re-find each slot: the map may have grown meanwhile.
      // The runs themselves did not change (the caller holds the range lock
      // over them), and a summary stays exact while both its cuts exist.
      std::lock_guard<std::mutex> lk(map_mu_);
      for (const auto& [b, s] : fresh) {
        if (b == 0) {
          head_summary_ = s;
        } else if (auto c = cut_refs_.find(b); c != cut_refs_.end()) {
          c->second.summary = s;
        }
      }
    }
    return acc;
  }
}

template <typename T>
std::vector<CrackPiece<T>> CrackerIndex<T>::Pieces() const {
  // Event list: (position, value, is_incl). A pos_excl event at value v says
  // the right-hand side holds v >= value; a pos_incl event says v > value.
  struct Event {
    size_t pos;
    T value;
    bool incl;  // true when this is a pos_incl cut
  };
  std::lock_guard<std::mutex> lk(map_mu_);
  std::vector<Event> events;
  events.reserve(bounds_.size() * 2);
  for (const auto& [value, b] : bounds_) {
    if (b.has_excl) events.push_back({b.pos_excl, value, false});
    if (b.has_incl) events.push_back({b.pos_incl, value, true});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.pos != b.pos) return a.pos < b.pos;
    if (a.value != b.value) return a.value < b.value;
    return a.incl < b.incl;
  });

  std::vector<CrackPiece<T>> pieces;
  CrackPiece<T> cur;
  cur.begin = 0;
  for (const Event& e : events) {
    if (e.pos > cur.begin) {
      cur.end = e.pos;
      // Upper decoration from this event: left side is < v (excl) or <= v
      // (incl).
      cur.has_hi = true;
      cur.hi = e.value;
      cur.hi_strict = !e.incl;
      pieces.push_back(cur);
      cur = CrackPiece<T>{};
      cur.begin = e.pos;
    }
    // Lower decoration for the piece starting at e.pos: right side is
    // >= v (excl cut) or > v (incl cut). Tightest wins: later events at the
    // same position have larger values, so keep overwriting.
    cur.has_lo = true;
    cur.lo = e.value;
    cur.lo_strict = e.incl;
  }
  cur.end = n_;
  if (cur.end > cur.begin || pieces.empty()) pieces.push_back(cur);
  return pieces;
}

template <typename T>
std::vector<CrackBound<T>> CrackerIndex<T>::Bounds() const {
  std::lock_guard<std::mutex> lk(map_mu_);
  std::vector<CrackBound<T>> out;
  out.reserve(bounds_.size());
  for (const auto& [value, b] : bounds_) {
    CrackBound<T> cb;
    cb.value = value;
    cb.has_excl = b.has_excl;
    cb.pos_excl = b.pos_excl;
    cb.has_incl = b.has_incl;
    cb.pos_incl = b.pos_incl;
    cb.last_used = b.last_used;
    cb.created = b.created;
    out.push_back(cb);
  }
  return out;
}

template <typename T>
Status CrackerIndex<T>::RemoveBound(T value) {
  std::lock_guard<std::mutex> lk(map_mu_);
  auto it = bounds_.find(value);
  if (it == bounds_.end()) {
    return Status::NotFound("no boundary at requested value");
  }
  if (it->second.has_excl) RefCut(it->second.pos_excl, -1);
  if (it->second.has_incl) RefCut(it->second.pos_incl, -1);
  bounds_.erase(it);
  // Fusing pieces invalidates the piece geometry every carried frontier
  // was keyed against; drop them all (their partial partitions stay
  // harmless — a redo merely re-shuffles).
  progressive_.clear();
  return Status::OK();
}

template <typename T>
Status CrackerIndex<T>::Validate() const {
  const T* d = raw_values_;
  for (const auto& [value, b] : bounds_) {
    if (b.has_excl) {
      for (size_t i = 0; i < b.pos_excl; ++i) {
        if (!(d[i] < value)) {
          return Status::Internal(StrFormat(
              "excl bound violated at index %zu (pos_excl=%zu)", i,
              b.pos_excl));
        }
      }
      for (size_t i = b.pos_excl; i < n_; ++i) {
        if (d[i] < value) {
          return Status::Internal(StrFormat(
              "excl bound violated at index %zu (pos_excl=%zu)", i,
              b.pos_excl));
        }
      }
    }
    if (b.has_incl) {
      for (size_t i = 0; i < b.pos_incl; ++i) {
        if (d[i] > value) {
          return Status::Internal(StrFormat(
              "incl bound violated at index %zu (pos_incl=%zu)", i,
              b.pos_incl));
        }
      }
      for (size_t i = b.pos_incl; i < n_; ++i) {
        if (!(d[i] > value)) {
          return Status::Internal(StrFormat(
              "incl bound violated at index %zu (pos_incl=%zu)", i,
              b.pos_incl));
        }
      }
    }
    if (b.has_excl && b.has_incl && b.pos_excl > b.pos_incl) {
      return Status::Internal("pos_excl > pos_incl");
    }
  }
  // Every summary ReducePieces would reuse (its end is still a cut) must
  // match the rows it covers.
  auto check = [&](size_t from, const PieceSummary& s) {
    if (s.end == 0 || (s.end != n_ && cut_refs_.count(s.end) == 0)) {
      return Status::OK();
    }
    SpanAggregates a = AggregateSpan(d + from, s.end - from);
    if (a.sum_i != s.sum || a.min_i != s.min || a.max_i != s.max) {
      return Status::Internal(
          StrFormat("stale summary for slots [%zu, %zu)", from, s.end));
    }
    return Status::OK();
  };
  CRACK_RETURN_NOT_OK(check(0, head_summary_));
  for (const auto& [pos, ref] : cut_refs_) {
    CRACK_RETURN_NOT_OK(check(pos, ref.summary));
  }
  return Status::OK();
}

template class CrackerIndex<int32_t>;
template class CrackerIndex<int64_t>;
template class CrackerIndex<double>;

}  // namespace crackstore
