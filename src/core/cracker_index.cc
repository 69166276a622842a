// Copyright 2026 The CrackStore Authors

#include "core/cracker_index.h"

#include <algorithm>
#include <cstring>
#include <functional>
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
    // The histogram's per-range reductions are the parts of this pass.
    std::vector<PartReduction> parts(layout.ranges.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      const RadixRange& r = layout.ranges[p];
      if (r.count > 0) parts[p] = PartReduction{r.sum, r.min, r.max};
    }
    std::vector<CutRecord> records(parts.size() + 1);
    RecordCuts(RecordAtLocked(0), RecordAtLocked(n_), parts.data(),
               parts.size(), records.data());
    NoteEdgeRecords(0, n_, records.data(), parts.size());
    // Every edge is registered, an empty range's too: a later cut at a
    // value inside an empty range then has an empty crack region.
    for (size_t p = 1; p < layout.ranges.size(); ++p) {
      RegisterCut(layout.Edge(p), /*want_incl=*/false, layout.ranges[p].begin,
                  records[p]);
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
Result<std::unique_ptr<CrackerIndex<T>>> CrackerIndex<T>::Fold(
    const OidBitTable& drop, const std::vector<std::pair<T, Oid>>& add,
    IoStats* stats) const {
  // Snapshot the learned boundaries before rebuilding.
  std::vector<CrackBound<T>> bounds = Bounds();

  // New cracker column: the current (clustered!) survivors followed by the
  // added rows.
  auto values = Bat::Create(TypeTraits<T>::kType, "merged#crack");
  auto oids = Bat::Create(ValueType::kOid, "merged#crackmap");
  values->Reserve(n_ + add.size());
  oids->Reserve(n_ + add.size());
  T* vd = values->template MutableTailData<T>();
  Oid* od = oids->template MutableTailData<Oid>();
  size_t w = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (drop.Test(raw_oids_[i])) continue;
    vd[w] = raw_values_[i];
    od[w] = raw_oids_[i];
    ++w;
  }
  if (w + drop.count() != n_) {
    return Status::Internal("tombstone set references missing oids");
  }
  for (const auto& [value, oid] : add) {
    vd[w] = value;
    od[w] = oid;
    ++w;
  }
  values->SetCountUnsafe(w);
  oids->SetCountUnsafe(w);
  if (stats != nullptr) {
    stats->tuples_read += n_ + add.size();
    stats->tuples_written += w;
  }

  auto rebuilt = std::make_unique<CrackerIndex<T>>(std::move(values),
                                                   std::move(oids), options_);
  std::function<void(size_t, size_t)> replay = [&](size_t lo, size_t hi) {
    if (lo >= hi) return;
    size_t mid = lo + (hi - lo) / 2;
    const CrackBound<T>& b = bounds[mid];
    if (b.has_excl) {
      (void)rebuilt->SelectLessThan(b.value, /*inclusive=*/false, stats);
    }
    if (b.has_incl) {
      (void)rebuilt->SelectLessThan(b.value, /*inclusive=*/true, stats);
    }
    replay(lo, mid);
    replay(mid + 1, hi);
  };
  replay(0, bounds.size());
  return rebuilt;
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
void CrackerIndex<T>::RecordCuts(const CutRecord& from, const CutRecord& to,
                                 const PartReduction* parts, size_t num_parts,
                                 CutRecord* out) {
  // Empty parts hold the identities, so they fold in without a test.
  out[0].prefix = from.prefix;
  out[0].max_before = from.max_before;
  for (size_t k = 0; k < num_parts; ++k) {
    out[k + 1].prefix =
        static_cast<int64_t>(static_cast<uint64_t>(out[k].prefix) +
                             static_cast<uint64_t>(parts[k].sum));
    out[k + 1].max_before = std::max(out[k].max_before, parts[k].max);
  }
  out[num_parts].min_after = to.min_after;
  for (size_t k = num_parts; k-- > 0;) {
    out[k].min_after = std::min(out[k + 1].min_after, parts[k].min);
  }
}

template <typename T>
typename CrackerIndex<T>::CutRecord CrackerIndex<T>::RecordAtLocked(
    size_t pos) const {
  if (pos == 0) return edge_records_[0];
  if (pos == n_) return edge_records_[1];
  auto it = cut_refs_.find(pos);
  CRACK_DCHECK(it != cut_refs_.end());
  return it == cut_refs_.end() ? CutRecord{} : it->second.record;
}

template <typename T>
void CrackerIndex<T>::NoteEdgeRecords(size_t b, size_t e, const CutRecord* out,
                                      size_t num_parts) {
  // With the parts' outer extremes, a record computed at 0 or n is complete
  // (RecordCuts never reads the fields still unknown there), so rewriting a
  // filled one changes nothing.
  if (b == 0) edge_records_[0] = out[0];
  if (e == n_) edge_records_[1] = out[num_parts];
  if (b == 0 && e == n_) edges_recorded_ = true;
}

template <typename T>
void CrackerIndex<T>::AddCutRef(size_t pos, const CutRecord& record) {
  if (pos == 0 || pos >= n_) return;
  CutRef& ref = cut_refs_[pos];
  if (ref.refs++ == 0) {
    ref.record = record;
    cut_log_.push_back(pos);
  }
}

template <typename T>
void CrackerIndex<T>::DropCutRef(size_t pos) {
  if (pos == 0 || pos >= n_) return;
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
void CrackerIndex<T>::SetCutSide(Bound* b, bool incl, size_t pos,
                                 const CutRecord& record) {
  bool& has = incl ? b->has_incl : b->has_excl;
  size_t& at = incl ? b->pos_incl : b->pos_excl;
  if (has) DropCutRef(at);
  has = true;
  at = pos;
  AddCutRef(pos, record);
}

template <typename T>
void CrackerIndex<T>::RegisterCut(T v, bool want_incl, size_t pos,
                                  const CutRecord& record) {
  Bound& b = bounds_[v];
  if (b.created == 0) b.created = clock_;
  SetCutSide(&b, want_incl, pos, record);
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
    CutRecord records[3];  // at b2, at the new cut, at e2
    bool outer = false;    // the column's first pass: records 0 and n too
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t pos;
      if (FindCutLocked(v, want_incl, &pos)) return pos;
      CrackRegionFor(v, want_incl, &b2, &e2);
      // The full kernel below repartitions [b2, e2); a carried frontier for
      // the piece becomes meaningless.
      if (b2 >= begin && e2 <= end) InvalidateProgressive(b2);
      // Copies: they stay exact even if a fusion drops b2 or e2 meanwhile.
      records[0] = RecordAtLocked(b2);
      records[2] = RecordAtLocked(e2);
      outer = !edges_recorded_;
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
        want_incl ? CrackInTwoLe(raw_values_ + b2, raw_oids_ + b2, e2 - b2, v,
                                 outer)
                  : CrackInTwoLt(raw_values_ + b2, raw_oids_ + b2, e2 - b2, v,
                                 outer);
    const size_t pos = b2 + split.split;
    ChargeCrack(b2, e2, split.writes, &pos, 1, stats);
    RecordCuts(records[0], records[2], split.parts, 2, records);
    std::lock_guard<std::mutex> lk(map_mu_);
    if (outer) NoteEdgeRecords(b2, e2, records, 2);
    RegisterCut(v, want_incl, pos, records[1]);
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
        [pivot](T v) { return v <= pivot; }, max_writes, &job->left,
        &job->right);
  } else {
    writes = internal::PartialPartition2(
        raw_values_, raw_oids_, &lo, &hi,
        [pivot](T v) { return v < pivot; }, max_writes, &job->left,
        &job->right);
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
    CutRecord records[3];  // at begin, at the job's cut, at end
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
      records[0] = RecordAtLocked(begin);
      records[2] = RecordAtLocked(end);
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
        // The frontiers folded every row of the piece into the two parts.
        const PartReduction parts[2] = {job.left, job.right};
        RecordCuts(records[0], records[2], parts, 2, records);
        NoteEdgeRecords(begin, end, records, 2);
        RegisterCut(job.pivot, job.want_incl, job.lo, records[1]);
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
  CutRecord records[4];  // at begin, at the two cuts, at end
  bool outer = false;    // the column's first pass: records 0 and n too
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
    records[0] = RecordAtLocked(begin);
    records[3] = RecordAtLocked(end);
    outer = !edges_recorded_;
  }
  Crack3Split split = CrackInThree(raw_values_ + begin, raw_oids_ + begin,
                                   end - begin, lo, lo_incl, hi, hi_incl,
                                   outer);
  *cut_lo = begin + split.first;
  *cut_hi = begin + split.second;
  const size_t cuts[] = {*cut_lo, *cut_hi};
  ChargeCrack(begin, end, split.writes, cuts, 2, stats);
  RecordCuts(records[0], records[3], split.parts, 3, records);
  std::lock_guard<std::mutex> lk(map_mu_);
  if (outer) NoteEdgeRecords(begin, end, records, 3);
  uint64_t created_clock = clock_;
  if (lo == hi) {
    // Point query: both cuts decorate the same boundary value.
    Bound& b = bounds_[lo];
    if (b.created == 0) b.created = created_clock;
    SetCutSide(&b, /*incl=*/false, *cut_lo, records[1]);
    SetCutSide(&b, /*incl=*/true, *cut_hi, records[2]);
    Touch(&b);
  } else {
    Bound& bl = bounds_[lo];
    if (bl.created == 0) bl.created = created_clock;
    SetCutSide(&bl, /*incl=*/!lo_incl, *cut_lo, records[1]);
    Touch(&bl);
    Bound& bh = bounds_[hi];
    if (bh.created == 0) bh.created = created_clock;
    SetCutSide(&bh, /*incl=*/hi_incl, *cut_hi, records[2]);
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
    // [first, last): the whole pieces between the first and the last
    // record position inside [begin, end); empty when there are none.
    size_t first = end;
    size_t last = end;
    CutRecord from, to;
    {
      std::lock_guard<std::mutex> lk(map_mu_);
      size_t a = n_ + 1;  // none
      if (begin == 0 && edges_recorded_) {
        a = 0;
      } else if (auto it = cut_refs_.lower_bound(begin);
                 it != cut_refs_.end()) {
        a = it->first;
      } else if (edges_recorded_) {
        a = n_;
      }
      size_t b = n_ + 1;
      if (end == n_ && edges_recorded_) {
        b = n_;
      } else if (auto it = cut_refs_.upper_bound(end);
                 it != cut_refs_.begin()) {
        b = std::prev(it)->first;
      } else if (edges_recorded_) {
        b = 0;
      }
      if (a < b && b <= n_) {
        first = a;
        last = b;
        from = RecordAtLocked(first);
        to = RecordAtLocked(last);
      }
    }
    SpanAggregates acc;
    acc.min_i = std::numeric_limits<T>::max();
    acc.max_i = std::numeric_limits<T>::min();
    const SpanAggregates head = AggregateSpan(raw_values_ + begin,
                                              first - begin);
    FoldInto(&acc, head.count, head.sum_i, head.min_i, head.max_i);
    FoldInto(&acc, last - first,
             static_cast<int64_t>(static_cast<uint64_t>(to.prefix) -
                                  static_cast<uint64_t>(from.prefix)),
             from.min_after, to.max_before);
    const SpanAggregates tail = AggregateSpan(raw_values_ + last, end - last);
    FoldInto(&acc, tail.count, tail.sum_i, tail.min_i, tail.max_i);
    if (rows_read != nullptr) *rows_read = (first - begin) + (end - last);
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
  // The records of the cuts that stay are untouched: each describes its own
  // position, not its neighbours.
  if (it->second.has_excl) DropCutRef(it->second.pos_excl);
  if (it->second.has_incl) DropCutRef(it->second.pos_incl);
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
  // Each test passes a NaN only right of the bound, where kernels put it.
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
        if (!(d[i] <= value)) {
          return Status::Internal(StrFormat(
              "incl bound violated at index %zu (pos_incl=%zu)", i,
              b.pos_incl));
        }
      }
      for (size_t i = b.pos_incl; i < n_; ++i) {
        if (d[i] <= value) {
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
  if constexpr (std::is_integral_v<T>) {
    // Every record against the data: P(p) and the max of [0, p) in one
    // forward pass, the min of [p, n) in one backward pass.
    std::vector<std::pair<size_t, CutRecord>> records;
    if (edges_recorded_) records.push_back({0, edge_records_[0]});
    for (const auto& [pos, ref] : cut_refs_) {
      records.push_back({pos, ref.record});
    }
    if (edges_recorded_) records.push_back({n_, edge_records_[1]});
    uint64_t sum = 0;
    int64_t mx = std::numeric_limits<int64_t>::min();
    size_t i = 0;
    for (const auto& [pos, rec] : records) {
      for (; i < pos; ++i) {
        sum += static_cast<uint64_t>(static_cast<int64_t>(d[i]));
        mx = std::max(mx, static_cast<int64_t>(d[i]));
      }
      if (rec.prefix != static_cast<int64_t>(sum) || rec.max_before != mx) {
        return Status::Internal(
            StrFormat("stale prefix or max in the record at %zu", pos));
      }
    }
    int64_t mn = std::numeric_limits<int64_t>::max();
    i = n_;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      for (; i > it->first; --i) {
        mn = std::min(mn, static_cast<int64_t>(d[i - 1]));
      }
      if (it->second.min_after != mn) {
        return Status::Internal(
            StrFormat("stale min in the record at %zu", it->first));
      }
    }
  }
  return Status::OK();
}

template class CrackerIndex<int32_t>;
template class CrackerIndex<int64_t>;
template class CrackerIndex<double>;

}  // namespace crackstore
