// Copyright 2026 The CrackStore Authors

#include "core/txn_manager.h"

#include <algorithm>

#include "core/simd_dispatch.h"
#include "obs/instruments.h"
#include "util/string_util.h"

namespace crackstore {

// --- SnapshotView -----------------------------------------------------------

SnapshotView SnapshotView::WithOverrides(
    std::vector<std::pair<Oid, Value>> overrides) const {
  SnapshotView out;
  out.snap_ = snap_;
  out.table_ = table_;
  out.horizon_ = horizon_;
  out.all_below_horizon_visible_ = all_below_horizon_visible_;
  out.overrides_ = std::move(overrides);
  for (const auto& [oid, value] : out.overrides_) {
    out.overridden_.insert(oid);
  }
  return out;
}

bool SnapshotView::RowVisible(Oid oid) const {
  if (!active()) return true;
  // Rows appended after the view opened postdate the snapshot even before
  // their insert stamp is observable.
  if (oid >= horizon_) {
    obs::RecordSnapshotFiltered(1);
    return false;
  }
  if (all_below_horizon_visible_) return true;
  std::shared_lock<std::shared_mutex> lock(table_->mu_);
  if (!table_->marks_.Test(oid)) return true;
  obs::RecordVersionProbes(1);
  bool visible = table_->MarkedRowVisibleLocked(oid, snap_);
  if (!visible) obs::RecordSnapshotFiltered(1);
  return visible;
}

bool SnapshotView::Hides(Oid oid) const {
  if (!active()) return false;
  if (oid >= horizon_) {
    obs::RecordSnapshotFiltered(1);
    return true;
  }
  if (all_below_horizon_visible_ && overridden_.empty()) return false;
  std::shared_lock<std::shared_mutex> lock(table_->mu_);
  if (!table_->marks_.Test(oid)) return false;
  obs::RecordVersionProbes(1);
  if (overridden_.count(oid) > 0) return true;
  if (all_below_horizon_visible_) return false;
  bool visible = table_->MarkedRowVisibleLocked(oid, snap_);
  if (!visible) obs::RecordSnapshotFiltered(1);
  return !visible;
}

namespace {

/// Sets bit i of `bm` (BitmapWords(n) words) iff keep(oids[i]), one word
/// assembled in a register at a time.
template <typename Keep>
void FillMask(const Oid* oids, size_t n, uint64_t* bm, Keep&& keep) {
  for (size_t w = 0; w < BitmapWords(n); ++w) {
    const size_t first = w << 6;
    const size_t m = std::min<size_t>(64, n - first);
    uint64_t word = 0;
    for (size_t j = 0; j < m; ++j) {
      word |= uint64_t(keep(oids[first + j])) << j;
    }
    bm[w] = word;
  }
}

}  // namespace

void SnapshotView::VisibleMask(const Oid* oids, size_t n, uint64_t* bm) const {
  if (!active()) {
    BitmapFill(bm, n);
    return;
  }
  const Oid horizon = horizon_;
  if (all_below_horizon_visible_ && overridden_.empty()) {
    FillMask(oids, n, bm, [horizon](Oid oid) { return oid < horizon; });
    return;
  }
  // One shared latch acquisition for the whole batch (the per-row Hides()
  // path re-locks per probe). An unmarked oid below the horizon is visible
  // with its physical value; the first pass settles those, the second
  // sends the marked ones on to the override set and the version maps.
  std::shared_lock<std::shared_mutex> lock(table_->mu_);
  const OidBitTable& marks = table_->marks_;
  FillMask(oids, n, bm, [horizon, &marks](Oid oid) {
    return oid < horizon && !marks.Test(oid);
  });
  uint64_t probes = 0;
  for (size_t w = 0; w < BitmapWords(n); ++w) {
    const size_t left = n - (w << 6);
    uint64_t rest = ~bm[w];
    if (left < 64) rest &= (uint64_t{1} << left) - 1;
    for (; rest != 0; rest &= rest - 1) {
      const size_t i = (w << 6) + size_t(__builtin_ctzll(rest));
      const Oid oid = oids[i];
      if (oid >= horizon) continue;
      ++probes;
      if (overridden_.count(oid) == 0 &&
          (all_below_horizon_visible_ ||
           table_->MarkedRowVisibleLocked(oid, snap_))) {
        BitmapSet(bm, i);
      }
    }
  }
  obs::RecordVersionProbes(probes);
  obs::RecordSnapshotFiltered(n - BitmapCount(bm, n));
}

void SnapshotView::VisibleRangeMask(Oid first, size_t n, uint64_t* bm) const {
  if (!active()) {
    BitmapFill(bm, n);
    return;
  }
  // Contiguous oids against a horizon: a single clip point.
  size_t visible =
      first >= horizon_ ? 0 : std::min<size_t>(n, size_t(horizon_ - first));
  BitmapFill(bm, visible);
  for (size_t w = BitmapWords(visible); w < BitmapWords(n); ++w) bm[w] = 0;
  if (!all_below_horizon_visible_ || !overridden_.empty()) {
    std::shared_lock<std::shared_mutex> lock(table_->mu_);
    uint64_t probes = 0;
    table_->marks_.ForEachIn(first, visible, [&](size_t i) {
      ++probes;
      Oid oid = first + i;
      bool ok = overridden_.count(oid) == 0 &&
                (all_below_horizon_visible_ ||
                 table_->MarkedRowVisibleLocked(oid, snap_));
      if (!ok) BitmapClearBit(bm, i);
    });
    obs::RecordVersionProbes(probes);
  }
  obs::RecordSnapshotFiltered(n - BitmapCount(bm, n));
}

const Value* SnapshotView::OverrideFor(Oid oid) const {
  if (!active() || overridden_.count(oid) == 0) return nullptr;
  for (const auto& [o, value] : overrides_) {
    if (o == oid) {
      obs::RecordSnapshotOverride(1);
      return &value;
    }
  }
  return nullptr;
}

// --- VersionedTable ---------------------------------------------------------

void VersionedTable::NoteInsert(Oid oid, Ts stamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A re-used oid can only come from a failed physical append whose stamp
  // was rolled back (or vacuumed): reset the slot wholesale.
  purged_.erase(oid);
  if (rows_.count(oid) == 0) {
    obs::AddVersionRows(1);
    marks_.Set(oid);
  }
  RowVersion v;
  v.begin = stamp;
  v.write_ts = IsTxnStamp(stamp) ? 0 : stamp;
  rows_[oid] = v;
  if (oid >= horizon_) horizon_ = oid + 1;
}

VersionedTable::Admission VersionedTable::AdmitWrite(
    Oid oid, const Snapshot& snap, TxnId writer,
    std::string* conflict_detail) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (purged_.count(oid) > 0) return Admission::kSkip;
  auto it = rows_.find(oid);
  if (it == rows_.end()) {
    if (oid >= horizon_) return Admission::kSkip;  // row postdates everything
    RowVersion v;
    v.writer = writer;
    rows_.emplace(oid, v);
    obs::AddVersionRows(1);
    marks_.Set(oid);
    return Admission::kOk;
  }
  RowVersion& v = it->second;
  if (v.writer != kNoTxn && v.writer != writer) {
    if (conflict_detail != nullptr) {
      *conflict_detail = StrFormat(
          "row %llu is write-locked by txn %llu",
          static_cast<unsigned long long>(oid),
          static_cast<unsigned long long>(v.writer));
    }
    obs::RecordTxnConflict();
    return Admission::kConflict;
  }
  if (!v.VisibleTo(snap)) return Admission::kSkip;
  if (v.write_ts > snap.read_ts) {
    // A competing transaction committed a write to this row after our
    // snapshot: first committer wins, the later one must abort.
    if (conflict_detail != nullptr) {
      *conflict_detail = StrFormat(
          "row %llu was committed by ts %llu after snapshot ts %llu",
          static_cast<unsigned long long>(oid),
          static_cast<unsigned long long>(v.write_ts),
          static_cast<unsigned long long>(snap.read_ts));
    }
    obs::RecordTxnConflict();
    return Admission::kConflict;
  }
  v.writer = writer;
  return Admission::kOk;
}

void VersionedTable::StampDelete(Oid oid, Ts stamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (rows_.count(oid) == 0) {
    obs::AddVersionRows(1);
    marks_.Set(oid);
  }
  RowVersion& v = rows_[oid];
  v.end = stamp;
  if (!IsTxnStamp(stamp)) {
    v.write_ts = std::max(v.write_ts, stamp);
    v.writer = kNoTxn;
  }
}

void VersionedTable::StampUpdate(Oid oid, const std::string& column,
                                 Value old_value, Ts stamp) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  chains_[column][oid].push_back(ValueVersion{std::move(old_value), stamp});
  obs::AddVersionChainEntries(1);
  marks_.Set(oid);
  if (!IsTxnStamp(stamp)) {
    if (rows_.count(oid) == 0) obs::AddVersionRows(1);
    RowVersion& v = rows_[oid];
    v.write_ts = std::max(v.write_ts, stamp);
    v.writer = kNoTxn;
  }
}

void VersionedTable::CommitTxn(TxnId txn, Ts cts,
                               const std::vector<Oid>& touched) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Ts marker = TxnStamp(txn);
  for (Oid oid : touched) {
    auto it = rows_.find(oid);
    if (it == rows_.end()) continue;
    RowVersion& v = it->second;
    if (v.begin == marker) v.begin = cts;
    if (v.end == marker) v.end = cts;
    if (v.writer == txn) {
      v.writer = kNoTxn;
      v.write_ts = std::max(v.write_ts, cts);
    }
  }
  for (auto& [column, per_oid] : chains_) {
    for (Oid oid : touched) {
      auto it = per_oid.find(oid);
      if (it == per_oid.end()) continue;
      for (ValueVersion& vv : it->second) {
        if (vv.end == marker) vv.end = cts;
      }
    }
  }
}

void VersionedTable::RollbackTxn(TxnId txn, const std::vector<Oid>& touched) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Ts marker = TxnStamp(txn);
  for (Oid oid : touched) {
    auto it = rows_.find(oid);
    if (it == rows_.end()) continue;
    RowVersion& v = it->second;
    if (v.begin == marker) {
      // The physical row (if the append landed) is garbage: visible to
      // nobody, reclaimed by the next vacuum.
      v.begin = kTsAborted;
      v.end = kTsInfinity;
    }
    if (v.end == marker) v.end = kTsInfinity;
    if (v.writer == txn) v.writer = kNoTxn;
  }
  for (auto& [column, per_oid] : chains_) {
    for (Oid oid : touched) {
      auto it = per_oid.find(oid);
      if (it == per_oid.end()) continue;
      auto& versions = it->second;
      const size_t before = versions.size();
      versions.erase(std::remove_if(versions.begin(), versions.end(),
                                    [marker](const ValueVersion& vv) {
                                      return vv.end == marker;
                                    }),
                     versions.end());
      obs::AddVersionChainEntries(
          -static_cast<int64_t>(before - versions.size()));
      if (versions.empty()) per_oid.erase(it);
    }
  }
}

Status VersionedTable::ValidateWriteSet(const Snapshot& snap, TxnId txn,
                                        const std::vector<Oid>& touched) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (Oid oid : touched) {
    auto it = rows_.find(oid);
    if (it == rows_.end()) continue;
    const RowVersion& v = it->second;
    if (v.write_ts > snap.read_ts && v.writer != txn) {
      return Status::Aborted(StrFormat(
          "write-write conflict on row %llu: committed at ts %llu after "
          "snapshot ts %llu",
          static_cast<unsigned long long>(oid),
          static_cast<unsigned long long>(v.write_ts),
          static_cast<unsigned long long>(snap.read_ts)));
    }
  }
  return Status::OK();
}

SnapshotView VersionedTable::ViewFor(const Snapshot& snap,
                                     const std::string& column,
                                     bool force_active) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  SnapshotView view;
  bool no_state = rows_.empty() && purged_.empty() && chains_.empty();
  if (!force_active && no_state) {
    return view;  // inactive: nothing to hide
  }
  view.snap_ = snap;
  view.table_ = this;
  view.horizon_ = horizon_;
  // Stable for the view's lifetime: any stamp landing after this point
  // either belongs to a row beyond the horizon or carries a commit
  // timestamp past the snapshot — invisible changes at a fixed read_ts.
  view.all_below_horizon_visible_ = no_state;
  auto cit = chains_.find(column);
  if (cit != chains_.end()) {
    for (const auto& [oid, versions] : cit->second) {
      if (versions.empty()) continue;
      // The newest supersession not yet observable means the physical value
      // postdates the snapshot; the value the snapshot reads is the oldest
      // version whose supersession it cannot observe.
      if (StampVisible(versions.back().end, snap)) continue;
      for (const ValueVersion& vv : versions) {
        if (!StampVisible(vv.end, snap)) {
          view.overrides_.emplace_back(oid, vv.value);
          view.overridden_.insert(oid);
          break;
        }
      }
    }
  }
  return view;
}

bool VersionedTable::MarkedRowVisibleLocked(Oid oid,
                                            const Snapshot& snap) const {
  if (purged_.count(oid) > 0) return false;
  auto it = rows_.find(oid);
  if (it == rows_.end()) return oid < horizon_;
  return it->second.VisibleTo(snap);
}

bool VersionedTable::RowVisibleAt(Oid oid, const Snapshot& snap) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return RowVisibleLocked(oid, snap);
}

std::vector<Oid> VersionedTable::InvisibleOids(const Snapshot& snap, Oid base,
                                               size_t rows) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<Oid> out;
  for (Oid oid : purged_) {
    if (oid >= base && oid < base + rows) out.push_back(oid);
  }
  for (const auto& [oid, v] : rows_) {
    if (oid < base || oid >= base + rows) continue;
    if (purged_.count(oid) > 0) continue;
    if (!v.VisibleTo(snap)) out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Oid> VersionedTable::PurgedOids() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<Oid> out(purged_.begin(), purged_.end());
  std::sort(out.begin(), out.end());
  return out;
}

VersionedTable::VacuumResult VersionedTable::Vacuum(Ts low_water) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  VacuumResult result;
  // 1. Superseded values nobody at or above the low-water mark can read.
  for (auto cit = chains_.begin(); cit != chains_.end();) {
    auto& per_oid = cit->second;
    for (auto oit = per_oid.begin(); oit != per_oid.end();) {
      auto& versions = oit->second;
      size_t before = versions.size();
      versions.erase(
          std::remove_if(versions.begin(), versions.end(),
                         [low_water](const ValueVersion& vv) {
                           return !IsTxnStamp(vv.end) &&
                                  vv.end != kTsInfinity && vv.end <= low_water;
                         }),
          versions.end());
      result.chain_entries_dropped += before - versions.size();
      oit = versions.empty() ? per_oid.erase(oit) : std::next(oit);
    }
    cit = per_oid.empty() ? chains_.erase(cit) : std::next(cit);
  }
  // 2. Row stamps. Which oids still hang in a value log?
  std::unordered_set<Oid> chained;
  for (const auto& [column, per_oid] : chains_) {
    for (const auto& [oid, versions] : per_oid) chained.insert(oid);
  }
  for (auto it = rows_.begin(); it != rows_.end();) {
    const RowVersion& v = it->second;
    if (v.writer != kNoTxn || IsTxnStamp(v.end) ||
        (IsTxnStamp(v.begin) && v.begin != kTsAborted)) {
      ++it;  // an open transaction still owns a stamp here
      continue;
    }
    bool aborted_insert = v.begin == kTsAborted;
    bool dead_to_all =
        v.end != kTsInfinity && !IsTxnStamp(v.end) && v.end <= low_water;
    if (aborted_insert || dead_to_all) {
      result.purged.push_back(it->first);
      purged_.insert(it->first);
      it = rows_.erase(it);
      continue;
    }
    bool fully_visible = v.begin <= low_water && v.end == kTsInfinity &&
                         v.write_ts <= low_water &&
                         chained.count(it->first) == 0;
    if (fully_visible) {
      ++result.versions_dropped;
      it = rows_.erase(it);
      continue;
    }
    ++it;
  }
  // 3. Re-mark exactly the oids that still have an entry.
  marks_.ClearAll();
  for (const auto& [oid, v] : rows_) marks_.Set(oid);
  for (Oid oid : purged_) marks_.Set(oid);
  for (Oid oid : chained) marks_.Set(oid);
  std::sort(result.purged.begin(), result.purged.end());
  obs::AddVersionChainEntries(
      -static_cast<int64_t>(result.chain_entries_dropped));
  obs::AddVersionRows(-static_cast<int64_t>(result.purged.size() +
                                            result.versions_dropped));
  obs::RecordVacuum(result.purged.size() + result.versions_dropped);
  return result;
}

VersionedTable::Counts VersionedTable::counts() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Counts c;
  c.row_versions = rows_.size();
  c.purged = purged_.size();
  for (const auto& [column, per_oid] : chains_) {
    for (const auto& [oid, versions] : per_oid) {
      c.chain_entries += versions.size();
    }
  }
  return c;
}

bool VersionedTable::empty() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rows_.empty() && purged_.empty() && chains_.empty();
}

Oid VersionedTable::horizon() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return horizon_;
}

// --- TxnManager -------------------------------------------------------------

Snapshot TxnManager::LatestSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Snapshot{next_ts_ - 1, kNoTxn};
}

TxnId TxnManager::Begin() {
  std::lock_guard<std::mutex> lock(mu_);
  TxnId txn = next_txn_++;
  active_.emplace(txn, next_ts_ - 1);
  obs::RecordTxnBegin();
  return txn;
}

Result<Snapshot> TxnManager::SnapshotOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::NotFound(
        StrFormat("no active transaction %llu",
                  static_cast<unsigned long long>(txn)));
  }
  return Snapshot{it->second, txn};
}

bool TxnManager::IsActive(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.count(txn) > 0;
}

Result<Ts> TxnManager::FinishCommit(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(txn);
  if (it == active_.end()) {
    return Status::NotFound(
        StrFormat("no active transaction %llu",
                  static_cast<unsigned long long>(txn)));
  }
  active_.erase(it);
  obs::RecordTxnCommit();
  return next_ts_++;
}

Status TxnManager::FinishRollback(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_.erase(txn) == 0) {
    return Status::NotFound(
        StrFormat("no active transaction %llu",
                  static_cast<unsigned long long>(txn)));
  }
  obs::RecordTxnAbort();
  return Status::OK();
}

Ts TxnManager::low_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  Ts low = next_ts_ - 1;
  for (const auto& [txn, read_ts] : active_) low = std::min(low, read_ts);
  return low;
}

Ts TxnManager::last_commit_ts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ts_ - 1;
}

size_t TxnManager::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

}  // namespace crackstore
