// Copyright 2026 The CrackStore Authors
//
// Piece fusion heuristics (paper §3.2/§7): "the cracker index grows quickly
// and becomes the target of a resource management challenge... Fusion of
// pieces becomes a necessity, but which heuristic works best remains an open
// issue." A MergeBudget caps the number of registered boundaries per column;
// when exceeded, a policy picks victims to drop. Dropping a boundary moves
// no data — it only forgets navigation knowledge, so future queries over the
// fused region pay scan+crack cost again. The ablation bench compares the
// policies.

#ifndef CRACKSTORE_CORE_MERGE_POLICY_H_
#define CRACKSTORE_CORE_MERGE_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cracker_index.h"
#include "obs/query_stats.h"

namespace crackstore {

/// Victim-selection heuristics for piece fusion.
enum class MergePolicyKind : uint8_t {
  kNone = 0,             ///< unlimited index growth (paper's default)
  kLeastRecentlyUsed,    ///< drop the boundary untouched the longest
  kOldestFirst,          ///< drop the earliest-created boundary (FIFO)
  kSmallestPieces,       ///< drop the boundary separating the two smallest
                         ///< adjacent pieces (keeps big cuts, fuses crumbs)
};

const char* MergePolicyKindName(MergePolicyKind kind);

/// Parses "none", "lru", "fifo", "smallest"; falls back to kNone.
MergePolicyKind MergePolicyKindFromString(const std::string& s);

/// A budget on boundaries per cracker index plus the fusion policy applied
/// when it overflows.
struct MergeBudget {
  MergePolicyKind kind = MergePolicyKind::kNone;
  size_t max_bounds = 0;  ///< 0 = unlimited

  bool unlimited() const {
    return kind == MergePolicyKind::kNone || max_bounds == 0;
  }
};

/// When an access path's pending write deltas (inserts, tombstones) fold
/// back into the accelerator. Orthogonal to the boundary-fusion MergeBudget
/// above: that one forgets navigation knowledge, this one moves delta data.
/// One step decides, for serial and concurrent stores alike: the store polls
/// the column (ColumnAccessPath::WantsMaintenance) before each read of it
/// and after each statement that wrote to it, and a due fold runs there
/// (FlushDeltas) under the exclusive column latch.
enum class DeltaMergePolicy : uint8_t {
  kImmediate = 0,  ///< fold whenever a delta is pending: once at the end of
                   ///< each writing statement (writes pay)
  kThreshold = 1,  ///< fold when the delta outgrows a fraction of the
                   ///< accelerator, after a write or before a read
                   ///< (amortized; reads filter small deltas)
  kRippleOnSelect = 2,  ///< writes never fold; the next read of the column
                        ///< folds the delta before answering (first read
                        ///< pays)
};

const char* DeltaMergePolicyName(DeltaMergePolicy policy);

/// Parses "immediate", "threshold", "ripple"; false on anything else.
bool ParseDeltaMergePolicy(const std::string& s, DeltaMergePolicy* out);

/// Per-column delta-merge configuration.
struct DeltaMergeOptions {
  DeltaMergePolicy policy = DeltaMergePolicy::kThreshold;
  /// kThreshold: fold once pending inserts + tombstones exceed this
  /// fraction of the accelerator's tuple count; 0 folds after every write.
  double threshold_fraction = 0.1;
};

namespace internal {

/// For kSmallestPieces: the combined size of the pieces adjacent to the cut
/// positions of boundary `value`.
template <typename T>
uint64_t AdjacentPieceMass(const std::vector<CrackPiece<T>>& pieces, T value,
                           const CrackBound<T>& bound) {
  uint64_t mass = 0;
  auto count_at = [&pieces, &mass](size_t pos) {
    for (const auto& p : pieces) {
      if (p.end == pos || p.begin == pos) mass += p.size();
    }
  };
  (void)value;
  if (bound.has_excl) count_at(bound.pos_excl);
  if (bound.has_incl && (!bound.has_excl || bound.pos_incl != bound.pos_excl)) {
    count_at(bound.pos_incl);
  }
  return mass;
}

}  // namespace internal

/// Enforces `budget` on `index`, removing boundaries until it fits. Returns
/// the number of boundaries dropped (each drop fuses pieces, no data moves).
template <typename T>
size_t EnforceMergeBudget(CrackerIndex<T>* index, const MergeBudget& budget,
                          IoStats* stats = nullptr) {
  if (budget.unlimited()) return 0;
  size_t dropped = 0;
  while (index->num_bounds() > budget.max_bounds) {
    std::vector<CrackBound<T>> bounds = index->Bounds();
    CRACK_DCHECK(!bounds.empty());
    size_t victim = 0;
    switch (budget.kind) {
      case MergePolicyKind::kNone:
        return dropped;  // unreachable given unlimited() check
      case MergePolicyKind::kLeastRecentlyUsed: {
        uint64_t best = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < bounds.size(); ++i) {
          if (bounds[i].last_used < best) {
            best = bounds[i].last_used;
            victim = i;
          }
        }
        break;
      }
      case MergePolicyKind::kOldestFirst: {
        uint64_t best = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < bounds.size(); ++i) {
          if (bounds[i].created < best) {
            best = bounds[i].created;
            victim = i;
          }
        }
        break;
      }
      case MergePolicyKind::kSmallestPieces: {
        std::vector<CrackPiece<T>> pieces = index->Pieces();
        uint64_t best = std::numeric_limits<uint64_t>::max();
        for (size_t i = 0; i < bounds.size(); ++i) {
          uint64_t mass =
              internal::AdjacentPieceMass(pieces, bounds[i].value, bounds[i]);
          if (mass < best) {
            best = mass;
            victim = i;
          }
        }
        break;
      }
    }
    Status st = index->RemoveBound(bounds[victim].value);
    CRACK_DCHECK(st.ok());
    ++dropped;
    if (stats != nullptr) ++stats->catalog_ops;
  }
  return dropped;
}

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_MERGE_POLICY_H_
