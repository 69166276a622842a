// Copyright 2026 The CrackStore Authors
//
// Cracking policies: *where* a query's advice places pivots, and *how much*
// reorganization a query may perform. The source paper always cracks
// exactly at the query bounds, which Halim et al. ("Stochastic Database
// Cracking", VLDB 2012) show is fragile: sequential or skewed workloads
// keep cutting slivers off one huge piece and every query degenerates to a
// near-full scan. The cure is to decouple the pivot choice from the query
// bounds:
//
//   * kStandard    — pivots are the query bounds (the CIDR'05 behavior);
//   * kStochastic  — DDC-style: before cutting at a bound that lands in a
//     large piece, crack that piece at randomly drawn elements until the
//     enclosing piece is small, so progress is made regardless of the
//     workload pattern;
//   * kCoarse      — DD1C-style: pieces at or below a size threshold are
//     never cracked further; queries whose bounds land inside such a piece
//     filter it instead. Caps the piece table (and its administration) at a
//     granularity of the caller's choosing;
//   * kAuto        — self-driving: a per-column workload detector
//     (core/workload_monitor.h) classifies the recent predicate pattern and
//     switches the *effective* policy at runtime — standard for random
//     workloads (where it wins the ablation), stochastic for sequential/
//     skewed ones (where query-bound pivots degenerate). Switches are
//     plain atomic stores riding the shared-latch path: no stop-the-world;
//   * kProgressive — budgeted partial cracking: each query's reorganization
//     is bounded to `progressive_budget` × the touched piece's size. The
//     partition frontier is carried over per piece and completed
//     incrementally by later queries, turning the brutal first-query crack
//     spikes into a smooth tail-latency curve.
//
// The policy is orthogonal to the access strategy: any ColumnAccessPath of
// kind kCrack can run any policy (core/access_path.h composes the two).

#ifndef CRACKSTORE_CORE_CRACK_POLICY_H_
#define CRACKSTORE_CORE_CRACK_POLICY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/workload_monitor.h"
#include "util/rng.h"

namespace crackstore {

/// Pivot-choice discipline of a cracked column. See file comment.
enum class CrackPolicy : uint8_t {
  kStandard = 0,     ///< pivot = query bound (CIDR'05)
  kStochastic = 1,   ///< random auxiliary pivots in large touched pieces (DDC)
  kCoarse = 2,       ///< stop cracking below a piece-size threshold (DD1C)
  kAuto = 3,         ///< workload detector picks standard/stochastic live
  kProgressive = 4,  ///< budgeted partial cracks, frontier carried per piece
};

const char* CrackPolicyName(CrackPolicy policy);

/// Parses a policy name ("standard", "stochastic", "coarse", "auto",
/// "progressive") or research alias ("ddc" -> stochastic, "dd1c" ->
/// coarse) into `*out`. Returns false (leaving `*out` untouched) for
/// anything else.
bool ParseCrackPolicy(const std::string& s, CrackPolicy* out);

/// Lenient variant: falls back to kStandard on unknown input.
CrackPolicy CrackPolicyFromString(const std::string& s);

/// A policy plus its tuning knobs.
struct CrackPolicyOptions {
  CrackPolicy policy = CrackPolicy::kStandard;
  /// kStochastic: auxiliary pivots are drawn until the piece enclosing the
  /// query bound is at or below this size. kCoarse: pieces at or below this
  /// size are never cracked (their queries filter instead). Ignored by
  /// kStandard.
  size_t min_piece_size = 1024;
  /// Seed of the deterministic pivot stream (kStochastic only).
  uint64_t seed = 20120101;
  /// kProgressive: a query may spend at most this fraction of the touched
  /// piece's size in partition writes (subject to a small absolute floor so
  /// tiny pieces still converge). Ignored by the other policies.
  double progressive_budget = 0.1;
  /// kAuto: detector tuning.
  WorkloadMonitorOptions monitor;
};

/// The per-column decision engine behind a CrackPolicyOptions: answers
/// "crack this piece?" / "inject a random pivot first?", owns the
/// deterministic pivot stream, and — under kAuto — owns the workload
/// detector that steers the effective policy at runtime. One instance per
/// access path, so two columns with the same seed draw identical pivot
/// sequences.
///
/// Thread contract: Observe / DrawSlot / Reset mutate state and must be
/// serialized by the caller (the access path holds its engine mutex).
/// effective / ShouldCrack / WantsAuxiliaryPivot / pattern / switches are
/// lock-free atomic reads, safe from any thread while a switch lands.
class CrackPolicyEngine {
 public:
  explicit CrackPolicyEngine(CrackPolicyOptions options)
      : options_(options),
        rng_(options.seed),
        monitor_(options.monitor),
        effective_(InitialEffective(options.policy)) {}

  const CrackPolicyOptions& options() const { return options_; }

  /// The configured policy (what the user asked for; kAuto stays kAuto).
  CrackPolicy policy() const { return options_.policy; }

  /// The policy decisions are currently made under: the configured policy,
  /// except under kAuto where the detector steers it live.
  CrackPolicy effective() const {
    return effective_.load(std::memory_order_relaxed);
  }

  /// kCoarse: may a piece of `piece_size` tuples be cracked at all?
  bool ShouldCrack(size_t piece_size) const {
    return effective() != CrackPolicy::kCoarse ||
           piece_size > options_.min_piece_size;
  }

  /// kStochastic: does a piece of `piece_size` tuples still warrant an
  /// auxiliary random pivot before the query-bound cut?
  bool WantsAuxiliaryPivot(size_t piece_size) const {
    return effective() == CrackPolicy::kStochastic &&
           piece_size > options_.min_piece_size;
  }

  /// Draws a slot uniformly from [begin, end); the element there becomes
  /// the auxiliary pivot.
  size_t DrawSlot(size_t begin, size_t end) {
    CRACK_DCHECK(begin < end);
    return begin + static_cast<size_t>(rng_.NextInRange(
                       0, static_cast<int64_t>(end - begin - 1)));
  }

  /// kAuto: feeds one query's predicate sample (the clamped range
  /// midpoint) to the detector and, when a reclassification is confirmed,
  /// switches the effective policy. No-op under the other policies.
  void Observe(double sample);

  /// The detector's current classification (kUnknown unless kAuto).
  WorkloadPattern pattern() const {
    return pattern_.load(std::memory_order_relaxed);
  }

  /// Runtime policy switches performed so far (kAuto).
  uint64_t switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

  /// Queries the detector has seen (kAuto).
  uint64_t observed_samples() const {
    return observed_.load(std::memory_order_relaxed);
  }

  /// Re-arms the engine with fresh options (runtime SET POLICY): resets the
  /// pivot stream, the detector, and the switch count.
  void Reset(const CrackPolicyOptions& options);

 private:
  /// kAuto starts out stochastic: the robust prior — near-optimal on
  /// sequential/skewed workloads and only mildly more expensive than
  /// standard on random ones, so the few queries before the detector has
  /// enough samples are never catastrophic.
  static CrackPolicy InitialEffective(CrackPolicy configured) {
    return configured == CrackPolicy::kAuto ? CrackPolicy::kStochastic
                                            : configured;
  }

  CrackPolicyOptions options_;
  Pcg32 rng_;
  WorkloadMonitor monitor_;
  std::atomic<CrackPolicy> effective_;
  std::atomic<WorkloadPattern> pattern_{WorkloadPattern::kUnknown};
  std::atomic<uint64_t> switches_{0};
  std::atomic<uint64_t> observed_{0};
  /// Hysteresis: a disagreeing classification must repeat this many times
  /// in a row before the switch lands (spurious flips churn the rng-free
  /// fast path for nothing).
  static constexpr int kConfirmStreak = 2;
  CrackPolicy pending_target_ = CrackPolicy::kStandard;
  int streak_ = 0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_CRACK_POLICY_H_
