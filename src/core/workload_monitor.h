// Copyright 2026 The CrackStore Authors
//
// Per-column workload detector: a small ring of recent predicate bounds
// that classifies the query pattern a column is seeing. Halim et al.
// ("Stochastic Database Cracking", VLDB 2012) show the standard policy is
// fragile exactly when the bounds are not independently random — sequential
// sweeps and clustered (skewed) workloads keep shaving slivers off one huge
// piece. The detector reduces each query to one scalar sample (the midpoint
// of its clamped range) and classifies the recent window by two cheap
// statistics:
//
//   * monotone run fraction — the fraction of consecutive deltas sharing
//     the majority sign. Near 1.0 for sequential sweeps.
//   * bound locality — the fraction of deltas small relative to the
//     all-time value span. Near 1.0 for skewed/clustered workloads that
//     hammer one region.
//
// CrackPolicyEngine (core/crack_policy.h) feeds the classification into
// CrackPolicy::kAuto: random patterns run the standard policy (query-bound
// pivots make maximal progress), sequential/skewed patterns run the
// stochastic policy (random auxiliary pivots defeat the sliver pathology).

#ifndef CRACKSTORE_CORE_WORKLOAD_MONITOR_H_
#define CRACKSTORE_CORE_WORKLOAD_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crackstore {

/// What the recent predicate-bound window looks like.
enum class WorkloadPattern : uint8_t {
  kUnknown = 0,     ///< too few samples to say
  kRandom = 1,      ///< bounds jump around the domain independently
  kSequential = 2,  ///< bounds sweep monotonically (cursor-style)
  kSkewed = 3,      ///< bounds cluster in a small region of the domain
};

const char* WorkloadPatternName(WorkloadPattern pattern);

struct WorkloadMonitorOptions {
  /// Ring capacity: how many recent queries the classifier looks at.
  size_t window = 32;
  /// Below this many samples the pattern stays kUnknown.
  size_t min_samples = 6;
  /// Fraction of deltas sharing the majority sign at or above which the
  /// window is called sequential.
  double monotone_threshold = 0.8;
  /// Fraction of "local" deltas at or above which the window is called
  /// skewed.
  double locality_threshold = 0.7;
  /// A delta is "local" when |delta| <= locality_fraction * all-time span.
  double locality_fraction = 0.125;
};

/// See file comment. Not internally synchronized: callers serialize Record
/// and Classify (CrackPolicyEngine guards it with the access path's engine
/// mutex).
class WorkloadMonitor {
 public:
  explicit WorkloadMonitor(WorkloadMonitorOptions options = {});

  /// Feeds one query's sample (the midpoint of its clamped predicate
  /// range).
  void Record(double sample);

  /// Classifies the current window. kUnknown below min_samples.
  WorkloadPattern Classify() const;

  /// Total samples ever recorded (not capped by the window).
  uint64_t samples() const { return total_; }

  /// Drops all state (runtime policy reset).
  void Reset();

 private:
  WorkloadMonitorOptions options_;
  std::vector<double> ring_;  ///< capacity options_.window
  size_t head_ = 0;           ///< next write slot
  size_t count_ = 0;          ///< live entries, <= window
  uint64_t total_ = 0;
  /// All-time value span (not window-local): the yardstick that makes the
  /// locality statistic meaningful once a sweep has covered the domain.
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_WORKLOAD_MONITOR_H_
