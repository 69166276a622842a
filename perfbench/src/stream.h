// Copyright 2026 The CrackStore Authors
//
// Workload streams of the end-to-end SQL benchmark. A stream is a fixed
// list of operations per client, generated from a seed together with the
// answer every statement must return. Per-statement cost in a cracking
// store depends on how many statements came before, so a run replays the
// whole stream on a freshly loaded store instead of running for a fixed
// time, and every replay of one seed does the same work.

#ifndef CRACKBENCH_STREAM_H_
#define CRACKBENCH_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace crackbench {

enum class Workload { kZoom, kMultiAttr, kHtap, kConcurrent };

const char* WorkloadName(Workload w);
/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);

/// Statement shapes, the unit of the traced run's per-kind report.
enum class Kind : uint8_t {
  kCount,         ///< COUNT(*), one range predicate
  kAgg,           ///< SUM/MIN/MAX of the predicated column (pushdown)
  kProject,       ///< SELECT c, d with one range predicate
  kConjCount,     ///< COUNT(*) over a two-column conjunction
  kConjProject,   ///< SELECT c, d over a two-column conjunction
  kCrossSum,      ///< SUM of a column other than the predicated one
  kHalfOpenCount, ///< COUNT(*) WHERE c >= a AND c < b
  kHalfOpenSum,   ///< SUM(c) WHERE c >= a AND c < b
  kTotal,         ///< WHERE-less COUNT(*) or SUM (state checks)
  kBegin,
  kInsert,
  kUpdate,
  kDelete,
  kCommit,
  kNumKinds,
};

const char* KindName(Kind k);

/// One SQL statement and the answer it must produce: `count` is what
/// QueryOutput::count reports (COUNT(*), rows returned, rows affected, 1
/// for an aggregate); `value` is the aggregate, or for projections an
/// order-independent checksum of the returned rows (RowChecksum).
struct Statement {
  std::string sql;
  Kind kind = Kind::kCount;
  uint64_t count = 0;
  int64_t value = 0;
  bool has_value = false;  ///< `value` is checked (aggregates, projections)
};

/// One operation: a read statement, or a whole write transaction
/// (BEGIN, 1-4 DML statements, COMMIT), timed as one unit.
struct Op {
  bool write = false;
  std::vector<Statement> stmts;
};

/// Sizes of one run. Defaults are the measured configuration; smoke mode
/// shrinks them so that every workload finishes in about a second.
struct Config {
  Workload workload = Workload::kZoom;
  uint64_t seed = 1;
  uint64_t rows = 0;       ///< table cardinality N
  size_t ops = 0;          ///< operations per client
  size_t clients = 1;      ///< concurrent sessions (threads)
  size_t probe_txns = 0;   ///< write probe after a read-only stream
  bool durable = false;    ///< WAL-backed store (fsync off)
  bool concurrent = false; ///< DbOptions::concurrent
};

/// The measured configuration of `w` (smoke = tiny sizes).
Config DefaultConfig(Workload w, uint64_t seed, bool smoke);

/// The raw table: four int64 columns c0..c3, each a permutation of 1..N.
struct Data {
  std::vector<std::vector<int64_t>> cols;
  size_t rows() const { return cols.empty() ? 0 : cols[0].size(); }
};

Data GenerateData(const Config& config);

struct Stream {
  std::vector<std::vector<Op>> sessions;  ///< one op list per client
  /// Write transactions run after a read-only stream (see README).
  std::vector<Op> probe;
  /// Whole-table checks run after the stream (and after a reopen).
  std::vector<Statement> final_checks;
  uint64_t hash = 0;  ///< FNV-1a over every statement's SQL
  size_t kind_counts[static_cast<size_t>(Kind::kNumKinds)] = {};
};

Stream GenerateStream(const Config& config, const Data& data);

/// Order-independent checksum of one projected row; a projection's
/// checksum is the wrapping sum over its rows.
inline uint64_t RowChecksum(const int64_t* values, size_t n) {
  uint64_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    h += static_cast<uint64_t>(values[i]) * (0x9E3779B97F4A7C15ULL + 2 * i);
    h ^= h >> 29;
  }
  return h;
}

}  // namespace crackbench

#endif  // CRACKBENCH_STREAM_H_
