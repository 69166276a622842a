// Copyright 2026 The CrackStore Authors
//
// One replay ("rep") of a workload stream on a freshly loaded store: load,
// stream, write probe, state checks, and for durable stores Close and a
// timed reopen. A rep runs in one of three modes:
//
//   kSql        every statement through sql::SqlSession::ExecuteSql, the
//               user's path; end-to-end numbers come only from this mode.
//   kSqlTraced  the same, with ParseStatement and Execute timed apart,
//               spans kept in memory and the metrics registry read around
//               the stream.
//   kCore       the core replay: each parsed statement is sent straight to
//               the AdaptiveStore facade calls the executor would make, and
//               every call is timed. The difference to kSqlTraced's Execute
//               time is the SQL layer's self time.

#ifndef CRACKBENCH_REPLAY_H_
#define CRACKBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream.h"

namespace crackbench {

enum class Mode { kSql, kSqlTraced, kCore };

/// Timed layer boundaries of the traced and core replays.
enum Layer : size_t {
  kParse,        ///< sql::ParseStatement
  kExecute,      ///< sql::SqlSession::Execute
  kSelect,       ///< AdaptiveStore::SelectRange
  kAggregate,    ///< AdaptiveStore::AggregateRange
  kConjunction,  ///< AdaptiveStore::SelectConjunction
  kGather,       ///< QueryResult::CollectOids
  kDml,          ///< AdaptiveStore::Insert / Update / Delete
  kCommit,       ///< AdaptiveStore::Begin / Commit
  kNumLayers,
};

const char* LayerName(Layer layer);

/// A closed span of the traced or core replay, relative to the start of
/// its rep. (session, op, stmt) identify the statement the span belongs to.
struct Span {
  uint32_t session;
  uint32_t op;
  uint16_t stmt;
  uint8_t layer;
  uint8_t kind;
  double start_us;
  double dur_us;
};

constexpr size_t kNumKinds = static_cast<size_t>(Kind::kNumKinds);

struct RepResult {
  // Set-up, timed per part.
  double load_s = 0, open_s = 0, add_table_s = 0;
  double setup_s() const { return load_s + open_s + add_table_s; }

  /// Latency of every operation, per session, in stream order.
  std::vector<std::vector<double>> op_us;
  std::vector<double> probe_us;
  /// Time the stream took: the sum of operation latencies for one client
  /// (answer checks between operations excluded), wall time from the
  /// start barrier to the last session's end for several.
  double stream_s = 0;
  double close_s = 0;
  double reopen_s = 0;  ///< 0 for in-memory stores

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures

  // kSqlTraced / kCore only.
  double layer_us[kNumKinds][kNumLayers] = {};
  uint64_t layer_calls[kNumKinds][kNumLayers] = {};
  uint64_t kind_stmts[kNumKinds] = {};
  std::map<std::string, int64_t> counters;  ///< registry deltas, stream only
  int64_t version_rows = 0;  ///< versions.rows growth over the stream
  uint64_t pieces = 0;                      ///< NumPieces, cracked columns
  uint64_t lineage_nodes = 0;
  uint64_t agg_stmts = 0, agg_pushed = 0;   ///< kCore: pushdown share
  std::vector<Span> spans;
};

/// The registry counters the traced replay reads around the stream.
const std::vector<std::string>& TracedCounters();

/// Set-up only: loads a store, closes and drops it. Extra set-up samples
/// for runs whose replays are too few for a steady set-up median.
RepResult RunSetup(const Config& config, const Data& data,
                   const std::string& db_dir);

/// Replays `stream` once. `db_dir` is the directory a durable store lives
/// in; it is emptied before and removed after the rep.
RepResult RunRep(const Config& config, const Data& data, const Stream& stream,
                 Mode mode, const std::string& db_dir);

}  // namespace crackbench

#endif  // CRACKBENCH_REPLAY_H_
