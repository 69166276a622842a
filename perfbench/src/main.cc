// Copyright 2026 The CrackStore Authors
//
// crackbench: the end-to-end SQL benchmark of CrackStore. See
// perfbench/README.md for the workloads, the metrics and how to run it.
//
//   crackbench --workload zoom|multi_attr|htap|concurrent --seed N
//              --seconds S --trace 0|1 [--smoke] [--out DIR]
//
// --trace 0 replays the workload's stream on fresh stores until S seconds
// have passed (at least three times) and reports the end-to-end metrics as
// medians over the replays. --trace 1 runs traced and core replays and
// reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/simd_dispatch.h"
#include "replay.h"
#include "stream.h"

namespace crackbench {
namespace {

struct Flags {
  Workload workload = Workload::kZoom;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string out = ".";
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (arg == "--workload") {
      if (!ParseWorkload(value, &flags->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      flags->trace = std::atoi(value.c_str());
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (arg == "--out") {
      flags->out = value;
    } else {
      return false;
    }
  }
  return have_workload && (flags->trace == 0 || flags->trace == 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Percentile with linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in output order, each printed as "metric <name> <value> <unit>"
/// and collected into the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::printf("metric %-28s %14.6f %-9s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!json_.empty()) json_ += ", ";
    json_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  /// Printed for the reader, kept out of the result line.
  static void Info(const std::string& name, double value,
                   const std::string& unit, const std::string& note = "") {
    std::printf("info   %-28s %14.6f %-9s %s\n", name.c_str(), value,
                unit.c_str(), note.c_str());
  }
  const std::string& json() const { return json_; }

 private:
  std::string json_;
};

std::string N(size_t n) { return "n=" + std::to_string(n); }

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const RepResult& rep) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& e : rep.errors) {
      std::fprintf(stderr, "crackbench: FAILED %s\n", e.c_str());
    }
  }
};

size_t StreamOps(const Stream& stream) {
  size_t ops = 0;
  for (const std::vector<Op>& s : stream.sessions) ops += s.size();
  return ops;
}

/// Row bytes the stream's DML writes: a whole row per insert, one column
/// per updated row, the row id per deleted row.
uint64_t UserBytes(const Stream& stream) {
  uint64_t bytes = 0;
  for (const std::vector<Op>& ops : stream.sessions) {
    for (const Op& op : ops) {
      for (const Statement& s : op.stmts) {
        if (s.kind == Kind::kInsert) bytes += 4 * sizeof(int64_t);
        if (s.kind == Kind::kUpdate || s.kind == Kind::kDelete) {
          bytes += s.count * sizeof(int64_t);
        }
      }
    }
  }
  return bytes;
}

void PrintDescriptor(const Flags& flags, const Config& config,
                     const Stream& stream) {
  std::printf("# crackbench workload=%s seed=%llu trace=%d smoke=%d\n",
              WorkloadName(config.workload),
              static_cast<unsigned long long>(config.seed), flags.trace,
              flags.smoke ? 1 : 0);
  const char* simd_env = std::getenv("CRACKSTORE_SIMD");
  std::printf(
      "# machine nproc=%ld simd=%s CRACKSTORE_SIMD=%s compiler=%s build=%s\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      crackstore::SimdTierName(crackstore::ActiveSimdTier()),
      simd_env != nullptr ? simd_env : "(unset)", CRACKBENCH_COMPILER,
      CRACKBENCH_BUILD_TYPE);
  std::printf(
      "# store rows=%llu columns=4 clients=%zu concurrent=%d durability=%s "
      "fsync=%s loop=closed\n",
      static_cast<unsigned long long>(config.rows), config.clients,
      config.concurrent ? 1 : 0, config.durable ? "wal" : "none",
      config.durable ? "off" : "n/a");
  std::printf("# stream ops_per_client=%zu probe_txns=%zu hash=%016llx\n",
              config.ops, stream.probe.size(),
              static_cast<unsigned long long>(stream.hash));
  std::printf("# statements");
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (stream.kind_counts[k] > 0) {
      std::printf(" %s=%zu", KindName(static_cast<Kind>(k)),
                  stream.kind_counts[k]);
    }
  }
  std::printf("\n");
}

/// Set-up is timed in every replay; cheap workloads replay often enough,
/// the others add set-up-only loads up to this many samples.
constexpr size_t kMinSetups = 7;

/// --trace 0: end-to-end metrics over repeated untraced replays.
void EndToEnd(const Flags& flags, const Config& config, const Data& data,
              const Stream& stream, const std::string& db_dir, Report* report,
              Totals* totals) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> reps;
  double peak_rss_mb = 0;
  while (reps.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             flags.seconds) {
    reps.push_back(RunRep(config, data, stream, Mode::kSql, db_dir));
    totals->Add(reps.back());
    if (reps.back().op_us.empty()) return;  // set-up failed
    // Peak memory of generation plus one load and replay: later replays
    // can only add allocator fragmentation to the high-water mark.
    if (reps.size() == 1) peak_rss_mb = PeakRssMb();
  }
  std::vector<double> setup;
  for (const RepResult& rep : reps) setup.push_back(rep.setup_s());
  while (setup.size() < kMinSetups) {
    RepResult rep = RunSetup(config, data, db_dir);
    totals->Add(rep);
    setup.push_back(rep.setup_s());
  }
  // Per-operation medians over the replays: every replay runs the same
  // operations, so a latency that is slow only once is noise, not a tail.
  std::vector<double> reads, writes, converged, probe;
  for (size_t s = 0; s < stream.sessions.size(); ++s) {
    const std::vector<Op>& ops = stream.sessions[s];
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<double> samples;
      for (const RepResult& rep : reps) samples.push_back(rep.op_us[s][i]);
      double us = Median(samples);
      (ops[i].write ? writes : reads).push_back(us);
      if (!ops[i].write && i >= ops.size() * 3 / 4) converged.push_back(us);
    }
  }
  for (size_t i = 0; i < stream.probe.size(); ++i) {
    std::vector<double> samples;
    for (const RepResult& rep : reps) samples.push_back(rep.probe_us[i]);
    probe.push_back(Median(samples));
  }
  // Read-only workloads take their write latencies from the write probe.
  std::vector<double>& write_lat = writes.empty() ? probe : writes;
  const char* write_src = writes.empty() ? "(write probe)" : "";

  std::vector<double> ops_per_s, reopen;
  for (const RepResult& rep : reps) {
    ops_per_s.push_back(static_cast<double>(StreamOps(stream)) / rep.stream_s);
    reopen.push_back(rep.reopen_s);
  }
  std::string reps_note = "reps=" + std::to_string(reps.size());
  std::printf("# replays stream_s");
  for (const RepResult& rep : reps) std::printf(" %.4f", rep.stream_s);
  std::printf(" setup_s");
  for (double s : setup) std::printf(" %.4f", s);
  std::printf("\n");
  report->Add("setup_s", Median(setup), "s",
              "loads=" + std::to_string(setup.size()));
  report->Add("ops_per_s", Median(ops_per_s), "op/s", reps_note);
  report->Add("read_p50_us", Percentile(reads, 0.5), "us", N(reads.size()));
  report->Add("read_p99_us", Percentile(reads, 0.99), "us", N(reads.size()));
  report->Add("write_p50_us", Percentile(write_lat, 0.5), "us",
              N(write_lat.size()) + " " + write_src);
  report->Add("write_p99_us", Percentile(write_lat, 0.99), "us",
              N(write_lat.size()) + " " + write_src);
  report->Add("converged_p50_us", Percentile(converged, 0.5), "us",
              N(converged.size()));
  report->Add("peak_rss_mb", peak_rss_mb, "MB", "after the first replay");
  if (config.durable) {
    Report::Info("reopen_s", Median(reopen), "s", reps_note);
  }
  Report::Info("failed_frac",
               static_cast<double>(totals->failed) /
                   static_cast<double>(totals->attempted),
               "ratio", "n=" + std::to_string(totals->attempted));
}

double PerCall(const RepResult& rep, Layer layer) {
  double us = 0;
  uint64_t calls = 0;
  for (size_t k = 0; k < kNumKinds; ++k) {
    us += rep.layer_us[k][layer];
    calls += rep.layer_calls[k][layer];
  }
  return calls == 0 ? 0 : us / static_cast<double>(calls);
}

double CoreUs(const RepResult& rep, size_t kind) {
  double us = 0;
  for (size_t l = kSelect; l < kNumLayers; ++l) us += rep.layer_us[kind][l];
  return us;
}

void WriteSpans(const std::string& path, const RepResult& traced,
                const RepResult& core) {
  std::ofstream f(path);
  f << "replay,session,op,stmt,kind,span,start_us,dur_us\n";
  for (const auto* rep : {&traced, &core}) {
    const char* name = rep == &traced ? "sql" : "core";
    for (const Span& s : rep->spans) {
      f << name << ',' << s.session << ',' << s.op << ',' << s.stmt << ','
        << KindName(static_cast<Kind>(s.kind)) << ','
        << LayerName(static_cast<Layer>(s.layer)) << ',' << s.start_us << ','
        << s.dur_us << '\n';
    }
  }
}

/// Per-layer metrics of one (traced, core) pair of replays, in output order.
struct LayerMetrics {
  std::vector<std::string> names, units;
  std::vector<double> values;
  void Add(const std::string& name, double value, const std::string& unit) {
    names.push_back(name);
    values.push_back(value);
    units.push_back(unit);
  }
};

/// The traced replay's per-kind split (parse, execute, core replay and SQL
/// self time per statement), its raw registry counts, and its spans.
void PrintTrace(const Flags& flags, const Config& config,
                const RepResult& traced, const RepResult& core) {
  std::printf("# kind (first pair) stmts   parse_us  execute_us     core_us"
              "     self_us\n");
  for (size_t k = 0; k < kNumKinds; ++k) {
    double n = static_cast<double>(traced.kind_stmts[k]);
    if (n == 0) continue;
    double ex = traced.layer_us[k][kExecute], co = CoreUs(core, k);
    std::printf("# %-17s %7.0f %10.2f %11.2f %11.2f %11.2f\n",
                KindName(static_cast<Kind>(k)), n,
                traced.layer_us[k][kParse] / n, ex / n, co / n, (ex - co) / n);
  }
  std::printf("# counts");
  for (const auto& [name, v] : traced.counters) {
    std::printf(" %s=%lld", name.c_str(), static_cast<long long>(v));
  }
  std::printf("\n");
  std::string spans = flags.out + "/spans-" + WorkloadName(config.workload) +
                      "-" + std::to_string(config.seed) + ".csv";
  WriteSpans(spans, traced, core);
  std::printf("# spans %zu written to %s\n",
              traced.spans.size() + core.spans.size(), spans.c_str());
}

LayerMetrics Layers(const Stream& stream, const RepResult& traced,
                    const RepResult& core) {
  LayerMetrics out;
  const double ops = static_cast<double>(StreamOps(stream));
  auto total = [&](const char* name) {
    return static_cast<double>(traced.counters.at(name));
  };
  auto per_op = [&](const char* name) { return total(name) / ops; };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  double stmts = 0, execute = 0, traced_us = 0, core_total = 0;
  for (size_t k = 0; k < kNumKinds; ++k) {
    stmts += static_cast<double>(traced.kind_stmts[k]);
    execute += traced.layer_us[k][kExecute];
    traced_us += traced.layer_us[k][kParse] + traced.layer_us[k][kExecute];
    core_total += CoreUs(core, k);
  }

  const double span_rows = per_op("select.span_rows");
  const double materialized = per_op("select.materialized_oids");
  const uint64_t txns = core.kind_stmts[static_cast<size_t>(Kind::kCommit)];
  double commit_us = 0;
  for (size_t k = 0; k < kNumKinds; ++k) commit_us += core.layer_us[k][kCommit];

  out.Add("sql.parse_us", PerCall(traced, kParse), "us");
  out.Add("sql.execute_us", PerCall(traced, kExecute), "us");
  out.Add("sql.exec_self_us", ratio(execute - core_total, stmts), "us");
  out.Add("core.select_us", PerCall(core, kSelect), "us");
  out.Add("core.aggregate_us", PerCall(core, kAggregate), "us");
  out.Add("core.conjunction_us", PerCall(core, kConjunction), "us");
  out.Add("core.gather_us", PerCall(core, kGather), "us");
  out.Add("core.dml_us", PerCall(core, kDml), "us");
  out.Add("core.commit_us", ratio(commit_us, static_cast<double>(txns)),
              "us");
  out.Add("core.pieces", static_cast<double>(traced.pieces), "count");
  out.Add("lineage.nodes", static_cast<double>(traced.lineage_nodes),
              "count");
  for (const char* name :
       {"crack.cracks", "crack.tuples_touched", "crack.kernel_writes",
        "io.tuples_read", "io.tuples_written", "select.materialized_oids",
        "select.span_rows"}) {
    out.Add(name, per_op(name), "count/op");
  }
  out.Add("select.span_share", ratio(span_rows, span_rows + materialized),
              "ratio");
  out.Add("agg.pushdown_share",
              ratio(static_cast<double>(core.agg_pushed),
                    static_cast<double>(core.agg_stmts)),
              "ratio");
  for (const char* name :
       {"snapshot.rows_filtered", "snapshot.override_hits", "merge.folds",
        "merge.rows", "vacuum.auto_runs", "vacuum.purged_rows"}) {
    out.Add(name, per_op(name), "count/op");
  }
  out.Add("versions.rows", static_cast<double>(traced.version_rows),
              "count");
  for (const char* name : {"txn.commits", "txn.aborts", "txn.conflicts",
                           "latch.range_acquisitions", "latch.range_waits"}) {
    out.Add(name, per_op(name), "count/op");
  }
  out.Add("latch.range_wait_ns", per_op("latch.range_wait_ns"), "ns/op");
  out.Add("latch.wait_share",
              ratio(per_op("latch.range_waits"),
                    per_op("latch.range_acquisitions")),
              "ratio");
  out.Add("wal.appends", per_op("wal.appends"), "count/op");
  out.Add("wal.bytes_appended", per_op("wal.bytes_appended"), "B/op");
  out.Add("wal.bytes_per_user_byte",
              ratio(total("wal.bytes_appended"),
                    static_cast<double>(UserBytes(stream))),
              "ratio");
  out.Add("wal.fsyncs", per_op("wal.fsyncs"), "count/op");
  out.Add("wal.checkpoints", per_op("wal.checkpoints"), "count/op");
  out.Add("wal.checkpoint_bytes", per_op("wal.checkpoint_bytes"), "B/op");
  out.Add("durability.close_us", traced.close_s * 1e6, "us");
  out.Add("durability.open_us", traced.reopen_s * 1e6, "us");
  out.Add("storage.load_us", traced.load_s * 1e6, "us");
  out.Add("core.add_table_us", traced.add_table_s * 1e6, "us");
  // Tracing costs what the traced operations took beyond the parse and
  // execute calls they wrap, measured inside one replay so that no
  // replay-to-replay drift enters it.
  double op_us = 0;
  for (const std::vector<double>& session : traced.op_us) {
    for (double us : session) op_us += us;
  }
  out.Add("trace.overhead_pct",
          ratio(op_us - traced_us, traced_us) * 100.0, "%");
  return out;
}

/// --trace 1: per-layer metrics from a traced and a core replay of the
/// same stream, repeated until `--seconds` have passed (at least three
/// times); each metric is the median over the repetitions.
void PerLayer(const Flags& flags, const Config& config, const Data& data,
              const Stream& stream, const std::string& db_dir, Report* report,
              Totals* totals) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<LayerMetrics> pairs;
  while (pairs.size() < 3 ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             flags.seconds) {
    RepResult traced = RunRep(config, data, stream, Mode::kSqlTraced, db_dir);
    RepResult core = RunRep(config, data, stream, Mode::kCore, db_dir);
    totals->Add(traced);
    totals->Add(core);
    if (traced.op_us.empty() || core.op_us.empty()) return;  // set-up failed
    if (pairs.empty()) PrintTrace(flags, config, traced, core);
    pairs.push_back(Layers(stream, traced, core));
  }
  const LayerMetrics& first = pairs.front();
  for (size_t i = 0; i < first.names.size(); ++i) {
    std::vector<double> values;
    for (const LayerMetrics& pair : pairs) values.push_back(pair.values[i]);
    report->Add(first.names[i], Median(values), first.units[i],
                "pairs=" + std::to_string(pairs.size()));
  }
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: crackbench --workload zoom|multi_attr|htap|concurrent"
                 " --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n");
    return 2;
  }
  const Config config = DefaultConfig(flags.workload, flags.seed, flags.smoke);
  // Inputs and expected answers are generated before any clock starts.
  const auto gen_start = std::chrono::steady_clock::now();
  const Data data = GenerateData(config);
  const Stream stream = GenerateStream(config, data);
  PrintDescriptor(flags, config, stream);
  std::printf("# generated in %.2f s\n",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            gen_start)
                  .count());
  const std::string db_dir = flags.out + "/db-" +
                             WorkloadName(config.workload) + "-" +
                             std::to_string(getpid());
  Report report;
  Totals totals;
  if (flags.trace == 0) {
    EndToEnd(flags, config, data, stream, db_dir, &report, &totals);
  } else {
    PerLayer(flags, config, data, stream, db_dir, &report, &totals);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      totals.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(totals.failed), report.json().c_str());
  return 0;
}

}  // namespace
}  // namespace crackbench

int main(int argc, char** argv) { return crackbench::Main(argc, argv); }
