// Copyright 2026 The CrackStore Authors
//
// Shared helpers for the figure-reproduction binaries: flag parsing and the
// CSV emission conventions (series to stdout, diagnostics to stderr).

#ifndef CRACKSTORE_BENCH_BENCH_COMMON_H_
#define CRACKSTORE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_store.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace crackstore {
namespace bench {

/// Tiny flag registry: --name=value pairs with typed lookups.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  uint64_t GetUint(const std::string& name, uint64_t def) const {
    std::string v;
    if (!Lookup(name, &v)) return def;
    return std::strtoull(v.c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& name, double def) const {
    std::string v;
    if (!Lookup(name, &v)) return def;
    return std::strtod(v.c_str(), nullptr);
  }

  std::string GetString(const std::string& name,
                        const std::string& def) const {
    std::string v;
    return Lookup(name, &v) ? v : def;
  }

  bool GetBool(const std::string& name, bool def) const {
    std::string v;
    if (!Lookup(name, &v)) return def;
    return v == "1" || v == "true" || v == "yes";
  }

 private:
  bool Lookup(const std::string& name, std::string* value) const {
    for (const std::string& arg : args_) {
      if (ParseFlag(arg, name, value)) return true;
    }
    return false;
  }

  std::vector<std::string> args_;
};

/// Opens the bench's store through the lifecycle API. `--db=DIR` makes it
/// durable (commit log + checkpoints under DIR; fsync policy from
/// `--fsync=off|commit|interval`, default off so the overhead gate measures
/// the log's CPU cost, not the disk's). Without --db the store is
/// in-memory and the bench behaves exactly as before.
inline Result<std::unique_ptr<AdaptiveStore>> OpenStore(const Flags& flags,
                                                        DbOptions opts) {
  std::string dir = flags.GetString("db", "");
  if (!dir.empty()) {
    // Benches open stores in loops (one per strategy/config point); each
    // open gets a fresh database under DIR so no run replays its
    // predecessor's log.
    static int run_counter = 0;
    opts.path = StrFormat("%s/run-%d", dir.c_str(), run_counter++);
    opts.durability = DurabilityMode::kWal;
    CRACK_ASSIGN_OR_RETURN(
        opts.fsync_policy,
        durability::ParseFsyncPolicy(flags.GetString("fsync", "off")));
  }
  return AdaptiveStore::Open(opts);
}

/// Prints the standard experiment banner to stderr (kept off stdout so the
/// CSV stays machine-readable).
inline void Banner(const char* experiment, const char* paper_ref,
                   const std::string& params) {
  std::fprintf(stderr, "# %s — reproduces %s\n", experiment, paper_ref);
  std::fprintf(stderr, "# params: %s\n", params.c_str());
}

}  // namespace bench
}  // namespace crackstore

#endif  // CRACKSTORE_BENCH_BENCH_COMMON_H_
