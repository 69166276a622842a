// Copyright 2026 The CrackStore Authors
//
// Umbrella header: the public surface of CrackStore in one include.
//
//   #include "crackstore/crackstore.h"
//
// pulls in the adaptive store facade, the four cracker operators, the
// benchmark workload kit and the two reference engines. Individual headers
// remain includable for finer-grained dependencies.

#ifndef CRACKSTORE_CRACKSTORE_H_
#define CRACKSTORE_CRACKSTORE_H_

// Core: the paper's contribution.
#include "core/access_path.h"             // type-erased per-column access paths
#include "core/adaptive_store.h"          // facade: DbOptions/Open/Close lifecycle,
                                          // tables, Ξ/^/Ω/Ψ entry points
#include "core/crack_kernels.h"           // crack-in-two / crack-in-three
#include "core/crack_policy.h"            // pivot disciplines (standard/stochastic/coarse)
#include "core/cracker_index.h"           // the cracker index
#include "core/group_cracker.h"           // Ω
#include "core/join_cracker.h"            // ^
#include "core/lineage.h"                 // piece lineage DAG (Figs. 5-6)
#include "core/merge_policy.h"            // piece fusion + delta-merge policies
#include "core/oid_span_set.h"            // the answer shape + interval algebra
#include "core/projection_cracker.h"      // Ψ
#include "core/range_bounds.h"            // range predicates
#include "core/sorted_column.h"           // the sort baseline
#include "core/typed_range.h"             // Value-typed predicates (strings)
#include "core/updatable_cracker_index.h" // differential updates

// Storage substrate.
#include "storage/bat.h"
#include "storage/dictionary.h"           // order-preserving string encoding
#include "storage/relation.h"

// Durability: commit log + checkpoints behind DbOptions (the store pulls
// these in itself; listed so the lifecycle surface is visible here).
#include "durability/checkpoint.h"
#include "durability/manifest.h"
#include "durability/wal.h"

// Engines (Fig. 1 / Fig. 9 comparisons).
#include "engine/colstore_engine.h"
#include "engine/rowstore_engine.h"

// SQL frontend (the "semantic analyzer" stage of §3: crackers are derived
// from the translation of SQL statements).
#include "sql/executor.h"
#include "sql/parser.h"

// Benchmark kit (§4).
#include "workload/contraction.h"
#include "workload/sequence.h"
#include "workload/tapestry.h"

// §2.2 simulation (Figs. 2-3).
#include "sim/crack_sim.h"

#endif  // CRACKSTORE_CRACKSTORE_H_
