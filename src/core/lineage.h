// Copyright 2026 The CrackStore Authors
//
// Lineage administration (paper §3.2, Figs. 5-6): cracking must "administer
// the lineage of each piece, i.e. its source and the Ξ, Ψ, ^ or Ω operators
// applied", both to reconstruct original tables and to let an optimizer
// reason about alternative cracker orders. This module records that DAG.

#ifndef CRACKSTORE_CORE_LINEAGE_H_
#define CRACKSTORE_CORE_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace crackstore {

/// Identifier of a piece node in the lineage graph.
using PieceId = uint32_t;
inline constexpr PieceId kInvalidPieceId = ~0u;

/// The four cracker operators of §3.1.
enum class CrackOp : uint8_t {
  kXi = 0,     ///< Ξ — selection cracking
  kPsi = 1,    ///< Ψ — projection (vertical) cracking
  kWedge = 2,  ///< ^ — join cracking
  kOmega = 3,  ///< Ω — group cracking
};

const char* CrackOpName(CrackOp op);

/// One piece (or base table) in the lineage DAG.
struct LineagePiece {
  PieceId id = kInvalidPieceId;
  std::string label;           ///< e.g. "R[4]"
  uint64_t size = 0;           ///< tuples in the piece
  CrackOp produced_by{};       ///< op that created it (roots: unset)
  bool is_root = false;
  bool trimmed = false;        ///< fused away (inverse op applied, §3.2)
  std::vector<PieceId> parents;   ///< op inputs (empty for roots)
  std::vector<PieceId> children;  ///< pieces cracked off this one
};

/// Append-only lineage DAG.
class LineageGraph {
 public:
  /// Registers a base table.
  PieceId AddRoot(std::string label, uint64_t size);

  /// Records one cracker application: `op` consumed `inputs` and produced
  /// pieces with the given (label, size) pairs. Returns the new piece ids in
  /// order. Fails when an input id is unknown.
  Result<std::vector<PieceId>> AddCrack(
      CrackOp op, const std::vector<PieceId>& inputs,
      const std::vector<std::pair<std::string, uint64_t>>& outputs);

  const LineagePiece& piece(PieceId id) const;
  size_t num_pieces() const { return pieces_.size(); }

  /// Current partitioning of `root`: all descendant pieces without children.
  std::vector<PieceId> Leaves(PieceId root) const;

  /// Checks the loss-less invariant for horizontal crackers: the leaf sizes
  /// under `root` sum to the root size. (Ψ duplicates rows across fragments
  /// and is excluded — pass `allow_vertical` to skip Ψ subtrees.)
  Status CheckLossless(PieceId root) const;

  /// Applies the inverse operation below `id` (§3.2: "trimming the graph"):
  /// every descendant is marked trimmed and `id` becomes a leaf again.
  /// Models piece fusion — the data of the descendants has been reabsorbed.
  Status TrimDescendants(PieceId id);

  /// Trims every descendant of root `id` and resizes it to `size`: an
  /// accelerator rebuilt by a delta merge restarts its partitioning from a
  /// root that holds the merged rows (inserts folded in, deletes folded out),
  /// so the loss-less invariant keeps holding.
  Status Reroot(PieceId id, uint64_t size);

  /// Graphviz rendering of the DAG (Figs. 5-6 style).
  std::string ToDot() const;

 private:
  std::vector<LineagePiece> pieces_;
};

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_LINEAGE_H_
