// Copyright 2026 The CrackStore Authors

#include "core/lineage.h"

#include "util/string_util.h"

namespace crackstore {

const char* CrackOpName(CrackOp op) {
  switch (op) {
    case CrackOp::kXi:
      return "Xi";
    case CrackOp::kPsi:
      return "Psi";
    case CrackOp::kWedge:
      return "Wedge";
    case CrackOp::kOmega:
      return "Omega";
  }
  return "?";
}

PieceId LineageGraph::AddRoot(std::string label, uint64_t size) {
  LineagePiece p;
  p.id = static_cast<PieceId>(pieces_.size());
  p.label = std::move(label);
  p.size = size;
  p.is_root = true;
  pieces_.push_back(std::move(p));
  return pieces_.back().id;
}

Result<std::vector<PieceId>> LineageGraph::AddCrack(
    CrackOp op, const std::vector<PieceId>& inputs,
    const std::vector<std::pair<std::string, uint64_t>>& outputs) {
  if (inputs.empty()) return Status::InvalidArgument("crack needs inputs");
  if (outputs.empty()) return Status::InvalidArgument("crack needs outputs");
  for (PieceId in : inputs) {
    if (in >= pieces_.size()) {
      return Status::NotFound(StrFormat("unknown input piece %u", in));
    }
  }
  std::vector<PieceId> ids;
  ids.reserve(outputs.size());
  for (const auto& [label, size] : outputs) {
    LineagePiece p;
    p.id = static_cast<PieceId>(pieces_.size());
    p.label = label;
    p.size = size;
    p.produced_by = op;
    p.parents = inputs;
    pieces_.push_back(std::move(p));
    ids.push_back(pieces_.back().id);
  }
  for (PieceId in : inputs) {
    for (PieceId out : ids) pieces_[in].children.push_back(out);
  }
  return ids;
}

const LineagePiece& LineageGraph::piece(PieceId id) const {
  CRACK_CHECK(id < pieces_.size());
  return pieces_[id];
}

std::vector<PieceId> LineageGraph::Leaves(PieceId root) const {
  std::vector<PieceId> out;
  std::vector<PieceId> stack{root};
  std::vector<bool> seen(pieces_.size(), false);
  while (!stack.empty()) {
    PieceId id = stack.back();
    stack.pop_back();
    if (id >= pieces_.size() || seen[id]) continue;
    seen[id] = true;
    const LineagePiece& p = pieces_[id];
    if (p.trimmed) continue;
    if (p.children.empty()) {
      out.push_back(id);
    } else {
      for (PieceId c : p.children) stack.push_back(c);
    }
  }
  return out;
}

Status LineageGraph::TrimDescendants(PieceId id) {
  if (id >= pieces_.size()) return Status::NotFound("unknown piece");
  std::vector<PieceId> stack(pieces_[id].children.begin(),
                             pieces_[id].children.end());
  std::vector<bool> seen(pieces_.size(), false);
  while (!stack.empty()) {
    PieceId cur = stack.back();
    stack.pop_back();
    if (cur >= pieces_.size() || seen[cur]) continue;
    seen[cur] = true;
    LineagePiece& p = pieces_[cur];
    p.trimmed = true;
    for (PieceId c : p.children) stack.push_back(c);
    p.children.clear();
  }
  pieces_[id].children.clear();
  return Status::OK();
}

Status LineageGraph::Reroot(PieceId id, uint64_t size) {
  if (id >= pieces_.size() || !pieces_[id].is_root) {
    return Status::InvalidArgument("reroot needs a root piece");
  }
  CRACK_RETURN_NOT_OK(TrimDescendants(id));
  pieces_[id].size = size;
  return Status::OK();
}

Status LineageGraph::CheckLossless(PieceId root) const {
  if (root >= pieces_.size()) return Status::NotFound("unknown root");
  // Walk down; every horizontally cracked piece must have children sizes
  // summing to its own size. Ψ children are excluded (vertical split keeps
  // full cardinality in each fragment).
  for (size_t id = 0; id < pieces_.size(); ++id) {
    const LineagePiece& p = pieces_[id];
    if (p.trimmed || p.children.empty()) continue;
    // Group children by the op that produced them; Ψ and ^ involve multiple
    // parents, so only check children whose sole parent is p.
    uint64_t sum = 0;
    bool checkable = true;
    for (PieceId c : p.children) {
      const LineagePiece& child = pieces_[c];
      if (child.produced_by == CrackOp::kPsi ||
          child.parents.size() != 1) {
        checkable = false;
        break;
      }
      sum += child.size;
    }
    if (checkable && sum != p.size) {
      return Status::Internal(
          StrFormat("piece %s: children sum %llu != size %llu",
                    p.label.c_str(), static_cast<unsigned long long>(sum),
                    static_cast<unsigned long long>(p.size)));
    }
  }
  (void)root;
  return Status::OK();
}

std::string LineageGraph::ToDot() const {
  std::string out = "digraph lineage {\n  rankdir=TB;\n";
  for (const LineagePiece& p : pieces_) {
    if (p.trimmed) continue;  // fused pieces are no longer part of the plan
    out += StrFormat("  p%u [label=\"%s\\n%llu tuples\"%s];\n", p.id,
                     p.label.c_str(),
                     static_cast<unsigned long long>(p.size),
                     p.is_root ? ", shape=box" : "");
  }
  for (const LineagePiece& p : pieces_) {
    for (PieceId c : p.children) {
      out += StrFormat("  p%u -> p%u [label=\"%s\"];\n", p.id, c,
                       CrackOpName(pieces_[c].produced_by));
    }
  }
  out += "}\n";
  return out;
}

}  // namespace crackstore
