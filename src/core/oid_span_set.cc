// Copyright 2026 The CrackStore Authors

#include "core/oid_span_set.h"

#include <algorithm>

namespace crackstore {

void OidSpanSet::AddSpan(size_t begin, size_t end) {
  if (end <= begin) return;
  span_rows_ += end - begin;
  if (!spans_.empty() && spans_.back().end == begin) {
    spans_.back().end = end;
    return;
  }
  spans_.push_back(OidSpan{begin, end});
}

void OidSpanSet::MarkException(size_t concat_pos) {
  size_t w = concat_pos >> 6;
  if (w >= exceptions_.size()) exceptions_.resize(w + 1, 0);
  uint64_t bit = 1ull << (concat_pos & 63);
  if (exceptions_[w] & bit) return;
  exceptions_[w] |= bit;
  ++exception_count_;
}

std::vector<Oid> OidSpanSet::ToOids() const& {
  std::vector<Oid> out;
  out.reserve(count());
  ForEachOid([&out](Oid oid) { out.push_back(oid); });
  // Identity spans without extras and detached lists are already ascending;
  // everything else (permuted maps, merged extras) sorts here, once, at the
  // boundary.
  if (!detached_ && (oid_map_ != nullptr || !extras_.empty())) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::vector<Oid> OidSpanSet::ToOids() && {
  if (detached_) return std::move(extras_);
  return static_cast<const OidSpanSet&>(*this).ToOids();
}

void OidSpanSet::Detach() {
  extras_ = ToOids();
  oid_map_ = nullptr;
  spans_.clear();
  exceptions_.clear();
  span_rows_ = 0;
  exception_count_ = 0;
  detached_ = true;
}

OidSpanSet OidSpanSet::FromMatchBitmap(const uint64_t* bm, size_t n,
                                       Oid base) {
  OidSpanSet set;
  set.BindIdentity(base);
  size_t run_start = 0;
  bool in_run = false;
  for (size_t i = 0; i < n; ++i) {
    bool hit = (bm[i >> 6] >> (i & 63)) & 1u;
    if (hit && !in_run) {
      run_start = i;
      in_run = true;
    } else if (!hit && in_run) {
      set.AddSpan(run_start, i);
      in_run = false;
    }
  }
  if (in_run) set.AddSpan(run_start, n);
  return set;
}

OidSpanSet IntersectIdentitySpanSets(const OidSpanSet& a,
                                     const OidSpanSet& b) {
  OidSpanSet out;
  out.BindIdentity(0);  // spans in absolute oid space
  const Oid base_a = a.identity_base();
  const Oid base_b = b.identity_base();
  size_t ia = 0;
  size_t ib = 0;
  const auto& sa = a.spans();
  const auto& sb = b.spans();
  while (ia < sa.size() && ib < sb.size()) {
    const Oid lo_a = base_a + sa[ia].begin;
    const Oid hi_a = base_a + sa[ia].end;
    const Oid lo_b = base_b + sb[ib].begin;
    const Oid hi_b = base_b + sb[ib].end;
    const Oid lo = std::max(lo_a, lo_b);
    const Oid hi = std::min(hi_a, hi_b);
    if (lo < hi) {
      out.AddSpan(static_cast<size_t>(lo), static_cast<size_t>(hi));
    }
    if (hi_a <= hi_b) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return out;
}

}  // namespace crackstore
