// Copyright 2026 The CrackStore Authors

#include "core/oid_set_ops.h"

#include <algorithm>

namespace crackstore {

bool SpanSetIntersectable(const OidSpanSet& set) { return set.identity(); }

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
