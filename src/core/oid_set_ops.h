// Copyright 2026 The CrackStore Authors
//
// Interval algebra over identity-layout span sets. A scan-strategy
// conjunction leg answers as spans whose positions ARE ascending oid
// ranges, so two clean legs intersect by interval overlap alone —
// O(spans_a + spans_b), no per-row work and no oid list.

#ifndef CRACKSTORE_CORE_OID_SET_OPS_H_
#define CRACKSTORE_CORE_OID_SET_OPS_H_

#include "core/oid_span_set.h"
#include "storage/types.h"

namespace crackstore {

/// True when `set` can be consumed as sorted oid *intervals* directly:
/// identity layout (spans ARE ascending oid ranges). A permuted layout is
/// not (its spans are unordered in oid space).
bool SpanSetIntersectable(const OidSpanSet& set);

/// Intersects two identity-layout span sets by interval overlap, producing
/// a third identity span set over *absolute* oids (identity base 0) —
/// O(spans_a + spans_b), no per-row work at all. Requires both sets to
/// carry no exceptions or extras (callers check exceptions() == 0 &&
/// extras() == 0).
OidSpanSet IntersectIdentitySpanSets(const OidSpanSet& a,
                                     const OidSpanSet& b);

}  // namespace crackstore

#endif  // CRACKSTORE_CORE_OID_SET_OPS_H_
