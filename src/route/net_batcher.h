// Spatially disjoint net batching for the PathFinder negotiation loop
// (DESIGN.md §Routing).
//
// Within one negotiation iteration the pending nets are partitioned into
// batches such that any two nets of a batch have disjoint *declared
// regions* (the net's pin bounding box inflated by the restricted-search
// margin, widened to cover its warm search window — the declared region
// always contains the cells the net's first connect attempts may search).
// Nets of a batch are all searched against one snapshot of the fabric
// before any of them commits: because their searches are confined to
// disjoint cell sets, each net's result is independent of its
// batch-mates. A search can still escape its declared region through the
// failure-inflated retries; the commit phase detects such collisions and
// requeues the net (router.cpp). The batching orders the commits, so it
// shapes the routing result.
//
// Batch formation is greedy first-fit over the deterministic net order,
// with a per-batch interval index on the x-axis so the overlap probe
// stabs only the members whose x-extent can intersect the candidate.
#pragma once

#include <vector>

#include "common/vec3.h"

namespace tqec::route {

struct BatchPlan {
  /// Batches in commit order; each batch lists components in the
  /// deterministic net order. Concatenated, the batches are a permutation
  /// of the pending nets.
  std::vector<std::vector<int>> batches;
};

/// Partition `pending` (components in deterministic net order) into
/// disjoint-region batches. `region_of[c]` is component c's declared
/// region.
BatchPlan plan_batches(const std::vector<int>& pending,
                       const std::vector<Box3>& region_of);

}  // namespace tqec::route
