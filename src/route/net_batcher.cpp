#include "route/net_batcher.h"

#include <algorithm>

namespace tqec::route {

namespace {

/// Per-batch interval index: members sorted by their region's lo.x, so an
/// overlap probe for a candidate region only visits members whose x-extent
/// starts at or before the candidate's end; those are confirmed with the
/// full 3D intersection test (x overlap alone does not conflict — 2.5D
/// layouts stack nets with identical x-extents on different layers).
struct BatchIndex {
  struct Member {
    Box3 region;
  };
  std::vector<Member> by_lo_x;  // sorted by region.lo.x (ties by insertion)
  std::vector<int> components;  // in insertion (= net) order

  bool overlaps(const Box3& region) const {
    const auto end = std::upper_bound(
        by_lo_x.begin(), by_lo_x.end(), region.hi.x,
        [](int probe, const Member& m) { return probe < m.region.lo.x; });
    for (auto it = by_lo_x.begin(); it != end; ++it)
      if (it->region.intersects(region)) return true;
    return false;
  }

  void insert(int component, const Box3& region) {
    by_lo_x.insert(
        std::upper_bound(by_lo_x.begin(), by_lo_x.end(), region.lo.x,
                         [](int lo, const Member& o) {
                           return lo < o.region.lo.x;
                         }),
        Member{region});
    components.push_back(component);
  }
};

}  // namespace

BatchPlan plan_batches(const std::vector<int>& pending,
                       const std::vector<Box3>& region_of) {
  BatchPlan plan;
  std::vector<BatchIndex> batches;
  for (const int c : pending) {
    const Box3& region = region_of[static_cast<std::size_t>(c)];
    bool placed = false;
    for (BatchIndex& b : batches) {
      if (b.overlaps(region)) continue;
      b.insert(c, region);
      placed = true;
      break;
    }
    if (!placed) {
      batches.emplace_back();
      batches.back().insert(c, region);
    }
  }

  plan.batches.reserve(batches.size());
  for (BatchIndex& b : batches) plan.batches.push_back(std::move(b.components));
  return plan;
}

}  // namespace tqec::route
