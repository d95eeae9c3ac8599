// B*-tree floorplan representation (Chang et al., DAC'00), the per-layer
// building block of the 2.5D placement of Falkenstern et al. (paper [4])
// used in the module-placement stage (Sec. 3.5).
//
// A B*-tree encodes a compacted (admissible) placement of rectangles on a
// plane: the preorder root sits at the origin, a left child abuts its
// parent's right edge (x = parent.x + parent.w), a right child shares its
// parent's x, and every rectangle drops onto the packing contour. Packing
// is O(n log n) with a contour step-function.
//
// The tree stores *items* (global placement-node ids); the simulated-
// annealing engine owns several trees (one per 2.5D layer) and moves items
// between them. All structural perturbations take an Rng for reproducible
// randomness.
//
// Incremental packing. Besides the stateless `pack()`, the tree keeps an
// epoch-stamped coordinate cache and a preorder dirty watermark so
// `pack_update()` can repack only the suffix a perturbation disturbed:
//
//  - Every mutator records the earliest preorder position it can affect in
//    `dirty_from_`. Positions strictly before the watermark keep their
//    slot, footprint, and coordinates, because a B*-tree packs in preorder
//    and a node's position depends only on the nodes packed before it.
//  - `pack_update()` replays the cached prefix into the contour (contour
//    raises are deterministic given their arguments, so replay reproduces
//    the exact contour state), then resumes the preorder DFS, doing real
//    packing work only for suffix nodes. The repacked suffix is returned
//    as a delta so callers can update downstream state proportionally to
//    the disturbance, not the layer size.
//  - Cached positions of suffix slots may be stale between packs; the
//    watermark update rule `min(dirty_from_, stale_pos)` stays sound
//    because the prefix slot set is invariant between packs: a stale
//    position below the watermark implies the slot really is at that
//    position (and vice versa).
//
// In checked builds every `pack_update()` cross-checks itself against a
// full `pack()` and asserts identical coordinates and extents.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace tqec::place {

/// Rectangle footprint: w along x, d along z.
struct Footprint {
  int w = 1;
  int d = 1;
};

/// Packed position of one item.
struct PackedItem {
  int item = -1;
  int x = 0;
  int z = 0;
};

struct PackResult {
  std::vector<PackedItem> placed;
  int width = 0;  // extent along x
  int depth = 0;  // extent along z
};

class BStarTree {
 public:
  /// Outcome of one `pack_update()`: the items whose coordinates were
  /// recomputed this call (everything on a full pack, the dirty suffix on
  /// an incremental one) plus the current overall extents.
  struct PackDelta {
    std::vector<PackedItem> repacked;
    int width = 0;  // extent along x
    int depth = 0;  // extent along z
  };

  BStarTree() = default;
  // Snapshots copy structure and the coordinate cache but not the packing
  // scratch (contour, DFS stack, last delta) — rollback copies dominate
  // the SA inner loop's memory traffic.
  BStarTree(const BStarTree& other);
  BStarTree& operator=(const BStarTree& other);
  BStarTree(BStarTree&&) = default;
  BStarTree& operator=(BStarTree&&) = default;

  int size() const { return static_cast<int>(slots_.size()); }
  bool empty() const { return slots_.empty(); }
  bool contains(int item) const;
  const std::vector<int>& items() const { return item_list_; }

  /// Insert an item at a uniformly random free child slot.
  void insert(int item, Rng& rng);

  /// Insert as the left child of the last inserted item (builds the
  /// initial left-skewed chain = a row along x).
  void insert_chain(int item);

  /// Detach an item from the tree (children are re-spliced).
  void remove(int item, Rng& rng);

  /// Exchange the tree positions of two contained items.
  void swap_items(int a, int b);

  /// Declare that an item's footprint changed (e.g. rotation) without any
  /// structural edit, so the next `pack_update()` repacks from it onward.
  void mark_item_dirty(int item);

  /// Pack the tree; `footprint(item)` supplies each item's rectangle.
  /// Stateless: ignores and does not touch the incremental cache.
  template <typename FootprintFn>
  PackResult pack(FootprintFn&& footprint) const;

  /// Incrementally repack everything at or after the dirty watermark and
  /// return the delta (valid until the next call). The first call on a
  /// fresh tree packs every node.
  template <typename FootprintFn>
  const PackDelta& pack_update(FootprintFn&& footprint);

  /// Cached coordinates from the last `pack_update()` (which must have
  /// left the tree clean — no mutations since).
  bool pack_cache_clean() const { return pack_valid_ && dirty_from_ == kClean; }
  int packed_x(int item) const;
  int packed_z(int item) const;
  int packed_width() const;
  int packed_depth() const;

  /// Structural self-check (parent/child symmetry, single root, item map).
  void check_invariants() const;

 private:
  struct Slot {
    int item = -1;
    int parent = -1;
    int left = -1;   // placed at parent.x + parent.w
    int right = -1;  // placed at parent.x
  };

  /// Cached packed rectangle of one slot (epoch-stamped via stamp_).
  struct SlotPack {
    int x = 0;
    int z = 0;
    int w = 0;
    int d = 0;
  };

  static constexpr int kClean = std::numeric_limits<int>::max();

  int slot_of(int item) const;
  void replace_child(int parent, int old_slot, int new_slot);
  void erase_slot(int slot);
  void grow_cache_for_new_slot();
  /// Lower the dirty watermark to `pos` (a preorder position).
  void mark_dirty_at(int pos) {
    if (pos < dirty_from_) dirty_from_ = pos;
  }
  /// Lower the watermark to just below a parent slot (new-child insert).
  void mark_dirty_below(int parent_slot) {
    if (!pack_valid_) return;
    const int p = pos_[static_cast<std::size_t>(parent_slot)];
    if (p < dirty_from_) dirty_from_ = p + 1;
  }
  void mark_dirty_slot(int slot) {
    if (!pack_valid_) return;
    mark_dirty_at(pos_[static_cast<std::size_t>(slot)]);
  }

  std::vector<Slot> slots_;
  std::vector<int> item_list_;       // dense item list (for random pick)
  std::vector<int> slot_of_item_;    // item id -> slot index (-1 absent)
  int root_ = -1;
  int last_inserted_ = -1;

  // ---- incremental packing cache (parallel to slots_) ----
  std::vector<SlotPack> packed_;       // coordinates at last repack
  std::vector<int> pos_;               // preorder position at last pack
  std::vector<std::uint32_t> stamp_;   // pack epoch that wrote packed_
  std::vector<int> order_;             // preorder position -> slot index
  std::uint32_t pack_epoch_ = 0;
  int width_ = 0;
  int depth_ = 0;
  int dirty_from_ = 0;      // first possibly-affected preorder position
  bool pack_valid_ = false; // cache initialized by some pack_update()

  // ---- packing scratch (not part of the logical state; not copied) ----
  struct Frame {
    int slot;
    int x;
  };
  class ContourScratch;  // defined below
  std::vector<std::pair<int, int>> contour_;  // (start x, height) steps
  std::vector<Frame> stack_;
  PackDelta delta_;
};

// ---- implementation of the packing templates ----

namespace detail {

/// Packing contour: height step-function along x as a flat sorted vector
/// of (start, height) steps, each covering [start, next start). A flat
/// array beats a std::map here: packing probes it thousands of times per
/// SA move and the step count stays small, so binary search plus a
/// contiguous splice wins on locality.
class FlatContour {
 public:
  using Step = std::pair<int, int>;

  explicit FlatContour(std::vector<Step>& storage) : steps_(storage) {
    steps_.clear();
    steps_.emplace_back(0, 0);  // ground level over [0, +inf)
  }

  /// Max height over [x0, x1).
  int max_in(int x0, int x1) const {
    std::size_t i = index_at(x0);
    int best = 0;
    for (; i < steps_.size() && steps_[i].first < x1; ++i)
      best = std::max(best, steps_[i].second);
    return best;
  }

  /// Raise [x0, x1) to height h.
  void set(int x0, int x1, int h) {
    TQEC_ASSERT(x0 >= 0 && x1 > x0, "bad contour span");
    const std::size_t lb0 = lower_bound(x0);
    const std::size_t lb1 = lower_bound(x1);
    const bool has_x1 = lb1 < steps_.size() && steps_[lb1].first == x1;
    // Height that must survive just beyond the span.
    const int tail = has_x1 ? steps_[lb1].second : steps_[lb1 - 1].second;
    const Step repl[2] = {{x0, h}, {x1, tail}};
    const std::size_t count = has_x1 ? 1 : 2;
    const std::size_t removed = lb1 - lb0;
    if (removed >= count) {
      for (std::size_t i = 0; i < count; ++i) steps_[lb0 + i] = repl[i];
      steps_.erase(steps_.begin() + static_cast<std::ptrdiff_t>(lb0 + count),
                   steps_.begin() + static_cast<std::ptrdiff_t>(lb1));
    } else {
      for (std::size_t i = 0; i < removed; ++i) steps_[lb0 + i] = repl[i];
      steps_.insert(steps_.begin() + static_cast<std::ptrdiff_t>(lb1),
                    repl + removed, repl + count);
    }
  }

 private:
  /// Index of the step active at x (last step with start <= x).
  std::size_t index_at(int x) const {
    std::size_t i = lower_bound(x);
    if (i == steps_.size() || steps_[i].first > x) --i;
    return i;
  }
  /// First index with start >= x.
  std::size_t lower_bound(int x) const {
    return static_cast<std::size_t>(
        std::lower_bound(steps_.begin(), steps_.end(), x,
                         [](const Step& s, int v) { return s.first < v; }) -
        steps_.begin());
  }

  std::vector<Step>& steps_;
};

}  // namespace detail

template <typename FootprintFn>
PackResult BStarTree::pack(FootprintFn&& footprint) const {
  PackResult result;
  if (root_ < 0) return result;

  std::vector<detail::FlatContour::Step> storage;
  detail::FlatContour contour(storage);
  // Preorder DFS with explicit stack of (slot, x).
  std::vector<Frame> stack{{root_, 0}};
  result.placed.reserve(slots_.size());
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Slot& s = slots_[static_cast<std::size_t>(f.slot)];
    const Footprint fp = footprint(s.item);
    TQEC_ASSERT(fp.w > 0 && fp.d > 0, "non-positive footprint");
    const int z = contour.max_in(f.x, f.x + fp.w);
    contour.set(f.x, f.x + fp.w, z + fp.d);
    result.placed.push_back({s.item, f.x, z});
    result.width = std::max(result.width, f.x + fp.w);
    result.depth = std::max(result.depth, z + fp.d);
    if (s.right >= 0) stack.push_back({s.right, f.x});
    if (s.left >= 0) stack.push_back({s.left, f.x + fp.w});
  }
  return result;
}

template <typename FootprintFn>
const BStarTree::PackDelta& BStarTree::pack_update(FootprintFn&& footprint) {
  delta_.repacked.clear();
  const int n = size();
  if (root_ < 0) {
    order_.clear();
    width_ = depth_ = 0;
    delta_.width = delta_.depth = 0;
    dirty_from_ = kClean;
    pack_valid_ = true;
    return delta_;
  }
  const int from = pack_valid_ ? dirty_from_ : 0;
  if (from == kClean) {
    // Nothing changed since the last pack; extents stay cached.
    delta_.width = width_;
    delta_.depth = depth_;
    return delta_;
  }
  // Preorder positions [0, keep) kept their slots, footprints, and
  // coordinates; replay their contour raises verbatim (a raise is a pure
  // function of its arguments and prior state, so the replayed contour is
  // bit-identical to the original one at position `keep`).
  const int keep = std::min(from, n);
  detail::FlatContour contour(contour_);
  int width = 0;
  int depth = 0;
  for (int i = 0; i < keep; ++i) {
    const SlotPack& c = packed_[static_cast<std::size_t>(
        order_[static_cast<std::size_t>(i)])];
    contour.set(c.x, c.x + c.w, c.z + c.d);
    width = std::max(width, c.x + c.w);
    depth = std::max(depth, c.z + c.d);
  }
  // Resume the preorder DFS; prefix nodes only refresh bookkeeping and
  // feed their cached geometry to their children.
  ++pack_epoch_;
  order_.resize(static_cast<std::size_t>(n));
  stack_.clear();
  stack_.push_back({root_, 0});
  int position = 0;
  while (!stack_.empty()) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::size_t sp = static_cast<std::size_t>(f.slot);
    const Slot& s = slots_[sp];
    if (pos_[sp] < keep) {
      const SlotPack c = packed_[sp];
      // TQEC_ASSERT is always-on in this repo; these cache-sanity checks
      // call footprint() for clean-prefix nodes — the very work the
      // incremental path exists to skip — so they are debug-only.
#ifndef NDEBUG
      TQEC_ASSERT(pos_[sp] == position && c.x == f.x,
                  "clean-prefix cache out of sync");
      TQEC_ASSERT(footprint(s.item).w == c.w && footprint(s.item).d == c.d,
                  "footprint changed without mark_item_dirty");
#endif
      order_[static_cast<std::size_t>(position)] = f.slot;
      ++position;
      if (s.right >= 0) stack_.push_back({s.right, c.x});
      if (s.left >= 0) stack_.push_back({s.left, c.x + c.w});
      continue;
    }
    const Footprint fp = footprint(s.item);
    TQEC_ASSERT(fp.w > 0 && fp.d > 0, "non-positive footprint");
    const int z = contour.max_in(f.x, f.x + fp.w);
    contour.set(f.x, f.x + fp.w, z + fp.d);
    packed_[sp] = {f.x, z, fp.w, fp.d};
    stamp_[sp] = pack_epoch_;
    delta_.repacked.push_back({s.item, f.x, z});
    width = std::max(width, f.x + fp.w);
    depth = std::max(depth, z + fp.d);
    pos_[sp] = position;
    order_[static_cast<std::size_t>(position)] = f.slot;
    ++position;
    if (s.right >= 0) stack_.push_back({s.right, f.x});
    if (s.left >= 0) stack_.push_back({s.left, f.x + fp.w});
  }
  TQEC_ASSERT(position == n, "preorder walk missed slots");
  width_ = width;
  depth_ = depth;
  delta_.width = width;
  delta_.depth = depth;
  dirty_from_ = kClean;
  pack_valid_ = true;
#ifndef NDEBUG
  {
    // Cross-check the incremental result against a stateless full pack.
    const PackResult full = pack(footprint);
    TQEC_ASSERT(full.width == width_ && full.depth == depth_,
                "incremental pack extents diverge from full pack");
    for (const PackedItem& p : full.placed) {
      const SlotPack& c =
          packed_[static_cast<std::size_t>(slot_of(p.item))];
      TQEC_ASSERT(c.x == p.x && c.z == p.z,
                  "incremental pack coordinates diverge from full pack");
    }
  }
#endif
  return delta_;
}

}  // namespace tqec::place
