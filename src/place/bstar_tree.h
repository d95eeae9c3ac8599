// B*-tree floorplan representation (Chang et al., DAC'00), the per-layer
// building block of the 2.5D placement of Falkenstern et al. (paper [4])
// used in the module-placement stage (Sec. 3.5).
//
// A B*-tree encodes a compacted (admissible) placement of rectangles on a
// plane: the preorder root sits at the origin, a left child abuts its
// parent's right edge (x = parent.x + parent.w), a right child shares its
// parent's x, and every rectangle drops onto the packing contour. Packing
// keeps the contour as one height per x column, so a rectangle costs its
// own width in both the drop and the raise.
//
// The tree stores *items* (global placement-node ids); the simulated-
// annealing engine owns several trees (one per 2.5D layer) and moves items
// between them. All structural perturbations take an Rng for reproducible
// randomness.
//
// Incremental packing. Besides the stateless `pack()`, the tree keeps a
// coordinate cache and a preorder dirty watermark so `pack_update()` can
// repack only the suffix a perturbation disturbed:
//
//  - Every mutator records the earliest preorder position it can affect in
//    `dirty_from`. Positions strictly before the watermark keep their
//    slot, footprint, and coordinates, because a B*-tree packs in preorder
//    and a node's position depends only on the nodes packed before it.
//  - `pack_update()` walks the preorder DFS once: cached prefix nodes
//    replay their contour raises (raises are deterministic given their
//    arguments, so replay reproduces the exact contour state) and feed
//    their cached coordinates to their children; real packing work is
//    done only for suffix nodes. The repacked suffix is returned
//    as a delta so callers can update downstream state proportionally to
//    the disturbance, not the layer size.
//  - Cached positions of suffix slots may be stale between packs; the
//    watermark update rule `min(dirty_from, stale_pos)` stays sound
//    because the prefix slot set is invariant between packs: a stale
//    position below the watermark implies the slot really is at that
//    position (and vice versa).
//
// Snapshots. `save()` copies the tree's state into a Snapshot and
// `restore()` puts it back. A snapshot leaves out the item -> slot index,
// which is sized to the largest item id rather than to the tree; restore
// rebuilds the index entries of the items involved, in O(tree size).
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

namespace detail {

/// Packing contour: the height of every x column, stored densely. Columns
/// at or past `used_` are known to be at ground level, so a reset clears
/// only the columns the last pack raised.
class Contour {
 public:
  void reset() {
    std::fill(heights_.begin(), heights_.begin() + used_, 0);
    used_ = 0;
  }

  /// Max height over [x0, x1).
  int max_in(int x0, int x1) const {
    const int end = std::min(x1, used_);
    int best = 0;
    for (int x = x0; x < end; ++x)
      best = std::max(best, heights_[static_cast<std::size_t>(x)]);
    return best;
  }

  /// Raise [x0, x1) to height h.
  void set(int x0, int x1, int h) {
    TQEC_ASSERT(x0 >= 0 && x1 > x0, "bad contour span");
    if (static_cast<std::size_t>(x1) > heights_.size())
      heights_.resize(static_cast<std::size_t>(x1), 0);
    std::fill(heights_.begin() + x0, heights_.begin() + x1, h);
    used_ = std::max(used_, x1);
  }

 private:
  std::vector<int> heights_;
  int used_ = 0;
};

}  // namespace detail

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

 private:
  struct Slot {
    int item = -1;
    int parent = -1;
    int left = -1;   // placed at parent.x + parent.w
    int right = -1;  // placed at parent.x
  };

  /// Cached packed rectangle of one slot.
  struct SlotPack {
    int x = 0;
    int z = 0;
    int w = 0;
    int d = 0;
  };

  /// Everything a tree is apart from its item index and packing scratch.
  struct State {
    std::vector<Slot> slots;
    std::vector<int> items;  // dense item list (for random pick)
    int root = -1;
    int last_inserted = -1;
    // ---- incremental packing cache (parallel to slots) ----
    std::vector<SlotPack> packed;  // coordinates at last repack
    std::vector<int> pos;          // preorder position at last pack
    std::vector<int> order;        // preorder position -> slot index
    int width = 0;
    int depth = 0;
    int dirty_from = 0;       // first possibly-affected preorder position
    bool pack_valid = false;  // cache initialized by some pack_update()
  };

 public:
  /// A saved tree state; see the header comment.
  class Snapshot {
    friend class BStarTree;
    State state_;
  };

  int size() const { return static_cast<int>(state_.slots.size()); }
  bool empty() const { return state_.slots.empty(); }
  bool contains(int item) const;
  const std::vector<int>& items() const { return state_.items; }

  /// Copy the tree into `out`, reusing its buffers.
  void save(Snapshot& out) const { out.state_ = state_; }
  /// Return to a saved state, which `in` gives up (its contents are left
  /// unspecified until the next save into it).
  void restore(Snapshot&& in);

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
  bool pack_cache_clean() const {
    return state_.pack_valid && state_.dirty_from == kClean;
  }
  int packed_x(int item) const;
  int packed_z(int item) const;
  int packed_width() const;
  int packed_depth() const;

  /// Structural self-check (parent/child symmetry, single root, item map).
  void check_invariants() const;

 private:
  static constexpr int kClean = std::numeric_limits<int>::max();

  int slot_of(int item) const;
  void index_item(int item, int slot);
  void replace_child(int parent, int old_slot, int new_slot);
  void erase_slot(int slot);
  void add_slot(int item);
  /// Lower the dirty watermark to `pos` (a preorder position).
  void mark_dirty_at(int pos) {
    if (pos < state_.dirty_from) state_.dirty_from = pos;
  }
  /// Lower the watermark to just below a parent slot (new-child insert).
  void mark_dirty_below(int parent_slot) {
    if (!state_.pack_valid) return;
    const int p = state_.pos[static_cast<std::size_t>(parent_slot)];
    if (p < state_.dirty_from) state_.dirty_from = p + 1;
  }
  void mark_dirty_slot(int slot) {
    if (!state_.pack_valid) return;
    mark_dirty_at(state_.pos[static_cast<std::size_t>(slot)]);
  }

  State state_;
  std::vector<int> slot_of_item_;  // item id -> slot index (-1 absent)

  // ---- packing scratch (not part of the logical state; never copied) ----
  struct Frame {
    int slot;
    int x;
  };
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch&) {}
    Scratch& operator=(const Scratch&) { return *this; }
    Scratch(Scratch&&) = default;
    Scratch& operator=(Scratch&&) = default;

    detail::Contour contour;
    std::vector<Frame> stack;
    PackDelta delta;
  };
  Scratch scratch_;
};

// ---- implementation of the packing templates ----

template <typename FootprintFn>
PackResult BStarTree::pack(FootprintFn&& footprint) const {
  PackResult result;
  if (state_.root < 0) return result;

  detail::Contour contour;
  // Preorder DFS with explicit stack of (slot, x).
  std::vector<Frame> stack{{state_.root, 0}};
  result.placed.reserve(state_.slots.size());
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Slot& s = state_.slots[static_cast<std::size_t>(f.slot)];
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
  State& st = state_;
  PackDelta& delta = scratch_.delta;
  delta.repacked.clear();
  const int n = size();
  if (st.root < 0) {
    st.order.clear();
    st.width = st.depth = 0;
    delta.width = delta.depth = 0;
    st.dirty_from = kClean;
    st.pack_valid = true;
    return delta;
  }
  const int from = st.pack_valid ? st.dirty_from : 0;
  if (from == kClean) {
    // Nothing changed since the last pack; extents stay cached.
    delta.width = st.width;
    delta.depth = st.depth;
    return delta;
  }
  // Preorder positions [0, keep) kept their slots, footprints, and
  // coordinates. One preorder DFS visits them first, in position order:
  // each replays its contour raise verbatim (a raise is a pure function of
  // its arguments and prior state, so the replayed contour is
  // bit-identical to the original one at position `keep`) and feeds its
  // cached geometry to its children; suffix nodes then pack for real.
  const int keep = std::min(from, n);
  detail::Contour& contour = scratch_.contour;
  contour.reset();
  int width = 0;
  int depth = 0;
  st.order.resize(static_cast<std::size_t>(n));
  std::vector<Frame>& stack = scratch_.stack;
  stack.clear();
  stack.push_back({st.root, 0});
  int position = 0;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const std::size_t sp = static_cast<std::size_t>(f.slot);
    const Slot& s = st.slots[sp];
    if (st.pos[sp] < keep) {
      const SlotPack c = st.packed[sp];
      // TQEC_ASSERT is always-on in this repo; these cache-sanity checks
      // call footprint() for clean-prefix nodes — the very work the
      // incremental path exists to skip — so they are debug-only.
#ifndef NDEBUG
      TQEC_ASSERT(st.pos[sp] == position && c.x == f.x,
                  "clean-prefix cache out of sync");
      TQEC_ASSERT(footprint(s.item).w == c.w && footprint(s.item).d == c.d,
                  "footprint changed without mark_item_dirty");
#endif
      contour.set(c.x, c.x + c.w, c.z + c.d);
      width = std::max(width, c.x + c.w);
      depth = std::max(depth, c.z + c.d);
      st.order[static_cast<std::size_t>(position)] = f.slot;
      ++position;
      if (s.right >= 0) stack.push_back({s.right, c.x});
      if (s.left >= 0) stack.push_back({s.left, c.x + c.w});
      continue;
    }
    const Footprint fp = footprint(s.item);
    TQEC_ASSERT(fp.w > 0 && fp.d > 0, "non-positive footprint");
    const int z = contour.max_in(f.x, f.x + fp.w);
    contour.set(f.x, f.x + fp.w, z + fp.d);
    st.packed[sp] = {f.x, z, fp.w, fp.d};
    delta.repacked.push_back({s.item, f.x, z});
    width = std::max(width, f.x + fp.w);
    depth = std::max(depth, z + fp.d);
    st.pos[sp] = position;
    st.order[static_cast<std::size_t>(position)] = f.slot;
    ++position;
    if (s.right >= 0) stack.push_back({s.right, f.x});
    if (s.left >= 0) stack.push_back({s.left, f.x + fp.w});
  }
  TQEC_ASSERT(position == n, "preorder walk missed slots");
  st.width = width;
  st.depth = depth;
  delta.width = width;
  delta.depth = depth;
  st.dirty_from = kClean;
  st.pack_valid = true;
#ifndef NDEBUG
  {
    // Cross-check the incremental result against a stateless full pack.
    const PackResult full = pack(footprint);
    TQEC_ASSERT(full.width == st.width && full.depth == st.depth,
                "incremental pack extents diverge from full pack");
    for (const PackedItem& p : full.placed) {
      const SlotPack& c = st.packed[static_cast<std::size_t>(slot_of(p.item))];
      TQEC_ASSERT(c.x == p.x && c.z == p.z,
                  "incremental pack coordinates diverge from full pack");
    }
  }
#endif
  return delta;
}

}  // namespace tqec::place
