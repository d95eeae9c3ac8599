// Per-net A* search kernel for the dual-defect router, factored out of the
// PathFinder negotiation loop so that
//   (a) the shared routing fabric (occupancy, history, capacities) is
//       cleanly separated from per-search scratch — a prerequisite for
//       routing spatially disjoint nets concurrently against a read
//       snapshot of the fabric (see net_batcher.h and DESIGN.md §Routing);
//   (b) all per-search state (open queue storage, g/parent/tree stamp
//       arrays) lives in a reusable per-worker SearchScratch, so the hot
//       loop performs zero heap allocations after warm-up;
//   (c) the open list is a monotone bucket (Dial) queue keyed on the
//       integer lower bound of f — O(1) push/pop against a binary heap's
//       O(log n).
//
// Thread-safety contract: during a batch's search phase every worker holds
// a distinct SearchScratch and treats the Fabric as read-only; all fabric
// mutation (occupy/vacate/history/hard blocks) happens on the negotiation
// thread between search phases. Searches are pure functions of
// (fabric snapshot, net, options), which is what makes the batched
// schedule's results independent of the worker count.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"

namespace tqec::route {

inline constexpr std::array<Vec3, 6> kNeighbours{
    Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
    Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}};

namespace detail {

/// Advance a stamp epoch. Epochs turn per-search clears into O(1) (a cell
/// is "set" iff its stamp equals the current epoch); on the
/// (astronomically rare) wrap the backing array is cleared so stale stamps
/// can never alias a fresh epoch.
inline void bump_epoch(int& epoch, std::vector<int>& stamps) {
  if (epoch == std::numeric_limits<int>::max()) {
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 0;
  }
  ++epoch;
}

}  // namespace detail

/// Shared routing fabric: the lattice-cell grid spanning the placement
/// core plus a margin, with per-cell obstacle, capacity, usage, and
/// history state laid out as parallel SoA arrays (the search hot loop
/// touches blocked/module/usage/capacity/history; keeping each in its own
/// dense array maximizes cache-line utility for the 6-neighbour
/// scans). Per-search state deliberately lives elsewhere (SearchScratch).
///
/// The per-cell edge mask folds the 6-direction bounds/blocked/module
/// checks into one precomputed byte: bit d of edge_mask(i) is set iff the
/// neighbour i + kNeighbours[d] is inside the fabric, not blocked, and not
/// a module cell — i.e. generically passable. Own-pin module cells (legal
/// for the net being routed only) are layered on top per search via
/// SearchScratch's extra mask, so the shared mask never depends on which
/// net is searching. hard_block/unblock keep the masks in lockstep.
class Fabric {
 public:
  Fabric(const place::NodeSet& nodes, const place::Placement& placement,
         int margin);

  std::size_t cell_count() const {
    return static_cast<std::size_t>(dims_.x) * dims_.y * dims_.z;
  }
  const Box3& box() const { return box_; }
  bool inside(Vec3 p) const { return box_.contains(p); }

  std::size_t index(Vec3 p) const {
    TQEC_ASSERT(inside(p), "cell outside routing fabric");
    const Vec3 rel = p - box_.lo;
    return (static_cast<std::size_t>(rel.y) * dims_.z + rel.z) * dims_.x +
           rel.x;
  }
  Vec3 cell_at(std::size_t i) const {
    const int x = static_cast<int>(i % static_cast<std::size_t>(dims_.x));
    const std::size_t rest = i / static_cast<std::size_t>(dims_.x);
    const int z = static_cast<int>(rest % static_cast<std::size_t>(dims_.z));
    const int y = static_cast<int>(rest / static_cast<std::size_t>(dims_.z));
    return box_.lo + Vec3{x, y, z};
  }

  bool blocked(std::size_t i) const { return blocked_[i] != 0; }
  void hard_block(std::size_t i) {
    blocked_[i] = 1;
    refresh_edges_into(i);
  }
  /// Lift a hard block placed by the repair pass (never a box cell).
  void unblock(std::size_t i) {
    blocked_[i] = 0;
    refresh_edges_into(i);
  }
  int module_at(std::size_t i) const { return module_at_[i]; }

  /// Bit d set iff i + kNeighbours[d] is inside, unblocked, and not a
  /// module cell. Stride(d) is the index delta of kNeighbours[d]; only
  /// valid to apply when the corresponding mask bit is set.
  std::uint8_t edge_mask(std::size_t i) const { return edge_mask_[i]; }
  std::ptrdiff_t stride(int dir) const {
    return strides_[static_cast<std::size_t>(dir)];
  }
  int usage(std::size_t i) const { return usage_[i]; }
  int capacity(std::size_t i) const { return capacity_[i]; }
  void add_capacity(std::size_t i, int d) {
    capacity_[i] = detail::counter_add(capacity_[i], d);
  }
  float& history(std::size_t i) { return history_[i]; }
  float history(std::size_t i) const { return history_[i]; }

  // Occupancy counters. Mutation is negotiation-thread-only; which nets
  // sit on a cell is read off the routes themselves (RoutingResult::nets),
  // so the fabric keeps no per-cell net lists.
  void occupy(std::size_t i) {
    usage_[i] = detail::counter_add(usage_[i], +1);
  }
  void vacate(std::size_t i) {
    usage_[i] = detail::counter_add(usage_[i], -1);
  }

 private:
  /// Recompute the mask bits that point INTO cell i (one bit in each
  /// inside neighbour) after its blocked state changed.
  void refresh_edges_into(std::size_t i);

  Box3 box_;
  Vec3 dims_;
  std::vector<std::uint8_t> blocked_;
  std::vector<int> module_at_;
  std::vector<std::uint16_t> usage_;
  std::vector<std::uint16_t> capacity_;
  std::vector<float> history_;
  std::vector<std::uint8_t> edge_mask_;
  std::array<std::ptrdiff_t, 6> strides_{};
};

/// Global obstacle-aware reachability labeling: every cell that is free at
/// build time (unblocked, no module) gets the id of its 6-connected
/// free-space component; module and box cells get -1. One O(fabric) BFS
/// shared by every net — the per-component lookahead below reduces to a
/// label-set membership test, so the whole lookahead layer costs
/// milliseconds instead of a per-component window BFS.
struct ReachMap {
  std::vector<std::int32_t> label;  // per fabric cell, -1 = not free
  std::int32_t labels = 0;
};

/// Label the fabric's build-time free space. Reads only build-time state
/// (obstacles and module cells, never usage/history); must run before any
/// repair hard block is placed.
ReachMap build_reach_map(const Fabric& fabric);

/// Per-component lookahead: the cells connected to the component's tree
/// seed (its first pin) in the build-time passable graph — free cells plus
/// the component's own pin cells, which bridge free-space pockets. Because
/// free-space labels are maximal, the connected set is a closure over a
/// tiny bipartite graph of labels and own pins (a label is entered only
/// through an own pin, a pin only from an adjacent label or pin), so it is
/// computed in O(pins) and queried in O(1): a search source outside the
/// closure provably cannot reach the tree in ANY region, so its connect —
/// the whole region-exhausting flood plus ladder escalation a doomed
/// classic search would run — collapses to one lookup. A source inside
/// the closure can, by the same maximality argument, never expand a cell
/// outside it, so no per-cell pruning is needed (or possible): the live
/// search is untouched and routes are bit-identical to a search without
/// the lookahead (DESIGN.md §Routing gives the argument).
struct LookaheadMap {
  std::vector<std::uint8_t> label_reachable;  // indexed by ReachMap label
  /// Sorted fabric indices of the own pin cells inside the closure.
  std::vector<std::size_t> own;

  /// True when a search for this component starting at fabric cell `fi`
  /// (free cell or own pin cell) could ever reach the tree.
  bool reachable(const ReachMap& reach, std::size_t fi) const {
    const std::int32_t l = reach.label[fi];
    if (l >= 0) return label_reachable[static_cast<std::size_t>(l)] != 0;
    return std::binary_search(own.begin(), own.end(), fi);
  }
};

/// Build a component's lookahead from the shared reach map: O(pins), reads
/// only build-time fabric state, so per-component builds can run
/// concurrently.
LookaheadMap build_lookahead(const Fabric& fabric, const ReachMap& reach,
                             const place::NodeSet& nodes,
                             const place::Placement& placement, int component);

/// Monotone bucket (Dial) queue: entries are keyed on the integer lower
/// bound of their f-value, popped lowest-bucket-first, LIFO within a
/// bucket (deterministic, and ties broken toward larger g reach the goal
/// sooner). Pop keys never decrease — guaranteed by the consistent
/// heuristic (every edge costs >= 1 while h drops by <= 1 per step); a
/// push below the current pop front is clamped to it as float-rounding
/// defense. Keys more than kWindow above the current base park in an
/// overflow tier (PathFinder present-costs reach 1e9, far beyond any
/// dense array) and are redistributed when the window drains. All storage
/// is retained across reset() so steady-state searches allocate nothing.
class BucketQueue {
 public:
  struct Entry {
    float g;
    std::uint32_t cell;
  };

  void reset() {
    for (const std::size_t b : dirty_) buckets_[b].clear();
    dirty_.clear();
    overflow_.clear();
    live_ = 0;
    base_ = 0;
    cursor_ = 0;
    primed_ = false;
  }

  void push(std::int64_t key, float g, std::uint32_t cell) {
    if (!primed_) {
      base_ = key;
      cursor_ = key;
      primed_ = true;
    }
    if (key < cursor_) key = cursor_;  // float-rounding defense
    ++live_;
    if (key >= base_ + static_cast<std::int64_t>(kWindow)) {
      overflow_.push_back({key, g, cell});
      return;
    }
    const std::size_t b = static_cast<std::size_t>(key - base_);
    if (buckets_[b].empty()) dirty_.push_back(b);
    buckets_[b].push_back({g, cell});
  }

  bool empty() const { return live_ == 0; }

  Entry pop() {
    --live_;
    for (;;) {
      while (cursor_ < base_ + static_cast<std::int64_t>(kWindow)) {
        auto& bucket = buckets_[static_cast<std::size_t>(cursor_ - base_)];
        if (!bucket.empty()) {
          const Entry e = bucket.back();
          bucket.pop_back();
          return e;
        }
        ++cursor_;
      }
      rebase();
    }
  }

 private:
  /// The dense window drained into the overflow tier: rebase the window at
  /// the smallest parked key and redistribute what now fits. Entries keep
  /// their relative order (stable partition), so results do not depend on
  /// how often rebasing happens.
  void rebase();

  static constexpr std::size_t kWindow = 2048;
  struct OverflowEntry {
    std::int64_t key;
    float g;
    std::uint32_t cell;
  };
  std::vector<std::vector<Entry>> buckets_ =
      std::vector<std::vector<Entry>>(kWindow);
  std::vector<std::size_t> dirty_;
  std::vector<OverflowEntry> overflow_;
  std::size_t live_ = 0;
  std::int64_t base_ = 0;
  std::int64_t cursor_ = 0;
  bool primed_ = false;
};

/// A*-queue traffic of one or more searches; summed into the routing
/// result on the negotiation thread in deterministic net order, so the
/// totals are identical for any worker count.
struct SearchStats {
  std::int64_t queue_pushes = 0;
  std::int64_t queue_pops = 0;
  /// connect() calls that used the obstacle-aware lookahead term.
  std::int64_t lookahead_connects = 0;
  /// Warm-window first attempts that succeeded / fell through to the
  /// classic margin ladder.
  std::int64_t window_hits = 0;
  std::int64_t window_misses = 0;

  SearchStats& operator+=(const SearchStats& o) {
    queue_pushes += o.queue_pushes;
    queue_pops += o.queue_pops;
    lookahead_connects += o.lookahead_connects;
    window_hits += o.window_hits;
    window_misses += o.window_misses;
    return *this;
  }
};

/// Per-worker search scratch: open queue plus the g/parent/tree/extra-
/// mask stamp arrays. One instance per routing worker, reused across every
/// search that worker runs; epoch stamps make per-search clears O(1) and
/// the retained capacity makes them allocation-free.
struct SearchScratch {
  BucketQueue open;
  std::vector<float> g;
  std::vector<int> g_version;
  std::vector<std::int8_t> parent;
  std::vector<int> tree_version;
  /// Per-net edge-mask overlay: extra passable-direction bits (own-pin
  /// module cells) OR-ed onto Fabric::edge_mask in the hot loop.
  std::vector<std::uint8_t> extra_mask;
  std::vector<int> extra_version;
  int search_epoch = 0;
  int tree_epoch = 0;
  int extra_epoch = 0;
  /// Tree cells of the net currently being routed (fabric indices).
  std::vector<std::size_t> tree_cells;

  /// Size the arrays for a fabric of `cells` cells (idempotent).
  void ensure(std::size_t cells) {
    if (g.size() == cells) return;
    g.assign(cells, 0.0f);
    g_version.assign(cells, 0);
    parent.assign(cells, -1);
    tree_version.assign(cells, 0);
    extra_mask.assign(cells, 0);
    extra_version.assign(cells, 0);
    search_epoch = tree_epoch = extra_epoch = 0;
  }

  void begin_search() { detail::bump_epoch(search_epoch, g_version); }
  bool seen(std::size_t i) const { return g_version[i] == search_epoch; }
  void set_g(std::size_t i, float v, int parent_dir) {
    g[i] = v;
    g_version[i] = search_epoch;
    parent[i] = static_cast<std::int8_t>(parent_dir);
  }

  void begin_tree() { detail::bump_epoch(tree_epoch, tree_version); }
  bool on_tree(std::size_t i) const { return tree_version[i] == tree_epoch; }
  void mark_tree(std::size_t i) { tree_version[i] = tree_epoch; }

  void begin_extra() { detail::bump_epoch(extra_epoch, extra_version); }
  void add_extra(std::size_t i, std::uint8_t bits) {
    if (extra_version[i] != extra_epoch) {
      extra_mask[i] = 0;
      extra_version[i] = extra_epoch;
    }
    extra_mask[i] = static_cast<std::uint8_t>(extra_mask[i] | bits);
  }
  std::uint8_t extra(std::size_t i) const {
    return extra_version[i] == extra_epoch ? extra_mask[i] : 0;
  }
};

/// Per-component routing context handed to route_one_net by the
/// negotiation loop: the lookahead — shared reach map plus the component's
/// closure, both set or both null (no lookahead) — and the warm search
/// window for the first connect attempt (empty box = cold, ladder only).
struct NetContext {
  const ReachMap* reach = nullptr;
  const LookaheadMap* lookahead = nullptr;
  Box3 window;
};

/// Route one merged net component as a Steiner tree over the fabric
/// snapshot: pins join the partially built tree one at a time by A* within
/// a restricted region — the warm window from `ctx` first (when set), then
/// the classic failure-inflated margin ladder. Pure function of
/// (fabric, nodes, placement, options, component, present_factor, ctx) —
/// the fabric is only read. Returns false when some pin could not be
/// connected even by an unrestricted search; `out.cells` then holds the
/// partial tree. Queue traffic is accumulated into `stats`.
bool route_one_net(const Fabric& fabric, SearchScratch& scratch,
                   const place::NodeSet& nodes,
                   const place::Placement& placement,
                   const RouteOptions& options, int component,
                   double present_factor, const NetContext& ctx,
                   RoutedNet& out, SearchStats& stats);

}  // namespace tqec::route
