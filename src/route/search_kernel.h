// Per-net A* search kernel for the dual-defect router, factored out of the
// PathFinder negotiation loop so that
//   (a) the shared routing fabric (occupancy, history, capacities) is
//       cleanly separated from per-search scratch: a batch's members are
//       all searched against one frozen snapshot of the fabric (see
//       net_batcher.h and DESIGN.md §Routing);
//   (b) all per-search state (open queue storage, an 8-byte g/parent
//       record and a 1-byte own-pin/tree plane per cell) lives in one
//       reusable SearchScratch per routing run, so the hot loop performs
//       zero heap allocations after warm-up;
//   (c) the open list is a monotone bucket (Dial) queue keyed on the
//       integer lower bound of f — O(1) push/pop against a binary heap's
//       O(log n).
//
// A search treats the Fabric as read-only; all fabric mutation
// (occupy/vacate/history/present factor/hard blocks, and with them the
// cost plane) happens between searches. Searches are pure functions of
// (fabric snapshot, net, options).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"

namespace tqec::route {

inline constexpr std::array<Vec3, 6> kNeighbours{
    Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
    Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}};

/// Shared routing fabric: the lattice-cell grid spanning the placement
/// core plus a margin, with per-cell state laid out as parallel SoA arrays
/// (edge mask, usage, capacity, history, cost). The search hot loop reads
/// only two of them: the popped cell's edge mask and each admitted
/// neighbour's cost. Per-search state deliberately lives elsewhere
/// (SearchScratch).
///
/// The per-cell edge mask folds the 6-direction bounds/blocked/module
/// checks into one precomputed byte: bit d of edge_mask(i) is set iff the
/// neighbour i + kNeighbours[d] is inside the fabric, not blocked, and not
/// a module cell — i.e. generically passable. Own-pin module cells (legal
/// for the net being routed only) are layered on top per search via
/// SearchScratch's own-pin bits, so the shared mask never depends on which
/// net is searching. The two spare bits hold the cell's own blocked and
/// module flags. hard_block/unblock keep the masks in lockstep.
///
/// The cost plane holds each cell's PathFinder entry cost,
///   cost(i) = float(1 + history + present * max(0, usage - capacity + 1)),
/// evaluated in double and narrowed once, so a search adds exactly the
/// float it would have computed per neighbour. Every mutator of an input
/// (occupy, vacate, add_capacity, add_history, set_present_factor)
/// refreshes the cells it touches; all run on the negotiation thread, so
/// the plane is frozen during a batch's search phase.
class Fabric {
 public:
  /// Throws TqecError when the fabric would exceed UINT32_MAX cells (queue
  /// entries store 32-bit cell ids).
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
  /// Inverse of index(). Cell ids fit 32 bits (the constructor checks),
  /// so the divisions run in 32-bit arithmetic.
  Vec3 cell_at(std::size_t i) const {
    const auto c = static_cast<std::uint32_t>(i);
    const auto dx = static_cast<std::uint32_t>(dims_.x);
    const auto dz = static_cast<std::uint32_t>(dims_.z);
    const std::uint32_t rest = c / dx;
    return box_.lo + Vec3{static_cast<int>(c % dx), static_cast<int>(rest / dz),
                          static_cast<int>(rest % dz)};
  }

  /// Edge-mask bits above the six direction bits: the cell's own state.
  static constexpr std::uint8_t kBlockedBit = 0x40;
  static constexpr std::uint8_t kModuleBit = 0x80;

  bool blocked(std::size_t i) const {
    return (edge_mask_[i] & kBlockedBit) != 0;
  }
  void hard_block(std::size_t i) {
    edge_mask_[i] = static_cast<std::uint8_t>(edge_mask_[i] | kBlockedBit);
    refresh_edges_into(i);
  }
  /// Lift a hard block placed by the repair pass (never a box cell).
  void unblock(std::size_t i) {
    edge_mask_[i] = static_cast<std::uint8_t>(edge_mask_[i] & ~kBlockedBit);
    refresh_edges_into(i);
  }
  bool is_module(std::size_t i) const {
    return (edge_mask_[i] & kModuleBit) != 0;
  }

  /// Bits 0-5: bit d set iff i + kNeighbours[d] is inside, unblocked, and
  /// not a module cell; bits 6-7: kBlockedBit / kModuleBit of i itself.
  /// Stride(d) is the index delta of kNeighbours[d]; only valid to apply
  /// when the corresponding direction bit is set.
  std::uint8_t edge_mask(std::size_t i) const { return edge_mask_[i]; }
  std::ptrdiff_t stride(int dir) const {
    return strides_[static_cast<std::size_t>(dir)];
  }
  int usage(std::size_t i) const { return usage_[i]; }
  int capacity(std::size_t i) const { return capacity_[i]; }
  float history(std::size_t i) const { return history_[i]; }
  double present_factor() const { return present_factor_; }
  /// The cost a search pays to enter cell i.
  float cost(std::size_t i) const { return cost_[i]; }

  // Mutation is negotiation-thread-only; which nets sit on a cell is read
  // off the routes themselves (RoutingResult::nets), so the fabric keeps
  // no per-cell net lists.
  void occupy(std::size_t i) {
    usage_[i] = detail::counter_add(usage_[i], +1);
    refresh_cost(i);
  }
  void vacate(std::size_t i) {
    usage_[i] = detail::counter_add(usage_[i], -1);
    refresh_cost(i);
  }
  void add_capacity(std::size_t i, int d) {
    capacity_[i] = detail::counter_add(capacity_[i], d);
    refresh_cost(i);
  }
  void add_history(std::size_t i, float d) {
    history_[i] += d;
    refresh_cost(i);
  }
  /// Set the present-congestion factor and refresh the whole plane in one
  /// sweep, which first adds `overuse_history` to the history of every
  /// overused cell (usage > capacity): the router's per-iteration
  /// congestion pass. Returns the number of overused cells.
  int set_present_factor(double present, float overuse_history);

  /// Whether every cell's cost equals a fresh evaluation of its inputs
  /// (an O(cells) consistency check for debug builds).
  bool cost_plane_consistent() const;

  /// Capacity bytes of the per-cell planes: 13 per cell.
  std::size_t plane_bytes() const {
    return edge_mask_.capacity() * sizeof(std::uint8_t) +
           (usage_.capacity() + capacity_.capacity()) * sizeof(std::uint16_t) +
           (history_.capacity() + cost_.capacity()) * sizeof(float);
  }

 private:
  float cost_of(std::size_t i) const {
    double c = 1.0 + history_[i];
    const int over = usage_[i] - (capacity_[i] - 1);
    if (over > 0) c += present_factor_ * over;
    return static_cast<float>(c);
  }
  void refresh_cost(std::size_t i) { cost_[i] = cost_of(i); }

  /// Recompute the mask bits that point INTO cell i (one bit in each
  /// inside neighbour) after its blocked state changed.
  void refresh_edges_into(std::size_t i);

  Box3 box_;
  Vec3 dims_;
  std::vector<std::uint8_t> edge_mask_;
  std::vector<std::uint16_t> usage_;
  std::vector<std::uint16_t> capacity_;
  std::vector<float> history_;
  std::vector<float> cost_;
  double present_factor_ = kPresentBase;
  std::array<std::ptrdiff_t, 6> strides_{};
};

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

  /// Capacity bytes of the retained bucket, dirty-list and overflow storage.
  std::size_t capacity_bytes() const {
    std::size_t bytes = buckets_.capacity() * sizeof(std::vector<Entry>) +
                        dirty_.capacity() * sizeof(std::size_t) +
                        overflow_.capacity() * sizeof(OverflowEntry);
    for (const std::vector<Entry>& b : buckets_)
      bytes += b.capacity() * sizeof(Entry);
    return bytes;
  }

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

/// A*-queue traffic of one or more searches; a routing run accumulates
/// all of its searches into one.
struct SearchStats {
  std::int64_t queue_pushes = 0;
  std::int64_t queue_pops = 0;
  /// connect() calls: one per restricted A* search (ladder rungs and warm
  /// attempts count separately).
  std::int64_t connects = 0;
  /// Warm-window first attempts that succeeded / fell through to the
  /// classic margin ladder.
  std::int64_t window_hits = 0;
  std::int64_t window_misses = 0;
};

/// Search scratch of one routing run: the open queue plus two per-cell
/// planes, reused across every search the run makes. The retained capacity
/// makes steady-state searches allocation-free.
///
/// `cells` is the hot record, the only scratch state a search reads per
/// admitted neighbour: g and a tag of search_epoch << 3 | entry direction
/// (a kNeighbours index, or kSource at the search source). A record's g and
/// direction are valid iff its tag's epoch equals search_epoch, so a new
/// search is an O(1) epoch bump. The epoch wraps at kMaxEpoch, and the wrap
/// clears every tag, so a stale tag can never alias a fresh epoch.
///
/// `net` is the per-net plane: own-pin direction bits (kOwnBits) OR-ed onto
/// Fabric::edge_mask in the hot loop, and the tree flag (kTreeBit). Every
/// cell given a bit is listed in `net_cells`, and begin_net clears exactly
/// those, so starting a net costs what the previous one touched.
struct SearchScratch {
  struct Cell {
    float g;
    std::uint32_t tag;
  };
  static_assert(sizeof(Cell) == 8);
  static constexpr std::uint32_t kSource = 7;
  static constexpr std::uint32_t kMaxEpoch = (1u << 29) - 1;
  static constexpr std::uint8_t kOwnBits = 0x3f;
  static constexpr std::uint8_t kTreeBit = 0x80;

  BucketQueue open;
  std::vector<Cell> cells;
  std::vector<std::uint8_t> net;
  std::uint32_t search_epoch = 0;
  /// Cells whose `net` byte the current net has set (fabric indices).
  std::vector<std::uint32_t> net_cells;
  /// Tree cells of the net currently being routed (fabric indices).
  std::vector<std::size_t> tree_cells;

  /// Size the planes for a fabric of `n` cells (idempotent).
  void ensure(std::size_t n) {
    if (cells.size() == n) return;
    cells.assign(n, Cell{0.0f, 0});
    net.assign(n, 0);
    net_cells.clear();
    search_epoch = 0;
  }

  /// Capacity bytes of the per-cell planes: 9 per cell.
  std::size_t plane_bytes() const {
    return cells.capacity() * sizeof(Cell) + net.capacity();
  }

  void begin_search() {
    if (search_epoch == kMaxEpoch) {
      for (Cell& c : cells) c.tag = 0;
      search_epoch = 0;
    }
    ++search_epoch;
  }
  bool seen(std::size_t i) const {
    return cells[i].tag >> 3 == search_epoch;
  }
  void set_g(std::size_t i, float v, std::uint32_t parent_dir) {
    cells[i] = Cell{v, search_epoch << 3 | parent_dir};
  }
  /// Direction the current search entered cell i by; kSource at its source.
  std::uint32_t parent(std::size_t i) const { return cells[i].tag & 7u; }

  /// Start a new net: forget every tree mark and own-pin bit.
  void begin_net() {
    for (const std::uint32_t i : net_cells) net[i] = 0;
    net_cells.clear();
  }
  bool on_tree(std::size_t i) const { return (net[i] & kTreeBit) != 0; }
  void mark_tree(std::size_t i) { set_net_bits(i, kTreeBit); }
  void add_own(std::size_t i, std::uint8_t bits) { set_net_bits(i, bits); }
  std::uint8_t own(std::size_t i) const {
    return static_cast<std::uint8_t>(net[i] & kOwnBits);
  }

 private:
  void set_net_bits(std::size_t i, std::uint8_t bits) {
    if (net[i] == 0) net_cells.push_back(static_cast<std::uint32_t>(i));
    net[i] = static_cast<std::uint8_t>(net[i] | bits);
  }
};

/// Route one merged net component as a Steiner tree over the fabric
/// snapshot: pins join the partially built tree one at a time by A* within
/// a restricted region — the warm `window` first (when non-empty; an empty
/// box is a cold search), then the classic failure-inflated margin ladder.
/// Pure function of (fabric, nodes, placement, options, component,
/// window) — the fabric, whose cost plane carries the history and present
/// costs, is only read. Returns false when some pin could not be connected
/// even by an unrestricted search; `out.cells` then holds the partial
/// tree. Queue traffic is accumulated into `stats`.
bool route_one_net(const Fabric& fabric, SearchScratch& scratch,
                   const place::NodeSet& nodes,
                   const place::Placement& placement,
                   const RouteOptions& options, int component,
                   const Box3& window, RoutedNet& out, SearchStats& stats);

}  // namespace tqec::route
