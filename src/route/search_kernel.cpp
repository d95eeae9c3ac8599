#include "route/search_kernel.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace tqec::route {

Fabric::Fabric(const place::NodeSet& nodes, const place::Placement& placement,
               int margin)
    : box_(placement.core.inflated(margin)) {
  dims_ = box_.dims();
  TQEC_REQUIRE(cell_count() <= std::numeric_limits<std::uint32_t>::max(),
               "routing fabric exceeds 2^32 - 1 cells");
  const std::size_t n = cell_count();
  edge_mask_.assign(n, 0);
  usage_.assign(n, 0);
  capacity_.assign(n, 1);
  history_.assign(n, 0.0f);

  for (const geom::DistillBox& b : placement.boxes) {
    // Clamp the rasterized extent to the fabric: with a small routing
    // margin a box edge can poke outside the margin-inflated core, and an
    // unclamped loop would index outside the fabric.
    const Box3 e = b.extent();
    const Vec3 lo{std::max(e.lo.x, box_.lo.x), std::max(e.lo.y, box_.lo.y),
                  std::max(e.lo.z, box_.lo.z)};
    const Vec3 hi{std::min(e.hi.x, box_.hi.x), std::min(e.hi.y, box_.hi.y),
                  std::min(e.hi.z, box_.hi.z)};
    for (int x = lo.x; x <= hi.x; ++x)
      for (int y = lo.y; y <= hi.y; ++y)
        for (int z = lo.z; z <= hi.z; ++z)
          edge_mask_[index({x, y, z})] = kBlockedBit;
  }
  for (const Vec3& cell : placement.module_cell) {
    std::uint8_t& m = edge_mask_[index(cell)];
    m = static_cast<std::uint8_t>(m | kModuleBit);
  }

  // Pin capacity: a module loop accommodates one crossing per component
  // pinned to it (the loop is spatially extended in the paper's geometry;
  // our cell model charges it one unit per threading net).
  for (const auto& pins : nodes.net_pins)
    for (pdgraph::ModuleId m : pins) {
      std::uint16_t& cap =
          capacity_[index(placement.module_cell[static_cast<std::size_t>(m)])];
      cap = detail::counter_add(cap, +1);
    }
  for (std::size_t i = 0; i < n; ++i)
    if (is_module(i))  // base 1 was counted on top
      capacity_[i] = detail::counter_add(capacity_[i], -1);

  // Index deltas of kNeighbours under the (y, z, x) row-major layout.
  const std::ptrdiff_t dx = 1;
  const std::ptrdiff_t dz = static_cast<std::ptrdiff_t>(dims_.x);
  const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(dims_.z) * dims_.x;
  strides_ = {dx, -dx, dy, -dy, dz, -dz};

  // One sweep in storage order: a neighbour exists iff the loop
  // coordinate is off that face, and sits at i + stride(d).
  std::size_t i = 0;
  for (int y = 0; y < dims_.y; ++y)
    for (int z = 0; z < dims_.z; ++z)
      for (int x = 0; x < dims_.x; ++x, ++i) {
        const bool has[6] = {x + 1 < dims_.x, x > 0, y + 1 < dims_.y,
                             y > 0,           z + 1 < dims_.z, z > 0};
        std::uint8_t mask = edge_mask_[i];
        for (int d = 0; d < 6; ++d) {
          if (!has[d]) continue;
          const auto q = static_cast<std::size_t>(
              static_cast<std::ptrdiff_t>(i) + stride(d));
          if ((edge_mask_[q] & (kBlockedBit | kModuleBit)) == 0)
            mask = static_cast<std::uint8_t>(mask | (1u << d));
        }
        edge_mask_[i] = mask;
      }

  cost_.resize(n);
  for (std::size_t i = 0; i < n; ++i) refresh_cost(i);
}

int Fabric::set_present_factor(double present, float overuse_history) {
  present_factor_ = present;
  int overused = 0;
  for (std::size_t i = 0; i < cell_count(); ++i) {
    if (usage_[i] > capacity_[i]) {
      ++overused;
      history_[i] += overuse_history;
    }
    refresh_cost(i);
  }
  return overused;
}

bool Fabric::cost_plane_consistent() const {
  for (std::size_t i = 0; i < cell_count(); ++i)
    if (std::bit_cast<std::uint32_t>(cost_[i]) !=
        std::bit_cast<std::uint32_t>(cost_of(i)))
      return false;
  return true;
}

void Fabric::refresh_edges_into(std::size_t i) {
  const Vec3 p = cell_at(i);
  const bool passable = (edge_mask_[i] & (kBlockedBit | kModuleBit)) == 0;
  for (int d = 0; d < 6; ++d) {
    const Vec3 q = p + kNeighbours[static_cast<std::size_t>(d)];
    if (!inside(q)) continue;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (d ^ 1));
    std::uint8_t& m = edge_mask_[index(q)];
    m = passable ? static_cast<std::uint8_t>(m | bit)
                 : static_cast<std::uint8_t>(m & ~bit);
  }
}

void BucketQueue::rebase() {
  TQEC_ASSERT(!overflow_.empty(), "bucket queue drained with live entries");
  std::int64_t min_key = overflow_.front().key;
  for (const OverflowEntry& e : overflow_)
    min_key = std::min(min_key, e.key);
  base_ = min_key;
  cursor_ = min_key;
  std::size_t kept = 0;
  for (OverflowEntry& e : overflow_) {
    if (e.key < base_ + static_cast<std::int64_t>(kWindow)) {
      const std::size_t b = static_cast<std::size_t>(e.key - base_);
      if (buckets_[b].empty()) dirty_.push_back(b);
      buckets_[b].push_back({e.g, e.cell});
    } else {
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
}

namespace {

/// Admissible (and consistent) heuristic: Manhattan distance to the tree
/// bounding box.
float heuristic(Vec3 p, const Box3& tree_box) {
  auto axis = [](int v, int lo, int hi) {
    if (v < lo) return lo - v;
    if (v > hi) return v - hi;
    return 0;
  };
  return static_cast<float>(axis(p.x, tree_box.lo.x, tree_box.hi.x) +
                            axis(p.y, tree_box.lo.y, tree_box.hi.y) +
                            axis(p.z, tree_box.lo.z, tree_box.hi.z));
}

/// Direction bits (kNeighbours order) of the steps from p that stay inside
/// `region`, for a cell p inside it: each axis bound admits or drops one
/// direction.
std::uint8_t region_bits(Vec3 p, const Box3& region) {
  return static_cast<std::uint8_t>(
      (p.x < region.hi.x ? 1u : 0u) | (p.x > region.lo.x ? 2u : 0u) |
      (p.y < region.hi.y ? 4u : 0u) | (p.y > region.lo.y ? 8u : 0u) |
      (p.z < region.hi.z ? 16u : 0u) | (p.z > region.lo.z ? 32u : 0u));
}

/// Connect `source` to the partially built tree by A* restricted to
/// `region` (computed by the caller: the warm window or a ladder rung).
/// On success the backtracked path joins the tree (cells, box, tree
/// marks). Neighbour admission is one mask: the fabric's precomputed edge
/// mask OR the per-net own-pin overlay, AND the region bits of the popped
/// cell (every queued cell lies inside the region, so a step leaves it
/// only across one face). Set bits are walked in increasing direction, and
/// a neighbour costs two reads: the fabric's cost plane and its 8-byte
/// scratch record. The bucket queue pops the integer-keyed lower bound of
/// f, ties LIFO.
bool connect(const Fabric& fabric, SearchScratch& scratch, Vec3 source,
             const Box3& region, Box3& tree_box, SearchStats& stats) {
  ++stats.connects;
  const std::size_t source_idx = fabric.index(source);
  if (scratch.on_tree(source_idx)) return true;

  TQEC_ASSERT(region.contains(source), "search source outside its region");
  BucketQueue& open = scratch.open;
  open.reset();
  scratch.begin_search();
  scratch.set_g(source_idx, 0.0f, SearchScratch::kSource);
  open.push(static_cast<std::int64_t>(heuristic(source, tree_box)), 0.0f,
            static_cast<std::uint32_t>(source_idx));
  ++stats.queue_pushes;

  std::size_t goal = static_cast<std::size_t>(-1);
  while (!open.empty()) {
    const auto top = open.pop();
    ++stats.queue_pops;
    const std::size_t ci = top.cell;
    if (top.g > scratch.cells[ci].g) continue;  // stale entry
    if (scratch.on_tree(ci)) {
      goal = ci;
      break;
    }
    const Vec3 p = fabric.cell_at(ci);
    unsigned mask =
        static_cast<unsigned>(fabric.edge_mask(ci) | scratch.own(ci)) &
        region_bits(p, region);
    for (; mask != 0; mask &= mask - 1) {
      const int dir = std::countr_zero(mask);
      const std::size_t qi = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(ci) + fabric.stride(dir));
      const float ng = top.g + fabric.cost(qi);
      if (scratch.seen(qi) && ng >= scratch.cells[qi].g) continue;
      scratch.set_g(qi, ng, static_cast<std::uint32_t>(dir));
      const Vec3 q = p + kNeighbours[static_cast<std::size_t>(dir)];
      open.push(static_cast<std::int64_t>(ng + heuristic(q, tree_box)), ng,
                static_cast<std::uint32_t>(qi));
      ++stats.queue_pushes;
    }
  }
  if (goal == static_cast<std::size_t>(-1)) return false;

  // Backtrack from goal to source, adding the path to the tree.
  std::size_t cur = goal;
  for (;;) {
    if (!scratch.on_tree(cur)) {
      scratch.mark_tree(cur);
      scratch.tree_cells.push_back(cur);
      tree_box = tree_box.expanded(fabric.cell_at(cur));
    }
    const std::uint32_t dir = scratch.parent(cur);
    if (cur == source_idx || dir == SearchScratch::kSource) break;
    // parent = cell we came FROM: step back against the stored direction.
    const Vec3 p =
        fabric.cell_at(cur) - kNeighbours[static_cast<std::size_t>(dir)];
    cur = fabric.index(p);
  }
  return true;
}

/// The f-value planning (Fig. 15) assigns each chain module its access
/// cells: the free cells through which its dual segments exit. Rotated
/// nodes rotate the side; a cell claimed by a neighbouring structure drops
/// that constraint rather than failing.
std::vector<Vec3> access_cells_of(const Fabric& fabric,
                                  const place::NodeSet& nodes,
                                  const place::Placement& placement,
                                  pdgraph::ModuleId m) {
  std::vector<Vec3> cells;
  for (Vec3 off : nodes.access_offsets[static_cast<std::size_t>(m)]) {
    const int node = nodes.node_of_module[static_cast<std::size_t>(m)];
    if (!placement.node_rotated.empty() &&
        placement.node_rotated[static_cast<std::size_t>(node)])
      off = {off.z, off.y, off.x};
    const Vec3 cell = placement.module_cell[static_cast<std::size_t>(m)] + off;
    if (!fabric.inside(cell)) continue;
    const std::size_t i = fabric.index(cell);
    if (fabric.blocked(i) || fabric.is_module(i)) continue;
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

bool route_one_net(const Fabric& fabric, SearchScratch& scratch,
                   const place::NodeSet& nodes,
                   const place::Placement& placement,
                   const RouteOptions& options, int component,
                   const Box3& window, RoutedNet& out, SearchStats& stats) {
  const auto& pins = nodes.net_pins[static_cast<std::size_t>(component)];
  out.component = component;
  out.cells.clear();
  if (pins.empty()) return true;
  scratch.ensure(fabric.cell_count());

  // Own-pin overlay: extra edge-mask bits letting the search step INTO
  // this component's module cells (the shared mask excludes every module
  // cell; threading an own pin's loop is exactly what routing to it
  // means).
  scratch.begin_net();
  for (pdgraph::ModuleId m : pins) {
    const Vec3 pc = placement.module_cell[static_cast<std::size_t>(m)];
    const std::size_t pi = fabric.index(pc);
    if (fabric.blocked(pi)) continue;
    for (int d = 0; d < 6; ++d) {
      const Vec3 nq = pc + kNeighbours[static_cast<std::size_t>(d)];
      if (!fabric.inside(nq)) continue;
      scratch.add_own(fabric.index(nq),
                      static_cast<std::uint8_t>(1u << (d ^ 1)));
    }
  }

  // Access-cell constraints only bind components that span several
  // placement nodes: the f-value planning (Fig. 15) governs the dual
  // segments *leaving* a primal-bridging super-module, while a net wholly
  // inside one chain threads its module loops directly (Fig. 1(e)).
  bool spans_nodes = false;
  for (pdgraph::ModuleId m : pins)
    if (nodes.node_of_module[static_cast<std::size_t>(m)] !=
        nodes.node_of_module[static_cast<std::size_t>(pins.front())])
      spans_nodes = true;

  // Seed the tree at the first pin, then connect remaining pins nearest-
  // to-seed first; each pin's access cells join the tree right after it.
  struct PinEntry {
    Vec3 cell;
    std::vector<Vec3> access;
  };
  std::vector<PinEntry> entries;
  entries.reserve(pins.size());
  for (pdgraph::ModuleId m : pins)
    entries.push_back(
        {placement.module_cell[static_cast<std::size_t>(m)],
         spans_nodes ? access_cells_of(fabric, nodes, placement, m)
                     : std::vector<Vec3>{}});
  std::sort(entries.begin() + 1, entries.end(),
            [&](const PinEntry& a, const PinEntry& b) {
              return manhattan(a.cell, entries[0].cell) <
                     manhattan(b.cell, entries[0].cell);
            });

  scratch.tree_cells.clear();
  const std::size_t seed_idx = fabric.index(entries[0].cell);
  scratch.mark_tree(seed_idx);
  scratch.tree_cells.push_back(seed_idx);
  Box3 tree_box{entries[0].cell, entries[0].cell};

  auto connect_once = [&](Vec3 target, const Box3& region) {
    return connect(fabric, scratch, target, region, tree_box, stats);
  };
  auto connect_with_retries = [&](Vec3 target) {
    if (scratch.on_tree(fabric.index(target))) return true;
    if (!window.empty()) {
      // Warm attempt: the previous successful route's bounding box (plus
      // whatever the tree already grew to) is usually where the new route
      // fits too; fall through to the classic ladder when it does not.
      const Box3 region =
          tree_box.expanded(target).merged(window).inflated(1);
      if (connect_once(target, region)) {
        ++stats.window_hits;
        return true;
      }
      ++stats.window_misses;
    }
    int margin = options.region_margin;
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (connect_once(target, tree_box.expanded(target).inflated(margin)))
        return true;
      margin *= 4;
    }
    // Last resort: unrestricted search over the whole fabric.
    return connect_once(target, tree_box.expanded(target).inflated(1 << 24));
  };

  // Ports connect before their pin: the pin then attaches to the tree
  // through its (capacity-boosted) port instead of squeezing past a
  // neighbouring structure on the unboosted side.
  bool ok = true;
  for (const Vec3& cell : entries[0].access)
    ok = ok && connect_with_retries(cell);
  for (std::size_t i = 1; ok && i < entries.size(); ++i) {
    for (const Vec3& cell : entries[i].access)
      ok = ok && connect_with_retries(cell);
    ok = ok && connect_with_retries(entries[i].cell);
  }

  out.cells.reserve(scratch.tree_cells.size());
  for (std::size_t i : scratch.tree_cells)
    out.cells.push_back(fabric.cell_at(i));
  return ok;
}

}  // namespace tqec::route
