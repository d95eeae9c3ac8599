#include "route/search_kernel.h"

#include <cmath>

namespace tqec::route {

Fabric::Fabric(const place::NodeSet& nodes, const place::Placement& placement,
               int margin)
    : box_(placement.core.inflated(margin)) {
  dims_ = box_.dims();
  const std::size_t n = cell_count();
  blocked_.assign(n, 0);
  module_at_.assign(n, -1);
  usage_.assign(n, 0);
  capacity_.assign(n, 1);
  history_.assign(n, 0.0f);
  nets_at_.assign(n, {});

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
          blocked_[index({x, y, z})] = 1;
  }
  for (std::size_t m = 0; m < placement.module_cell.size(); ++m)
    module_at_[index(placement.module_cell[m])] = static_cast<int>(m);

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
    if (module_at_[i] >= 0)  // base 1 was counted on top
      capacity_[i] = detail::counter_add(capacity_[i], -1);

  // Index deltas of kNeighbours under the (y, z, x) row-major layout.
  const std::ptrdiff_t dx = 1;
  const std::ptrdiff_t dz = static_cast<std::ptrdiff_t>(dims_.x);
  const std::ptrdiff_t dy = static_cast<std::ptrdiff_t>(dims_.z) * dims_.x;
  strides_ = {dx, -dx, dy, -dy, dz, -dz};

  edge_mask_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 p = cell_at(i);
    std::uint8_t mask = 0;
    for (int d = 0; d < 6; ++d) {
      const Vec3 q = p + kNeighbours[static_cast<std::size_t>(d)];
      if (!inside(q)) continue;
      const std::size_t qi = index(q);
      if (blocked_[qi] == 0 && module_at_[qi] < 0)
        mask = static_cast<std::uint8_t>(mask | (1u << d));
    }
    edge_mask_[i] = mask;
  }
}

void Fabric::refresh_edges_into(std::size_t i) {
  const Vec3 p = cell_at(i);
  const bool passable = blocked_[i] == 0 && module_at_[i] < 0;
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

ReachMap build_reach_map(const Fabric& fabric) {
  ReachMap reach;
  const std::size_t n = fabric.cell_count();
  reach.label.assign(n, -1);
  // Flood each unlabeled free cell's component. The edge mask already
  // encodes "neighbour is inside, unblocked, and not a module" — exactly
  // build-time free passability, since no repair block exists yet.
  std::vector<std::uint32_t> queue;
  for (std::size_t i = 0; i < n; ++i) {
    if (reach.label[i] >= 0 || fabric.blocked(i) || fabric.module_at(i) >= 0)
      continue;
    const std::int32_t l = reach.labels++;
    reach.label[i] = l;
    queue.clear();
    queue.push_back(static_cast<std::uint32_t>(i));
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t ci = queue[head];
      const std::uint8_t mask = fabric.edge_mask(ci);
      for (int dir = 0; dir < 6; ++dir) {
        if (!(mask & (1u << dir))) continue;
        const std::size_t qi = static_cast<std::size_t>(
            static_cast<std::ptrdiff_t>(ci) + fabric.stride(dir));
        if (reach.label[qi] >= 0) continue;
        reach.label[qi] = l;
        queue.push_back(static_cast<std::uint32_t>(qi));
      }
    }
  }
  return reach;
}

LookaheadMap build_lookahead(const Fabric& fabric, const ReachMap& reach,
                             const place::NodeSet& nodes,
                             const place::Placement& placement,
                             int component) {
  LookaheadMap map;
  map.label_reachable.assign(static_cast<std::size_t>(reach.labels), 0);
  const auto& pins = nodes.net_pins[static_cast<std::size_t>(component)];
  if (pins.empty()) return map;

  // Candidate bridge cells: the component's unblocked own pin cells (a
  // blocked pin gets no own-pin overlay in route_one_net either, so
  // searches can never step onto it). Precompute each pin's face-adjacent
  // labels and own-pin neighbours once.
  std::vector<std::size_t> own;
  for (pdgraph::ModuleId m : pins) {
    const std::size_t pi = fabric.index(
        placement.module_cell[static_cast<std::size_t>(m)]);
    if (!fabric.blocked(pi)) own.push_back(pi);
  }
  std::sort(own.begin(), own.end());

  // Closure from the tree seed (route_one_net seeds the tree at the first
  // pin) over the bipartite label/pin graph: a label is entered only
  // through an adjacent own pin, a pin only from an adjacent label or an
  // adjacent pin (the own-pin overlay admits both).
  const std::size_t seed = fabric.index(
      placement.module_cell[static_cast<std::size_t>(pins.front())]);
  std::vector<std::uint8_t> pin_reached(own.size(), 0);
  std::vector<std::size_t> stack;  // own-pin positions to expand
  const auto push_pin = [&](std::size_t pi) {
    const auto it = std::lower_bound(own.begin(), own.end(), pi);
    if (it == own.end() || *it != pi) return;
    const std::size_t k = static_cast<std::size_t>(it - own.begin());
    if (pin_reached[k]) return;
    pin_reached[k] = 1;
    stack.push_back(k);
  };
  push_pin(seed);  // a blocked seed reaches nothing: every connect is doomed
  while (!stack.empty()) {
    const std::size_t pi = own[stack.back()];
    stack.pop_back();
    for (int dir = 0; dir < 6; ++dir) {
      const Vec3 q =
          fabric.cell_at(pi) + kNeighbours[static_cast<std::size_t>(dir)];
      if (!fabric.inside(q)) continue;
      const std::size_t qi = fabric.index(q);
      const std::int32_t l = reach.label[qi];
      if (l < 0) {
        push_pin(qi);  // an adjacent own pin (other modules won't match)
        continue;
      }
      if (map.label_reachable[static_cast<std::size_t>(l)]) continue;
      map.label_reachable[static_cast<std::size_t>(l)] = 1;
      // Entering a new label unlocks every own pin it touches.
      for (std::size_t k = 0; k < own.size(); ++k) {
        if (pin_reached[k]) continue;
        const std::uint8_t mask = fabric.edge_mask(own[k]);
        for (int d = 0; d < 6; ++d) {
          if (!(mask & (1u << d))) continue;
          const std::size_t ni = static_cast<std::size_t>(
              static_cast<std::ptrdiff_t>(own[k]) + fabric.stride(d));
          if (reach.label[ni] == l) {
            pin_reached[k] = 1;
            stack.push_back(k);
            break;
          }
        }
      }
    }
  }
  for (std::size_t k = 0; k < own.size(); ++k)
    if (pin_reached[k]) map.own.push_back(own[k]);
  return map;
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

/// Connect `source` to the partially built tree by A* restricted to
/// `region` (computed by the caller: the warm window or a ladder rung).
/// On success the backtracked path joins the tree (cells, box, tree
/// marks). Neighbour admission is one mask read — the fabric's precomputed
/// edge mask OR the per-net own-pin overlay — plus the region test. The
/// bucket queue pops the integer-keyed lower bound of f, ties LIFO. The
/// lookahead (when `ctx` carries one) is consulted once per connect, for
/// the source cell.
bool connect(const Fabric& fabric, SearchScratch& scratch, Vec3 source,
             const Box3& region, Box3& tree_box, double present_factor,
             const NetContext& ctx, SearchStats& stats) {
  const std::size_t source_idx = fabric.index(source);
  if (scratch.on_tree(source_idx)) return true;

  if (ctx.lookahead != nullptr) {
    ++stats.lookahead_connects;
    // A source outside the seed's closure cannot reach the tree in ANY
    // region (the closure is global). Failing here skips the region-
    // exhausting flood a doomed classic search would run at every rung of
    // its ladder. A source inside the closure can never expand a cell
    // outside it (free runs are entered through own pins, all in the
    // closure), so this one lookup is the lookahead's entire runtime cost.
    if (!ctx.lookahead->reachable(*ctx.reach, source_idx)) return false;
  }

  BucketQueue& open = scratch.open;
  open.reset();
  scratch.begin_search();
  scratch.set_g(source_idx, 0.0f, -1);
  open.push(static_cast<std::int64_t>(heuristic(source, tree_box)), 0.0f,
            static_cast<std::uint32_t>(source_idx));
  ++stats.queue_pushes;

  std::size_t goal = static_cast<std::size_t>(-1);
  while (!open.empty()) {
    const auto top = open.pop();
    ++stats.queue_pops;
    if (top.g > scratch.g[top.cell]) continue;  // stale entry
    if (scratch.on_tree(top.cell)) {
      goal = top.cell;
      break;
    }
    const std::size_t ci = top.cell;
    const Vec3 p = fabric.cell_at(ci);
    const std::uint8_t mask =
        static_cast<std::uint8_t>(fabric.edge_mask(ci) | scratch.extra(ci));
    for (int dir = 0; dir < 6; ++dir) {
      if (!(mask & (1u << dir))) continue;
      const Vec3 q = p + kNeighbours[static_cast<std::size_t>(dir)];
      if (!region.contains(q)) continue;
      const std::size_t qi = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(ci) + fabric.stride(dir));
      double cost = 1.0 + fabric.history(qi);
      const int over = fabric.usage(qi) - (fabric.capacity(qi) - 1);
      if (over > 0) cost += present_factor * over;
      const float ng = top.g + static_cast<float>(cost);
      if (scratch.seen(qi) && ng >= scratch.g[qi]) continue;
      scratch.set_g(qi, ng, dir);
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
    const int dir = scratch.parent[cur];
    if (cur == source_idx || dir < 0) break;
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
    if (fabric.blocked(i) || fabric.module_at(i) >= 0) continue;
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

bool route_one_net(const Fabric& fabric, SearchScratch& scratch,
                   const place::NodeSet& nodes,
                   const place::Placement& placement,
                   const RouteOptions& options, int component,
                   double present_factor, const NetContext& ctx,
                   RoutedNet& out, SearchStats& stats) {
  const auto& pins = nodes.net_pins[static_cast<std::size_t>(component)];
  out.component = component;
  out.cells.clear();
  if (pins.empty()) return true;
  scratch.ensure(fabric.cell_count());

  // Own-pin overlay: extra edge-mask bits letting the search step INTO
  // this component's module cells (the shared mask excludes every module
  // cell; threading an own pin's loop is exactly what routing to it
  // means).
  scratch.begin_extra();
  for (pdgraph::ModuleId m : pins) {
    const Vec3 pc = placement.module_cell[static_cast<std::size_t>(m)];
    const std::size_t pi = fabric.index(pc);
    if (fabric.blocked(pi)) continue;
    for (int d = 0; d < 6; ++d) {
      const Vec3 nq = pc + kNeighbours[static_cast<std::size_t>(d)];
      if (!fabric.inside(nq)) continue;
      scratch.add_extra(fabric.index(nq),
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

  scratch.begin_tree();
  scratch.tree_cells.clear();
  const std::size_t seed_idx = fabric.index(entries[0].cell);
  scratch.mark_tree(seed_idx);
  scratch.tree_cells.push_back(seed_idx);
  Box3 tree_box{entries[0].cell, entries[0].cell};

  auto connect_once = [&](Vec3 target, const Box3& region) {
    return connect(fabric, scratch, target, region, tree_box, present_factor,
                   ctx, stats);
  };
  auto connect_with_retries = [&](Vec3 target) {
    if (scratch.on_tree(fabric.index(target))) return true;
    if (!ctx.window.empty()) {
      // Warm attempt: the previous successful route's bounding box (plus
      // whatever the tree already grew to) is usually where the new route
      // fits too; fall through to the classic ladder when it does not.
      const Box3 region =
          tree_box.expanded(target).merged(ctx.window).inflated(1);
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
