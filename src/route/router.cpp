#include "route/router.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "route/net_batcher.h"
#include "route/search_kernel.h"

namespace tqec::route {

namespace {

// Negotiation orchestrator. The per-net A* kernel lives in
// search_kernel.{h,cpp}; the disjoint-region partitioner in
// net_batcher.{h,cpp}. This class owns the PathFinder outer loop:
//
//   per iteration: pending nets (deterministic order) -> batches of
//   disjoint declared regions -> per batch: rip up members, search each
//   against the now-frozen fabric, then commit in net order with
//   collision detection (a net whose path lands on a cell an earlier
//   commit of the same batch just filled to capacity is requeued and
//   rerouted alone at the end of the iteration).
//
// Every decision (batch composition, commit order, conflict verdicts,
// requeue order) is a pure function of the deterministic net order and
// the fabric state at batch boundaries. All searches run on the calling
// thread with the run's one SearchScratch.
//
// Incremental rip-up-and-reroute: from iteration 2 onward only nets that
// occupy at least one overused cell are rerouted (in the same
// deterministic net order as a full sweep), falling back to a full sweep
// whenever the overused-cell count stalls — at most kStallSweeps times per
// run. The first sweeps after a stall regularly shake out another
// contested cell or two, but a negotiation still stuck after that
// essentially never recovers by sweeping more (it needs hard-block repair
// or a whitespace escalation), while every extra sweep rips up and
// reroutes all nets. Converging runs never stall, so the budget cannot
// change their result.
constexpr int kStallSweeps = 2;

class Router {
 public:
  Router(const place::NodeSet& nodes, const place::Placement& placement,
         const RouteOptions& opt, const CancelToken* stop)
      : nodes_(nodes), placement_(placement), opt_(opt),
        fabric_(nodes, placement, opt.margin), stop_(stop) {}

  RoutingResult run();

 private:
  /// Remove / install a net's route, keeping the usage counters in
  /// lockstep with the routes. Every rip-up and (re)install in the
  /// negotiation loop and the repair phase goes through this pair.
  void rip_up(const RoutedNet& net) {
    for (const Vec3& cell : net.cells) fabric_.vacate(fabric_.index(cell));
  }
  void install(const RoutedNet& net) {
    for (const Vec3& cell : net.cells) fabric_.occupy(fabric_.index(cell));
  }

  /// Debug builds recompute the whole cost plane at every batch boundary
  /// and before repair: a fabric mutation that skipped its refresh would
  /// silently price searches off stale costs.
  void check_cost_plane() const {
#ifndef NDEBUG
    TQEC_ASSERT(fabric_.cost_plane_consistent(),
                "cost plane out of date with usage/capacity/history");
#endif
  }

  /// Whether the caller's stop token has fired (polled at batch and
  /// repair-scan boundaries).
  bool stop_requested() const {
    return stop_ != nullptr && stop_->cancelled();
  }

  /// Net priority, a total order: most pins first, ties by component id.
  /// It orders the negotiation sweep and picks a contested cell's repair
  /// winner, so neither depends on the sort algorithm.
  bool routes_before(int a, int b) const {
    const std::size_t pa = nodes_.net_pins[static_cast<std::size_t>(a)].size();
    const std::size_t pb = nodes_.net_pins[static_cast<std::size_t>(b)].size();
    return pa != pb ? pa > pb : a < b;
  }

  /// A component's pin bounding box.
  Box3 pin_box(int component) const {
    Box3 box;
    for (pdgraph::ModuleId m :
         nodes_.net_pins[static_cast<std::size_t>(component)])
      box = box.expanded(
          placement_.module_cell[static_cast<std::size_t>(m)]);
    return box;
  }

  /// A component's base declared region: its pin bounding box inflated by
  /// twice the restricted-search margin (the extra margin absorbs the
  /// tree-box growth of multi-pin connects; escapes beyond it are caught
  /// at commit). Access cells sit face-adjacent to their pin, inside the
  /// inflation. The per-iteration declared region additionally covers the
  /// net's current warm window.
  Box3 declared_region(int component) const {
    return pin_box(component).inflated(2 * opt_.region_margin);
  }

  /// The warm search window of a net: the bounding box of its current
  /// route (its cells survive rip_up, which only touches the fabric).
  /// Empty = cold, for a net not yet routed in this run. Reads only
  /// negotiation-thread state that is frozen during a batch's search phase.
  static Box3 window_of(const RoutedNet& current) {
    Box3 w;
    for (const Vec3& cell : current.cells) w = w.expanded(cell);
    return w;
  }

  bool route_component(int component, RoutedNet& out) {
    const Box3 window = window_of(out);
    return route_one_net(fabric_, scratch_, nodes_, placement_, opt_,
                         component, window, out, search_stats_);
  }

  const place::NodeSet& nodes_;
  const place::Placement& placement_;
  RouteOptions opt_;
  Fabric fabric_;
  /// The run's one search scratch: every search (batched, requeued and
  /// repair) uses it in turn.
  SearchScratch scratch_;
  /// A*-queue tallies of every search this run made.
  SearchStats search_stats_;
  const CancelToken* stop_;
};

RoutingResult Router::run() {
  TQEC_TRACE_SPAN("route.pathfinder");
  RoutingResult result;
  const int components = static_cast<int>(nodes_.net_pins.size());
  result.nets.assign(static_cast<std::size_t>(components), RoutedNet{});

  // Port-region capacity: a module loop pinned by several components must
  // admit one crossing per component not just on its own cell but through
  // its port region — the free face-adjacent cells (the same convention
  // the geometry validator's V3 exemption uses). Without this, k nets
  // forced through a module with fewer than k free neighbours would be a
  // structural overuse no negotiation can fix.
  {
    std::vector<int> pin_count(nodes_.node_of_module.size(), 0);
    for (const auto& pins : nodes_.net_pins)
      for (pdgraph::ModuleId m : pins)
        ++pin_count[static_cast<std::size_t>(m)];
    for (std::size_t m = 0; m < pin_count.size(); ++m) {
      if (pin_count[m] < 2) continue;
      const Vec3 cell = placement_.module_cell[m];
      for (const Vec3& step : kNeighbours) {
        const Vec3 q = cell + step;
        if (!fabric_.inside(q)) continue;
        const std::size_t qi = fabric_.index(q);
        if (fabric_.blocked(qi) || fabric_.is_module(qi)) continue;
        fabric_.add_capacity(qi, pin_count[m] - 1);
      }
    }
  }

  // Net order: most pins first (hardest nets claim resources early). The
  // incremental schedule reroutes a *subset* of this order each iteration,
  // so relative net order — and with it the result — is independent of
  // which nets happen to be congestion-affected.
  std::vector<int> order(static_cast<std::size_t>(components));
  for (int i = 0; i < components; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return routes_before(a, b); });

  // Base declared regions are a function of the (fixed) pin placement
  // only: compute them once. The effective region additionally covers the
  // net's current warm window (recomputed per iteration below), since that
  // is where its warm first attempt may search.
  std::vector<Box3> base_regions(static_cast<std::size_t>(components));
  for (int c = 0; c < components; ++c)
    base_regions[static_cast<std::size_t>(c)] = declared_region(c);
  std::vector<Box3> regions = base_regions;

  double present_factor = kPresentBase;
  int stall = 0;
  int prev_overused = -1;
  int sweeps_left = kStallSweeps;
  trace::Span negotiation_span("route.negotiate");
  // Nets to rip up and reroute this iteration; iteration 1 routes all.
  std::vector<std::uint8_t> dirty(static_cast<std::size_t>(components), 1);
  std::vector<int> pending;
  std::vector<RoutedNet> candidates;
  std::vector<std::uint8_t> candidate_ok;
  // Fabric indices of the cells installed by earlier commits of the
  // current batch, sorted and unique.
  std::vector<std::uint32_t> batch_cells;
  std::vector<int> requeued;
  // Set when a poll saw the stop token (which stays fired): the run
  // unwinds at that batch boundary with every route installed, skips
  // repair, and reports legal == false.
  bool stopped = false;
  for (int iter = 0; iter < opt_.max_iterations; ++iter) {
    result.iterations = iter + 1;
    pending.clear();
    for (int c : order)
      if (dirty[static_cast<std::size_t>(c)]) pending.push_back(c);
    // A pending net's warm first attempt searches within its window:
    // declare that box too so batch-mates stay disjoint from it.
    for (const int c : pending) {
      const auto ci = static_cast<std::size_t>(c);
      const Box3 w = window_of(result.nets[ci]);
      regions[ci] = w.empty() ? base_regions[ci]
                              : base_regions[ci].merged(w.inflated(1));
    }
    const BatchPlan plan = plan_batches(pending, regions);

    requeued.clear();
    for (const std::vector<int>& batch : plan.batches) {
      if (stop_requested()) {
        stopped = true;
        break;
      }
      {
        TQEC_TRACE_SPAN("route.batch");
        for (const int c : batch)
          rip_up(result.nets[static_cast<std::size_t>(c)]);
        check_cost_plane();
        candidates.resize(batch.size());
        candidate_ok.assign(batch.size(), 0);
        // Search phase: every member searches the same frozen fabric. The
        // warm window reads the net's pre-rip-up route (rip_up only
        // touches the fabric).
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const Box3 window =
              window_of(result.nets[static_cast<std::size_t>(batch[i])]);
          candidate_ok[i] =
              route_one_net(fabric_, scratch_, nodes_, placement_, opt_,
                            batch[i], window, candidates[i], search_stats_)
                  ? 1
                  : 0;
        }
      }
      {
        TQEC_TRACE_SPAN("route.commit");
        batch_cells.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const int c = batch[i];
          TQEC_REQUIRE(candidate_ok[i] != 0,
                       "router failed to connect a net component");
          // Collision: a search that escaped its declared region may have
          // priced a cell an earlier commit of this batch just filled to
          // capacity. Installing would create snapshot-artifact overuse,
          // so the net reroutes serially below instead.
          bool conflict = false;
          for (const Vec3& cell : candidates[i].cells) {
            const std::size_t idx = fabric_.index(cell);
            if (fabric_.usage(idx) >= fabric_.capacity(idx) &&
                std::binary_search(batch_cells.begin(), batch_cells.end(),
                                   static_cast<std::uint32_t>(idx))) {
              conflict = true;
              break;
            }
          }
          if (conflict) {
            requeued.push_back(c);
            ++result.conflicts_requeued;
            continue;
          }
          RoutedNet& net = result.nets[static_cast<std::size_t>(c)];
          net = std::move(candidates[i]);
          install(net);
          if (i + 1 == batch.size()) continue;  // no later commit to test
          for (const Vec3& cell : net.cells)
            batch_cells.push_back(
                static_cast<std::uint32_t>(fabric_.index(cell)));
          std::sort(batch_cells.begin(), batch_cells.end());
          batch_cells.erase(
              std::unique(batch_cells.begin(), batch_cells.end()),
              batch_cells.end());
        }
        ++result.batches;
      }
    }
    // Requeue tail: conflicted nets (already ripped up by their batch)
    // reroute one at a time against the fully up-to-date fabric, in net
    // order — each is its own singleton batch, so no further conflicts.
    for (const int c : requeued) {
      RoutedNet& net = result.nets[static_cast<std::size_t>(c)];
      if (stop_requested()) {
        // Reinstall the ripped-up route so the fabric still matches the
        // routes the stopped result reports.
        stopped = true;
        install(net);
        continue;
      }
      const bool ok = route_component(c, net);
      TQEC_REQUIRE(ok, "router failed to connect a net component");
      install(net);
      ++result.batches;
    }
    if (stopped) break;

    const int reroutes = static_cast<int>(pending.size());
    result.reroutes_per_iter.push_back(reroutes);
    result.reroutes_total += reroutes;
    if (reroutes == components) ++result.full_sweeps;

    // Congestion accounting: one fabric pass counts the overused cells,
    // raises their history, and refreshes the cost plane at the next
    // iteration's present factor (a legal run never searches again, so
    // the grown factor is then moot); every net routed through an
    // overused cell is rerouted next iteration (read off the routes).
    std::fill(dirty.begin(), dirty.end(), 0);
    const double next_present =
        std::min(present_factor * opt_.present_growth, kPresentMax);
    const int overused = fabric_.set_present_factor(
        next_present, static_cast<float>(kHistoryIncrement));
    if (overused > 0) {
      for (std::size_t c = 0; c < result.nets.size(); ++c)
        for (const Vec3& cell : result.nets[c].cells) {
          const std::size_t i = fabric_.index(cell);
          if (fabric_.usage(i) > fabric_.capacity(i)) {
            dirty[c] = 1;
            break;
          }
        }
    }
    result.overused_per_iter.push_back(overused);
    if (overused == 0) {
      result.legal = true;
      break;
    }
    present_factor = next_present;
    // Doom test: a negotiation this far from legal this late never gets
    // there, so a caller with a fallback stops paying for it.
    if (opt_.abandon_doomed && doomed(result.iterations, overused)) {
      result.abandoned = true;
      break;
    }
    // Negotiation stalled on persistently contested cells: stop and
    // resolve them explicitly below.
    stall = overused >= prev_overused && prev_overused >= 0 ? stall + 1 : 0;
    prev_overused = overused;
    if (stall >= 5) break;
    // Full-sweep fallback: rerouting only the contested nets stopped
    // making progress, so give every net a chance to move out of the way —
    // up to the kStallSweeps budget; past it the run keeps to the
    // contested subset and lets the stall abort hand over to repair.
    if (stall > 0 && sweeps_left > 0) {
      std::fill(dirty.begin(), dirty.end(), 1);
      --sweeps_left;
    }
    TQEC_LOG_DEBUG("pathfinder iter " << iter + 1 << ": " << overused
                                      << " overused cells, " << reroutes
                                      << " nets rerouted");
  }
  result.present_factor_final = present_factor;
  result.parallel_efficiency =
      result.batches > 0 ? static_cast<double>(result.reroutes_total) /
                               static_cast<double>(result.batches)
                         : 0.0;
  negotiation_span.end();
  trace::Span repair_span("route.repair");
  check_cost_plane();

  // Hard-block repair: when negotiation leaves a handful of contested
  // cells, award each to the net with the most pins (hardest to detour)
  // and reroute the losers with the cell removed from the fabric. The free
  // margin always offers a detour unless the cell was a pin-access cut,
  // in which case the result stays honestly illegal. Repair ends when a
  // scan leaves at least as many overused cells as it started with: its
  // reroutes re-created as much contest as its awards resolved, and later
  // scans only repeat that churn. Such a scan is undone, so repair never
  // hands back more congestion than it was given. An abandoned run skips
  // repair.
  constexpr int kRepairScans = 20;
  std::size_t scan_start_contested = std::numeric_limits<std::size_t>::max();
  std::vector<RoutedNet> scan_start_routes;
  for (int scan = 0; !result.legal && !result.abandoned; ++scan) {
    if (stop_requested()) break;
    // Collect every currently overused cell in one fabric pass.
    std::vector<std::size_t> contested;
    for (std::size_t i = 0; i < fabric_.cell_count(); ++i)
      if (fabric_.usage(i) > fabric_.capacity(i)) contested.push_back(i);
    if (contested.empty()) {
      result.legal = true;
      break;
    }
    if (contested.size() >= scan_start_contested) {
      for (std::size_t c = 0; c < result.nets.size(); ++c) {
        rip_up(result.nets[c]);
        result.nets[c] = std::move(scan_start_routes[c]);
        install(result.nets[c]);
      }
      break;
    }
    if (scan == kRepairScans) break;
    scan_start_contested = contested.size();
    scan_start_routes = result.nets;
    bool progressed = false;
    // Hard blocks of cells awarded in THIS scan: they keep later reroutes
    // of the same scan off the awarded cells, but must be lifted at scan
    // end — usage/capacity already protects an awarded cell (its winner
    // occupies it), while a stale block would wall the winner off from its
    // own cell if a later scan reroutes it for a different contested cell,
    // spuriously reporting repair_failed.
    std::vector<std::size_t> awarded_blocks;
    for (std::size_t idx : contested) {
      if (fabric_.usage(idx) <= fabric_.capacity(idx))
        continue;  // resolved by an earlier reroute in this scan
      // Contestants: the nets whose routes hold the cell, best candidate
      // winner first.
      const Vec3 cell = fabric_.cell_at(idx);
      std::vector<int> users;
      for (int c = 0; c < components; ++c)
        for (const Vec3& q : result.nets[static_cast<std::size_t>(c)].cells)
          if (q == cell) users.push_back(c);
      if (users.size() < 2) continue;
      std::sort(users.begin(), users.end(),
                [&](int a, int b) { return routes_before(a, b); });
      // Award the cell to one user and reroute the rest with the cell
      // removed from the fabric. If a loser genuinely needs the cell (it
      // is the only access to one of its pins), restore everything and try
      // the next candidate winner; only when no award works does the cell
      // stay contested.
      std::vector<RoutedNet> saved;
      saved.reserve(users.size());
      for (int u : users)
        saved.push_back(result.nets[static_cast<std::size_t>(u)]);
      bool awarded = false;
      for (std::size_t winner = 0; winner < users.size() && !awarded;
           ++winner) {
        fabric_.hard_block(idx);
        bool all_ok = true;
        std::vector<std::size_t> rerouted;
        for (std::size_t u = 0; u < users.size(); ++u) {
          if (u == winner) continue;
          RoutedNet& net = result.nets[static_cast<std::size_t>(users[u])];
          rip_up(net);
          const bool ok = route_component(users[u], net);
          install(net);
          rerouted.push_back(u);
          if (!ok) {
            all_ok = false;
            break;
          }
        }
        if (all_ok) {
          awarded = true;
          progressed = true;
          awarded_blocks.push_back(idx);
        } else {
          // Roll back: restore every touched net's previous complete route
          // and lift the block before trying the next winner.
          for (std::size_t u : rerouted) {
            RoutedNet& net = result.nets[static_cast<std::size_t>(users[u])];
            rip_up(net);
            net = saved[u];
            install(net);
          }
          fabric_.unblock(idx);
        }
      }
      if (awarded) ++result.repair_awarded;
      else ++result.repair_failed;
      TQEC_LOG_DEBUG("hard-block repair at " << cell << " among "
                                             << users.size() << " nets"
                                             << (awarded ? "" : " FAILED"));
    }
    for (const std::size_t idx : awarded_blocks) fabric_.unblock(idx);
    if (!progressed) break;  // genuine cut: stays honestly illegal
  }
  repair_span.end();

  // Invariant: after negotiation and repair (including every repair
  // rollback and a stopped run's unwinding), the usage counters must agree
  // with the final routes. A leak here would silently corrupt congestion
  // accounting, so the check runs in every build type. Each routed cell's
  // run in the sorted list must match its usage, and the usage total must
  // match the list's length, so no unrouted cell holds usage either.
  {
    std::vector<std::uint32_t> routed;
    for (const RoutedNet& net : result.nets)
      for (const Vec3& cell : net.cells)
        routed.push_back(static_cast<std::uint32_t>(fabric_.index(cell)));
    std::sort(routed.begin(), routed.end());
    std::int64_t usage_total = 0;
    for (std::size_t i = 0; i < fabric_.cell_count(); ++i)
      usage_total += fabric_.usage(i);
    TQEC_ASSERT(usage_total == static_cast<std::int64_t>(routed.size()),
                "usage counters desynced from the final routes");
    for (auto run = routed.begin(); run != routed.end();) {
      const auto next = std::upper_bound(run, routed.end(), *run);
      TQEC_ASSERT(next - run == fabric_.usage(*run),
                  "usage counters desynced from the final routes");
      run = next;
    }
  }

  // Final congestion census: overused cells, usage histogram, top-K
  // hottest cells, and a top-down text heatmap (one O(cells) pass). The
  // overused count is taken here, after repair, so it describes the routes
  // the result reports; overused_per_iter keeps the negotiation series.
  {
    int max_usage = 0;
    for (std::size_t i = 0; i < fabric_.cell_count(); ++i)
      max_usage = std::max(max_usage, fabric_.usage(i));
    result.congestion_histogram.assign(
        static_cast<std::size_t>(max_usage) + 1, 0);
    std::vector<std::size_t> used_cells;
    result.overused_cells = 0;
    for (std::size_t i = 0; i < fabric_.cell_count(); ++i) {
      ++result.congestion_histogram[static_cast<std::size_t>(
          fabric_.usage(i))];
      if (fabric_.usage(i) > 0) used_cells.push_back(i);
      if (fabric_.usage(i) > fabric_.capacity(i)) ++result.overused_cells;
    }
    constexpr std::size_t kTopK = 16;
    std::sort(used_cells.begin(), used_cells.end(),
              [&](std::size_t a, std::size_t b) {
                return std::pair(-fabric_.usage(a), a) <
                       std::pair(-fabric_.usage(b), b);
              });
    if (used_cells.size() > kTopK) used_cells.resize(kTopK);
    for (std::size_t i : used_cells)
      result.hottest_cells.push_back(
          {fabric_.cell_at(i), fabric_.usage(i), fabric_.capacity(i)});

    const Vec3 dims = fabric_.box().dims();
    if (dims.x <= 160 && dims.z <= 100) {
      std::string& map = result.congestion_heatmap;
      map.reserve(static_cast<std::size_t>(dims.z) * (dims.x + 1));
      for (int z = 0; z < dims.z; ++z) {
        for (int x = 0; x < dims.x; ++x) {
          int column_max = 0;
          for (int y = 0; y < dims.y; ++y)
            column_max = std::max(
                column_max,
                fabric_.usage(fabric_.index(fabric_.box().lo + Vec3{x, y, z})));
          map.push_back(column_max == 0   ? '.'
                        : column_max <= 9 ? static_cast<char>('0' + column_max)
                                          : '#');
        }
        map.push_back('\n');
      }
    }
  }

  result.queue_pushes = search_stats_.queue_pushes;
  result.queue_pops = search_stats_.queue_pops;
  result.connects = search_stats_.connects;
  result.window_hits = search_stats_.window_hits;
  result.window_misses = search_stats_.window_misses;
  result.bounding = placement_.core;
  result.total_wire = 0;
  for (const RoutedNet& net : result.nets) {
    result.total_wire += static_cast<std::int64_t>(net.cells.size());
    for (const Vec3& cell : net.cells)
      result.bounding = result.bounding.expanded(cell);
  }
  result.volume = result.bounding.volume();
  result.resident_bytes = fabric_.plane_bytes() + scratch_.plane_bytes() +
                          scratch_.open.capacity_bytes();
  TQEC_LOG_INFO("routing: " << components << " components, legal="
                            << result.legal << " iters=" << result.iterations
                            << " wire=" << result.total_wire
                            << " reroutes=" << result.reroutes_total
                            << " batches=" << result.batches
                            << " conflicts=" << result.conflicts_requeued
                            << " volume=" << result.volume);
  return result;
}

}  // namespace

RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options,
                         const CancelToken* stop) {
  Router router(nodes, placement, options, stop);
  return router.run();
}

void publish_counters(const RoutingResult& result) {
  trace::counter_add("route.queue_pushes", result.queue_pushes);
  trace::counter_add("route.queue_pops", result.queue_pops);
  trace::counter_add("route.connects", result.connects);
  trace::counter_add("route.reroutes", result.reroutes_total);
  trace::counter_add("route.iterations", result.iterations);
  trace::counter_add("route.repair_awarded", result.repair_awarded);
  trace::counter_add("route.repair_failed", result.repair_failed);
  trace::counter_add("route.batches", result.batches);
  trace::counter_add("route.conflicts_requeued", result.conflicts_requeued);
  trace::counter_add("route.window_hits", result.window_hits);
  trace::counter_add("route.window_misses", result.window_misses);
  trace::counter_add("route.abandoned_levels", result.abandoned ? 1 : 0);
}

}  // namespace tqec::route
