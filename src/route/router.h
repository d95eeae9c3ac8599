// Dual-defect net routing (paper Sec. 3.6): A*-search within restricted
// regions plus PathFinder-style negotiated congestion rip-up-and-reroute
// (McMurchie & Ebeling, FPGA'95).
//
// The routing fabric is the lattice-cell grid spanning the placement core
// plus a margin. Obstacles:
//   - distillation-box extents (no defect may enter a box, validator V5);
//   - every primal module cell that is NOT a pin of the net being routed —
//     a dual defect sharing a cell with a primal module is exactly what
//     "threading that module's loop" means in the plumbing-cell model, so
//     passing through an unrelated module would add a spurious braid.
// Capacity: one dual net per cell (disjoint dual defects must occupy
// distinct cells, validator V3). Congestion is negotiated: overused cells
// get growing present- and history-cost until every net is legally routed.
//
// Each merged net component is routed as a Steiner tree: pins are connected
// one at a time by A* toward the partially built tree (admissible heuristic:
// Manhattan distance to the tree's bounding box).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "place/nodes.h"
#include "place/placer.h"

namespace tqec::route {

namespace detail {

/// Occupancy-counter update for the routing fabric's uint16 usage/capacity
/// arrays. A plain cast would wrap a negative result to 65535 (a cell that
/// looks maximally used is never chosen) or wrap a saturated counter to 0
/// (a maximally pinned module suddenly looks free and negotiation
/// deadlocks on phantom capacity); assert on both ends and clamp as
/// defense in depth.
inline std::uint16_t counter_add(std::uint16_t value, int delta) {
  const int next = static_cast<int>(value) + delta;
  TQEC_ASSERT(next >= 0, "routing-fabric counter underflow");
  TQEC_ASSERT(next <= 65535, "routing-fabric counter overflow");
  return static_cast<std::uint16_t>(std::clamp(next, 0, 65535));
}

}  // namespace detail

struct RouteOptions {
  std::uint64_t seed = 1;
  /// Free cells added around the placement core on every side.
  int margin = 4;
  /// Maximum PathFinder iterations before giving up.
  int max_iterations = 40;
  /// History cost added to each overused cell per iteration.
  double history_increment = 1.0;
  /// Present-congestion multiplier; grows by `present_growth` per iteration,
  /// clamped at `present_max` (unbounded growth reaches inf, making every
  /// congested cell's cost equal and stalling negotiation).
  double present_base = 2.0;
  double present_growth = 1.6;
  double present_max = 1e9;
  /// Initial half-width of the restricted search region around a
  /// connection's bounding box; grows when a connection fails.
  int region_margin = 6;
  /// Worker threads for the batched negotiation schedule (CLI
  /// `--route-threads`). Results are bit-identical for any value: batch
  /// composition, commit order, and conflict decisions are pure functions
  /// of the deterministic net order, never of the worker count. 0 = let
  /// the caller decide (core::compile divides its `--jobs` budget across
  /// concurrent place+route attempts; plain route_nets treats 0 as 1).
  int threads = 0;
  /// Warm-start negotiation across core::compile's restart attempts (CLI
  /// `--route-warm-start`): carry PathFinder history costs and final route
  /// windows from one attempt into the next via NegotiationMemory.
  bool warm_start = true;
};

/// Negotiation state carried between route_nets calls (core::compile's
/// multi-seed restart loop): decayed PathFinder history costs addressed by
/// absolute fabric coordinates, plus each component's final route window
/// encoded as per-face slack beyond its pin bounding box (kNeighbours face
/// order: +x,-x,+y,-y,+z,-z). slack[0] == -1 marks a component that had no
/// routed cells. A default-constructed memory (valid == false) warms
/// nothing; route_nets never reads placement-specific indices from it —
/// only absolute coordinates intersected with the new fabric box — so it
/// is safe to replay against a different placement.
struct NegotiationMemory {
  bool valid = false;
  Box3 fabric_box;
  std::vector<float> history;
  std::vector<std::array<int, 6>> window_slack;
};

struct RoutedNet {
  int component = -1;  // index into NodeSet::net_pins
  std::vector<Vec3> cells;  // all cells of the routed tree (pins included)
};

struct RoutingResult {
  std::vector<RoutedNet> nets;
  bool legal = false;
  int iterations = 0;
  int overused_cells = 0;
  std::int64_t total_wire = 0;  // summed route cells
  /// Bounding box over placement core and all routed cells.
  Box3 bounding;
  std::int64_t volume = 0;

  // PathFinder observability (serialized via core::stats_json).
  /// Nets ripped up and rerouted in each negotiation iteration; the first
  /// entry always equals the component count (iteration 1 routes all).
  std::vector<int> reroutes_per_iter;
  std::int64_t reroutes_total = 0;
  /// Iterations that rerouted every net (iteration 1 plus stall fallbacks).
  int full_sweeps = 0;
  /// A*-queue traffic summed over all searches (negotiation + repair).
  std::int64_t queue_pushes = 0;
  std::int64_t queue_pops = 0;
  /// Hard-block repair outcomes: contested cells awarded to one net vs.
  /// cells where every candidate winner failed (left honestly overused).
  int repair_awarded = 0;
  int repair_failed = 0;
  /// Present-congestion factor after the last negotiation iteration
  /// (clamped at RouteOptions::present_max, hence always finite).
  double present_factor_final = 0;

  // Batched-negotiation observability (see net_batcher.h). All three are
  // pure functions of the schedule, not of the worker count, so they are
  // identical for any --route-threads value.
  /// Disjoint-region batches committed across all negotiation iterations.
  int batches = 0;
  /// Nets requeued because their committed path collided with a cell an
  /// earlier commit of the same batch had just filled to capacity (a
  /// search that escaped its declared region through the failure-inflated
  /// retries).
  int conflicts_requeued = 0;
  /// Mean nets per batch: the spatial parallelism the batcher exposed, an
  /// upper bound on the speedup any worker count can realize.
  double parallel_efficiency = 0;

  // Lookahead / warm-window observability. Like the stats above, all of
  // these are summed per component in deterministic component order, so
  // they are identical for any --route-threads value.
  /// Components whose searches used the obstacle-aware lookahead at least
  /// once.
  int lookahead_nets = 0;
  /// Warm-window connect attempts that succeeded within the previous
  /// route's bounding box vs. fell through to the classic margin ladder.
  std::int64_t window_hits = 0;
  std::int64_t window_misses = 0;
  /// Whether this run consumed a valid NegotiationMemory.
  bool warm_started = false;

  // Congestion observability (always computed; one O(cells) pass at the
  // end of routing, serialized via core::stats_json and rendered by
  // tools/tqec_report).
  /// Overused-cell count after each negotiation iteration (same indexing
  /// as reroutes_per_iter; the last entry of a legal route is 0).
  std::vector<int> overused_per_iter;
  /// congestion_histogram[u] = number of fabric cells with final usage u
  /// (index 0 counts the free cells).
  std::vector<std::int64_t> congestion_histogram;
  /// The most-used fabric cells (highest usage first, ties by cell index),
  /// capped at 16 — the report tool's "congestion top-K".
  struct HotCell {
    Vec3 cell;
    int usage = 0;
    int capacity = 0;
  };
  std::vector<HotCell> hottest_cells;
  /// Top-down text heatmap: one row per z, one column per x, each char the
  /// max usage over y ('.' free, '1'-'9', '#' above 9). Empty when the
  /// fabric footprint exceeds 160x100 cells.
  std::string congestion_heatmap;
};

/// Route all merged dual-net components of a placed design.
RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options);

/// Warm-startable variant: when `warm` is non-null, valid, and
/// options.warm_start is set, the run seeds its history costs and initial
/// per-net windows from it; when `memory_out` is non-null the run's final
/// negotiation state is exported for the next attempt. Either pointer may
/// be null (the plain overload passes both as null).
RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options,
                         const NegotiationMemory* warm,
                         NegotiationMemory* memory_out);

}  // namespace tqec::route
