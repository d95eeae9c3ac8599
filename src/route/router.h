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
#include <cstdint>
#include <vector>

#include "common/cancel.h"
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

// Fixed PathFinder costs. The shard checkpoint fingerprint hashes them,
// so changing one orphans existing checkpoints.

/// History cost added to each overused cell per iteration.
inline constexpr double kHistoryIncrement = 1.0;
/// Present-congestion multiplier at the first iteration, and its clamp
/// (unbounded growth reaches inf, making every congested cell's cost
/// equal and stalling negotiation).
inline constexpr double kPresentBase = 2.0;
inline constexpr double kPresentMax = 1e9;

/// Doom test (RouteOptions::abandon_doomed): the run is abandoned at the
/// end of the first negotiation iteration i >= kDoomFirstIteration that
/// leaves at least kDoomOverused << max(0, kDoomIteration - i) overused
/// cells: 32 at i = 3, then 16, 8, and 4 from kDoomIteration on.
/// Calibrated on recorded whitespace levels of the paper benchmarks (see
/// DESIGN.md, "Whitespace escalation"): at every i >= 3 a level that goes
/// on to route legally stays below the threshold (at most 7, 4, 3, then
/// 2), while most doomed levels pass 32 at i = 3. At i = 2 a legal level
/// can still have 37. Every level the test abandons is one core::compile
/// discards anyway, so it changes no kept result and the checkpoint
/// fingerprint omits it.
inline constexpr int kDoomFirstIteration = 3;
inline constexpr int kDoomIteration = 6;
inline constexpr int kDoomOverused = 4;

/// True when a negotiation that leaves `overused` cells overused at the
/// end of iteration `iteration` (1-based) is to be abandoned.
constexpr bool doomed(int iteration, int overused) {
  return iteration >= kDoomFirstIteration &&
         overused >= kDoomOverused << std::max(0, kDoomIteration - iteration);
}

struct RouteOptions {
  std::uint64_t seed = 1;
  /// Free cells added around the placement core on every side.
  int margin = 4;
  /// Maximum PathFinder iterations before giving up.
  int max_iterations = 40;
  /// Growth of the present-congestion multiplier per iteration, from
  /// kPresentBase up to kPresentMax.
  double present_growth = 1.6;
  /// Initial half-width of the restricted search region around a
  /// connection's bounding box; grows when a connection fails.
  int region_margin = 6;
  /// Inert: a routing run searches on the calling thread only, whatever
  /// this holds. Kept only because perfbench's replay still assigns it;
  /// delete it with that use.
  int threads = 0;
  /// Give up on a negotiation that the doom test (doomed()) marks as
  /// hopeless: the run returns legal == false and abandoned == true,
  /// without hard-block repair. Meant for a run whose caller has a
  /// fallback: core::compile sets it for the y-gap 0 whitespace level
  /// only, which escalates to y-gap 1 when illegal.
  bool abandon_doomed = false;
  /// Inert: warm-start chaining across restart attempts is gone. Kept
  /// only because perfbench's replay still names it (and so takes its
  /// plain route_nets branch); delete it with that use.
  static constexpr bool warm_start = false;
};

/// Inert: the negotiation state warm-start chaining carried between
/// attempts is gone. Kept only because perfbench's replay still names it;
/// delete it with that use.
struct NegotiationMemory {};

struct RoutedNet {
  int component = -1;  // index into NodeSet::net_pins
  std::vector<Vec3> cells;  // all cells of the routed tree (pins included)
};

struct RoutingResult {
  std::vector<RoutedNet> nets;
  bool legal = false;
  /// Negotiation was abandoned by the doom test (RouteOptions::
  /// abandon_doomed); legal is then false and no repair ran.
  bool abandoned = false;
  int iterations = 0;
  /// Overused cells of the final routes, after any hard-block repair
  /// (overused_per_iter holds the negotiation series).
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
  /// Restricted A* searches (connect calls) behind those pops; pops per
  /// connect is queue_pops / connects.
  std::int64_t connects = 0;
  /// Hard-block repair outcomes: contested cells awarded to one net vs.
  /// cells where every candidate winner failed (left honestly overused).
  int repair_awarded = 0;
  int repair_failed = 0;
  /// Present-congestion factor after the last negotiation iteration
  /// (clamped at kPresentMax, hence always finite).
  double present_factor_final = 0;

  // Batched-negotiation observability (see net_batcher.h). All three are
  // pure functions of the schedule.
  /// Disjoint-region batches committed across all negotiation iterations.
  int batches = 0;
  /// Nets requeued because their committed path collided with a cell an
  /// earlier commit of the same batch had just filled to capacity (a
  /// search that escaped its declared region through the failure-inflated
  /// retries).
  int conflicts_requeued = 0;
  /// Mean nets per batch: the spatial parallelism the batcher exposed.
  double parallel_efficiency = 0;

  // Warm-window observability, summed per component in component order.
  /// Warm-window connect attempts that succeeded within the previous
  /// route's bounding box vs. fell through to the classic margin ladder.
  std::int64_t window_hits = 0;
  std::int64_t window_misses = 0;

  /// Capacity bytes the run held at return in its fabric planes (13 per
  /// cell), its search scratch planes (9 per cell) and its open queue.
  std::int64_t resident_bytes = 0;

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

/// Route all merged dual-net components of a placed design. Throws
/// TqecError when negotiation cannot connect some net even by an
/// unrestricted search (a pin walled off from the rest of its net): an
/// unconnectable net is an error, never a partial result.
///
/// `stop`, when non-null, is polled at every batch boundary and every
/// repair scan: once it fires, the run returns at the next one with every
/// route installed, no repair, and legal == false. core::compile stops a
/// speculative whitespace level this way once the tighter level routed
/// legally; a stopped result is meant to be discarded.
RoutingResult route_nets(const place::NodeSet& nodes,
                         const place::Placement& placement,
                         const RouteOptions& options,
                         const CancelToken* stop = nullptr);

/// Inert: forwards to the plain overload and ignores both memories. Kept
/// only because perfbench's replay still names it; delete it with that
/// use.
inline RoutingResult route_nets(const place::NodeSet& nodes,
                                const place::Placement& placement,
                                const RouteOptions& options,
                                const NegotiationMemory*, NegotiationMemory*) {
  return route_nets(nodes, placement, options);
}

/// Add a routing run's work tallies (queue traffic, connects, reroutes,
/// iterations, batches, repair outcomes, window hits, abandoned levels) to
/// the trace counters.
/// route_nets leaves this to its caller, which knows whether the run
/// counts (core::compile publishes exactly the levels a sequential
/// escalation runs).
void publish_counters(const RoutingResult& result);

}  // namespace tqec::route
