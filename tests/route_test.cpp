// Tests for the dual-defect net router: legality, obstacle avoidance,
// braiding safety (no route through foreign modules), pin coverage, and
// congestion negotiation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"
#include "route/search_kernel.h"

namespace tqec::route {
namespace {

struct Flow {
  pdgraph::PdGraph graph;
  place::NodeSet nodes;
  place::Placement placement;
  RoutingResult routing;
};

Flow run_flow(const icm::IcmCircuit& circuit, std::uint64_t seed = 7) {
  Flow flow{pdgraph::build_pd_graph(circuit), {}, {}, {}};
  const compress::IshapeResult ishape = compress::simplify_ishape(flow.graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(flow.graph, ishape, seed);
  compress::DualBridging dual = compress::bridge_dual(flow.graph, ishape);
  flow.nodes = place::build_nodes(flow.graph, ishape, bridging, dual);
  place::PlaceOptions popt;
  popt.seed = seed;
  flow.placement = place::place_modules(flow.nodes, popt);
  RouteOptions ropt;
  ropt.seed = seed;
  flow.routing = route_nets(flow.nodes, flow.placement, ropt);
  return flow;
}

icm::IcmCircuit midsize_workload() {
  icm::WorkloadSpec spec;
  spec.qubits = 80;
  spec.cnots = 120;
  spec.y_states = 28;
  spec.a_states = 14;
  return icm::make_workload(spec);
}

TEST(RouterTest, ThreeCnotRoutesLegally) {
  const Flow flow = run_flow(core::three_cnot_example());
  EXPECT_TRUE(flow.routing.legal);
  EXPECT_EQ(flow.routing.nets.size(), flow.nodes.net_pins.size());
  EXPECT_GT(flow.routing.total_wire, 0);
}

TEST(RouterTest, EveryPinIsOnItsTree) {
  const Flow flow = run_flow(midsize_workload());
  ASSERT_TRUE(flow.routing.legal);
  for (const RoutedNet& net : flow.routing.nets) {
    std::set<std::tuple<int, int, int>> cells;
    for (const Vec3& c : net.cells) cells.insert({c.x, c.y, c.z});
    for (pdgraph::ModuleId m :
         flow.nodes.net_pins[static_cast<std::size_t>(net.component)]) {
      const Vec3 pin =
          flow.placement.module_cell[static_cast<std::size_t>(m)];
      EXPECT_TRUE(cells.count({pin.x, pin.y, pin.z}))
          << "component " << net.component << " missing pin module " << m;
    }
  }
}

TEST(RouterTest, NoRouteThroughForeignModules) {
  const Flow flow = run_flow(midsize_workload());
  std::unordered_map<Vec3, pdgraph::ModuleId> module_at;
  for (std::size_t m = 0; m < flow.placement.module_cell.size(); ++m)
    module_at[flow.placement.module_cell[m]] =
        static_cast<pdgraph::ModuleId>(m);
  for (const RoutedNet& net : flow.routing.nets) {
    const auto& pins =
        flow.nodes.net_pins[static_cast<std::size_t>(net.component)];
    const std::unordered_set<pdgraph::ModuleId> own(pins.begin(), pins.end());
    for (const Vec3& c : net.cells) {
      const auto it = module_at.find(c);
      if (it == module_at.end()) continue;
      EXPECT_TRUE(own.count(it->second))
          << "component " << net.component
          << " threads unrelated module " << it->second
          << " — braiding would change";
    }
  }
}

TEST(RouterTest, NoRouteInsideDistillationBoxes) {
  const Flow flow = run_flow(midsize_workload());
  for (const RoutedNet& net : flow.routing.nets)
    for (const Vec3& c : net.cells)
      for (const geom::DistillBox& box : flow.placement.boxes)
        EXPECT_FALSE(box.extent().contains(c));
}

TEST(RouterTest, CapacityRespectedOutsidePortRegions) {
  const Flow flow = run_flow(midsize_workload());
  ASSERT_TRUE(flow.routing.legal);
  // Count usage per cell; cells used by 2+ nets must be pin cells (module
  // loops) or their declared port cells.
  std::unordered_map<Vec3, int> usage;
  for (const RoutedNet& net : flow.routing.nets)
    for (const Vec3& c : net.cells) ++usage[c];
  // Port region = the module cells and their face-adjacent cells (the
  // same convention as the validator's V3 exemption).
  std::unordered_set<Vec3> allowed;
  for (std::size_t m = 0; m < flow.placement.module_cell.size(); ++m) {
    const Vec3 cell = flow.placement.module_cell[m];
    allowed.insert(cell);
    for (const Vec3 step : {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
                            Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}})
      allowed.insert(cell + step);
  }
  for (const auto& [cell, count] : usage) {
    if (count > 1)
      EXPECT_TRUE(allowed.count(cell))
          << count << " nets share non-port cell " << cell;
  }
}

TEST(RouterTest, DeterministicForFixedSeed) {
  const icm::IcmCircuit circuit = midsize_workload();
  const Flow a = run_flow(circuit, 9);
  const Flow b = run_flow(circuit, 9);
  EXPECT_EQ(a.routing.total_wire, b.routing.total_wire);
  EXPECT_EQ(a.routing.volume, b.routing.volume);
}

TEST(RouterTest, WireLowerBoundedByPinSpread) {
  const Flow flow = run_flow(core::three_cnot_example());
  // Each component needs at least as many cells as pins.
  for (const RoutedNet& net : flow.routing.nets)
    EXPECT_GE(net.cells.size(),
              flow.nodes.net_pins[static_cast<std::size_t>(net.component)]
                  .size());
}

TEST(RouterTest, DualOnlyBaselineAlsoRoutes) {
  const icm::IcmCircuit circuit = midsize_workload();
  pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  compress::DualBridging dual =
      compress::bridge_dual_without_ishape(graph);
  place::NodeSet nodes = place::build_nodes_dual_only(graph, dual);
  place::PlaceOptions popt;
  popt.seed = 7;
  const place::Placement placement = place::place_modules(nodes, popt);
  RouteOptions ropt;
  const RoutingResult routing = route_nets(nodes, placement, ropt);
  EXPECT_TRUE(routing.legal);
}

TEST(RouterTest, RerouteScheduleObservability) {
  const Flow flow = run_flow(midsize_workload());
  // One entry per negotiation iteration; iteration 1 reroutes every net.
  ASSERT_EQ(flow.routing.reroutes_per_iter.size(),
            static_cast<std::size_t>(flow.routing.iterations));
  EXPECT_EQ(flow.routing.reroutes_per_iter.front(),
            static_cast<int>(flow.nodes.net_pins.size()));
  std::int64_t total = 0;
  for (const int n : flow.routing.reroutes_per_iter) total += n;
  EXPECT_EQ(total, flow.routing.reroutes_total);
  EXPECT_GE(flow.routing.full_sweeps, 1);
  EXPECT_GT(flow.routing.queue_pushes, 0);
  EXPECT_GE(flow.routing.queue_pushes, flow.routing.queue_pops);
}

// A fired stop token ends routing at the next batch boundary. Fired up
// front, no batch runs and the result reports legal == false. route_nets
// checks its usage counters against the returned routes on every exit and
// throws on a mismatch, so no throw shows the fabric stayed consistent.
TEST(RouterTest, FiredStopTokenReturnsBeforeTheFirstBatch) {
  const Flow flow = run_flow(midsize_workload());
  ASSERT_TRUE(flow.routing.legal);
  CancelToken stop;
  stop.cancel();
  RouteOptions opt;
  opt.seed = 7;
  opt.threads = 2;
  RoutingResult r;
  EXPECT_NO_THROW(r = route_nets(flow.nodes, flow.placement, opt, &stop));
  EXPECT_FALSE(r.legal);
  EXPECT_LE(r.batches, 1);
  EXPECT_LE(r.reroutes_per_iter.size(), 1u);
  EXPECT_EQ(r.repair_awarded + r.repair_failed, 0);
  EXPECT_EQ(r.nets.size(), flow.nodes.net_pins.size());
}

// A stop that fires mid-run — possibly between a batch and the serial
// reroute of its conflicted nets — must still leave usage and routes in
// agreement (route_nets would throw otherwise). The run either finished
// first, with the unstopped result, or reports legal == false.
TEST(RouterTest, StopAtAnyMomentKeepsFabricConsistent) {
  const Flow flow = run_flow(midsize_workload());
  ASSERT_TRUE(flow.routing.legal);
  for (const int delay_us : {0, 200, 1000, 5000}) {
    SCOPED_TRACE("delay_us=" + std::to_string(delay_us));
    CancelToken stop;
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      stop.cancel();
    });
    RouteOptions opt;
    opt.seed = 7;
    RoutingResult r;
    EXPECT_NO_THROW(r = route_nets(flow.nodes, flow.placement, opt, &stop));
    stopper.join();
    if (r.legal) {
      EXPECT_EQ(r.total_wire, flow.routing.total_wire);
    }
  }
}

TEST(RouterTest, BoundingVolumeCoversPlacementCore) {
  const Flow flow = run_flow(midsize_workload());
  EXPECT_GE(flow.routing.volume, flow.placement.core.volume());
  EXPECT_TRUE(flow.routing.bounding.contains(flow.placement.core.lo));
  EXPECT_TRUE(flow.routing.bounding.contains(flow.placement.core.hi));
}

// ---------------------------------------------------------------------------
// Hand-built contested fixture. Unlike the SA flows above it involves no
// floating-point placement, so its routes are exact and environment-stable:
// ideal for pinning down negotiation-stall, hard-block-repair, and
// present-factor behavior.

struct GridFixture {
  place::NodeSet nodes;
  place::Placement placement;
};

/// A 5x5 plane at y = 0 whose only free cells form a plus; every other cell
/// holds a wall module pinned by no net. Net 0 connects the top/bottom arm
/// ends, net 1 the left/right ends, so both corridors are forced and cross
/// at the single centre cell — congestion that no negotiation can resolve.
///
///     z=0   .  .  P0 .  .       P  pin module    #  wall module
///     z=1   #  #  |  #  #       |  net 0's forced corridor
///     z=2   P1 -- +  -- P1      -  net 1's forced corridor
///     z=3   #  #  |  #  #       +  the one contested free cell (2,0,2)
///     z=4   .  .  P0 .  .
GridFixture cross_fixture() {
  GridFixture f;
  std::vector<Vec3> cells = {{2, 0, 0}, {2, 0, 4}, {0, 0, 2}, {4, 0, 2}};
  const std::set<std::tuple<int, int, int>> open = {
      {2, 0, 0}, {2, 0, 1}, {2, 0, 2}, {2, 0, 3}, {2, 0, 4},
      {0, 0, 2}, {1, 0, 2}, {3, 0, 2}, {4, 0, 2}};
  for (int x = 0; x <= 4; ++x)
    for (int z = 0; z <= 4; ++z)
      if (!open.count({x, 0, z})) cells.push_back({x, 0, z});
  const std::size_t modules = cells.size();
  for (std::size_t m = 0; m < modules; ++m)
    f.nodes.node_of_module.push_back(static_cast<int>(m));
  f.nodes.module_offset.assign(modules, Vec3{});
  f.nodes.flip_of_module.assign(modules, 0);
  f.nodes.access_offsets.assign(modules, {});
  f.nodes.net_pins = {{0, 1}, {2, 3}};
  f.placement.module_cell = cells;
  f.placement.core = Box3{{0, 0, 0}, {4, 0, 4}};
  f.placement.volume = f.placement.core.volume();
  return f;
}

/// Margin 0 keeps the fabric exactly the 5x5 core (no detour around walls).
RouteOptions cross_options() {
  RouteOptions opt;
  opt.margin = 0;
  return opt;
}

std::set<std::tuple<int, int, int>> cell_set(const RoutedNet& net) {
  std::set<std::tuple<int, int, int>> cells;
  for (const Vec3& c : net.cells) cells.insert({c.x, c.y, c.z});
  return cells;
}

// Regression for the hard-block repair restore path: when every candidate
// winner of a contested cell fails (each loser's reroute finds no detour),
// the repair must roll back the hard block and every touched route, leaving
// the design honestly illegal with the pre-repair routes intact. A leaked
// block or a half-restored route corrupts usage accounting — route_nets()
// itself asserts usage-counter consistency against the final routes, so a
// leak would throw rather than pass.
TEST(RepairTest, NoAwardPathLeavesRoutesIntact) {
  const GridFixture f = cross_fixture();
  const RoutingResult r = route_nets(f.nodes, f.placement, cross_options());
  EXPECT_FALSE(r.legal);
  EXPECT_EQ(r.overused_cells, 1);
  EXPECT_EQ(r.repair_awarded, 0);
  EXPECT_EQ(r.repair_failed, 1);

  // The rolled-back routes are the two exact forced corridors.
  ASSERT_EQ(r.nets.size(), 2u);
  const std::set<std::tuple<int, int, int>> column = {
      {2, 0, 0}, {2, 0, 1}, {2, 0, 2}, {2, 0, 3}, {2, 0, 4}};
  const std::set<std::tuple<int, int, int>> row = {
      {0, 0, 2}, {1, 0, 2}, {2, 0, 2}, {3, 0, 2}, {4, 0, 2}};
  EXPECT_EQ(cell_set(r.nets[0]), column);
  EXPECT_EQ(cell_set(r.nets[1]), row);

  // The failed repair left no hidden state: a second run from scratch
  // reproduces the result exactly.
  const RoutingResult again =
      route_nets(f.nodes, f.placement, cross_options());
  EXPECT_EQ(cell_set(again.nets[0]), column);
  EXPECT_EQ(cell_set(again.nets[1]), row);
  EXPECT_EQ(again.total_wire, r.total_wire);
}

// The negotiation schedule on a fixture that never converges, pinned
// exactly: every iteration stays at one overused cell, so each one is a
// stall and both nets reroute every time (2 stall sweeps, then the stall
// abort after the fifth stalled iteration), and repair fails. The two
// forced corridors overlap in their declared regions, so every batch is a
// single net.
TEST(RepairTest, DefaultScheduleOnContestedFixture) {
  const GridFixture f = cross_fixture();
  const RoutingResult r = route_nets(f.nodes, f.placement, cross_options());
  EXPECT_FALSE(r.legal);
  EXPECT_EQ(r.iterations, 6);
  EXPECT_EQ(r.reroutes_per_iter, std::vector<int>(6, 2));
  EXPECT_EQ(r.overused_per_iter, std::vector<int>(6, 1));
  EXPECT_EQ(r.reroutes_total, 12);
  EXPECT_EQ(r.full_sweeps, 6);
  EXPECT_EQ(r.batches, 12);
  EXPECT_EQ(r.conflicts_requeued, 0);
  EXPECT_EQ(r.queue_pushes, 108);
  EXPECT_EQ(r.queue_pops, 84);
  EXPECT_EQ(r.repair_awarded, 0);
  EXPECT_EQ(r.repair_failed, 1);
  EXPECT_EQ(r.total_wire, 10);
  EXPECT_EQ(r.volume, 25);
}

// Regression: the present-congestion factor used to grow unboundedly
// (multiplied by present_growth every iteration), so under persistent
// congestion it reached inf — at which point every congested cell's cost
// compared equal and negotiation degenerated. It is now clamped at
// kPresentMax and therefore always finite.
TEST(PresentFactorTest, ClampedUnderPersistentCongestion) {
  const GridFixture f = cross_fixture();
  RouteOptions opt = cross_options();
  opt.max_iterations = 40;
  opt.present_growth = 1e300;  // one unclamped step would overflow to inf
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  EXPECT_FALSE(r.legal);  // the fixture is structurally contested
  EXPECT_TRUE(std::isfinite(r.present_factor_final));
  EXPECT_EQ(r.present_factor_final, kPresentMax);
}

// With default growth on a converging flow the factor stays well below the
// clamp; the field reports whatever the last iteration used.
TEST(PresentFactorTest, ReportedAndFiniteOnLegalFlow) {
  const Flow flow = run_flow(core::three_cnot_example());
  EXPECT_TRUE(std::isfinite(flow.routing.present_factor_final));
  EXPECT_GE(flow.routing.present_factor_final, 0.0);
  EXPECT_LE(flow.routing.present_factor_final, kPresentMax);
}

// Regression: the fabric's uint16 occupancy counters used to wrap a
// negative update on a zero-valued cell to 65535, silently masking
// congestion. The update must clamp at zero and flag the underflow.
TEST(FabricCounterTest, NoWraparoundOnUnderflow) {
  EXPECT_EQ(detail::counter_add(0, 0), 0);
  EXPECT_EQ(detail::counter_add(0, 3), 3);
  EXPECT_EQ(detail::counter_add(3, -3), 0);
  EXPECT_EQ(detail::counter_add(65535, -1), 65534);
  EXPECT_THROW(detail::counter_add(0, -1), TqecError);
  EXPECT_THROW(detail::counter_add(2, -5), TqecError);
}

// Regression: a positive update on a saturated counter used to wrap to 0,
// so a maximally pinned module cell suddenly looked free and negotiation
// deadlocked on the phantom capacity. Pin-capacity accumulation (the
// Fabric constructor and the port-cell bonuses) routes every update
// through this checked add, which must flag the overflow instead.
TEST(FabricCounterTest, NoWraparoundOnOverflow) {
  EXPECT_EQ(detail::counter_add(65534, 1), 65535);
  EXPECT_THROW(detail::counter_add(65535, 1), TqecError);
  EXPECT_THROW(detail::counter_add(65000, 1000), TqecError);
}

// Regression for the distillation-box rasterization: with a small routing
// margin a box edge can poke outside the margin-inflated core, and the
// unclamped rasterization loop used to index outside the fabric (an
// index assert, i.e. a crash on every such design). The loop must clamp
// the extent to the fabric box and block only the overlap.
TEST(FabricBoxTest, BoxPokingOutsideSmallMarginFabricIsClamped) {
  GridFixture f;
  f.nodes.net_pins = {{0, 1}};
  f.nodes.node_of_module = {0, 1};
  f.nodes.module_offset.assign(2, Vec3{});
  f.nodes.flip_of_module.assign(2, 0);
  f.nodes.access_offsets.assign(2, {});
  f.placement.module_cell = {{0, 0, 0}, {0, 0, 2}};
  // YBox extent is 3x3x2 from its origin: from (1,0,1) it reaches
  // (3,2,2), outside the 3x1x3 core in both x and y.
  geom::DistillBox box;
  box.kind = geom::BoxKind::YBox;
  box.origin = {1, 0, 1};
  f.placement.boxes = {box};
  f.placement.core = Box3{{0, 0, 0}, {2, 0, 2}};
  f.placement.volume = f.placement.core.volume();

  RouteOptions opt;
  opt.margin = 0;  // fabric == core: the box genuinely pokes outside
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);

  // The x = 0 column is free, so the net routes legally around the
  // box — and never through the box's in-fabric overlap.
  EXPECT_TRUE(r.legal);
  ASSERT_EQ(r.nets.size(), 1u);
  for (const Vec3& c : r.nets[0].cells)
    EXPECT_FALSE(box.extent().contains(c)) << "route enters the box at "
                                           << c;
}

/// Two-contested-cell fixture for the repair phase, 8x5 at y = 0 with
/// margin 0 and region_margin 1 (so detours beyond a pin box + 1 are only
/// discovered through the failure-inflated ladder, never during
/// negotiation — both contested cells survive to repair).
///
///     z=0   .  .  B1 #  #  #  #  #     A* net 0 (3 pins a1,a2,a3)
///     z=1   .  #  |  #  #  C1 #  #     B* net 1 (2 pins B1,B2)
///     z=2   .  a1 X  --  J  Y  a2 a3   C* net 2 (2 pins C1,C2)
///     z=3   .  #  |  #  d  C2 d  #     #  wall module
///     z=4   .  .  B2 #  d  d  d  #     .  free cell
///
/// X = (2,0,2) is forced-shared by A and B; Y = (5,0,2) is forced-shared
/// by A and C, and is C1's only access (a pin cut — C can never detour).
/// In repair scan 1, X is awarded to A (B escapes via the x = 0 column),
/// and Y's repair fails both ways: C cannot move, and A's only detour
/// (J -> d-cells -> a2) still needs the freshly awarded, hard-blocked X.
/// Scan 2 must therefore see X's hard block lifted: A then reroutes over
/// X and the d-detour, Y is awarded to C, and the design becomes legal.
/// A leaked award block (the pre-fix behavior) walls A off from its own
/// cell forever and leaves the design illegal.
GridFixture two_scan_repair_fixture() {
  GridFixture f;
  // Module order fixes net ids: a1 a2 a3 | b1 b2 | c1 c2, then walls.
  std::vector<Vec3> cells = {{1, 0, 2}, {6, 0, 2}, {7, 0, 2}, {2, 0, 0},
                             {2, 0, 4}, {5, 0, 1}, {5, 0, 3}};
  const std::set<std::tuple<int, int, int>> open = {
      {0, 0, 0}, {1, 0, 0}, {0, 0, 1}, {2, 0, 1}, {0, 0, 2}, {2, 0, 2},
      {3, 0, 2}, {4, 0, 2}, {5, 0, 2}, {0, 0, 3}, {2, 0, 3}, {4, 0, 3},
      {6, 0, 3}, {0, 0, 4}, {1, 0, 4}, {4, 0, 4}, {5, 0, 4}, {6, 0, 4}};
  std::set<std::tuple<int, int, int>> taken;
  for (const Vec3& c : cells) taken.insert({c.x, c.y, c.z});
  for (int x = 0; x <= 7; ++x)
    for (int z = 0; z <= 4; ++z)
      if (!open.count({x, 0, z}) && !taken.count({x, 0, z}))
        cells.push_back({x, 0, z});
  const std::size_t modules = cells.size();
  for (std::size_t m = 0; m < modules; ++m)
    f.nodes.node_of_module.push_back(static_cast<int>(m));
  f.nodes.module_offset.assign(modules, Vec3{});
  f.nodes.flip_of_module.assign(modules, 0);
  f.nodes.access_offsets.assign(modules, {});
  f.nodes.net_pins = {{0, 1, 2}, {3, 4}, {5, 6}};
  f.placement.module_cell = cells;
  f.placement.core = Box3{{0, 0, 0}, {7, 0, 4}};
  f.placement.volume = f.placement.core.volume();
  return f;
}

// Regression for leaked award hard blocks: a cell awarded in one repair
// scan must have its hard block lifted at scan end (usage/capacity already
// protects it — its winner occupies it). The pre-fix router kept the block
// forever, so when a LATER scan rerouted the winner for a different
// contested cell, the winner was walled off from its own awarded cell and
// the repair spuriously failed, leaving this fixture illegal.
TEST(RepairTest, AwardBlockReleasedBetweenScans) {
  const GridFixture f = two_scan_repair_fixture();
  RouteOptions opt;
  opt.margin = 0;
  opt.region_margin = 1;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);

  // Scan 1 awards X to A and fails Y (A's detour is walled by X's fresh
  // block); scan 2 awards Y to C because X's block was lifted.
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(r.repair_awarded, 2);
  EXPECT_EQ(r.repair_failed, 1);

  // C holds its pin cut Y; A ends on the d-cell detour across X.
  ASSERT_EQ(r.nets.size(), 3u);
  EXPECT_TRUE(cell_set(r.nets[2]).count({5, 0, 2}));
  const auto a_cells = cell_set(r.nets[0]);
  EXPECT_TRUE(a_cells.count({2, 0, 2}));   // back over its awarded cell
  EXPECT_FALSE(a_cells.count({5, 0, 2}));  // Y stays with C
}

// The result's overused-cell count describes its final routes: repair
// legalizes the two cells negotiation left contested, so the count is 0,
// while overused_per_iter keeps the negotiation series that ended at 2.
TEST(RepairTest, OverusedCellsCountTheRepairedRoutes) {
  const GridFixture f = two_scan_repair_fixture();
  RouteOptions opt;
  opt.margin = 0;
  opt.region_margin = 1;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  ASSERT_TRUE(r.legal);
  ASSERT_FALSE(r.overused_per_iter.empty());
  EXPECT_EQ(r.overused_per_iter.back(), 2);
  EXPECT_EQ(r.overused_cells, 0);
}


// ---------------------------------------------------------------------------
// Steiner trees on an open fabric. Each net is routed by connecting its
// pins one at a time, nearest to the first pin first, to the tree built so
// far, so the tree can branch at cells that are not pins (Steiner points).
// With no obstacles and no congestion every connection is a shortest path
// to the tree, so the route's length (its distinct cells minus one) is at
// least the net's HPWL and at most the star that joins every pin straight
// to the first one. It is not bounded by the rectilinear MST: the pin order
// is not Prim's.

/// One net whose pins are modules on their own nodes and nothing else: no
/// walls, no boxes. The fabric is the pins' bounding box plus `margin`.
GridFixture open_fixture(const std::vector<Vec3>& pins) {
  GridFixture f;
  std::vector<pdgraph::ModuleId> net;
  for (std::size_t m = 0; m < pins.size(); ++m) {
    f.nodes.node_of_module.push_back(static_cast<int>(m));
    net.push_back(static_cast<pdgraph::ModuleId>(m));
  }
  f.nodes.module_offset.assign(pins.size(), Vec3{});
  f.nodes.flip_of_module.assign(pins.size(), 0);
  f.nodes.access_offsets.assign(pins.size(), {});
  f.nodes.net_pins = {net};
  f.placement.module_cell = pins;
  Box3 core;
  for (const Vec3& p : pins) core = core.expanded(p);
  f.placement.core = core;
  f.placement.volume = core.volume();
  return f;
}

std::int64_t hpwl(const std::vector<Vec3>& pins) {
  Box3 box;
  for (const Vec3& p : pins) box = box.expanded(p);
  const Vec3 d = box.dims();
  return (d.x - 1) + (d.y - 1) + (d.z - 1);
}

/// Rectilinear MST length over the pins (Prim).
std::int64_t mst_length(const std::vector<Vec3>& pins) {
  std::vector<int> dist(pins.size(), std::numeric_limits<int>::max());
  std::vector<bool> in_tree(pins.size(), false);
  std::int64_t total = 0;
  dist[0] = 0;
  for (std::size_t step = 0; step < pins.size(); ++step) {
    std::size_t next = pins.size();
    for (std::size_t i = 0; i < pins.size(); ++i)
      if (!in_tree[i] && (next == pins.size() || dist[i] < dist[next]))
        next = i;
    in_tree[next] = true;
    total += dist[next];
    for (std::size_t i = 0; i < pins.size(); ++i)
      if (!in_tree[i])
        dist[i] = std::min(dist[i], manhattan(pins[i], pins[next]));
  }
  return total;
}

/// Route the single net of an open fixture (legal, one net, every pin on
/// the tree) and return its length: distinct cells minus one.
std::int64_t open_tree_length(const std::vector<Vec3>& pins,
                              int margin = 0) {
  const GridFixture f = open_fixture(pins);
  RouteOptions opt;
  opt.margin = margin;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(r.nets.size(), 1u);
  if (r.nets.size() != 1) return -1;
  const auto cells = cell_set(r.nets[0]);
  for (const Vec3& p : pins)
    EXPECT_TRUE(cells.count({p.x, p.y, p.z})) << "pin " << p << " not on tree";
  return static_cast<std::int64_t>(cells.size()) - 1;
}

// A net with a single pin needs no wire: its tree is the pin cell alone.
TEST(SteinerTest, OnePinIsItsOwnTree) {
  EXPECT_EQ(open_tree_length({{1, 2, 3}}), 0);
}

TEST(SteinerTest, TwoPinsAddNothing) {
  // Two pins: the tree is one shortest path, no branch point.
  EXPECT_EQ(open_tree_length({{0, 0, 0}, {4, 0, 4}}), 8);
  EXPECT_EQ(open_tree_length({{0, 0, 0}, {3, 4, 5}}), 12);
  EXPECT_EQ(open_tree_length({{2, 1, 0}, {2, 1, 6}}), 6);
}

TEST(SteinerTest, ClassicCrossGains) {
  // Four arm ends of a plus sign: any tree through pins alone needs three
  // 4-long hops, while branching at the empty centre needs four 2-long
  // arms. Branching off the partial tree must beat the pin-only tree.
  const std::vector<Vec3> pins{{2, 0, 0}, {0, 0, 2}, {4, 0, 2}, {2, 0, 4}};
  EXPECT_EQ(mst_length(pins), 12);
  const std::int64_t length = open_tree_length(pins);
  EXPECT_LT(length, mst_length(pins));
  EXPECT_GE(length, 8);
}

TEST(SteinerTest, NeverWorseThanStarNeverBetterThanHpwl) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    std::set<std::tuple<int, int, int>> taken;
    std::vector<Vec3> pins;
    const int k = rng.range(3, 7);
    while (static_cast<int>(pins.size()) < k) {
      const Vec3 p{rng.range(0, 12), rng.range(0, 4), rng.range(0, 12)};
      if (taken.insert({p.x, p.y, p.z}).second) pins.push_back(p);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::int64_t star = 0;
    for (const Vec3& p : pins) star += manhattan(p, pins.front());
    const std::int64_t length = open_tree_length(pins, 2);
    EXPECT_LE(length, star);
    EXPECT_GE(length, hpwl(pins));
  }
}

TEST(SteinerTest, WorksInThreeDimensions) {
  // Two pins in the y = 0 plane and two in y = 2, offset along z: the
  // tree must climb between the planes and still branch.
  const std::vector<Vec3> pins{{0, 0, 0}, {4, 0, 0}, {2, 2, 3}, {2, 2, -3}};
  const std::int64_t length = open_tree_length(pins, 1);
  EXPECT_GE(length, hpwl(pins));
  EXPECT_LT(length, mst_length(pins));
}

// An uncontested fabric is legal after the first negotiation iteration,
// which runs at the base present-congestion factor, and the factor is not
// grown after a legal iteration.
TEST(PresentFactorTest, StaysAtBaseWhenFirstIterationIsLegal) {
  const GridFixture f = open_fixture({{0, 0, 0}, {3, 0, 2}});
  const RoutingResult r = route_nets(f.nodes, f.placement, RouteOptions{});
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.present_factor_final, kPresentBase);
}

// Every iteration that ends with overused cells multiplies the factor by
// present_growth once.
TEST(PresentFactorTest, GrowsOncePerOverusedIteration) {
  const GridFixture f = cross_fixture();
  RouteOptions opt = cross_options();
  opt.max_iterations = 3;
  opt.present_growth = 2.0;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  EXPECT_FALSE(r.legal);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_EQ(r.present_factor_final, kPresentBase * 8.0);
}

// A wall of foreign modules between the two pins of a net forces the
// shortest detour around its end, and the route never enters the wall.
TEST(RouterTest, WallForcesShortestDetour) {
  //     z=0   P0 .  .
  //     z=1   #  #  .      # wall module (pinned by no net)
  //     z=2   P1 .  .
  GridFixture f;
  f.nodes.node_of_module = {0, 1, 2, 3};
  f.nodes.module_offset.assign(4, Vec3{});
  f.nodes.flip_of_module.assign(4, 0);
  f.nodes.access_offsets.assign(4, {});
  f.nodes.net_pins = {{0, 1}};
  f.placement.module_cell = {{0, 0, 0}, {0, 0, 2}, {0, 0, 1}, {1, 0, 1}};
  f.placement.core = Box3{{0, 0, 0}, {2, 0, 2}};
  f.placement.volume = f.placement.core.volume();
  RouteOptions opt;
  opt.margin = 0;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  ASSERT_TRUE(r.legal);
  ASSERT_EQ(r.nets.size(), 1u);
  const auto cells = cell_set(r.nets[0]);
  EXPECT_EQ(cells.size(), 7u);  // around x = 2: 6 steps
  EXPECT_FALSE(cells.count({0, 0, 1}));
  EXPECT_FALSE(cells.count({1, 0, 1}));
  EXPECT_TRUE(cells.count({2, 0, 1}));
}

// ---------------------------------------------------------------------------
// Cost plane and search scratch.

/// The entry cost connect() computed per neighbour before the fabric kept a
/// cost plane: the test oracle the plane must match bit for bit.
float per_neighbour_cost(float history, int usage, int capacity,
                         double present_factor) {
  double cost = 1.0 + history;
  const int over = usage - (capacity - 1);
  if (over > 0) cost += present_factor * over;
  return static_cast<float>(cost);
}

// Every mutator of a cost input refreshes the plane: after each of a long
// random sequence of occupy/vacate/add_capacity/add_history/
// set_present_factor steps, every cell's cost equals the per-neighbour
// formula over an independently tracked copy of the inputs.
TEST(FabricTest, CostPlaneMatchesPerNeighbourFormula) {
  // One module pinned by three nets: its cell starts at capacity 3.
  GridFixture f = open_fixture({{0, 0, 0}, {3, 0, 0}, {0, 0, 3}, {3, 0, 3}});
  f.nodes.net_pins = {{0, 1}, {0, 2}, {0, 3}};
  Fabric fabric(f.nodes, f.placement, /*margin=*/1);
  const std::size_t n = fabric.cell_count();
  std::vector<int> usage(n, 0);
  std::vector<int> capacity(n);
  std::vector<float> history(n, 0.0f);
  double present = fabric.present_factor();
  for (std::size_t i = 0; i < n; ++i) capacity[i] = fabric.capacity(i);
  ASSERT_EQ(*std::max_element(capacity.begin(), capacity.end()), 3);

  const double factors[] = {1.0, kPresentBase, kPresentBase * 1.6,
                            123.456, kPresentMax};
  const float histories[] = {0.5f, 1.0f / 3.0f,
                             static_cast<float>(kHistoryIncrement), 7.25f};
  Rng rng(17);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::size_t>(
        rng.range(0, static_cast<int>(n) - 1));
    switch (rng.range(0, 5)) {
      case 0:
      case 1:
        fabric.occupy(i);
        ++usage[i];
        break;
      case 2:
        if (usage[i] == 0) break;
        fabric.vacate(i);
        --usage[i];
        break;
      case 3: {
        const int d = rng.range(-capacity[i], 3);
        fabric.add_capacity(i, d);
        capacity[i] += d;
        break;
      }
      case 4: {
        const float h = histories[rng.range(0, 3)];
        fabric.add_history(i, h);
        history[i] += h;
        break;
      }
      default: {
        present = factors[rng.range(0, 4)];
        const float charge =
            rng.chance(0.5) ? static_cast<float>(kHistoryIncrement) : 0.0f;
        int overused = 0;
        for (std::size_t c = 0; c < n; ++c)
          if (usage[c] > capacity[c]) {
            ++overused;
            history[c] += charge;
          }
        EXPECT_EQ(fabric.set_present_factor(present, charge), overused);
        break;
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      const float want =
          per_neighbour_cost(history[c], usage[c], capacity[c], present);
      ASSERT_EQ(std::bit_cast<std::uint32_t>(fabric.cost(c)),
                std::bit_cast<std::uint32_t>(want))
          << "cell " << c << " after step " << step;
    }
  }
  EXPECT_TRUE(fabric.cost_plane_consistent());
}

// Queue entries carry 32-bit cell ids, so a fabric past UINT32_MAX cells
// must be refused with a structured error before anything is allocated.
TEST(FabricTest, OversizedCoreIsAStructuredError) {
  GridFixture f;  // no modules, no nets
  f.placement.core = Box3{{0, 0, 0}, {2047, 2047, 1023}};  // 2^32 cells
  f.placement.volume = f.placement.core.volume();
  RouteOptions opt;
  opt.margin = 0;
  try {
    route_nets(f.nodes, f.placement, opt);
    FAIL() << "an oversized fabric was accepted";
  } catch (const TqecError& e) {
    EXPECT_NE(std::string(e.what()).find("2^32 - 1 cells"),
              std::string::npos)
        << e.what();
  }
}

// The packed scratch record's epochs wrap at INT_MAX by clearing every
// stamp. A scratch holding records stamped at small epochs (as earlier
// nets and searches leave them, here with g 0 and a tree mark, so an
// aliased record blocks every relaxation and ends every search) that
// jumps to just below the wrap reuses those epochs after it; it must still
// reproduce a fresh scratch's cells and pops on each of three routes of
// the same net.
TEST(SearchScratchTest, EpochWrapKeepsResults) {
  GridFixture f = open_fixture({{0, 0, 0}, {5, 0, 3}, {2, 0, 6}, {6, 0, 6}});
  f.placement.module_cell.push_back({3, 0, 3});  // a wall module
  f.nodes.node_of_module.push_back(4);
  f.nodes.module_offset.push_back({});
  f.nodes.flip_of_module.push_back(0);
  f.nodes.access_offsets.push_back({});
  const Fabric fabric(f.nodes, f.placement, /*margin=*/2);
  RouteOptions opt;
  const Box3 cold;  // no warm window

  SearchScratch fresh;
  RoutedNet want;
  SearchStats want_stats;
  ASSERT_TRUE(route_one_net(fabric, fresh, f.nodes, f.placement, opt, 0, cold,
                            want, want_stats));
  ASSERT_GT(want_stats.connects, 2);

  SearchScratch wrapped;
  wrapped.ensure(fabric.cell_count());
  for (std::size_t i = 0; i < wrapped.cells.size(); ++i) {
    const auto stamp = static_cast<std::int32_t>(1 + i % 4);
    wrapped.cells[i] = {0.0f, stamp, stamp, 0, 0, 1};
  }
  wrapped.search_epoch = std::numeric_limits<int>::max() - 1;
  wrapped.net_epoch = std::numeric_limits<int>::max() - 1;
  RoutedNet out;
  for (int run = 0; run < 3; ++run) {
    SearchStats run_stats;
    ASSERT_TRUE(route_one_net(fabric, wrapped, f.nodes, f.placement, opt, 0,
                              cold, out, run_stats));
    EXPECT_EQ(out.cells, want.cells) << "run " << run;
    EXPECT_EQ(run_stats.queue_pops, want_stats.queue_pops) << "run " << run;
    EXPECT_EQ(run_stats.queue_pushes, want_stats.queue_pushes);
  }
  // Both epochs wrapped and restarted from 1.
  EXPECT_EQ(wrapped.net_epoch, 2);
  EXPECT_LT(wrapped.search_epoch, 3 * want_stats.connects);
}


// The doom test (RouteOptions::abandon_doomed) on paper benchmarks' real
// whitespace levels: the node set core::compile builds at seed 7, placed
// as it places each level.
place::NodeSet paper_nodes(const char* name) {
  core::CompileOptions opt;
  opt.seed = 7;
  opt.emit_geometry = false;
  opt.keep_internals = true;
  core::CompileResult r = core::compile(
      icm::make_workload(core::workload_spec(core::paper_benchmark(name))),
      opt);
  return std::move(r.internals->nodes);
}

/// rd84_142's node set, built once for every test that needs it.
const place::NodeSet& rd84_nodes() {
  static const place::NodeSet nodes = paper_nodes("rd84_142");
  return nodes;
}

place::Placement place_level(const place::NodeSet& nodes, int y_gap) {
  place::PlaceOptions popt;
  popt.seed = 7;
  popt.layer_y_gap = y_gap;
  return place::place_modules(nodes, popt);
}

RoutingResult route_level(const place::NodeSet& nodes,
                          const place::Placement& placement, bool doom) {
  RouteOptions opt;
  opt.seed = 7;
  opt.abandon_doomed = doom;
  return route_nets(nodes, placement, opt);
}

void expect_same_routing(const RoutingResult& a, const RoutingResult& b) {
  EXPECT_EQ(a.legal, b.legal);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.overused_per_iter, b.overused_per_iter);
  EXPECT_EQ(a.reroutes_per_iter, b.reroutes_per_iter);
  EXPECT_EQ(a.queue_pops, b.queue_pops);
  EXPECT_EQ(a.connects, b.connects);
  EXPECT_EQ(a.repair_awarded, b.repair_awarded);
  EXPECT_EQ(a.volume, b.volume);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i)
    EXPECT_EQ(a.nets[i].cells, b.nets[i].cells) << "component " << i;
}

// rd84_142's y-gap 0 level cannot be legalized: the doom test gives up at
// the end of iteration 6, skips repair, and saves the rest of the work.
TEST(DoomTest, AbandonsRd84YGap0AtIteration6) {
  const place::NodeSet& nodes = rd84_nodes();
  const place::Placement placement = place_level(nodes, 0);
  const RoutingResult off = route_level(nodes, placement, false);
  const RoutingResult on = route_level(nodes, placement, true);
  EXPECT_FALSE(off.legal);
  EXPECT_FALSE(off.abandoned);
  EXPECT_FALSE(on.legal);
  EXPECT_TRUE(on.abandoned);
  EXPECT_EQ(on.iterations, kDoomIteration);
  EXPECT_GE(on.overused_cells, kDoomOverused);
  EXPECT_EQ(on.repair_awarded, 0);
  EXPECT_EQ(on.repair_failed, 0);
  EXPECT_LT(on.queue_pops, off.queue_pops);
  // Up to the abandon, the run is the one the test-off run made.
  ASSERT_GT(off.overused_per_iter.size(), on.overused_per_iter.size());
  EXPECT_TRUE(std::equal(on.overused_per_iter.begin(),
                         on.overused_per_iter.end(),
                         off.overused_per_iter.begin()));
}

// A level that converges never trips the doom test, so switching it on
// changes nothing.
TEST(DoomTest, ConvergingLevelsAreBitIdentical) {
  const place::NodeSet gt10_nodes = paper_nodes("4gt10-v1_81");
  for (const auto& [nodes, y_gap] :
       {std::pair(&rd84_nodes(), 1), std::pair(&gt10_nodes, 0)}) {
    SCOPED_TRACE(::testing::Message() << "y-gap " << y_gap);
    const place::Placement placement = place_level(*nodes, y_gap);
    const RoutingResult off = route_level(*nodes, placement, false);
    EXPECT_TRUE(off.legal);
    expect_same_routing(off, route_level(*nodes, placement, true));
  }
}

}  // namespace
}  // namespace tqec::route
