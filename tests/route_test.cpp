// Tests for the dual-defect net router: legality, obstacle avoidance,
// braiding safety (no route through foreign modules), pin coverage, and
// congestion negotiation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "core/paper_tables.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"

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
// itself asserts counter/index consistency against the final routes, so a
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
// RouteOptions::present_max and therefore always finite.
TEST(PresentFactorTest, ClampedUnderPersistentCongestion) {
  const GridFixture f = cross_fixture();
  RouteOptions opt = cross_options();
  opt.max_iterations = 40;
  opt.present_growth = 1e300;  // one unclamped step would overflow to inf
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  EXPECT_FALSE(r.legal);  // the fixture is structurally contested
  EXPECT_TRUE(std::isfinite(r.present_factor_final));
  EXPECT_EQ(r.present_factor_final, opt.present_max);
}

// With default growth on a converging flow the factor stays well below the
// clamp; the field reports whatever the last iteration used.
TEST(PresentFactorTest, ReportedAndFiniteOnLegalFlow) {
  const Flow flow = run_flow(core::three_cnot_example());
  EXPECT_TRUE(std::isfinite(flow.routing.present_factor_final));
  EXPECT_GE(flow.routing.present_factor_final, 0.0);
  EXPECT_LE(flow.routing.present_factor_final, RouteOptions{}.present_max);
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

}  // namespace
}  // namespace tqec::route
