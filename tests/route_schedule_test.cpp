// The batched PathFinder schedule (DESIGN.md §Routing): batch composition,
// commit order, conflict requeues and their observability, plus the V3/V5
// validator invariants, on the hand-built contested cross fixture, a
// family of random grid fixtures, and a real SA flow. Every search runs on
// the calling thread; RouteOptions::threads is inert, and the suite pins
// that it changes nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"
#include "route/search_kernel.h"

namespace tqec::route {
namespace {

struct GridFixture {
  place::NodeSet nodes;
  place::Placement placement;
};

/// The contested 5x5 cross fixture from route_test.cpp: two forced
/// corridors crossing at one free cell — negotiation cannot legalize it,
/// so it exercises the stall, repair, and requeue paths deterministically.
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

/// The random module field from route_property_test.cpp: 14 modules and a
/// distillation box on a 10x10 plane, 8 nets of 2-3 pins.
GridFixture random_fixture(std::uint64_t seed) {
  Rng rng(seed);
  GridFixture f;
  const int extent = 10;
  geom::DistillBox box;
  box.kind = geom::BoxKind::YBox;
  box.origin = {rng.range(0, extent - 3), 0, rng.range(0, extent - 3)};

  std::set<std::tuple<int, int, int>> taken;
  std::vector<Vec3> cells;
  const int modules = 14;
  while (static_cast<int>(cells.size()) < modules) {
    const Vec3 c{rng.range(0, extent - 1), 0, rng.range(0, extent - 1)};
    if (box.extent().contains(c)) continue;
    if (!taken.insert({c.x, c.y, c.z}).second) continue;
    cells.push_back(c);
  }

  const int nets = 8;
  for (int n = 0; n < nets; ++n) {
    const int pins = rng.range(2, 3);
    std::set<pdgraph::ModuleId> chosen;
    while (static_cast<int>(chosen.size()) < pins)
      chosen.insert(static_cast<pdgraph::ModuleId>(rng.below(modules)));
    f.nodes.net_pins.emplace_back(chosen.begin(), chosen.end());
  }

  for (int m = 0; m < modules; ++m) f.nodes.node_of_module.push_back(m);
  f.nodes.module_offset.assign(cells.size(), Vec3{});
  f.nodes.flip_of_module.assign(cells.size(), 0);
  f.nodes.access_offsets.assign(cells.size(), {});

  f.placement.module_cell = cells;
  f.placement.boxes = {box};
  Box3 core = box.extent();
  for (const Vec3& c : cells) core = core.expanded(c);
  f.placement.core = core;
  f.placement.volume = core.volume();
  return f;
}

/// Bit-identical comparison: routed cells in order (not as a set), plus
/// every schedule statistic and the resident bytes the result exposes.
void expect_identical(const RoutingResult& a, const RoutingResult& b) {
  EXPECT_EQ(a.legal, b.legal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.overused_cells, b.overused_cells);
  EXPECT_EQ(a.total_wire, b.total_wire);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.reroutes_per_iter, b.reroutes_per_iter);
  EXPECT_EQ(a.overused_per_iter, b.overused_per_iter);
  EXPECT_EQ(a.reroutes_total, b.reroutes_total);
  EXPECT_EQ(a.full_sweeps, b.full_sweeps);
  EXPECT_EQ(a.queue_pushes, b.queue_pushes);
  EXPECT_EQ(a.queue_pops, b.queue_pops);
  EXPECT_EQ(a.connects, b.connects);
  EXPECT_EQ(a.repair_awarded, b.repair_awarded);
  EXPECT_EQ(a.repair_failed, b.repair_failed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.conflicts_requeued, b.conflicts_requeued);
  EXPECT_EQ(a.parallel_efficiency, b.parallel_efficiency);
  EXPECT_EQ(a.window_hits, b.window_hits);
  EXPECT_EQ(a.window_misses, b.window_misses);
  EXPECT_EQ(a.congestion_histogram, b.congestion_histogram);
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].component, b.nets[i].component);
    ASSERT_EQ(a.nets[i].cells.size(), b.nets[i].cells.size())
        << "component " << a.nets[i].component;
    for (std::size_t c = 0; c < a.nets[i].cells.size(); ++c)
      EXPECT_EQ(a.nets[i].cells[c], b.nets[i].cells[c])
          << "component " << a.nets[i].component << " cell " << c;
  }
}

/// V3: every cell shared by two or more routed nets lies in some module's
/// port region (the module cell or a face-adjacent cell).
void expect_v3(const place::Placement& placement, const RoutingResult& r) {
  std::set<std::tuple<int, int, int>> allowed;
  for (const Vec3& cell : placement.module_cell)
    for (const Vec3 step : {Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{-1, 0, 0},
                            Vec3{0, 1, 0}, Vec3{0, -1, 0}, Vec3{0, 0, 1},
                            Vec3{0, 0, -1}}) {
      const Vec3 p = cell + step;
      allowed.insert({p.x, p.y, p.z});
    }
  std::set<std::tuple<int, int, int>> seen, shared;
  for (const RoutedNet& net : r.nets)
    for (const Vec3& c : net.cells)
      if (!seen.insert({c.x, c.y, c.z}).second) shared.insert({c.x, c.y, c.z});
  for (const auto& cell : shared)
    EXPECT_TRUE(allowed.count(cell))
        << "nets share non-port cell (" << std::get<0>(cell) << ","
        << std::get<1>(cell) << "," << std::get<2>(cell) << ")";
}

/// V5: no routed cell inside any distillation-box extent.
void expect_v5(const place::Placement& placement, const RoutingResult& r) {
  for (const RoutedNet& net : r.nets)
    for (const Vec3& c : net.cells)
      for (const geom::DistillBox& box : placement.boxes)
        EXPECT_FALSE(box.extent().contains(c))
            << "component " << net.component << " enters box at "
            << box.origin;
}

RouteOptions options_with(int threads, int margin = 4) {
  RouteOptions opt;
  opt.threads = threads;
  opt.margin = margin;
  return opt;
}

/// The SA flow of a 48-qubit workload: floating-point placement and
/// multi-node nets with access cells.
GridFixture sa_fixture() {
  icm::WorkloadSpec spec;
  spec.qubits = 48;
  spec.cnots = 72;
  spec.y_states = 14;
  spec.a_states = 7;
  spec.seed = 11;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  const compress::IshapeResult ishape = compress::simplify_ishape(graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(graph, ishape, 11);
  compress::DualBridging dual = compress::bridge_dual(graph, ishape);
  GridFixture f;
  f.nodes = place::build_nodes(graph, ishape, bridging, dual);
  place::PlaceOptions popt;
  popt.seed = 11;
  f.placement = place::place_modules(f.nodes, popt);
  return f;
}

/// A 5x3 plane whose two nets each join the ends of one row (z = 0 and
/// z = 2) past a wall module in the middle of the row. The only way round
/// either wall is the free middle row, and both routes must cross it at
/// the one cell between the walls:
///
///       z=0   P0 .  #  .  P0      P  pin module    #  wall module
///       z=1   .  .  x  .  .       x  the shared crossing
///       z=2   P1 .  #  .  P1
GridFixture walled_rows_fixture() {
  GridFixture f;
  f.placement.module_cell = {{0, 0, 0}, {4, 0, 0}, {0, 0, 2},
                             {4, 0, 2}, {2, 0, 0}, {2, 0, 2}};
  const std::size_t modules = f.placement.module_cell.size();
  for (std::size_t m = 0; m < modules; ++m)
    f.nodes.node_of_module.push_back(static_cast<int>(m));
  f.nodes.module_offset.assign(modules, Vec3{});
  f.nodes.flip_of_module.assign(modules, 0);
  f.nodes.access_offsets.assign(modules, {});
  f.nodes.net_pins = {{0, 1}, {2, 3}};
  f.placement.core = Box3{{0, 0, 0}, {4, 0, 2}};
  f.placement.volume = f.placement.core.volume();
  return f;
}

// A batch member whose candidate lands on a cell an earlier commit of the
// same batch filled is requeued and rerouted alone. At region margin 0 the
// two rows are disjoint declared regions, so both nets share one batch and
// are searched against the same frozen fabric; both candidates cross the
// shared cell, the first commit fills it, and the second net conflicts.
TEST(RouteScheduleTest, BatchMateOnAFilledCellIsRequeued) {
  const GridFixture f = walled_rows_fixture();
  RouteOptions opt = options_with(1, /*margin=*/0);
  opt.region_margin = 0;
  opt.max_iterations = 1;
  const RoutingResult r = route_nets(f.nodes, f.placement, opt);
  EXPECT_EQ(r.conflicts_requeued, 1);
  // One batch of both nets, then the requeued net's own.
  EXPECT_EQ(r.batches, 2);
  EXPECT_EQ(r.reroutes_per_iter, std::vector<int>{2});
  ASSERT_EQ(r.overused_per_iter.size(), 1u);
  EXPECT_GT(r.overused_per_iter[0], 0);
  const Vec3 crossing{2, 0, 1};
  for (const RoutedNet& net : r.nets)
    EXPECT_NE(std::find(net.cells.begin(), net.cells.end(), crossing),
              net.cells.end())
        << "component " << net.component;
  EXPECT_FALSE(r.legal);
}

// RouteOptions::threads is inert: 1, 2 and 8 give bit-identical results.
TEST(RouteScheduleTest, ThreadsFieldChangesNothing) {
  const struct {
    const char* name;
    GridFixture fixture;
    int margin;
  } cases[] = {
      // Margin 0 keeps the fabric exactly the contested 5x5 core.
      {"cross", cross_fixture(), 0},
      {"random 5", random_fixture(5), 4},
      {"sa flow", sa_fixture(), 4},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const RoutingResult one = route_nets(c.fixture.nodes, c.fixture.placement,
                                         options_with(1, c.margin));
    for (const int threads : {2, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      expect_identical(one, route_nets(c.fixture.nodes, c.fixture.placement,
                                       options_with(threads, c.margin)));
    }
  }
}

TEST(RouteScheduleTest, RandomFixturesHoldV3V5) {
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    SCOPED_TRACE(::testing::Message() << "fixture seed " << seed);
    const GridFixture f = random_fixture(seed);
    const RoutingResult r = route_nets(f.nodes, f.placement, RouteOptions{});
    EXPECT_TRUE(r.legal);
    expect_v3(f.placement, r);
    expect_v5(f.placement, r);
  }
}

// The batched schedule must actually expose spatial parallelism on a
// spread-out fixture, and its observability fields must be internally
// consistent (batches cover all reroutes; mean nets per batch >= 1).
TEST(RouteScheduleTest, BatchedScheduleExposesParallelism) {
  const GridFixture f = random_fixture(5);
  const RoutingResult r = route_nets(f.nodes, f.placement, RouteOptions{});
  EXPECT_TRUE(r.legal);
  EXPECT_GT(r.batches, 0);
  EXPECT_LE(r.batches, r.reroutes_total);
  EXPECT_GE(r.parallel_efficiency, 1.0);
}

/// 5x5 plane whose first pin (the tree seed) sits in a one-cell pocket
/// sealed off by wall modules, so every connect toward it is doomed:
///
///       z=0 . . . . A        A = module 1 (open pin)
///       z=1 . . . . .        B = module 0 (pocketed pin, tree seed)
///       z=2 . . . . .        # = wall module
///       z=3 . . . # #        net = {B, A}
///       z=4 . . # . B
///           x0  ...  x4
GridFixture pocket_fixture() {
  GridFixture f;
  std::vector<Vec3> cells = {{4, 0, 4}, {4, 0, 0},           // B, A
                             {3, 0, 3}, {4, 0, 3}, {2, 0, 4}};  // walls
  const std::size_t modules = cells.size();
  for (std::size_t m = 0; m < modules; ++m)
    f.nodes.node_of_module.push_back(static_cast<int>(m));
  f.nodes.module_offset.assign(modules, Vec3{});
  f.nodes.flip_of_module.assign(modules, 0);
  f.nodes.access_offsets.assign(modules, {});
  f.nodes.net_pins = {{0, 1}};
  f.placement.module_cell = cells;
  f.placement.core = Box3{{0, 0, 0}, {4, 0, 4}};
  f.placement.volume = f.placement.core.volume();
  return f;
}

// The router's contract: a net it cannot connect is an error, never a
// result. The pocketed pin is unreachable however congestion is priced,
// so the first iteration's commit raises.
TEST(RouteScheduleTest, UnconnectableNetRaises) {
  const GridFixture f = pocket_fixture();
  RouteOptions opt;
  opt.margin = 0;
  EXPECT_THROW(route_nets(f.nodes, f.placement, opt), TqecError);
}

// Kernel-level check on the same doomed connect: route_one_net floods the
// free region around the open pin, at every rung of its ladder, then
// reports failure with the partial tree it built — the pocketed seed
// alone.
TEST(RouteScheduleTest, DoomedConnectReturnsSeedAsPartialTree) {
  const GridFixture f = pocket_fixture();
  const Fabric fabric(f.nodes, f.placement, /*margin=*/0);
  SearchScratch scratch;
  RouteOptions opt;
  opt.margin = 0;
  RoutedNet out;
  SearchStats stats;
  EXPECT_FALSE(route_one_net(fabric, scratch, f.nodes, f.placement, opt, 0,
                             Box3{}, out, stats));
  EXPECT_EQ(out.component, 0);
  EXPECT_EQ(out.cells, std::vector<Vec3>{f.placement.module_cell[0]});
  EXPECT_GT(stats.queue_pushes, 0);
}

}  // namespace
}  // namespace tqec::route
