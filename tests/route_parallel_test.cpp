// Determinism suite for the batched parallel PathFinder negotiation
// (DESIGN.md §Routing): the routing result — every routed cell, every
// schedule statistic — must be bit-identical for any --route-threads
// value, because batch composition, commit order, and conflict requeues
// are pure functions of the deterministic net order, never of the worker
// count. The suite asserts that across thread counts {1, 2, 8} on the
// hand-built contested cross fixture, a family of random grid fixtures,
// and a real SA flow; plus the V3/V5 validator invariants.
//
// The threads=8 cases double as the TSan workload: the CI thread-sanitizer
// job builds and runs this binary, so a data race between concurrent batch
// searches fails CI even when it does not corrupt the result.
#include <gtest/gtest.h>

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

/// Bit-identical comparison: routed cells in order (not as a set — even
/// the tree-construction order must not depend on the worker count),
/// plus every schedule statistic the result exposes.
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
  EXPECT_EQ(a.warm_started, b.warm_started);
  EXPECT_EQ(a.congestion_histogram, b.congestion_histogram);
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

void expect_thread_invariance(const place::NodeSet& nodes,
                              const place::Placement& placement,
                              int margin = 4) {
  const RoutingResult one =
      route_nets(nodes, placement, options_with(1, margin));
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const RoutingResult many =
        route_nets(nodes, placement, options_with(threads, margin));
    expect_identical(one, many);
  }
}

TEST(RouteParallelTest, CrossFixtureIdenticalAcrossThreadCounts) {
  const GridFixture f = cross_fixture();
  // Margin 0 keeps the fabric exactly the contested 5x5 core.
  expect_thread_invariance(f.nodes, f.placement, /*margin=*/0);
}

TEST(RouteParallelTest, RandomFixturesIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1u, 3u, 5u, 7u, 9u, 19u}) {
    SCOPED_TRACE(::testing::Message() << "fixture seed " << seed);
    const GridFixture f = random_fixture(seed);
    expect_thread_invariance(f.nodes, f.placement);
  }
}

TEST(RouteParallelTest, RandomFixturesHoldV3V5UnderParallelRouting) {
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    SCOPED_TRACE(::testing::Message() << "fixture seed " << seed);
    const GridFixture f = random_fixture(seed);
    const RoutingResult r = route_nets(f.nodes, f.placement, options_with(8));
    EXPECT_TRUE(r.legal);
    expect_v3(f.placement, r);
    expect_v5(f.placement, r);
  }
}

// Real SA flow (floating-point placement, multi-node nets with access
// cells): the full-strength determinism check plus the TSan workload.
TEST(RouteParallelTest, SaFlowIdenticalAcrossThreadCounts) {
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
  const place::NodeSet nodes = place::build_nodes(graph, ishape, bridging,
                                                  dual);
  place::PlaceOptions popt;
  popt.seed = 11;
  const place::Placement placement = place::place_modules(nodes, popt);
  expect_thread_invariance(nodes, placement);
}

// Satellite regression: every stats field of the routing result — the
// commutative per-net counter sums in particular — must agree between
// --route-threads=1 and --route-threads=4. (expect_identical compares all
// of them; this test pins the N=1 vs N=4 pairing the issue names.)
TEST(RouteParallelTest, StatsIdenticalBetweenOneAndFourThreads) {
  const GridFixture f = random_fixture(5);
  const RoutingResult one = route_nets(f.nodes, f.placement, options_with(1));
  const RoutingResult four = route_nets(f.nodes, f.placement, options_with(4));
  expect_identical(one, four);
  EXPECT_GT(one.queue_pushes, 0);
  EXPECT_GT(one.batches, 0);
}

// The batched schedule must actually expose spatial parallelism on a
// spread-out fixture, and its observability fields must be internally
// consistent (batches cover all reroutes; mean nets per batch >= 1).
TEST(RouteParallelTest, BatchedScheduleExposesParallelism) {
  const GridFixture f = random_fixture(5);
  const RoutingResult r = route_nets(f.nodes, f.placement, options_with(2));
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
// so the first iteration's commit raises, at any worker count.
TEST(RouteParallelTest, UnconnectableNetRaises) {
  const GridFixture f = pocket_fixture();
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_THROW(route_nets(f.nodes, f.placement,
                            options_with(threads, /*margin=*/0)),
                 TqecError);
  }
}

// Kernel-level check on the same doomed connect: route_one_net floods the
// free region around the open pin, at every rung of its ladder, then
// reports failure with the partial tree it built — the pocketed seed
// alone.
TEST(RouteParallelTest, DoomedConnectReturnsSeedAsPartialTree) {
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

// Warm-start negotiation (core::compile's restart chaining): a cold run
// exports NegotiationMemory, a second run consumes it. The warm run must
// set warm_started, stay legal, and be bit-identical across thread
// counts; exporting from the warm run must itself be deterministic.
TEST(RouteParallelTest, WarmStartChainIdenticalAcrossThreadCounts) {
  const GridFixture f = random_fixture(5);
  NegotiationMemory memory;
  const RoutingResult cold = route_nets(f.nodes, f.placement,
                                        options_with(1), nullptr,
                                        &memory);
  EXPECT_TRUE(cold.legal);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_TRUE(memory.valid);

  NegotiationMemory chained_one;
  const RoutingResult warm_one = route_nets(f.nodes, f.placement,
                                            options_with(1), &memory,
                                            &chained_one);
  EXPECT_TRUE(warm_one.legal);
  EXPECT_TRUE(warm_one.warm_started);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    NegotiationMemory chained_many;
    const RoutingResult warm_many =
        route_nets(f.nodes, f.placement, options_with(threads),
                   &memory, &chained_many);
    expect_identical(warm_one, warm_many);
    EXPECT_EQ(chained_one.valid, chained_many.valid);
    EXPECT_EQ(chained_one.history, chained_many.history);
    EXPECT_EQ(chained_one.window_slack, chained_many.window_slack);
  }
}

}  // namespace
}  // namespace tqec::route
