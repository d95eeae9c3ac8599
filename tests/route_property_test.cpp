// Randomized property tests for the dual-defect router across a family
// of seeds:
//   - V3: routed nets are pairwise cell-disjoint outside module port
//     regions (a module's cell plus its face-adjacent cells — the
//     geometry validator's V3 exemption);
//   - V5: no routed cell enters a distillation-box extent.
// The grid fixtures are hand-built from integer arithmetic and the repo's
// own Rng — no libm, no SA — so they behave identically on every
// platform; the SA flows cover floating-point placements with multi-node
// nets.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"

namespace tqec::route {
namespace {

/// V3: every cell shared by two or more routed nets lies in some module's
/// port region (the module cell or a face-adjacent cell).
void expect_pairwise_disjoint_outside_ports(const place::Placement& placement,
                                            const RoutingResult& routing) {
  std::unordered_map<Vec3, int> usage;
  for (const RoutedNet& net : routing.nets)
    for (const Vec3& c : net.cells) ++usage[c];
  std::unordered_set<Vec3> allowed;
  for (const Vec3& cell : placement.module_cell) {
    allowed.insert(cell);
    for (const Vec3 step : {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
                            Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}})
      allowed.insert(cell + step);
  }
  for (const auto& [cell, count] : usage) {
    if (count > 1) {
      EXPECT_TRUE(allowed.count(cell))
          << count << " nets share non-port cell " << cell;
    }
  }
}

/// V5: no routed cell inside any distillation-box extent.
void expect_no_cell_in_boxes(const place::Placement& placement,
                             const RoutingResult& routing) {
  for (const RoutedNet& net : routing.nets)
    for (const Vec3& c : net.cells)
      for (const geom::DistillBox& box : placement.boxes)
        EXPECT_FALSE(box.extent().contains(c))
            << "component " << net.component << " enters box at "
            << box.origin;
}

/// Route with the default options and check legality plus V3 and V5.
void route_and_check_invariants(const place::NodeSet& nodes,
                                const place::Placement& placement) {
  const RoutingResult r = route_nets(nodes, placement, RouteOptions{});
  EXPECT_TRUE(r.legal);
  expect_pairwise_disjoint_outside_ports(placement, r);
  expect_no_cell_in_boxes(placement, r);
}

struct GridFixture {
  place::NodeSet nodes;
  place::Placement placement;
};

/// Random module field on a 10x10 plane at y = 0 plus one distillation box:
/// 14 modules on distinct cells outside the box, 8 nets of 2-3 distinct
/// pins each. The default routing margin leaves detour room on all sides,
/// so the congestion is mild and negotiation converges; modules pinned by
/// several nets still force port-region sharing, exercising V3's exemption.
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

class RoutePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutePropertyTest, RandomGridHoldsInvariants) {
  const GridFixture f = random_fixture(GetParam());
  route_and_check_invariants(f.nodes, f.placement);
}

TEST_P(RoutePropertyTest, SaFlowHoldsInvariants) {
  icm::WorkloadSpec spec;
  spec.qubits = 48;
  spec.cnots = 72;
  spec.y_states = 14;
  spec.a_states = 7;
  spec.seed = GetParam();
  const icm::IcmCircuit circuit = icm::make_workload(spec);

  pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  const compress::IshapeResult ishape = compress::simplify_ishape(graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(graph, ishape, GetParam());
  compress::DualBridging dual = compress::bridge_dual(graph, ishape);
  const place::NodeSet nodes = place::build_nodes(graph, ishape, bridging,
                                                  dual);
  place::PlaceOptions popt;
  popt.seed = GetParam();
  const place::Placement placement = place::place_modules(nodes, popt);
  route_and_check_invariants(nodes, placement);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace tqec::route
