// Tests for the placement subsystem: B*-tree structure and packing,
// super-module node construction, and the SA placer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "core/paper_tables.h"
#include "icm/workload.h"
#include "place/bstar_tree.h"
#include "place/nodes.h"
#include "place/placer.h"

namespace tqec::place {
namespace {

Footprint unit_fp(int) { return {1, 1}; }

TEST(BStarTreeTest, EmptyAndSingle) {
  BStarTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.pack(unit_fp).width, 0);
  Rng rng(1);
  tree.insert(42, rng);
  EXPECT_TRUE(tree.contains(42));
  const PackResult pack = tree.pack(unit_fp);
  ASSERT_EQ(pack.placed.size(), 1u);
  EXPECT_EQ(pack.placed[0].x, 0);
  EXPECT_EQ(pack.placed[0].z, 0);
  EXPECT_EQ(pack.width, 1);
  EXPECT_EQ(pack.depth, 1);
}

TEST(BStarTreeTest, ChainInsertionPacksARow) {
  BStarTree tree;
  for (int i = 0; i < 5; ++i) tree.insert_chain(i);
  const PackResult pack = tree.pack(unit_fp);
  EXPECT_EQ(pack.width, 5);
  EXPECT_EQ(pack.depth, 1);
  std::set<int> xs;
  for (const PackedItem& p : pack.placed) {
    EXPECT_EQ(p.z, 0);
    xs.insert(p.x);
  }
  EXPECT_EQ(xs.size(), 5u);
}

/// Property: a packed placement never overlaps and is always contained in
/// the reported width x depth.
void expect_legal_packing(const BStarTree& tree,
                          const std::vector<Footprint>& dims) {
  const PackResult pack = tree.pack(
      [&](int item) { return dims[static_cast<std::size_t>(item)]; });
  std::set<std::pair<int, int>> cells;
  for (const PackedItem& p : pack.placed) {
    const Footprint fp = dims[static_cast<std::size_t>(p.item)];
    EXPECT_GE(p.x, 0);
    EXPECT_GE(p.z, 0);
    EXPECT_LE(p.x + fp.w, pack.width);
    EXPECT_LE(p.z + fp.d, pack.depth);
    for (int dx = 0; dx < fp.w; ++dx) {
      for (int dz = 0; dz < fp.d; ++dz) {
        const bool inserted = cells.insert({p.x + dx, p.z + dz}).second;
        EXPECT_TRUE(inserted) << "overlap at (" << p.x + dx << ","
                              << p.z + dz << ")";
      }
    }
  }
}

class BStarTreeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BStarTreeRandomOps, InvariantsSurviveRandomEditing) {
  Rng rng(GetParam());
  const int universe = 40;
  std::vector<Footprint> dims(static_cast<std::size_t>(universe));
  for (auto& d : dims) d = {rng.range(1, 5), rng.range(1, 5)};

  BStarTree tree;
  std::set<int> present;
  for (int step = 0; step < 300; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45 && static_cast<int>(present.size()) < universe) {
      int item = rng.range(0, universe - 1);
      while (present.count(item)) item = (item + 1) % universe;
      tree.insert(item, rng);
      present.insert(item);
    } else if (roll < 0.7 && !present.empty()) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      tree.remove(*it, rng);
      present.erase(it);
    } else if (present.size() >= 2) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      const int a = *it;
      it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      const int b = *it;
      if (a != b) tree.swap_items(a, b);
    }
    tree.check_invariants();
    EXPECT_EQ(tree.size(), static_cast<int>(present.size()));
  }
  expect_legal_packing(tree, dims);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BStarTreeRandomOps,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// A restore returns the tree to the saved state exactly — same packing,
// same item index — after edits that moved items in and out, and the
// restored tree keeps packing incrementally from its saved cache.
TEST(BStarTreeTest, RestoreUndoesEditsAndIndex) {
  Rng rng(9);
  std::vector<Footprint> dims(30);
  for (auto& d : dims) d = {rng.range(1, 4), rng.range(1, 4)};
  const auto fp = [&](int item) { return dims[static_cast<std::size_t>(item)]; };
  BStarTree tree;
  for (int i = 0; i < 12; ++i) tree.insert(i, rng);
  tree.pack_update(fp);
  const PackResult before = tree.pack(fp);

  BStarTree::Snapshot saved;
  tree.save(saved);
  tree.remove(3, rng);
  tree.remove(7, rng);
  tree.insert(20, rng);
  tree.insert(21, rng);
  tree.swap_items(0, 20);
  tree.pack_update(fp);
  tree.restore(std::move(saved));

  tree.check_invariants();
  EXPECT_TRUE(tree.pack_cache_clean());
  EXPECT_TRUE(tree.contains(3) && tree.contains(7));
  EXPECT_FALSE(tree.contains(20) || tree.contains(21));
  const PackResult after = tree.pack(fp);
  ASSERT_EQ(after.placed.size(), before.placed.size());
  for (std::size_t i = 0; i < after.placed.size(); ++i) {
    EXPECT_EQ(after.placed[i].item, before.placed[i].item);
    EXPECT_EQ(after.placed[i].x, before.placed[i].x);
    EXPECT_EQ(after.placed[i].z, before.placed[i].z);
    EXPECT_EQ(tree.packed_x(after.placed[i].item), after.placed[i].x);
    EXPECT_EQ(tree.packed_z(after.placed[i].item), after.placed[i].z);
  }
  EXPECT_TRUE(tree.pack_update(fp).repacked.empty());
  tree.swap_items(1, 2);
  const BStarTree::PackDelta& delta = tree.pack_update(fp);
  const PackResult full = tree.pack(fp);
  EXPECT_EQ(delta.width, full.width);
  EXPECT_EQ(delta.depth, full.depth);
}

TEST(BStarTreeTest, RemoveRejectsAbsentItem) {
  BStarTree tree;
  Rng rng(1);
  tree.insert(0, rng);
  EXPECT_THROW(tree.remove(7, rng), TqecError);
}

struct BuiltNodes {
  pdgraph::PdGraph graph;
  NodeSet nodes;
};

BuiltNodes build_for(const icm::IcmCircuit& circuit) {
  BuiltNodes out{pdgraph::build_pd_graph(circuit), {}};
  const compress::IshapeResult ishape = compress::simplify_ishape(out.graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(out.graph, ishape, 7);
  compress::DualBridging dual = compress::bridge_dual(out.graph, ishape);
  out.nodes = build_nodes(out.graph, ishape, bridging, dual);
  return out;
}

TEST(NodeBuildTest, EveryModuleInExactlyOneNode) {
  icm::WorkloadSpec spec;
  spec.qubits = 70;
  spec.cnots = 100;
  spec.y_states = 24;
  spec.a_states = 12;
  const auto built = build_for(icm::make_workload(spec));
  std::vector<int> count(static_cast<std::size_t>(built.graph.module_count()),
                         0);
  for (const PlacementNode& node : built.nodes.nodes)
    for (pdgraph::ModuleId m : node.modules)
      ++count[static_cast<std::size_t>(m)];
  for (int c : count) EXPECT_EQ(c, 1);
}

TEST(NodeBuildTest, ModuleOffsetsStayInsideFootprints) {
  icm::WorkloadSpec spec;
  spec.qubits = 50;
  spec.cnots = 80;
  spec.y_states = 16;
  spec.a_states = 8;
  const auto built = build_for(icm::make_workload(spec));
  for (const PlacementNode& node : built.nodes.nodes) {
    for (const Vec3& off : node.module_offsets) {
      EXPECT_GE(off.x, 0);
      EXPECT_LT(off.x, node.dims.x);
      EXPECT_GE(off.y, 0);
      EXPECT_LT(off.y, node.dims.y);
      EXPECT_GE(off.z, 0);
      EXPECT_LT(off.z, node.dims.z);
    }
    for (const NodeBox& box : node.boxes) {
      const Vec3 d = geom::box_dims(box.kind);
      EXPECT_LE(box.offset.x + d.x, node.dims.x);
      EXPECT_LE(box.offset.y + d.y, node.dims.y);
      EXPECT_LE(box.offset.z + d.z, node.dims.z);
    }
  }
}

TEST(NodeBuildTest, TimeDependentNodesOrderByLevel) {
  icm::IcmCircuit icm("ord");
  const int q = icm.add_line(icm::InitBasis::Zero);
  const int a = icm.add_line(icm::InitBasis::Zero);
  const int b = icm.add_line(icm::InitBasis::Zero);
  icm.add_cnot(q, a);
  icm.add_cnot(q, b);
  icm.add_meas_order(q, a);
  icm.add_meas_order(a, b);
  const auto built = build_for(icm);
  bool found = false;
  for (const PlacementNode& node : built.nodes.nodes) {
    if (node.kind != NodeKind::TimeDependent) continue;
    found = true;
    int prev_level = -1;
    int prev_x = -1;
    for (std::size_t i = 0; i < node.modules.size(); ++i) {
      const auto& mod = built.graph.module(node.modules[i]);
      EXPECT_GE(mod.meas_level, prev_level);
      EXPECT_GT(node.module_offsets[i].x, prev_x);
      prev_level = mod.meas_level;
      prev_x = node.module_offsets[i].x;
    }
  }
  EXPECT_TRUE(found);
}

TEST(NodeBuildTest, DistillationNodesHoldAllBoxes) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 20;
  spec.a_states = 10;
  const auto built = build_for(icm::make_workload(spec));
  int y_boxes = 0;
  int a_boxes = 0;
  for (const PlacementNode& node : built.nodes.nodes) {
    for (const NodeBox& box : node.boxes) {
      EXPECT_EQ(node.kind, NodeKind::Distillation);
      (box.kind == geom::BoxKind::YBox ? y_boxes : a_boxes) += 1;
    }
  }
  EXPECT_EQ(y_boxes, 20);
  EXPECT_EQ(a_boxes, 10);
}

TEST(NodeBuildTest, NetPinsCoverEveryNetPath) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 10;
  spec.a_states = 5;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  const pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  const compress::IshapeResult ishape = compress::simplify_ishape(graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(graph, ishape, 7);
  compress::DualBridging dual = compress::bridge_dual(graph, ishape);
  NodeSet nodes = build_nodes(graph, ishape, bridging, dual);

  // Rebuild the component -> pin-list index mapping the builder used.
  std::unordered_map<pdgraph::NetId, std::size_t> index;
  for (const pdgraph::DualNet& net : graph.nets()) {
    const pdgraph::NetId rep = dual.component_of(net.id);
    index.emplace(rep, index.size());
  }
  EXPECT_EQ(index.size(), nodes.net_pins.size());
  for (const pdgraph::DualNet& net : graph.nets()) {
    const auto& pins =
        nodes.net_pins[index.at(dual.component_of(net.id))];
    for (pdgraph::ModuleId m : net.path())
      EXPECT_TRUE(std::find(pins.begin(), pins.end(), m) != pins.end())
          << "net " << net.id << " module " << m;
  }
}

TEST(PlacerTest, ModulesLandOnDistinctCells) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions opt;
  opt.seed = 3;
  const Placement placement = place_modules(built.nodes, opt);
  std::set<std::tuple<int, int, int>> cells;
  for (const Vec3& c : placement.module_cell)
    EXPECT_TRUE(cells.insert({c.x, c.y, c.z}).second)
        << "two modules share " << c;
  // Boxes must not overlap each other or module cells.
  for (std::size_t i = 0; i < placement.boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < placement.boxes.size(); ++j)
      EXPECT_FALSE(placement.boxes[i].extent().intersects(
          placement.boxes[j].extent()));
    for (const Vec3& c : placement.module_cell)
      EXPECT_FALSE(placement.boxes[i].extent().contains(c));
  }
  EXPECT_EQ(placement.volume, placement.core.volume());
  EXPECT_GT(placement.volume, 0);
}

TEST(PlacerTest, DeterministicForFixedSeed) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions opt;
  opt.seed = 11;
  const Placement a = place_modules(built.nodes, opt);
  const Placement b = place_modules(built.nodes, opt);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.module_cell.size(), b.module_cell.size());
  for (std::size_t m = 0; m < a.module_cell.size(); ++m)
    EXPECT_EQ(a.module_cell[m], b.module_cell[m]);
}

// The SA tracks its wirelength incrementally and restores it from a
// journal when it rejects a move; all of it is exact integer arithmetic,
// with no resync (checked builds assert the tracked caches equal a full
// recompute at every temperature-batch boundary). The reported wirelength
// must equal an external per-pin HPWL recompute over the final module
// cells, exactly. The fixture must exercise the grouped and rotated
// terms: some net has several pins on one node, and some node ends up
// rotated.
TEST(PlacerTest, WirelengthMatchesExternalRecompute) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const auto built = build_for(icm::make_workload(spec));

  bool shared_node = false;
  for (const auto& pins : built.nodes.net_pins) {
    std::set<int> hosts;
    for (pdgraph::ModuleId m : pins)
      hosts.insert(
          built.nodes.node_of_module[static_cast<std::size_t>(m)]);
    if (hosts.size() < pins.size()) shared_node = true;
  }
  EXPECT_TRUE(shared_node) << "no net has two pins on one node";

  struct Case {
    std::uint64_t seed;
    int layer_y_gap;
  };
  bool any_rotated = false;
  for (const Case c : {Case{3, 0}, Case{9, 0}, Case{21, 0}, Case{3, 1}}) {
    PlaceOptions opt;
    opt.seed = c.seed;
    opt.layer_y_gap = c.layer_y_gap;
    opt.batch = 32;  // frequent batch boundaries exercise the debug check
    const Placement placement = place_modules(built.nodes, opt);
    std::int64_t wire = 0;
    for (const auto& pins : built.nodes.net_pins) {
      if (pins.size() < 2) continue;
      Box3 bbox;
      for (pdgraph::ModuleId m : pins)
        bbox = bbox.expanded(
            placement.module_cell[static_cast<std::size_t>(m)]);
      const Vec3 d = bbox.dims();
      wire += (d.x - 1) + (d.y - 1) + (d.z - 1);
    }
    EXPECT_EQ(static_cast<std::int64_t>(placement.wirelength), wire)
        << "seed " << c.seed << " gap " << c.layer_y_gap;
    for (bool r : placement.node_rotated) any_rotated = any_rotated || r;
  }
  EXPECT_TRUE(any_rotated) << "no placement rotated a node";
}

// A batch whose last move did not materialize defers its cooling step and
// sample to the next boundary; that sample's acceptance rate must cover
// every iteration since the previous one, not just its own batch, so no
// rate can exceed 1.
TEST(PlacerTest, AcceptRateStaysAFractionAcrossDeferredSamples) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const auto built = build_for(icm::make_workload(spec));
  bool deferred = false;
  for (const std::uint64_t seed : {3u, 9u, 21u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PlaceOptions opt;
    opt.seed = seed;
    opt.batch = 32;
    const Placement p = place_modules(built.nodes, opt);
    ASSERT_FALSE(p.sa_curve.empty());
    for (const SaSample& s : p.sa_curve) {
      EXPECT_GE(s.accept_rate, 0.0);
      EXPECT_LE(s.accept_rate, 1.0);
    }
    if (p.sa_curve.size() <
        static_cast<std::size_t>(p.iterations_run / opt.batch))
      deferred = true;
  }
  EXPECT_TRUE(deferred) << "no run deferred a sample";
}

TEST(PlacerTest, SaImprovesOnInitialSolution) {
  const auto& bench = core::paper_benchmark("4gt10-v1_81");
  const icm::IcmCircuit circuit =
      icm::make_workload(core::workload_spec(bench));
  const auto built = build_for(circuit);
  PlaceOptions opt;
  opt.seed = 7;
  const Placement placement = place_modules(built.nodes, opt);
  EXPECT_LE(placement.volume, placement.initial_volume);
  EXPECT_GT(placement.moves_accepted, 0);
}

TEST(PlacerTest, LayerGapAddsWhitespace) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions tight;
  tight.seed = 5;
  PlaceOptions gapped = tight;
  gapped.layer_y_gap = 1;
  const Placement a = place_modules(built.nodes, tight);
  const Placement b = place_modules(built.nodes, gapped);
  EXPECT_GT(b.core.dims().y, a.core.dims().y);
}

// A fired stop token ends the anneal at the next temperature-batch
// boundary. Fired up front, no batch runs: no move is accepted or
// rejected, and the result is the initial layout, still a well-formed
// placement.
TEST(PlacerTest, FiredStopTokenReturnsBeforeTheFirstBatch) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions opt;
  opt.seed = 5;
  opt.batch = 64;
  const Placement full = place_modules(built.nodes, opt);
  EXPECT_GT(full.moves_accepted + full.moves_rejected, 0);
  EXPECT_GT(full.repacked_nodes, 0);

  CancelToken stop;
  stop.cancel();
  const Placement p = place_modules(built.nodes, opt, &stop);
  EXPECT_EQ(p.moves_accepted, 0);
  EXPECT_EQ(p.moves_rejected, 0);
  EXPECT_TRUE(p.sa_curve.empty());
  ASSERT_EQ(p.module_cell.size(), built.nodes.node_of_module.size());
  std::set<std::tuple<int, int, int>> cells;
  for (const Vec3& c : p.module_cell)
    EXPECT_TRUE(cells.insert({c.x, c.y, c.z}).second)
        << "two modules share " << c;
  EXPECT_EQ(p.volume, p.core.volume());
}


// ---------------------------------------------------------------------------
// Hand-built node sets: no compression flow, so node counts, footprints
// and nets are exactly what the test states.

/// `count` 1x1x1 nodes, each hosting one module at its origin; no nets.
NodeSet unit_nodes(int count) {
  NodeSet set;
  for (int i = 0; i < count; ++i) {
    PlacementNode node;
    node.id = i;
    node.dims = {1, 1, 1};
    node.modules = {static_cast<pdgraph::ModuleId>(i)};
    node.module_offsets = {Vec3{}};
    set.nodes.push_back(node);
    set.node_of_module.push_back(i);
  }
  set.module_offset.assign(static_cast<std::size_t>(count), Vec3{});
  set.flip_of_module.assign(static_cast<std::size_t>(count), 0);
  set.access_offsets.assign(static_cast<std::size_t>(count), {});
  return set;
}

// The placer's wirelength is the HPWL of every net over its placed module
// cells: zero without nets or with one pin, fixed by the node's own
// footprint when every pin sits on one node (rotation only swaps x and z),
// and the Manhattan distance of the two cells for a two-node net.
TEST(HpwlTest, DegenerateAndBasic) {
  PlaceOptions opt;
  opt.seed = 3;
  NodeSet set = unit_nodes(3);
  EXPECT_EQ(place_modules(set, opt).wirelength, 0);
  set.net_pins = {{0}, {2}};
  EXPECT_EQ(place_modules(set, opt).wirelength, 0);

  // One 3x1x2 node with modules at opposite corners, plus a lone node.
  NodeSet corner = unit_nodes(2);
  corner.nodes[0].dims = {3, 1, 2};
  corner.nodes[0].modules = {0, 1};
  corner.nodes[0].module_offsets = {Vec3{0, 0, 0}, Vec3{2, 0, 1}};
  corner.nodes[1].modules = {2};
  corner.node_of_module = {0, 0, 1};
  corner.module_offset = {Vec3{0, 0, 0}, Vec3{2, 0, 1}, Vec3{}};
  corner.flip_of_module.assign(3, 0);
  corner.access_offsets.assign(3, {});
  corner.net_pins = {{0, 1}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    opt.seed = seed;
    EXPECT_EQ(place_modules(corner, opt).wirelength, 3) << "seed " << seed;
  }

  NodeSet pair = unit_nodes(4);
  pair.net_pins = {{0, 3}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    opt.seed = seed;
    const Placement p = place_modules(pair, opt);
    const Vec3 a = p.module_cell[0];
    const Vec3 b = p.module_cell[3];
    EXPECT_EQ(p.wirelength, manhattan(a, b)) << "seed " << seed;
    EXPECT_GE(p.wirelength, 1) << "seed " << seed;
  }
}

// Unit nodes pack without overlap in any layer count, and the reported
// volume is the core's.
TEST(PlacerTest, UnitNodesLandOnDistinctCells) {
  for (const int count : {1, 5, 27}) {
    PlaceOptions opt;
    opt.seed = 2;
    const Placement p = place_modules(unit_nodes(count), opt);
    std::set<std::tuple<int, int, int>> cells;
    for (const Vec3& c : p.module_cell)
      EXPECT_TRUE(cells.insert({c.x, c.y, c.z}).second)
          << count << " nodes: two modules share " << c;
    EXPECT_EQ(p.volume, p.core.volume());
    EXPECT_GE(p.volume, count);
  }
}

// The SA budget is 400 iterations per node, clamped to [2000, 60000],
// times the effort; there is no other knob.
TEST(PlacerTest, IterationBudgetFollowsNodeCountAndEffort) {
  struct Case {
    int nodes;
    double effort;
    int want;
  };
  for (const Case c : {Case{2, 1.0, 2000}, Case{2, 0.5, 1000},
                       Case{10, 1.0, 4000}, Case{10, 0.25, 1000},
                       Case{160, 0.01, 600}}) {
    PlaceOptions opt;
    opt.effort = c.effort;
    const Placement p = place_modules(unit_nodes(c.nodes), opt);
    EXPECT_EQ(p.iterations_run, c.want)
        << c.nodes << " nodes, effort " << c.effort;
  }
}

// The layer count is the cube root of the summed footprint area, rounded,
// at least 1 and at most the node count (and 48).
TEST(PlacerTest, LayerCountIsCubeBalanced) {
  PlaceOptions opt;
  opt.effort = 0.1;
  for (const auto& [count, want] :
       {std::pair{1, 1}, std::pair{7, 2}, std::pair{8, 2},
        std::pair{27, 3}, std::pair{30, 3}, std::pair{64, 4}})
    EXPECT_EQ(place_modules(unit_nodes(count), opt).layers, want)
        << count << " unit nodes";

  // Area 32 would ask for 3 layers, but two nodes fill at most two.
  NodeSet big = unit_nodes(2);
  big.nodes[0].dims = {4, 1, 4};
  big.nodes[1].dims = {4, 1, 4};
  EXPECT_EQ(place_modules(big, opt).layers, 2);
}

// The anneal starts at t0 = max(1, kT0Fraction * initial cost), and every
// sample is one kCooling step colder than the previous one.
TEST(PlacerTest, TemperatureLadderFollowsScheduleConstants) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions opt;
  opt.seed = 9;
  opt.batch = 32;
  const Placement p = place_modules(built.nodes, opt);
  const std::vector<SaSample>& curve = p.sa_curve;
  ASSERT_GT(curve.size(), 1u);
  EXPECT_GE(curve.front().temperature, 1.0);
  for (std::size_t k = 1; k < curve.size(); ++k)
    EXPECT_DOUBLE_EQ(curve[k].temperature, curve[k - 1].temperature * kCooling)
        << "sample " << k;
}

/// Bit-identical comparison: geometry, every SA counter, and the whole
/// convergence curve. Doubles compare exactly on purpose: the cost
/// arithmetic is integer-valued, so any difference is a determinism bug.
void expect_identical_placement(const Placement& a, const Placement& b) {
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.initial_volume, b.initial_volume);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.moves_accepted, b.moves_accepted);
  EXPECT_EQ(a.moves_rejected, b.moves_rejected);
  EXPECT_EQ(a.repacked_nodes, b.repacked_nodes);
  EXPECT_EQ(a.node_rotated, b.node_rotated);
  EXPECT_EQ(a.node_origin, b.node_origin);
  EXPECT_EQ(a.module_cell, b.module_cell);
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  for (std::size_t i = 0; i < a.boxes.size(); ++i)
    EXPECT_EQ(a.boxes[i].origin, b.boxes[i].origin) << "box " << i;
  ASSERT_EQ(a.sa_curve.size(), b.sa_curve.size());
  for (std::size_t s = 0; s < a.sa_curve.size(); ++s) {
    EXPECT_EQ(a.sa_curve[s].cost, b.sa_curve[s].cost) << "sample " << s;
    EXPECT_EQ(a.sa_curve[s].temperature, b.sa_curve[s].temperature);
    EXPECT_EQ(a.sa_curve[s].accept_rate, b.sa_curve[s].accept_rate);
  }
}

// PlaceOptions::threads is inert: the one chain runs on the calling thread
// whatever it says, so every value gives the same placement.
TEST(PlacerTest, ThreadsFieldLeavesThePlacementUnchanged) {
  icm::WorkloadSpec spec;
  spec.qubits = 40;
  spec.cnots = 60;
  spec.y_states = 12;
  spec.a_states = 6;
  spec.seed = 9;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions opt;
  opt.seed = 9;
  const Placement base = place_modules(built.nodes, opt);
  EXPECT_GT(base.moves_accepted, 0);
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    PlaceOptions threaded = opt;
    threaded.threads = threads;
    expect_identical_placement(base, place_modules(built.nodes, threaded));
  }
}

// place_modules keeps no state between calls, so the compiler may run
// several placements at once (one per whitespace level or restart). Two
// concurrent calls must each match the same call made alone.
TEST(PlacerTest, ConcurrentCallsMatchSerialCalls) {
  icm::WorkloadSpec spec;
  spec.qubits = 48;
  spec.cnots = 72;
  spec.y_states = 14;
  spec.a_states = 7;
  spec.seed = 11;
  const auto built = build_for(icm::make_workload(spec));
  PlaceOptions first;
  first.seed = 11;
  PlaceOptions second = first;
  second.seed = 5;
  second.layer_y_gap = 1;
  const Placement want_first = place_modules(built.nodes, first);
  const Placement want_second = place_modules(built.nodes, second);
  Placement got_first, got_second;
  std::thread worker(
      [&] { got_second = place_modules(built.nodes, second); });
  got_first = place_modules(built.nodes, first);
  worker.join();
  {
    SCOPED_TRACE("seed 11");
    expect_identical_placement(want_first, got_first);
  }
  {
    SCOPED_TRACE("seed 5, y-gap 1");
    expect_identical_placement(want_second, got_second);
  }
}

// Regression for the demoted per-batch resync: the tracked wirelength is
// exact integer arithmetic, so the reported value must equal an external
// integer HPWL recompute to the last bit (EXPECT_EQ, not EXPECT_NEAR). Release and checked builds run the identical arithmetic —
// the debug cross-check assert is the only difference — so both converge
// to the same costs by construction, and this pins it.
TEST(PlacerTest, WirelengthExactlyMatchesIntegerRecompute) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  spec.seed = 0;
  const auto built = build_for(icm::make_workload(spec));
  for (const std::uint64_t seed : {3, 9, 21}) {
    PlaceOptions opt;
    opt.seed = seed;
    opt.batch = 32;  // frequent batch boundaries exercise the debug check
    const Placement placement = place_modules(built.nodes, opt);
    std::int64_t wire = 0;
    for (const auto& pins : built.nodes.net_pins) {
      if (pins.size() < 2) continue;
      Box3 bbox;
      for (pdgraph::ModuleId m : pins)
        bbox =
            bbox.expanded(placement.module_cell[static_cast<std::size_t>(m)]);
      const Vec3 d = bbox.dims();
      wire += (d.x - 1) + (d.y - 1) + (d.z - 1);
    }
    EXPECT_EQ(placement.wirelength, static_cast<double>(wire))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// B*-tree incremental packing.

class BStarIncrementalOps : public ::testing::TestWithParam<std::uint64_t> {};

/// Property: after any randomized sequence of structural edits and
/// footprint rotations, pack_update() must produce exactly the placement a
/// stateless full pack() produces — same extents, same per-item
/// coordinates — and its delta must only report correct coordinates.
TEST_P(BStarIncrementalOps, IncrementalPackMatchesFullPack) {
  Rng rng(GetParam());
  const int universe = 32;
  std::vector<Footprint> dims(static_cast<std::size_t>(universe));
  std::vector<char> rotated(static_cast<std::size_t>(universe), 0);
  for (auto& d : dims) d = {rng.range(1, 5), rng.range(1, 5)};
  const auto footprint = [&](int item) {
    const Footprint& d = dims[static_cast<std::size_t>(item)];
    return rotated[static_cast<std::size_t>(item)] ? Footprint{d.d, d.w} : d;
  };

  BStarTree tree;
  std::set<int> present;
  for (int step = 0; step < 220; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.35 && static_cast<int>(present.size()) < universe) {
      int item = rng.range(0, universe - 1);
      while (present.count(item)) item = (item + 1) % universe;
      tree.insert(item, rng);
      present.insert(item);
    } else if (roll < 0.55 && !present.empty()) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      tree.remove(*it, rng);
      present.erase(it);
    } else if (roll < 0.8 && present.size() >= 2) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      const int a = *it;
      it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      const int b = *it;
      if (a != b) tree.swap_items(a, b);
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.below(present.size())));
      rotated[static_cast<std::size_t>(*it)] ^= 1;
      tree.mark_item_dirty(*it);
    }

    const BStarTree::PackDelta& delta = tree.pack_update(footprint);
    const PackResult full = tree.pack(footprint);
    ASSERT_EQ(delta.width, full.width) << "step " << step;
    ASSERT_EQ(delta.depth, full.depth) << "step " << step;
    ASSERT_TRUE(tree.pack_cache_clean());
    EXPECT_EQ(tree.packed_width(), full.width);
    EXPECT_EQ(tree.packed_depth(), full.depth);
    std::unordered_map<int, std::pair<int, int>> coord;
    for (const PackedItem& p : full.placed) {
      coord.emplace(p.item, std::pair(p.x, p.z));
      ASSERT_EQ(tree.packed_x(p.item), p.x) << "step " << step;
      ASSERT_EQ(tree.packed_z(p.item), p.z) << "step " << step;
    }
    for (const PackedItem& p : delta.repacked) {
      ASSERT_TRUE(coord.count(p.item));
      EXPECT_EQ(coord.at(p.item), std::pair(p.x, p.z)) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BStarIncrementalOps,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u));

/// A perturbation at preorder position k must repack exactly the suffix
/// [k, n) — on a left chain (preorder position == insertion index) that is
/// a sharp, deterministic count.
TEST(BStarIncrementalTest, SuffixDeltaIsProportionalToDisturbance) {
  const auto unit = [](int) { return Footprint{2, 1}; };
  BStarTree tree;
  for (int i = 0; i < 32; ++i) tree.insert_chain(i);
  EXPECT_EQ(tree.pack_update(unit).repacked.size(), 32u);  // cold pack
  tree.swap_items(30, 31);
  EXPECT_EQ(tree.pack_update(unit).repacked.size(), 2u);
  tree.mark_item_dirty(8);
  EXPECT_EQ(tree.pack_update(unit).repacked.size(), 24u);
  // No edits since: the incremental pack is a no-op with cached extents.
  const BStarTree::PackDelta& idle = tree.pack_update(unit);
  EXPECT_TRUE(idle.repacked.empty());
  EXPECT_EQ(idle.width, 64);
  EXPECT_EQ(idle.depth, 1);
}

TEST(BStarIncrementalTest, EmptyTreePacksClean) {
  BStarTree tree;
  const auto unit = [](int) { return Footprint{1, 1}; };
  const BStarTree::PackDelta& delta = tree.pack_update(unit);
  EXPECT_TRUE(delta.repacked.empty());
  EXPECT_EQ(delta.width, 0);
  EXPECT_TRUE(tree.pack_cache_clean());
  EXPECT_EQ(tree.packed_width(), 0);
  EXPECT_EQ(tree.packed_depth(), 0);
}

}  // namespace
}  // namespace tqec::place
