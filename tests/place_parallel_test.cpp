// Determinism and equivalence suite for the incremental-contour SA placer
// (DESIGN.md §Placement): the placement result — every node origin, every
// module cell, every schedule statistic — must be bit-identical for any
// --place-threads value, because replicas advance on private RNG streams
// and every cross-replica decision (replica exchange, winner selection) is
// made serially in ladder order, never in completion order. The suite
// asserts that across thread counts {1, 2, 8} on real SA flows, plus
// exact-integer wirelength bookkeeping and B*-tree incremental-pack ==
// stateless full pack over randomized perturbation sequences.
//
// The threads=8 cases double as the TSan workload: the CI thread-sanitizer
// job builds and runs this binary, so a data race between concurrently
// annealing replicas fails CI even when it does not corrupt the result.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "icm/workload.h"
#include "place/bstar_tree.h"
#include "place/nodes.h"
#include "place/placer.h"

namespace tqec::place {
namespace {

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

// ---------------------------------------------------------------------------
// Placer determinism.

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

BuiltNodes workload_fixture(int qubits, int cnots, int y, int a,
                            std::uint64_t seed) {
  icm::WorkloadSpec spec;
  spec.qubits = qubits;
  spec.cnots = cnots;
  spec.y_states = y;
  spec.a_states = a;
  spec.seed = seed;
  return build_for(icm::make_workload(spec));
}

/// Bit-identical comparison: geometry, every schedule statistic, and the
/// full per-replica convergence curves. Floating-point fields use exact
/// equality on purpose — the cost arithmetic is integer-valued, so any
/// difference is a determinism bug, not rounding.
void expect_identical_placement(const Placement& a, const Placement& b) {
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.initial_volume, b.initial_volume);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
  EXPECT_EQ(a.moves_accepted, b.moves_accepted);
  EXPECT_EQ(a.moves_rejected, b.moves_rejected);
  EXPECT_EQ(a.repacked_nodes, b.repacked_nodes);
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.selected_replica, b.selected_replica);
  EXPECT_EQ(a.exchanges_attempted, b.exchanges_attempted);
  EXPECT_EQ(a.exchanges_accepted, b.exchanges_accepted);
  EXPECT_EQ(a.node_rotated, b.node_rotated);
  ASSERT_EQ(a.node_origin.size(), b.node_origin.size());
  for (std::size_t i = 0; i < a.node_origin.size(); ++i)
    EXPECT_EQ(a.node_origin[i], b.node_origin[i]) << "node " << i;
  ASSERT_EQ(a.module_cell.size(), b.module_cell.size());
  for (std::size_t m = 0; m < a.module_cell.size(); ++m)
    EXPECT_EQ(a.module_cell[m], b.module_cell[m]) << "module " << m;
  ASSERT_EQ(a.boxes.size(), b.boxes.size());
  for (std::size_t i = 0; i < a.boxes.size(); ++i)
    EXPECT_EQ(a.boxes[i].origin, b.boxes[i].origin) << "box " << i;
  ASSERT_EQ(a.replica_curves.size(), b.replica_curves.size());
  for (std::size_t r = 0; r < a.replica_curves.size(); ++r) {
    ASSERT_EQ(a.replica_curves[r].size(), b.replica_curves[r].size())
        << "replica " << r;
    for (std::size_t s = 0; s < a.replica_curves[r].size(); ++s) {
      EXPECT_EQ(a.replica_curves[r][s].cost, b.replica_curves[r][s].cost)
          << "replica " << r << " batch " << s;
      EXPECT_EQ(a.replica_curves[r][s].temperature,
                b.replica_curves[r][s].temperature);
      EXPECT_EQ(a.replica_curves[r][s].accept_rate,
                b.replica_curves[r][s].accept_rate);
    }
  }
}

PlaceOptions options_with(std::uint64_t seed, int replicas, int threads) {
  PlaceOptions opt;
  opt.seed = seed;
  opt.replicas = replicas;
  opt.threads = threads;
  return opt;
}

void expect_thread_invariance(const NodeSet& nodes, std::uint64_t seed,
                              int replicas) {
  const Placement one =
      place_modules(nodes, options_with(seed, replicas, /*threads=*/1));
  for (const int threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " replicas="
                                      << replicas << " threads=" << threads);
    const Placement many =
        place_modules(nodes, options_with(seed, replicas, threads));
    expect_identical_placement(one, many);
  }
}

TEST(PlaceParallelTest, TemperingIdenticalAcrossThreadCounts) {
  const BuiltNodes cross = workload_fixture(48, 72, 14, 7, 11);
  expect_thread_invariance(cross.nodes, /*seed=*/11, /*replicas=*/4);
  const BuiltNodes random = workload_fixture(40, 60, 12, 6, 3);
  expect_thread_invariance(random.nodes, /*seed=*/5, /*replicas=*/3);
}

TEST(PlaceParallelTest, SingleReplicaIdenticalAcrossThreadCounts) {
  const BuiltNodes built = workload_fixture(40, 60, 12, 6, 9);
  expect_thread_invariance(built.nodes, /*seed=*/9, /*replicas=*/1);
}

TEST(PlaceParallelTest, SingleReplicaHasDegenerateSchedule) {
  const BuiltNodes built = workload_fixture(40, 60, 12, 6, 9);
  const Placement p = place_modules(built.nodes, options_with(9, 1, 1));
  EXPECT_EQ(p.replicas, 1);
  EXPECT_EQ(p.selected_replica, 0);
  EXPECT_EQ(p.exchanges_attempted, 0);
  EXPECT_EQ(p.exchanges_accepted, 0);
  ASSERT_EQ(p.replica_curves.size(), 1u);
  ASSERT_EQ(p.replica_curves[0].size(), p.sa_curve.size());
  EXPECT_GT(p.repacked_nodes, 0);
}

TEST(PlaceParallelTest, TemperingScheduleCountersConsistent) {
  const BuiltNodes built = workload_fixture(48, 72, 14, 7, 11);
  const Placement p = place_modules(built.nodes, options_with(11, 4, 2));
  EXPECT_EQ(p.replicas, 4);
  EXPECT_GE(p.selected_replica, 0);
  EXPECT_LT(p.selected_replica, 4);
  EXPECT_GT(p.exchanges_attempted, 0);
  EXPECT_LE(p.exchanges_accepted, p.exchanges_attempted);
  ASSERT_EQ(p.replica_curves.size(), 4u);
  const std::vector<SaSample>& winner =
      p.replica_curves[static_cast<std::size_t>(p.selected_replica)];
  ASSERT_EQ(winner.size(), p.sa_curve.size());
  for (std::size_t s = 0; s < winner.size(); ++s)
    EXPECT_EQ(winner[s].cost, p.sa_curve[s].cost);
  // Hotter replicas start hotter: the ladder is strictly staggered.
  for (std::size_t r = 1; r < p.replica_curves.size(); ++r) {
    ASSERT_FALSE(p.replica_curves[r].empty());
    EXPECT_GT(p.replica_curves[r][0].temperature,
              p.replica_curves[r - 1][0].temperature);
  }
  // iterations_run sums over replicas, so each replica annealed 1/4 of it.
  EXPECT_EQ(p.iterations_run % 4, 0);
}

// Satellite regression for the demoted per-batch resync: the tracked
// wirelength is exact integer arithmetic, so the reported value must equal
// an external integer HPWL recompute to the last bit (EXPECT_EQ, not
// EXPECT_NEAR). Release and checked builds run the identical arithmetic —
// the debug cross-check assert is the only difference — so both converge
// to the same costs by construction, and this pins it.
TEST(PlaceParallelTest, WirelengthExactlyMatchesIntegerRecompute) {
  const BuiltNodes built = workload_fixture(60, 90, 18, 9, 0);
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

}  // namespace
}  // namespace tqec::place
