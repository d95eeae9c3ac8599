// 2.5D module placement with simulated annealing (paper Sec. 3.5).
//
// The placement nodes (primal-bridging / time-dependent / distillation
// super-modules) are packed into a stack of 2.5D layers, each layer a
// B*-tree floorplan in the (x, z) plane; a layer's height along y is the
// tallest node it holds. The SA engine minimizes
//     cost = volume + kBetaWire * total-wirelength
// where volume is the bounding box (max layer width x max layer depth x
// summed layer heights) and wirelength is the 3D HPWL of the merged dual
// nets over their module pins. Moves: rotate a node footprint, swap two
// nodes, and relocate a node (possibly across layers).
//
// Because primal bridging collapses hundreds of modules into a handful of
// chain nodes, the SA search space shrinks drastically versus the
// dual-only baseline — the effect the paper credits for both the better
// initial solution and the better final volume on large benchmarks.
//
// The inner loop is incremental end to end: every perturbation repacks
// only the dirty suffix of its layer's B*-tree (BStarTree::pack_update)
// and re-evaluates only the nets of nodes whose cells or layer changed. A
// net's HPWL is scored over one bounding-box term per host node, not per
// pin, and split into a base-free planar part plus the bases of its top
// and bottom layers, so a layer-height change updates the total in
// O(layers). A rejected move restores the wirelength caches from a
// journal instead of re-evaluating, and its trees from snapshots that
// leave out the global item index. All wirelength bookkeeping is exact
// integer arithmetic, so the tracked cost never drifts from a full
// recompute (checked builds assert this, and agreement with a per-pin
// HPWL, at every temperature-batch boundary).
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "geom/geometry.h"
#include "place/bstar_tree.h"
#include "place/nodes.h"

namespace tqec::place {

// Fixed annealing schedule and cost weight. The shard checkpoint
// fingerprint hashes them, so changing one orphans existing checkpoints.

/// Weight of the wirelength against the volume (weight 1) in the cost.
inline constexpr double kBetaWire = 0.5;
/// Initial acceptance temperature as a fraction of the initial cost.
inline constexpr double kT0Fraction = 0.05;
/// Temperature multiplier per cooling step.
inline constexpr double kCooling = 0.97;

struct PlaceOptions {
  std::uint64_t seed = 1;
  /// Scales the SA iteration budget, which is derived from the node count
  /// (as is the cube-balanced number of 2.5D layers).
  double effort = 1.0;
  /// Iterations per temperature step; 0 = automatic.
  int batch = 0;
  /// Free routing plane inserted above every layer (congestion-driven
  /// whitespace; the compiler escalates to 1 when routing cannot legalize).
  int layer_y_gap = 0;
  /// Inert: the annealer runs one chain on the calling thread. Kept only
  /// because perfbench's replay still assigns it; delete it with that use.
  int threads = 0;
};

/// One SA convergence sample, taken at every cooling step (a batch
/// boundary that defers its cooling step defers its sample too).
struct SaSample {
  double cost = 0;
  double temperature = 0;
  /// Accepted fraction of the iterations since the previous sample
  /// (move-less iterations count toward the denominator, mirroring
  /// iterations_run), so always within [0, 1].
  double accept_rate = 0;
};

struct Placement {
  /// Absolute origin cell of each node (y = its layer's base).
  std::vector<Vec3> node_origin;
  /// Whether each node's footprint was rotated (x/z transposed).
  std::vector<bool> node_rotated;
  /// Absolute cell of each module (node origin + intra-node offset).
  std::vector<Vec3> module_cell;
  /// Absolute distillation boxes.
  std::vector<geom::DistillBox> boxes;
  /// Core bounding box of the placement (modules + boxes).
  Box3 core;
  std::int64_t volume = 0;
  double wirelength = 0;
  int layers = 0;
  /// SA statistics. Accepted + rejected can fall short of iterations_run:
  /// some iterations propose no applicable move (e.g. rotating a
  /// non-rotatable node) and count as neither.
  std::int64_t initial_volume = 0;
  int iterations_run = 0;
  int moves_accepted = 0;
  int moves_rejected = 0;
  /// Nodes repacked by pack_update across all moves (numerator of the
  /// repacked-nodes-per-move diagnostic).
  std::int64_t repacked_nodes = 0;
  /// SA convergence curve, one sample per temperature batch (always
  /// collected — a push_back per batch is free next to the batch itself).
  std::vector<SaSample> sa_curve;
};

/// Place a node set. Deterministic for a fixed seed. `stop`, when
/// non-null, is polled before every temperature batch: once it fires the
/// anneal ends there, leaving the best layout seen so far (core::compile stops a speculative whitespace
/// level this way; a stopped placement is meant to be discarded).
Placement place_modules(const NodeSet& nodes, const PlaceOptions& options,
                        const CancelToken* stop = nullptr);

/// Add a placement's SA tallies (iterations, accepted/rejected moves,
/// repacked nodes) to the trace counters. place_modules leaves this to its
/// caller, which knows whether the run counts.
void publish_counters(const Placement& placement);

}  // namespace tqec::place
