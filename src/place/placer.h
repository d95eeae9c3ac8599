// 2.5D module placement with simulated annealing (paper Sec. 3.5).
//
// The placement nodes (primal-bridging / time-dependent / distillation
// super-modules) are packed into a stack of 2.5D layers, each layer a
// B*-tree floorplan in the (x, z) plane; a layer's height along y is the
// tallest node it holds. The SA engine minimizes
//     cost = alpha * volume + beta * total-wirelength
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
// and re-evaluates only the nets of nodes whose cells actually moved. All
// wirelength bookkeeping is exact integer arithmetic, so the tracked cost
// never drifts from a full recompute (checked builds assert this at every
// temperature-batch boundary).
//
// Optional parallel tempering: `replicas` > 1 anneals R temperature-
// staggered chains and swaps their configurations at temperature-batch
// boundaries (replica exchange). Chains run concurrently on up to
// `threads` workers, but every cross-chain decision is made serially from
// a dedicated RNG stream, so results are bit-identical for any thread
// count — the same determinism contract as `--route-threads`. With
// `replicas` == 1 the engine is move-for-move identical to the classic
// single-chain annealer.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geometry.h"
#include "place/bstar_tree.h"
#include "place/nodes.h"

namespace tqec::place {

/// Net-wirelength model used inside the SA cost (see geom/steiner.h).
enum class WireModel : std::uint8_t {
  Hpwl,  // bounding-box half-perimeter (fastest, default)
  Mst,   // rectilinear MST for nets up to 8 pins, HPWL beyond
};

struct PlaceOptions {
  std::uint64_t seed = 1;
  /// Number of 2.5D layers; 0 = automatic (cube-balanced).
  int layers = 0;
  double alpha_volume = 1.0;
  double beta_wire = 0.5;
  WireModel wire_model = WireModel::Hpwl;
  /// SA iteration budget per replica; 0 = automatic from the node count.
  /// The budget scales multiplicatively with `effort`.
  int iterations = 0;
  double effort = 1.0;
  /// Initial acceptance temperature as a fraction of the initial cost.
  double t0_fraction = 0.05;
  double cooling = 0.97;
  /// Iterations per temperature step; 0 = automatic.
  int batch = 0;
  /// Free routing plane inserted above every layer (congestion-driven
  /// whitespace; the compiler escalates to 1 when routing cannot legalize).
  int layer_y_gap = 0;
  /// Parallel-tempering chain count. 1 (default) reproduces the classic
  /// single-chain annealer exactly; R > 1 adds R-1 hotter chains and
  /// replica exchange. The *result* depends only on this, never on
  /// `threads`.
  int replicas = 1;
  /// Temperature ratio between adjacent chains of the tempering ladder.
  double replica_stagger = 1.6;
  /// Worker threads for running replicas concurrently; 0 = let the caller
  /// decide (the compiler splits --jobs across attempts; plain
  /// place_modules treats 0 as 1). Bit-identical results for any value.
  int threads = 0;
};

/// One SA convergence sample, taken at every temperature-batch boundary
/// (after the batch's debug cost cross-check, before cooling).
struct SaSample {
  double cost = 0;
  double temperature = 0;
  /// Accepted fraction of the batch's iterations (move-less iterations
  /// count toward the denominator, mirroring iterations_run).
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
  /// SA statistics, summed over all replicas. Accepted + rejected can fall
  /// short of iterations_run: some iterations propose no applicable move
  /// (e.g. rotating a non-rotatable node) and count as neither.
  std::int64_t initial_volume = 0;
  int iterations_run = 0;
  int moves_accepted = 0;
  int moves_rejected = 0;
  /// Nodes repacked by pack_update across all moves and replicas
  /// (numerator of the repacked-nodes-per-move diagnostic).
  std::int64_t repacked_nodes = 0;
  /// Parallel-tempering schedule statistics (zero when replicas == 1).
  int replicas = 1;
  int selected_replica = 0;
  std::int64_t exchanges_attempted = 0;
  std::int64_t exchanges_accepted = 0;
  /// SA convergence curve of the selected replica, one sample per
  /// temperature batch (always collected — a push_back per batch is free
  /// next to the batch itself).
  std::vector<SaSample> sa_curve;
  /// Convergence curves of every replica, indexed by ladder position
  /// (replica_curves[selected_replica] == sa_curve).
  std::vector<std::vector<SaSample>> replica_curves;
};

/// Place a node set. Deterministic for a fixed seed and replica count,
/// independent of `threads`.
Placement place_modules(const NodeSet& nodes, const PlaceOptions& options);

}  // namespace tqec::place
