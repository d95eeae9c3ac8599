#include "place/placer.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "geom/steiner.h"

namespace tqec::place {

namespace {

/// One annealing chain (replica): the complete mutable SA state plus its
/// own RNG stream and ladder temperature. Chains never touch each other's
/// state while running, so replicas can anneal concurrently; every
/// cross-chain decision (replica exchange, winner selection) happens
/// serially in place_modules under a thread-count-independent order.
class Chain {
 public:
  struct LayerCache {
    int width = 0;
    int depth = 0;
    int height = 0;
  };

  Chain(const NodeSet& nodes, const PlaceOptions& opt,
        const std::vector<std::vector<int>>& nets_of_node)
      : nodes_(nodes),
        opt_(opt),
        nets_of_node_(nets_of_node),
        node_count_(nodes.node_count()) {}

  void init(int layer_count) {
    build_initial(layer_count);
    changed_nodes_.clear();
    cost_ = evaluate(/*full_nets=*/true, &volume_, &wire_);
    initial_volume_ = volume_;
    best_cost_ = cost_;
    best_state_ = snapshot();
  }

  void run_steps(int count) {
    for (int i = 0; i < count; ++i) last_step_applied_ = step();
  }

  /// One full temperature batch: `count` moves, then the batch-boundary
  /// bookkeeping (debug drift cross-check, convergence sample, cooling).
  /// A boundary whose final move failed to materialize (non-rotatable
  /// rotate, lone-node relocate) defers its cooling step and sample to the
  /// next boundary — the original annealer's schedule, kept so fixed-seed
  /// placements (and the committed Table 2/3 volumes) are reproduced
  /// move-for-move at replicas == 1.
  void run_batch(int count) {
    run_steps(count);
    if (!last_step_applied_) return;
    const double batch_temperature = temperature_;
    temperature_ *= opt_.cooling;
    // All wirelength bookkeeping is exact integer arithmetic, so the
    // incremental total cannot drift from a full recompute; checked builds
    // verify that at every temperature step instead of resyncing.
#ifndef NDEBUG
    {
      const std::int64_t tracked = total_wire_;
      full_wire_recompute();
      TQEC_ASSERT(total_wire_ == tracked,
                  "incremental wirelength diverged from full recompute");
    }
#endif
    sa_curve_.push_back(
        {cost_, batch_temperature,
         static_cast<double>(accepted_ - accepted_at_batch_start_) / count});
    accepted_at_batch_start_ = accepted_;
  }

  /// Exchange configurations with another chain (replica exchange): the
  /// layouts and their derived caches migrate, the ladder temperature, RNG
  /// stream, curve, and counters stay with the lane.
  void swap_config(Chain& other) {
    std::swap(layers_, other.layers_);
    std::swap(cache_, other.cache_);
    std::swap(layer_of_node_, other.layer_of_node_);
    std::swap(rotated_, other.rotated_);
    std::swap(plane_x_, other.plane_x_);
    std::swap(plane_z_, other.plane_z_);
    std::swap(layer_base_, other.layer_base_);
    std::swap(wl_of_net_, other.wl_of_net_);
    std::swap(net_stamp_, other.net_stamp_);
    std::swap(stamp_, other.stamp_);
    std::swap(total_wire_, other.total_wire_);
    std::swap(cost_, other.cost_);
    std::swap(volume_, other.volume_);
    std::swap(wire_, other.wire_);
  }

  /// Restore the best layout this lane ever held and emit the geometric
  /// part of the Placement.
  Placement materialize() {
    std::tie(layers_, layer_of_node_, rotated_) = std::move(best_state_);
    for (std::size_t l = 0; l < layers_.size(); ++l)
      refresh_layer_from_tree(static_cast<int>(l));
    std::int64_t final_volume = 0;
    std::int64_t final_wire = 0;
    evaluate(/*full_nets=*/true, &final_volume, &final_wire);

    Placement placement;
    placement.node_origin.assign(nodes_.nodes.size(), Vec3{});
    for (std::size_t n = 0; n < nodes_.nodes.size(); ++n)
      placement.node_origin[n] = {
          plane_x_[n],
          layer_base_[static_cast<std::size_t>(layer_of_node_[n])],
          plane_z_[n]};
    placement.node_rotated.assign(rotated_.begin(), rotated_.end());
    placement.module_cell.assign(nodes_.node_of_module.size(), Vec3{});
    for (std::size_t m = 0; m < nodes_.node_of_module.size(); ++m)
      placement.module_cell[m] =
          module_cell(static_cast<pdgraph::ModuleId>(m));
    for (const PlacementNode& n : nodes_.nodes) {
      for (const NodeBox& box : n.boxes) {
        TQEC_ASSERT(!rotated_[static_cast<std::size_t>(n.id)],
                    "distillation nodes must not rotate");
        placement.boxes.push_back(
            {box.kind, placement.node_origin[static_cast<std::size_t>(n.id)] +
                           box.offset,
             box.line});
      }
    }
    Box3 core;
    for (const Vec3& cell : placement.module_cell) core = core.expanded(cell);
    for (const geom::DistillBox& b : placement.boxes)
      core = core.merged(b.extent());
    placement.core = core;
    placement.volume = core.volume();
    placement.wirelength = static_cast<double>(final_wire);
    placement.layers = static_cast<int>(layers_.size());
    placement.initial_volume = initial_volume_;
    return placement;
  }

  double temperature_ = 1.0;
  Rng rng_{0};
  double cost_ = 0;
  double best_cost_ = 0;
  int accepted_ = 0;
  int rejected_ = 0;
  std::int64_t repacked_nodes_ = 0;
  std::vector<SaSample> sa_curve_;

 private:
  Footprint footprint(int node) const {
    const PlacementNode& n = nodes_.nodes[static_cast<std::size_t>(node)];
    if (rotated_[static_cast<std::size_t>(node)]) return {n.dims.z, n.dims.x};
    return {n.dims.x, n.dims.z};
  }

  bool can_rotate(int node) const {
    return nodes_.nodes[static_cast<std::size_t>(node)].kind ==
           NodeKind::PrimalChain;
  }

  /// Re-pack one layer incrementally and fold the repacked delta into the
  /// plane-coordinate cache, collecting the nodes whose cells moved.
  void repack(int layer) {
    BStarTree& tree = layers_[static_cast<std::size_t>(layer)];
    const BStarTree::PackDelta& delta =
        tree.pack_update([this](int item) { return footprint(item); });
    LayerCache& c = cache_[static_cast<std::size_t>(layer)];
    c.width = delta.width;
    c.depth = delta.depth;
    for (const PackedItem& p : delta.repacked) {
      int& px = plane_x_[static_cast<std::size_t>(p.item)];
      int& pz = plane_z_[static_cast<std::size_t>(p.item)];
      if (px != p.x || pz != p.z) {
        px = p.x;
        pz = p.z;
        changed_nodes_.push_back(p.item);
      }
    }
    repacked_nodes_ += static_cast<std::int64_t>(delta.repacked.size());
  }

  /// Layer height depends only on the *set* of items in the layer (node
  /// y-dims are rotation-invariant — rotation transposes x/z), so it is
  /// recomputed only when a move adds or removes an item, not per repack.
  void recompute_height(int layer) {
    const BStarTree& tree = layers_[static_cast<std::size_t>(layer)];
    LayerCache& c = cache_[static_cast<std::size_t>(layer)];
    c.height = 0;
    for (int item : tree.items())
      c.height = std::max(
          c.height, nodes_.nodes[static_cast<std::size_t>(item)].dims.y);
    if (c.height > 0) c.height += opt_.layer_y_gap;
  }

  /// Resync a layer's caches from its tree's (clean) coordinate cache —
  /// used when a rollback or best-state restore replaced the tree object
  /// wholesale rather than through pack_update.
  void refresh_layer_from_tree(int layer) {
    BStarTree& tree = layers_[static_cast<std::size_t>(layer)];
    LayerCache& c = cache_[static_cast<std::size_t>(layer)];
    c.width = tree.empty() ? 0 : tree.packed_width();
    c.depth = tree.empty() ? 0 : tree.packed_depth();
    c.height = 0;
    for (int item : tree.items()) {
      c.height = std::max(
          c.height, nodes_.nodes[static_cast<std::size_t>(item)].dims.y);
      plane_x_[static_cast<std::size_t>(item)] = tree.packed_x(item);
      plane_z_[static_cast<std::size_t>(item)] = tree.packed_z(item);
    }
    if (c.height > 0) c.height += opt_.layer_y_gap;
  }

  /// After a snapshot rollback, restore the plane coordinates of every
  /// node the rejected candidate had moved, from whichever (restored,
  /// clean) tree now owns it.
  void restore_planes_of_changed() {
    for (int node : changed_nodes_) {
      const BStarTree& tree = layers_[static_cast<std::size_t>(
          layer_of_node_[static_cast<std::size_t>(node)])];
      plane_x_[static_cast<std::size_t>(node)] = tree.packed_x(node);
      plane_z_[static_cast<std::size_t>(node)] = tree.packed_z(node);
    }
  }

  Vec3 module_cell(pdgraph::ModuleId m) const {
    const int node = nodes_.node_of_module[static_cast<std::size_t>(m)];
    Vec3 off = nodes_.module_offset[static_cast<std::size_t>(m)];
    if (rotated_[static_cast<std::size_t>(node)]) off = {off.z, off.y, off.x};
    return Vec3{plane_x_[static_cast<std::size_t>(node)],
                layer_base_[static_cast<std::size_t>(
                    layer_of_node_[static_cast<std::size_t>(node)])],
                plane_z_[static_cast<std::size_t>(node)]} +
           off;
  }

  /// All wirelength models are integer-valued (HPWL and rectilinear MST
  /// over integer cells), so the running totals are exact — the basis for
  /// dropping the per-batch resync.
  std::int64_t net_wirelength(std::size_t net) const {
    const auto& pins = nodes_.net_pins[net];
    if (pins.size() < 2) return 0;
    if (opt_.wire_model == WireModel::Mst && pins.size() <= 8) {
      std::vector<Vec3> cells;
      cells.reserve(pins.size());
      for (pdgraph::ModuleId m : pins) cells.push_back(module_cell(m));
      return geom::rectilinear_mst_length(cells);
    }
    Box3 bbox;
    for (pdgraph::ModuleId m : pins) bbox = bbox.expanded(module_cell(m));
    const Vec3 d = bbox.dims();
    return (d.x - 1) + (d.y - 1) + (d.z - 1);
  }

  void full_wire_recompute() {
    total_wire_ = 0;
    for (std::size_t n = 0; n < nodes_.net_pins.size(); ++n) {
      wl_of_net_[n] = net_wirelength(n);
      total_wire_ += wl_of_net_[n];
    }
  }

  /// Refresh layer bases, then the wirelength of the nets incident to the
  /// nodes whose cells changed this move (full recompute when a layer
  /// height change shifted the bases — rare). Returns the new cost.
  double evaluate(bool full_nets, std::int64_t* volume_out,
                  std::int64_t* wire_out) {
    int width = 0;
    int depth = 0;
    int base = 0;
    bool bases_changed = false;
    for (std::size_t l = 0; l < cache_.size(); ++l) {
      width = std::max(width, cache_[l].width);
      depth = std::max(depth, cache_[l].depth);
      if (layer_base_[l] != base) bases_changed = true;
      layer_base_[l] = base;
      base += cache_[l].height;
    }
    const std::int64_t volume =
        std::int64_t{width} * depth * std::max(base, 1);

    if (full_nets || bases_changed) {
      full_wire_recompute();
    } else {
      ++stamp_;
      for (int node : changed_nodes_) {
        for (int net : nets_of_node_[static_cast<std::size_t>(node)]) {
          if (net_stamp_[static_cast<std::size_t>(net)] == stamp_) continue;
          net_stamp_[static_cast<std::size_t>(net)] = stamp_;
          total_wire_ -= wl_of_net_[static_cast<std::size_t>(net)];
          wl_of_net_[static_cast<std::size_t>(net)] =
              net_wirelength(static_cast<std::size_t>(net));
          total_wire_ += wl_of_net_[static_cast<std::size_t>(net)];
        }
      }
    }

    double order_penalty = 0;
    for (const auto& [before, after] : nodes_.cross_order) {
      const int xa = module_cell(before).x;
      const int xb = module_cell(after).x;
      if (xa >= xb) order_penalty += 10.0 * (xa - xb + 1);
    }

    if (volume_out != nullptr) *volume_out = volume;
    if (wire_out != nullptr) *wire_out = total_wire_;
    return opt_.alpha_volume * static_cast<double>(volume) +
           opt_.beta_wire * static_cast<double>(total_wire_) + order_penalty;
  }

  std::tuple<std::vector<BStarTree>, std::vector<int>, std::vector<bool>>
  snapshot() const {
    return std::tuple(layers_, layer_of_node_, rotated_);
  }

  void build_initial(int layer_count) {
    layers_.assign(static_cast<std::size_t>(layer_count), BStarTree{});
    cache_.assign(static_cast<std::size_t>(layer_count), LayerCache{});
    layer_base_.assign(static_cast<std::size_t>(layer_count), 0);
    layer_of_node_.assign(nodes_.nodes.size(), 0);
    rotated_.assign(nodes_.nodes.size(), false);
    plane_x_.assign(nodes_.nodes.size(), 0);
    plane_z_.assign(nodes_.nodes.size(), 0);
    wl_of_net_.assign(nodes_.net_pins.size(), 0);
    net_stamp_.assign(nodes_.net_pins.size(), 0);

    // Big nodes first, round-robin across layers; each layer starts as a
    // row (left-skewed chain), which the SA then reshapes.
    std::vector<int> order(nodes_.nodes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto area = [&](int n) {
        const Vec3 d = nodes_.nodes[static_cast<std::size_t>(n)].dims;
        return std::int64_t{d.x} * d.z;
      };
      return std::tuple(-area(a), a) < std::tuple(-area(b), b);
    });
    int next_layer = 0;
    for (int node : order) {
      layers_[static_cast<std::size_t>(next_layer)].insert_chain(node);
      layer_of_node_[static_cast<std::size_t>(node)] = next_layer;
      next_layer = (next_layer + 1) % layer_count;
    }
    for (int l = 0; l < layer_count; ++l) {
      repack(l);
      recompute_height(l);
    }
  }

  bool step() {
    enum class Move { Rotate, Swap, Relocate };
    const double roll = rng_.uniform();
    const Move move = roll < 0.3    ? Move::Rotate
                      : roll < 0.65 ? Move::Swap
                                    : Move::Relocate;

    const int a = static_cast<int>(rng_.below(
        static_cast<std::uint64_t>(node_count_)));
    int b = a;
    if (node_count_ > 1) {
      while (b == a)
        b = static_cast<int>(rng_.below(
            static_cast<std::uint64_t>(node_count_)));
    }

    const int la = layer_of_node_[static_cast<std::size_t>(a)];
    const int lb = layer_of_node_[static_cast<std::size_t>(b)];
    int target_layer = la;
    const bool saved_rot = rotated_[static_cast<std::size_t>(a)];
    bool applied = false;
    changed_nodes_.clear();

    switch (move) {
      case Move::Rotate:
        if (!can_rotate(a)) break;
        rotated_[static_cast<std::size_t>(a)] = !saved_rot;
        layers_[static_cast<std::size_t>(la)].mark_item_dirty(a);
        changed_nodes_.push_back(a);
        repack(la);
        applied = true;
        break;
      case Move::Swap:
        if (node_count_ < 2) break;
        if (la == lb) {
          // Same-layer swaps roll back by swapping again — no snapshot.
          layers_[static_cast<std::size_t>(la)].swap_items(a, b);
          changed_nodes_.push_back(a);
          changed_nodes_.push_back(b);
          repack(la);
        } else {
          saved_a_ = layers_[static_cast<std::size_t>(la)];
          saved_b_ = layers_[static_cast<std::size_t>(lb)];
          saved_cache_a_ = cache_[static_cast<std::size_t>(la)];
          saved_cache_b_ = cache_[static_cast<std::size_t>(lb)];
          layers_[static_cast<std::size_t>(la)].remove(a, rng_);
          layers_[static_cast<std::size_t>(lb)].remove(b, rng_);
          layers_[static_cast<std::size_t>(la)].insert(b, rng_);
          layers_[static_cast<std::size_t>(lb)].insert(a, rng_);
          layer_of_node_[static_cast<std::size_t>(a)] = lb;
          layer_of_node_[static_cast<std::size_t>(b)] = la;
          changed_nodes_.push_back(a);
          changed_nodes_.push_back(b);
          repack(la);
          repack(lb);
          recompute_height(la);
          recompute_height(lb);
        }
        applied = true;
        break;
      case Move::Relocate: {
        target_layer = static_cast<int>(rng_.below(layers_.size()));
        if (target_layer == la &&
            layers_[static_cast<std::size_t>(la)].size() == 1)
          break;  // no-op relocation of a lone node
        saved_a_ = layers_[static_cast<std::size_t>(la)];
        saved_cache_a_ = cache_[static_cast<std::size_t>(la)];
        if (target_layer != la) {
          saved_b_ = layers_[static_cast<std::size_t>(target_layer)];
          saved_cache_b_ = cache_[static_cast<std::size_t>(target_layer)];
        }
        layers_[static_cast<std::size_t>(la)].remove(a, rng_);
        layers_[static_cast<std::size_t>(target_layer)].insert(a, rng_);
        layer_of_node_[static_cast<std::size_t>(a)] = target_layer;
        changed_nodes_.push_back(a);
        repack(la);
        if (target_layer != la) {
          repack(target_layer);
          recompute_height(la);
          recompute_height(target_layer);
        }
        applied = true;
        break;
      }
    }
    if (!applied) return false;

    std::int64_t cand_volume = 0;
    std::int64_t cand_wire = 0;
    const double cand_cost = evaluate(false, &cand_volume, &cand_wire);
    const double delta = cand_cost - cost_;
    const bool accept =
        delta <= 0 || rng_.uniform() < std::exp(-delta / temperature_);
    if (accept) {
      cost_ = cand_cost;
      volume_ = cand_volume;
      wire_ = cand_wire;
      ++accepted_;
      if (cost_ < best_cost_) {
        best_cost_ = cost_;
        best_state_ = snapshot();
      }
    } else {
      ++rejected_;
      switch (move) {
        case Move::Rotate:
          // Inverse move instead of a snapshot: rotate back and repack.
          rotated_[static_cast<std::size_t>(a)] = saved_rot;
          layers_[static_cast<std::size_t>(la)].mark_item_dirty(a);
          changed_nodes_.push_back(a);
          repack(la);
          break;
        case Move::Swap:
          if (la == lb) {
            layers_[static_cast<std::size_t>(la)].swap_items(a, b);
            changed_nodes_.push_back(a);
            changed_nodes_.push_back(b);
            repack(la);
          } else {
            layers_[static_cast<std::size_t>(la)] = std::move(saved_a_);
            layers_[static_cast<std::size_t>(lb)] = std::move(saved_b_);
            cache_[static_cast<std::size_t>(la)] = saved_cache_a_;
            cache_[static_cast<std::size_t>(lb)] = saved_cache_b_;
            layer_of_node_[static_cast<std::size_t>(a)] = la;
            layer_of_node_[static_cast<std::size_t>(b)] = lb;
            restore_planes_of_changed();
          }
          break;
        case Move::Relocate:
          layers_[static_cast<std::size_t>(la)] = std::move(saved_a_);
          cache_[static_cast<std::size_t>(la)] = saved_cache_a_;
          if (target_layer != la) {
            layers_[static_cast<std::size_t>(target_layer)] =
                std::move(saved_b_);
            cache_[static_cast<std::size_t>(target_layer)] = saved_cache_b_;
          }
          layer_of_node_[static_cast<std::size_t>(a)] = la;
          restore_planes_of_changed();
          break;
      }
      // Re-evaluate the nets the candidate had touched to restore the
      // wirelength caches (bases roll back here too, if they moved).
      evaluate(false, nullptr, nullptr);
    }
    return true;
  }

  const NodeSet& nodes_;
  const PlaceOptions& opt_;
  const std::vector<std::vector<int>>& nets_of_node_;
  int node_count_ = 0;

  std::vector<BStarTree> layers_;
  std::vector<LayerCache> cache_;
  std::vector<int> layer_of_node_;
  std::vector<bool> rotated_;
  std::vector<int> plane_x_;
  std::vector<int> plane_z_;
  std::vector<int> layer_base_;
  std::vector<std::int64_t> wl_of_net_;
  std::vector<int> net_stamp_;
  int stamp_ = 0;
  std::int64_t total_wire_ = 0;
  std::int64_t volume_ = 0;
  std::int64_t wire_ = 0;
  std::int64_t initial_volume_ = 0;
  int accepted_at_batch_start_ = 0;
  bool last_step_applied_ = true;

  std::tuple<std::vector<BStarTree>, std::vector<int>, std::vector<bool>>
      best_state_;

  // Per-move scratch (lane-local, so replicas need no shared slots).
  std::vector<int> changed_nodes_;
  BStarTree saved_a_;
  BStarTree saved_b_;
  LayerCache saved_cache_a_;
  LayerCache saved_cache_b_;
};

}  // namespace

Placement place_modules(const NodeSet& nodes, const PlaceOptions& options) {
  TQEC_TRACE_SPAN("place.sa");
  const int node_count = nodes.node_count();
  TQEC_REQUIRE(node_count > 0, "nothing to place");

  int layer_count = options.layers;
  if (layer_count <= 0) {
    std::int64_t area = 0;
    for (const PlacementNode& n : nodes.nodes)
      area += std::int64_t{n.dims.x} * n.dims.z;
    layer_count = static_cast<int>(std::llround(std::cbrt(
        static_cast<double>(area))));
    layer_count = std::clamp(layer_count, 1, std::max(1, node_count));
    layer_count = std::min(layer_count, 48);
  }

  // Node -> incident nets (for incremental wirelength updates), shared
  // read-only by every replica.
  std::vector<std::vector<int>> nets_of_node(nodes.nodes.size());
  for (std::size_t net = 0; net < nodes.net_pins.size(); ++net) {
    for (pdgraph::ModuleId m : nodes.net_pins[net]) {
      auto& list = nets_of_node[static_cast<std::size_t>(
          nodes.node_of_module[static_cast<std::size_t>(m)])];
      if (list.empty() || list.back() != static_cast<int>(net))
        list.push_back(static_cast<int>(net));
    }
  }

  // Equal annealing budget per chain regardless of node count: the
  // super-module reduction then shows up as more exploration per node —
  // the paper's argument for why primal bridging makes the SA converge
  // better on large designs (Sec. 4).
  int iterations = options.iterations;
  if (iterations <= 0) iterations = std::clamp(node_count * 400, 2000, 60000);
  iterations = std::max(1, static_cast<int>(iterations * options.effort));
  const int batch =
      options.batch > 0 ? options.batch : std::max(64, node_count / 2);

  const int replica_count = std::max(1, options.replicas);
  const int threads = std::max(1, options.threads);

  // All chains start from the same deterministic initial layout; chain 0
  // keeps the classic RNG stream (replicas == 1 is move-for-move the old
  // single-chain annealer), hotter chains get salted derived streams.
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(replica_count));
  chains.emplace_back(nodes, options, nets_of_node);
  chains[0].init(layer_count);
  for (int r = 1; r < replica_count; ++r) chains.push_back(chains[0]);

  const double t0 = std::max(1.0, options.t0_fraction * chains[0].cost_);
  std::uint64_t lane_seed_state = options.seed ^ 0x706c616365726570ull;
  for (int r = 0; r < replica_count; ++r) {
    chains[static_cast<std::size_t>(r)].rng_ =
        r == 0 ? Rng(options.seed) : Rng(splitmix64(lane_seed_state));
    chains[static_cast<std::size_t>(r)].temperature_ =
        t0 * std::pow(options.replica_stagger, r);
  }
  std::uint64_t exchange_seed_state = options.seed ^ 0x74656d70657278ull;
  Rng exchange_rng(splitmix64(exchange_seed_state));
  std::int64_t exchanges_attempted = 0;
  std::int64_t exchanges_accepted = 0;

  // Temperature batches run lock-step across chains; replica-exchange
  // decisions happen serially between batches on alternating adjacent
  // pairs, consuming only the dedicated exchange stream — results are
  // bit-identical for any `threads`.
  const int full_batches = iterations / batch;
  const int tail = iterations % batch;
  for (int b = 0; b < full_batches; ++b) {
    parallel_for(chains.size(), threads,
                 [&](std::size_t r) { chains[r].run_batch(batch); });
    for (int r = b & 1; r + 1 < replica_count; r += 2) {
      Chain& cold = chains[static_cast<std::size_t>(r)];
      Chain& hot = chains[static_cast<std::size_t>(r + 1)];
      ++exchanges_attempted;
      const double arg = (1.0 / cold.temperature_ - 1.0 / hot.temperature_) *
                         (cold.cost_ - hot.cost_);
      if (arg >= 0 || exchange_rng.uniform() < std::exp(arg)) {
        cold.swap_config(hot);
        ++exchanges_accepted;
      }
    }
  }
  if (tail > 0)
    parallel_for(chains.size(), threads,
                 [&](std::size_t r) { chains[r].run_steps(tail); });

  // Winner: lowest best-ever cost, ties to the coldest lane.
  int selected = 0;
  for (int r = 1; r < replica_count; ++r)
    if (chains[static_cast<std::size_t>(r)].best_cost_ <
        chains[static_cast<std::size_t>(selected)].best_cost_)
      selected = r;

  Placement placement = chains[static_cast<std::size_t>(selected)].materialize();
  placement.iterations_run = iterations * replica_count;
  placement.replicas = replica_count;
  placement.selected_replica = selected;
  placement.exchanges_attempted = exchanges_attempted;
  placement.exchanges_accepted = exchanges_accepted;
  placement.sa_curve = chains[static_cast<std::size_t>(selected)].sa_curve_;
  placement.replica_curves.reserve(chains.size());
  for (Chain& chain : chains) {
    placement.moves_accepted += chain.accepted_;
    placement.moves_rejected += chain.rejected_;
    placement.repacked_nodes += chain.repacked_nodes_;
    placement.replica_curves.push_back(std::move(chain.sa_curve_));
  }
  trace::counter_add("place.sa_iterations", placement.iterations_run);
  trace::counter_add("place.sa_accepted", placement.moves_accepted);
  trace::counter_add("place.sa_rejected", placement.moves_rejected);
  trace::counter_add("place.sa_repacked_nodes", placement.repacked_nodes);
  trace::counter_add("place.sa_exchanges_attempted", exchanges_attempted);
  trace::counter_add("place.sa_exchanges_accepted", exchanges_accepted);
  TQEC_LOG_INFO("placement: nodes=" << nodes.node_count()
                                    << " layers=" << placement.layers
                                    << " volume=" << placement.volume
                                    << " wl=" << placement.wirelength
                                    << " accepted=" << placement.moves_accepted
                                    << "/" << placement.iterations_run
                                    << " replicas=" << replica_count);
  return placement;
}

}  // namespace tqec::place
