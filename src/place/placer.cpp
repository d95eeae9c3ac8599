#include "place/placer.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"

namespace tqec::place {

namespace {

/// The pins of one net hosted by one node, as the bounding box of their
/// (unrotated) intra-node offsets. Rotation transposes x and z of every
/// offset, so it transposes the box too, and the union of a net's term
/// boxes is exactly the bounding box of its pin cells.
struct NetTerm {
  int node = 0;
  Box3 offsets;
};

/// Read-only wirelength index of a node set: net n's terms are
/// terms[begin[n], begin[n + 1]), and nets_of_node lists the nets with a
/// term on each node. Nets with fewer than two pins have no wirelength and
/// no terms.
struct WireIndex {
  std::vector<int> begin;
  std::vector<NetTerm> terms;
  std::vector<std::vector<int>> nets_of_node;
};

WireIndex build_wire_index(const NodeSet& nodes) {
  WireIndex index;
  index.begin.reserve(nodes.net_pins.size() + 1);
  index.nets_of_node.resize(nodes.nodes.size());
  // The node's term in the net being grouped, or -1.
  std::vector<int> term_of_node(nodes.nodes.size(), -1);
  for (std::size_t net = 0; net < nodes.net_pins.size(); ++net) {
    const std::size_t first = index.terms.size();
    index.begin.push_back(static_cast<int>(first));
    const auto& pins = nodes.net_pins[net];
    if (pins.size() < 2) continue;
    for (pdgraph::ModuleId m : pins) {
      const int node = nodes.node_of_module[static_cast<std::size_t>(m)];
      const Vec3 offset = nodes.module_offset[static_cast<std::size_t>(m)];
      // The span scoring (Chain::score_net) needs every pin strictly
      // inside its node's height, hence inside its layer's y range.
      TQEC_REQUIRE(offset.y >= 0 &&
                       offset.y < nodes.nodes[static_cast<std::size_t>(node)]
                                      .dims.y,
                   "module offset outside its node's height");
      int& term = term_of_node[static_cast<std::size_t>(node)];
      if (term < 0) {
        term = static_cast<int>(index.terms.size());
        index.terms.push_back({node, Box3{offset, offset}});
        index.nets_of_node[static_cast<std::size_t>(node)].push_back(
            static_cast<int>(net));
      } else {
        Box3& box = index.terms[static_cast<std::size_t>(term)].offsets;
        box = box.expanded(offset);
      }
    }
    for (std::size_t t = first; t < index.terms.size(); ++t)
      term_of_node[static_cast<std::size_t>(index.terms[t].node)] = -1;
  }
  index.begin.push_back(static_cast<int>(index.terms.size()));
  return index;
}

/// A net's wirelength split by its layer span. The pins of one layer sit
/// inside [base, base + height) of that layer, and a higher layer's base
/// is at least the top of every lower one, so the net's lowest pin lies in
/// its bottom layer and its highest in its top layer. Hence
///     HPWL = planar + base[top] - base[bottom],
/// where `planar` (the x and z extents plus the in-layer y offsets of the
/// extreme pins) does not depend on the layer bases at all.
struct NetSpan {
  std::int64_t planar = 0;
  int top = 0;
  int bottom = 0;
  bool operator==(const NetSpan&) const = default;
};

/// The annealing chain: the complete mutable SA state plus its RNG stream
/// and temperature.
class Chain {
 public:
  struct LayerCache {
    int width = 0;
    int depth = 0;
    int height = 0;
  };

  /// Build the initial layout on `layer_count` layers and start the
  /// schedule at t0 = max(1, kT0Fraction * initial cost), drawing from
  /// Rng(opt.seed).
  Chain(const NodeSet& nodes, const PlaceOptions& opt, const WireIndex& wires,
        int layer_count)
      : nodes_(nodes),
        opt_(opt),
        wires_(wires),
        node_count_(nodes.node_count()),
        rng_(opt.seed) {
    build_initial(layer_count);
    initial_volume_ = layout_volume();
    full_wire_recompute();
    cost_ = cost_of(initial_volume_);
    best_cost_ = cost_;
    best_layers_.resize(layers_.size());
    best_dirty_.assign(layers_.size(), 1);
    save_best();
    temperature_ = std::max(1.0, kT0Fraction * cost_);
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
  /// move-for-move.
  void run_batch(int count) {
    run_steps(count);
    steps_since_sample_ += count;
    if (!last_step_applied_) return;
    const double batch_temperature = temperature_;
    temperature_ *= kCooling;
    // All wirelength bookkeeping is exact integer arithmetic, so the
    // incremental and journal-restored caches cannot drift from a full
    // recompute; checked builds verify that at every temperature step
    // instead of resyncing (against a per-pin HPWL recompute, which shares
    // neither the term boxes nor the span split), and that the sample's
    // acceptance rate is a fraction.
#ifndef NDEBUG
    {
      const std::vector<NetSpan> tracked = spans_;
      const std::vector<std::int64_t> tracked_weight = span_weight_;
      const std::int64_t tracked_total = total_wire_;
      full_wire_recompute();
      TQEC_ASSERT(spans_ == tracked && span_weight_ == tracked_weight &&
                      total_wire_ == tracked_total,
                  "incremental wirelength diverged from full recompute");
      TQEC_ASSERT(total_wire_ == pin_wirelength(),
                  "span-split wirelength diverged from per-pin HPWL");
    }
    TQEC_ASSERT(accepted_ - accepted_at_sample_ <= steps_since_sample_,
                "more accepted moves than iterations since the last sample");
#endif
    sa_curve_.push_back(
        {cost_, batch_temperature,
         static_cast<double>(accepted_ - accepted_at_sample_) /
             steps_since_sample_});
    accepted_at_sample_ = accepted_;
    steps_since_sample_ = 0;
  }

  /// Restore the best layout the chain ever held and emit the Placement
  /// with the chain's SA statistics.
  Placement materialize() {
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      layers_[l].restore(std::move(best_layers_[l]));
      refresh_layer_from_tree(static_cast<int>(l));
    }
    layer_of_node_ = std::move(best_layer_of_node_);
    rotated_ = std::move(best_rotated_);
    layout_volume();
    full_wire_recompute();
    const std::int64_t final_wire = total_wire_;

    Placement placement;
    placement.node_origin.assign(nodes_.nodes.size(), Vec3{});
    for (std::size_t n = 0; n < nodes_.nodes.size(); ++n)
      placement.node_origin[n] = node_origin(n);
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
    placement.moves_accepted = accepted_;
    placement.moves_rejected = rejected_;
    placement.repacked_nodes = repacked_nodes_;
    placement.sa_curve = std::move(sa_curve_);
    return placement;
  }

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
  /// used when the best-state restore replaced the tree wholesale rather
  /// than through pack_update.
  void refresh_layer_from_tree(int layer) {
    BStarTree& tree = layers_[static_cast<std::size_t>(layer)];
    LayerCache& c = cache_[static_cast<std::size_t>(layer)];
    c.width = tree.empty() ? 0 : tree.packed_width();
    c.depth = tree.empty() ? 0 : tree.packed_depth();
    for (int item : tree.items()) {
      plane_x_[static_cast<std::size_t>(item)] = tree.packed_x(item);
      plane_z_[static_cast<std::size_t>(item)] = tree.packed_z(item);
    }
    recompute_height(layer);
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

  Vec3 node_origin(std::size_t node) const {
    return {plane_x_[node],
            layer_base_[static_cast<std::size_t>(layer_of_node_[node])],
            plane_z_[node]};
  }

  Vec3 module_cell(pdgraph::ModuleId m) const {
    const auto node = static_cast<std::size_t>(
        nodes_.node_of_module[static_cast<std::size_t>(m)]);
    Vec3 off = nodes_.module_offset[static_cast<std::size_t>(m)];
    if (rotated_[node]) off = {off.z, off.y, off.x};
    return node_origin(node) + off;
  }

  /// A net's span split (see NetSpan) over its per-node terms. The y
  /// extremes compare (layer, in-node offset) pairs, packed into one
  /// integer with the layer on top; no layer base is read. Integer-valued,
  /// so the running totals are exact and need no resync.
  NetSpan score_net(std::size_t net) const {
    const int first = wires_.begin[net];
    const int last = wires_.begin[net + 1];
    if (first == last) return {};
    int lo_x = INT_MAX;
    int hi_x = INT_MIN;
    int lo_z = INT_MAX;
    int hi_z = INT_MIN;
    std::int64_t lo_y = INT64_MAX;
    std::int64_t hi_y = INT64_MIN;
    for (int t = first; t < last; ++t) {
      const NetTerm& term = wires_.terms[static_cast<std::size_t>(t)];
      const auto node = static_cast<std::size_t>(term.node);
      const Vec3& a = term.offsets.lo;
      const Vec3& b = term.offsets.hi;
      const bool rot = rotated_[node];
      const int x = plane_x_[node];
      const int z = plane_z_[node];
      lo_x = std::min(lo_x, x + (rot ? a.z : a.x));
      hi_x = std::max(hi_x, x + (rot ? b.z : b.x));
      lo_z = std::min(lo_z, z + (rot ? a.x : a.z));
      hi_z = std::max(hi_z, z + (rot ? b.x : b.z));
      const std::int64_t layer = std::int64_t{layer_of_node_[node]} << 32;
      lo_y = std::min(lo_y, layer | a.y);
      hi_y = std::max(hi_y, layer | b.y);
    }
    constexpr std::int64_t kOffset = 0xffffffff;
    return {std::int64_t{hi_x - lo_x} + (hi_z - lo_z) + (hi_y & kOffset) -
                (lo_y & kOffset),
            static_cast<int>(hi_y >> 32), static_cast<int>(lo_y >> 32)};
  }

  /// Add (sign +1) or remove (sign -1) a net's span from the totals.
  void count_span(const NetSpan& span, int sign) {
    planar_total_ += sign * span.planar;
    span_weight_[static_cast<std::size_t>(span.top)] += sign;
    span_weight_[static_cast<std::size_t>(span.bottom)] -= sign;
  }

  /// total_wire_ from the planar total and the current layer bases.
  void resum_wire() {
    total_wire_ = planar_total_;
    for (std::size_t l = 0; l < layer_base_.size(); ++l)
      total_wire_ += layer_base_[l] * span_weight_[l];
  }

  void full_wire_recompute() {
    planar_total_ = 0;
    std::fill(span_weight_.begin(), span_weight_.end(), 0);
    for (std::size_t n = 0; n < spans_.size(); ++n) {
      spans_[n] = score_net(n);
      count_span(spans_[n], +1);
    }
    resum_wire();
  }

#ifndef NDEBUG
  /// Total HPWL straight from the pin cells (the checked builds' oracle).
  std::int64_t pin_wirelength() const {
    std::int64_t total = 0;
    for (const auto& pins : nodes_.net_pins) {
      if (pins.size() < 2) continue;
      Box3 box;
      for (pdgraph::ModuleId m : pins) box = box.expanded(module_cell(m));
      const Vec3 d = box.hi - box.lo;
      total += std::int64_t{d.x} + d.y + d.z;
    }
    return total;
  }
#endif

  /// Refresh the layer bases from the layer caches and return the volume.
  std::int64_t layout_volume() {
    int width = 0;
    int depth = 0;
    int base = 0;
    for (std::size_t l = 0; l < cache_.size(); ++l) {
      width = std::max(width, cache_[l].width);
      depth = std::max(depth, cache_[l].depth);
      layer_base_[l] = base;
      base += cache_[l].height;
    }
    return std::int64_t{width} * depth * std::max(base, 1);
  }

  double cost_of(std::int64_t volume) const {
    return static_cast<double>(volume) +
           kBetaWire * static_cast<double>(total_wire_);
  }

  /// Refresh the layer bases and volume, then re-score the nets incident
  /// to the nodes whose cells or layers changed this move; a base shift
  /// reaches every other net through span_weight_ alone. Everything it
  /// overwrites goes to the journal, which rollback_wire() restores.
  /// Returns the new cost.
  double evaluate() {
    journal_base_ = layer_base_;
    journal_total_ = total_wire_;
    journal_nets_.clear();
    const std::int64_t volume = layout_volume();
    ++stamp_;
    for (int node : changed_nodes_) {
      for (int net : wires_.nets_of_node[static_cast<std::size_t>(node)]) {
        const auto n = static_cast<std::size_t>(net);
        if (net_stamp_[n] == stamp_) continue;
        net_stamp_[n] = stamp_;
        journal_nets_.emplace_back(net, spans_[n]);
        count_span(spans_[n], -1);
        spans_[n] = score_net(n);
        count_span(spans_[n], +1);
      }
    }
    resum_wire();
    return cost_of(volume);
  }

  /// Undo the last evaluate(): the rejected move has already restored the
  /// layout, so the pre-move layer bases and spans are exactly the
  /// journaled ones.
  void rollback_wire() {
    std::swap(layer_base_, journal_base_);
    total_wire_ = journal_total_;
    for (const auto& [net, span] : journal_nets_) {
      NetSpan& cur = spans_[static_cast<std::size_t>(net)];
      count_span(cur, -1);
      cur = span;
      count_span(cur, +1);
    }
  }

  /// Record the current layout as the chain's best: only the layers that
  /// changed since the previous record are copied.
  void save_best() {
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      if (!best_dirty_[l]) continue;
      layers_[l].save(best_layers_[l]);
      best_dirty_[l] = 0;
    }
    best_layer_of_node_ = layer_of_node_;
    best_rotated_ = rotated_;
  }

  void build_initial(int layer_count) {
    layers_.assign(static_cast<std::size_t>(layer_count), BStarTree{});
    cache_.assign(static_cast<std::size_t>(layer_count), LayerCache{});
    layer_base_.assign(static_cast<std::size_t>(layer_count), 0);
    span_weight_.assign(static_cast<std::size_t>(layer_count), 0);
    layer_of_node_.assign(nodes_.nodes.size(), 0);
    rotated_.assign(nodes_.nodes.size(), false);
    plane_x_.assign(nodes_.nodes.size(), 0);
    plane_z_.assign(nodes_.nodes.size(), 0);
    spans_.assign(nodes_.net_pins.size(), NetSpan{});
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
          layers_[static_cast<std::size_t>(la)].save(saved_a_);
          layers_[static_cast<std::size_t>(lb)].save(saved_b_);
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
        layers_[static_cast<std::size_t>(la)].save(saved_a_);
        saved_cache_a_ = cache_[static_cast<std::size_t>(la)];
        if (target_layer != la) {
          layers_[static_cast<std::size_t>(target_layer)].save(saved_b_);
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

    const double cand_cost = evaluate();
    const double delta = cand_cost - cost_;
    const bool accept =
        delta <= 0 || rng_.uniform() < std::exp(-delta / temperature_);
    if (accept) {
      cost_ = cand_cost;
      ++accepted_;
      const int other_layer = move == Move::Swap ? lb : target_layer;
      best_dirty_[static_cast<std::size_t>(la)] = 1;
      best_dirty_[static_cast<std::size_t>(other_layer)] = 1;
      if (cost_ < best_cost_) {
        best_cost_ = cost_;
        save_best();
      }
    } else {
      ++rejected_;
      switch (move) {
        case Move::Rotate:
          // Inverse move instead of a snapshot: rotate back and repack.
          rotated_[static_cast<std::size_t>(a)] = saved_rot;
          layers_[static_cast<std::size_t>(la)].mark_item_dirty(a);
          repack(la);
          break;
        case Move::Swap:
          if (la == lb) {
            layers_[static_cast<std::size_t>(la)].swap_items(a, b);
            repack(la);
          } else {
            layers_[static_cast<std::size_t>(la)].restore(std::move(saved_a_));
            layers_[static_cast<std::size_t>(lb)].restore(std::move(saved_b_));
            cache_[static_cast<std::size_t>(la)] = saved_cache_a_;
            cache_[static_cast<std::size_t>(lb)] = saved_cache_b_;
            layer_of_node_[static_cast<std::size_t>(a)] = la;
            layer_of_node_[static_cast<std::size_t>(b)] = lb;
            restore_planes_of_changed();
          }
          break;
        case Move::Relocate:
          layers_[static_cast<std::size_t>(la)].restore(std::move(saved_a_));
          cache_[static_cast<std::size_t>(la)] = saved_cache_a_;
          if (target_layer != la) {
            layers_[static_cast<std::size_t>(target_layer)].restore(
                std::move(saved_b_));
            cache_[static_cast<std::size_t>(target_layer)] = saved_cache_b_;
          }
          layer_of_node_[static_cast<std::size_t>(a)] = la;
          restore_planes_of_changed();
          break;
      }
      rollback_wire();
    }
    return true;
  }

  const NodeSet& nodes_;
  const PlaceOptions& opt_;
  const WireIndex& wires_;
  int node_count_ = 0;

  double temperature_ = 1.0;
  Rng rng_;
  double cost_ = 0;
  double best_cost_ = 0;
  int accepted_ = 0;
  int rejected_ = 0;
  std::int64_t repacked_nodes_ = 0;
  std::vector<SaSample> sa_curve_;

  std::vector<BStarTree> layers_;
  std::vector<LayerCache> cache_;
  std::vector<int> layer_of_node_;
  std::vector<bool> rotated_;
  std::vector<int> plane_x_;
  std::vector<int> plane_z_;
  std::vector<int> layer_base_;
  // Wirelength split by layer span (see NetSpan): per-net spans, the sum
  // of their planar parts, and per layer the number of nets whose top
  // layer it is minus the number whose bottom layer it is, so that
  // total_wire_ = planar_total_ + sum(layer_base_[l] * span_weight_[l]).
  std::vector<NetSpan> spans_;
  std::int64_t planar_total_ = 0;
  std::vector<std::int64_t> span_weight_;
  std::vector<int> net_stamp_;
  int stamp_ = 0;
  std::int64_t total_wire_ = 0;
  std::int64_t initial_volume_ = 0;
  // accepted_ at the last convergence sample, and iterations run since.
  int accepted_at_sample_ = 0;
  int steps_since_sample_ = 0;
  bool last_step_applied_ = true;

  // The best layout the chain held; best_dirty_ flags the layers that may
  // differ from their saved copy (set by every accepted move).
  std::vector<BStarTree::Snapshot> best_layers_;
  std::vector<std::uint8_t> best_dirty_;
  std::vector<int> best_layer_of_node_;
  std::vector<bool> best_rotated_;

  // Per-move scratch.
  std::vector<int> changed_nodes_;
  BStarTree::Snapshot saved_a_;
  BStarTree::Snapshot saved_b_;
  LayerCache saved_cache_a_;
  LayerCache saved_cache_b_;
  // Journal of the last evaluate(): the layer bases and total it
  // replaced, plus the (net, old span) pairs it overwrote.
  std::vector<int> journal_base_;
  std::int64_t journal_total_ = 0;
  std::vector<std::pair<int, NetSpan>> journal_nets_;
};

}  // namespace

Placement place_modules(const NodeSet& nodes, const PlaceOptions& options,
                        const CancelToken* stop) {
  TQEC_TRACE_SPAN("place.sa");
  const int node_count = nodes.node_count();
  TQEC_REQUIRE(node_count > 0, "nothing to place");

  // Cube-balanced layer count.
  std::int64_t area = 0;
  for (const PlacementNode& n : nodes.nodes)
    area += std::int64_t{n.dims.x} * n.dims.z;
  int layer_count = static_cast<int>(std::llround(std::cbrt(
      static_cast<double>(area))));
  layer_count = std::clamp(layer_count, 1, std::max(1, node_count));
  layer_count = std::min(layer_count, 48);

  const WireIndex wires = build_wire_index(nodes);

  // Equal annealing budget regardless of node count: the super-module
  // reduction then shows up as more exploration per node — the paper's
  // argument for why primal bridging makes the SA converge better on large
  // designs (Sec. 4).
  const int iterations = std::max(
      1, static_cast<int>(std::clamp(node_count * 400, 2000, 60000) *
                          options.effort));
  const int batch =
      options.batch > 0 ? options.batch : std::max(64, node_count / 2);

  Chain chain(nodes, options, wires, layer_count);
  const auto stop_requested = [stop] {
    return stop != nullptr && stop->cancelled();
  };
  const int full_batches = iterations / batch;
  for (int b = 0; b < full_batches && !stop_requested(); ++b)
    chain.run_batch(batch);
  const int tail = iterations % batch;
  if (tail > 0 && !stop_requested()) chain.run_steps(tail);

  Placement placement = chain.materialize();
  placement.iterations_run = iterations;
  TQEC_LOG_INFO("placement: nodes=" << nodes.node_count()
                                    << " layers=" << placement.layers
                                    << " volume=" << placement.volume
                                    << " wl=" << placement.wirelength
                                    << " accepted=" << placement.moves_accepted
                                    << "/" << placement.iterations_run);
  return placement;
}

void publish_counters(const Placement& placement) {
  trace::counter_add("place.sa_iterations", placement.iterations_run);
  trace::counter_add("place.sa_accepted", placement.moves_accepted);
  trace::counter_add("place.sa_rejected", placement.moves_rejected);
  trace::counter_add("place.sa_repacked_nodes", placement.repacked_nodes);
}

}  // namespace tqec::place
