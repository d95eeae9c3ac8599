#include "core/compiler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "common/clock.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "geom/canonical.h"
#include "geom/cell_grid.h"

namespace tqec::core {

namespace {

#ifndef NDEBUG
// Defect::cell_count() double-counts cells where segments overlap (shared
// corners of L-paths); the routed emit path promises its builders never do
// that — emit_cell_runs yields disjoint maximal x-runs — so verify the
// promise per defect in debug builds. Per-defect (not whole-geometry): two
// defects legally sharing a port-region cell is not an overlap bug.
bool emitted_defects_have_disjoint_segments(const geom::GeomDescription& g) {
  std::vector<Vec3> cells;
  for (const geom::DefectView d : g.defects()) {
    cells.clear();
    for (const geom::Segment& s : d.segments) {
      Vec3 step{0, 0, 0};
      const Vec3 delta = s.b - s.a;
      if (delta.x != 0) step = {delta.x > 0 ? 1 : -1, 0, 0};
      else if (delta.y != 0) step = {0, delta.y > 0 ? 1 : -1, 0};
      else if (delta.z != 0) step = {0, 0, delta.z > 0 ? 1 : -1};
      for (Vec3 p = s.a;; p += step) {
        cells.push_back(p);
        if (p == s.b) break;
      }
    }
    std::sort(cells.begin(), cells.end());
    if (std::adjacent_find(cells.begin(), cells.end()) != cells.end())
      return false;
  }
  return true;
}
#endif

}  // namespace

void emit_cell_runs(geom::Defect& defect, std::vector<Vec3> cells) {
  if (cells.empty()) return;
  // Greedy x-runs: group by (y, z) and emit maximal x intervals; remaining
  // singleton cells are still correct single-cell segments. One (y, z, x)
  // sort both dedupes (duplicates are adjacent under any total order) and
  // orders the runs.
  std::sort(cells.begin(), cells.end(), [](Vec3 a, Vec3 b) {
    return std::tuple(a.y, a.z, a.x) < std::tuple(b.y, b.z, b.x);
  });
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::size_t i = 0;
  while (i < cells.size()) {
    std::size_t j = i;
    while (j + 1 < cells.size() && cells[j + 1].y == cells[i].y &&
           cells[j + 1].z == cells[i].z && cells[j + 1].x == cells[j].x + 1)
      ++j;
    defect.segments.push_back({cells[i], cells[j]});
    i = j + 1;
  }
}

geom::GeomDescription emit_geometry(const pdgraph::PdGraph& graph,
                                    const place::NodeSet& nodes,
                                    const place::Placement& placement,
                                    const route::RoutingResult& routing,
                                    const std::string& name) {
  TQEC_TRACE_SPAN("core.emit_geometry");
  geom::GeomDescription g(name);

  // Primal structures: one defect per placement node of bridged modules
  // (a chain is a single connected primal structure); time-dependent and
  // distillation nodes contribute one single-cell defect per module (each
  // is an unbridged primal loop).
  for (const place::PlacementNode& node : nodes.nodes) {
    if (node.kind == place::NodeKind::PrimalChain && node.modules.size() > 1) {
      geom::Defect defect;
      defect.type = geom::DefectType::Primal;
      defect.source_id = node.id;
      std::vector<Vec3> cells;
      cells.reserve(node.modules.size());
      for (pdgraph::ModuleId m : node.modules)
        cells.push_back(placement.module_cell[static_cast<std::size_t>(m)]);
      emit_cell_runs(defect, std::move(cells));
      const int index = g.add_defect(defect);
      // Attach the I/M components carried by the chain's modules.
      for (pdgraph::ModuleId m : node.modules) {
        const pdgraph::PrimalModule& mod = graph.module(m);
        const Vec3 cell = placement.module_cell[static_cast<std::size_t>(m)];
        if (mod.has_init) {
          geom::ComponentKind kind = geom::ComponentKind::InitZ;
          switch (mod.init_basis) {
            case icm::InitBasis::Zero: kind = geom::ComponentKind::InitZ; break;
            case icm::InitBasis::Plus: kind = geom::ComponentKind::InitX; break;
            case icm::InitBasis::YState:
              kind = geom::ComponentKind::InjectY;
              break;
            case icm::InitBasis::AState:
              kind = geom::ComponentKind::InjectA;
              break;
          }
          g.add_component({kind, cell, index});
        }
        if (mod.has_meas)
          g.add_component({mod.meas_basis == icm::MeasBasis::Z
                               ? geom::ComponentKind::MeasZ
                               : geom::ComponentKind::MeasX,
                           cell, index});
      }
    } else {
      for (std::size_t i = 0; i < node.modules.size(); ++i) {
        const pdgraph::ModuleId m = node.modules[i];
        geom::Defect defect;
        defect.type = geom::DefectType::Primal;
        defect.source_id = m;
        const Vec3 cell = placement.module_cell[static_cast<std::size_t>(m)];
        defect.segments.push_back({cell, cell});
        g.add_defect(defect);
      }
    }
  }

  // Dual structures: one defect per routed component.
  for (const route::RoutedNet& net : routing.nets) {
    if (net.cells.empty()) continue;
    geom::Defect defect;
    defect.type = geom::DefectType::Dual;
    defect.source_id = net.component;
    emit_cell_runs(defect, net.cells);
    g.add_defect(defect);
  }

  for (const geom::DistillBox& box : placement.boxes) g.add_box(box);
  assert(emitted_defects_have_disjoint_segments(g) &&
         "emit_geometry produced a defect with overlapping segments; "
         "Defect::cell_count() would double-count");
  return g;
}

CompileResult compile(const icm::IcmCircuit& circuit,
                      const CompileOptions& options,
                      const pdgraph::PdGraph* prebuilt_graph) {
  // Each compile snapshots its own metrics: wipe whatever a previous
  // compile left in the registry. (Concurrent compile() calls would share
  // one registry; the pipeline's own parallelism lives *inside* compile.)
  if (trace::enabled()) trace::reset_metrics();
  TQEC_TRACE_SPAN("core.compile", circuit.name());
  const auto t_start = std::chrono::steady_clock::now();
  // Stage boundary: report progress (on the calling thread), then honour a
  // cancellation request — including one the progress callback itself just
  // made, so a deadline watchdog stops the pipeline at the very boundary
  // that observed the overrun.
  const auto stage_boundary = [&options](const char* stage) {
    if (options.progress) options.progress(stage);
    if (options.cancel.cancelled()) throw CancelledError(stage);
  };
  CompileResult result;
  result.name = circuit.name();
  result.stats = circuit.stats();
  result.canonical_volume = geom::canonical_volume(result.stats);

  // Stage 2: PD graph (skipped when the caller supplies a cached one).
  stage_boundary("pd_graph");
  auto t = std::chrono::steady_clock::now();
  pdgraph::PdGraph built_graph;
  if (prebuilt_graph == nullptr) built_graph = pdgraph::build_pd_graph(circuit);
  const pdgraph::PdGraph& graph =
      prebuilt_graph != nullptr ? *prebuilt_graph : built_graph;
  result.modules = graph.module_count();
  result.timings.pd_graph_s =
      prebuilt_graph != nullptr ? 0.0 : seconds_since(t);

  // Stages 3-5 depend on the pipeline mode.
  const bool full = options.mode == PipelineMode::Full;
  const bool use_ishape = full && options.enable_ishape;
  const bool use_primal = full && options.enable_primal;

  stage_boundary("ishape");
  compress::IshapeResult ishape(graph);  // identity (no merges) by default
  t = std::chrono::steady_clock::now();
  if (use_ishape) ishape = compress::simplify_ishape(graph);
  result.ishape_merges = ishape.merge_count();
  result.timings.ishape_s = seconds_since(t);

  const int jobs = resolve_jobs(options.jobs);

  stage_boundary("primal_bridge");
  t = std::chrono::steady_clock::now();
  compress::PrimalBridging bridging;
  if (use_primal) {
    bridging = compress::bridge_primal_best(
        graph, ishape, options.seed, options.primal_restarts, jobs,
        &result.timings.primal_restarts);
    result.primal_bridges = bridging.bridge_count();
  }
  result.timings.primal_bridge_s = seconds_since(t);

  stage_boundary("dual_bridge");
  t = std::chrono::steady_clock::now();
  compress::DualBridging dual(graph.net_count());
  switch (options.mode) {
    case PipelineMode::Full:
      if (options.enable_dual) dual = compress::bridge_dual(graph, ishape);
      break;
    case PipelineMode::DualOnly:
      dual = compress::bridge_dual_without_ishape(graph);
      break;
    case PipelineMode::ModularOnly:
      break;  // no bridging: every net stays its own component
  }
  result.dual_bridges = dual.bridge_count();
  result.net_components = dual.component_count();
  result.timings.dual_bridge_s = seconds_since(t);

  // Stage 6 + 7: module placement and dual-defect net routing, run as K
  // independent attempts with derived seeds on up to `jobs` threads
  // (identically in every pipeline mode; attempt 0 uses options.seed
  // itself). Within an attempt, when the router cannot legalize the
  // tightest packing it escalates once with a free routing plane between
  // layers (congestion-driven whitespace insertion). The winner is picked
  // sequentially under the total order (legal first, volume, attempt
  // index), so the result is bit-identical for any thread count.
  stage_boundary("place_route");
  trace::Span build_nodes_span("place.build_nodes");
  place::NodeSet nodes =
      use_primal ? place::build_nodes(graph, ishape, bridging, dual,
                                      options.plan_flips)
                 : place::build_nodes_dual_only(graph, dual);
  build_nodes_span.end();
  result.nodes = nodes.node_count();

  const std::size_t attempts =
      static_cast<std::size_t>(std::max(1, options.place_restarts));
  std::vector<std::uint64_t> seeds(attempts);
  seeds[0] = options.seed;
  std::uint64_t seed_state = options.seed;
  for (std::size_t k = 1; k < attempts; ++k) seeds[k] = splitmix64(seed_state);

  struct Attempt {
    place::Placement placement;
    route::RoutingResult routing;
    PlaceAttemptStats stats;
  };
  std::vector<Attempt> outcomes(attempts);
  t = std::chrono::steady_clock::now();
  trace::Span place_route_span("pipeline.place_route");
  // Warm-start chaining (--route-warm-start): the NegotiationMemory
  // exported by each attempt's final routing seeds the NEXT attempt's
  // first routing with decayed history and remembered windows, so later
  // attempts skip part of the negotiation-convergence price. Each attempt
  // snapshots the incoming memory once: its internal y-gap escalation
  // re-consumes that same snapshot rather than its own y-gap-0 export, so
  // every attempt in isolation routes exactly as it would without
  // chaining. Chaining imposes a sequential attempt order (each attempt
  // then gets the whole jobs budget for its internal parallelism); the
  // order is a fixed function of the attempt index, so results stay
  // bit-identical for any jobs value. Attempt 0 consumes an invalid
  // (empty) memory, preserving single-attempt == attempt-0 equivalence —
  // and making the default place_restarts=1 pipeline bit-identical to
  // --route-warm-start=0.
  const bool warm_chain = options.route.warm_start;
  route::NegotiationMemory chained_memory;
  auto run_attempt = [&](std::size_t k) {
    TQEC_TRACE_SPAN("place_route.attempt", "attempt " + std::to_string(k));
    Attempt& a = outcomes[k];
    a.stats.seed = seeds[k];
    const route::NegotiationMemory attempt_in = chained_memory;
    const int thread_split = std::max(
        1, jobs / static_cast<int>(
                      std::min(attempts, static_cast<std::size_t>(jobs))));
    for (const int y_gap : {0, 1}) {
      // Cooperative cancellation between escalation levels. The attempt
      // just stops early (leaving its outcome illegal/empty); the stage
      // boundary after the join raises CancelledError on the calling
      // thread, so no partial winner ever escapes.
      if (options.cancel.cancelled()) return;
      auto t_stage = std::chrono::steady_clock::now();
      place::PlaceOptions place_opt = options.place;
      place_opt.seed = seeds[k];
      place_opt.effort *= options.effort;
      place_opt.layer_y_gap = std::max(place_opt.layer_y_gap, y_gap);
      // Split the jobs budget between concurrent attempts and each
      // attempt's SA replicas (an explicit --place-threads wins); under
      // warm-start chaining attempts run one at a time, so each gets the
      // whole budget. Thread counts never change results, so the split is
      // a pure wall-clock heuristic — same contract as the routing split
      // below.
      if (place_opt.threads == 0)
        place_opt.threads = warm_chain ? jobs : thread_split;
      a.placement = place_modules(nodes, place_opt);
      a.stats.place_s += seconds_since(t_stage);

      t_stage = std::chrono::steady_clock::now();
      route::RouteOptions route_opt = options.route;
      route_opt.seed = seeds[k];
      // Split the jobs budget between concurrent attempts and each
      // attempt's routing workers (an explicit --route-threads wins).
      // Thread counts never change results, so the split is a pure
      // wall-clock heuristic.
      if (route_opt.threads == 0)
        route_opt.threads = warm_chain ? jobs : thread_split;
      a.routing = warm_chain
                      ? route::route_nets(nodes, a.placement, route_opt,
                                          &attempt_in, &chained_memory)
                      : route::route_nets(nodes, a.placement, route_opt);
      a.stats.route_s += seconds_since(t_stage);
      a.stats.y_gap = y_gap;
      if (a.routing.legal) break;
      TQEC_LOG_INFO("attempt " << k << ": routing illegal at y-gap " << y_gap
                               << "; escalating whitespace");
    }
    a.stats.volume = a.routing.volume;
    a.stats.legal = a.routing.legal;
    a.stats.sa_iterations = a.placement.iterations_run;
    a.stats.sa_accepted = a.placement.moves_accepted;
    a.stats.sa_rejected = a.placement.moves_rejected;
    a.stats.sa_replicas = a.placement.replicas;
    a.stats.sa_selected_replica = a.placement.selected_replica;
    a.stats.sa_repacked_nodes = a.placement.repacked_nodes;
    a.stats.sa_exchanges_attempted = a.placement.exchanges_attempted;
    a.stats.sa_exchanges_accepted = a.placement.exchanges_accepted;
    // Moves/sec covers the attempt's final (selected-y-gap) placement over
    // its total place time; purely diagnostic, never affects results.
    if (a.stats.place_s > 0)
      a.stats.sa_moves_per_sec =
          static_cast<double>(a.placement.iterations_run) / a.stats.place_s;
    a.stats.route_iterations = a.routing.iterations;
    a.stats.route_overused = a.routing.overused_cells;
    a.stats.route_reroutes_per_iter = a.routing.reroutes_per_iter;
    a.stats.route_reroutes = a.routing.reroutes_total;
    a.stats.route_full_sweeps = a.routing.full_sweeps;
    a.stats.route_queue_pushes = a.routing.queue_pushes;
    a.stats.route_queue_pops = a.routing.queue_pops;
    a.stats.route_repair_awarded = a.routing.repair_awarded;
    a.stats.route_repair_failed = a.routing.repair_failed;
    a.stats.route_batches = a.routing.batches;
    a.stats.route_conflicts_requeued = a.routing.conflicts_requeued;
    a.stats.route_parallel_efficiency = a.routing.parallel_efficiency;
    a.stats.route_lookahead_nets = a.routing.lookahead_nets;
    a.stats.route_window_hits = a.routing.window_hits;
    a.stats.route_window_misses = a.routing.window_misses;
    a.stats.route_warm_started = a.routing.warm_started;
    a.stats.sa_curve = a.placement.sa_curve;
    a.stats.sa_replica_curves = a.placement.replica_curves;
    a.stats.route_overused_per_iter = a.routing.overused_per_iter;
  };
  if (warm_chain) {
    for (std::size_t k = 0; k < attempts; ++k) run_attempt(k);
  } else {
    parallel_for(attempts, jobs, run_attempt);
  }
  place_route_span.end();
  result.timings.place_route_wall_s = seconds_since(t);
  // Deliver a mid-place/route cancellation (workers returned early above)
  // on the calling thread, at the boundary of the next stage.
  stage_boundary("emit_geometry");

  // Deterministic reduction: strict-less scan keeps the earliest attempt
  // on ties.
  std::size_t best = 0;
  const auto key = [&](const Attempt& a) {
    return std::tuple(a.routing.legal ? 0 : 1, a.routing.volume);
  };
  for (std::size_t k = 1; k < attempts; ++k)
    if (key(outcomes[k]) < key(outcomes[best])) best = k;
  outcomes[best].stats.selected = true;
  result.timings.place_s = outcomes[best].stats.place_s;
  result.timings.route_s = outcomes[best].stats.route_s;
  result.timings.attempts.reserve(attempts);
  for (const Attempt& a : outcomes) result.timings.attempts.push_back(a.stats);

  place::Placement placement = std::move(outcomes[best].placement);
  route::RoutingResult routing = std::move(outcomes[best].routing);
  result.placement = placement;
  result.routing = routing;
  result.routed_legal = routing.legal;
  result.volume = routing.volume;
  if (options.emit_geometry) {
    result.geometry =
        emit_geometry(graph, nodes, placement, routing, circuit.name());
    // One occupancy-grid build covers the whole geometry record: exact cell
    // count from the population count, plus the grid's own build cost and
    // footprint (the same grid the validator's fast path rasterizes).
    geom::GridBuildStats gstats;
    const geom::OccupancyGrid grid =
        geom::build_occupancy(result.geometry, &gstats);
    result.geom.grid_build_s = gstats.build_s;
    result.geom.grid_bytes = gstats.bytes;
    result.geom.exact_cells =
        grid.popcount(geom::kPrimalPlane) + grid.popcount(geom::kDualPlane);
    result.geom.segments =
        static_cast<std::int64_t>(result.geometry.segment_count());
    result.geom.arena_bytes = result.geometry.arena_bytes();
  }
  if (options.keep_internals) {
    result.internals = std::make_shared<PipelineInternals>(
        PipelineInternals{graph, std::move(nodes), std::move(dual)});
  }

  result.timings.total_s = seconds_since(t_start);

  // Publish the run's gauges and the selected attempt's convergence curves
  // to the metrics registry, then snapshot it into the result. This runs
  // on the calling thread after the parallel join, so snapshot content is
  // independent of thread scheduling (counter totals are commutative sums
  // published by the stages themselves).
  result.peak_rss_bytes = trace::peak_rss_bytes();
  if (trace::enabled()) {
    const PlaceAttemptStats& sel = outcomes[best].stats;
    trace::gauge_set("process.peak_rss_bytes",
                     static_cast<double>(result.peak_rss_bytes));
    trace::gauge_set("process.current_rss_bytes",
                     static_cast<double>(trace::current_rss_bytes()));
    trace::gauge_set("compile.volume", static_cast<double>(result.volume));
    trace::gauge_set("compile.modules", result.modules);
    trace::gauge_set("compile.nodes", result.nodes);
    trace::gauge_set("compile.attempts", static_cast<double>(attempts));
    trace::gauge_set("stage.pd_graph_s", result.timings.pd_graph_s);
    trace::gauge_set("stage.ishape_s", result.timings.ishape_s);
    trace::gauge_set("stage.primal_bridge_s",
                     result.timings.primal_bridge_s);
    trace::gauge_set("stage.dual_bridge_s", result.timings.dual_bridge_s);
    trace::gauge_set("stage.place_s", result.timings.place_s);
    trace::gauge_set("stage.route_s", result.timings.route_s);
    trace::gauge_set("stage.place_route_wall_s",
                     result.timings.place_route_wall_s);
    trace::gauge_set("route.parallel_efficiency",
                     sel.route_parallel_efficiency);
    trace::gauge_set("place.sa_replicas", sel.sa_replicas);
    trace::gauge_set("place.sa_moves_per_sec", sel.sa_moves_per_sec);
    if (options.emit_geometry) {
      trace::gauge_set("geom.grid_build_s", result.geom.grid_build_s);
      trace::gauge_set("geom.grid_bytes",
                       static_cast<double>(result.geom.grid_bytes));
      trace::gauge_set("geom.exact_cells",
                       static_cast<double>(result.geom.exact_cells));
      trace::gauge_set("geom.segments",
                       static_cast<double>(result.geom.segments));
      trace::gauge_set("geom.arena_bytes",
                       static_cast<double>(result.geom.arena_bytes));
    }
    trace::gauge_set(
        "place.sa_repacked_per_move",
        static_cast<double>(sel.sa_repacked_nodes) /
            static_cast<double>(std::max(1, sel.sa_accepted + sel.sa_rejected)));
    auto iota_x = [](std::size_t n) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<double>(i);
      return x;
    };
    // The x vector is built before each call: argument evaluation order is
    // unspecified, so iota_x(v.size()) inside the call could see v already
    // moved from.
    auto put_indexed = [&](const char* name, std::vector<double> y) {
      std::vector<double> x = iota_x(y.size());
      trace::series_put(name, std::move(x), std::move(y));
    };
    std::vector<double> cost, temp, rate;
    for (const place::SaSample& s : sel.sa_curve) {
      cost.push_back(s.cost);
      temp.push_back(s.temperature);
      rate.push_back(s.accept_rate);
    }
    put_indexed("place.sa_cost", std::move(cost));
    put_indexed("place.sa_temperature", std::move(temp));
    put_indexed("place.sa_accept_rate", std::move(rate));
    put_indexed("route.overused",
                {sel.route_overused_per_iter.begin(),
                 sel.route_overused_per_iter.end()});
    put_indexed("route.reroutes",
                {sel.route_reroutes_per_iter.begin(),
                 sel.route_reroutes_per_iter.end()});
    put_indexed("route.congestion_hist",
                {result.routing.congestion_histogram.begin(),
                 result.routing.congestion_histogram.end()});
    result.metrics = trace::snapshot_metrics();
  }

  TQEC_LOG_INFO("compile '" << circuit.name() << "': modules="
                            << result.modules << " nodes=" << result.nodes
                            << " volume=" << result.volume << " ("
                            << result.timings.total_s << "s)");
  // Progress only, no cancel check: the result is complete, discarding it
  // now would help nobody.
  if (options.progress) options.progress("done");
  return result;
}

namespace {

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

template <typename T>
void emit_number_array(std::ostringstream& os, const std::vector<T>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    if constexpr (std::is_floating_point_v<T>) os << json_double(values[i]);
    else os << values[i];
  }
  os << "]";
}

void emit_sa_curve(std::ostringstream& os,
                   const std::vector<place::SaSample>& curve) {
  std::vector<double> cost, temperature, accept_rate;
  cost.reserve(curve.size());
  temperature.reserve(curve.size());
  accept_rate.reserve(curve.size());
  for (const place::SaSample& s : curve) {
    cost.push_back(s.cost);
    temperature.push_back(s.temperature);
    accept_rate.push_back(s.accept_rate);
  }
  os << "{\"cost\": ";
  emit_number_array(os, cost);
  os << ", \"temperature\": ";
  emit_number_array(os, temperature);
  os << ", \"accept_rate\": ";
  emit_number_array(os, accept_rate);
  os << "}";
}

void emit_histogram(std::ostringstream& os,
                    const trace::HistogramSnapshot& h) {
  os << trace::histogram_json(h);
}

}  // namespace

std::string stats_json(const CompileResult& result) {
  const StageTimings& t = result.timings;
  std::ostringstream os;
  os << "{\n"
     << "  \"stats_version\": 2,\n"
     << "  \"name\": \"" << json::escape(result.name) << "\",\n"
     << "  \"volume\": " << result.volume << ",\n"
     << "  \"canonical_volume\": " << result.canonical_volume << ",\n"
     << "  \"legal\": " << (result.routed_legal ? "true" : "false") << ",\n"
     << "  \"modules\": " << result.modules << ",\n"
     << "  \"nodes\": " << result.nodes << ",\n"
     << "  \"ishape_merges\": " << result.ishape_merges << ",\n"
     << "  \"primal_bridges\": " << result.primal_bridges << ",\n"
     << "  \"dual_bridges\": " << result.dual_bridges << ",\n"
     << "  \"net_components\": " << result.net_components << ",\n"
     << "  \"peak_rss_bytes\": " << result.peak_rss_bytes << ",\n"
     << "  \"timings\": {"
     << "\"pd_graph_s\": " << json_double(t.pd_graph_s)
     << ", \"ishape_s\": " << json_double(t.ishape_s)
     << ", \"primal_bridge_s\": " << json_double(t.primal_bridge_s)
     << ", \"dual_bridge_s\": " << json_double(t.dual_bridge_s)
     << ", \"place_s\": " << json_double(t.place_s)
     << ", \"route_s\": " << json_double(t.route_s)
     << ", \"place_route_wall_s\": " << json_double(t.place_route_wall_s)
     << ", \"total_s\": " << json_double(t.total_s) << "},\n";

  os << "  \"primal_restarts\": {\"selected\": " << t.primal_restarts.selected
     << ", \"restarts\": [";
  for (std::size_t r = 0; r < t.primal_restarts.restart_s.size(); ++r) {
    if (r > 0) os << ", ";
    os << "{\"time_s\": " << json_double(t.primal_restarts.restart_s[r])
       << ", \"chains\": " << t.primal_restarts.chain_counts[r]
       << ", \"bridges\": " << t.primal_restarts.bridge_counts[r] << "}";
  }
  os << "]},\n";

  os << "  \"attempts\": [";
  for (std::size_t k = 0; k < t.attempts.size(); ++k) {
    const PlaceAttemptStats& a = t.attempts[k];
    if (k > 0) os << ",";
    os << "\n    {\"seed\": " << a.seed << ", \"volume\": " << a.volume
       << ", \"legal\": " << (a.legal ? "true" : "false")
       << ", \"selected\": " << (a.selected ? "true" : "false")
       << ", \"y_gap\": " << a.y_gap
       << ", \"place_s\": " << json_double(a.place_s)
       << ", \"route_s\": " << json_double(a.route_s)
       << ", \"sa_iterations\": " << a.sa_iterations
       << ", \"sa_accepted\": " << a.sa_accepted
       << ", \"sa_rejected\": " << a.sa_rejected
       << ", \"sa_replicas\": " << a.sa_replicas
       << ", \"sa_selected_replica\": " << a.sa_selected_replica
       << ", \"sa_repacked_nodes\": " << a.sa_repacked_nodes
       << ", \"sa_repacked_per_move\": "
       << json_double(static_cast<double>(a.sa_repacked_nodes) /
                      static_cast<double>(
                          std::max(1, a.sa_accepted + a.sa_rejected)))
       << ", \"sa_moves_per_sec\": " << json_double(a.sa_moves_per_sec)
       << ", \"sa_exchanges_attempted\": " << a.sa_exchanges_attempted
       << ", \"sa_exchanges_accepted\": " << a.sa_exchanges_accepted
       << ", \"route_iterations\": " << a.route_iterations
       << ", \"route_overused\": " << a.route_overused
       << ", \"route_reroutes\": " << a.route_reroutes
       << ", \"route_full_sweeps\": " << a.route_full_sweeps
       << ", \"route_queue_pushes\": " << a.route_queue_pushes
       << ", \"route_queue_pops\": " << a.route_queue_pops
       << ", \"route_repair_awarded\": " << a.route_repair_awarded
       << ", \"route_repair_failed\": " << a.route_repair_failed
       << ", \"route_batches\": " << a.route_batches
       << ", \"route_conflicts_requeued\": " << a.route_conflicts_requeued
       << ", \"route_parallel_efficiency\": "
       << json_double(a.route_parallel_efficiency)
       << ", \"route_lookahead_nets\": " << a.route_lookahead_nets
       << ", \"route_window_hits\": " << a.route_window_hits
       << ", \"route_window_misses\": " << a.route_window_misses
       << ", \"route_warm_started\": "
       << (a.route_warm_started ? "true" : "false")
       << ", \"route_reroutes_per_iter\": ";
    emit_number_array(os, a.route_reroutes_per_iter);
    os << ", \"route_overused_per_iter\": ";
    emit_number_array(os, a.route_overused_per_iter);
    os << ", \"sa_curve\": ";
    emit_sa_curve(os, a.sa_curve);
    os << ", \"sa_replica_curves\": [";
    for (std::size_t r = 0; r < a.sa_replica_curves.size(); ++r) {
      if (r > 0) os << ", ";
      emit_sa_curve(os, a.sa_replica_curves[r]);
    }
    os << "]}";
  }
  if (!t.attempts.empty()) os << "\n  ";
  os << "],\n";

  // Congestion census of the selected attempt's final routing.
  const route::RoutingResult& routing = result.routing;
  os << "  \"route\": {\"iterations\": " << routing.iterations
     << ", \"overused_cells\": " << routing.overused_cells
     << ", \"total_wire\": " << routing.total_wire
     << ", \"present_factor_final\": "
     << json_double(routing.present_factor_final)
     << ", \"batches\": " << routing.batches
     << ", \"conflicts_requeued\": " << routing.conflicts_requeued
     << ", \"parallel_efficiency\": "
     << json_double(routing.parallel_efficiency)
     << ", \"lookahead_nets\": " << routing.lookahead_nets
     << ", \"window_hits\": " << routing.window_hits
     << ", \"window_misses\": " << routing.window_misses
     << ", \"warm_started\": " << (routing.warm_started ? "true" : "false")
     << ", \"overused_per_iter\": ";
  emit_number_array(os, routing.overused_per_iter);
  os << ", \"congestion_histogram\": ";
  emit_number_array(os, routing.congestion_histogram);
  os << ", \"hottest_cells\": [";
  for (std::size_t i = 0; i < routing.hottest_cells.size(); ++i) {
    const route::RoutingResult::HotCell& h = routing.hottest_cells[i];
    if (i > 0) os << ", ";
    os << "{\"x\": " << h.cell.x << ", \"y\": " << h.cell.y
       << ", \"z\": " << h.cell.z << ", \"usage\": " << h.usage
       << ", \"capacity\": " << h.capacity << "}";
  }
  os << "], \"heatmap\": \"" << json::escape(routing.congestion_heatmap)
     << "\"},\n";

  // Time-axis sharding record (additive in v2; enabled=false defaults for
  // unsharded compiles — see core/shard.h).
  const ShardStats& sh = result.shard;
  os << "  \"shard\": {\"enabled\": " << (sh.enabled ? "true" : "false")
     << ", \"window\": " << sh.window << ", \"threads\": " << sh.threads
     << ", \"windows_total\": " << sh.windows_total
     << ", \"windows_resumed\": " << sh.windows_resumed
     << ", \"windows_reseeded\": " << sh.windows_reseeded
     << ", \"crossings\": " << sh.crossings
     << ", \"stitches\": " << sh.stitches
     << ", \"seam_cells\": " << sh.seam_cells
     << ", \"stitch_s\": " << json_double(sh.stitch_s)
     << ", \"cut_layers\": ";
  emit_number_array(os, sh.cut_layers);
  os << ", \"window_volumes\": ";
  emit_number_array(os, sh.window_volumes);
  os << ", \"issues\": [";
  for (std::size_t i = 0; i < sh.issues.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << json::escape(sh.issues[i]) << "\"";
  }
  os << "]},\n";

  // Geometry-engine record (additive in v2; zeros when emit_geometry was
  // off — see core/compiler.h GeomStats).
  const GeomStats& ge = result.geom;
  os << "  \"geom\": {\"grid_build_s\": " << json_double(ge.grid_build_s)
     << ", \"grid_bytes\": " << ge.grid_bytes
     << ", \"exact_cells\": " << ge.exact_cells
     << ", \"segments\": " << ge.segments
     << ", \"arena_bytes\": " << ge.arena_bytes << "},\n";

  // Stage-cache usage (additive in v2; all-"skip" defaults for the
  // single-shot CLI path, filled in by the tqec::Compiler facade).
  const CacheUsage& c = result.cache;
  os << "  \"cache\": {\"enabled\": " << (c.enabled ? "true" : "false")
     << ", \"decompose\": \"" << json::escape(c.decompose) << "\""
     << ", \"icm\": \"" << json::escape(c.icm) << "\""
     << ", \"pd_graph\": \"" << json::escape(c.pd_graph) << "\""
     << ", \"hits\": " << c.hits << ", \"misses\": " << c.misses
     << ", \"entries\": " << c.entries << ", \"bytes\": " << c.bytes
     << ", \"budget\": " << c.budget << ", \"evictions\": " << c.evictions
     << "},\n";

  // Trace metrics registry snapshot (empty object unless tracing was on).
  os << "  \"metrics\": {\"counters\": {";
  {
    bool first = true;
    for (const auto& [name, value] : result.metrics.counters) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << json::escape(name) << "\": " << value;
    }
  }
  os << "}, \"gauges\": {";
  {
    bool first = true;
    for (const auto& [name, value] : result.metrics.gauges) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << json::escape(name) << "\": " << json_double(value);
    }
  }
  os << "}, \"series\": {";
  {
    bool first = true;
    for (const trace::SeriesChannel& s : result.metrics.series) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << json::escape(s.name) << "\": {\"x\": ";
      emit_number_array(os, s.x);
      os << ", \"y\": ";
      emit_number_array(os, s.y);
      os << "}";
    }
  }
  os << "}, \"histograms\": {";
  {
    bool first = true;
    for (const trace::HistogramSnapshot& h : result.metrics.histograms) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << json::escape(h.name) << "\": ";
      emit_histogram(os, h);
    }
  }
  os << "}}\n}\n";
  return os.str();
}

}  // namespace tqec::core
