#include "core/compiler.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <exception>
#include <string>
#include <tuple>
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

  // One whitespace escalation level of an attempt: place with `y_gap`
  // free planes between layers, then route, both on the calling thread. A
  // level handed a `stop` token returns early once it fires, with a
  // result that must be discarded.
  struct Level {
    place::Placement placement;
    route::RoutingResult routing;
    double place_s = 0;
    double route_s = 0;
  };
  const auto run_level = [&](std::uint64_t seed, int y_gap,
                             const CancelToken* stop) {
    TQEC_TRACE_SPAN("place_route.level", "y-gap " + std::to_string(y_gap));
    Level lv;
    auto t_stage = std::chrono::steady_clock::now();
    place::PlaceOptions place_opt = options.place;
    place_opt.seed = seed;
    place_opt.effort *= options.effort;
    place_opt.layer_y_gap = std::max(place_opt.layer_y_gap, y_gap);
    lv.placement = place_modules(nodes, place_opt, stop);
    lv.place_s = seconds_since(t_stage);
    if (stop != nullptr && stop->cancelled()) return lv;

    t_stage = std::chrono::steady_clock::now();
    route::RouteOptions route_opt = options.route;
    route_opt.seed = seed;
    // Only y-gap 0 has a fallback level, so only it may give up early.
    route_opt.abandon_doomed = y_gap == 0;
    lv.routing = route::route_nets(nodes, lv.placement, route_opt, stop);
    lv.route_s = seconds_since(t_stage);
    return lv;
  };

  auto run_attempt = [&](std::size_t k) {
    TQEC_TRACE_SPAN("place_route.attempt", "attempt " + std::to_string(k));
    Attempt& a = outcomes[k];
    a.stats.seed = seeds[k];
    // The attempt's share of the jobs budget: concurrent attempts split it.
    const int budget = std::max(
        1, jobs / static_cast<int>(
                      std::min(attempts, static_cast<std::size_t>(jobs))));
    std::array<Level, 2> levels;
    // Levels 0..kept count as run, in escalation order: their times add up
    // in the attempt's place_s / route_s and their work in the trace
    // counters. The kept level supplies every other attempt stat.
    const auto keep = [&](int kept) {
      for (int y = 0; y <= kept; ++y) {
        const Level& lv = levels[static_cast<std::size_t>(y)];
        a.stats.place_s += lv.place_s;
        a.stats.route_s += lv.route_s;
        place::publish_counters(lv.placement);
        route::publish_counters(lv.routing);
      }
      Level& lv = levels[static_cast<std::size_t>(kept)];
      a.placement = std::move(lv.placement);
      a.routing = std::move(lv.routing);
      a.stats.y_gap = kept;
      // Fields copied from the kept level's placement and routing (the
      // `from` column of TQEC_ATTEMPT_FIELDS); the `loop` fields are set
      // here and above.
#define TQEC_COPY_placement(name, member) a.stats.name = a.placement.member;
#define TQEC_COPY_routing(name, member) a.stats.name = a.routing.member;
#define TQEC_COPY_loop(name, member)
#define TQEC_COPY(type, name, init, from, member) TQEC_COPY_##from(name, member)
      TQEC_ATTEMPT_FIELDS(TQEC_COPY)
      TQEC_ATTEMPT_SERIES(TQEC_COPY)
      a.stats.sa_repacked_per_move =
          static_cast<double>(a.stats.sa_repacked_nodes) /
          static_cast<double>(
              std::max(1, a.stats.sa_accepted + a.stats.sa_rejected));
      // Moves (accepted + rejected) per second of the kept level's
      // placement over that level's own place time; purely diagnostic,
      // never affects results.
      if (lv.place_s > 0)
        a.stats.sa_moves_per_sec =
            static_cast<double>(a.stats.sa_accepted + a.stats.sa_rejected) /
            lv.place_s;
    };
    // Cooperative cancellation before the attempt (and, through y-gap 0's
    // stop token below, before y-gap 1). The attempt just stops early
    // (leaving its outcome illegal/empty); the stage boundary after the
    // join raises CancelledError on the calling thread, so no partial
    // winner ever escapes.
    if (options.cancel.cancelled()) return;
    // Escalation: y-gap 1 runs on the budget's second thread alongside
    // y-gap 0 (jobs=2: 1 + 1), or after it on a budget of 1. The levels
    // share no state, so each routes exactly as it would in order, and the
    // kept level is y-gap 0 if legal, else y-gap 1. A legal
    // (or throwing, or cancelled) y-gap 0 stops y-gap 1 — or keeps it from
    // starting — and its result is then dropped unseen.
    CancelToken stop_speculative;
    std::array<std::exception_ptr, 2> errors;
    parallel_for(2, budget, [&](std::size_t y) {
      try {
        if (y == 0) {
          levels[0] = run_level(seeds[k], 0, nullptr);
          if (levels[0].routing.legal || options.cancel.cancelled())
            stop_speculative.cancel();
        } else {
          if (stop_speculative.cancelled()) return;
          levels[1] = run_level(seeds[k], 1, &stop_speculative);
        }
      } catch (...) {
        errors[y] = std::current_exception();
        if (y == 0) stop_speculative.cancel();
      }
    });
    if (errors[0]) std::rethrow_exception(errors[0]);
    if (!levels[0].routing.legal) {
      if (options.cancel.cancelled()) return;  // y-gap 1 may be stopped
      const route::RoutingResult& r0 = levels[0].routing;
      if (r0.abandoned) {
        TQEC_LOG_INFO("attempt " << k << ": y-gap 0 abandoned at iteration "
                                 << r0.iterations << " with "
                                 << r0.overused_cells
                                 << " overused cells; keeping the y-gap 1 "
                                    "whitespace level");
      } else {
        TQEC_LOG_INFO("attempt " << k
                                 << ": routing illegal at y-gap 0; keeping "
                                    "the y-gap 1 whitespace level");
      }
      if (errors[1]) std::rethrow_exception(errors[1]);
    }
    keep(levels[0].routing.legal ? 0 : 1);
  };
  parallel_for(attempts, jobs, run_attempt);
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

  result.placement = std::move(outcomes[best].placement);
  result.routing = std::move(outcomes[best].routing);
  result.routed_legal = result.routing.legal;
  result.volume = result.routing.volume;
  if (options.emit_geometry) {
    result.geometry = emit_geometry(graph, nodes, result.placement,
                                    result.routing, circuit.name());
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
    visit_stage_fields(
        [](const char* name, double v) {
          trace::gauge_set(("stage." + std::string(name)).c_str(), v);
        },
        result.timings);
    trace::gauge_set("route.parallel_efficiency",
                     sel.route_parallel_efficiency);
    trace::gauge_set("place.sa_moves_per_sec", sel.sa_moves_per_sec);
    if (options.emit_geometry) publish_geom_gauges(result.geom);
    trace::gauge_set("place.sa_repacked_per_move", sel.sa_repacked_per_move);
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

void publish_geom_gauges(const GeomStats& geom) {
  visit_geom_fields(
      [](const char* name, auto v) {
        trace::gauge_set(("geom." + std::string(name)).c_str(),
                         static_cast<double>(v));
      },
      geom);
}

namespace {

void write_value(json::Writer& w, const std::vector<place::SaSample>& curve) {
  w.begin_object().key("cost").begin_array();
  for (const place::SaSample& s : curve) w.value(s.cost);
  w.end_array().key("temperature").begin_array();
  for (const place::SaSample& s : curve) w.value(s.temperature);
  w.end_array().key("accept_rate").begin_array();
  for (const place::SaSample& s : curve) w.value(s.accept_rate);
  w.end_array().end_object();
}

void write_value(json::Writer& w, const std::vector<int>& values) {
  w.array(values);
}

}  // namespace

void write_stats_json(json::Writer& w, const CompileResult& result) {
  const StageTimings& t = result.timings;
  const JsonMembers members{w};
  w.begin_object().field("stats_version", 2).field("name", result.name);
  w.field("volume", result.volume);
  w.field("canonical_volume", result.canonical_volume);
  w.field("legal", result.routed_legal);
  visit_count_fields(members, result);
  w.field("peak_rss_bytes", result.peak_rss_bytes);
  w.key("timings").begin_object();
  visit_timing_fields(members, t);
  w.end_object();

  w.key("primal_restarts").begin_object();
  w.field("selected", t.primal_restarts.selected).key("restarts").begin_array();
  for (std::size_t r = 0; r < t.primal_restarts.restart_s.size(); ++r) {
    w.begin_object().field("time_s", t.primal_restarts.restart_s[r]);
    w.field("chains", t.primal_restarts.chain_counts[r]);
    w.field("bridges", t.primal_restarts.bridge_counts[r]).end_object();
  }
  w.end_array().end_object();

  w.key("attempts").begin_array();
  for (const PlaceAttemptStats& a : t.attempts) {
    w.begin_object();
    visit_attempt_fields(members, a);
    visit_attempt_series(
        [&w](const char* name, const auto& series) {
          write_value(w.key(name), series);
        },
        a);
    w.end_object();
  }
  w.end_array();

  // Congestion census of the selected attempt's final routing.
  const route::RoutingResult& routing = result.routing;
  w.key("route").begin_object().field("iterations", routing.iterations);
  w.field("overused_cells", routing.overused_cells);
  w.field("total_wire", routing.total_wire);
  w.field("present_factor_final", routing.present_factor_final);
  w.field("connects", routing.connects);
  w.field("batches", routing.batches);
  w.field("conflicts_requeued", routing.conflicts_requeued);
  w.field("parallel_efficiency", routing.parallel_efficiency);
  w.field("window_hits", routing.window_hits);
  w.field("window_misses", routing.window_misses);
  w.key("overused_per_iter").array(routing.overused_per_iter);
  w.key("congestion_histogram").array(routing.congestion_histogram);
  w.key("hottest_cells").begin_array();
  for (const route::RoutingResult::HotCell& h : routing.hottest_cells) {
    w.begin_object().field("x", h.cell.x).field("y", h.cell.y);
    w.field("z", h.cell.z).field("usage", h.usage);
    w.field("capacity", h.capacity).end_object();
  }
  w.end_array().field("heatmap", routing.congestion_heatmap).end_object();

  // Time-axis sharding record (additive in v2; enabled=false defaults for
  // unsharded compiles — see core/shard.h).
  const ShardStats& sh = result.shard;
  w.key("shard").begin_object();
  visit_shard_fields(members, sh);
  w.key("cut_layers").array(sh.cut_layers);
  w.key("window_volumes").array(sh.window_volumes);
  w.key("issues").array(sh.issues);
  w.end_object();

  // Geometry-engine record (additive in v2; zeros when emit_geometry was
  // off — see core/compiler.h GeomStats).
  w.key("geom").begin_object();
  visit_geom_fields(members, result.geom);
  w.end_object();

  // Stage-cache usage (additive in v2; all-"skip" defaults for the
  // single-shot CLI path, filled in by the tqec::Compiler facade).
  w.key("cache").begin_object();
  visit_cache_fields(members, result.cache);
  w.end_object();

  // Trace metrics registry snapshot (empty object unless tracing was on).
  const trace::MetricsSnapshot& m = result.metrics;
  w.key("metrics").begin_object().key("counters").begin_object();
  for (const auto& [name, value] : m.counters) w.field(name, value);
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, value] : m.gauges) w.field(name, value);
  w.end_object().key("series").begin_object();
  for (const trace::SeriesChannel& s : m.series) {
    w.key(s.name).begin_object().key("x").array(s.x);
    w.key("y").array(s.y).end_object();
  }
  w.end_object().key("histograms").begin_object();
  for (const trace::HistogramSnapshot& h : m.histograms) {
    w.key(h.name);
    trace::write_histogram(w, h);
  }
  w.end_object().end_object().end_object();
}

std::string stats_json(const CompileResult& result) {
  json::Writer w;
  write_stats_json(w, result);
  return w.str() + "\n";
}

}  // namespace tqec::core
