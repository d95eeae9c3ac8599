// Top-level TQEC circuit compression pipeline (paper Fig. 5).
//
// Orchestrates the seven stages on an ICM circuit:
//   (1) preprocess / gate decomposition happens upstream (decompose + icm);
//   (2) PD-graph generation, (3) I-shaped simplification, (4) flipping /
//   primal bridging, (5) iterative dual bridging, (6) 2.5D module
//   placement, (7) dual-defect net routing — and emits the final 3D
//   geometric description with its space-time volume.
//
// Three pipeline modes select how much of the paper's contribution runs:
//   Full        — the paper's algorithm (primal + dual bridging).
//   DualOnly    — the [Hsu DAC'21] baseline: dual bridging on the raw
//                 module records, every module its own placement node.
//   ModularOnly — modularization + placement + routing with no bridging at
//                 all (the "topological deformation only" point of Fig. 1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/json.h"
#include "common/trace.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "geom/geometry.h"
#include "icm/icm.h"
#include "pdgraph/pd_graph.h"
#include "place/placer.h"
#include "route/router.h"

namespace tqec::core {

enum class PipelineMode : std::uint8_t { Full, DualOnly, ModularOnly };

struct CompileOptions {
  PipelineMode mode = PipelineMode::Full;
  std::uint64_t seed = 7;
  /// Multiplier on the SA iteration budget; nothing else scales with it.
  double effort = 1.0;
  /// f-value dual-segment planning (eq. 5); disable for the Fig. 15
  /// "no planning" ablation.
  bool plan_flips = true;
  /// Fine-grained stage ablations (Full mode only): individually disable
  /// I-shaped simplification, primal bridging (chains + super-modules), or
  /// iterative dual bridging.
  bool enable_ishape = true;
  bool enable_primal = true;
  bool enable_dual = true;
  /// Greedy primal-bridging restarts (best-of-N chain covers; the greedy
  /// start is randomized per the paper, so restarts escape bad starts).
  int primal_restarts = 4;
  /// Independent place+route attempts with derived seeds (best legal
  /// result wins by (volume, attempt index) — a total order, so the
  /// outcome is identical for any `jobs` value). Attempt 0 uses `seed`
  /// itself, so the default reproduces the single-attempt pipeline.
  int place_restarts = 1;
  /// Worker threads for the parallel stages (primal-bridging restarts and
  /// place+route attempts). 1 = sequential; 0 or negative = one per
  /// hardware thread. Never changes results, only wall-clock.
  int jobs = 1;
  /// Validate and keep the emitted geometric description (adds memory and
  /// time on the largest benchmarks; tables only need the volume).
  bool emit_geometry = true;
  /// Retain the intermediate pipeline structures (PD graph, placement
  /// nodes, merged-net components) on the result, enabling end-to-end
  /// verification via verify::verify_result().
  bool keep_internals = false;
  /// Cooperative cancellation: compile() polls this token at stage
  /// boundaries (and between place+route attempts / whitespace
  /// escalations) and raises CancelledError when it fires. The default
  /// token never fires. cancel() may be called from any thread.
  CancelToken cancel;
  /// Stage-boundary progress callback, invoked on the thread that called
  /// compile() with the name of the stage about to run ("pd_graph",
  /// "ishape", "primal_bridge", "dual_bridge", "place_route",
  /// "emit_geometry", "done") — the same boundaries the trace spans mark.
  /// Must not throw; may call cancel.cancel() (a deadline watchdog does).
  std::function<void(const char* stage)> progress;
  place::PlaceOptions place;
  route::RouteOptions route;
};

// ---------------------------------------------------------------------------
// Stats field lists
//
// Each scalar of a stats record is one X(type, name, init, ...) entry of
// its record's list. The list declares the members and generates a
// visitor; stats_json, the registry gauges, the shard checkpoint and
// cross-window sums, tqec_serve and the round-trip tests iterate those
// instead of naming fields. To add a stats field, add one line to its list.
//
// visit_<list>(f, r...) calls f("name", r.name...) per entry, in list
// order: over one record (read or fill it), several side by side (copy,
// sum, compare), or none (just the names).

#define TQEC_STATS_MEMBER(type, name, init, ...) type name = init;
#define TQEC_STATS_VISIT(type, name, ...) f(#name, r.name...);
#define TQEC_STATS_VISITOR(visitor, LIST)                                    \
  template <typename F, typename... R>                                       \
  void visitor(F&& f, R&... r) {                                             \
    LIST(TQEC_STATS_VISIT)                                                   \
  }

/// Scalars of one place+route attempt (CompileOptions::place_restarts).
/// `from, member` names what compile() copies the field from: a
/// place::Placement (placement) or route::RoutingResult (routing) member of
/// the attempt's kept whitespace level; `loop` fields are set by the
/// attempt loop.
/// The times and the moves/sec rate are wall-clock; everything else is
/// bit-reproducible.
#define TQEC_ATTEMPT_FIELDS(X)                                               \
  X(std::uint64_t, seed, 0, loop, seed)                                      \
  X(std::int64_t, volume, 0, routing, volume)                                \
  X(bool, legal, false, routing, legal)                                      \
  X(bool, selected, false, loop, selected) /* produced the final result */   \
  X(int, y_gap, 0, loop, y_gap) /* whitespace level that finished it */      \
  X(double, place_s, 0, loop, place_s)                                       \
  X(double, route_s, 0, loop, route_s)                                       \
  X(int, sa_iterations, 0, placement, iterations_run)                        \
  X(int, sa_accepted, 0, placement, moves_accepted)                          \
  X(int, sa_rejected, 0, placement, moves_rejected)                          \
  /* SA engine (see place::Placement): the incremental-packing work */     \
  /* metric, also per move (a move is accepted + rejected) */               \
  X(std::int64_t, sa_repacked_nodes, 0, placement, repacked_nodes)           \
  X(double, sa_repacked_per_move, 0, loop, sa_repacked_per_move)             \
  X(double, sa_moves_per_sec, 0, loop, sa_moves_per_sec)                     \
  /* PathFinder (final routing): iterations, overuse, nets rerouted, full */ \
  /* sweeps, A*-queue traffic, hard-block repair outcomes */                 \
  X(int, route_iterations, 0, routing, iterations)                           \
  X(int, route_overused, 0, routing, overused_cells)                         \
  X(std::int64_t, route_reroutes, 0, routing, reroutes_total)                \
  X(int, route_full_sweeps, 0, routing, full_sweeps)                         \
  X(std::int64_t, route_queue_pushes, 0, routing, queue_pushes)              \
  X(std::int64_t, route_queue_pops, 0, routing, queue_pops)                  \
  X(int, route_repair_awarded, 0, routing, repair_awarded)                   \
  X(int, route_repair_failed, 0, routing, repair_failed)                     \
  /* Batched negotiation: batches, conflict requeues, mean nets per batch */ \
  X(int, route_batches, 0, routing, batches)                                 \
  X(int, route_conflicts_requeued, 0, routing, conflicts_requeued)           \
  X(double, route_parallel_efficiency, 0, routing, parallel_efficiency)      \
  /* Warm-window first hits vs. ladder fallbacks */                         \
  X(std::int64_t, route_window_hits, 0, routing, window_hits)                \
  X(std::int64_t, route_window_misses, 0, routing, window_misses)            \
  /* Bytes the router held at return: fabric, scratch and open queue */     \
  X(std::int64_t, route_resident_bytes, 0, routing, resident_bytes)

/// Time-series of one attempt, with the same source columns: nets rerouted
/// and overused cells per PathFinder iteration, and the SA convergence curve
/// (one sample per temperature batch).
#define TQEC_ATTEMPT_SERIES(X)                                               \
  X(std::vector<int>, route_reroutes_per_iter, {}, routing, reroutes_per_iter) \
  X(std::vector<int>, route_overused_per_iter, {}, routing, overused_per_iter) \
  X(std::vector<place::SaSample>, sa_curve, {}, placement, sa_curve)

/// Visitor callback writing each visited scalar as a "name": value member
/// of the open JSON object: visit_geom_fields(JsonMembers{w}, geom).
struct JsonMembers {
  json::Writer& w;
  template <typename T>
  void operator()(const char* name, const T& v) const {
    w.field(name, v);
  }
};

/// Observability record of one place+route attempt.
struct PlaceAttemptStats {
  TQEC_ATTEMPT_FIELDS(TQEC_STATS_MEMBER)
  TQEC_ATTEMPT_SERIES(TQEC_STATS_MEMBER)
};
TQEC_STATS_VISITOR(visit_attempt_fields, TQEC_ATTEMPT_FIELDS)
TQEC_STATS_VISITOR(visit_attempt_series, TQEC_ATTEMPT_SERIES)

/// Stage wall clocks; place/route time the *selected* attempt, summed over
/// its whitespace escalations.
#define TQEC_STAGE_FIELDS(X)                                                 \
  X(double, pd_graph_s, 0)                                                   \
  X(double, ishape_s, 0)                                                     \
  X(double, primal_bridge_s, 0)                                              \
  X(double, dual_bridge_s, 0)                                                \
  X(double, place_s, 0)                                                      \
  X(double, route_s, 0)                                                      \
  X(double, place_route_wall_s, 0) /* the whole stage, all attempts */

/// The stages plus the whole compile.
#define TQEC_TIMING_FIELDS(X)                                                \
  TQEC_STAGE_FIELDS(X)                                                       \
  X(double, total_s, 0)

/// Per-stage observability report. The scalars time the pipeline stages;
/// the vectors break the parallel stages down per restart/attempt.
/// Serializable via stats_json().
struct StageTimings {
  TQEC_TIMING_FIELDS(TQEC_STATS_MEMBER)
  /// Per-restart greedy primal-bridging breakdown (Full mode only).
  compress::RestartReport primal_restarts;
  /// One entry per place+route attempt, in attempt order.
  std::vector<PlaceAttemptStats> attempts;
};
TQEC_STATS_VISITOR(visit_stage_fields, TQEC_STAGE_FIELDS)
TQEC_STATS_VISITOR(visit_timing_fields, TQEC_TIMING_FIELDS)

/// Intermediate pipeline structures, kept when
/// CompileOptions::keep_internals is set.
struct PipelineInternals {
  pdgraph::PdGraph graph;
  place::NodeSet nodes;
  compress::DualBridging dual{0};
};

/// Stage-cache observability for one request, filled in by the
/// tqec::Compiler facade (core::compile itself never touches the cache).
/// Per-stage outcomes are "hit", "miss", or "skip" (stage not run for this
/// input kind — e.g. an .icm request needs no decompose); the counters are
/// the cache-wide cumulative totals at response time.
#define TQEC_CACHE_FIELDS(X)                                                 \
  X(bool, enabled, false)                                                    \
  X(std::string, decompose, "skip")                                          \
  X(std::string, icm, "skip")                                                \
  X(std::string, pd_graph, "skip")                                           \
  X(std::int64_t, hits, 0)                                                   \
  X(std::int64_t, misses, 0)                                                 \
  X(std::int64_t, entries, 0)                                                \
  X(std::int64_t, bytes, 0)                                                  \
  X(std::int64_t, budget, 0)                                                 \
  X(std::int64_t, evictions, 0)

struct CacheUsage {
  TQEC_CACHE_FIELDS(TQEC_STATS_MEMBER)
};
TQEC_STATS_VISITOR(visit_cache_fields, TQEC_CACHE_FIELDS)

/// Geometry-engine observability (geom/cell_grid.h): occupancy-grid build
/// cost and footprint for the emitted geometry, the exact deduplicated
/// cell count from the grid's population count, and the segment-arena
/// size. All zero when CompileOptions::emit_geometry is off.
#define TQEC_GEOM_FIELDS(X)                                                  \
  X(double, grid_build_s, 0)        /* rasterization wall clock */           \
  X(std::int64_t, grid_bytes, 0)    /* dense words or intervals */           \
  X(std::int64_t, exact_cells, 0)   /* popcount over both sublattices */     \
  X(std::int64_t, segments, 0)      /* segment-arena entries */              \
  X(std::int64_t, arena_bytes, 0)   /* arena + defect-record heap bytes */

struct GeomStats {
  TQEC_GEOM_FIELDS(TQEC_STATS_MEMBER)
};
TQEC_STATS_VISITOR(visit_geom_fields, TQEC_GEOM_FIELDS)

/// Publish every GeomStats field as a "geom.<name>" registry gauge (a no-op
/// unless tracing is enabled).
void publish_geom_gauges(const GeomStats& geom);

/// Observability record of a time-axis sharded compile (core/shard.h).
/// Default-constructed (enabled == false) on unsharded results.
#define TQEC_SHARD_FIELDS(X)                                                 \
  X(bool, enabled, false)                                                    \
  X(int, window, 0)            /* --shard-window layer budget */             \
  X(int, threads, 1)           /* window workers used */                     \
  X(int, windows_total, 0)                                                   \
  X(int, windows_resumed, 0)   /* loaded from checkpoint, not compiled */    \
  X(int, windows_reseeded, 0)  /* recompiled with a retry seed */            \
  X(int, crossings, 0)         /* line/cut crossings over all seams */       \
  X(int, stitches, 0)          /* seam paths carved */                       \
  X(std::int64_t, seam_cells, 0)                                             \
  X(double, stitch_s, 0)                                                     \
  X(double, validate_s, 0)     /* geom::validate of the stitched result */

struct ShardStats {
  TQEC_SHARD_FIELDS(TQEC_STATS_MEMBER)
  /// Chosen cut boundaries (first ASAP layer of each window after the
  /// first).
  std::vector<int> cut_layers;
  /// Final volume of each window's geometry, in window order.
  std::vector<std::int64_t> window_volumes;
  /// Seam / window failures (empty on a fully legal sharded result).
  std::vector<std::string> issues;
};
TQEC_STATS_VISITOR(visit_shard_fields, TQEC_SHARD_FIELDS)

/// Compression statistics (paper Table 1), members of CompileResult.
#define TQEC_COUNT_FIELDS(X)                                                 \
  X(int, modules, 0)  /* #Modules: PD-graph modules */                       \
  X(int, nodes, 0)    /* #Nodes: 2.5D B*-tree nodes after bridging */        \
  X(int, ishape_merges, 0)                                                   \
  X(int, primal_bridges, 0)                                                  \
  X(int, dual_bridges, 0)                                                    \
  X(int, net_components, 0)
TQEC_STATS_VISITOR(visit_count_fields, TQEC_COUNT_FIELDS)

struct CompileResult {
  std::string name;
  icm::IcmStats stats;

  // Compression statistics (paper Table 1).
  TQEC_COUNT_FIELDS(TQEC_STATS_MEMBER)

  std::int64_t canonical_volume = 0;
  place::Placement placement;
  route::RoutingResult routing;
  /// Final space-time volume (#x * #y * #z of the routed design).
  std::int64_t volume = 0;
  bool routed_legal = false;

  /// Emitted final geometry (empty when emit_geometry is off).
  geom::GeomDescription geometry;

  /// Intermediate structures (null unless keep_internals was set).
  std::shared_ptr<PipelineInternals> internals;

  StageTimings timings;

  /// Stage-cache usage of the request that produced this result (default:
  /// caching disabled — the single-shot CLI path).
  CacheUsage cache;

  /// Time-axis sharding observability (enabled == false unless the result
  /// came from core::compile_sharded).
  ShardStats shard;

  /// Geometry-engine observability of `geometry` (zero when emit_geometry
  /// was off).
  GeomStats geom;

  /// Process peak RSS in bytes, sampled when the result was assembled
  /// (0 where the platform offers no probe — see trace::peak_rss_bytes).
  std::uint64_t peak_rss_bytes = 0;

  /// Snapshot of the trace metrics registry taken at the end of this
  /// compile (empty unless tracing was enabled — see common/trace.h).
  /// Embedded in stats_json so the report is a pure function of the
  /// result.
  trace::MetricsSnapshot metrics;
};

/// Run the compression pipeline on an ICM circuit.
///
/// `prebuilt_graph`, when non-null, must be build_pd_graph(circuit) (the
/// stage is deterministic, so the tqec::Compiler facade can supply a
/// cached copy); compile() then skips stage 2 entirely — no pdgraph.build
/// span, pd_graph_s stays 0 — and every downstream result is bit-identical
/// to the self-built path. Raises CancelledError if options.cancel fires.
CompileResult compile(const icm::IcmCircuit& circuit,
                      const CompileOptions& options = {},
                      const pdgraph::PdGraph* prebuilt_graph = nullptr);

/// Emit the final geometric description of a placed-and-routed design.
geom::GeomDescription emit_geometry(const pdgraph::PdGraph& graph,
                                    const place::NodeSet& nodes,
                                    const place::Placement& placement,
                                    const route::RoutingResult& routing,
                                    const std::string& name);

/// Append one segment per maximal collinear x-run of `cells` to the
/// defect; duplicate input cells collapse. Exposed for testing.
void emit_cell_runs(geom::Defect& defect, std::vector<Vec3> cells);

/// Write a compile result's statistics and per-stage observability report
/// as one JSON object value (format v2): scalar stats and stage timings,
/// the per-restart and per-attempt breakdowns with their SA convergence and
/// PathFinder time-series, the selected attempt's congestion census
/// (histogram, top-K hottest cells, text heatmap), and the trace metrics
/// registry snapshot. tools/tqec_report renders this into a run report.
void write_stats_json(json::Writer& w, const CompileResult& result);

/// write_stats_json as a standalone one-line document plus a newline.
std::string stats_json(const CompileResult& result);

}  // namespace tqec::core
