// Google-benchmark coverage for the data-oriented geometry engine
// (geom/cell_grid.h): occupancy-grid build cost and query throughput,
// plus the measured validate+stitch path of a long layered workload.
// Counters carry the memory story (grid_bytes, peak_rss_mib) next to the
// timing so CI artifacts show both axes of the trade.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/cell_grid.h"
#include "geom/stitch.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace {

using namespace tqec;

// ---------------------------------------------------------------------------
// Fixture: the same depth-long layered circuit micro_shard uses, cut into
// windows and compiled once. The benchmarks below re-run only the
// geometry-engine stages (validate, stitch, grid build) on the compiled
// windows.

struct WindowFixture {
  std::string name;
  std::vector<geom::GeomDescription> geoms;  // normalized to the origin
  std::vector<geom::StitchWindow> windows;   // pointers into geoms
  geom::GeomDescription stitched;            // grid-engine stitch output
};

const WindowFixture& window_fixture() {
  static const WindowFixture fixture = [] {
    icm::LayeredWorkloadSpec spec;
    TQEC_REQUIRE(icm::parse_layered_name("long_16x64_t1_c3", spec),
                 "micro_geom: bad workload name");
    const icm::IcmCircuit circuit = icm::make_layered_workload(spec);
    const core::ShardPlan plan = core::plan_windows(circuit, 8);
    const std::size_t n = plan.windows.size();
    TQEC_REQUIRE(n >= 2, "micro_geom: expected a multi-window plan");

    WindowFixture f;
    f.name = circuit.name();
    f.geoms.resize(n);
    f.windows.resize(n);
    for (std::size_t w = 0; w < n; ++w) {
      core::CompileOptions wopt;
      wopt.keep_internals = true;
      const core::CompileResult r = core::compile(
          core::extract_window(circuit, plan, static_cast<int>(w)), wopt);
      TQEC_REQUIRE(r.routed_legal, "micro_geom: window compile not legal");
      const Box3 bb = r.geometry.bounding_box();
      const Vec3 lo = bb.empty() ? Vec3{0, 0, 0} : bb.lo;
      f.geoms[w] = r.geometry;
      f.geoms[w].translate({-lo.x, -lo.y, -lo.z});
      const auto& rows = r.internals->graph.rows();
      const auto& module_cell = r.placement.module_cell;
      const core::WindowPlan& wp = plan.windows[w];
      for (std::size_t i = 0; i < wp.lines.size(); ++i) {
        if (wp.carry_in[i])
          f.windows[w].carry_in.emplace_back(
              wp.lines[i],
              module_cell[static_cast<std::size_t>(rows[i].front())] - lo);
        if (wp.carry_out[i])
          f.windows[w].carry_out.emplace_back(
              wp.lines[i],
              module_cell[static_cast<std::size_t>(rows[i].back())] - lo);
      }
    }
    for (std::size_t w = 0; w < n; ++w) f.windows[w].geometry = &f.geoms[w];
    geom::StitchResult stitched = geom::stitch_windows(f.windows, f.name);
    TQEC_REQUIRE(stitched.ok(), "micro_geom: fixture stitch failed");
    f.stitched = std::move(stitched.geometry);
    return f;
  }();
  return fixture;
}

// ---------------------------------------------------------------------------
// Grid build: rasterize the stitched long geometry into an occupancy
// grid — the cost published as geom.grid_build_s on every compile.

void BM_GridBuild(benchmark::State& state) {
  const geom::GeomDescription& g = window_fixture().stitched;
  geom::GridBuildStats stats;
  std::int64_t cells = 0;
  for (auto _ : state) {
    const geom::OccupancyGrid grid = geom::build_occupancy(g, &stats);
    cells = grid.popcount(geom::kPrimalPlane) +
            grid.popcount(geom::kDualPlane);
    benchmark::DoNotOptimize(cells);
  }
  state.counters["grid_bytes"] = static_cast<double>(stats.bytes);
  state.counters["dense"] = stats.dense ? 1 : 0;
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["segments"] = static_cast<double>(g.segment_count());
}
BENCHMARK(BM_GridBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

// Query throughput: random point probes against the built grid, the
// inner-loop primitive of validate's V3/V5 passes and the stitch A*.

void BM_GridQuery(benchmark::State& state) {
  const geom::GeomDescription& g = window_fixture().stitched;
  const geom::OccupancyGrid grid = geom::build_occupancy(g);
  const Box3 bb = grid.bounds();
  constexpr int kProbes = 4096;
  std::vector<Vec3> probes(kProbes);
  Rng rng(1234);
  for (Vec3& p : probes)
    p = {rng.range(bb.lo.x, bb.hi.x), rng.range(bb.lo.y, bb.hi.y),
         rng.range(bb.lo.z, bb.hi.z)};
  std::int64_t hits = 0;
  for (auto _ : state) {
    for (int i = 0; i < kProbes; ++i)
      hits += grid.test(i & 1, probes[static_cast<std::size_t>(i)]) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kProbes);
  state.counters["grid_bytes"] = static_cast<double>(grid.byte_size());
}
BENCHMARK(BM_GridQuery)->UseRealTime();

// ---------------------------------------------------------------------------
// The measured path: validate every window geometry, stitch the seams,
// then take the canonical exact cell count of the stitched result.

void BM_GeomPath(benchmark::State& state) {
  const WindowFixture& f = window_fixture();
  bool ok = true;
  std::int64_t seam_cells = 0, grid_bytes = 0, cells = 0;
  for (auto _ : state) {
    for (const geom::GeomDescription& g : f.geoms)
      ok = ok && geom::validate(g).ok();
    geom::StitchResult r = geom::stitch_windows(f.windows, f.name);
    ok = ok && r.ok();
    seam_cells = r.seam_cells;
    grid_bytes = r.grid_bytes;
    cells = r.geometry.exact_cell_count();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["seam_cells"] = static_cast<double>(seam_cells);
  state.counters["grid_bytes"] = static_cast<double>(grid_bytes);
  state.counters["peak_rss_mib"] =
      static_cast<double>(trace::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_GeomPath)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Perf-trajectory rows for BENCH_geom.json: wall time (and the process
// peak-RSS gauge) of validate + canonical exact count on the tracked
// workloads — a paper benchmark, the deep layered circuit, and the same
// circuit stitched from shard windows, whose seams chain most primal
// structures into one defect of thousands of segments.
// workload = state.range(0): 0 = ham15_107, 1 = long_16x128_t1_c3,
// 2 = long_16x128_t1_c3 stitched at --shard-window=8.

const geom::GeomDescription& workload_geometry(int which) {
  static const geom::GeomDescription geoms[3] = {
      [] {
        const icm::IcmCircuit circuit =
            icm::make_workload(core::workload_spec(
                core::paper_benchmark("ham15_107")));
        core::CompileResult r = core::compile(circuit, {});
        TQEC_REQUIRE(r.routed_legal, "micro_geom: ham15 compile not legal");
        return std::move(r.geometry);
      }(),
      [] {
        icm::LayeredWorkloadSpec spec;
        TQEC_REQUIRE(icm::parse_layered_name("long_16x128_t1_c3", spec),
                     "micro_geom: bad workload name");
        core::CompileResult r =
            core::compile(icm::make_layered_workload(spec), {});
        TQEC_REQUIRE(r.routed_legal, "micro_geom: long compile not legal");
        return std::move(r.geometry);
      }(),
      [] {
        icm::LayeredWorkloadSpec spec;
        TQEC_REQUIRE(icm::parse_layered_name("long_16x128_t1_c3", spec),
                     "micro_geom: bad workload name");
        core::CompileOptions opt;
        opt.seed = 7;
        core::ShardOptions shard;
        shard.window = 8;
        core::CompileResult r = core::compile_sharded(
            icm::make_layered_workload(spec), opt, shard);
        TQEC_REQUIRE(r.routed_legal, "micro_geom: sharded compile not legal");
        return std::move(r.geometry);
      }(),
  };
  return geoms[which];
}

void BM_ValidateCount(benchmark::State& state) {
  const geom::GeomDescription& g =
      workload_geometry(static_cast<int>(state.range(0)));
  bool ok = true;
  std::int64_t cells = 0;
  for (auto _ : state) {
    ok = ok && geom::validate(g).ok();
    cells = g.exact_cell_count();
    benchmark::DoNotOptimize(cells);
  }
  state.counters["ok"] = ok ? 1 : 0;
  state.counters["cells"] = static_cast<double>(cells);
  state.counters["segments"] = static_cast<double>(g.segment_count());
  std::size_t max_defect_segments = 0;
  for (const geom::DefectView d : g.defects())
    max_defect_segments = std::max(max_defect_segments, d.segments.size());
  state.counters["max_defect_segments"] =
      static_cast<double>(max_defect_segments);
  state.counters["peak_rss_mib"] =
      static_cast<double>(trace::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ValidateCount)
    ->ArgNames({"workload"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
