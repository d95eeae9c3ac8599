// Google-benchmark A/B for time-axis sharded compilation (core/shard.h):
// the same layered long circuit compiled unsharded (window:0) and sharded
// (window:8, sequential), plus a threaded row. Counters expose the shard
// observability record (windows, crossings, seam cells) and the compile's
// peak-RSS gauge so CI artifacts carry the memory story next to the
// timing. golden_test pins the sharded compile's exact work (volume,
// windows, crossings, seam cells, queue pops).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/error.h"
#include "common/trace.h"
#include "core/compiler.h"
#include "core/shard.h"
#include "icm/workload.h"

namespace {

using namespace tqec;

const icm::IcmCircuit& bench_circuit() {
  // Depth-93 layered circuit (>= 4x the deepest paper benchmark) — long
  // enough that window:8 yields a real multi-window plan, small enough
  // for a sub-second iteration.
  static const icm::IcmCircuit circuit = [] {
    icm::LayeredWorkloadSpec spec;
    TQEC_REQUIRE(icm::parse_layered_name("long_16x64_t1_c3", spec),
                 "micro_shard: bad workload name");
    return icm::make_layered_workload(spec);
  }();
  return circuit;
}

// window = state.range(0) (0 = unsharded delegate), threads = range(1).
void BM_ShardCompile(benchmark::State& state) {
  const icm::IcmCircuit& circuit = bench_circuit();
  core::CompileOptions opt;
  opt.emit_geometry = true;  // stitching needs per-window geometry
  core::ShardOptions shard;
  shard.window = static_cast<int>(state.range(0));
  shard.threads = static_cast<int>(state.range(1));
  std::int64_t volume = 0;
  bool legal = true;
  core::ShardStats last;
  for (auto _ : state) {
    const auto result = core::compile_sharded(circuit, opt, shard);
    volume = result.volume;
    legal = legal && result.routed_legal;
    last = result.shard;
    benchmark::DoNotOptimize(result.volume);
  }
  state.counters["volume"] = static_cast<double>(volume);
  state.counters["legal"] = legal ? 1 : 0;
  state.counters["windows"] = static_cast<double>(last.windows_total);
  state.counters["crossings"] = static_cast<double>(last.crossings);
  state.counters["seam_cells"] = static_cast<double>(last.seam_cells);
  state.counters["peak_rss_mib"] =
      static_cast<double>(trace::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ShardCompile)
    ->ArgNames({"window", "threads"})
    ->Args({0, 1})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
