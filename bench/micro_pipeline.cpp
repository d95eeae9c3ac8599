// Google-benchmark end-to-end pipeline scaling: full compile time as the
// workload grows, for the full flow and the dual-only baseline. Tracks the
// paper's Table-3 runtime trend (runtime grows with module count; the
// baseline's larger SA problem dominates at scale).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "core/compiler.h"
#include "icm/workload.h"

namespace {

using namespace tqec;

icm::IcmCircuit workload_of_scale(int scale) {
  icm::WorkloadSpec spec;
  spec.name = "scale" + std::to_string(scale);
  spec.a_states = 8 * scale;
  spec.y_states = 2 * spec.a_states;
  spec.qubits = 3 * spec.a_states + 32 * scale;
  spec.cnots = 3 * spec.a_states + 48 * scale;
  spec.seed = 13;
  return icm::make_workload(spec);
}

void run_pipeline(benchmark::State& state, core::PipelineMode mode) {
  const auto circuit = workload_of_scale(static_cast<int>(state.range(0)));
  core::CompileOptions opt;
  opt.mode = mode;
  opt.emit_geometry = false;
  std::int64_t volume = 0;
  bool legal = true;
  for (auto _ : state) {
    const auto result = core::compile(circuit, opt);
    volume = result.volume;
    legal = legal && result.routed_legal;
    benchmark::DoNotOptimize(result.volume);
  }
  state.counters["volume"] = static_cast<double>(volume);
  state.counters["legal"] = legal ? 1 : 0;
  state.counters["modules"] =
      static_cast<double>(circuit.stats().qubits + circuit.stats().cnots);
}

void BM_FullPipeline(benchmark::State& state) {
  run_pipeline(state, core::PipelineMode::Full);
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_DualOnlyPipeline(benchmark::State& state) {
  run_pipeline(state, core::PipelineMode::DualOnly);
}
BENCHMARK(BM_DualOnlyPipeline)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

// Multi-seed restart engine scaling: 8 independent place+route attempts on
// 1/2/4 worker threads. The volume counter must be identical across rows
// of the same scale (deterministic reduction); wall-clock should shrink
// with jobs on multicore hosts.
void BM_MultiSeedPipeline(benchmark::State& state) {
  const auto circuit = workload_of_scale(static_cast<int>(state.range(0)));
  core::CompileOptions opt;
  opt.emit_geometry = false;
  opt.place_restarts = 8;
  opt.jobs = static_cast<int>(state.range(1));
  std::int64_t volume = 0;
  bool legal = true;
  for (auto _ : state) {
    const auto result = core::compile(circuit, opt);
    volume = result.volume;
    legal = legal && result.routed_legal;
    benchmark::DoNotOptimize(result.volume);
  }
  state.counters["volume"] = static_cast<double>(volume);
  state.counters["legal"] = legal ? 1 : 0;
  state.counters["jobs"] = static_cast<double>(opt.jobs);
}
BENCHMARK(BM_MultiSeedPipeline)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({2, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
