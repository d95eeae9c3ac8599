// Shared helpers for the table/figure regeneration harnesses.
//
// Environment knobs:
//   REPRO_BENCH_SET = quick | full   (default full: all eight benchmarks;
//                                     quick: the four smallest)
//   REPRO_EFFORT    = <float>        (SA effort multiplier, default 1)
//   REPRO_SEED      = <int>          (pipeline seed, default 7)
//   REPRO_JOBS      = <int>          (worker threads for parallel restarts;
//                                     default 1, 0 = hardware concurrency)
//   REPRO_PLACE_RESTARTS = <int>     (independent place+route attempts,
//                                     best legal wins; default 1)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/paper_tables.h"
#include "icm/workload.h"

namespace tqec::bench {

inline double effort_from_env() {
  const char* env = std::getenv("REPRO_EFFORT");
  return env != nullptr ? std::atof(env) : 1.0;
}

inline std::uint64_t seed_from_env() {
  const char* env = std::getenv("REPRO_SEED");
  return env != nullptr ? static_cast<std::uint64_t>(std::atoll(env)) : 7ull;
}

inline int jobs_from_env() {
  const char* env = std::getenv("REPRO_JOBS");
  return env != nullptr ? std::atoi(env) : 1;
}

inline int place_restarts_from_env() {
  const char* env = std::getenv("REPRO_PLACE_RESTARTS");
  return env != nullptr ? std::atoi(env) : 1;
}

/// Benchmarks to run. Paper tables default to all eight; the extension
/// benches (fig15, ablations) default to the four smallest since they run
/// the full pipeline several times per row. REPRO_BENCH_SET overrides both.
inline std::vector<core::PaperBenchmark> benchmark_set(
    bool default_quick = false) {
  const char* env = std::getenv("REPRO_BENCH_SET");
  bool quick = default_quick;
  if (env != nullptr) quick = std::string(env) == "quick";
  auto all = core::paper_benchmarks();
  if (quick) all.resize(4);
  return all;
}

inline icm::IcmCircuit workload_for(const core::PaperBenchmark& bench) {
  return icm::make_workload(core::workload_spec(bench, seed_from_env()));
}

inline core::CompileResult run_mode(const icm::IcmCircuit& circuit,
                                    core::PipelineMode mode) {
  core::CompileOptions opt;
  opt.mode = mode;
  opt.seed = seed_from_env();
  opt.effort = effort_from_env();
  opt.jobs = jobs_from_env();
  opt.place_restarts = place_restarts_from_env();
  opt.emit_geometry = false;
  return core::compile(circuit, opt);
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// "x.xx" ratio string.
inline std::string ratio(double num, double den) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", den != 0 ? num / den : 0.0);
  return buf;
}

}  // namespace tqec::bench
