// tqec_compress — command-line front end for the bridge-compression flow.
//
//   tqec_compress compress <file.real|file.icm> [options]
//   tqec_compress benchmark <name> [options]     (paper workloads)
//   tqec_compress list                           (benchmark names)
//
// Options:
//   --mode=full|dual|modular   pipeline variant (default full)
//   --seed=<n>                 pipeline seed (default 7)
//   --effort=<f>               SA effort multiplier (default 1.0)
//   --jobs=<n>                 worker threads for parallel restarts
//                              (default 1; 0 = one per hardware thread;
//                              never changes results)
//   --place-restarts=<k>       independent place+route attempts with
//                              derived seeds, best legal wins (default 1)
//   --stats-json=<path>        write the per-stage observability report
//                              as JSON v2 ("-" = stdout); enables tracing
//                              so the report embeds the metrics registry
//   --trace-json=<path>        enable tracing and write a Chrome
//                              trace-event file (open in Perfetto or
//                              chrome://tracing; with --jobs=N each worker
//                              thread gets its own tid row)
//   --shard-window=K           time-axis sharding: cut the circuit into
//                              ~K-ASAP-layer windows at low-crossing time
//                              cuts, compile windows independently, stitch
//                              along pinned seams (default 0 = off; off is
//                              bit-identical to the unsharded pipeline)
//   --shard-threads=N          concurrent window compiles (default 1 =
//                              sequential, the O(largest-window) memory
//                              path; 0 = one per hardware thread; never
//                              changes results)
//   --checkpoint-dir=PATH      per-window checkpoint directory: finished
//                              windows are content-hashed and written so a
//                              killed compile resumes without redoing them
//   --no-optimize              skip the reversible peephole pass
//   --no-plan                  disable f-value dual-segment planning
//   --verify                   run the end-to-end braiding verifier
//   --json=<path>              write the final geometry as JSON
//   --obj=<path>               write the final geometry as Wavefront OBJ
//   --icm=<path>               write the ICM form (.icm format)
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/trace.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "decompose/decompose.h"
#include "geom/canonical.h"
#include "geom/export_obj.h"
#include "geom/export_svg.h"
#include "icm/builder.h"
#include "icm/serialize.h"
#include "icm/workload.h"
#include "qcir/optimizer.h"
#include "qcir/revlib.h"
#include "verify/verifier.h"

namespace {

using namespace tqec;

struct CliOptions {
  core::CompileOptions compile;
  core::ShardOptions shard;
  bool optimize = true;
  bool verify = false;
  std::optional<std::string> json_path;
  std::optional<std::string> obj_path;
  std::optional<std::string> svg_path;
  std::optional<std::string> icm_path;
  std::optional<std::string> stats_json_path;
  std::optional<std::string> trace_json_path;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: tqec_compress compress <file.real|file.icm> [options]\n"
      "       tqec_compress benchmark <name> [options]\n"
      "       tqec_compress list\n"
      "options: --mode=full|dual|modular --seed=N --effort=F\n"
      "         --jobs=N --place-restarts=K --stats-json=PATH|-\n"
      "         --trace-json=PATH --shard-window=K --shard-threads=N\n"
      "         --checkpoint-dir=PATH\n"
      "         --no-optimize --no-plan --verify\n"
      "         --json=PATH --obj=PATH --svg=PATH --icm=PATH\n");
  return 2;
}

bool parse_flag(const std::string& arg, CliOptions& opt) {
  auto value_of = [&](const char* prefix) -> std::optional<std::string> {
    const std::size_t n = std::strlen(prefix);
    if (arg.compare(0, n, prefix) == 0) return arg.substr(n);
    return std::nullopt;
  };
  if (auto v = value_of("--mode=")) {
    if (*v == "full") opt.compile.mode = core::PipelineMode::Full;
    else if (*v == "dual") opt.compile.mode = core::PipelineMode::DualOnly;
    else if (*v == "modular")
      opt.compile.mode = core::PipelineMode::ModularOnly;
    else return false;
    return true;
  }
  if (auto v = value_of("--seed=")) {
    opt.compile.seed = parse_u64(*v, "--seed");
    return true;
  }
  if (auto v = value_of("--effort=")) {
    opt.compile.effort = parse_double(*v, "--effort");
    return true;
  }
  if (auto v = value_of("--jobs=")) {
    opt.compile.jobs = parse_int(*v, "--jobs");
    return true;
  }
  if (auto v = value_of("--place-restarts=")) {
    opt.compile.place_restarts = parse_int(*v, "--place-restarts");
    return true;
  }
  if (auto v = value_of("--stats-json=")) return opt.stats_json_path = *v, true;
  if (auto v = value_of("--trace-json=")) return opt.trace_json_path = *v, true;
  if (auto v = value_of("--shard-window=")) {
    opt.shard.window = parse_int(*v, "--shard-window");
    return true;
  }
  if (auto v = value_of("--shard-threads=")) {
    opt.shard.threads = parse_int(*v, "--shard-threads");
    return true;
  }
  if (auto v = value_of("--checkpoint-dir=")) {
    opt.shard.checkpoint_dir = *v;
    return true;
  }
  if (arg == "--no-optimize") return opt.optimize = false, true;
  if (arg == "--no-plan") return opt.compile.plan_flips = false, true;
  if (arg == "--verify") return opt.verify = true, true;
  if (auto v = value_of("--json=")) return opt.json_path = *v, true;
  if (auto v = value_of("--obj=")) return opt.obj_path = *v, true;
  if (auto v = value_of("--svg=")) return opt.svg_path = *v, true;
  if (auto v = value_of("--icm=")) return opt.icm_path = *v, true;
  return false;
}

icm::IcmCircuit load_input(const std::string& path, const CliOptions& opt) {
  if (path.size() > 4 && path.compare(path.size() - 4, 4, ".icm") == 0)
    return icm::read_icm_file(path);
  qcir::Circuit reversible = qcir::parse_real_file(path);
  if (opt.optimize) {
    qcir::OptimizeStats stats;
    reversible = qcir::optimize(reversible, &stats);
    if (stats.cancelled_pairs + stats.fused_pairs > 0)
      std::printf("peephole: %lld -> %lld gates (%d cancelled, %d fused)\n",
                  static_cast<long long>(stats.gates_before),
                  static_cast<long long>(stats.gates_after),
                  stats.cancelled_pairs, stats.fused_pairs);
  }
  return icm::from_clifford_t(decompose::decompose(reversible));
}

int run_pipeline(const icm::IcmCircuit& circuit, CliOptions opt) {
  const icm::IcmStats stats = circuit.stats();
  std::printf("ICM: %d lines, %d CNOTs, %d |Y>, %d |A>; canonical volume "
              "%lld\n",
              stats.qubits, stats.cnots, stats.y_states, stats.a_states,
              static_cast<long long>(geom::canonical_volume(stats)));
  if (opt.icm_path) {
    icm::write_icm_file(circuit, *opt.icm_path);
    std::printf("wrote %s\n", opt.icm_path->c_str());
  }

  const bool sharded = opt.shard.window > 0;
  if (sharded && opt.verify) {
    // The end-to-end braiding verifier needs the single-pipeline internals;
    // the sharded path verifies per window (tests/shard_test) and validates
    // the stitched geometry structurally inside compile_sharded.
    std::fprintf(stderr,
                 "--verify is incompatible with --shard-window (seams are "
                 "validated at stitch time; drop one of the flags)\n");
    return 2;
  }
  opt.compile.keep_internals = opt.verify;
  // Observability requested: turn collection on so the stats report embeds
  // the metrics registry and the trace file has spans to export. Tracing
  // never changes results (pinned by core_test).
  if (opt.trace_json_path || opt.stats_json_path)
    trace::set_enabled(true);
  const core::CompileResult result =
      sharded ? core::compile_sharded(circuit, opt.compile, opt.shard)
              : core::compile(circuit, opt.compile);
  const Vec3 dims = result.routing.bounding.dims();
  // place_s and route_s sum the kept attempt's whitespace levels, which
  // may have run at the same time; the wall figure is the whole stage.
  std::printf("modules %d -> nodes %d; volume %lld (%dx%dx%d), %s; "
              "%.2fs total (place+route %.2fs wall; summed over levels: "
              "place %.2fs, route %.2fs)\n",
              result.modules, result.nodes,
              static_cast<long long>(result.volume), dims.x, dims.y, dims.z,
              result.routed_legal ? "legally routed" : "NOT LEGAL",
              result.timings.total_s, result.timings.place_route_wall_s,
              result.timings.place_s, result.timings.route_s);
  std::printf("compression vs canonical: %.2fx\n",
              static_cast<double>(result.canonical_volume) /
                  static_cast<double>(result.volume));
  if (result.shard.enabled) {
    std::printf("shard: %d windows (%d resumed, %d reseeded), "
                "%d crossings, %d stitches, "
                "%lld seam cells, stitch %.2fs, validate %.3fs\n",
                result.shard.windows_total, result.shard.windows_resumed,
                result.shard.windows_reseeded,
                result.shard.crossings, result.shard.stitches,
                static_cast<long long>(result.shard.seam_cells),
                result.shard.stitch_s, result.shard.validate_s);
    for (const std::string& issue : result.shard.issues)
      std::printf("shard issue: %s\n", issue.c_str());
  }
  if (result.peak_rss_bytes > 0)
    std::printf("peak RSS: %.1f MiB\n",
                static_cast<double>(result.peak_rss_bytes) / (1024.0 * 1024.0));

  if (opt.verify) {
    const verify::VerifyReport report = verify::verify_result(result);
    std::printf("verification: %s\n", report.summary().c_str());
    if (!report.ok()) return 1;
  }
  if (opt.stats_json_path) {
    const std::string stats = core::stats_json(result);
    if (*opt.stats_json_path == "-") {
      std::fwrite(stats.data(), 1, stats.size(), stdout);
    } else {
      std::FILE* f = std::fopen(opt.stats_json_path->c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n",
                     opt.stats_json_path->c_str());
        return 1;
      }
      std::fwrite(stats.data(), 1, stats.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", opt.stats_json_path->c_str());
    }
  }
  if (opt.trace_json_path) {
    if (!trace::write_chrome_trace_file(*opt.trace_json_path)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_json_path->c_str());
      return 1;
    }
    std::printf("wrote %s (%zu span events)\n", opt.trace_json_path->c_str(),
                trace::event_count());
  }
  if (opt.json_path) {
    std::FILE* f = std::fopen(opt.json_path->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path->c_str());
      return 1;
    }
    const std::string json = geom::to_json(result.geometry);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", opt.json_path->c_str());
  }
  if (opt.obj_path) {
    geom::write_obj_file(result.geometry, *opt.obj_path);
    std::printf("wrote %s\n", opt.obj_path->c_str());
  }
  if (opt.svg_path) {
    geom::write_svg_file(result.geometry, *opt.svg_path);
    std::printf("wrote %s\n", opt.svg_path->c_str());
  }
  return result.routed_legal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  CliOptions opt;
  std::vector<std::string> positional;
  // Flag values go through the checked parse_* helpers, which throw a
  // TqecError naming the flag and the offending text ("--jobs: expected an
  // integer, got 'banana'") — caught here instead of aborting via an
  // uncaught std::invalid_argument from the stoi family.
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        if (!parse_flag(arg, opt)) {
          std::fprintf(stderr, "unknown option %s\n", arg.c_str());
          return usage();
        }
      } else {
        positional.push_back(arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    if (command == "list") {
      for (const core::PaperBenchmark& b : core::paper_benchmarks())
        std::printf("%-16s %6d qubits %6d CNOTs\n", b.name.c_str(), b.qubits,
                    b.cnots);
      std::printf("long_<D>x<L>[_tN][_cN][_wN][_sN]  layered long-circuit "
                  "family (depth ~ L)\n");
      return 0;
    }
    if (command == "compress") {
      if (positional.size() != 1) return usage();
      return run_pipeline(load_input(positional[0], opt), opt);
    }
    if (command == "benchmark") {
      if (positional.size() != 1) return usage();
      // Long-circuit layered family ("long_<data>x<layers>..."), then the
      // paper Table-1 benchmarks.
      icm::LayeredWorkloadSpec layered;
      layered.seed = opt.compile.seed;
      if (icm::parse_layered_name(positional[0], layered))
        return run_pipeline(icm::make_layered_workload(layered), opt);
      const core::PaperBenchmark& bench = core::paper_benchmark(positional[0]);
      return run_pipeline(
          icm::make_workload(core::workload_spec(bench, opt.compile.seed)),
          opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
