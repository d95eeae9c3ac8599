// End-to-end compile benchmark.
//
//   perfbench --workload <name> [--seed N] [--workload-seed W]
//             [--seconds S] [--trace 0|1]
//
// Untraced (--trace 0): generates the workload's circuits from the
// workload seed, compiles them through core::compile /
// core::compile_sharded in repeated passes until --seconds have passed,
// validates every result, and reports the end-to-end metrics (compile_s,
// volume_ratio, peak_rss_mib, ok_frac, setup_s).
//
// The workload seed (default 7, the ROADMAP's instances) fixes the
// circuits; --seed is the run seed and is only recorded. README.md explains
// why the instances do not follow the run seed.
//
// Traced (--trace 1): compiles every circuit once through the public entry
// point, then replays the pipeline stage by stage through each module's
// public functions with a span around every call, and reports per-layer
// metrics. The replay must reproduce the compile exactly (volume and final
// queue pops); a mismatch exits non-zero instead of reporting numbers that
// describe some other program.
//
// The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Earlier stdout lines are JSON records (meta, per-circuit rows, spans and
// the per-level escalation record). README.md documents every workload and
// metric.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/cell_grid.h"
#include "geom/validate.h"
#include "icm/workload.h"
#include "verify/verifier.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tqec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Why each workload exists is recorded in README.md.
struct Workload {
  std::string name;
  std::vector<std::string> circuits;
  int jobs = 1;
  int shard_window = 0;  // 0: unsharded core::compile
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_mid_j2", {"rd84_142", "hwb5_53"}, 2, 0},
      {"long_sharded", {"long_16x128_t1_c3"}, 1, 8},
      // Run by hand only: not in BENCHMARK.json, see README.md.
      {"ham15_j1", {"ham15_107"}, 1, 0},
  };
  return all;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 7;           // run seed, recorded only
  std::uint64_t workload_seed = 7;  // circuits and compile seed
  double seconds = 50;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      TQEC_REQUIRE(i + 1 < argc, flag + ": missing value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value, "--seed");
    } else if (flag == "--workload-seed") {
      a.workload_seed = parse_u64(value, "--workload-seed");
    } else if (flag == "--seconds") {
      a.seconds = parse_double(value, "--seconds");
      TQEC_REQUIRE(a.seconds > 0, "--seconds: must be positive");
    } else if (flag == "--trace") {
      const int t = parse_int(value, "--trace");
      TQEC_REQUIRE(t == 0 || t == 1, "--trace: expected 0 or 1");
      a.trace = t == 1;
    } else {
      throw TqecError("unknown option " + flag);
    }
  }
  TQEC_REQUIRE(!a.workload.empty(), "--workload is required");
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  std::string known;
  for (const Workload& w : workloads()) known += " " + w.name;
  throw TqecError("unknown workload '" + name + "' (known:" + known + ")");
}

icm::IcmCircuit make_circuit(const std::string& name, std::uint64_t seed) {
  icm::LayeredWorkloadSpec layered;
  layered.seed = seed;
  if (icm::parse_layered_name(name, layered))
    return icm::make_layered_workload(layered);
  return icm::make_workload(
      core::workload_spec(core::paper_benchmark(name), seed));
}

// The CLI's defaults (Full mode, emit_geometry on) with the workload's
// seed and thread budget.
core::CompileOptions compile_options(const Workload& w, std::uint64_t seed) {
  core::CompileOptions o;
  o.seed = seed;
  o.jobs = w.jobs;
  return o;
}

core::ShardOptions shard_options(const Workload& w) {
  core::ShardOptions s;
  s.window = w.shard_window;
  s.threads = 1;
  return s;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + quoted(metrics[i].unit) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Build type, CPU count, seed and circuit list travel with every result:
// timings differ by about 25% between RelWithDebInfo and Release builds.
void print_meta(const Args& a, const Workload& w, double setup_s) {
  std::string circuits;
  for (std::size_t i = 0; i < w.circuits.size(); ++i)
    circuits += (i > 0 ? ", " : "") + quoted(w.circuits[i]);
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"workload_seed\": %llu, "
      "\"trace\": %d, \"build_type\": %s, \"nproc\": %d, \"jobs\": %d, "
      "\"shard_window\": %d, \"circuits\": [%s], \"setup_s\": %s}}\n",
      quoted(w.name).c_str(), static_cast<unsigned long long>(a.seed),
      static_cast<unsigned long long>(a.workload_seed), a.trace ? 1 : 0,
      quoted(PERFBENCH_BUILD_TYPE).c_str(), online_cpus(), w.jobs,
      w.shard_window, circuits.c_str(), num(setup_s).c_str());
}

std::vector<icm::IcmCircuit> generate(const Workload& w, std::uint64_t seed) {
  std::vector<icm::IcmCircuit> built;
  built.reserve(w.circuits.size());
  for (const std::string& name : w.circuits)
    built.push_back(make_circuit(name, seed));
  return built;
}

// On the shared machine this benchmark was tuned on, compile speed has a
// steady slow level and faster spells, up to 1.9x, that last from seconds
// to more than ten minutes. How much of a run falls in fast spells is
// luck, so raw timings vary by 20-40% between runs. setup_s reports the
// kSetupQuantile of its repeats, the slow end, which is the steady level
// whenever the run touches it (the slowest of thousands of
// microsecond-long repeats would be an interrupt). compile_s is rescaled
// by a probe instead; see run_untraced.
constexpr double kSetupQuantile = 0.9;

// The value at fraction `f` (0..1) of the sorted samples, interpolating
// linearly between neighbours.
double quantile(std::vector<double> v, double f) {
  std::sort(v.begin(), v.end());
  const double pos = f * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Workload generation takes 15 us to a few hundred, so it repeats for
// kSetupSeconds.
constexpr double kSetupSeconds = 1.0;

std::vector<icm::IcmCircuit> set_up(const Workload& w, std::uint64_t seed,
                                    double* setup_s) {
  std::vector<icm::IcmCircuit> circuits;
  std::vector<double> generate_s;
  const auto t_start = Clock::now();
  while (generate_s.empty() || seconds_since(t_start) < kSetupSeconds) {
    const auto t0 = Clock::now();
    std::vector<icm::IcmCircuit> built = generate(w, seed);
    generate_s.push_back(seconds_since(t0));
    circuits = std::move(built);
  }
  *setup_s = quantile(generate_s, kSetupQuantile);
  return circuits;
}

core::CompileResult run_compile(const Workload& w, const icm::IcmCircuit& c,
                                const core::CompileOptions& o) {
  return w.shard_window > 0 ? core::compile_sharded(c, o, shard_options(w))
                            : core::compile(c, o);
}

// Why a compile result does not count as a success; empty when it does.
std::string failure_of(const core::CompileResult& r,
                       const geom::ValidationReport& v) {
  if (!r.routed_legal) return "not legally routed";
  if (!v.ok()) return "geometry fails validate: " + v.summary();
  if (r.volume <= 0 || r.canonical_volume <= 0) return "empty design";
  return {};
}

// Queue pops of the kept routing: the selected level of an unsharded
// compile, summed over the windows of a sharded one.
std::int64_t final_queue_pops(const core::CompileResult& r) {
  if (!r.shard.enabled) return r.routing.queue_pops;
  std::int64_t pops = 0;
  for (const core::PlaceAttemptStats& a : r.timings.attempts)
    pops += a.route_queue_pops;
  return pops;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

struct TimedCompile {
  double compile_s = 0;
  std::int64_t volume = 0;
  std::int64_t canonical = 0;
  std::int64_t queue_pops = 0;
  std::string error;
};

// `validate`: also run geom::validate on the result (outside compile_s).
TimedCompile timed_compile(const Workload& w, const icm::IcmCircuit& c,
                           const core::CompileOptions& o, bool validate) {
  TimedCompile out;
  const auto t0 = Clock::now();
  try {
    const core::CompileResult r = run_compile(w, c, o);
    out.compile_s = seconds_since(t0);
    out.volume = r.volume;
    out.canonical = r.canonical_volume;
    out.queue_pops = final_queue_pops(r);
    out.error = failure_of(
        r, validate ? geom::validate(r.geometry) : geom::ValidationReport{});
  } catch (const std::exception& e) {
    out.compile_s = seconds_since(t0);
    out.error = std::string("threw: ") + e.what();
  }
  return out;
}

// The speed probe: a fixed hash-map workload (80k inserts, 131k lookups,
// about 12 ms) that lives in this file, so compiler changes never touch
// it. The machine's speed states move it by about as much as they move a
// compile: over ten 50 s runs per workload, rescaled compile times spread
// 4-7% (quartiles over median) where raw ones spread 18%. Pointer-chasing,
// sorting and arithmetic probes moved by only 10-15% and were rejected.
double probe_once() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> v(1 << 17);
    std::uint64_t s = 99;
    for (std::uint32_t& x : v) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      x = static_cast<std::uint32_t>(s >> 32);
    }
    return v;
  }();
  const auto t0 = Clock::now();
  std::unordered_map<std::uint32_t, std::uint32_t> m;
  for (std::size_t k = 0; k < 80000; ++k) m[keys[k]] += 1;
  std::uint64_t acc = 0;
  for (const std::uint32_t key : keys) {
    const auto it = m.find(key);
    if (it != m.end()) acc += it->second;
  }
  asm volatile("" : : "r"(acc) : "memory");  // keep the lookups
  return seconds_since(t0);
}

// A typical probe time on the machine this benchmark was tuned on;
// compile_s is in seconds at that speed.
constexpr double kProbeRefS = 0.012;

// compile_s is the mean pass time rescaled to the probe's reference speed:
// mean pass time * kProbeRefS / mean probe time, with one probe after each
// compile. Raw pass and probe times are printed in the `passes` record.
int run_untraced(const Args& a, const Workload& w,
                 const std::vector<icm::IcmCircuit>& circuits,
                 double setup_s) {
  const core::CompileOptions opt = compile_options(w, a.workload_seed);
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<double> pass_s;
  std::vector<double> probe_s;
  std::vector<std::int64_t> volumes(circuits.size(), 0);
  double log_ratio_sum = 0;
  double compiled_s = 0;
  // Whole passes until the compiles have taken --seconds. The first pass
  // validates every geometry; later passes must reproduce its volumes.
  while (pass_s.empty() || compiled_s < a.seconds) {
    const bool first = pass_s.empty();
    double sum = 0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const TimedCompile t = timed_compile(w, circuits[i], opt, first);
      ++attempted;
      sum += t.compile_s;
      probe_s.push_back(probe_once());
      if (!t.error.empty()) {
        ++failed;
        correct = false;
        std::fprintf(stderr, "perfbench: %s: %s\n", w.circuits[i].c_str(),
                     t.error.c_str());
      }
      if (first) {
        volumes[i] = t.volume;
        if (t.volume > 0 && t.canonical > 0)
          log_ratio_sum += std::log(static_cast<double>(t.volume) /
                                    static_cast<double>(t.canonical));
        std::printf(
            "{\"circuit\": {\"name\": %s, \"compile_s\": %s, \"volume\": "
            "%lld, \"canonical_volume\": %lld, \"queue_pops\": %lld, "
            "\"ok\": %s}}\n",
            quoted(w.circuits[i]).c_str(), num(t.compile_s).c_str(),
            static_cast<long long>(t.volume),
            static_cast<long long>(t.canonical),
            static_cast<long long>(t.queue_pops),
            t.error.empty() ? "true" : "false");
      } else if (t.volume != volumes[i]) {
        correct = false;
        std::fprintf(stderr,
                     "perfbench: %s: volume %lld differs from the first "
                     "pass (%lld); the compiler is not deterministic\n",
                     w.circuits[i].c_str(), static_cast<long long>(t.volume),
                     static_cast<long long>(volumes[i]));
      }
    }
    pass_s.push_back(sum);
    compiled_s += sum;
  }
  const double fail_frac = ratio(failed, attempted);
  const auto join = [](const std::vector<double>& v) {
    std::string s;
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i > 0 ? ", " : "") + num(v[i]);
    return s;
  };
  std::printf(
      "{\"passes\": {\"compile_s\": [%s], \"probe_s\": [%s], \"fail_frac\": "
      "%s}}\n",
      join(pass_s).c_str(), join(probe_s).c_str(), num(fail_frac).c_str());
  double probed_s = 0;
  for (const double s : probe_s) probed_s += s;
  const double compile_s =
      compiled_s / static_cast<double>(pass_s.size()) * kProbeRefS /
      (probed_s / static_cast<double>(probe_s.size()));
  const double volume_ratio =
      std::exp(log_ratio_sum / static_cast<double>(circuits.size()));
  const double peak_rss_mib =
      static_cast<double>(trace::peak_rss_bytes()) / (1024.0 * 1024.0);
  // ok_frac is 1 - fail_frac: a bound is a share of the parent's value,
  // which must not be 0.
  print_result(correct, attempted, failed,
               {{"compile_s", compile_s, "s"},
                {"volume_ratio", volume_ratio, "ratio"},
                {"peak_rss_mib", peak_rss_mib, "MiB"},
                {"ok_frac", 1.0 - fail_frac, "fraction"},
                {"setup_s", setup_s, "s"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

// In-memory span log: name, circuit, parent and start/end relative to the
// log's creation. Spans are printed when the run ends.
class SpanLog {
 public:
  int open(const char* name) {
    spans_.push_back({name, circuit_, stack_.empty() ? -1 : stack_.back(),
                      seconds_since(epoch_), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Closes the innermost open span (which must be `id`); returns its
  /// duration in seconds.
  double close(int id) {
    TQEC_REQUIRE(!stack_.empty() && stack_.back() == id,
                 "span closed out of order");
    stack_.pop_back();
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(epoch_);
    return s.end_s - s.start_s;
  }
  /// Runs `f` inside a span named `name`; adds the span's duration to
  /// `*total` when given.
  template <typename F>
  auto timed(const char* name, double* total, F&& f) {
    const int id = open(name);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      const double d = close(id);
      if (total != nullptr) *total += d;
    } else {
      auto r = f();
      const double d = close(id);
      if (total != nullptr) *total += d;
      return r;
    }
  }
  void set_circuit(std::string circuit) { circuit_ = std::move(circuit); }
  void print() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::printf(
          "{\"span\": {\"id\": %zu, \"parent\": %d, \"name\": %s, "
          "\"circuit\": %s, \"start_s\": %s, \"end_s\": %s}}\n",
          i, s.parent, quoted(s.name).c_str(), quoted(s.circuit).c_str(),
          num(s.start_s).c_str(), num(s.end_s).c_str());
    }
  }

 private:
  struct Span {
    std::string name;
    std::string circuit;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::string circuit_;
};

// Per-layer totals over a workload's circuits.
struct Layers {
  // route: every route_nets call, discarded escalation levels included.
  double route_s = 0;
  std::int64_t route_pops = 0;
  std::int64_t route_reroutes = 0;
  std::int64_t route_iterations = 0;
  std::int64_t route_batches = 0;
  double route_batched_nets = 0;  // sum of batches * mean nets per batch
  // place: every place_modules call.
  double place_s = 0;
  double build_nodes_s = 0;
  std::int64_t place_moves = 0;
  std::int64_t place_repacked = 0;
  // core: stage orchestration and the y-gap escalation.
  std::int64_t levels_run = 0;
  std::int64_t escalations = 0;
  double discarded_s = 0;  // place+route of levels whose result was dropped
  double kept_s = 0;       // place+route of the levels that were kept
  double unattributed_s = 0;
  // geom
  double emit_s = 0;
  double grid_build_s = 0;
  double validate_s = 0;
  double stitch_s = 0;
  std::int64_t grid_bytes = 0;  // largest single grid
  std::int64_t exact_cells = 0;
  // shard
  double plan_s = 0;
  std::int64_t windows = 0;
  double window_compile_s = 0;
  std::int64_t reseeded = 0;
  std::int64_t seam_cells = 0;
  // pdgraph, compress
  double pdgraph_s = 0;
  std::int64_t modules = 0;
  double ishape_s = 0;
  double primal_s = 0;
  double dual_s = 0;
  std::int64_t nodes = 0;
  // verify
  double verify_s = 0;

  void add_route(const route::RoutingResult& r) {
    route_pops += r.queue_pops;
    route_reroutes += r.reroutes_total;
    route_iterations += r.iterations;
    route_batches += r.batches;
    route_batched_nets += r.parallel_efficiency * r.batches;
  }

  std::vector<Metric> metrics() const {
    const double pr_s = kept_s + discarded_s;
    return {
        {"route.s", route_s, "s"},
        {"route.queue_pops", static_cast<double>(route_pops), "count"},
        {"route.ns_per_pop", ratio(route_s * 1e9, route_pops), "ns"},
        {"route.pops_per_reroute", ratio(route_pops, route_reroutes),
         "count"},
        {"route.reroutes", static_cast<double>(route_reroutes), "count"},
        {"route.iterations", static_cast<double>(route_iterations), "count"},
        {"route.batches", static_cast<double>(route_batches), "count"},
        {"route.nets_per_batch", ratio(route_batched_nets, route_batches),
         "count"},
        {"place.s", place_s, "s"},
        {"place.build_nodes_s", build_nodes_s, "s"},
        {"place.moves", static_cast<double>(place_moves), "count"},
        {"place.moves_per_s", ratio(place_moves, place_s), "1/s"},
        {"place.repacked_per_move", ratio(place_repacked, place_moves),
         "count"},
        {"core.levels_run", static_cast<double>(levels_run), "count"},
        {"core.escalations", static_cast<double>(escalations), "count"},
        {"core.discarded_s", discarded_s, "s"},
        {"core.useful_frac", ratio(kept_s, pr_s), "ratio"},
        {"core.unattributed_s", unattributed_s, "s"},
        {"geom.emit_s", emit_s, "s"},
        {"geom.grid_build_s", grid_build_s, "s"},
        {"geom.validate_s", validate_s, "s"},
        {"geom.stitch_s", stitch_s, "s"},
        {"geom.grid_bytes", static_cast<double>(grid_bytes), "bytes"},
        {"geom.exact_cells", static_cast<double>(exact_cells), "count"},
        {"shard.plan_s", plan_s, "s"},
        {"shard.windows", static_cast<double>(windows), "count"},
        {"shard.window_compile_s", window_compile_s, "s"},
        {"shard.reseeded", static_cast<double>(reseeded), "count"},
        {"shard.seam_cells", static_cast<double>(seam_cells), "count"},
        {"pdgraph.build_s", pdgraph_s, "s"},
        {"pdgraph.modules", static_cast<double>(modules), "count"},
        {"compress.ishape_s", ishape_s, "s"},
        {"compress.primal_s", primal_s, "s"},
        {"compress.dual_s", dual_s, "s"},
        {"compress.nodes", static_cast<double>(nodes), "count"},
        {"verify.s", verify_s, "s"},
    };
  }
};

struct Level {
  std::string circuit;
  int y_gap = 0;
  double place_s = 0;
  double route_s = 0;
  int iterations = 0;
  std::int64_t pops = 0;
  bool legal = false;
  bool kept = false;
};

void print_level(const Level& l) {
  std::printf(
      "{\"level\": {\"circuit\": %s, \"y_gap\": %d, \"place_s\": %s, "
      "\"route_s\": %s, \"iterations\": %d, \"queue_pops\": %lld, "
      "\"legal\": %s, \"kept\": %s}}\n",
      quoted(l.circuit).c_str(), l.y_gap, num(l.place_s).c_str(),
      num(l.route_s).c_str(), l.iterations, static_cast<long long>(l.pops),
      l.legal ? "true" : "false", l.kept ? "true" : "false");
}

struct ReplayOutcome {
  std::int64_t volume = 0;
  std::int64_t final_pops = 0;
  bool legal = false;
  double attributed_s = 0;  // timed calls that core::compile also makes
  std::string error;        // validate or verify failure
};

// Replays core::compile for the benchmark's options (Full mode, one
// place+route attempt, warm-start chaining on) through the stage
// functions: the same calls, seeds, thread counts and y-gap escalation as
// src/core/compiler.cpp, each inside a span.
ReplayOutcome replay(const icm::IcmCircuit& c, const core::CompileOptions& o,
                     SpanLog& log, Layers& L, std::vector<Level>& levels) {
  TQEC_REQUIRE(o.mode == core::PipelineMode::Full && o.place_restarts == 1 &&
                   o.enable_ishape && o.enable_primal && o.enable_dual,
               "replay mirrors only the Full single-attempt pipeline");
  ReplayOutcome out;
  const int jobs = resolve_jobs(o.jobs);
  double t = 0;

  const pdgraph::PdGraph graph = log.timed(
      "pdgraph.build_pd_graph", &t, [&] { return pdgraph::build_pd_graph(c); });
  L.pdgraph_s += t, out.attributed_s += t, t = 0;
  L.modules += graph.module_count();

  const compress::IshapeResult ishape = log.timed(
      "compress.simplify_ishape", &t,
      [&] { return compress::simplify_ishape(graph); });
  L.ishape_s += t, out.attributed_s += t, t = 0;

  const compress::PrimalBridging bridging =
      log.timed("compress.bridge_primal_best", &t, [&] {
        return compress::bridge_primal_best(graph, ishape, o.seed,
                                            o.primal_restarts, jobs);
      });
  L.primal_s += t, out.attributed_s += t, t = 0;

  compress::DualBridging dual = log.timed(
      "compress.bridge_dual", &t,
      [&] { return compress::bridge_dual(graph, ishape); });
  L.dual_s += t, out.attributed_s += t, t = 0;

  const place::NodeSet nodes = log.timed("place.build_nodes", &t, [&] {
    return place::build_nodes(graph, ishape, bridging, dual, o.plan_flips);
  });
  L.build_nodes_s += t, out.attributed_s += t, t = 0;
  L.nodes += nodes.node_count();

  // Attempt 0 of the warm-start chain consumes an empty memory.
  const route::NegotiationMemory warm_in;
  route::NegotiationMemory warm_out;
  place::Placement placement;
  route::RoutingResult routing;
  for (const int y_gap : {0, 1}) {
    const int level_span = log.open("core.level");
    Level lv;
    lv.circuit = c.name();
    lv.y_gap = y_gap;
    place::PlaceOptions place_opt = o.place;
    place_opt.seed = o.seed;
    place_opt.effort *= o.effort;
    place_opt.layer_y_gap = std::max(place_opt.layer_y_gap, y_gap);
    if (place_opt.threads == 0) place_opt.threads = jobs;
    placement = log.timed("place.place_modules", &lv.place_s, [&] {
      return place::place_modules(nodes, place_opt);
    });
    route::RouteOptions route_opt = o.route;
    route_opt.seed = o.seed;
    if (route_opt.threads == 0) route_opt.threads = jobs;
    routing = log.timed("route.route_nets", &lv.route_s, [&] {
      return o.route.warm_start
                 ? route::route_nets(nodes, placement, route_opt, &warm_in,
                                     &warm_out)
                 : route::route_nets(nodes, placement, route_opt);
    });
    log.close(level_span);
    lv.iterations = routing.iterations;
    lv.pops = routing.queue_pops;
    lv.legal = routing.legal;
    lv.kept = routing.legal || y_gap == 1;
    L.add_route(routing);
    L.route_s += lv.route_s;
    L.place_s += lv.place_s;
    L.place_moves += placement.moves_accepted + placement.moves_rejected;
    L.place_repacked += placement.repacked_nodes;
    ++L.levels_run;
    if (y_gap > 0) ++L.escalations;
    (lv.kept ? L.kept_s : L.discarded_s) += lv.place_s + lv.route_s;
    out.attributed_s += lv.place_s + lv.route_s;
    levels.push_back(lv);
    if (routing.legal) break;
  }
  out.volume = routing.volume;
  out.final_pops = routing.queue_pops;
  out.legal = routing.legal;

  const geom::GeomDescription geometry =
      log.timed("geom.emit_geometry", &t, [&] {
        return core::emit_geometry(graph, nodes, placement, routing,
                                   c.name());
      });
  L.emit_s += t, out.attributed_s += t, t = 0;

  geom::GridBuildStats gstats;
  const geom::OccupancyGrid grid = log.timed(
      "geom.build_occupancy", &t,
      [&] { return geom::build_occupancy(geometry, &gstats); });
  L.grid_build_s += t, out.attributed_s += t, t = 0;
  L.grid_bytes = std::max(L.grid_bytes, gstats.bytes);
  L.exact_cells +=
      grid.popcount(geom::kPrimalPlane) + grid.popcount(geom::kDualPlane);

  // Correctness checks: outside compile_s, so not attributed.
  const geom::ValidationReport vr = log.timed(
      "geom.validate", &L.validate_s, [&] { return geom::validate(geometry); });
  verify::VerifyInputs in;
  in.graph = &graph;
  in.nodes = &nodes;
  in.placement = &placement;
  in.routing = &routing;
  in.dual = &dual;
  const verify::VerifyReport report = log.timed(
      "verify.verify_design", &L.verify_s,
      [&] { return verify::verify_design(in, geometry); });
  if (!vr.ok()) out.error = "replay geometry fails validate: " + vr.summary();
  else if (!report.ok())
    out.error = "replay fails verify_design: " + report.summary();
  return out;
}

// Sharded circuits: the windows compile inside core::compile_sharded, so
// the trace times the planning and the checks around it and reads the
// window and stitch figures from the result's own stats.
void trace_sharded(const Workload& w, const icm::IcmCircuit& c,
                   const core::CompileOptions& o, SpanLog& log, Layers& L,
                   std::vector<Level>& levels, std::string& error) {
  double plan_s = 0;
  log.timed("shard.plan_windows", &plan_s, [&] {
    const core::ShardPlan plan = core::plan_windows(c, w.shard_window);
    for (std::size_t i = 0; i < plan.windows.size(); ++i)
      (void)core::extract_window(c, plan, static_cast<int>(i));
  });
  L.plan_s += plan_s;
  double compile_s = 0;
  const core::CompileResult r = log.timed(
      "core.compile_sharded", &compile_s,
      [&] { return core::compile_sharded(c, o, shard_options(w)); });
  // compile_sharded validates and rasterizes the stitched geometry itself;
  // the same two calls, timed here, stand in for that untimed tail.
  double validate_s = 0;
  const geom::ValidationReport vr = log.timed(
      "geom.validate", &validate_s, [&] { return geom::validate(r.geometry); });
  L.validate_s += validate_s;
  double occupancy_s = 0;
  geom::GridBuildStats gstats;
  log.timed("geom.build_occupancy", &occupancy_s, [&] {
    const geom::OccupancyGrid grid = geom::build_occupancy(r.geometry, &gstats);
    L.exact_cells +=
        grid.popcount(geom::kPrimalPlane) + grid.popcount(geom::kDualPlane);
  });
  // The compile's own grid builds (stitcher frame, its validate pass and
  // the final occupancy grid); they overlap stitch_s and the validate.
  L.grid_build_s += r.geom.grid_build_s;
  L.grid_bytes = std::max({L.grid_bytes, gstats.bytes, r.geom.grid_bytes});

  const core::StageTimings& t = r.timings;
  L.pdgraph_s += t.pd_graph_s;
  L.ishape_s += t.ishape_s;
  L.primal_s += t.primal_bridge_s;
  L.dual_s += t.dual_bridge_s;
  L.modules += r.modules;
  L.nodes += r.nodes;
  L.windows += r.shard.windows_total;
  L.reseeded += r.shard.windows_reseeded;
  L.seam_cells += r.shard.seam_cells;
  L.stitch_s += r.shard.stitch_s;
  // place_route_wall_s spans planning and the window compiles.
  L.window_compile_s += std::max(0.0, t.place_route_wall_s - plan_s);
  L.unattributed_s += compile_s - t.place_route_wall_s - r.shard.stitch_s -
                      validate_s - occupancy_s;
  // One selected attempt per window. An escalated window's discarded level
  // is folded into its attempt's times, so it counts as an escalation but
  // its time is not separable from outside compile_sharded.
  for (std::size_t k = 0; k < t.attempts.size(); ++k) {
    const core::PlaceAttemptStats& a = t.attempts[k];
    L.route_s += a.route_s;
    L.route_pops += a.route_queue_pops;
    L.route_reroutes += a.route_reroutes;
    L.route_iterations += a.route_iterations;
    L.route_batches += a.route_batches;
    L.route_batched_nets += a.route_parallel_efficiency * a.route_batches;
    L.place_s += a.place_s;
    L.place_moves += a.sa_accepted + a.sa_rejected;
    L.place_repacked += a.sa_repacked_nodes;
    L.levels_run += a.y_gap + 1;
    L.escalations += a.y_gap;
    L.kept_s += a.place_s + a.route_s;
    if (a.y_gap > 0)
      levels.push_back({c.name() + "@w" + std::to_string(k), a.y_gap,
                        a.place_s, a.route_s, a.route_iterations,
                        a.route_queue_pops, a.legal, true});
  }
  const std::string failure = failure_of(r, vr);
  if (!failure.empty()) error = failure;
}

int run_traced(const Args& a, const Workload& w,
               const std::vector<icm::IcmCircuit>& circuits) {
  const core::CompileOptions opt = compile_options(w, a.workload_seed);
  SpanLog log;
  Layers L;
  std::vector<Level> levels;
  long long failed = 0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const icm::IcmCircuit& c = circuits[i];
    log.set_circuit(w.circuits[i]);
    std::string error;
    if (w.shard_window > 0) {
      trace_sharded(w, c, opt, log, L, levels, error);
    } else {
      double compile_s = 0;
      const core::CompileResult r = log.timed(
          "core.compile", &compile_s, [&] { return core::compile(c, opt); });
      const int replay_span = log.open("replay");
      const ReplayOutcome rep = replay(c, opt, log, L, levels);
      log.close(replay_span);
      L.unattributed_s += compile_s - rep.attributed_s;
      if (rep.volume != r.volume || rep.final_pops != r.routing.queue_pops ||
          rep.legal != r.routed_legal) {
        std::fprintf(stderr,
                     "perfbench: replay of %s does not reproduce "
                     "core::compile (volume %lld vs %lld, queue pops %lld vs "
                     "%lld); the replay in perfbench.cpp no longer mirrors "
                     "src/core/compiler.cpp\n",
                     w.circuits[i].c_str(), static_cast<long long>(rep.volume),
                     static_cast<long long>(r.volume),
                     static_cast<long long>(rep.final_pops),
                     static_cast<long long>(r.routing.queue_pops));
        return 1;
      }
      std::printf(
          "{\"replay\": {\"circuit\": %s, \"volume\": %lld, \"queue_pops\": "
          "%lld, \"compile_s\": %s, \"reproduced\": true}}\n",
          quoted(w.circuits[i]).c_str(), static_cast<long long>(r.volume),
          static_cast<long long>(rep.final_pops), num(compile_s).c_str());
      error = failure_of(r, geom::validate(r.geometry));
      if (error.empty()) error = rep.error;
    }
    if (!error.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s: %s\n", w.circuits[i].c_str(),
                   error.c_str());
    }
  }
  log.print();
  for (const Level& l : levels) print_level(l);
  print_result(failed == 0, static_cast<long long>(circuits.size()), failed,
               L.metrics());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload& w = find_workload(args.workload);
    // Spans come from this file only; the program's own tracing stays off.
    trace::set_enabled(false);
    double setup_s = 0;
    const std::vector<icm::IcmCircuit> circuits =
        set_up(w, args.workload_seed, &setup_s);
    print_meta(args, w, setup_s);
    return args.trace ? run_traced(args, w, circuits)
                      : run_untraced(args, w, circuits, setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
