// Integration tests for the full compression pipeline: the paper's worked
// example, end-to-end legality and geometry validity, braiding
// preservation through routing, determinism, and mode comparisons.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "common/trace.h"
#include "compress/dual_bridging.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/canonical.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec::core {
namespace {

CompileResult compile_mode(const icm::IcmCircuit& circuit, PipelineMode mode,
                           std::uint64_t seed = 7) {
  CompileOptions opt;
  opt.mode = mode;
  opt.seed = seed;
  return compile(circuit, opt);
}

/// Visitor callback for stats_json round trips: every visited scalar must
/// parse back from `obj` equal — doubles bit-exact — and the members must
/// appear in field-list order. Integers compare at double precision (the
/// reader stores numbers as double; derived seeds use the full u64 range).
struct ExpectParsedBack {
  const json::Value& obj;
  std::size_t prev = 0;
  bool first = true;

  template <typename T>
  void operator()(const char* name, const T& v) {
    std::size_t pos = 0;
    while (pos < obj.object.size() && obj.object[pos].first != name) ++pos;
    ASSERT_LT(pos, obj.object.size()) << "missing " << name;
    EXPECT_TRUE(first || pos > prev) << name << " out of list order";
    first = false;
    prev = pos;
    const json::Value& got = obj.object[pos].second;
    if constexpr (std::is_same_v<T, bool>)
      EXPECT_EQ(got.as_bool(), v) << name;
    else if constexpr (std::is_same_v<T, std::string>)
      EXPECT_EQ(got.as_string(), v) << name;
    else
      EXPECT_EQ(got.as_double(), static_cast<double>(v)) << name;
  }
};

TEST(Fig1Test, CanonicalVolumeIs54) {
  const icm::IcmCircuit circuit = three_cnot_example();
  EXPECT_EQ(geom::canonical_volume(circuit.stats()), 54);
}

TEST(Fig1Test, FullPipelineReachesVolume6) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  EXPECT_EQ(r.volume, 6);  // paper Fig. 1(e): 2 x 1 x 3
  EXPECT_TRUE(r.routed_legal);
  EXPECT_TRUE(geom::validate(r.geometry).ok());
}

TEST(Fig1Test, ProgressionIsMonotone) {
  const icm::IcmCircuit circuit = three_cnot_example();
  const auto modular = compile_mode(circuit, PipelineMode::ModularOnly);
  const auto dual_only = compile_mode(circuit, PipelineMode::DualOnly);
  const auto full = compile_mode(circuit, PipelineMode::Full);
  EXPECT_LE(full.volume, dual_only.volume);
  EXPECT_LE(dual_only.volume, modular.volume);
  EXPECT_LT(modular.volume, 54);
}

TEST(CompileTest, ReportsStageStatistics) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  EXPECT_EQ(r.modules, 6);
  EXPECT_EQ(r.ishape_merges, 3);
  EXPECT_EQ(r.primal_bridges, 2);
  EXPECT_EQ(r.dual_bridges, 1);
  EXPECT_EQ(r.net_components, 2);
  EXPECT_EQ(r.nodes, 1);  // everything in one primal-bridging super-module
  EXPECT_EQ(r.canonical_volume, 54);
}

TEST(CompileTest, DeterministicForFixedSeed) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  const auto a = compile_mode(circuit, PipelineMode::Full, 5);
  const auto b = compile_mode(circuit, PipelineMode::Full, 5);
  EXPECT_EQ(a.volume, b.volume);
  EXPECT_EQ(a.routing.total_wire, b.routing.total_wire);
  EXPECT_EQ(a.nodes, b.nodes);
}

TEST(CompileTest, EveryModeHonorsTheSeedDeterministically) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  for (const PipelineMode mode :
       {PipelineMode::Full, PipelineMode::DualOnly, PipelineMode::ModularOnly}) {
    const auto a = compile_mode(circuit, mode, 11);
    const auto b = compile_mode(circuit, mode, 11);
    EXPECT_EQ(a.volume, b.volume) << static_cast<int>(mode);
    EXPECT_EQ(a.routing.total_wire, b.routing.total_wire)
        << static_cast<int>(mode);
    EXPECT_EQ(a.placement.module_cell, b.placement.module_cell)
        << static_cast<int>(mode);
  }
}

TEST(CompileTest, MultiSeedResultIndependentOfJobCount) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  for (const PipelineMode mode :
       {PipelineMode::Full, PipelineMode::DualOnly}) {
    CompileOptions opt;
    opt.mode = mode;
    opt.seed = 5;
    opt.place_restarts = 3;
    opt.jobs = 1;
    const auto seq = compile(circuit, opt);
    opt.jobs = 8;
    const auto par = compile(circuit, opt);
    EXPECT_EQ(seq.volume, par.volume) << static_cast<int>(mode);
    EXPECT_EQ(seq.routing.total_wire, par.routing.total_wire)
        << static_cast<int>(mode);
    EXPECT_EQ(seq.placement.module_cell, par.placement.module_cell)
        << static_cast<int>(mode);
    // Attempt reports agree on seeds, volumes, and the selected attempt.
    ASSERT_EQ(seq.timings.attempts.size(), 3u);
    ASSERT_EQ(par.timings.attempts.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(seq.timings.attempts[k].seed, par.timings.attempts[k].seed);
      EXPECT_EQ(seq.timings.attempts[k].volume,
                par.timings.attempts[k].volume);
      EXPECT_EQ(seq.timings.attempts[k].selected,
                par.timings.attempts[k].selected);
    }
  }
}

TEST(CompileTest, MultiSeedNeverWorseThanSingleAttempt) {
  icm::WorkloadSpec spec;
  spec.qubits = 60;
  spec.cnots = 90;
  spec.y_states = 18;
  spec.a_states = 9;
  const icm::IcmCircuit circuit = icm::make_workload(spec);
  CompileOptions opt;
  opt.seed = 5;
  const auto single = compile(circuit, opt);
  opt.place_restarts = 4;
  const auto multi = compile(circuit, opt);
  ASSERT_TRUE(single.routed_legal);
  ASSERT_TRUE(multi.routed_legal);
  // Attempt 0 reuses the base seed, so the best-of-K result can only match
  // or beat the single attempt.
  EXPECT_LE(multi.volume, single.volume);
  EXPECT_EQ(multi.timings.attempts[0].volume, single.volume);
}

// Restart attempts share nothing: each attempt of a multi-restart compile
// is exactly the single-attempt compile at that attempt's derived seed,
// however many threads run them. DualOnly, because in Full mode the seed
// also drives primal bridging, which runs once before the attempts.
TEST(CompileTest, RestartAttemptsAreIndependent) {
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(paper_benchmark("4gt10-v1_81")));
  CompileOptions opt;
  opt.mode = PipelineMode::DualOnly;
  opt.seed = 7;
  opt.place_restarts = 3;
  opt.jobs = 1;
  const CompileResult serial = compile(circuit, opt);
  opt.jobs = 4;
  const CompileResult parallel = compile(circuit, opt);
  ASSERT_EQ(serial.timings.attempts.size(), 3u);
  ASSERT_EQ(parallel.timings.attempts.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    CompileOptions one;
    one.mode = PipelineMode::DualOnly;
    one.seed = serial.timings.attempts[k].seed;
    const CompileResult single = compile(circuit, one);
    ASSERT_EQ(single.timings.attempts.size(), 1u);
    const PlaceAttemptStats& want = single.timings.attempts[0];
    for (const CompileResult* multi : {&serial, &parallel}) {
      SCOPED_TRACE("attempt " + std::to_string(k) + ", jobs " +
                   (multi == &serial ? "1" : "4"));
      const PlaceAttemptStats& got = multi->timings.attempts[k];
      EXPECT_EQ(got.seed, want.seed);
      EXPECT_EQ(got.volume, want.volume);
      EXPECT_EQ(got.route_queue_pops, want.route_queue_pops);
      EXPECT_EQ(got.sa_repacked_nodes, want.sa_repacked_nodes);
    }
  }
}

TEST(CompileTest, StatsJsonReportsAttemptsAndRestarts) {
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult r = compile(three_cnot_example(), opt);
  const std::string json = stats_json(r);
  EXPECT_NE(json.find("\"volume\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"legal\": true"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": ["), std::string::npos);
  EXPECT_NE(json.find("\"sa_accepted\""), std::string::npos);
  EXPECT_NE(json.find("\"route_iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"primal_restarts\""), std::string::npos);
  EXPECT_NE(json.find("\"selected\": true"), std::string::npos);
}

TEST(CompileTest, StatsJsonV2RoundTrips) {
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult r = compile(three_cnot_example(), opt);
  const json::Value doc = json::parse(stats_json(r));

  // Documented scalar fields with their types.
  EXPECT_EQ(doc.at("stats_version").as_int(), 2);
  EXPECT_TRUE(doc.at("name").is_string());
  EXPECT_EQ(doc.at("volume").as_int(), r.volume);
  EXPECT_EQ(doc.at("canonical_volume").as_int(), r.canonical_volume);
  EXPECT_EQ(doc.at("legal").as_bool(), r.routed_legal);
  EXPECT_EQ(doc.at("modules").as_int(), r.modules);
  EXPECT_EQ(doc.at("nodes").as_int(), r.nodes);
  EXPECT_EQ(doc.at("ishape_merges").as_int(), r.ishape_merges);
  EXPECT_EQ(doc.at("primal_bridges").as_int(), r.primal_bridges);
  EXPECT_EQ(doc.at("dual_bridges").as_int(), r.dual_bridges);
  EXPECT_EQ(doc.at("net_components").as_int(), r.net_components);

  const json::Value& timings = doc.at("timings");
  for (const char* key : {"pd_graph_s", "ishape_s", "primal_bridge_s",
                          "dual_bridge_s", "place_s", "route_s",
                          "place_route_wall_s", "total_s"})
    EXPECT_TRUE(timings.at(key).is_number()) << key;

  const json::Value& restarts = doc.at("primal_restarts");
  EXPECT_TRUE(restarts.at("selected").is_number());
  EXPECT_TRUE(restarts.at("restarts").is_array());

  // Per-attempt records round-trip with correct types and vector content.
  const json::Value& attempts = doc.at("attempts");
  ASSERT_EQ(attempts.array.size(), 2u);
  for (std::size_t k = 0; k < attempts.array.size(); ++k) {
    const json::Value& a = attempts.array[k];
    const PlaceAttemptStats& stats = r.timings.attempts[k];
    // Derived attempt seeds use the full 64-bit range; the reader stores
    // numbers as double, so compare at double precision.
    EXPECT_EQ(a.at("seed").as_double(), static_cast<double>(stats.seed));
    EXPECT_EQ(a.at("volume").as_int(), stats.volume);
    EXPECT_EQ(a.at("legal").as_bool(), stats.legal);
    EXPECT_EQ(a.at("selected").as_bool(), stats.selected);
    EXPECT_EQ(a.at("y_gap").as_int(), stats.y_gap);
    EXPECT_TRUE(a.at("place_s").is_number());
    EXPECT_TRUE(a.at("route_s").is_number());
    EXPECT_EQ(a.at("sa_iterations").as_int(), stats.sa_iterations);
    EXPECT_EQ(a.at("sa_accepted").as_int(), stats.sa_accepted);
    EXPECT_EQ(a.at("sa_rejected").as_int(), stats.sa_rejected);
    EXPECT_EQ(a.at("route_iterations").as_int(), stats.route_iterations);
    EXPECT_EQ(a.at("route_overused").as_int(), stats.route_overused);
    EXPECT_EQ(a.at("route_reroutes").as_int(), stats.route_reroutes);
    EXPECT_EQ(a.at("route_full_sweeps").as_int(), stats.route_full_sweeps);
    EXPECT_EQ(a.at("route_queue_pushes").as_int(), stats.route_queue_pushes);
    EXPECT_EQ(a.at("route_queue_pops").as_int(), stats.route_queue_pops);
    EXPECT_EQ(a.at("route_repair_awarded").as_int(),
              stats.route_repair_awarded);
    EXPECT_EQ(a.at("route_repair_failed").as_int(),
              stats.route_repair_failed);

    const json::Value& reroutes = a.at("route_reroutes_per_iter");
    ASSERT_EQ(reroutes.array.size(), stats.route_reroutes_per_iter.size());
    for (std::size_t i = 0; i < reroutes.array.size(); ++i)
      EXPECT_EQ(reroutes.array[i].as_int(),
                stats.route_reroutes_per_iter[i]);
    const json::Value& overused = a.at("route_overused_per_iter");
    ASSERT_EQ(overused.array.size(), stats.route_overused_per_iter.size());

    // SA convergence curve: three equal-length numeric columns.
    const json::Value& curve = a.at("sa_curve");
    const json::Value& cost = curve.at("cost");
    const json::Value& temperature = curve.at("temperature");
    const json::Value& accept_rate = curve.at("accept_rate");
    ASSERT_EQ(cost.array.size(), stats.sa_curve.size());
    ASSERT_EQ(temperature.array.size(), stats.sa_curve.size());
    ASSERT_EQ(accept_rate.array.size(), stats.sa_curve.size());
    EXPECT_FALSE(stats.sa_curve.empty());
    for (std::size_t i = 0; i < stats.sa_curve.size(); ++i) {
      EXPECT_NEAR(cost.array[i].as_double(), stats.sa_curve[i].cost, 1e-5);
      EXPECT_NEAR(temperature.array[i].as_double(),
                  stats.sa_curve[i].temperature, 1e-5);
      EXPECT_NEAR(accept_rate.array[i].as_double(),
                  stats.sa_curve[i].accept_rate, 1e-5);
    }
  }

  // Selected attempt's congestion census.
  const json::Value& route = doc.at("route");
  EXPECT_EQ(route.at("iterations").as_int(), r.routing.iterations);
  EXPECT_EQ(route.at("total_wire").as_int(), r.routing.total_wire);
  EXPECT_GT(r.routing.connects, 0);
  EXPECT_EQ(route.at("connects").as_int(), r.routing.connects);
  EXPECT_EQ(route.at("overused_per_iter").array.size(),
            r.routing.overused_per_iter.size());
  const json::Value& hist = route.at("congestion_histogram");
  ASSERT_EQ(hist.array.size(), r.routing.congestion_histogram.size());
  for (std::size_t i = 0; i < hist.array.size(); ++i)
    EXPECT_EQ(hist.array[i].as_int(), r.routing.congestion_histogram[i]);
  const json::Value& hot = route.at("hottest_cells");
  ASSERT_EQ(hot.array.size(), r.routing.hottest_cells.size());
  for (std::size_t i = 0; i < hot.array.size(); ++i) {
    EXPECT_EQ(hot.array[i].at("x").as_int(), r.routing.hottest_cells[i].cell.x);
    EXPECT_EQ(hot.array[i].at("usage").as_int(),
              r.routing.hottest_cells[i].usage);
    EXPECT_TRUE(hot.array[i].at("capacity").is_number());
  }
  // The multi-line heatmap must survive the JSON round trip byte-for-byte.
  EXPECT_EQ(route.at("heatmap").as_string(), r.routing.congestion_heatmap);
  EXPECT_FALSE(r.routing.congestion_heatmap.empty());

  // Metrics section always present; empty without tracing.
  const json::Value& metrics = doc.at("metrics");
  EXPECT_TRUE(metrics.at("counters").is_object());
  EXPECT_TRUE(metrics.at("gauges").is_object());
  EXPECT_TRUE(metrics.at("series").is_object());

  // Every scalar of every field list parses back equal, in list order.
  visit_count_fields(ExpectParsedBack{doc}, r);
  visit_timing_fields(ExpectParsedBack{timings}, r.timings);
  for (std::size_t k = 0; k < attempts.array.size(); ++k) {
    SCOPED_TRACE("attempt " + std::to_string(k));
    visit_attempt_fields(ExpectParsedBack{attempts.array[k]},
                         r.timings.attempts[k]);
  }
  visit_geom_fields(ExpectParsedBack{doc.at("geom")}, r.geom);
  visit_shard_fields(ExpectParsedBack{doc.at("shard")}, r.shard);
  visit_cache_fields(ExpectParsedBack{doc.at("cache")}, r.cache);
  EXPECT_GT(r.geom.exact_cells, 0);  // the geom record is not all defaults

  // The SA curves round-trip bit-exact too.
  const json::Value& curve = attempts.array[0].at("sa_curve");
  const PlaceAttemptStats& first = r.timings.attempts[0];
  for (std::size_t i = 0; i < first.sa_curve.size(); ++i) {
    EXPECT_EQ(curve.at("cost").array[i].as_double(), first.sa_curve[i].cost);
    EXPECT_EQ(curve.at("temperature").array[i].as_double(),
              first.sa_curve[i].temperature);
    EXPECT_EQ(curve.at("accept_rate").array[i].as_double(),
              first.sa_curve[i].accept_rate);
  }
}

TEST(CompileTest, StatsJsonV2EmbedsMetricsWhenTracingEnabled) {
  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  trace::set_enabled(false);
  EXPECT_FALSE(r.metrics.empty());

  const json::Value doc = json::parse(stats_json(r));
  const json::Value& metrics = doc.at("metrics");
  EXPECT_FALSE(metrics.at("counters").object.empty());
  EXPECT_TRUE(metrics.at("gauges").find("compile.volume") != nullptr);
  const json::Value* connects = metrics.at("counters").find("route.connects");
  ASSERT_NE(connects, nullptr);  // summed over every y-gap level run
  EXPECT_GE(connects->as_int(), r.routing.connects);
  EXPECT_GT(r.routing.connects, 0);
  const json::Value& series = metrics.at("series");
  for (const char* name : {"place.sa_cost", "place.sa_temperature",
                           "place.sa_accept_rate", "route.overused",
                           "route.congestion_hist"}) {
    const json::Value* channel = series.find(name);
    ASSERT_NE(channel, nullptr) << name;
    EXPECT_EQ(channel->at("x").array.size(), channel->at("y").array.size())
        << name;
  }
  trace::reset_metrics();
  trace::reset_events();
}

TEST(CompileTest, ShardedStatsTimeTheStitchAndItsValidate) {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x12_t1_c2";
  spec.data_lines = 8;
  spec.layers = 12;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = 7;
  CompileOptions opt;
  opt.seed = 7;
  ShardOptions shard;
  shard.window = 4;
  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult r =
      compile_sharded(icm::make_layered_workload(spec), opt, shard);
  trace::set_enabled(false);
  const std::string events = trace::chrome_trace_json();
  trace::reset_metrics();
  trace::reset_events();

  ASSERT_TRUE(r.shard.enabled);
  EXPECT_TRUE(r.routed_legal);
  EXPECT_GT(r.shard.stitches, 0);
  EXPECT_GT(r.shard.stitch_s, 0);
  EXPECT_GT(r.shard.validate_s, 0);
  EXPECT_NE(events.find("\"shard.stitch\""), std::string::npos);
  EXPECT_NE(events.find("\"shard.validate\""), std::string::npos);
  const json::Value doc = json::parse(stats_json(r));
  visit_shard_fields(ExpectParsedBack{doc.at("shard")}, r.shard);
}

TEST(CompileTest, TracingDoesNotChangeResults) {
  const icm::IcmCircuit circuit = three_cnot_example();
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult off = compile(circuit, opt);

  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult on = compile(circuit, opt);
  trace::set_enabled(false);
  trace::reset_metrics();
  trace::reset_events();

  // Tracing is observational only: bit-identical pipeline outcome.
  EXPECT_EQ(on.volume, off.volume);
  EXPECT_EQ(on.canonical_volume, off.canonical_volume);
  EXPECT_EQ(on.routed_legal, off.routed_legal);
  EXPECT_EQ(on.nodes, off.nodes);
  EXPECT_EQ(on.routing.total_wire, off.routing.total_wire);
  EXPECT_EQ(on.routing.bounding.lo, off.routing.bounding.lo);
  EXPECT_EQ(on.routing.bounding.hi, off.routing.bounding.hi);
  ASSERT_EQ(on.placement.module_cell.size(), off.placement.module_cell.size());
  for (std::size_t i = 0; i < on.placement.module_cell.size(); ++i)
    EXPECT_EQ(on.placement.module_cell[i], off.placement.module_cell[i]);
}

// At jobs >= 2 the two whitespace levels of an attempt run concurrently
// and the one an in-order escalation keeps is kept. Every attempt stat
// except the wall-clock ones, and every trace counter, must match jobs=1:
// nothing of a dropped y-gap 1 level (4gt10-v1_81 routes at y-gap 0) or a
// discarded y-gap 0 level (rd84_142 escalates) may leak into the result.
TEST(CompileTest, SpeculativeEscalationMatchesInOrderStats) {
  for (const auto& [name, y_gap] :
       {std::pair("rd84_142", 1), std::pair("4gt10-v1_81", 0)}) {
    SCOPED_TRACE(name);
    const icm::IcmCircuit circuit =
        icm::make_workload(workload_spec(paper_benchmark(name)));
    trace::set_enabled(true);
    CompileOptions opt;
    opt.seed = 7;
    const CompileResult seq = compile(circuit, opt);
    opt.jobs = 2;
    const CompileResult spec = compile(circuit, opt);
    trace::set_enabled(false);
    trace::reset_metrics();
    trace::reset_events();

    ASSERT_EQ(seq.timings.attempts.size(), 1u);
    ASSERT_EQ(spec.timings.attempts.size(), 1u);
    EXPECT_EQ(seq.timings.attempts[0].y_gap, y_gap);
    visit_attempt_fields(
        [](const char* field, const auto& a, const auto& b) {
          const std::string_view n(field);
          if (!n.ends_with("_s") && !n.ends_with("_per_sec")) {
            EXPECT_EQ(a, b) << field;
          }
        },
        seq.timings.attempts[0], spec.timings.attempts[0]);
    EXPECT_EQ(seq.timings.attempts[0].route_overused_per_iter,
              spec.timings.attempts[0].route_overused_per_iter);
    EXPECT_EQ(seq.timings.attempts[0].route_reroutes_per_iter,
              spec.timings.attempts[0].route_reroutes_per_iter);
    EXPECT_FALSE(seq.metrics.counters.empty());
    EXPECT_EQ(seq.metrics.counters, spec.metrics.counters);
    // rd84_142's y-gap 0 level is doomed and abandoned; 4gt10-v1_81's
    // routes legally, so it never trips the doom test.
    const auto abandoned = std::find_if(
        seq.metrics.counters.begin(), seq.metrics.counters.end(),
        [](const auto& c) { return c.first == "route.abandoned_levels"; });
    ASSERT_NE(abandoned, seq.metrics.counters.end());
    EXPECT_EQ(abandoned->second, y_gap);
    // Moves/sec divides by the kept level's own place time, which after an
    // escalation is less than the attempt's summed place_s.
    for (const CompileResult* r : {&seq, &spec}) {
      const PlaceAttemptStats& a = r->timings.attempts[0];
      ASSERT_GT(a.place_s, 0);
      if (y_gap > 0) {
        EXPECT_GT(a.sa_moves_per_sec,
                  (a.sa_accepted + a.sa_rejected) / a.place_s);
      }
    }
  }
}

// A move is an accepted or rejected proposal (as in sa_repacked_per_move),
// so moves/sec times the kept level's place time gives back the move
// count, not the iteration count. 4gt10-v1_81 keeps y-gap 0, whose place
// time is then the attempt's whole place_s.
TEST(CompileTest, MovesPerSecCountsMovesNotIterations) {
  const CompileResult r = compile_mode(
      icm::make_workload(workload_spec(paper_benchmark("4gt10-v1_81"))),
      PipelineMode::Full);
  ASSERT_EQ(r.timings.attempts.size(), 1u);
  const PlaceAttemptStats& a = r.timings.attempts[0];
  ASSERT_EQ(a.y_gap, 0);
  ASSERT_GT(a.place_s, 0);
  const double moves = a.sa_accepted + a.sa_rejected;
  ASSERT_LT(moves, a.sa_iterations);
  EXPECT_NEAR(a.sa_moves_per_sec * a.place_s, moves, 1e-9 * moves);
}

// An attempt record holds the attempt field list and the series list and
// nothing else, in that order: one SA curve per attempt.
TEST(CompileTest, StatsJsonAttemptHoldsExactlyTheListedMembers) {
  CompileOptions opt;
  opt.place_restarts = 2;
  const CompileResult r = compile(three_cnot_example(), opt);
  std::vector<std::string> want;
  const auto collect = [&want](const char* name, const auto&) {
    want.emplace_back(name);
  };
  visit_attempt_fields(collect, r.timings.attempts[0]);
  visit_attempt_series(collect, r.timings.attempts[0]);
  ASSERT_EQ(std::count(want.begin(), want.end(), "sa_curve"), 1);

  const json::Value doc = json::parse(stats_json(r));
  const json::Value& attempts = doc.at("attempts");
  ASSERT_EQ(attempts.array.size(), 2u);
  for (std::size_t k = 0; k < attempts.array.size(); ++k) {
    SCOPED_TRACE("attempt " + std::to_string(k));
    std::vector<std::string> got;
    for (const auto& member : attempts.array[k].object)
      got.push_back(member.first);
    EXPECT_EQ(got, want);
  }
}

// With tracing on, the SA gauges are the selected attempt's figures, and
// the SA counters sum every placement the compile ran, so they bound the
// selected attempt's own counts.
TEST(CompileTest, TracedSaMetricsAgreeWithTheSelectedAttempt) {
  trace::set_enabled(true);
  trace::reset_metrics();
  trace::reset_events();
  const CompileResult r = compile_mode(
      icm::make_workload(workload_spec(paper_benchmark("4gt10-v1_81"))),
      PipelineMode::Full);
  trace::set_enabled(false);
  trace::reset_metrics();
  trace::reset_events();

  ASSERT_EQ(r.timings.attempts.size(), 1u);
  const PlaceAttemptStats& a = r.timings.attempts[0];
  std::unordered_map<std::string, long long> counters;
  for (const auto& [name, value] : r.metrics.counters) counters[name] = value;
  std::unordered_map<std::string, double> gauges;
  for (const auto& [name, value] : r.metrics.gauges) gauges[name] = value;

  ASSERT_TRUE(gauges.count("place.sa_moves_per_sec"));
  EXPECT_EQ(gauges.at("place.sa_moves_per_sec"), a.sa_moves_per_sec);
  ASSERT_TRUE(gauges.count("place.sa_repacked_per_move"));
  EXPECT_EQ(gauges.at("place.sa_repacked_per_move"), a.sa_repacked_per_move);
  for (const char* name : {"place.sa_iterations", "place.sa_accepted",
                           "place.sa_rejected", "place.sa_repacked_nodes"})
    ASSERT_TRUE(counters.count(name)) << name;
  EXPECT_GE(counters.at("place.sa_iterations"), a.sa_iterations);
  EXPECT_GE(counters.at("place.sa_accepted"), a.sa_accepted);
  EXPECT_GE(counters.at("place.sa_rejected"), a.sa_rejected);
  EXPECT_GE(counters.at("place.sa_repacked_nodes"), a.sa_repacked_nodes);
  EXPECT_LE(counters.at("place.sa_accepted") + counters.at("place.sa_rejected"),
            counters.at("place.sa_iterations"));
}

class EndToEndTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EndToEndTest, LegalValidAndCompressed) {
  const PaperBenchmark& bench = paper_benchmarks()[GetParam()];
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const CompileResult r = compile_mode(circuit, PipelineMode::Full);
  EXPECT_TRUE(r.routed_legal) << bench.name;
  const auto report = geom::validate(r.geometry);
  EXPECT_TRUE(report.ok()) << bench.name << ": " << report.summary();
  // The compression must beat the canonical form massively (the paper
  // reports 6.5x+ on the smallest benchmark).
  EXPECT_LT(r.volume * 3, r.canonical_volume) << bench.name;
  // Geometry box census: one per |Y> and |A> ancilla.
  EXPECT_EQ(r.geometry.boxes().size(),
            static_cast<std::size_t>(bench.y_states + bench.a_states));
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, EndToEndTest,
                         ::testing::Range<std::size_t>(0, 2));

TEST(EndToEndTest, BraidingPreservedThroughRouting) {
  // Every original CNOT net must thread the cells of the exact modules its
  // PD-graph records say it passes through, after all compression stages.
  const PaperBenchmark& bench = paper_benchmark("4gt10-v1_81");
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
  const compress::IshapeResult ishape = compress::simplify_ishape(graph);
  const compress::PrimalBridging bridging =
      compress::bridge_primal(graph, ishape, 7);
  compress::DualBridging dual = compress::bridge_dual(graph, ishape);
  place::NodeSet nodes = place::build_nodes(graph, ishape, bridging, dual);
  place::PlaceOptions popt;
  popt.seed = 7;
  const place::Placement placement = place::place_modules(nodes, popt);
  route::RouteOptions ropt;
  const route::RoutingResult routing =
      route::route_nets(nodes, placement, ropt);
  ASSERT_TRUE(routing.legal);

  std::unordered_map<pdgraph::NetId, std::size_t> component_index;
  for (const pdgraph::DualNet& net : graph.nets())
    component_index.emplace(dual.component_of(net.id),
                            component_index.size());
  for (const pdgraph::DualNet& net : graph.nets()) {
    const auto& routed = routing.nets[component_index.at(
        dual.component_of(net.id))];
    std::set<std::tuple<int, int, int>> cells;
    for (const Vec3& c : routed.cells) cells.insert({c.x, c.y, c.z});
    for (pdgraph::ModuleId m : net.path()) {
      const Vec3 pin = placement.module_cell[static_cast<std::size_t>(m)];
      EXPECT_TRUE(cells.count({pin.x, pin.y, pin.z}))
          << "net " << net.id << " no longer threads module " << m;
    }
  }
}

TEST(ModeComparisonTest, FullBeatsDualOnlyOnMidsizeBenchmark) {
  const PaperBenchmark& bench = paper_benchmark("4gt4-v0_73");
  const icm::IcmCircuit circuit =
      icm::make_workload(workload_spec(bench));
  const auto full = compile_mode(circuit, PipelineMode::Full);
  const auto dual_only = compile_mode(circuit, PipelineMode::DualOnly);
  EXPECT_TRUE(full.routed_legal);
  EXPECT_TRUE(dual_only.routed_legal);
  // Paper Table 3: dual-only needs strictly more volume (1.29x on this
  // benchmark); allow a little SA noise but demand a real gap.
  EXPECT_GT(static_cast<double>(dual_only.volume),
            1.05 * static_cast<double>(full.volume));
  // And far fewer B*-tree nodes for the full flow (paper Table 1).
  EXPECT_LT(full.nodes * 2, dual_only.nodes);
}

TEST(ModeComparisonTest, AblationFlagsChangeTheFlow) {
  const icm::IcmCircuit circuit = three_cnot_example();
  CompileOptions opt;
  opt.enable_ishape = false;
  const CompileResult no_ishape = compile(circuit, opt);
  EXPECT_EQ(no_ishape.ishape_merges, 0);
  opt = CompileOptions{};
  opt.enable_primal = false;
  const CompileResult no_primal = compile(circuit, opt);
  EXPECT_EQ(no_primal.primal_bridges, 0);
  EXPECT_GT(no_primal.nodes, 1);
  opt = CompileOptions{};
  opt.enable_dual = false;
  const CompileResult no_dual = compile(circuit, opt);
  EXPECT_EQ(no_dual.dual_bridges, 0);
  EXPECT_EQ(no_dual.net_components, 3);
}

TEST(EmitCellRunsTest, DeduplicatesAndEmitsMaximalRuns) {
  geom::Defect defect;
  // Unsorted input with duplicates: an x-run 0..2 on (y=0, z=0) plus a
  // detached singleton; duplicates of (1,0,0) must collapse into the run.
  emit_cell_runs(defect, {{4, 0, 0},
                          {1, 0, 0},
                          {0, 0, 0},
                          {1, 0, 0},
                          {2, 0, 0},
                          {1, 0, 0}});
  ASSERT_EQ(defect.segments.size(), 2u);
  EXPECT_EQ(defect.segments[0].a, (Vec3{0, 0, 0}));
  EXPECT_EQ(defect.segments[0].b, (Vec3{2, 0, 0}));
  EXPECT_EQ(defect.segments[1].a, (Vec3{4, 0, 0}));
  EXPECT_EQ(defect.segments[1].b, (Vec3{4, 0, 0}));
}

TEST(EmitCellRunsTest, GroupsRunsByYAndZ) {
  geom::Defect defect;
  emit_cell_runs(defect,
                 {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}});
  // Three (y, z) groups -> three segments; no run crosses a group.
  ASSERT_EQ(defect.segments.size(), 3u);
  for (const auto& seg : defect.segments) {
    EXPECT_EQ(seg.a.y, seg.b.y);
    EXPECT_EQ(seg.a.z, seg.b.z);
  }
  geom::Defect empty;
  emit_cell_runs(empty, {});
  EXPECT_TRUE(empty.segments.empty());
}

TEST(EmitGeometryTest, CensusMatchesPipelineState) {
  const CompileResult r =
      compile_mode(three_cnot_example(), PipelineMode::Full);
  // One primal chain defect + two dual component defects; no boxes.
  int primal = 0;
  int dual = 0;
  for (const geom::DefectView d : r.geometry.defects())
    (d.type == geom::DefectType::Primal ? primal : dual) += 1;
  EXPECT_EQ(primal, 1);
  EXPECT_EQ(dual, 2);
  EXPECT_TRUE(r.geometry.boxes().empty());
}

TEST(PaperTablesTest, LookupAndConsistency) {
  EXPECT_EQ(paper_benchmarks().size(), 8u);
  EXPECT_THROW(paper_benchmark("nope"), TqecError);
  for (const PaperBenchmark& b : paper_benchmarks()) {
    EXPECT_EQ(b.y_states, 2 * b.a_states) << b.name;
    EXPECT_GT(b.hsu_volume, b.ours_volume) << b.name;
    EXPECT_GT(b.lin2d_volume, b.hsu_volume) << b.name;
    EXPECT_GT(b.lin1d_volume, b.lin2d_volume) << b.name;
    EXPECT_GT(b.canonical_volume, b.lin1d_volume) << b.name;
  }
}

}  // namespace
}  // namespace tqec::core
