// Time-axis sharded compilation: window planning, carry extraction,
// end-to-end sharded paper benchmarks (each window verified, the stitched
// geometry validated), bit-identity across shard-thread counts, and
// checkpoint kill/resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/trace.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/canonical.h"
#include "geom/validate.h"
#include "icm/serialize.h"
#include "icm/workload.h"
#include "verify/verifier.h"

namespace tqec {
namespace {

namespace fs = std::filesystem;

/// The sharding stress shape: long and thin, low-crossing time cuts.
icm::IcmCircuit layered_circuit(std::uint64_t seed = 7) {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x12_t1_c2";
  spec.data_lines = 8;
  spec.layers = 12;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = seed;
  return icm::make_layered_workload(spec);
}

core::CompileOptions fast_options() {
  core::CompileOptions opt;
  opt.seed = 7;
  return opt;
}

// ---------------------------------------------------------------------------
// plan_windows

TEST(PlanWindowsTest, PartitionsAllCnotsExactlyOnce) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  ASSERT_GE(plan.windows.size(), 2u);
  EXPECT_EQ(plan.cut_layers.size(), plan.windows.size() - 1);

  std::set<int> seen;
  for (const core::WindowPlan& w : plan.windows) {
    EXPECT_LT(w.layer_lo, w.layer_hi);
    for (int c : w.cnots) EXPECT_TRUE(seen.insert(c).second) << c;
    // Lines ascend and the carry flags are parallel to them.
    EXPECT_TRUE(std::is_sorted(w.lines.begin(), w.lines.end()));
    EXPECT_EQ(w.carry_in.size(), w.lines.size());
    EXPECT_EQ(w.carry_out.size(), w.lines.size());
  }
  EXPECT_EQ(seen.size(), circuit.cnots().size());

  // Windows tile the layer range contiguously.
  for (std::size_t i = 0; i + 1 < plan.windows.size(); ++i)
    EXPECT_EQ(plan.windows[i].layer_hi, plan.windows[i + 1].layer_lo);
  EXPECT_EQ(plan.windows.front().layer_lo, 1);
  EXPECT_EQ(plan.windows.back().layer_hi, plan.depth + 1);
}

TEST(PlanWindowsTest, CarryOutMatchesNextCarryIn) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  ASSERT_GE(plan.windows.size(), 2u);
  int crossings = 0;
  for (std::size_t w = 0; w + 1 < plan.windows.size(); ++w) {
    std::set<int> outs, ins;
    const core::WindowPlan& a = plan.windows[w];
    const core::WindowPlan& b = plan.windows[w + 1];
    for (std::size_t i = 0; i < a.lines.size(); ++i)
      if (a.carry_out[i]) outs.insert(a.lines[i]);
    for (std::size_t i = 0; i < b.lines.size(); ++i)
      if (b.carry_in[i]) ins.insert(b.lines[i]);
    EXPECT_EQ(outs, ins) << "seam " << w;
    crossings += static_cast<int>(outs.size());
  }
  EXPECT_EQ(plan.crossings, crossings);
}

TEST(PlanWindowsTest, WholeCircuitFitsOneWindow) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::ShardPlan plan = core::plan_windows(circuit, 10000);
  ASSERT_EQ(plan.windows.size(), 1u);
  EXPECT_EQ(plan.crossings, 0);
  for (std::size_t i = 0; i < plan.windows[0].lines.size(); ++i) {
    EXPECT_FALSE(plan.windows[0].carry_in[i]);
    EXPECT_FALSE(plan.windows[0].carry_out[i]);
  }
}

TEST(PlanWindowsTest, Deterministic) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::ShardPlan a = core::plan_windows(circuit, 4);
  const core::ShardPlan b = core::plan_windows(circuit, 4);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  EXPECT_EQ(a.cut_layers, b.cut_layers);
  for (std::size_t i = 0; i < a.windows.size(); ++i)
    EXPECT_EQ(a.windows[i].cnots, b.windows[i].cnots);
}

// ---------------------------------------------------------------------------
// extract_window

TEST(ExtractWindowTest, CarryFlagsAndRoundTrip) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  ASSERT_GE(plan.windows.size(), 2u);
  for (std::size_t w = 0; w < plan.windows.size(); ++w) {
    const icm::IcmCircuit win =
        core::extract_window(circuit, plan, static_cast<int>(w));
    const core::WindowPlan& p = plan.windows[w];
    ASSERT_EQ(win.num_lines(), static_cast<int>(p.lines.size()));
    EXPECT_EQ(static_cast<int>(win.cnots().size()),
              static_cast<int>(p.cnots.size()));
    for (std::size_t i = 0; i < p.lines.size(); ++i) {
      EXPECT_EQ(win.is_carry_in(static_cast<int>(i)),
                static_cast<bool>(p.carry_in[i]));
      if (p.carry_out[i]) {
        EXPECT_TRUE(win.is_output(static_cast<int>(i)));
      }
    }
    // Carry flags survive the text serialization (checkpoint digests and
    // the service depend on this).
    const icm::IcmCircuit reparsed =
        icm::parse_icm_text(icm::to_icm_text(win));
    EXPECT_EQ(icm::to_icm_text(reparsed), icm::to_icm_text(win));
  }
}

// ---------------------------------------------------------------------------
// compile_sharded: end-to-end on paper benchmarks

class ShardedBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedBenchmark, WindowsVerifyAndStitchValidates) {
  const core::PaperBenchmark& bench = core::paper_benchmark(GetParam());
  const icm::IcmCircuit circuit =
      icm::make_workload(core::workload_spec(bench));
  const core::CompileOptions opt = fast_options();

  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  ASSERT_GE(plan.windows.size(), 2u);

  // Every window, compiled standalone, passes full end-to-end
  // verification (B1-B5) against its own PD graph.
  for (std::size_t w = 0; w < plan.windows.size(); ++w) {
    const icm::IcmCircuit win =
        core::extract_window(circuit, plan, static_cast<int>(w));
    core::CompileOptions wopt = opt;
    wopt.keep_internals = true;
    const core::CompileResult r = core::compile(win, wopt);
    ASSERT_TRUE(r.routed_legal) << "window " << w;
    const auto report = verify::verify_result(r);
    EXPECT_TRUE(report.ok()) << "window " << w << ": " << report.summary();
  }

  // The stitched whole passes the structural validator.
  core::ShardOptions shard;
  shard.window = 4;
  const core::CompileResult merged =
      core::compile_sharded(circuit, opt, shard);
  EXPECT_TRUE(merged.routed_legal);
  EXPECT_TRUE(merged.shard.enabled);
  EXPECT_EQ(merged.shard.windows_total,
            static_cast<int>(plan.windows.size()));
  EXPECT_EQ(merged.shard.stitches, plan.crossings);
  EXPECT_TRUE(merged.shard.issues.empty()) << merged.shard.issues.front();
  const auto report = geom::validate(merged.geometry);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(merged.volume, 0);
  EXPECT_EQ(merged.canonical_volume, geom::canonical_volume(merged.stats));
}

INSTANTIATE_TEST_SUITE_P(PaperBenchmarks, ShardedBenchmark,
                         ::testing::Values("4gt10-v1_81", "4gt4-v0_73"));

// ---------------------------------------------------------------------------
// Bit-identity: shard count x thread count

TEST(ShardDeterminismTest, BitIdenticalAcrossShardAndThreadCounts) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::CompileOptions opt = fast_options();

  for (const int window : {10000, 6, 2}) {  // ~1, ~2, ~8 windows
    core::ShardOptions shard;
    shard.window = window;
    shard.threads = 1;
    const core::CompileResult base =
        core::compile_sharded(circuit, opt, shard);
    ASSERT_TRUE(base.routed_legal) << "window=" << window;
    const std::string base_json = geom::to_json(base.geometry);
    for (const int threads : {2, 8}) {
      shard.threads = threads;
      const core::CompileResult r =
          core::compile_sharded(circuit, opt, shard);
      EXPECT_EQ(geom::to_json(r.geometry), base_json)
          << "window=" << window << " threads=" << threads;
      EXPECT_EQ(r.volume, base.volume);
      EXPECT_EQ(r.shard.seam_cells, base.shard.seam_cells);
    }
  }
}

TEST(ShardDeterminismTest, WindowZeroDelegatesToUnsharded) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::CompileOptions opt = fast_options();
  const core::CompileResult plain = core::compile(circuit, opt);
  core::ShardOptions shard;  // window = 0: sharding off
  const core::CompileResult r = core::compile_sharded(circuit, opt, shard);
  EXPECT_FALSE(r.shard.enabled);
  EXPECT_EQ(geom::to_json(r.geometry), geom::to_json(plain.geometry));
  EXPECT_EQ(r.volume, plain.volume);
}

// ---------------------------------------------------------------------------
// Checkpoint kill/resume

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("tqec_shard_ck_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> checkpoint_files() const {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.path().extension() == ".tqecck") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, ResumeAfterPartialKill) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::CompileOptions opt = fast_options();
  core::ShardOptions shard;
  shard.window = 4;
  shard.checkpoint_dir = dir_.string();

  const core::CompileResult fresh =
      core::compile_sharded(circuit, opt, shard);
  ASSERT_TRUE(fresh.routed_legal);
  EXPECT_EQ(fresh.shard.windows_resumed, 0);
  const std::vector<fs::path> files = checkpoint_files();
  ASSERT_EQ(static_cast<int>(files.size()), fresh.shard.windows_total);
  EXPECT_TRUE(fs::exists(dir_ / "manifest.json"));

  // Simulate a kill that lost some windows: delete every other record.
  int deleted = 0;
  for (std::size_t i = 0; i < files.size(); i += 2) {
    fs::remove(files[i]);
    ++deleted;
  }
  const core::CompileResult resumed =
      core::compile_sharded(circuit, opt, shard);
  EXPECT_EQ(resumed.shard.windows_resumed,
            fresh.shard.windows_total - deleted);
  EXPECT_EQ(geom::to_json(resumed.geometry),
            geom::to_json(fresh.geometry));

  // A second run resumes everything.
  const core::CompileResult full =
      core::compile_sharded(circuit, opt, shard);
  EXPECT_EQ(full.shard.windows_resumed, full.shard.windows_total);
  EXPECT_EQ(geom::to_json(full.geometry), geom::to_json(fresh.geometry));
}

TEST_F(CheckpointTest, CorruptRecordFailsSoft) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::CompileOptions opt = fast_options();
  core::ShardOptions shard;
  shard.window = 4;
  shard.checkpoint_dir = dir_.string();

  const core::CompileResult fresh =
      core::compile_sharded(circuit, opt, shard);
  ASSERT_TRUE(fresh.routed_legal);
  const std::vector<fs::path> files = checkpoint_files();
  ASSERT_GE(files.size(), 2u);
  {  // Truncate one record mid-stream, scribble over another.
    std::ofstream(files[0], std::ios::trunc) << "tqecck 1\ndigest feed";
    std::ofstream(files[1], std::ios::trunc) << "not a checkpoint\n";
  }
  const core::CompileResult resumed =
      core::compile_sharded(circuit, opt, shard);
  EXPECT_TRUE(resumed.routed_legal);
  EXPECT_EQ(resumed.shard.windows_resumed, fresh.shard.windows_total - 2);
  EXPECT_EQ(geom::to_json(resumed.geometry),
            geom::to_json(fresh.geometry));

  // Well-formed records carrying values their fields cannot hold: a
  // non-finite timing, a non-finite attempt time, a count past int's
  // range. Each must fail soft (the window recompiles and its record is
  // rewritten), never load.
  const struct {
    const char* keyword;
    std::size_t token;
    const char* value;
  } poisons[] = {
      {"timings", 1, "nan"},
      {"attempt", 5, "inf"},
      {"counts", 1, "2147483648"},
  };
  for (const auto& poison : poisons) {
    SCOPED_TRACE(poison.keyword);
    std::ifstream in(files[0]);
    std::string record, line;
    bool replaced = false;
    while (std::getline(in, line)) {
      std::vector<std::string> tokens = split_ws(line);
      if (!tokens.empty() && tokens[0] == poison.keyword) {
        ASSERT_GT(tokens.size(), poison.token);
        tokens[poison.token] = poison.value;
        line = tokens[0];
        for (std::size_t i = 1; i < tokens.size(); ++i) line += " " + tokens[i];
        replaced = true;
      }
      record += line + "\n";
    }
    in.close();
    ASSERT_TRUE(replaced);
    std::ofstream(files[0], std::ios::trunc) << record;
    const core::CompileResult again =
        core::compile_sharded(circuit, opt, shard);
    EXPECT_TRUE(again.routed_legal);
    EXPECT_EQ(again.shard.windows_resumed, fresh.shard.windows_total - 1);
    EXPECT_EQ(geom::to_json(again.geometry), geom::to_json(fresh.geometry));
  }
}

TEST_F(CheckpointTest, OptionChangeInvalidatesRecords) {
  const icm::IcmCircuit circuit = layered_circuit();
  core::CompileOptions opt = fast_options();
  core::ShardOptions shard;
  shard.window = 4;
  shard.checkpoint_dir = dir_.string();

  core::compile_sharded(circuit, opt, shard);
  opt.seed = 8;  // result-affecting: every digest changes
  const core::CompileResult other =
      core::compile_sharded(circuit, opt, shard);
  EXPECT_EQ(other.shard.windows_resumed, 0);
}

// ---------------------------------------------------------------------------
// Layered workload family

TEST(LayeredWorkloadTest, DeterministicAndSeedSensitive) {
  const std::string a = icm::to_icm_text(layered_circuit(7));
  const std::string b = icm::to_icm_text(layered_circuit(7));
  const std::string c = icm::to_icm_text(layered_circuit(8));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(LayeredWorkloadTest, ParseNameGrammar) {
  icm::LayeredWorkloadSpec spec;
  spec.seed = 42;
  ASSERT_TRUE(icm::parse_layered_name("long_8x12", spec));
  EXPECT_EQ(spec.data_lines, 8);
  EXPECT_EQ(spec.layers, 12);
  EXPECT_EQ(spec.seed, 42u);  // no _s suffix: request seed inherited

  ASSERT_TRUE(icm::parse_layered_name("long_16x24_t2_c6_w4_s5", spec));
  EXPECT_EQ(spec.data_lines, 16);
  EXPECT_EQ(spec.layers, 24);
  EXPECT_EQ(spec.t_per_layer, 2);
  EXPECT_EQ(spec.cnots_per_layer, 6);
  EXPECT_EQ(spec.locality_window, 4);
  EXPECT_EQ(spec.seed, 5u);

  for (const char* bad : {"long_x12", "long_8x", "long_8x12_q3", "ham15",
                          "long_0x4", "long_8x12x3"})
    EXPECT_FALSE(icm::parse_layered_name(bad, spec)) << bad;
}

// ---------------------------------------------------------------------------
// Observability

TEST(ShardObservabilityTest, PeakRssAndGaugesPublished) {
  const icm::IcmCircuit circuit = layered_circuit();
  const core::CompileOptions opt = fast_options();
  core::ShardOptions shard;
  shard.window = 4;

  trace::set_enabled(true);
  const core::CompileResult r = core::compile_sharded(circuit, opt, shard);
  trace::set_enabled(false);

  EXPECT_GT(r.peak_rss_bytes, 0u);
  bool saw_rss = false, saw_windows = false;
  for (const auto& [name, value] : r.metrics.gauges) {
    if (name == "process.peak_rss_bytes") saw_rss = value > 0;
    if (name == "shard.windows_total")
      saw_windows = value == r.shard.windows_total;
  }
  EXPECT_TRUE(saw_rss);
  EXPECT_TRUE(saw_windows);

  // The stats_json document stays parseable with the shard section in it.
  const std::string json = core::stats_json(r);
  EXPECT_NE(json.find("\"shard\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_rss_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace tqec
