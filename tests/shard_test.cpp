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
#include <string_view>
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

  /// Rewrite a record in place: `edit` sees each non-blank line's tokens
  /// and returns whether it changed them. Returns the lines changed.
  template <typename Edit>
  static int rewrite_record(const fs::path& file, Edit edit) {
    std::ifstream in(file);
    std::string record, line;
    int edited = 0;
    while (std::getline(in, line)) {
      std::vector<std::string> tokens = split_ws(line);
      if (!tokens.empty() && edit(tokens)) {
        line = tokens[0];
        for (std::size_t i = 1; i < tokens.size(); ++i) line += " " + tokens[i];
        ++edited;
      }
      record += line + "\n";
    }
    in.close();
    std::ofstream(file, std::ios::trunc) << record;
    return edited;
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

  // Every scalar of every attempt survives its checkpoint record
  // bit-exact: the fully resumed run reports the fresh run's work, and
  // the wall-clock times of whichever run compiled each window last (the
  // partial run recompiled the deleted ones).
  core::visit_count_fields(
      [](const char* name, int got, int want) { EXPECT_EQ(got, want) << name; },
      full, fresh);
  ASSERT_EQ(full.timings.attempts.size(), fresh.timings.attempts.size());
  ASSERT_EQ(resumed.timings.attempts.size(), fresh.timings.attempts.size());
  for (std::size_t k = 0; k < full.timings.attempts.size(); ++k) {
    SCOPED_TRACE("window " + std::to_string(k));
    core::visit_attempt_fields(
        [](const char* name, const auto& got, const auto& last,
           const auto& first) {
          EXPECT_EQ(got, last) << name;
          const std::string_view n(name);
          if (!n.ends_with("_s") && !n.ends_with("_per_sec")) {
            EXPECT_EQ(got, first) << name;
          }
        },
        full.timings.attempts[k], resumed.timings.attempts[k],
        fresh.timings.attempts[k]);
  }
  std::int64_t pops = 0;
  for (const core::PlaceAttemptStats& a : full.timings.attempts)
    pops += a.route_queue_pops;
  EXPECT_GT(pops, 0);
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
  const auto expect_one_recompiled = [&] {
    const core::CompileResult again =
        core::compile_sharded(circuit, opt, shard);
    EXPECT_TRUE(again.routed_legal);
    EXPECT_EQ(again.shard.windows_resumed, fresh.shard.windows_total - 1);
    EXPECT_EQ(geom::to_json(again.geometry), geom::to_json(fresh.geometry));
  };
  for (const auto& poison : poisons) {
    SCOPED_TRACE(poison.keyword);
    ASSERT_EQ(rewrite_record(files[0],
                             [&](std::vector<std::string>& t) {
                               if (t[0] != poison.keyword ||
                                   t.size() <= poison.token)
                                 return false;
                               t[poison.token] = poison.value;
                               return true;
                             }),
              1);
    expect_one_recompiled();
  }

  // A well-formed record of the previous format version: a `tqecck 4`
  // header and four more attempt tokens (version 4's attempt line also
  // held the tempering fields sa_replicas, sa_selected_replica,
  // sa_exchanges_attempted and sa_exchanges_accepted). It must fail soft
  // and be rewritten at version 5.
  ASSERT_EQ(rewrite_record(files[0],
                           [](std::vector<std::string>& t) {
                             if (t[0] == "tqecck" && t.size() == 2)
                               t[1] = "4";
                             else if (t[0] == "attempt" && t.size() > 4)
                               t.insert(t.end(), {"1", "0", "0", "0"});
                             else
                               return false;
                             return true;
                           }),
            2);
  expect_one_recompiled();
  std::ifstream rewritten(files[0]);
  std::string header;
  std::getline(rewritten, header);
  EXPECT_EQ(header, "tqecck 5");
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

// The record names carry each window's digest, which hashes the options
// fingerprint: a change to that text orphans every existing checkpoint.
TEST_F(CheckpointTest, FileNamesArePinned) {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x16_t1_c2";
  spec.data_lines = 8;
  spec.layers = 16;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = 7;
  core::ShardOptions shard;
  shard.window = 4;
  shard.checkpoint_dir = dir_.string();
  const core::CompileResult r = core::compile_sharded(
      icm::make_layered_workload(spec), fast_options(), shard);
  ASSERT_TRUE(r.routed_legal);
  std::vector<std::string> names;
  for (const fs::path& f : checkpoint_files())
    names.push_back(f.filename().string());
  const std::vector<std::string> want = {
      "win0_ec2eb511b8335e08b292cae62a3d7fc5.tqecck",
      "win10_d94972c5a7b6eced44fdb8175f797d10.tqecck",
      "win11_765f5dc8b3f54f5056b516e47e5afae9.tqecck",
      "win12_f384f53618e8d5d1b9891634e909bd30.tqecck",
      "win13_9aaae28e598d211e278a71d2bf0b1e39.tqecck",
      "win14_eee1a4d34961c73b6ce5a9490d47d538.tqecck",
      "win1_f42d1fafe093b4856648c40b0306999a.tqecck",
      "win2_1305bee313c317ce1ca8a6f4fbdbfbe1.tqecck",
      "win3_651fd527b0606c5030424e6c0a548599.tqecck",
      "win4_de9e4160a14ac0797289677d76a0a7aa.tqecck",
      "win5_139fbe839166ca309fe94117ff966591.tqecck",
      "win6_6a53208b6508f46eb7b8dbb04a84bef3.tqecck",
      "win7_49d37b44c6c0e1413d7eae06fa35fb4c.tqecck",
      "win8_5ef540f34edeac894356e38f58c7b4fe.tqecck",
      "win9_0ba4430d9fc7939e5c13e3a363d280f1.tqecck",
  };
  EXPECT_EQ(names, want);
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
