// Golden results: exact outcomes of the default pipeline at seed 7 on a
// few paper benchmarks and one sharded layered workload. Compaction has no
// optimum to check against (it is provably hard), so recorded results are
// the oracle: any change to volume, bounding dims, escalation level, the
// deterministic work counters (A* queue pops, reroutes, SA repacked
// nodes), or a single byte of the geometry JSON fails here. The counters
// are pure functions of the schedule, so they hold in every build type.
//
// A deliberate behaviour change must update the table below, with the new
// values recorded from the changed code and the reason in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/hash.h"
#include "common/trace.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec {
namespace {

struct Golden {
  std::int64_t volume;
  Vec3 dims;
  int y_gap;
  std::int64_t queue_pops;
  std::int64_t reroutes;
  std::int64_t repacked_nodes;
  std::uint64_t digest_lo;
  std::uint64_t digest_hi;
};

/// What a run produced, in Golden's shape. Work counters sum over the
/// selected attempt of every window (one window when unsharded); y_gap is
/// the largest escalation level any selected attempt needed.
Golden observe(const core::CompileResult& r) {
  Golden g{};
  g.volume = r.volume;
  g.dims = r.geometry.bounding_box().dims();
  for (const core::PlaceAttemptStats& a : r.timings.attempts) {
    if (!a.selected) continue;
    g.y_gap = std::max(g.y_gap, a.y_gap);
    g.queue_pops += a.route_queue_pops;
    g.reroutes += a.route_reroutes;
    g.repacked_nodes += a.sa_repacked_nodes;
  }
  Digest128 d;
  d.update(geom::to_json(r.geometry));
  g.digest_lo = d.lo;
  g.digest_hi = d.hi;
  return g;
}

std::string row(const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{%" PRId64 ", {%d, %d, %d}, %d, %" PRId64 ", %" PRId64
                ", %" PRId64 ", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}",
                g.volume, g.dims.x, g.dims.y, g.dims.z, g.y_gap, g.queue_pops,
                g.reroutes, g.repacked_nodes, g.digest_lo, g.digest_hi);
  return buf;
}

void expect_golden(const core::CompileResult& r, const Golden& want) {
  ASSERT_TRUE(r.routed_legal);
  EXPECT_TRUE(geom::validate(r.geometry).ok());
  const Golden got = observe(r);
  // The whole observed row is printed on failure so a deliberate update
  // can paste it back into the table.
  SCOPED_TRACE("observed: " + row(got));
  EXPECT_EQ(got.volume, want.volume);
  EXPECT_EQ(got.dims, want.dims);
  EXPECT_EQ(got.y_gap, want.y_gap);
  EXPECT_EQ(got.queue_pops, want.queue_pops);
  EXPECT_EQ(got.reroutes, want.reroutes);
  EXPECT_EQ(got.repacked_nodes, want.repacked_nodes);
  EXPECT_EQ(got.digest_lo, want.digest_lo);
  EXPECT_EQ(got.digest_hi, want.digest_hi);
}

core::CompileResult compile_paper(const char* name, core::PipelineMode mode,
                                  int jobs = 1) {
  const icm::IcmCircuit circuit = icm::make_workload(
      core::workload_spec(core::paper_benchmark(name)));
  core::CompileOptions opt;
  opt.mode = mode;
  opt.seed = 7;
  opt.jobs = jobs;
  return core::compile(circuit, opt);
}

// Rows that the jobs >= 2 cases below must reproduce exactly: there the
// y-gap levels run concurrently instead of in order.
constexpr Golden kFull_4gt10_v1_81 = {14256, {18, 22, 36}, 0, 5719, 50, 95045,
                                      0x7d8084a6336b19acull,
                                      0xfeaed0adb54e07b5ull};
constexpr Golden kFull_rd84_142 = {145824, {31, 84, 56}, 1, 346423, 382,
                                   620901, 0xb0919af10560c495ull,
                                   0xb98805185c35b0a0ull};

TEST(GoldenTest, Full_4gt10_v1_81) {
  expect_golden(compile_paper("4gt10-v1_81", core::PipelineMode::Full),
                kFull_4gt10_v1_81);
}

TEST(GoldenTest, Full_4gt4_v0_73) {
  expect_golden(compile_paper("4gt4-v0_73", core::PipelineMode::Full),
                {28700, {20, 35, 41}, 0, 42862, 178, 181643,
                 0xc23bad9a0bb75857ull, 0xbc55b248d0c40cecull});
}

TEST(GoldenTest, Full_rd84_142_EscalatesToYGap1) {
  expect_golden(compile_paper("rd84_142", core::PipelineMode::Full),
                kFull_rd84_142);
}

// Three more rows whose y-gap 0 level cannot be legalized, so each keeps
// its y-gap 1 level.
TEST(GoldenTest, Full_hwb5_53_EscalatesToYGap1) {
  expect_golden(compile_paper("hwb5_53", core::PipelineMode::Full),
                {274360, {38, 95, 76}, 1, 1995218, 549, 691918,
                 0xf81310bc9e9536eaull, 0xb78977afc5f903dbull});
}

TEST(GoldenTest, Full_add16_174_EscalatesToYGap1) {
  expect_golden(compile_paper("add16_174", core::PipelineMode::Full),
                {285798, {38, 109, 69}, 1, 4247993, 632, 754431,
                 0x9d1db5f2b2209e7aull, 0xdf1d262344ae2531ull});
}

TEST(GoldenTest, Full_sym6_145_EscalatesToYGap1) {
  expect_golden(compile_paper("sym6_145", core::PipelineMode::Full),
                {341991, {39, 111, 79}, 1, 5951648, 722, 758280,
                 0xab93de60b5d8dd85ull, 0x2bd3084d9199bd1eull});
}

// Speculative escalation: y-gap 0 is legal, so the concurrent y-gap 1
// level is stopped (or, had it finished first, dropped).
TEST(GoldenTest, Full_4gt10_v1_81_Jobs2And4MatchJobs1) {
  for (const int jobs : {2, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_golden(compile_paper("4gt10-v1_81", core::PipelineMode::Full, jobs),
                  kFull_4gt10_v1_81);
  }
}

// Speculative escalation: y-gap 0 is illegal, so the concurrent y-gap 1
// level is kept.
TEST(GoldenTest, Full_rd84_142_Jobs2And4MatchJobs1) {
  for (const int jobs : {2, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_golden(compile_paper("rd84_142", core::PipelineMode::Full, jobs),
                  kFull_rd84_142);
  }
}

TEST(GoldenTest, DualOnly_4gt10_v1_81) {
  expect_golden(compile_paper("4gt10-v1_81", core::PipelineMode::DualOnly),
                {18144, {21, 32, 27}, 0, 5506, 9, 941176,
                 0x58653e5cbf1b7afdull, 0xb7b9ddeab4a67a0eull});
}

TEST(GoldenTest, DualOnly_hwb5_53) {
  expect_golden(compile_paper("hwb5_53", core::PipelineMode::DualOnly),
                {519480, {30, 111, 156}, 0, 10023017, 155, 4254876,
                 0x3ec6be1169946212ull, 0x968198a089bb29f7ull});
}

// The third pipeline mode: no bridging, every net its own component.
// Hard-block repair legalizes its negotiation, so the result must report
// no overused cell.
TEST(GoldenTest, ModularOnly_4gt10_v1_81) {
  const core::CompileResult r =
      compile_paper("4gt10-v1_81", core::PipelineMode::ModularOnly);
  expect_golden(r, {20880, {24, 30, 29}, 0, 21827, 633, 994231,
                    0x1e7814069f2f0878ull, 0x2e7cb3488e3471e9ull});
  EXPECT_GT(r.routing.repair_awarded, 0);
  EXPECT_EQ(r.routing.overused_cells, 0);
  ASSERT_EQ(r.timings.attempts.size(), 1u);
  EXPECT_EQ(r.timings.attempts[0].route_overused, 0);
}

long long counter(const trace::MetricsSnapshot& m, const char* name) {
  for (const auto& [key, value] : m.counters)
    if (key == name) return value;
  return -1;
}

// The rows above see only the kept level. The trace counters sum every
// level a compile runs, so this pins rd84_142's discarded y-gap 0 level
// too: the doom test abandons it after 6 negotiation iterations.
TEST(GoldenTest, Full_rd84_142_AllLevelRouteCounters) {
  trace::set_enabled(true);
  const core::CompileResult r =
      compile_paper("rd84_142", core::PipelineMode::Full);
  trace::set_enabled(false);
  trace::reset_metrics();
  trace::reset_events();
  expect_golden(r, kFull_rd84_142);
  EXPECT_EQ(counter(r.metrics, "route.queue_pops"), 702615);
  EXPECT_EQ(counter(r.metrics, "route.connects"), 22800);
}

TEST(GoldenTest, Sharded_long_8x16_t1_c2_Window4) {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x16_t1_c2";
  spec.data_lines = 8;
  spec.layers = 16;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = 7;
  core::CompileOptions opt;
  opt.seed = 7;
  core::ShardOptions shard;
  shard.window = 4;
  const core::CompileResult r =
      core::compile_sharded(icm::make_layered_workload(spec), opt, shard);
  EXPECT_TRUE(r.shard.issues.empty()) << r.shard.issues.front();
  expect_golden(r, {54080, {260, 13, 16}, 0, 543, 53, 106940,
                    0xa9c6108363e8e12eull, 0x04f138bbb6adfbe9ull});
}

// The sharded benchmark row (`tqec_compress benchmark long_16x128_t1_c3
// --shard-window=8`): besides the usual fields, the shard plan and stitch
// work are pinned exactly, so a change to windowing or seams shows here
// rather than as a wall-clock ratio.
TEST(GoldenTest, Sharded_long_16x128_t1_c3_Window8) {
  icm::LayeredWorkloadSpec spec;
  spec.seed = 7;
  ASSERT_TRUE(icm::parse_layered_name("long_16x128_t1_c3", spec));
  core::CompileOptions opt;
  opt.seed = 7;
  core::ShardOptions shard;
  shard.window = 8;
  const core::CompileResult r =
      core::compile_sharded(icm::make_layered_workload(spec), opt, shard);
  EXPECT_TRUE(r.shard.issues.empty()) << r.shard.issues.front();
  expect_golden(r, {475104, {707, 21, 32}, 0, 11854, 203, 628967,
                    0xddcb950e11772076ull, 0xd92ba52cc73cfc2dull});
  EXPECT_EQ(r.shard.windows_total, 36);
  EXPECT_EQ(r.shard.windows_reseeded, 0);
  EXPECT_EQ(r.shard.crossings, 539);
  EXPECT_EQ(r.shard.stitches, 539);
  EXPECT_EQ(r.shard.seam_cells, 21842);
}

}  // namespace
}  // namespace tqec
