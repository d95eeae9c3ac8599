// Data-oriented geometry engine: CellGrid / IntervalOccupancy /
// OccupancyGrid pitted against a hash-set reference model on random
// segment soups, pinned validate issue text on broken soups, and the
// stitcher's hash-engine fallback for frames too large for the grid.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "geom/cell_grid.h"
#include "geom/stitch.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec {
namespace {

// ---------------------------------------------------------------------------
// Reference model: per-plane hash sets (what every consumer used before
// the grid engine).

struct HashModel {
  std::unordered_set<Vec3> planes[2];

  /// Mirror of set_segment: returns newly set count; appends already-set
  /// cells to `collisions` in the documented order — x-runs in ascending
  /// x regardless of endpoint order (the grid scans words left to right),
  /// y/z runs in run order from a to b.
  std::int64_t set_segment(int plane, const geom::Segment& s,
                           std::vector<Vec3>* collisions = nullptr) {
    std::int64_t fresh = 0;
    for_each_cell(s, [&](Vec3 p) {
      if (planes[plane].insert(p).second) {
        ++fresh;
      } else if (collisions != nullptr) {
        collisions->push_back(p);
      }
    });
    return fresh;
  }

  template <typename Fn>
  static void for_each_cell(const geom::Segment& s, Fn&& fn) {
    if (s.a.x != s.b.x) {  // x-run: always ascending
      for (int x = std::min(s.a.x, s.b.x); x <= std::max(s.a.x, s.b.x); ++x)
        fn(Vec3{x, s.a.y, s.a.z});
      return;
    }
    // y/z run (or a single cell): step from a to b in run direction.
    const Vec3 d{0, s.b.y > s.a.y ? 1 : s.b.y < s.a.y ? -1 : 0,
                 s.b.z > s.a.z ? 1 : s.b.z < s.a.z ? -1 : 0};
    Vec3 p = s.a;
    while (true) {
      fn(p);
      if (p == s.b) break;
      p = p + d;
    }
  }
};

geom::Segment random_segment(Rng& rng, const Box3& box, int max_len) {
  const Vec3 a{rng.range(box.lo.x, box.hi.x), rng.range(box.lo.y, box.hi.y),
               rng.range(box.lo.z, box.hi.z)};
  Vec3 b = a;
  const int axis = rng.range(0, 2);
  const int len = rng.range(0, max_len);
  int& c = axis == 0 ? b.x : axis == 1 ? b.y : b.z;
  const int cap = axis == 0 ? box.hi.x : axis == 1 ? box.hi.y : box.hi.z;
  c = std::min(c + len, cap);
  // Half the runs descending, to exercise either endpoint order.
  return rng.range(0, 1) ? geom::Segment{a, b} : geom::Segment{b, a};
}

class CellGridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CellGridSweep, MatchesHashReference) {
  Rng rng(GetParam());
  const Box3 bounds{{-20, -20, -20}, {45, 25, 25}};
  geom::CellGrid grid(bounds, 2);
  HashModel ref;

  for (int trial = 0; trial < 120; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 70);
    const int plane = rng.range(0, 1);
    std::vector<Vec3> grid_coll, ref_coll;
    const std::int64_t grid_fresh = grid.set_segment(plane, s, &grid_coll);
    const std::int64_t ref_fresh = ref.set_segment(plane, s, &ref_coll);
    EXPECT_EQ(grid_fresh, ref_fresh) << "trial " << trial;
    EXPECT_EQ(grid_coll, ref_coll) << "trial " << trial;
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(grid.popcount(plane),
              static_cast<std::int64_t>(ref.planes[plane].size()));
  }
  // Point probes: every reference cell tests set, random cells agree.
  for (int plane = 0; plane < 2; ++plane)
    for (const Vec3& p : ref.planes[plane])
      EXPECT_TRUE(grid.test(plane, p)) << p;
  for (int probe = 0; probe < 500; ++probe) {
    const Vec3 p{rng.range(-25, 50), rng.range(-25, 30), rng.range(-25, 30)};
    const int plane = rng.range(0, 1);
    EXPECT_EQ(grid.test(plane, p), ref.planes[plane].count(p) != 0) << p;
  }
  // Out-of-bounds cells are never occupied.
  EXPECT_FALSE(grid.test(0, {bounds.lo.x - 1, 0, 0}));
  EXPECT_FALSE(grid.test(1, {0, bounds.hi.y + 1, 0}));
}

TEST_P(CellGridSweep, ClearSegmentAndClearAll) {
  Rng rng(GetParam());
  const Box3 bounds{{0, 0, 0}, {80, 12, 12}};
  geom::CellGrid grid(bounds, 2);
  HashModel ref;
  std::vector<std::pair<int, geom::Segment>> placed;
  for (int trial = 0; trial < 60; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 30);
    const int plane = rng.range(0, 1);
    grid.set_segment(plane, s);
    ref.set_segment(plane, s);
    placed.emplace_back(plane, s);
  }
  // Clear a random half; bit semantics — a cell clears no matter how many
  // segments set it, so mirror with an erase.
  for (const auto& [plane, s] : placed) {
    if (rng.range(0, 1) == 0) continue;
    grid.clear_segment(plane, s);
    HashModel::for_each_cell(s, [&, p = plane](Vec3 c) {
      ref.planes[p].erase(c);
    });
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(grid.popcount(plane),
              static_cast<std::int64_t>(ref.planes[plane].size()));
    for (const Vec3& p : ref.planes[plane]) EXPECT_TRUE(grid.test(plane, p));
  }
  for (int probe = 0; probe < 400; ++probe) {
    const Vec3 p{rng.range(0, 80), rng.range(0, 12), rng.range(0, 12)};
    const int plane = rng.range(0, 1);
    EXPECT_EQ(grid.test(plane, p), ref.planes[plane].count(p) != 0) << p;
  }
  grid.clear_all();
  EXPECT_EQ(grid.popcount(0), 0);
  EXPECT_EQ(grid.popcount(1), 0);
}

TEST_P(CellGridSweep, IntervalAndWrapperAgreeWithDense) {
  Rng rng(GetParam());
  const Box3 bounds{{-10, -10, -10}, {60, 15, 15}};
  geom::CellGrid dense(bounds, 2);
  geom::IntervalOccupancy sparse(bounds, 2);
  geom::OccupancyGrid forced_sparse(bounds, 2, /*dense_byte_cap=*/1);
  geom::OccupancyGrid auto_dense(bounds, 2);
  EXPECT_FALSE(forced_sparse.dense());
  EXPECT_TRUE(auto_dense.dense());

  for (int trial = 0; trial < 100; ++trial) {
    const geom::Segment s = random_segment(rng, bounds, 50);
    const int plane = rng.range(0, 1);
    std::vector<Vec3> c0, c1, c2, c3;
    const std::int64_t f0 = dense.set_segment(plane, s, &c0);
    const std::int64_t f1 = sparse.set_segment(plane, s, &c1);
    const std::int64_t f2 = forced_sparse.set_segment(plane, s, &c2);
    const std::int64_t f3 = auto_dense.set_segment(plane, s, &c3);
    EXPECT_EQ(f0, f1) << "trial " << trial;
    EXPECT_EQ(f0, f2) << "trial " << trial;
    EXPECT_EQ(f0, f3) << "trial " << trial;
    EXPECT_EQ(c0, c1) << "trial " << trial;
    EXPECT_EQ(c0, c2) << "trial " << trial;
    EXPECT_EQ(c0, c3) << "trial " << trial;
  }
  for (int plane = 0; plane < 2; ++plane) {
    EXPECT_EQ(dense.popcount(plane), sparse.popcount(plane));
    EXPECT_EQ(dense.popcount(plane), forced_sparse.popcount(plane));
    EXPECT_EQ(dense.popcount(plane), auto_dense.popcount(plane));
  }
  for (int probe = 0; probe < 600; ++probe) {
    const Vec3 p{rng.range(-12, 62), rng.range(-12, 17), rng.range(-12, 17)};
    const int plane = rng.range(0, 1);
    const bool want = dense.test(plane, p);
    EXPECT_EQ(sparse.test(plane, p), want) << p;
    EXPECT_EQ(forced_sparse.test(plane, p), want) << p;
    EXPECT_EQ(auto_dense.test(plane, p), want) << p;
  }
  // The sparse rows of a soup this size undercut the dense planes.
  EXPECT_GT(dense.byte_size(), 0);
  EXPECT_GT(sparse.byte_size(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellGridSweep,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// exact_cell_count: grid popcount vs the per-segment upper bound.

TEST(ExactCellCountTest, GridPopcountDedupesSharedCorners) {
  geom::GeomDescription g("corners");
  geom::Defect d;
  d.type = geom::DefectType::Primal;
  // An L: the corner cell (5,0,0) belongs to both segments.
  d.segments.push_back({{0, 0, 0}, {5, 0, 0}});
  d.segments.push_back({{5, 0, 0}, {5, 0, 4}});
  g.add_defect(d);
  EXPECT_EQ(g.defect_cell_count(), 11);  // 6 + 5, corner double-counted
  EXPECT_EQ(g.exact_cell_count(), 10);

  // A dual defect over the same coordinates lives on the other plane and
  // counts separately (half-offset sublattices).
  d.type = geom::DefectType::Dual;
  g.add_defect(d);
  EXPECT_EQ(g.exact_cell_count(), 20);
}

// ---------------------------------------------------------------------------
// Validate: the grid engine accepts real compiled geometry, and on broken
// geometry reports every shared cell in the pinned text and order.

std::string report_text(const geom::ValidationReport& r) {
  std::string s;
  for (const geom::ValidationIssue& i : r.issues)
    s += "[" + i.rule + "] " + i.detail + "\n";
  return s;
}

class ValidateBenchmark : public ::testing::TestWithParam<const char*> {};

TEST_P(ValidateBenchmark, GridEngineValidatesCompiledGeometry) {
  const core::PaperBenchmark& bench = core::paper_benchmark(GetParam());
  const icm::IcmCircuit circuit =
      icm::make_workload(core::workload_spec(bench));
  core::CompileOptions opt;
  opt.seed = 7;
  const core::CompileResult r = core::compile(circuit, opt);
  ASSERT_TRUE(r.routed_legal);

  const geom::ValidationReport report = geom::validate(r.geometry);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.grid_bytes, 0);  // the grid engine really ran
}

INSTANTIATE_TEST_SUITE_P(PaperBenchmarks, ValidateBenchmark,
                         ::testing::Values("4gt10-v1_81", "4gt4-v0_73"));

TEST(ValidateIssuesTest, BrokenSoupsReportPinnedIssues) {
  // Random walks in a deliberately tight box: plenty of same-type overlap,
  // so the conflict path (grid detects, the hash pass reports) runs, not
  // just the clean fast path. Seed 7 conflicts on both sublattices.
  const std::pair<std::uint64_t, const char*> cases[] = {
      {5,
       "[V3] primal defects 2 and 8 share cell (0,6,2)\n"
       "[V3] primal defects 0 and 8 share cell (0,7,0)\n"},
      {6,
       "[V3] dual defects 4 and 6 share cell (4,6,3)\n"
       "[V3] dual defects 4 and 6 share cell (4,6,2)\n"
       "[V3] dual defects 4 and 6 share cell (4,6,1)\n"
       "[V3] dual defects 1 and 7 share cell (4,1,6)\n"
       "[V3] dual defects 5 and 9 share cell (4,6,5)\n"},
      {7,
       "[V3] primal defects 1 and 6 share cell (6,0,1)\n"
       "[V3] primal defects 1 and 6 share cell (5,0,1)\n"
       "[V3] dual defects 2 and 8 share cell (0,4,2)\n"
       "[V3] dual defects 2 and 8 share cell (0,4,3)\n"
       "[V3] dual defects 2 and 8 share cell (0,4,4)\n"},
      {8,
       "[V3] primal defects 0 and 4 share cell (2,5,5)\n"
       "[V3] primal defects 0 and 6 share cell (1,5,5)\n"
       "[V3] primal defects 4 and 6 share cell (2,5,5)\n"},
  };
  for (const auto& [seed, expected] : cases) {
    Rng rng(seed);
    geom::GeomDescription g("soup" + std::to_string(seed));
    for (int d = 0; d < 10; ++d) {
      geom::Defect defect;
      defect.type = rng.range(0, 1) ? geom::DefectType::Primal
                                    : geom::DefectType::Dual;
      defect.source_id = d;
      Vec3 at{rng.range(0, 6), rng.range(0, 6), rng.range(0, 6)};
      for (int step = 0; step < 5; ++step) {
        Vec3 to = at;
        const int axis = rng.range(0, 2);
        int& c = axis == 0 ? to.x : axis == 1 ? to.y : to.z;
        c += rng.range(1, 3) * (rng.range(0, 1) ? 1 : -1);
        defect.segments.push_back({at, to});
        at = to;
      }
      g.add_defect(defect);
    }
    EXPECT_EQ(report_text(geom::validate(g)), expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Stitch fallback: a frame too large for the dense grid is carried by the
// hash engine, with the same seams the grid engine carves.

/// Compile each window of a long_* workload the way the shard pipeline
/// does: normalize to the origin, carry cells from the first/last module
/// of each carry line.
struct ShardedWindows {
  std::string name;
  std::vector<geom::GeomDescription> geoms;
  std::vector<std::vector<std::pair<int, Vec3>>> carry_in, carry_out;

  std::vector<geom::StitchWindow> windows() const {
    std::vector<geom::StitchWindow> out(geoms.size());
    for (std::size_t w = 0; w < geoms.size(); ++w) {
      out[w].geometry = &geoms[w];
      out[w].carry_in = carry_in[w];
      out[w].carry_out = carry_out[w];
    }
    return out;
  }
};

ShardedWindows long_workload_windows() {
  icm::LayeredWorkloadSpec spec;
  spec.name = "long_8x16_t1_c2";
  spec.data_lines = 8;
  spec.layers = 16;
  spec.t_per_layer = 1;
  spec.cnots_per_layer = 2;
  spec.seed = 7;
  const icm::IcmCircuit circuit = icm::make_layered_workload(spec);
  const core::ShardPlan plan = core::plan_windows(circuit, 4);
  const std::size_t n = plan.windows.size();

  ShardedWindows out;
  out.name = circuit.name();
  out.geoms.resize(n);
  out.carry_in.resize(n);
  out.carry_out.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    core::CompileOptions wopt;
    wopt.seed = 7;
    wopt.keep_internals = true;
    const core::CompileResult r = core::compile(
        core::extract_window(circuit, plan, static_cast<int>(w)), wopt);
    EXPECT_TRUE(r.routed_legal) << "window " << w;
    const Box3 bb = r.geometry.bounding_box();
    const Vec3 lo = bb.empty() ? Vec3{0, 0, 0} : bb.lo;
    out.geoms[w] = r.geometry;
    out.geoms[w].translate({-lo.x, -lo.y, -lo.z});
    const auto& rows = r.internals->graph.rows();
    const auto& module_cell = r.placement.module_cell;
    const core::WindowPlan& wp = plan.windows[w];
    for (std::size_t i = 0; i < wp.lines.size(); ++i) {
      if (wp.carry_in[i])
        out.carry_in[w].emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(rows[i].front())] - lo);
      if (wp.carry_out[i])
        out.carry_out[w].emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(rows[i].back())] - lo);
    }
  }
  return out;
}

TEST(StitchFallbackTest, OversizedFrameCarvesTheGridEngineSeams) {
  ShardedWindows sharded = long_workload_windows();
  ASSERT_GE(sharded.geoms.size(), 2u);
  const geom::StitchResult grid =
      geom::stitch_windows(sharded.windows(), sharded.name);
  ASSERT_TRUE(grid.ok()) << grid.issues.front();
  EXPECT_GT(grid.grid_bytes, 0);

  // One isolated single-cell defect far below the last window stretches
  // the merged frame far past the dense grid's byte cap. No seam region
  // reaches below y = -max_attempts, so the seams cannot see it.
  const geom::Segment far{{0, -(1 << 22), 0}, {0, -(1 << 22), 0}};
  sharded.geoms.back().add_defect(geom::DefectType::Dual, -1,
                                  std::span<const geom::Segment>(&far, 1));
  const geom::StitchResult hash =
      geom::stitch_windows(sharded.windows(), sharded.name);
  ASSERT_TRUE(hash.ok()) << hash.issues.front();
  EXPECT_EQ(hash.grid_bytes, 0);  // the hash engine carried the seams
  const geom::ValidationReport report = geom::validate(hash.geometry);
  EXPECT_TRUE(report.ok()) << report.summary();

  // Same seams: the far defect is staged last and merges with nothing, so
  // the fallback result is the grid result plus that defect, moved by the
  // last window's offset.
  EXPECT_EQ(hash.window_offsets, grid.window_offsets);
  EXPECT_EQ(hash.stitches, grid.stitches);
  EXPECT_EQ(hash.seam_cells, grid.seam_cells);
  EXPECT_EQ(hash.interface_pins, grid.interface_pins);
  geom::GeomDescription expected = grid.geometry;
  const Vec3 shift{grid.window_offsets.back(), 0, 0};
  const geom::Segment moved{far.a + shift, far.b + shift};
  expected.add_defect(geom::DefectType::Dual, -1,
                      std::span<const geom::Segment>(&moved, 1));
  EXPECT_EQ(geom::to_json(hash.geometry), geom::to_json(expected));
}

}  // namespace
}  // namespace tqec
