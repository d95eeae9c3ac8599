// Tests for the geometric-description layer: volume accounting, the
// canonical builder (calibrated against the paper's Table 2), the
// structural validator, and Gauss linking numbers.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/rng.h"
#include "common/union_find.h"
#include "core/paper_tables.h"
#include "geom/canonical.h"
#include "geom/cell_grid.h"
#include "geom/geometry.h"
#include "geom/linking.h"
#include "geom/validate.h"
#include "icm/workload.h"

namespace tqec::geom {
namespace {

TEST(GeometryTest, SegmentBasics) {
  const Segment s{{0, 0, 0}, {4, 0, 0}};
  EXPECT_TRUE(s.axis_aligned());
  EXPECT_EQ(s.length(), 5);
  EXPECT_EQ(s.box().volume(), 5);
  const Segment diag{{0, 0, 0}, {1, 1, 0}};
  EXPECT_FALSE(diag.axis_aligned());
  const Segment cell{{2, 2, 2}, {2, 2, 2}};
  EXPECT_TRUE(cell.axis_aligned());
  EXPECT_EQ(cell.length(), 1);
}

TEST(GeometryTest, VolumeIsBoundingBox) {
  GeomDescription g("v");
  Defect d;
  d.type = DefectType::Primal;
  d.segments.push_back({{0, 0, 0}, {8, 0, 0}});
  d.segments.push_back({{8, 0, 0}, {8, 2, 0}});
  g.add_defect(d);
  EXPECT_EQ(g.bounding_box().dims(), Vec3(9, 3, 1));
  EXPECT_EQ(g.volume(), 27);
}

TEST(GeometryTest, BoxConstants) {
  EXPECT_EQ(box_volume(BoxKind::YBox), 18);   // 3 x 3 x 2
  EXPECT_EQ(box_volume(BoxKind::ABox), 192);  // 16 x 6 x 2
}

TEST(GeometryTest, AdditiveVolumeSeparatesBoxes) {
  GeomDescription g("av");
  Defect d;
  d.type = DefectType::Dual;
  d.segments.push_back({{0, 0, 0}, {1, 0, 0}});
  g.add_defect(d);
  g.add_box({BoxKind::YBox, {100, 100, 100}, 0});
  EXPECT_EQ(g.additive_volume(), 2 + 18);
  // The plain bounding-box volume would span the gap to the far box.
  EXPECT_GT(g.volume(), 1000);
}

TEST(GeometryTest, TranslateAndAbsorb) {
  GeomDescription a("a");
  Defect d;
  d.type = DefectType::Primal;
  d.segments.push_back({{0, 0, 0}, {2, 0, 0}});
  const int di = a.add_defect(d);
  a.add_component({ComponentKind::InitZ, {0, 0, 0}, di});
  a.translate({10, 0, 0});
  EXPECT_EQ(a.defects()[0].segments[0].a, Vec3(10, 0, 0));
  EXPECT_EQ(a.components()[0].position, Vec3(10, 0, 0));

  GeomDescription b("b");
  Defect e;
  e.type = DefectType::Dual;
  e.segments.push_back({{0, 5, 0}, {0, 9, 0}});
  const int ei = b.add_defect(e);
  b.add_component({ComponentKind::MeasX, {0, 5, 0}, ei});
  a.absorb(std::move(b));
  ASSERT_EQ(a.defects().size(), 2u);
  EXPECT_EQ(a.components()[1].defect_index, 1);
}

TEST(GeometryTest, RejectsNonAxisAlignedSegments) {
  GeomDescription g("bad");
  Defect d;
  d.segments.push_back({{0, 0, 0}, {1, 1, 1}});
  EXPECT_THROW(g.add_defect(d), TqecError);
}

TEST(ValidateTest, AcceptsDisjointSameTypeDefectsInDistinctCells) {
  GeomDescription g("ok");
  Defect a;
  a.type = DefectType::Primal;
  a.segments.push_back({{0, 0, 0}, {5, 0, 0}});
  g.add_defect(a);
  Defect b;
  b.type = DefectType::Primal;
  b.segments.push_back({{0, 1, 0}, {5, 1, 0}});
  g.add_defect(b);
  EXPECT_TRUE(validate(g).ok());
}

TEST(ValidateTest, RejectsSameTypeCellSharing) {
  GeomDescription g("clash");
  Defect a;
  a.type = DefectType::Dual;
  a.segments.push_back({{0, 0, 0}, {5, 0, 0}});
  g.add_defect(a);
  Defect b;
  b.type = DefectType::Dual;
  b.segments.push_back({{3, 0, 0}, {3, 4, 0}});
  g.add_defect(b);
  const auto report = validate(g);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].rule, "V3");
}

TEST(ValidateTest, AllowsCrossTypeCellSharing) {
  GeomDescription g("cross");
  Defect a;
  a.type = DefectType::Primal;
  a.segments.push_back({{0, 0, 0}, {5, 0, 0}});
  g.add_defect(a);
  Defect b;
  b.type = DefectType::Dual;
  b.segments.push_back({{3, 0, 0}, {3, 4, 0}});
  g.add_defect(b);
  EXPECT_TRUE(validate(g).ok()) << validate(g).summary();
}

TEST(ValidateTest, RejectsDisconnectedDefect) {
  GeomDescription g("disc");
  Defect a;
  a.type = DefectType::Primal;
  a.segments.push_back({{0, 0, 0}, {1, 0, 0}});
  a.segments.push_back({{5, 0, 0}, {6, 0, 0}});
  g.add_defect(a);
  const auto report = validate(g);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].rule, "V2");
}

TEST(ValidateTest, RejectsOverlappingBoxes) {
  GeomDescription g("boxes");
  g.add_box({BoxKind::YBox, {0, 0, 0}, -1});
  g.add_box({BoxKind::YBox, {2, 0, 0}, -1});
  const auto report = validate(g);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].rule, "V4");
}

TEST(ValidateTest, RejectsDefectInsideBox) {
  GeomDescription g("inbox");
  g.add_box({BoxKind::ABox, {0, 0, 0}, -1});
  Defect d;
  d.type = DefectType::Primal;
  d.segments.push_back({{2, 2, 0}, {5, 2, 0}});
  g.add_defect(d);
  const auto report = validate(g);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues[0].rule, "V5");
}

TEST(ValidateTest, ValidateOrThrow) {
  GeomDescription g("t");
  g.add_box({BoxKind::YBox, {0, 0, 0}, -1});
  g.add_box({BoxKind::YBox, {0, 0, 0}, -1});
  EXPECT_THROW(validate_or_throw(g), TqecError);
}

// ---------------------------------------------------------------------------
// Oracle: the validator as it was before its sweeps, kept verbatim — V2
// tests every segment pair of a defect, the V3 self-overlap test scans a
// defect's segments from its first, and V5 tests every segment against
// every box. `validate` must report exactly what this does.

template <typename Fn>
void oracle_for_each_cell(const Segment& s, Fn&& fn) {
  Vec3 step{0, 0, 0};
  const Vec3 d = s.b - s.a;
  if (d.x != 0) step = {d.x > 0 ? 1 : -1, 0, 0};
  else if (d.y != 0) step = {0, d.y > 0 ? 1 : -1, 0};
  else if (d.z != 0) step = {0, 0, d.z > 0 ? 1 : -1};
  for (Vec3 p = s.a;; p += step) {
    fn(p);
    if (p == s.b) break;
  }
}

bool oracle_on_earlier_segment(const DefectView& d, std::size_t upto,
                               Vec3 p) {
  for (std::size_t j = 0; j < upto; ++j)
    if (d.segments[j].box().contains(p)) return true;
  return false;
}

template <typename Exempt, typename Fail>
void oracle_v3_hash_pass(const GeomDescription& g, DefectType type,
                         std::unordered_map<Vec3, int>& cells,
                         Exempt&& exempt, Fail&& fail) {
  const bool primal = type == DefectType::Primal;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    for (const Segment& s : d.segments) {
      oracle_for_each_cell(s, [&](Vec3 p) {
        const auto [it, inserted] = cells.emplace(p, static_cast<int>(i));
        if (primal) {
          if (!inserted && it->second != static_cast<int>(i)) {
            std::ostringstream os;
            os << "primal defects " << it->second << " and " << i
               << " share cell " << p;
            fail("V3", os.str());
            it->second = static_cast<int>(i);
          }
        } else {
          if (!inserted && it->second != static_cast<int>(i) && !exempt(p)) {
            std::ostringstream os;
            os << "dual defects " << it->second << " and " << i
               << " share cell " << p;
            fail("V3", os.str());
          }
          it->second = static_cast<int>(i);
        }
      });
    }
  }
}

template <typename Exempt>
bool oracle_v3_grid_conflict(const GeomDescription& g, DefectType type,
                             OccupancyGrid& occ, Exempt&& exempt) {
  std::vector<Vec3> collisions;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    for (std::size_t j = 0; j < d.segments.size(); ++j) {
      collisions.clear();
      occ.set_segment(plane_of(type), d.segments[j], &collisions);
      for (const Vec3 p : collisions) {
        if (oracle_on_earlier_segment(d, j, p)) continue;
        if (type == DefectType::Dual && exempt(p)) continue;
        return true;
      }
    }
  }
  return false;
}

ValidationReport oracle_validate(const GeomDescription& g) {
  ValidationReport report;
  const auto fail = [&](const char* rule, const std::string& detail) {
    report.issues.push_back({rule, detail});
  };
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.segments.empty()) {
      fail("V2", "defect " + std::to_string(i) + " has no segments");
      continue;
    }
    bool aligned = true;
    for (const Segment& s : d.segments) {
      if (!s.axis_aligned()) {
        aligned = false;
        std::ostringstream os;
        os << "defect " << i << " segment " << s.a << "->" << s.b
           << " not axis-aligned";
        fail("V1", os.str());
      }
    }
    if (!aligned) continue;
    UnionFind uf(d.segments.size());
    for (std::size_t a = 0; a < d.segments.size(); ++a)
      for (std::size_t b = a + 1; b < d.segments.size(); ++b)
        if (d.segments[a].box().inflated(1).intersects(d.segments[b].box()))
          uf.unite(a, b);
    if (uf.component_count() != 1)
      fail("V2", "defect " + std::to_string(i) + " is disconnected (" +
                     std::to_string(uf.component_count()) + " pieces)");
  }

  static constexpr Vec3 kFaces[6] = {{1, 0, 0},  {-1, 0, 0}, {0, 1, 0},
                                     {0, -1, 0}, {0, 0, 1},  {0, 0, -1}};
  Box3 bb;
  for (const DefectView d : g.defects()) bb = bb.merged(d.bounding_box());
  OccupancyGrid occ(bb, 2);
  const bool primal_conflict = oracle_v3_grid_conflict(
      g, DefectType::Primal, occ, [](Vec3) { return false; });
  const bool dual_conflict =
      !primal_conflict &&
      oracle_v3_grid_conflict(g, DefectType::Dual, occ, [&](Vec3 p) {
        if (occ.test(kPrimalPlane, p)) return true;
        for (const Vec3 step : kFaces)
          if (occ.test(kPrimalPlane, p + step)) return true;
        return false;
      });
  if (primal_conflict || dual_conflict) {
    std::unordered_map<Vec3, int> primal_cells;
    std::unordered_map<Vec3, int> dual_cells;
    oracle_v3_hash_pass(g, DefectType::Primal, primal_cells,
                        [](Vec3) { return false; }, fail);
    oracle_v3_hash_pass(
        g, DefectType::Dual, dual_cells,
        [&](Vec3 p) {
          if (primal_cells.count(p) != 0) return true;
          for (const Vec3 step : kFaces)
            if (primal_cells.count(p + step) != 0) return true;
          return false;
        },
        fail);
  }

  for (std::size_t a = 0; a < g.boxes().size(); ++a)
    for (std::size_t b = a + 1; b < g.boxes().size(); ++b)
      if (g.boxes()[a].extent().intersects(g.boxes()[b].extent()))
        fail("V4", "boxes " + std::to_string(a) + " and " +
                       std::to_string(b) + " overlap");

  for (std::size_t i = 0; i < g.defects().size(); ++i)
    for (const Segment& s : g.defect(i).segments)
      for (std::size_t b = 0; b < g.boxes().size(); ++b)
        if (g.boxes()[b].extent().intersects(s.box()))
          fail("V5", "defect " + std::to_string(i) + " enters box " +
                         std::to_string(b));
  return report;
}

/// Random soup in a cube of side `side`: random-walk defects of both
/// types, a few of them broken into disconnected pieces, plus boxes,
/// some dropped on a defect cell so several segments cross them.
GeomDescription random_soup(std::uint64_t seed) {
  Rng rng(seed);
  const int side = rng.range(5, 40);
  const auto cell = [&] {
    return Vec3{rng.range(0, side), rng.range(0, side), rng.range(0, side)};
  };
  GeomDescription g("soup" + std::to_string(seed));
  std::vector<Vec3> used;
  const int defects = rng.range(1, 14);
  for (int i = 0; i < defects; ++i) {
    Defect d;
    d.type = rng.range(0, 1) ? DefectType::Primal : DefectType::Dual;
    d.source_id = i;
    const bool broken = rng.chance(0.08);
    Vec3 at = cell();
    const int steps = rng.range(1, 24);
    for (int k = 0; k < steps; ++k) {
      if (broken && k > 0 && rng.chance(0.25)) at = cell();
      Vec3 to = at;
      const int axis = rng.range(0, 2);
      int& c = axis == 0 ? to.x : axis == 1 ? to.y : to.z;
      c += rng.range(0, 6) * (rng.range(0, 1) ? 1 : -1);
      d.segments.push_back(rng.range(0, 1) ? Segment{at, to}
                                           : Segment{to, at});
      used.push_back(to);
      at = to;
    }
    g.add_defect(d);
  }
  const int boxes = rng.range(0, 3);
  for (int b = 0; b < boxes; ++b) {
    const BoxKind kind = rng.range(0, 1) ? BoxKind::YBox : BoxKind::ABox;
    const Vec3 origin = rng.chance(0.5)
                            ? used[static_cast<std::size_t>(rng.range(
                                  0, static_cast<int>(used.size()) - 1))] -
                                  Vec3{1, 1, 1}
                            : cell();
    g.add_box({kind, origin, -1});
  }
  return g;
}

TEST(ValidateOracleTest, RandomSoupsMatchTheAllPairsOracle) {
  int flagged = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const GeomDescription g = random_soup(seed);
    const std::string expected = oracle_validate(g).summary();
    EXPECT_EQ(validate(g).summary(), expected) << "seed " << seed;
    if (expected != "valid") ++flagged;
  }
  // The soups exercise the issue paths, not only clean geometries.
  EXPECT_GT(flagged, 100);
}

TEST(ValidateOracleTest, LongSnakeMatchesTheAllPairsOracle) {
  // One 20000-segment defect of unit steps, serpentine in the z = 0
  // plane (rows along x, two cells apart), as a stitch chains windows
  // into one defect; then boxes on it and a two-piece primal defect.
  GeomDescription g("snake");
  Defect snake;
  snake.type = DefectType::Primal;
  Vec3 at{0, 0, 0};
  int dir = 1;
  while (snake.segments.size() < 20000) {
    for (int k = 0; k < 100 && snake.segments.size() < 20000; ++k) {
      const Vec3 to = at + Vec3{dir, 0, 0};
      snake.segments.push_back({at, to});
      at = to;
    }
    for (int k = 0; k < 2 && snake.segments.size() < 20000; ++k) {
      const Vec3 to = at + Vec3{0, 1, 0};
      snake.segments.push_back({at, to});
      at = to;
    }
    dir = -dir;
  }
  g.add_defect(snake);
  Defect pieces;
  pieces.type = DefectType::Primal;
  pieces.segments.push_back({{-5, 0, 3}, {-5, 50, 3}});
  pieces.segments.push_back({{-5, 60, 3}, {-5, 90, 3}});
  g.add_defect(pieces);
  g.add_box({BoxKind::YBox, {10, 10, -1}, -1});
  g.add_box({BoxKind::ABox, {60, 200, -2}, -1});
  g.add_box({BoxKind::YBox, {-6, 40, 2}, -1});
  const ValidationReport report = validate(g);
  EXPECT_EQ(report.summary(), oracle_validate(g).summary());
  EXPECT_FALSE(report.ok());
}

class CanonicalVolumeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CanonicalVolumeTest, FormulaMatchesPaperTable2) {
  const core::PaperBenchmark& bench = core::paper_benchmarks()[GetParam()];
  icm::IcmStats stats;
  stats.qubits = bench.qubits;
  stats.cnots = bench.cnots;
  stats.y_states = bench.y_states;
  stats.a_states = bench.a_states;
  // add16_174 and cycle17_3_112 are internally inconsistent in the paper
  // (their canonical volumes correspond to #Qubits - 1, the same off-by-one
  // visible in the #Modules column), so those two rows are checked to 0.1%;
  // the other six match exactly.
  if (bench.name == "add16_174" || bench.name == "cycle17_3_112") {
    EXPECT_NEAR(static_cast<double>(canonical_volume(stats)),
                static_cast<double>(bench.canonical_volume),
                0.001 * static_cast<double>(bench.canonical_volume))
        << bench.name;
  } else {
    EXPECT_EQ(canonical_volume(stats), bench.canonical_volume) << bench.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CanonicalVolumeTest,
                         ::testing::Range<std::size_t>(0, 8));

TEST(CanonicalBuildTest, ThreeCnotExampleHasFigure1Volume) {
  const icm::IcmCircuit icm = core::three_cnot_example();
  const GeomDescription g = build_canonical(icm);
  EXPECT_EQ(g.additive_volume(), 54);  // Figure 1(b): 9 x 3 x 2
  EXPECT_TRUE(validate(g).ok()) << validate(g).summary();
  EXPECT_EQ(g.additive_volume(), canonical_volume(icm.stats()));
}

TEST(CanonicalBuildTest, GeneratedWorkloadMatchesFormulaAndValidates) {
  icm::WorkloadSpec spec;
  spec.name = "wl";
  spec.qubits = 40;
  spec.cnots = 50;
  spec.y_states = 12;
  spec.a_states = 6;
  const icm::IcmCircuit icm = icm::make_workload(spec);
  const GeomDescription g = build_canonical(icm);
  EXPECT_EQ(g.additive_volume(), canonical_volume(icm.stats()));
  EXPECT_TRUE(validate(g).ok()) << validate(g).summary();
  // One component pair (init + measure) per line; boxes for each ancilla.
  EXPECT_EQ(g.components().size(), static_cast<std::size_t>(2 * 40));
  EXPECT_EQ(g.boxes().size(), static_cast<std::size_t>(12 + 6));
}

TEST(LinkingTest, HopfLinkIsOne) {
  // Primal unit ring in the xy-plane; dual ring through it in the xz-plane.
  const Loop primal = rectangle_loop({0, 0, 0}, Axis::X, 2, Axis::Y, 2);
  const Loop dual = offset_loop(
      rectangle_loop({0, 0, -1}, Axis::X, 2, Axis::Z, 2), 0.5, 0.5, 0.5);
  EXPECT_EQ(std::abs(linking_number(primal, dual)), 1);
}

TEST(LinkingTest, DisjointLoopsAreUnlinked) {
  const Loop a = rectangle_loop({0, 0, 0}, Axis::X, 2, Axis::Y, 2);
  const Loop b = offset_loop(
      rectangle_loop({10, 10, 10}, Axis::X, 2, Axis::Y, 2), 0.5, 0.5, 0.5);
  EXPECT_EQ(linking_number(a, b), 0);
}

TEST(LinkingTest, SideBySideLoopsAreUnlinked) {
  // Coplanar-ish but not threaded.
  const Loop a = rectangle_loop({0, 0, 0}, Axis::X, 2, Axis::Y, 2);
  const Loop b = offset_loop(
      rectangle_loop({5, 0, 0}, Axis::X, 2, Axis::Z, 2), 0.5, 0.5, 0.5);
  EXPECT_EQ(linking_number(a, b), 0);
}

TEST(LinkingTest, OrientationFlipsSign) {
  const Loop primal = rectangle_loop({0, 0, 0}, Axis::X, 2, Axis::Y, 2);
  Loop dual = offset_loop(
      rectangle_loop({0, 0, -1}, Axis::X, 2, Axis::Z, 2), 0.5, 0.5, 0.5);
  const int lk = linking_number(primal, dual);
  std::reverse(dual.points.begin(), dual.points.end());
  EXPECT_EQ(linking_number(primal, dual), -lk);
}

TEST(LinkingTest, DoubleWrapCountsTwice) {
  const Loop primal = rectangle_loop({0, 0, 0}, Axis::X, 4, Axis::Y, 4);
  // A dual curve threading the primal loop upward twice, with both return
  // passes outside the loop (y > 4), so the crossings add instead of
  // cancelling.
  Loop dual;
  dual.points = {
      {1.5, 1.5, -1.5}, {1.5, 1.5, 1.5},  {1.5, 5.5, 1.5},
      {1.5, 5.5, -1.5}, {2.5, 5.5, -1.5}, {2.5, 1.5, -1.5},
      {2.5, 1.5, 1.5},  {2.5, 6.5, 1.5},  {2.5, 6.5, -1.5},
      {1.5, 6.5, -1.5},
  };
  EXPECT_EQ(std::abs(linking_number(primal, dual)), 2);
}

TEST(EmitTest, DescribeAndJsonContainKeyFacts) {
  const icm::IcmCircuit icm = core::three_cnot_example();
  const GeomDescription g = build_canonical(icm);
  const std::string text = describe(g);
  EXPECT_NE(text.find("defects"), std::string::npos);
  EXPECT_NE(text.find("volume"), std::string::npos);
  const std::string json = to_json(g);
  EXPECT_NE(json.find("\"defects\""), std::string::npos);
  EXPECT_NE(json.find("\"primal\""), std::string::npos);
  EXPECT_NE(json.find("\"dual\""), std::string::npos);
}

TEST(EmitTest, JsonEscapesTheName) {
  const std::string name = "a\"b\\c";
  GeomDescription g(name);
  Defect d;
  d.segments.push_back({{0, 0, 0}, {2, 0, 0}});
  g.add_defect(d);
  const json::Value doc = json::parse(to_json(g));
  const json::Value* parsed = doc.find("name");
  ASSERT_NE(parsed, nullptr);
  ASSERT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->string, name);
}

}  // namespace
}  // namespace tqec::geom
