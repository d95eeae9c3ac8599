#include "geom/validate.h"

#include <chrono>
#include <sstream>
#include <unordered_map>

#include "common/union_find.h"
#include "geom/cell_grid.h"

namespace tqec::geom {

namespace {

/// Enumerate the cells of a segment.
template <typename Fn>
void for_each_cell(const Segment& s, Fn&& fn) {
  Vec3 step{0, 0, 0};
  const Vec3 d = s.b - s.a;
  if (d.x != 0) step = {d.x > 0 ? 1 : -1, 0, 0};
  else if (d.y != 0) step = {0, d.y > 0 ? 1 : -1, 0};
  else if (d.z != 0) step = {0, 0, d.z > 0 ? 1 : -1};
  Vec3 p = s.a;
  for (;;) {
    fn(p);
    if (p == s.b) break;
    p += step;
  }
}

bool boxes_touch_or_overlap(const Box3& a, const Box3& b) {
  return a.inflated(1).intersects(b);
}

/// True when `p` lies on one of the first `upto` segments of `d` — i.e.
/// the collision is the defect overlapping *itself* (shared corner cells
/// of adjacent segments), which is legal and common (canonical rails,
/// stitched seams).
bool cell_on_earlier_segment(const DefectView& d, std::size_t upto, Vec3 p) {
  for (std::size_t j = 0; j < upto; ++j)
    if (d.segments[j].box().contains(p)) return true;
  return false;
}

/// Reference V3 for one sublattice: the original hash-map pass. Emits the
/// exact issue text/order the pre-grid validator produced; also fills
/// `cells` (cell -> owning defect) for the dual pass's port-region test.
template <typename PortExempt, typename Fail>
void v3_reference_pass(const GeomDescription& g, DefectType type,
                       std::unordered_map<Vec3, int>& cells,
                       PortExempt&& exempt, Fail&& fail) {
  const bool primal = type == DefectType::Primal;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    for (const Segment& s : d.segments) {
      for_each_cell(s, [&](Vec3 p) {
        const auto [it, inserted] = cells.emplace(p, static_cast<int>(i));
        if (primal) {
          if (!inserted && it->second != static_cast<int>(i)) {
            std::ostringstream os;
            os << "primal defects " << it->second << " and " << i
               << " share cell " << p;
            fail("V3", os.str());
            it->second = static_cast<int>(i);  // report each pair once
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

/// Grid V3 for one sublattice: rasterize every defect into `occ`'s plane,
/// inspecting collisions. A collision against an *earlier segment of the
/// same defect* is legal self-overlap; anything else is a cross-defect
/// conflict (for duals, unless port-exempt). Returns true when a conflict
/// was found — the caller then re-runs the reference pass for identical
/// issue output. Legal geometries complete without hashing a single cell.
template <typename PortExempt>
bool v3_grid_pass(const GeomDescription& g, DefectType type,
                  OccupancyGrid& occ, std::vector<Vec3>& collisions,
                  PortExempt&& exempt) {
  const int plane = plane_of(type);
  bool conflict = false;
  for (std::size_t i = 0; i < g.defects().size() && !conflict; ++i) {
    const DefectView d = g.defect(i);
    if (d.type != type) continue;
    for (std::size_t j = 0; j < d.segments.size() && !conflict; ++j) {
      collisions.clear();
      occ.set_segment(plane, d.segments[j], &collisions);
      for (const Vec3 p : collisions) {
        if (cell_on_earlier_segment(d, j, p)) continue;
        if (type == DefectType::Dual && exempt(p)) continue;
        conflict = true;
        break;
      }
    }
  }
  return conflict;
}

}  // namespace

std::string ValidationReport::summary() const {
  if (ok()) return "valid";
  std::ostringstream os;
  os << issues.size() << " issue(s):";
  for (const auto& issue : issues)
    os << "\n  [" << issue.rule << "] " << issue.detail;
  return os.str();
}

ValidationReport validate(const GeomDescription& g) {
  ValidationReport report;
  const auto fail = [&](const char* rule, const std::string& detail) {
    report.issues.push_back({rule, detail});
  };

  // V1 + V2: per-defect checks.
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
    // Connectivity: segments whose boxes touch (Chebyshev gap 0) or overlap
    // belong to the same connected structure.
    UnionFind uf(d.segments.size());
    for (std::size_t a = 0; a < d.segments.size(); ++a)
      for (std::size_t b = a + 1; b < d.segments.size(); ++b)
        if (boxes_touch_or_overlap(d.segments[a].box(), d.segments[b].box()))
          uf.unite(a, b);
    if (uf.component_count() != 1)
      fail("V2", "defect " + std::to_string(i) + " is disconnected (" +
                     std::to_string(uf.component_count()) + " pieces)");
  }

  // V3: same-type cell-sharing across distinct defects. Exception: two
  // dual defects may share a cell that also hosts a primal defect — that
  // cell is a primal module loop, which is spatially extended and offers
  // one crossing slot per threading net (see route/router.h).
  const auto t0 = std::chrono::steady_clock::now();
  Box3 bb;
  for (const DefectView d : g.defects()) bb = bb.merged(d.bounding_box());
  OccupancyGrid occ(bb, 2);
  std::vector<Vec3> collisions;
  const auto no_exempt = [](Vec3) { return false; };
  const bool primal_conflict =
      v3_grid_pass(g, DefectType::Primal, occ, collisions, no_exempt);
  // A dual-dual shared cell is legal on a primal module loop itself or
  // in its port region (the face-adjacent cells).
  const auto grid_exempt = [&](Vec3 p) {
    if (occ.test(kPrimalPlane, p)) return true;
    for (const Vec3 step : {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0},
                            Vec3{0, -1, 0}, Vec3{0, 0, 1}, Vec3{0, 0, -1}})
      if (occ.test(kPrimalPlane, p + step)) return true;
    return false;
  };
  const bool dual_conflict =
      !primal_conflict &&
      v3_grid_pass(g, DefectType::Dual, occ, collisions, grid_exempt);
  report.grid_build_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.grid_bytes = occ.byte_size();
  if (primal_conflict || dual_conflict) {
    // Conflict found: re-run the hash-map reference pass over both
    // sublattices, which reports every shared cell in input order (the
    // primal map also feeds the dual pass's port-region test).
    std::unordered_map<Vec3, int> primal_cells;
    std::unordered_map<Vec3, int> dual_cells;
    v3_reference_pass(g, DefectType::Primal, primal_cells,
                      [](Vec3) { return false; }, fail);
    const auto map_exempt = [&](Vec3 p) {
      if (primal_cells.find(p) != primal_cells.end()) return true;
      for (const Vec3 step :
           {Vec3{1, 0, 0}, Vec3{-1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, -1, 0},
            Vec3{0, 0, 1}, Vec3{0, 0, -1}})
        if (primal_cells.find(p + step) != primal_cells.end()) return true;
      return false;
    };
    v3_reference_pass(g, DefectType::Dual, dual_cells, map_exempt, fail);
  }

  // V4: box overlap.
  for (std::size_t a = 0; a < g.boxes().size(); ++a) {
    for (std::size_t b = a + 1; b < g.boxes().size(); ++b) {
      if (g.boxes()[a].extent().intersects(g.boxes()[b].extent())) {
        std::ostringstream os;
        os << "boxes " << a << " and " << b << " overlap";
        fail("V4", os.str());
      }
    }
  }

  // V5: defect cells inside box interiors (the cell adjacent to the box
  // face where the injected state exits is outside the extent, so plain
  // containment is the right test).
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    for (const Segment& s : g.defect(i).segments) {
      for (std::size_t b = 0; b < g.boxes().size(); ++b) {
        if (g.boxes()[b].extent().intersects(s.box())) {
          std::ostringstream os;
          os << "defect " << i << " enters box " << b;
          fail("V5", os.str());
        }
      }
    }
  }

  return report;
}

void validate_or_throw(const GeomDescription& g) {
  const ValidationReport report = validate(g);
  if (!report.ok())
    throw TqecError("invalid geometric description: " + report.summary());
}

}  // namespace tqec::geom
