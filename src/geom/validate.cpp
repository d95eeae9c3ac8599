#include "geom/validate.h"

#include <algorithm>
#include <chrono>
#include <span>
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
/// stitched seams). Scans backwards: the shared corner is almost always
/// on the directly preceding segment, so even a chained defect of
/// thousands of segments usually answers in one box test.
bool cell_on_earlier_segment(const DefectView& d, std::size_t upto, Vec3 p) {
  for (std::size_t j = upto; j-- > 0;)
    if (d.segments[j].box().contains(p)) return true;
  return false;
}

/// A box tagged with its input index, for x-sorted sweeps.
struct IndexedBox {
  Box3 box;
  std::size_t index;
};

/// Sort by lo.x: a sweep then stops at the first box starting past the
/// x range of interest.
void sort_by_lo_x(std::vector<IndexedBox>& boxes) {
  std::sort(boxes.begin(), boxes.end(),
            [](const IndexedBox& a, const IndexedBox& b) {
              return a.box.lo.x < b.box.lo.x;
            });
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

/// Connected pieces of a defect: segments whose boxes touch (Chebyshev
/// gap 0) or overlap belong to the same piece. Swept in lo.x order, so
/// only pairs whose x ranges come within one cell are tested (any other
/// pair has a gap along x); the count does not depend on the order of
/// the unions.
std::size_t connected_pieces(std::span<const Segment> segments) {
  std::vector<IndexedBox> by_x;
  by_x.reserve(segments.size());
  for (std::size_t j = 0; j < segments.size(); ++j)
    by_x.push_back({segments[j].box(), j});
  sort_by_lo_x(by_x);
  UnionFind uf(segments.size());
  for (std::size_t a = 0; a < by_x.size(); ++a)
    for (std::size_t b = a + 1;
         b < by_x.size() && by_x[b].box.lo.x <= by_x[a].box.hi.x + 1; ++b)
      if (boxes_touch_or_overlap(by_x[a].box, by_x[b].box))
        uf.unite(by_x[a].index, by_x[b].index);
  return uf.component_count();
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
    const std::size_t pieces = connected_pieces(d.segments);
    if (pieces != 1)
      fail("V2", "defect " + std::to_string(i) + " is disconnected (" +
                     std::to_string(pieces) + " pieces)");
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
  // containment is the right test). Boxes are swept in lo.x order: a
  // segment spanning [x0, x1] can only meet a box starting in
  // [x0 - widest box span, x1]. Hits are sorted back into box order, so
  // issues come out by defect, then segment, then box index.
  std::vector<IndexedBox> boxes_by_x;
  int widest = 0;
  for (std::size_t b = 0; b < g.boxes().size(); ++b) {
    const Box3 e = g.boxes()[b].extent();
    boxes_by_x.push_back({e, b});
    widest = std::max(widest, e.hi.x - e.lo.x);
  }
  sort_by_lo_x(boxes_by_x);
  std::vector<std::size_t> hits;
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    for (const Segment& s : g.defect(i).segments) {
      const Box3 sb = s.box();
      auto it = std::lower_bound(
          boxes_by_x.begin(), boxes_by_x.end(), sb.lo.x - widest,
          [](const IndexedBox& b, int x) { return b.box.lo.x < x; });
      hits.clear();
      for (; it != boxes_by_x.end() && it->box.lo.x <= sb.hi.x; ++it)
        if (it->box.intersects(sb)) hits.push_back(it->index);
      std::sort(hits.begin(), hits.end());
      for (const std::size_t b : hits) {
        std::ostringstream os;
        os << "defect " << i << " enters box " << b;
        fail("V5", os.str());
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
