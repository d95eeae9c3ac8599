#include "geom/export_svg.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

namespace tqec::geom {

int export_svg(const GeomDescription& g, std::ostream& out,
               const SvgExportOptions& opt) {
  TQEC_REQUIRE(opt.cell_px > 0, "cell size must be positive");
  const Box3 bb = g.bounding_box();
  if (bb.empty()) {
    out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"1\" "
           "height=\"1\"/>\n";
    return 0;
  }

  // Collect cells grouped by y layer: one flat vector in defect-traversal
  // order, stable-sorted by y (so within a layer the traversal order — and
  // therefore the emitted bytes — match the per-layer map this replaced),
  // plus a sorted-unique list of panel ys including box-only layers.
  std::vector<std::pair<Vec3, bool>> cells;  // (cell, is_primal)
  for (const DefectView d : g.defects()) {
    const bool primal = d.type == DefectType::Primal;
    for (const Segment& s : d.segments)
      s.for_each_cell([&](Vec3 p) { cells.push_back({p, primal}); });
  }
  std::stable_sort(cells.begin(), cells.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.y < b.first.y;
                   });
  std::vector<int> layer_ys;
  layer_ys.reserve(cells.size());
  for (const auto& [cell, primal] : cells) layer_ys.push_back(cell.y);
  if (opt.include_boxes) {
    for (const DistillBox& b : g.boxes()) {
      const Box3 e = b.extent();
      for (int y = e.lo.y; y <= e.hi.y; ++y)
        layer_ys.push_back(y);  // ensure the panel exists
    }
  }
  std::sort(layer_ys.begin(), layer_ys.end());
  layer_ys.erase(std::unique(layer_ys.begin(), layer_ys.end()),
                 layer_ys.end());

  const int panels =
      std::min(static_cast<int>(layer_ys.size()), opt.max_layers);
  const int panel_w = bb.dims().x * opt.cell_px;
  const int panel_h = bb.dims().z * opt.cell_px;
  const int total_w = panel_w + 2 * opt.cell_px;
  const int total_h = panels * (panel_h + opt.panel_gap_px) + opt.cell_px;

  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << total_w
      << "\" height=\"" << total_h << "\">\n";
  out << "<style>.primal{fill:#c0392b}.dual{fill:#2980b9}"
         ".box{fill:none;stroke:#27ae60;stroke-width:2}"
         ".label{font:10px monospace;fill:#333}</style>\n";

  int panel_index = 0;
  auto cell_it = cells.begin();
  for (const int y : layer_ys) {
    if (panel_index >= panels) break;
    // Cells are sorted by y, so each panel's run starts where the previous
    // one ended (box-only layers have an empty run).
    while (cell_it != cells.end() && cell_it->first.y < y) ++cell_it;
    const auto run_begin = cell_it;
    while (cell_it != cells.end() && cell_it->first.y == y) ++cell_it;
    const int oy = panel_index * (panel_h + opt.panel_gap_px) + opt.cell_px;
    out << "<text class=\"label\" x=\"2\" y=\"" << oy - 4 << "\">y=" << y
        << "</text>\n";
    auto px = [&](int x) { return (x - bb.lo.x) * opt.cell_px + opt.cell_px; };
    auto pz = [&](int z) { return (z - bb.lo.z) * opt.cell_px + oy; };
    for (auto it = run_begin; it != cell_it; ++it) {
      const auto& [cell, primal] = *it;
      if (primal) {
        out << "<rect class=\"primal\" x=\"" << px(cell.x) << "\" y=\""
            << pz(cell.z) << "\" width=\"" << opt.cell_px << "\" height=\""
            << opt.cell_px << "\"/>\n";
      } else {
        // Dual cells drawn inset (half-offset sublattice).
        const int inset = opt.cell_px / 3;
        out << "<rect class=\"dual\" x=\"" << px(cell.x) + inset << "\" y=\""
            << pz(cell.z) + inset << "\" width=\"" << opt.cell_px - inset
            << "\" height=\"" << opt.cell_px - inset << "\"/>\n";
      }
    }
    if (opt.include_boxes) {
      for (const DistillBox& b : g.boxes()) {
        const Box3 e = b.extent();
        if (y < e.lo.y || y > e.hi.y) continue;
        out << "<rect class=\"box\" x=\"" << px(e.lo.x) << "\" y=\""
            << pz(e.lo.z) << "\" width=\""
            << (e.dims().x) * opt.cell_px << "\" height=\""
            << (e.dims().z) * opt.cell_px << "\"/>\n";
      }
    }
    ++panel_index;
  }
  out << "</svg>\n";
  return panel_index;
}

std::string to_svg(const GeomDescription& g, const SvgExportOptions& options) {
  std::ostringstream os;
  export_svg(g, os, options);
  return os.str();
}

void write_svg_file(const GeomDescription& g, const std::string& path,
                    const SvgExportOptions& options) {
  std::ofstream out(path);
  if (!out) throw TqecError("cannot open " + path + " for writing");
  export_svg(g, out, options);
  if (!out) throw TqecError("write failed: " + path);
}

}  // namespace tqec::geom
