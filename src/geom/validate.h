// Structural validation of geometric descriptions.
//
// Rules enforced (paper Sec. 1 and 2.4, in plumbing-piece units — see
// geometry.h for the coordinate convention):
//   V1. every segment is axis-aligned;
//   V2. the segments of one defect form a single connected structure
//       (touching or overlapping cells);
//   V3. two *disjoint* defects of the same type never share a cell
//       ("two disjoint defects cannot overlap and are separated by one
//       unit", where the unit separation is part of the cell pitch).
//       Exception for dual defects: a cell on a primal module loop or in
//       its port region (face-adjacent to a primal cell) may carry several
//       dual nets — the loop is spatially extended and each threading net
//       passes through its own sub-cell slot (see route/router.h);
//   V4. distillation boxes do not overlap each other;
//   V5. defect cells do not enter distillation-box interiors (boxes hold
//       the place for the distillation sub-circuit).
// Cross-type sharing of a cell is legal (half-offset sublattices).
//
// Engine: the V3 pass rasterizes each defect into a dense bit-grid
// (geom/cell_grid.h) and inspects word-level collisions, so a legal
// geometry never hashes a single Vec3. When a cross-defect collision *is*
// detected, the pass re-runs a hash-map reference over both sublattices,
// which reports every shared cell in a fixed, input-ordered sequence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace tqec::geom {

struct ValidationIssue {
  std::string rule;   // "V1".."V5"
  std::string detail;
};

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  /// Occupancy-grid build cost of the V3 pass; surfaced as the
  /// geom.grid_build_s / geom.grid_bytes gauges.
  double grid_build_s = 0;
  std::int64_t grid_bytes = 0;
  bool ok() const { return issues.empty(); }
  std::string summary() const;
};

ValidationReport validate(const GeomDescription& g);

/// Convenience: throws TqecError with the report summary when invalid.
void validate_or_throw(const GeomDescription& g);

}  // namespace tqec::geom
