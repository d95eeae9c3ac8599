// Seam stitching for time-axis sharded compilation.
//
// The sharded compiler (core/shard.h) cuts an ICM circuit into windows
// along the time (x) axis, compiles each window to an independent
// GeomDescription, and hands the per-window geometries here. Every line
// crossing a cut appears twice: as a carry-*out* primal module in the
// earlier window (its row-final module, compiled without a measurement)
// and as a carry-*in* module in the later window (its row-initial module,
// compiled without an initialization). Stitching restores each cut line's
// single continuous primal defect:
//
//   1. Windows are laid out left-to-right along +x with a `seam_gap`-cell
//      free slab between consecutive windows.
//   2. Each crossing line gets a pinned *interface cell* in the seam slab
//      at deterministic coordinates: x mid-seam, y one above the tallest
//      window (a plane no window geometry can occupy), z on a 2-cell lane
//      grid ordered by global line id. The pins depend only on the window
//      geometries and crossing sets — never on thread count or timing.
//   3. A goal-directed path (deterministic weighted A*) is carved from the
//      carry-out cell up through the pin and down to the carry-in cell,
//      avoiding every occupied cell (defect cells and distillation-box
//      extents of all windows plus the seams stitched so far). Seams are
//      carved serially in (seam, line) order, so the result is identical
//      for any --shard-threads.
//   4. The two window defects and the seam path are merged into one defect
//      (union-find), keeping geometry components pointed at the right
//      defect, so the structural validator's connectivity rule (V2) sees
//      one connected structure per cut line.
//
// Exactness: within a window the compiled geometry is byte-for-byte what
// the unsharded pipeline would produce for that window's sub-circuit; the
// stitch only *adds* cells in the seam slabs and the empty plane above,
// never moves or removes window cells. A seam that cannot be carved (the
// search region is exhausted after retries with taller headroom) is
// reported as an issue and fails the compile's legality, not silently
// dropped.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "geom/geometry.h"

namespace tqec::geom {

/// One compiled window, normalized so its bounding box starts at the
/// origin. Carry cells are (global ICM line, cell) pairs in the window's
/// own (normalized) frame; they must lie on a primal defect of
/// `*geometry`. The window only *points at* its geometry (owned by the
/// caller, e.g. the shard compiler's per-window outcomes): stitching
/// reads it, so retry loops re-stitch without deep-copying a single
/// segment vector.
struct StitchWindow {
  const GeomDescription* geometry = nullptr;
  std::vector<std::pair<int, Vec3>> carry_in;   // line -> row-initial cell
  std::vector<std::pair<int, Vec3>> carry_out;  // line -> row-final cell
};

struct StitchOptions {
  /// Free cells inserted between consecutive windows along x.
  int seam_gap = 3;
  /// Extra y headroom added per retry when a seam path is blocked.
  int max_attempts = 4;
};

struct StitchResult {
  GeomDescription geometry;
  /// Occupancy-grid build cost (staging every window into the merged
  /// frame); 0 when the frame was too large for the dense grid and the
  /// hash-set engine carried the seams instead.
  double grid_build_s = 0;
  std::int64_t grid_bytes = 0;
  /// Seam paths carved (one per crossing line per cut).
  int stitches = 0;
  /// New cells added by seam paths (excludes the carry endpoints).
  std::int64_t seam_cells = 0;
  /// Pinned interface cells, one per stitch, in (seam, line-rank) order.
  std::vector<Vec3> interface_pins;
  /// x offset applied to each window in the merged frame.
  std::vector<int> window_offsets;
  /// Human-readable seam failures; empty iff every seam was carved.
  std::vector<std::string> issues;
  /// Structured record of every seam path that stayed blocked after all
  /// attempts: `window` is the window whose endpoint the final failed BFS
  /// leg could not reach (a placement can seal a carry module inside a
  /// pocket of neighboring cells). Callers can recompile that window with
  /// a different seed and re-stitch.
  struct BlockedSeam {
    int seam = 0;    // between windows `seam` and `seam + 1`
    int line = 0;    // global ICM line id
    int window = 0;  // blamed window index
  };
  std::vector<BlockedSeam> blocked;
  bool ok() const { return issues.empty(); }
};

/// Stitch windows into one geometry named `name`. Windows must be
/// normalized (bounding box lo == origin); window order is time order.
/// Deterministic: a pure function of its inputs.
StitchResult stitch_windows(const std::vector<StitchWindow>& windows,
                            const std::string& name,
                            const StitchOptions& options = {});

}  // namespace tqec::geom
