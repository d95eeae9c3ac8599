// Time-axis sharded compilation (ROADMAP item 5).
//
// The unsharded pipeline holds one B*-tree and one routing fabric for the
// whole circuit, so compile memory and wall-clock grow with circuit depth.
// But the time axis is special: Paler et al. (arXiv:1604.08621) synthesize
// topological assemblies streamingly along it, and bridging (Fowler-Devitt,
// arXiv:1209.0510) is local in time — the defect geometry decomposes into
// time windows connected only by the thin set of logical lines alive at
// each cut.
//
// This module exploits that structure:
//
//   plan_windows()    — ASAP-layer the CNOT list (layer(k) = 1 + max of the
//                       endpoints' last layers) and cut it into ~K-layer
//                       windows at *low-crossing* boundaries: around each
//                       multiple of K, the boundary minimizing the number
//                       of lines with CNOTs on both sides is chosen
//                       (smallest layer on ties — fully deterministic).
//   extract_window()  — materialize one window as a standalone IcmCircuit:
//                       lines crossing the left cut are flagged carry-in
//                       (compiled without an initialization or injection
//                       box), lines crossing the right cut are marked
//                       output (compiled without a measurement).
//                       Measurement-order constraints whose endpoints both
//                       measure in the window are kept; constraints that
//                       span windows are satisfied by construction (window
//                       w is stacked at smaller x than window w+1) and
//                       checked at stitch time.
//   compile_sharded() — compile every window independently through
//                       core::compile (one parallel_for over up to
//                       --shard-threads workers; window-indexed results +
//                       a serial stitch keep the output bit-identical for
//                       any thread count), then splice the window
//                       geometries along pinned seam interfaces
//                       (geom/stitch.h) and validate the merged result.
//
// Peak memory: in the sequential path (--shard-threads=1) only one
// window's placement fabric / B*-tree / routing state is live at a time;
// each window is reduced to its slim geometry + carry cells before the
// next one starts, so peak RSS is O(largest window), not O(circuit). With
// --jobs >= 2 a window compile runs its two whitespace levels
// concurrently, so up to two routing fabrics of that window are live.
//
// Checkpointing: with a --checkpoint-dir, every finished window is written
// as a self-contained text record keyed by a Digest128 content hash over
// the window's canonical ICM text, the result-affecting compile options,
// and the shard parameters (the same hashing discipline as the stage
// cache). A killed compile re-plans, finds matching digests, and skips
// those windows; anything stale (edited circuit, different options) hashes
// differently and is recompiled. A manifest.json in the directory lists
// the expected windows for external tooling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/compiler.h"

namespace tqec::core {

struct ShardOptions {
  /// ASAP layers per window; <= 0 disables sharding (compile_sharded
  /// delegates straight to core::compile — bit-identical to unsharded).
  int window = 0;
  /// Concurrent window compiles. 1 = sequential (the O(largest-window)
  /// memory path); 0 or negative = one per hardware thread. Never changes
  /// results, only wall-clock and peak memory.
  int threads = 1;
  /// Directory for per-window checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Free cells between consecutive windows along x (seam slab width).
  int seam_gap = 3;
};

/// One planned window over the ASAP layering.
struct WindowPlan {
  int index = 0;
  int layer_lo = 0;  // first ASAP layer (inclusive)
  int layer_hi = 0;  // past-the-end ASAP layer
  std::vector<int> cnots;  // global CNOT indices, ascending
  std::vector<int> lines;  // global line ids, ascending
  /// Parallel to `lines`: crosses the left / right cut of this window.
  std::vector<std::uint8_t> carry_in;
  std::vector<std::uint8_t> carry_out;
};

struct ShardPlan {
  int depth = 0;  // max ASAP layer (1-based; 0 for a CNOT-free circuit)
  std::vector<WindowPlan> windows;
  /// Chosen cut boundaries (layer_lo of every window after the first).
  std::vector<int> cut_layers;
  /// Per line: index of the window holding its final (measured) module.
  std::vector<int> meas_window;
  /// Measurement-order constraints whose endpoints measure in different
  /// windows; satisfied by x-stacking iff before's window < after's.
  std::vector<icm::MeasOrder> cross_order;
  /// Total line/cut crossings over all chosen boundaries.
  int crossings = 0;
};

/// Partition `circuit` into windows of roughly `window_layers` ASAP layers
/// cut at low-crossing boundaries. Deterministic. `window_layers` < 1 is
/// clamped to 1; a circuit whose depth fits one window yields one window.
ShardPlan plan_windows(const icm::IcmCircuit& circuit, int window_layers);

/// Materialize window `index` of `plan` as a standalone ICM circuit (local
/// line ids follow plan.windows[index].lines order; name gets an "@w<i>"
/// suffix).
icm::IcmCircuit extract_window(const icm::IcmCircuit& circuit,
                               const ShardPlan& plan, int index);

/// Compile `circuit` through the time-axis sharding path. With
/// shard.window <= 0 this is exactly core::compile(circuit, options).
/// Otherwise the result's geometry is the stitched multi-window design,
/// result.shard carries the shard observability record, and
/// result.routed_legal additionally requires every seam to have been
/// carved and the stitched geometry to pass the structural validator.
CompileResult compile_sharded(const icm::IcmCircuit& circuit,
                              const CompileOptions& options,
                              const ShardOptions& shard);

}  // namespace tqec::core
