// Google-benchmark coverage of the SA placer's packing kernel:
//
//   PlacePack                      whole-placement time of the annealer
//                                  with the dirty-suffix incremental pack;
//   PlacePaperRow/G                a paper row: rd84_142's seed-7 Full
//                                  node set at y-gap G (0 and 1, the two
//                                  whitespace levels a compile anneals).
//
// PlacePack places the 64-qubit SA workload; every node set is built once
// outside the timed region, so the numbers are pure placement. Counters
// (volume, moves, repacked nodes per move) are reported for the last run
// of each variant; PlacePaperRow adds SA moves per second.
#include <benchmark/benchmark.h>

#include <utility>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "core/compiler.h"
#include "core/paper_tables.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"

namespace {

using namespace tqec;

/// Build the 64-qubit SA fixture once; every benchmark variant then places
/// the identical node set.
const place::NodeSet& problem() {
  static const place::NodeSet nodes = [] {
    icm::WorkloadSpec spec;
    spec.name = "place_kernel";
    spec.qubits = 64;
    spec.cnots = 96;
    spec.y_states = 20;
    spec.a_states = 10;
    spec.seed = 7;
    const icm::IcmCircuit circuit = icm::make_workload(spec);
    pdgraph::PdGraph graph = pdgraph::build_pd_graph(circuit);
    const compress::IshapeResult ishape = compress::simplify_ishape(graph);
    const compress::PrimalBridging bridging =
        compress::bridge_primal(graph, ishape, 7);
    compress::DualBridging dual = compress::bridge_dual(graph, ishape);
    return place::build_nodes(graph, ishape, bridging, dual);
  }();
  return nodes;
}

/// rd84_142's node set, exactly as a seed-7 Full compile builds it.
const place::NodeSet& rd84_nodes() {
  static const place::NodeSet nodes = [] {
    core::CompileOptions opt;
    opt.seed = 7;
    opt.emit_geometry = false;
    opt.keep_internals = true;
    core::CompileResult r = core::compile(
        icm::make_workload(
            core::workload_spec(core::paper_benchmark("rd84_142"))),
        opt);
    return std::move(r.internals->nodes);
  }();
  return nodes;
}

void run_place(benchmark::State& state, const place::PlaceOptions& opt,
               const place::NodeSet& nodes = problem()) {
  place::Placement last;
  for (auto _ : state) {
    last = place::place_modules(nodes, opt);
    benchmark::DoNotOptimize(last.volume);
  }
  const double moves =
      static_cast<double>(last.moves_accepted + last.moves_rejected);
  state.counters["volume"] = static_cast<double>(last.volume);
  state.counters["moves"] = moves;
  state.counters["repacked_per_move"] =
      moves > 0 ? static_cast<double>(last.repacked_nodes) / moves : 0;
}

void BM_PlacePack(benchmark::State& state) {
  place::PlaceOptions opt;
  opt.seed = 7;
  run_place(state, opt);
}

void BM_PlacePaperRow(benchmark::State& state) {
  place::PlaceOptions opt;
  opt.seed = 7;
  opt.layer_y_gap = static_cast<int>(state.range(0));
  run_place(state, opt, rd84_nodes());
  // The anneal runs on the calling thread, so CPU time is its own time.
  state.counters["moves_per_s"] = benchmark::Counter(
      state.counters["moves"].value * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_PlacePack)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlacePaperRow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
