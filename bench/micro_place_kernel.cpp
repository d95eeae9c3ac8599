// Google-benchmark coverage of the SA placer's packing kernel and
// tempering schedule:
//
//   PlacePack                      whole-placement time of the single-
//                                  chain annealer with the dirty-suffix
//                                  incremental pack;
//   PlaceThreads/N                 4-replica parallel tempering at N
//                                  worker threads (the CI bench-smoke
//                                  sweep; wall-clock gains need real
//                                  cores, results are bit-identical
//                                  regardless).
//
// All variants place the same node set: the 64-qubit SA workload built
// once outside the timed region, so the numbers are pure placement.
// Counters (volume, moves, repacked nodes per move) are reported for the
// last run of each variant.
#include <benchmark/benchmark.h>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
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

void run_place(benchmark::State& state, const place::PlaceOptions& opt) {
  const place::NodeSet& nodes = problem();
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
  state.counters["exchanges"] = static_cast<double>(last.exchanges_accepted);
}

void BM_PlacePack(benchmark::State& state) {
  place::PlaceOptions opt;
  opt.seed = 7;
  opt.threads = 1;
  run_place(state, opt);
}

void BM_PlaceThreads(benchmark::State& state) {
  place::PlaceOptions opt;
  opt.seed = 7;
  opt.replicas = 4;
  opt.threads = static_cast<int>(state.range(0));
  run_place(state, opt);
}

}  // namespace

BENCHMARK(BM_PlacePack)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlaceThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
