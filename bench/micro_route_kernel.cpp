// Google-benchmark coverage of the router's search kernel and negotiation
// schedule:
//
//   RouteKernel                      whole-routing time at threads=1 (bucket
//                                    open list, batched schedule, warm
//                                    windows);
//   RouteThreads/N                   batched schedule at N worker threads
//                                    (the CI bench-smoke sweep; wall-clock
//                                    gains need real cores, results are
//                                    bit-identical regardless).
//
// All variants route the same placements: mid-size SA workloads placed
// once per scale outside the timed region, so the numbers are pure
// routing. Counters (batches, conflicts, queue traffic) are reported for
// the last run of each variant.
#include <benchmark/benchmark.h>

#include <vector>

#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "compress/ishape.h"
#include "icm/workload.h"
#include "place/nodes.h"
#include "place/placer.h"
#include "route/router.h"

namespace {

using namespace tqec;

struct RoutingProblem {
  place::NodeSet nodes;
  place::Placement placement;
};

/// Place a mid-size workload once; every benchmark variant then routes the
/// identical placement.
const RoutingProblem& problem() {
  static const RoutingProblem p = [] {
    icm::WorkloadSpec spec;
    spec.name = "route_kernel";
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
    RoutingProblem out;
    out.nodes = place::build_nodes(graph, ishape, bridging, dual);
    place::PlaceOptions popt;
    popt.seed = 7;
    out.placement = place::place_modules(out.nodes, popt);
    return out;
  }();
  return p;
}

void run_route(benchmark::State& state, const route::RouteOptions& opt) {
  const RoutingProblem& p = problem();
  route::RoutingResult last;
  for (auto _ : state) {
    last = route::route_nets(p.nodes, p.placement, opt);
    benchmark::DoNotOptimize(last.total_wire);
  }
  state.counters["legal"] = last.legal ? 1 : 0;
  state.counters["wire"] = static_cast<double>(last.total_wire);
  state.counters["queue_pushes"] = static_cast<double>(last.queue_pushes);
  state.counters["batches"] = static_cast<double>(last.batches);
  state.counters["conflicts"] = static_cast<double>(last.conflicts_requeued);
  state.counters["nets_per_batch"] = last.parallel_efficiency;
}

void BM_RouteKernel(benchmark::State& state) {
  route::RouteOptions opt;
  opt.threads = 1;
  run_route(state, opt);
}

void BM_RouteThreads(benchmark::State& state) {
  route::RouteOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  run_route(state, opt);
}

}  // namespace

BENCHMARK(BM_RouteKernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RouteThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
