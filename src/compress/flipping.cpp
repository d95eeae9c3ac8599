#include "compress/flipping.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"

namespace tqec::compress {

using pdgraph::ModuleId;
using pdgraph::NetId;
using pdgraph::PdGraph;

int PrimalBridging::bridge_count() const {
  int n = 0;
  for (const Chain& c : chains) n += static_cast<int>(c.points.size()) - 1;
  return n;
}

PrimalBridging bridge_primal(const PdGraph& graph, const IshapeResult& ishape,
                             std::uint64_t seed) {
  TQEC_TRACE_SPAN("compress.primal_bridge");
  PrimalBridging out;
  out.point_of_module.assign(static_cast<std::size_t>(graph.module_count()),
                             -1);

  // Points = I-shape groups over bridgeable modules. Injection modules
  // bind to their distillation boxes and order-constrained measurement
  // modules go into time-dependent super-modules (paper Sec. 3.5), so
  // neither participates in primal bridging.
  for (const auto& members : ishape.group_members()) {
    std::vector<ModuleId> kept;
    for (ModuleId m : members) {
      const pdgraph::PrimalModule& mod = graph.module(m);
      if (mod.origin != pdgraph::ModuleOrigin::Injection &&
          !mod.meas_constrained)
        kept.push_back(m);
    }
    if (kept.empty()) continue;
    const PointId p = static_cast<PointId>(out.point_members.size());
    for (ModuleId m : kept)
      out.point_of_module[static_cast<std::size_t>(m)] = p;
    out.point_members.push_back(std::move(kept));
  }
  const int num_points = out.point_count();

  // Candidate bridge edges: point pairs connected by a dual net (a common
  // segment exists exactly where a net passes through modules of both
  // points). Deduplicated.
  std::vector<std::pair<PointId, PointId>> edges;
  {
    std::vector<std::vector<PointId>> net_points(
        static_cast<std::size_t>(graph.net_count()));
    for (const pdgraph::DualNet& net : graph.nets()) {
      auto& pts = net_points[static_cast<std::size_t>(net.id)];
      for (ModuleId m : net.path()) {
        const PointId p = out.point_of_module[static_cast<std::size_t>(m)];
        if (p >= 0 && std::find(pts.begin(), pts.end(), p) == pts.end())
          pts.push_back(p);
      }
      for (std::size_t i = 0; i < pts.size(); ++i)
        for (std::size_t j = i + 1; j < pts.size(); ++j)
          edges.emplace_back(std::min(pts[i], pts[j]),
                             std::max(pts[i], pts[j]));
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  // Greedy chain construction as a degree-ordered path matching — the edge
  // form of the paper's Phi cost (eqs. 3-4): a point's candidate degree is
  // how many other points its dual nets reach, and scarce points must claim
  // their z-neighbours first while hub points keep capacity to stitch
  // chains together. Each point accepts at most two bridges (one per z
  // direction) and a cycle would close a loop, which bridging forbids.
  std::vector<int> degree(static_cast<std::size_t>(num_points), 0);
  for (const auto& [u, v] : edges) {
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  // The paper seeds its greedy with a random starting point; we use the
  // seed to permute equal-priority edges, which plays the same role for
  // restart-style exploration while staying reproducible.
  Rng rng(seed);
  std::vector<std::uint32_t> salt(edges.size());
  for (auto& s : salt) s = static_cast<std::uint32_t>(rng());
  std::vector<std::size_t> order(edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto key = [&](std::size_t e) {
      const auto [u, v] = edges[e];
      const int du = degree[static_cast<std::size_t>(u)];
      const int dv = degree[static_cast<std::size_t>(v)];
      return std::tuple(std::min(du, dv), std::max(du, dv), salt[e], e);
    };
    return key(a) < key(b);
  });

  UnionFind components(static_cast<std::size_t>(num_points));
  std::vector<int> path_degree(static_cast<std::size_t>(num_points), 0);
  std::vector<std::vector<PointId>> path_nbrs(
      static_cast<std::size_t>(num_points));
  auto try_add = [&](PointId u, PointId v) {
    if (path_degree[static_cast<std::size_t>(u)] >= 2) return false;
    if (path_degree[static_cast<std::size_t>(v)] >= 2) return false;
    if (!components.unite(static_cast<std::size_t>(u),
                          static_cast<std::size_t>(v)))
      return false;  // would close a loop
    ++path_degree[static_cast<std::size_t>(u)];
    ++path_degree[static_cast<std::size_t>(v)];
    path_nbrs[static_cast<std::size_t>(u)].push_back(v);
    path_nbrs[static_cast<std::size_t>(v)].push_back(u);
    return true;
  };
  // Two passes: legality only shrinks as degrees fill, so a second sweep
  // picks up edges that became the best remaining option.
  for (int pass = 0; pass < 2; ++pass)
    for (std::size_t e : order) try_add(edges[e].first, edges[e].second);

  // Extract chains by walking the degree-<=2 forest from its leaves.
  out.chain_of_point.assign(static_cast<std::size_t>(num_points), -1);
  std::vector<bool> emitted(static_cast<std::size_t>(num_points), false);
  auto emit_chain_from = [&](PointId start) {
    Chain chain;
    PointId prev = -1;
    PointId cur = start;
    for (;;) {
      chain.points.push_back(cur);
      emitted[static_cast<std::size_t>(cur)] = true;
      PointId next = -1;
      for (PointId n : path_nbrs[static_cast<std::size_t>(cur)])
        if (n != prev && !emitted[static_cast<std::size_t>(n)]) next = n;
      if (next < 0) break;
      prev = cur;
      cur = next;
    }
    const int chain_id = static_cast<int>(out.chains.size());
    for (PointId p : chain.points)
      out.chain_of_point[static_cast<std::size_t>(p)] = chain_id;
    out.chains.push_back(std::move(chain));
  };
  for (int p = 0; p < num_points; ++p)
    if (!emitted[static_cast<std::size_t>(p)] &&
        path_degree[static_cast<std::size_t>(p)] <= 1)
      emit_chain_from(p);
  // All degree-2 vertices belong to some path with leaf endpoints, so
  // everything is emitted; assert the invariant.
  for (int p = 0; p < num_points; ++p)
    TQEC_ASSERT(emitted[static_cast<std::size_t>(p)],
                "primal bridging left a point unemitted (cycle?)");

  // Flip planning (eq. 5): each z-bridge mirrors the attached module.
  out.flip_of_point.assign(static_cast<std::size_t>(num_points), 0);
  for (const Chain& chain : out.chains) {
    std::uint8_t f = 0;
    for (PointId p : chain.points) {
      out.flip_of_point[static_cast<std::size_t>(p)] = f;
      f = static_cast<std::uint8_t>(1 - f);
    }
  }

  return out;
}

PrimalBridging bridge_primal_best(const PdGraph& graph,
                                  const IshapeResult& ishape,
                                  std::uint64_t seed, int restarts, int jobs,
                                  RestartReport* report) {
  TQEC_TRACE_SPAN("compress.primal_best");
  TQEC_REQUIRE(restarts >= 1, "need at least one restart");
  // Restart 0 reuses the base seed (single-restart calls stay identical to
  // bridge_primal); the rest draw derived seeds up front so every restart
  // is an independent, index-addressed task.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(restarts));
  seeds[0] = seed;
  Rng seeder(seed);
  for (int r = 1; r < restarts; ++r)
    seeds[static_cast<std::size_t>(r)] = seeder();

  std::vector<PrimalBridging> candidates(static_cast<std::size_t>(restarts));
  std::vector<double> restart_s(static_cast<std::size_t>(restarts), 0.0);
  parallel_for(static_cast<std::size_t>(restarts), jobs, [&](std::size_t r) {
    const auto t0 = std::chrono::steady_clock::now();
    candidates[r] = bridge_primal(graph, ishape, seeds[r]);
    restart_s[r] = seconds_since(t0);
  });

  // Deterministic reduction: scan in restart order with a strict-less key,
  // so ties keep the earliest restart — bit-identical for any job count.
  const auto key = [](const PrimalBridging& b) {
    return std::pair(b.chain_count(), -b.bridge_count());
  };
  std::size_t best = 0;
  for (std::size_t r = 1; r < candidates.size(); ++r)
    if (key(candidates[r]) < key(candidates[best])) best = r;

  if (report != nullptr) {
    report->restart_s = std::move(restart_s);
    report->chain_counts.clear();
    report->bridge_counts.clear();
    for (const PrimalBridging& c : candidates) {
      report->chain_counts.push_back(c.chain_count());
      report->bridge_counts.push_back(c.bridge_count());
    }
    report->selected = static_cast<int>(best);
  }
  return std::move(candidates[best]);
}

}  // namespace tqec::compress
