#include "core/service.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/error.h"
#include "core/paper_tables.h"
#include "core/shard.h"
#include "decompose/decompose.h"
#include "icm/builder.h"
#include "icm/serialize.h"
#include "icm/workload.h"
#include "pdgraph/pd_graph.h"
#include "qcir/optimizer.h"
#include "qcir/revlib.h"

namespace tqec {

namespace {

/// Canonical text of a Clifford+T circuit, the ICM-stage cache key input.
/// The name is included because ICM outputs embed it (write_icm round-trips
/// it), so same-gates/different-name circuits must not share an entry.
std::string canonical_clifford_text(const qcir::Circuit& circuit) {
  std::string out = "cliffordt 1 " + circuit.name() + "\n";
  out += "qubits " + std::to_string(circuit.num_qubits()) + "\n";
  for (const qcir::Gate& g : circuit.gates()) {
    out += g.to_string();
    out += '\n';
  }
  return out;
}

// Byte-size estimates for cache accounting. The cache never inspects its
// values, so these only need to be deterministic and proportional — the LRU
// budget is a memory-pressure bound, not an allocator audit.
std::int64_t estimate_bytes(const qcir::Circuit& c) {
  return 64 + static_cast<std::int64_t>(c.gates().size()) *
                  static_cast<std::int64_t>(sizeof(qcir::Gate));
}

std::int64_t estimate_bytes(const icm::IcmCircuit& c) {
  return 64 + 8 * static_cast<std::int64_t>(c.num_lines()) +
         16 * static_cast<std::int64_t>(c.cnots().size()) +
         16 * static_cast<std::int64_t>(c.meas_order().size());
}

std::int64_t estimate_bytes(const pdgraph::PdGraph& g) {
  return 64 + 128 * static_cast<std::int64_t>(g.module_count()) +
         64 * static_cast<std::int64_t>(g.net_count()) +
         16 * static_cast<std::int64_t>(g.meas_order().size());
}

CompileError make_error(CompileError::Code code, std::string message) {
  CompileError e;
  e.code = code;
  e.message = std::move(message);
  return e;
}

}  // namespace

const char* CompileError::code_name() const {
  switch (code) {
    case Code::None: return "none";
    case Code::BadRequest: return "bad_request";
    case Code::Parse: return "parse_error";
    case Code::Cancelled: return "cancelled";
    case Code::DeadlineExceeded: return "deadline_exceeded";
    case Code::Internal: return "internal";
    case Code::NotLegal: return "not_legal";
  }
  return "?";
}

Compiler::Compiler(CompilerConfig config)
    : config_(config),
      cache_(config.cache_enabled ? config.cache_bytes : 0) {}

CompileResponse Compiler::compile(const CompileRequest& request) {
  const auto t_start = std::chrono::steady_clock::now();
  CompileResponse response;
  const bool caching = config_.cache_enabled && config_.cache_bytes > 0;
  core::CacheUsage usage;
  usage.enabled = caching;

  const int kinds = (request.real_text.empty() ? 0 : 1) +
                    (request.icm_text.empty() ? 0 : 1) +
                    (request.benchmark.empty() ? 0 : 1);
  if (kinds != 1) {
    response.error = make_error(
        CompileError::Code::BadRequest,
        kinds == 0 ? "request has no input (need real, icm, or benchmark)"
                   : "request has multiple inputs (need exactly one of "
                     "real, icm, benchmark)");
    response.wall_s = seconds_since(t_start);
    return response;
  }

  // Deadline watchdog: piggybacks on the stage-boundary progress callback,
  // firing the request's own cancel token when the budget runs out.
  // `deadline_fired` distinguishes DeadlineExceeded from a caller-initiated
  // Cancelled once CancelledError surfaces.
  core::CompileOptions options = request.options;
  auto deadline_fired = std::make_shared<std::atomic<bool>>(false);
  if (request.deadline_s > 0) {
    const auto inner = options.progress;
    const auto cancel = options.cancel;
    const double budget = request.deadline_s;
    options.progress = [inner, cancel, deadline_fired, budget,
                        t_start](const char* stage) {
      if (inner) inner(stage);
      if (seconds_since(t_start) > budget) {
        deadline_fired->store(true, std::memory_order_relaxed);
        cancel.cancel();
      }
    };
  }

  try {
    // ---- Cached pure-prefix stages -------------------------------------
    icm::IcmCircuit icm_built;
    std::shared_ptr<const icm::IcmCircuit> icm_cached;
    if (!request.real_text.empty()) {
      qcir::Circuit reversible = qcir::parse_real_string(
          request.real_text, request.id.empty() ? "<real>" : request.id);
      if (request.optimize) reversible = qcir::optimize(reversible);

      // Stage: gate decomposition, keyed by the canonical RevLib text of
      // the (post-peephole) reversible circuit.
      std::shared_ptr<const qcir::Circuit> clifford;
      const core::CacheKey dkey = core::make_cache_key(
          "decompose/v1", qcir::write_real(reversible));
      if (caching) clifford = timed_get<qcir::Circuit>(dkey);
      usage.decompose = clifford ? "hit" : "miss";
      if (!clifford) {
        auto built = std::make_shared<const qcir::Circuit>(
            decompose::decompose(reversible));
        if (caching) cache_.put(dkey, built, estimate_bytes(*built));
        clifford = std::move(built);
      }

      // Stage: Clifford+T -> ICM.
      const core::CacheKey ikey = core::make_cache_key(
          "icm/v1", canonical_clifford_text(*clifford));
      if (caching) icm_cached = timed_get<icm::IcmCircuit>(ikey);
      usage.icm = icm_cached ? "hit" : "miss";
      if (!icm_cached) {
        auto built = std::make_shared<const icm::IcmCircuit>(
            icm::from_clifford_t(*clifford));
        if (caching) cache_.put(ikey, built, estimate_bytes(*built));
        icm_cached = std::move(built);
      }
    } else if (!request.icm_text.empty()) {
      std::istringstream in(request.icm_text);
      icm_built =
          icm::read_icm(in, request.id.empty() ? "<icm>" : request.id);
    } else {
      // Workload generator: the long-circuit layered family
      // ("long_<data>x<layers>...") or a paper benchmark's statistics;
      // seeded and cheap, so not worth a cache stage of its own (the
      // PD-graph stage below still caches its output).
      icm::LayeredWorkloadSpec layered;
      layered.seed = options.seed;
      if (icm::parse_layered_name(request.benchmark, layered)) {
        icm_built = icm::make_layered_workload(layered);
      } else {
        const core::PaperBenchmark* bench = nullptr;
        try {
          bench = &core::paper_benchmark(request.benchmark);
        } catch (const TqecError& e) {
          response.error =
              make_error(CompileError::Code::BadRequest, e.what());
          response.wall_s = seconds_since(t_start);
          return response;
        }
        icm_built =
            icm::make_workload(core::workload_spec(*bench, options.seed));
      }
    }
    const icm::IcmCircuit& icm = icm_cached ? *icm_cached : icm_built;

    if (request.shard.window > 0) {
      // ---- Sharded pipeline (core/shard.h) -----------------------------
      // Each window is compiled as its own circuit, so the full-circuit
      // PD graph is never built and the cache stage stays "skip".
      response.result =
          core::compile_sharded(icm, options, request.shard);
    } else {
      // Stage: PD-graph construction, keyed by the canonical ICM text (the
      // same serialization icm/serialize round-trips).
      std::shared_ptr<const pdgraph::PdGraph> graph;
      double pd_graph_s = 0;
      const core::CacheKey gkey =
          core::make_cache_key("pdgraph/v1", icm::to_icm_text(icm));
      if (caching) graph = timed_get<pdgraph::PdGraph>(gkey);
      usage.pd_graph = graph ? "hit" : "miss";
      if (!graph) {
        const auto t_build = std::chrono::steady_clock::now();
        auto built = std::make_shared<const pdgraph::PdGraph>(
            pdgraph::build_pd_graph(icm));
        pd_graph_s = seconds_since(t_build);
        if (caching) cache_.put(gkey, built, estimate_bytes(*built));
        graph = std::move(built);
      }

      // ---- Seeded pipeline (never cached) ------------------------------
      response.result = core::compile(icm, options, graph.get());
      response.result.timings.pd_graph_s = pd_graph_s;  // 0 on a cache hit
    }
    if (response.result.routed_legal) {
      response.ok = true;
    } else {
      std::string message =
          "compiled result is not legal: routing left " +
          std::to_string(response.result.routing.overused_cells) +
          " overused cell(s)";
      if (!response.result.shard.issues.empty())
        message += "; " + std::to_string(response.result.shard.issues.size()) +
                   " shard issue(s), first: " +
                   response.result.shard.issues.front();
      response.error = make_error(CompileError::Code::NotLegal, message);
    }
  } catch (const CancelledError& e) {
    response.error = make_error(
        deadline_fired->load(std::memory_order_relaxed)
            ? CompileError::Code::DeadlineExceeded
            : CompileError::Code::Cancelled,
        e.what());
  } catch (const ParseError& e) {
    response.error = make_error(CompileError::Code::Parse, e.what());
    response.error.source = e.source();
    response.error.line = e.line();
  } catch (const TqecError& e) {
    response.error = make_error(CompileError::Code::Internal, e.what());
  } catch (const std::exception& e) {
    response.error = make_error(CompileError::Code::Internal, e.what());
  }

  const core::StageCache::Stats stats = cache_.stats();
  usage.hits = stats.hits;
  usage.misses = stats.misses;
  usage.entries = stats.entries;
  usage.bytes = stats.bytes;
  usage.budget = stats.budget;
  usage.evictions = stats.evictions;
  response.result.cache = usage;
  response.wall_s = seconds_since(t_start);
  return response;
}

}  // namespace tqec
