// tqec::Compiler — the compilation-service facade.
//
// Wraps the core::compile pipeline behind a request/response API suitable
// for long-running processes (tools/tqec_serve, embedders, tests):
//
//   * Structured errors. Every failure mode — malformed input, unknown
//     benchmark, cancellation, deadline overrun, internal defect, a result
//     that is not legal — comes back as a CompileError with a
//     machine-readable code instead of an exception unwinding through the
//     caller. A successful response therefore always holds a legal result.
//   * Cooperative cancellation and deadlines. The request's CancelToken is
//     polled at stage boundaries; a positive deadline_s arms a watchdog on
//     the progress callback that fires the token once wall-clock runs out.
//   * Content-hash stage caching. The deterministic pure-function prefix of
//     the pipeline — gate decomposition, Clifford+T -> ICM, PD-graph
//     construction — is memoized in a shared StageCache keyed by the
//     canonical serialization of each stage's input, so identical circuits
//     across requests skip straight to the seeded heuristics. The heuristic
//     stages (bridging, placement, routing) depend on seeds/effort/jobs and
//     are never cached.
//
// One Compiler instance serves many requests, concurrently: the cache is
// internally locked and core::compile keeps its state on the stack.
#pragma once

#include <cstdint>
#include <string>

#include "core/compiler.h"
#include "core/shard.h"
#include "core/stage_cache.h"

namespace tqec {

struct CompilerConfig {
  /// Stage-cache byte budget; <= 0 or cache_enabled=false turns caching
  /// off (every request recomputes the full pipeline).
  std::int64_t cache_bytes = std::int64_t{256} << 20;
  bool cache_enabled = true;
};

/// One compilation request. Exactly one of the three input kinds must be
/// set: RevLib source text, ICM source text, or a paper-benchmark name
/// (workload generator, seeded by options.seed).
struct CompileRequest {
  std::string id;  // caller's correlation id, echoed through responses
  std::string real_text;
  std::string icm_text;
  std::string benchmark;
  /// Run the reversible peephole pass before decomposition (.real only;
  /// same default as the tqec_compress CLI).
  bool optimize = true;
  /// Pipeline knobs, including options.cancel (cancellation token) and
  /// options.progress (stage-boundary callback).
  core::CompileOptions options;
  /// Time-axis sharding knobs (core/shard.h). shard.window <= 0 (the
  /// default) keeps the unsharded pipeline; > 0 routes the request through
  /// core::compile_sharded (window compiles bypass the PD-graph cache
  /// stage — each window is its own circuit).
  core::ShardOptions shard;
  /// Wall-clock budget in seconds; 0 disables. Checked at stage
  /// boundaries, so a request never outlives its deadline by more than
  /// one stage.
  double deadline_s = 0;
};

struct CompileError {
  enum class Code : std::uint8_t {
    None = 0,
    BadRequest,         // malformed request (no input kind, unknown name)
    Parse,              // input text failed to parse; source/line filled in
    Cancelled,          // options.cancel fired
    DeadlineExceeded,   // deadline_s elapsed (the watchdog fired the token)
    Internal,           // pipeline invariant failure
    NotLegal,           // the compile finished, but its result is illegal
  };
  Code code = Code::None;
  std::string message;
  std::string source;  // Parse only: input name
  int line = 0;        // Parse only: 1-based, 0 = whole-document
  /// Stable machine-readable name ("bad_request", "parse_error", ...).
  const char* code_name() const;
};

struct CompileResponse {
  bool ok = false;
  CompileError error;
  /// Valid when ok, and on a NotLegal error (the illegal result, kept for
  /// diagnosis); result.cache records this request's stage-cache outcomes
  /// (and flows into stats_json / tqec_report).
  core::CompileResult result;
  double wall_s = 0;
};

class Compiler {
 public:
  explicit Compiler(CompilerConfig config = {});

  /// Serve one request. Never throws; all failures land in response.error.
  /// Thread-safe: concurrent calls share only the locked stage cache.
  CompileResponse compile(const CompileRequest& request);

  core::StageCache::Stats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

  /// Latency distribution of every stage-cache lookup this Compiler has
  /// performed (hits and misses alike — the *lookup*, not the recompute).
  /// Always recorded: two clock reads per lookup against a pipeline of
  /// milliseconds-to-minutes is noise, and a long-running service wants
  /// cache health observable without a restart. Purely observational.
  trace::HistogramSnapshot cache_lookup_latency() const {
    return cache_lookup_s_.snapshot();
  }

 private:
  /// cache_.get with the lookup latency recorded into cache_lookup_s_.
  template <typename T>
  std::shared_ptr<const T> timed_get(const core::CacheKey& key) {
    const std::uint64_t t0 = trace::now_ns();
    std::shared_ptr<const T> value = cache_.get<T>(key);
    cache_lookup_s_.record_s(
        static_cast<double>(trace::now_ns() - t0) / 1e9);
    return value;
  }

  CompilerConfig config_;
  core::StageCache cache_;
  trace::Histogram cache_lookup_s_{"serve.cache_lookup_s"};
};

}  // namespace tqec
