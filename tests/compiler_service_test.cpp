// Tests for the tqec::Compiler service facade and the content-hash stage
// cache: cache-hit bit-identity (including trace-span absence), LRU
// eviction under a byte budget, cooperative cancellation and deadlines,
// structured errors, and concurrent requests sharing one cache (exercised
// under TSan in CI).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "core/paper_tables.h"
#include "core/service.h"
#include "core/stage_cache.h"
#include "geom/geometry.h"
#include "icm/serialize.h"

namespace tqec {
namespace {

const char kThreeCnotIcm[] =
    "icm 1 three-cnot\n"
    "lines 3\n"
    "line 0 zero z\n"
    "line 1 zero z\n"
    "line 2 zero z\n"
    "cnot 0 1\n"
    "cnot 2 1\n"
    "cnot 1 0\n";

// A small reversible circuit exercising decompose (Toffoli -> Clifford+T).
const char kToffoliReal[] =
    ".numvars 3\n"
    ".variables a b c\n"
    ".begin\n"
    "t3 a b c\n"
    "t2 a b\n"
    ".end\n";

CompileRequest icm_request(const std::string& id) {
  CompileRequest req;
  req.id = id;
  req.icm_text = kThreeCnotIcm;
  return req;
}

TEST(StageCacheTest, KeySeparatesTagInputAndFingerprint) {
  const core::CacheKey a = core::make_cache_key("icm/v1", "abc");
  const core::CacheKey b = core::make_cache_key("icm/v1", "abd");
  const core::CacheKey c = core::make_cache_key("pdgraph/v1", "abc");
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  // Length prefixes keep bytes from shifting across field boundaries.
  EXPECT_FALSE(core::make_cache_key("ab", "c") ==
               core::make_cache_key("a", "bc"));
  EXPECT_FALSE(core::make_cache_key("t", "x", "y") ==
               core::make_cache_key("t", "xy", ""));
  EXPECT_TRUE(a == core::make_cache_key("icm/v1", "abc"));
}

TEST(StageCacheTest, LruEvictionUnderByteBudget) {
  core::StageCache cache(100);
  const auto key = [](int i) {
    return core::make_cache_key("test", std::to_string(i));
  };
  const auto value = [](int i) {
    return std::make_shared<const int>(i);
  };
  cache.put<int>(key(1), value(1), 40);
  cache.put<int>(key(2), value(2), 40);
  EXPECT_NE(cache.get<int>(key(1)), nullptr);  // 1 is now most recent
  cache.put<int>(key(3), value(3), 40);        // 120 > 100: evict LRU = 2
  EXPECT_EQ(cache.get<int>(key(2)), nullptr);
  ASSERT_NE(cache.get<int>(key(1)), nullptr);
  EXPECT_EQ(*cache.get<int>(key(1)), 1);
  EXPECT_NE(cache.get<int>(key(3)), nullptr);

  const core::StageCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, 80);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.insertions, 3);

  // An entry bigger than the whole budget never sticks.
  cache.put<int>(key(4), value(4), 500);
  EXPECT_EQ(cache.get<int>(key(4)), nullptr);

  // A held shared_ptr outlives eviction of its entry.
  cache.clear();
  cache.put<int>(key(5), value(5), 40);
  const std::shared_ptr<const int> held = cache.get<int>(key(5));
  cache.clear();
  EXPECT_EQ(cache.get<int>(key(5)), nullptr);
  EXPECT_EQ(*held, 5);
}

TEST(StageCacheTest, ZeroBudgetDisablesStorage) {
  core::StageCache cache(0);
  const core::CacheKey k = core::make_cache_key("test", "x");
  cache.put<int>(k, std::make_shared<const int>(7), 4);
  EXPECT_EQ(cache.get<int>(k), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(CompilerServiceTest, SecondIdenticalRequestHitsCacheBitIdentically) {
  Compiler compiler;
  CompileRequest req = icm_request("first");
  req.options.emit_geometry = true;

  const CompileResponse r1 = compiler.compile(req);
  ASSERT_TRUE(r1.ok) << r1.error.message;
  EXPECT_EQ(r1.result.cache.pd_graph, "miss");
  EXPECT_TRUE(r1.result.cache.enabled);

  req.id = "second";
  const CompileResponse r2 = compiler.compile(req);
  ASSERT_TRUE(r2.ok) << r2.error.message;
  EXPECT_EQ(r2.result.cache.pd_graph, "hit");
  EXPECT_EQ(r2.result.cache.hits, 1);
  // The cached stage was skipped, not re-timed.
  EXPECT_EQ(r2.result.timings.pd_graph_s, 0.0);

  // Bit-identity of everything downstream of the cached prefix.
  EXPECT_EQ(r1.result.volume, r2.result.volume);
  EXPECT_EQ(r1.result.modules, r2.result.modules);
  EXPECT_EQ(r1.result.nodes, r2.result.nodes);
  EXPECT_EQ(r1.result.routed_legal, r2.result.routed_legal);
  EXPECT_EQ(geom::to_json(r1.result.geometry),
            geom::to_json(r2.result.geometry));
}

TEST(CompilerServiceTest, CacheHitSkipsStageRecompute) {
  // Span-absence proof that a hit skips the work rather than re-doing it:
  // on the second identical .real request none of decompose / ICM build /
  // PD-graph build run, so their trace spans never appear.
  Compiler compiler;
  CompileRequest req;
  req.id = "warm";
  req.real_text = kToffoliReal;

  trace::set_enabled(true);
  trace::reset_events();
  const CompileResponse r1 = compiler.compile(req);
  ASSERT_TRUE(r1.ok) << r1.error.message;
  EXPECT_EQ(r1.result.cache.decompose, "miss");
  EXPECT_EQ(r1.result.cache.icm, "miss");
  EXPECT_EQ(r1.result.cache.pd_graph, "miss");
  const std::string cold = trace::chrome_trace_json();
  EXPECT_NE(cold.find("decompose.clifford_t"), std::string::npos);
  EXPECT_NE(cold.find("pdgraph.build"), std::string::npos);

  trace::reset_events();
  const CompileResponse r2 = compiler.compile(req);
  trace::set_enabled(false);
  ASSERT_TRUE(r2.ok) << r2.error.message;
  EXPECT_EQ(r2.result.cache.decompose, "hit");
  EXPECT_EQ(r2.result.cache.icm, "hit");
  EXPECT_EQ(r2.result.cache.pd_graph, "hit");
  const std::string warm = trace::chrome_trace_json();
  EXPECT_EQ(warm.find("decompose.clifford_t"), std::string::npos);
  EXPECT_EQ(warm.find("icm.build"), std::string::npos);
  EXPECT_EQ(warm.find("pdgraph.build"), std::string::npos);
  EXPECT_NE(warm.find("core.compile"), std::string::npos);
  EXPECT_EQ(r1.result.volume, r2.result.volume);
  trace::reset_events();
}

TEST(CompilerServiceTest, DisabledCacheNeverHits) {
  Compiler compiler(CompilerConfig{0, false});
  const CompileResponse r1 = compiler.compile(icm_request("a"));
  const CompileResponse r2 = compiler.compile(icm_request("b"));
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_FALSE(r1.result.cache.enabled);
  EXPECT_EQ(r2.result.cache.pd_graph, "miss");
  EXPECT_EQ(r1.result.volume, r2.result.volume);
}

TEST(CompilerServiceTest, LruEvictionAcrossRequests) {
  // A budget too small for one PD graph: every request misses and the
  // insert is immediately evicted again.
  Compiler compiler(CompilerConfig{1, true});
  const CompileResponse r1 = compiler.compile(icm_request("a"));
  const CompileResponse r2 = compiler.compile(icm_request("b"));
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r2.result.cache.pd_graph, "miss");
  EXPECT_GE(r2.result.cache.evictions, 1);
  EXPECT_EQ(r2.result.cache.entries, 0);
  EXPECT_EQ(r1.result.volume, r2.result.volume);
}

TEST(CompilerServiceTest, StructuredParseErrors) {
  Compiler compiler;
  CompileRequest req;
  req.id = "broken.icm";
  req.icm_text = "icm 1 x\nlines 1\nline 0 zero z\ncnot 0 9\n";
  const CompileResponse r = compiler.compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, CompileError::Code::Parse);
  EXPECT_STREQ(r.error.code_name(), "parse_error");
  EXPECT_EQ(r.error.source, "broken.icm");
  EXPECT_EQ(r.error.line, 4);
  EXPECT_NE(r.error.message.find("not declared"), std::string::npos);

  CompileRequest real;
  real.id = "broken.real";
  real.real_text = ".numvars banana\n.begin\n.end\n";
  const CompileResponse r2 = compiler.compile(real);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.error.code, CompileError::Code::Parse);
  EXPECT_EQ(r2.error.line, 1);
}

TEST(CompilerServiceTest, BadRequests) {
  Compiler compiler;
  const CompileResponse none = compiler.compile(CompileRequest{});
  EXPECT_FALSE(none.ok);
  EXPECT_EQ(none.error.code, CompileError::Code::BadRequest);

  CompileRequest both = icm_request("x");
  both.benchmark = "hwb-50-56";
  const CompileResponse two = compiler.compile(both);
  EXPECT_FALSE(two.ok);
  EXPECT_EQ(two.error.code, CompileError::Code::BadRequest);

  CompileRequest unknown;
  unknown.benchmark = "no-such-benchmark";
  const CompileResponse miss = compiler.compile(unknown);
  EXPECT_FALSE(miss.ok);
  EXPECT_EQ(miss.error.code, CompileError::Code::BadRequest);
  EXPECT_NE(miss.error.message.find("no-such-benchmark"), std::string::npos);
}

// A compile that finishes with an illegal result is an error, never a
// success: ModularOnly 4gt4-v0_73 at seed 7 ends routing with 99 overused
// cells. The illegal result stays attached for diagnosis.
TEST(CompilerServiceTest, IllegalResultIsNotLegalError) {
  Compiler compiler;
  CompileRequest req;
  req.benchmark = "4gt4-v0_73";
  req.options.mode = core::PipelineMode::ModularOnly;
  req.options.seed = 7;
  req.options.emit_geometry = false;
  const CompileResponse r = compiler.compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, CompileError::Code::NotLegal);
  EXPECT_STREQ(r.error.code_name(), "not_legal");
  EXPECT_NE(r.error.message.find("99 overused"), std::string::npos)
      << r.error.message;
  EXPECT_FALSE(r.result.routed_legal);
  EXPECT_EQ(r.result.routing.overused_cells, 99);
}

TEST(CompilerServiceTest, CancellationMidPipeline) {
  // The progress callback cancels the token when the pipeline reaches the
  // dual-bridge boundary; compile() must stop there and report Cancelled.
  Compiler compiler;
  CompileRequest req = icm_request("cancel-me");
  std::vector<std::string> stages;
  req.options.progress = [&req, &stages](const char* stage) {
    stages.push_back(stage);
    if (std::string(stage) == "dual_bridge") req.options.cancel.cancel();
  };
  const CompileResponse r = compiler.compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, CompileError::Code::Cancelled);
  EXPECT_NE(r.error.message.find("dual_bridge"), std::string::npos);
  // The pipeline stopped: no stage after dual_bridge was announced.
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.back(), "dual_bridge");
}

TEST(CompilerServiceTest, PreCancelledTokenStopsAtFirstBoundary) {
  Compiler compiler;
  CompileRequest req = icm_request("dead-on-arrival");
  req.options.cancel.cancel();
  const CompileResponse r = compiler.compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, CompileError::Code::Cancelled);
}

TEST(CompilerServiceTest, DeadlineExceededIsDistinguishedFromCancelled) {
  Compiler compiler;
  CompileRequest req = icm_request("too-slow");
  req.deadline_s = 1e-9;  // expires before the first stage boundary
  const CompileResponse r = compiler.compile(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, CompileError::Code::DeadlineExceeded);
  EXPECT_STREQ(r.error.code_name(), "deadline_exceeded");
}

TEST(CompilerServiceTest, ConcurrentRequestsShareOneCache) {
  // Many threads, one Compiler: results must agree and the cache must end
  // up with exactly one PD-graph entry (concurrent misses may compute the
  // value twice, but determinism makes every copy identical). TSan runs
  // this in CI.
  Compiler compiler;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CompileResponse> responses(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&compiler, &responses, i] {
      responses[i] = compiler.compile(icm_request("t" + std::to_string(i)));
    });
  for (std::thread& t : threads) t.join();

  for (const CompileResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error.message;
    EXPECT_EQ(r.result.volume, responses[0].result.volume);
  }
  const core::StageCache::Stats s = compiler.cache_stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.hits + s.misses, kThreads);
  EXPECT_GE(s.hits, 1);
}

TEST(CompilerServiceTest, StatsJsonCarriesCacheSection) {
  Compiler compiler;
  compiler.compile(icm_request("warm"));
  const CompileResponse r = compiler.compile(icm_request("hit"));
  ASSERT_TRUE(r.ok);
  const std::string json = core::stats_json(r.result);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"pd_graph\": \"hit\""), std::string::npos);
  // The single-shot core::compile path reports caching disabled.
  const core::CompileResult direct =
      core::compile(icm::parse_icm_text(kThreeCnotIcm));
  EXPECT_NE(core::stats_json(direct).find("\"enabled\": false"),
            std::string::npos);
}

TEST(CompilerServiceTest, CacheLookupLatencyHistogramCountsLookups) {
  Compiler compiler;
  EXPECT_EQ(compiler.cache_lookup_latency().count, 0u);
  compiler.compile(icm_request("first"));
  const trace::HistogramSnapshot after_one = compiler.cache_lookup_latency();
  EXPECT_GT(after_one.count, 0u);
  compiler.compile(icm_request("second"));
  const trace::HistogramSnapshot after_two = compiler.cache_lookup_latency();
  // Identical requests issue identical lookup sequences (the second is all
  // hits, but a hit and a miss are each one lookup).
  EXPECT_EQ(after_two.count, 2 * after_one.count);
  EXPECT_GE(after_two.sum_ns, after_one.sum_ns);
}

/// Telemetry is observational: the same request compiled with every
/// collection surface off, and again with tracing + the flight recorder
/// on, must produce bit-identical results.
TEST(CompilerServiceTest, TelemetryOnOffIsBitIdentical) {
  trace::set_enabled(false);
  trace::set_flight_recorder_enabled(false);
  Compiler off_compiler;
  const CompileResponse off = off_compiler.compile(icm_request("off"));
  ASSERT_TRUE(off.ok);

  trace::set_enabled(true);
  trace::set_flight_recorder_enabled(true);
  Compiler on_compiler;
  const CompileResponse on = on_compiler.compile(icm_request("on"));
  trace::set_enabled(false);
  trace::set_flight_recorder_enabled(false);
  trace::reset_events();
  trace::reset_metrics();
  trace::reset_flight_records();
  ASSERT_TRUE(on.ok);

  EXPECT_EQ(on.result.volume, off.result.volume);
  EXPECT_EQ(on.result.canonical_volume, off.result.canonical_volume);
  EXPECT_EQ(on.result.modules, off.result.modules);
  EXPECT_EQ(on.result.nodes, off.result.nodes);
  EXPECT_EQ(on.result.routed_legal, off.result.routed_legal);
}

}  // namespace
}  // namespace tqec
