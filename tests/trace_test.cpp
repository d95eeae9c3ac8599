// Unit tests for the tracing/metrics subsystem (common/trace.h): disabled
// spans stay near-free, enabled spans export well-formed Chrome trace JSON
// with one tid row per recording thread, the counter/gauge/series/histogram
// registry snapshots deterministically, histograms merge their per-thread
// shards commutatively, and the flight recorder keeps a bounded
// overwrite-oldest ring per thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/trace.h"

namespace tqec {
namespace {

/// Every test starts from a clean, disabled tracer (the suite shares one
/// process-wide collector).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override { reset_all(); }
  static void reset_all() {
    trace::set_enabled(false);
    trace::set_flight_recorder_enabled(false);
    trace::reset_events();
    trace::reset_metrics();
    trace::reset_flight_records();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothingAndAreCheap) {
  const std::size_t before = trace::event_count();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    TQEC_TRACE_SPAN("trace_test.disabled");
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(trace::event_count(), before);
  // One relaxed atomic load per span; even a sanitizer build does a million
  // of those well under a second.
  EXPECT_LT(elapsed_s, 1.0);
}

TEST_F(TraceTest, EnabledSpansAreRecordedAndNest) {
  trace::set_enabled(true);
  {
    TQEC_TRACE_SPAN("trace_test.outer");
    {
      TQEC_TRACE_SPAN("trace_test.inner");
    }
  }
  EXPECT_EQ(trace::event_count(), 2u);
  trace::reset_events();
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST_F(TraceTest, SpanEndIsIdempotent) {
  trace::set_enabled(true);
  trace::Span span("trace_test.manual");
  span.end();
  span.end();  // destructor will be the third close; still one event
  EXPECT_EQ(trace::event_count(), 1u);
}

TEST_F(TraceTest, ChromeTraceJsonIsWellFormed) {
  trace::set_enabled(true);
  {
    TQEC_TRACE_SPAN("trace_test.export", "detail \"quoted\"\n");
  }
  const json::Value doc = json::parse(trace::chrome_trace_json());
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool found = false;
  for (const json::Value& e : events.array) {
    if (e.at("ph").as_string() != "X") continue;
    EXPECT_EQ(e.at("pid").as_int(), 1);
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    if (e.at("name").as_string() == "trace_test.export") {
      found = true;
      EXPECT_EQ(e.at("args").at("detail").as_string(), "detail \"quoted\"\n");
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, ThreadsGetDistinctTidRows) {
  trace::set_enabled(true);
  auto record = [] { TQEC_TRACE_SPAN("trace_test.worker"); };
  std::thread a(record), b(record);
  a.join();
  b.join();
  const json::Value doc = json::parse(trace::chrome_trace_json());
  std::set<std::int64_t> tids;
  for (const json::Value& e : doc.at("traceEvents").array)
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "trace_test.worker")
      tids.insert(e.at("tid").as_int());
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(TraceTest, RegistrySnapshotsSortedAndResets) {
  trace::set_enabled(true);
  trace::counter_add("b.counter", 2);
  trace::counter_add("a.counter", 1);
  trace::counter_add("b.counter", 3);
  trace::gauge_set("z.gauge", 1.0);
  trace::gauge_set("z.gauge", 2.5);
  trace::series_append("curve", 0, 10);
  trace::series_append("curve", 1, 20);
  trace::series_put("replaced", {0, 1}, {5, 6});

  const trace::MetricsSnapshot snap = trace::snapshot_metrics();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.counter");  // sorted by name
  EXPECT_EQ(snap.counters[0].second, 1);
  EXPECT_EQ(snap.counters[1].first, "b.counter");
  EXPECT_EQ(snap.counters[1].second, 5);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);  // last write wins
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].name, "curve");
  EXPECT_EQ(snap.series[0].y, (std::vector<double>{10, 20}));
  EXPECT_EQ(snap.series[1].name, "replaced");
  EXPECT_EQ(snap.series[1].x, (std::vector<double>{0, 1}));

  trace::reset_metrics();
  EXPECT_TRUE(trace::snapshot_metrics().empty());
}

TEST_F(TraceTest, DisabledMetricsAreNoops) {
  trace::counter_add("ignored", 7);
  trace::gauge_set("ignored", 7);
  trace::series_append("ignored", 0, 7);
  EXPECT_TRUE(trace::snapshot_metrics().empty());
}

TEST_F(TraceTest, CounterAddsFromThreadsSumDeterministically) {
  trace::set_enabled(true);
  auto work = [] {
    for (int i = 0; i < 1000; ++i) trace::counter_add("threaded", 1);
  };
  std::thread a(work), b(work);
  a.join();
  b.join();
  const trace::MetricsSnapshot snap = trace::snapshot_metrics();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 2000);
}


// ---------------------------------------------------------------------------
// Histograms

TEST_F(TraceTest, HistogramBucketBoundsAreLogSpaced) {
  // 27 finite bounds, 10^(1/3) apart, from 1us; then the +Inf overflow.
  EXPECT_DOUBLE_EQ(trace::histogram_bucket_bound(0), 1e-6);
  EXPECT_NEAR(trace::histogram_bucket_bound(3), 1e-5, 1e-12);
  EXPECT_NEAR(trace::histogram_bucket_bound(18), 1.0, 1e-9);
  for (std::size_t i = 1; i < trace::kHistogramFiniteBuckets; ++i) {
    const double ratio = trace::histogram_bucket_bound(i) /
                         trace::histogram_bucket_bound(i - 1);
    EXPECT_NEAR(ratio, std::pow(10.0, 1.0 / 3.0), 1e-6);
  }
  EXPECT_TRUE(std::isinf(
      trace::histogram_bucket_bound(trace::kHistogramBuckets - 1)));
}

TEST_F(TraceTest, HistogramBucketEdgesAreInclusive) {
  trace::Histogram h("edges");
  h.record_s(1e-6);    // exactly bound 0 -> bucket 0 (inclusive upper bound)
  h.record_s(1.5e-6);  // between bounds 0 and 1 -> bucket 1
  h.record_s(0.0);     // bucket 0
  h.record_s(-3.0);    // negative clamps to 0 -> bucket 0
  h.record_s(1000.0);  // beyond the last finite bound (~464s) -> +Inf
  const trace::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.buckets[0], 3u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[trace::kHistogramBuckets - 1], 1u);
  EXPECT_EQ(snap.min_ns, 0);
  EXPECT_EQ(snap.max_ns, 1000'000'000'000);
}

TEST_F(TraceTest, HistogramSumsAreExactIntegerNanoseconds) {
  trace::Histogram h("exact");
  for (int i = 0; i < 3; ++i) h.record_s(0.001);
  const trace::HistogramSnapshot snap = h.snapshot();
  // Integer-nanosecond accumulation: no floating-point drift, and the
  // cross-shard merge is exact regardless of summation order.
  EXPECT_EQ(snap.sum_ns, 3'000'000);
  EXPECT_DOUBLE_EQ(snap.mean_s(), 0.001);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

/// The same multiset of samples recorded by any thread count must produce
/// bit-identical aggregates — the histogram determinism contract. Under
/// TSan this also pins the record path data-race-free.
TEST_F(TraceTest, HistogramAggregatesAreThreadCountInvariant) {
  // A fixed multiset of samples spanning several buckets (derived from a
  // small LCG so the test is seedless and deterministic).
  std::vector<double> samples;
  std::uint64_t x = 12345;
  for (int i = 0; i < 4096; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    samples.push_back(1e-6 * static_cast<double>(x % 1'000'000));
  }
  trace::HistogramSnapshot reference;
  for (const int threads : {1, 2, 8}) {
    trace::Histogram h("invariant");
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t);
             i < samples.size(); i += static_cast<std::size_t>(threads))
          h.record_s(samples[i]);
      });
    for (std::thread& t : pool) t.join();
    const trace::HistogramSnapshot snap = h.snapshot();
    if (threads == 1) {
      reference = snap;
      continue;
    }
    EXPECT_EQ(snap.count, reference.count) << threads << " threads";
    EXPECT_EQ(snap.sum_ns, reference.sum_ns) << threads << " threads";
    EXPECT_EQ(snap.min_ns, reference.min_ns) << threads << " threads";
    EXPECT_EQ(snap.max_ns, reference.max_ns) << threads << " threads";
    EXPECT_EQ(snap.buckets, reference.buckets) << threads << " threads";
  }
}

TEST_F(TraceTest, RegistryHistogramsAreGatedAndSnapshotSorted) {
  trace::histogram_record("ignored", 0.5);  // disabled -> no-op
  EXPECT_TRUE(trace::snapshot_metrics().empty());

  trace::set_enabled(true);
  trace::histogram_record("b.latency", 0.5);
  trace::histogram_record("a.latency", 0.25);
  trace::histogram_record("a.latency", 0.125);
  const trace::MetricsSnapshot snap = trace::snapshot_metrics();
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "a.latency");  // sorted by name
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[1].name, "b.latency");
  EXPECT_EQ(snap.histograms[1].count, 1u);

  // reset_metrics zeroes the contents; zero-count histograms are omitted
  // from later snapshots.
  trace::reset_metrics();
  EXPECT_TRUE(trace::snapshot_metrics().empty());
}

TEST_F(TraceTest, HistogramJsonRendersBucketsAndInf) {
  trace::Histogram h("json");
  h.record_s(0.5);
  h.record_s(1000.0);
  json::Writer w;
  trace::write_histogram(w, h.snapshot());
  const json::Value doc = json::parse(w.str());
  EXPECT_EQ(doc.at("count").as_int(), 2);
  EXPECT_GT(doc.at("mean_s").as_double(), 0);
  const json::Value& buckets = doc.at("buckets");
  ASSERT_TRUE(buckets.is_array());
  ASSERT_EQ(buckets.array.size(), 2u);  // zero-count buckets omitted
  EXPECT_TRUE(buckets.array[0].at("le").is_number());
  EXPECT_EQ(buckets.array[1].at("le").as_string(), "+Inf");
}

TEST_F(TraceTest, OpenMetricsTextExposition) {
  trace::Histogram h("serve.request_s");
  h.record_s(0.5);
  h.record_s(2.0);
  h.record_s(1000.0);
  const std::string text = trace::openmetrics_text(
      {{"tqec_serve_requests", 3}}, {{"tqec_serve_inflight", 1.0}},
      {h.snapshot()});
  // Counters get the spec's _total suffix; names sanitize '.' to '_'.
  EXPECT_NE(text.find("# TYPE tqec_serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("tqec_serve_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tqec_serve_inflight gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE serve_request_s histogram\n"),
            std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("serve_request_s_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_s_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_s_count 3\n"), std::string::npos);
  // The exposition terminator is the last line.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST_F(TraceTest, FlightRecorderIsIndependentOfTracing) {
  trace::set_flight_recorder_enabled(true);
  EXPECT_FALSE(trace::enabled());
  {
    TQEC_TRACE_SPAN("trace_test.flight_only");
  }
  // The span landed in the ring but not in the Chrome-trace buffer.
  EXPECT_EQ(trace::event_count(), 0u);
  const std::vector<trace::FlightRecord> records =
      trace::flight_records_this_thread();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "trace_test.flight_only");
  EXPECT_EQ(records[0].tid, trace::thread_id());
}

TEST_F(TraceTest, FlightRecorderRingWrapsOverwritingOldest) {
  trace::set_flight_recorder_enabled(true);
  const std::size_t extra = 50;
  for (std::size_t i = 0; i < trace::kFlightRecorderCapacity + extra; ++i) {
    TQEC_TRACE_SPAN("trace_test.wrap");
  }
  const std::vector<trace::FlightRecord> records =
      trace::flight_records_this_thread();
  // Bounded at capacity, oldest overwritten, oldest-first ordering.
  ASSERT_EQ(records.size(), trace::kFlightRecorderCapacity);
  EXPECT_TRUE(std::is_sorted(
      records.begin(), records.end(),
      [](const trace::FlightRecord& a, const trace::FlightRecord& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST_F(TraceTest, FlightRecorderMinStartFilterIsolatesARequest) {
  trace::set_flight_recorder_enabled(true);
  {
    TQEC_TRACE_SPAN("trace_test.before");
  }
  const std::uint64_t t = trace::now_ns();
  {
    TQEC_TRACE_SPAN("trace_test.after");
  }
  const std::vector<trace::FlightRecord> records =
      trace::flight_records_this_thread(t);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "trace_test.after");
  // The unfiltered view still has both.
  EXPECT_EQ(trace::flight_records_this_thread().size(), 2u);
  trace::reset_flight_records();
  EXPECT_TRUE(trace::flight_records_this_thread().empty());
}

TEST_F(TraceTest, FlightRecordsAllMergesThreads) {
  trace::set_flight_recorder_enabled(true);
  auto record = [] { TQEC_TRACE_SPAN("trace_test.flight_worker"); };
  std::thread a(record), b(record);
  a.join();
  b.join();
  const std::vector<trace::FlightRecord> records =
      trace::flight_records_all();
  std::set<int> tids;
  for (const trace::FlightRecord& r : records)
    if (std::string(r.name) == "trace_test.flight_worker")
      tids.insert(r.tid);
  EXPECT_GE(tids.size(), 2u);
}

TEST_F(TraceTest, ParseEnvEnabledChecksItsInput) {
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", nullptr));
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", ""));
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", "0"));
  EXPECT_TRUE(trace::parse_env_enabled("TQEC_TRACE", "1"));
  EXPECT_TRUE(trace::parse_env_enabled("TQEC_TRACE", "2"));
  // Malformed values disable tracing (with a one-time stderr warning)
  // instead of aborting through an unchecked stoi.
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", "x"));
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", "yes"));
  EXPECT_FALSE(trace::parse_env_enabled("TQEC_TRACE", "1x"));
}

}  // namespace
}  // namespace tqec
