// Pipeline tracing and metrics: scoped spans, a named
// counter/gauge/series/histogram registry, a flight recorder of recent
// spans, and Chrome trace-event export.
//
// Everything is off by default and compiles down to one relaxed atomic load
// per call site when disabled, so instrumentation can stay in hot paths
// permanently. Enable with trace::set_enabled(true) (the CLI's --trace-json
// / --stats-json flags do this) or by setting TQEC_TRACE=1 in the
// environment.
//
// Collection surfaces:
//
//   Spans    — RAII scopes recorded per thread (own lock-free-in-practice
//              buffer per thread, so worker threads of the parallel stages
//              never contend). TQEC_TRACE_SPAN("route.pathfinder") at the
//              top of a scope records one complete event; names must be
//              string literals (they are stored by pointer). Export the
//              accumulated events with chrome_trace_json() /
//              write_chrome_trace_file() and open the file in Perfetto or
//              chrome://tracing; each recording thread appears as its own
//              tid row, so the jobs>1 place+route attempts separate.
//
//   Counters — named monotonic totals (trace::counter_add). Adds are
//              commutative, so concurrent attempts publishing to the same
//              counter still yield a deterministic final value.
//
//   Gauges / series — last-write named values and sampled (x, y) curves
//              (SA cost per batch, overused cells per PathFinder
//              iteration). Published from the sequential reduction in
//              core::compile so their content never depends on thread
//              scheduling.
//
//   Histograms — log-spaced latency distributions (trace::Histogram).
//              Each instance shards its buckets per recording thread and
//              merges shards with commutative integer sums at snapshot
//              time, so concurrent recorders on any thread count yield
//              identical aggregate values for the same multiset of
//              samples. Standalone instances (tqec_serve's request /
//              queue-wait / stage-latency histograms) are always on and
//              lock-free on the record path; the named-registry variant
//              (histogram_record) is gated like counters and lands in
//              MetricsSnapshot / stats_json.
//
//   Flight recorder — a bounded per-thread ring of recently *completed*
//              spans (overwrite-oldest), enabled independently of the
//              Chrome-trace event buffer so a long-running daemon can keep
//              it on forever with O(threads * capacity) memory. tqec_serve
//              uses it to attach the span tree of a slow request to the
//              response. Spans share one fast path for both surfaces: a
//              single relaxed load of a surface bitmask.
//
// Tracing is observational only: enabling it must never change any
// algorithmic result (core_test pins this down), and a compile's metrics
// are snapshotted into its CompileResult so stats_json stays a pure
// function of the result.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tqec::json {
class Writer;
}

namespace tqec::trace {

namespace detail {
/// Bitmask of enabled collection surfaces; a span arms when any bit is
/// set, so the disabled fast path stays one relaxed load.
inline constexpr unsigned kSurfaceTrace = 1u;   // spans + metrics registry
inline constexpr unsigned kSurfaceFlight = 2u;  // flight-recorder ring
extern std::atomic<unsigned> g_surfaces;
inline unsigned surfaces() {
  return g_surfaces.load(std::memory_order_relaxed);
}
}  // namespace detail

/// Whether trace collection (spans into the Chrome-trace buffer, registry
/// metrics) is on — one relaxed load; the fast path of every
/// instrumentation site.
inline bool enabled() {
  return (detail::surfaces() & detail::kSurfaceTrace) != 0;
}

/// Turn collection on or off. Thread-safe; spans already open keep
/// recording to their buffer so the exported file stays well-formed.
void set_enabled(bool on);

/// Checked parse of an on/off environment value (any integer; nonzero =
/// on). nullptr/empty is off; malformed text emits one stderr warning
/// naming the variable and counts as off — a bad TQEC_TRACE value must
/// never abort the process or silently enable tracing. Exposed so the
/// env-parsing contract is unit-testable without re-exec.
bool parse_env_enabled(const char* name, const char* value);

/// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
/// Shared by the tracer's tid rows and the log-line prefix.
int thread_id();

/// Nanoseconds since the process-wide trace epoch (first use).
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Process memory probes
//
// Always available (not gated on set_enabled): the sharded compiler's
// memory-ceiling claim is measured through these, and tqec_serve stamps
// them into every access-log line. Reads /proc/self/status on Linux
// (VmHWM / VmRSS) with a getrusage fallback for the high-water mark;
// returns 0 where the platform offers neither.

/// Peak resident set size of this process in bytes (high-water mark).
std::uint64_t peak_rss_bytes();
/// Current resident set size in bytes (live pages; 0 if unavailable).
std::uint64_t current_rss_bytes();

// ---------------------------------------------------------------------------
// Spans

/// RAII scoped span. Prefer the TQEC_TRACE_SPAN macro; use the class
/// directly (with end()) when a span must close before scope exit.
/// `name` must be a string literal (stored by pointer, never copied).
class Span {
 public:
  explicit Span(const char* name) {
    if (detail::surfaces() != 0) arm(name);
  }
  /// Variant with a free-form detail string, shown in the trace viewer's
  /// args pane. The detail is built by the caller even when tracing is
  /// off, so keep this overload out of per-iteration hot paths.
  Span(const char* name, std::string detail) {
    if (detail::surfaces() != 0) {
      arm(name);
      detail_ = std::move(detail);
    }
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now (idempotent; the destructor becomes a no-op).
  void end() {
    if (armed_) finish();
  }

 private:
  void arm(const char* name);
  void finish();

  const char* name_ = nullptr;
  std::string detail_;
  std::uint64_t start_ns_ = 0;
  /// Surfaces enabled when the span armed; the span records to exactly
  /// these on completion, so a surface toggled mid-span keeps its stream
  /// well-formed (an armed span still lands where collection was on).
  unsigned surfaces_ = 0;
  bool armed_ = false;
};

#define TQEC_TRACE_CAT2(a, b) a##b
#define TQEC_TRACE_CAT(a, b) TQEC_TRACE_CAT2(a, b)
/// TQEC_TRACE_SPAN("stage.name") or TQEC_TRACE_SPAN("stage.name", detail).
#define TQEC_TRACE_SPAN(...) \
  ::tqec::trace::Span TQEC_TRACE_CAT(tqec_trace_span_, __LINE__)(__VA_ARGS__)

/// Number of span events currently buffered across all threads.
std::size_t event_count();
/// Events discarded because a thread buffer hit its cap (runaway guard).
std::uint64_t dropped_events();
/// Drop all buffered span events (thread ids are retained).
void reset_events();

/// Serialize every buffered span as Chrome trace-event JSON
/// ({"traceEvents": [...]}, complete "X" events in microseconds, pid 1,
/// tid = thread_id() of the recording thread, plus thread_name metadata).
std::string chrome_trace_json();
/// Write chrome_trace_json() to `path`; false on I/O error.
bool write_chrome_trace_file(const std::string& path);

// ---------------------------------------------------------------------------
// Flight recorder
//
// A bounded ring of recently completed spans per recording thread,
// overwrite-oldest. Independent of the Chrome-trace buffer: a daemon keeps
// it always on (memory is bounded by threads * kFlightRecorderCapacity *
// sizeof(FlightRecord)) and asks "what did this thread just do?" after the
// fact — e.g. to attach the span tree of a slow request to its response.

/// One completed span as remembered by the ring. `name` is the span's
/// string literal (stored by pointer, never copied).
struct FlightRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int tid = 0;
};

/// Per-thread ring capacity (completed spans remembered per thread).
inline constexpr std::size_t kFlightRecorderCapacity = 256;

/// Turn the flight recorder on or off (independent of set_enabled).
void set_flight_recorder_enabled(bool on);
inline bool flight_recorder_enabled() {
  return (detail::surfaces() & detail::kSurfaceFlight) != 0;
}

/// Completed spans recorded by the *calling* thread with
/// start_ns >= min_start_ns, ordered oldest-first by start time. A worker
/// thread that just ran a request passes the request's admission timestamp
/// to get exactly that request's spans (inner parallel workers keep their
/// own rings).
std::vector<FlightRecord> flight_records_this_thread(
    std::uint64_t min_start_ns = 0);

/// Same, merged across every recording thread (diagnostics / tests).
std::vector<FlightRecord> flight_records_all(std::uint64_t min_start_ns = 0);

/// Drop every thread's ring contents.
void reset_flight_records();

// ---------------------------------------------------------------------------
// Histograms

/// Number of buckets: kHistogramFiniteBuckets log-spaced finite upper
/// bounds (10^(1/3) apart, 1us .. ~464s — three buckets per decade of
/// latency) plus one overflow (+Inf) bucket.
inline constexpr std::size_t kHistogramFiniteBuckets = 27;
inline constexpr std::size_t kHistogramBuckets = kHistogramFiniteBuckets + 1;

/// Upper bound (inclusive, seconds) of bucket `i`; +infinity for the last.
/// A sample lands in the first bucket whose bound is >= the value.
double histogram_bucket_bound(std::size_t i);

/// Point-in-time aggregate of one histogram, merged over all shards.
/// Sums are kept in integer nanoseconds so the merge is exact and
/// commutative: the same multiset of samples yields bit-identical totals
/// for any recording-thread count.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;
  std::int64_t min_ns = 0;  // 0 when count == 0
  std::int64_t max_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};  // per-bucket
  double sum_s() const { return static_cast<double>(sum_ns) / 1e9; }
  double min_s() const { return static_cast<double>(min_ns) / 1e9; }
  double max_s() const { return static_cast<double>(max_ns) / 1e9; }
  double mean_s() const {
    return count > 0 ? sum_s() / static_cast<double>(count) : 0.0;
  }
};

/// Fixed-layout latency histogram with per-thread shards. record_s() is
/// lock-free: it locates the calling thread's shard through an atomic
/// chunk table (allocated once per 64 thread ids) and bumps relaxed
/// atomics; no mutex is ever taken on the record path. Snapshots sum the
/// shards — commutative integer adds, so aggregates are deterministic for
/// any thread count. Standalone instances are always on (the owner decides
/// whether to call record_s); the registry variant below is gated on
/// trace::enabled().
class Histogram {
 public:
  explicit Histogram(std::string name);
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one sample (seconds; negative values clamp to 0). Safe from
  /// any thread, any time.
  void record_s(double seconds);

  HistogramSnapshot snapshot() const;
  /// Zero every shard (counts recorded concurrently with a reset may land
  /// on either side — callers reset only between measurement periods).
  void reset();
  const std::string& name() const { return name_; }

 private:
  struct Shard;
  static constexpr std::size_t kChunkSize = 64;   // shards per chunk
  static constexpr std::size_t kMaxChunks = 64;   // covers 4096 thread ids
  Shard* shard_for_this_thread();

  std::string name_;
  std::array<std::atomic<Shard*>, kMaxChunks> chunks_{};
};

// ---------------------------------------------------------------------------
// Metrics registry

/// Add `delta` to the named counter (no-op when disabled).
void counter_add(const char* name, long long delta);
/// Set the named gauge (last write wins; no-op when disabled).
void gauge_set(const char* name, double value);
/// Append one (x, y) sample to the named series (no-op when disabled).
void series_append(const char* name, double x, double y);
/// Replace the named series wholesale (no-op when disabled; x and y must
/// be the same length).
void series_put(const char* name, std::vector<double> x,
                std::vector<double> y);

/// Record one sample into the named registry histogram (no-op when
/// disabled). The histogram itself shards lock-free; only the name lookup
/// takes the registry mutex, like every other registry call.
void histogram_record(const char* name, double seconds);

struct SeriesChannel {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Point-in-time copy of the registry, sorted by name (deterministic).
/// Histograms with zero samples are omitted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, long long>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<SeriesChannel> series;
  std::vector<HistogramSnapshot> histograms;
  bool empty() const {
    return counters.empty() && gauges.empty() && series.empty() &&
           histograms.empty();
  }
};

MetricsSnapshot snapshot_metrics();
/// Clear every counter, gauge, series, and histogram (core::compile does
/// this at entry so each result snapshots only its own run).
void reset_metrics();

// ---------------------------------------------------------------------------
// OpenMetrics / Prometheus text exposition

/// Render counters, gauges, and histograms in the OpenMetrics text format
/// (one "# TYPE" line per family, cumulative `le` buckets with _sum and
/// _count, terminated by "# EOF") so a standard scraper can consume them.
/// Metric names are sanitized to [a-zA-Z0-9_:]; counter names should be
/// passed *without* the `_total` suffix (it is appended per the spec).
std::string openmetrics_text(
    const std::vector<std::pair<std::string, long long>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges,
    const std::vector<HistogramSnapshot>& histograms);

/// Write one histogram as a JSON object value (no name):
///   {"count": C, "sum_s": S, "min_s": m, "max_s": M, "mean_s": A,
///    "buckets": [{"le": 0.001, "n": 2}, ..., {"le": "+Inf", "n": 1}]}
/// Zero-count buckets are omitted; the overflow bucket's bound is the
/// string "+Inf" (JSON has no infinity literal). Shared by stats_json and
/// the tqec_serve admin protocol.
void write_histogram(json::Writer& w, const HistogramSnapshot& h);

}  // namespace tqec::trace
