#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/json.h"
#include "common/string_util.h"

namespace tqec::trace {

namespace {

/// Hard per-thread cap so a runaway loop cannot exhaust memory; beyond it
/// events are counted as dropped instead of stored.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

struct TraceEvent {
  const char* name;  // string literal, stored by pointer
  std::string detail;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

/// One buffer per recording thread. Only the owning thread appends, but the
/// per-buffer mutex lets export/reset run safely while other threads trace
/// (each append takes its own uncontended lock — nanoseconds, far below
/// span granularity). The flight-recorder ring shares the buffer (and its
/// mutex): a fixed-capacity overwrite-oldest window of completed spans,
/// lazily allocated on the first recorded span.
struct ThreadBuffer {
  int tid = 0;
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::vector<FlightRecord> ring;  // capacity kFlightRecorderCapacity
  std::size_t ring_next = 0;       // next slot to overwrite
  std::uint64_t ring_total = 0;    // lifetime spans pushed through the ring
};

struct Collector {
  std::mutex mutex;  // guards the buffer list and tid assignment
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
  std::atomic<std::uint64_t> dropped{0};
};

Collector& collector() {
  static Collector* c = new Collector();  // leaked: usable during exit
  return *c;
}

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    Collector& c = collector();
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.buffers.push_back(std::make_unique<ThreadBuffer>());
    c.buffers.back()->tid = c.next_tid++;
    return c.buffers.back().get();
  }();
  return *buffer;
}

struct Registry {
  std::mutex mutex;
  // std::map: snapshots come out name-sorted with no extra work.
  std::map<std::string, long long> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      series;
  // Histogram instances are created once and never destroyed by reset
  // (their contents are zeroed instead): a concurrent recorder may still
  // hold a pointer across the registry mutex. Zero-count histograms are
  // skipped at snapshot time, so stale names never leak into reports.
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

unsigned env_surfaces() {
  unsigned mask = 0;
  if (parse_env_enabled("TQEC_TRACE", std::getenv("TQEC_TRACE")))
    mask |= detail::kSurfaceTrace;
  if (parse_env_enabled("TQEC_FLIGHT", std::getenv("TQEC_FLIGHT")))
    mask |= detail::kSurfaceFlight;
  return mask;
}

}  // namespace

namespace detail {
std::atomic<unsigned> g_surfaces{env_surfaces()};
}  // namespace detail

bool parse_env_enabled(const char* name, const char* value) {
  if (value == nullptr || *value == '\0') return false;
  const auto parsed = try_parse_i64(value);
  if (!parsed) {
    // Checked parse instead of atoi: atoi turned "TQEC_TRACE=yes" into a
    // silent 0. A single fprintf keeps the warning line atomic, and the
    // callers (static initializer, set_enabled) make it effectively
    // one-time per malformed value.
    std::fprintf(stderr,
                 "[tqec WARN ] %s='%s' is not an integer (use 0 or 1); "
                 "treating as disabled\n",
                 name, value);
    return false;
  }
  return *parsed != 0;
}

namespace {
void set_surface(unsigned bit, bool on) {
  if (on) {
    epoch();  // pin the epoch before the first event
    detail::g_surfaces.fetch_or(bit, std::memory_order_relaxed);
  } else {
    detail::g_surfaces.fetch_and(~bit, std::memory_order_relaxed);
  }
}
}  // namespace

void set_enabled(bool on) { set_surface(detail::kSurfaceTrace, on); }

void set_flight_recorder_enabled(bool on) {
  set_surface(detail::kSurfaceFlight, on);
}

int thread_id() { return thread_buffer().tid; }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

namespace {

/// Parse "<Key>:  <kB> kB" from /proc/self/status; 0 when absent.
std::uint64_t proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':')
      continue;
    kb = std::strtoull(line + key_len + 1, nullptr, 10);
    break;
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t kb = proc_status_kb("VmHWM")) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // kB elsewhere
#endif
  }
#endif
  return 0;
}

std::uint64_t current_rss_bytes() {
  return proc_status_kb("VmRSS") * 1024;
}

void Span::arm(const char* name) {
  name_ = name;
  surfaces_ = detail::surfaces();
  start_ns_ = now_ns();
  armed_ = true;
}

void Span::finish() {
  armed_ = false;
  const std::uint64_t end_ns = now_ns();
  // The arm-time mask decides where the span lands: a surface toggled off
  // mid-span still receives it (exports stay well-formed), one toggled on
  // mid-span does not (it never saw the start).
  const unsigned mask = surfaces_;
  if (mask == 0) return;
  ThreadBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  if (mask & detail::kSurfaceFlight) {
    if (buffer.ring.empty()) buffer.ring.resize(kFlightRecorderCapacity);
    buffer.ring[buffer.ring_next] =
        {name_, start_ns_, end_ns - start_ns_, buffer.tid};
    buffer.ring_next = (buffer.ring_next + 1) % kFlightRecorderCapacity;
    buffer.ring_total += 1;
  }
  if (mask & detail::kSurfaceTrace) {
    if (buffer.events.size() >= kMaxEventsPerThread) {
      collector().dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buffer.events.push_back(
        {name_, std::move(detail_), start_ns_, end_ns - start_ns_});
  }
}

std::size_t event_count() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  std::size_t n = 0;
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

std::uint64_t dropped_events() {
  return collector().dropped.load(std::memory_order_relaxed);
}

void reset_events() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  c.dropped.store(0, std::memory_order_relaxed);
}

namespace {

/// Ring contents of one buffer, oldest-first, filtered by start time.
/// Caller holds the buffer mutex.
void append_ring_locked(const ThreadBuffer& buffer, std::uint64_t min_start_ns,
                        std::vector<FlightRecord>& out) {
  if (buffer.ring.empty()) return;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(
          buffer.ring_total, kFlightRecorderCapacity));
  // Oldest entry sits at ring_next once the ring has wrapped, at 0 before.
  const std::size_t first =
      buffer.ring_total > kFlightRecorderCapacity ? buffer.ring_next : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const FlightRecord& r =
        buffer.ring[(first + k) % kFlightRecorderCapacity];
    if (r.start_ns >= min_start_ns) out.push_back(r);
  }
}

}  // namespace

std::vector<FlightRecord> flight_records_this_thread(
    std::uint64_t min_start_ns) {
  ThreadBuffer& buffer = thread_buffer();
  std::vector<FlightRecord> out;
  {
    const std::lock_guard<std::mutex> lock(buffer.mutex);
    append_ring_locked(buffer, min_start_ns, out);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::vector<FlightRecord> flight_records_all(std::uint64_t min_start_ns) {
  Collector& c = collector();
  std::vector<FlightRecord> out;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    for (const auto& buffer : c.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      append_ring_locked(*buffer, min_start_ns, out);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

void reset_flight_records() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->ring.clear();
    buffer->ring_next = 0;
    buffer->ring_total = 0;
  }
}

std::string chrome_trace_json() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  const auto metadata = [&w](const char* name, int tid,
                             const std::string& label) {
    w.begin_object().field("ph", "M").field("name", name).field("pid", 1);
    w.field("tid", tid).key("args").begin_object().field("name", label);
    w.end_object().end_object();
  };
  metadata("process_name", 0, "tqec");
  for (const auto& buffer : c.buffers)
    metadata("thread_name", buffer->tid,
             "tqec-thread-" + std::to_string(buffer->tid));
  for (const auto& buffer : c.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const TraceEvent& e : buffer->events) {
      w.begin_object().field("name", e.name).field("ph", "X");
      w.field("pid", 1).field("tid", buffer->tid);
      w.field("ts", static_cast<double>(e.start_ns) / 1000.0);
      w.field("dur", static_cast<double>(e.dur_ns) / 1000.0);
      if (!e.detail.empty())
        w.key("args").begin_object().field("detail", e.detail).end_object();
      w.end_object();
    }
  }
  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.str() + "\n";
}

bool write_chrome_trace_file(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

// ---------------------------------------------------------------------------
// Histograms

double histogram_bucket_bound(std::size_t i) {
  // Log-spaced: three buckets per decade from 1us. Built once; the table is
  // identical across calls and processes (same libm, same doubles), so
  // bucket assignment is deterministic.
  static const std::array<double, kHistogramFiniteBuckets> bounds = [] {
    std::array<double, kHistogramFiniteBuckets> b{};
    for (std::size_t k = 0; k < kHistogramFiniteBuckets; ++k)
      b[k] = 1e-6 * std::pow(10.0, static_cast<double>(k) / 3.0);
    return b;
  }();
  if (i >= kHistogramFiniteBuckets)
    return std::numeric_limits<double>::infinity();
  return bounds[i];
}

/// One recording thread's slice of a histogram. All fields are relaxed
/// atomics updated with commutative RMW ops (adds, min/max folds), so any
/// interleaving of recorders — and any assignment of samples to shards —
/// merges to the same aggregate.
struct Histogram::Shard {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> sum_ns{0};
  std::atomic<std::int64_t> min_ns{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_ns{std::numeric_limits<std::int64_t>::min()};
};

Histogram::Histogram(std::string name) : name_(std::move(name)) {}

Histogram::~Histogram() {
  for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_acquire);
}

Histogram::Shard* Histogram::shard_for_this_thread() {
  // Dense thread ids index a two-level table: chunk = tid / kChunkSize,
  // published once with a release CAS. Threads beyond the table share the
  // last shard — still correct, the ops are atomic RMW.
  const std::size_t tid = static_cast<std::size_t>(thread_id());
  const std::size_t chunk_index =
      std::min(tid / kChunkSize, kMaxChunks - 1);
  const std::size_t slot =
      chunk_index == tid / kChunkSize ? tid % kChunkSize : kChunkSize - 1;
  std::atomic<Shard*>& chunk = chunks_[chunk_index];
  Shard* shards = chunk.load(std::memory_order_acquire);
  if (shards == nullptr) {
    Shard* fresh = new Shard[kChunkSize];
    if (chunk.compare_exchange_strong(shards, fresh,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      shards = fresh;
    } else {
      delete[] fresh;  // another thread won the race; use its chunk
    }
  }
  return shards + slot;
}

void Histogram::record_s(double seconds) {
  if (!(seconds > 0)) seconds = 0;  // clamp negatives and NaN
  // Integer nanoseconds make the cross-shard sum exact and commutative
  // (double sums would depend on merge order). Saturate at ~292 years.
  const double ns_d = seconds * 1e9;
  const std::int64_t ns =
      ns_d >= static_cast<double>(std::numeric_limits<std::int64_t>::max())
          ? std::numeric_limits<std::int64_t>::max()
          : static_cast<std::int64_t>(std::llround(ns_d));
  std::size_t bucket = kHistogramFiniteBuckets;  // +Inf fallback
  for (std::size_t i = 0; i < kHistogramFiniteBuckets; ++i) {
    if (seconds <= histogram_bucket_bound(i)) {
      bucket = i;
      break;
    }
  }
  Shard* shard = shard_for_this_thread();
  shard->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard->count.fetch_add(1, std::memory_order_relaxed);
  shard->sum_ns.fetch_add(ns, std::memory_order_relaxed);
  std::int64_t seen = shard->min_ns.load(std::memory_order_relaxed);
  while (ns < seen && !shard->min_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  seen = shard->max_ns.load(std::memory_order_relaxed);
  while (ns > seen && !shard->max_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ns = std::numeric_limits<std::int64_t>::min();
  for (const auto& chunk : chunks_) {
    const Shard* shards = chunk.load(std::memory_order_acquire);
    if (shards == nullptr) continue;
    for (std::size_t s = 0; s < kChunkSize; ++s) {
      const Shard& shard = shards[s];
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        snap.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
      snap.count += shard.count.load(std::memory_order_relaxed);
      snap.sum_ns += shard.sum_ns.load(std::memory_order_relaxed);
      min_ns = std::min(min_ns, shard.min_ns.load(std::memory_order_relaxed));
      max_ns = std::max(max_ns, shard.max_ns.load(std::memory_order_relaxed));
    }
  }
  if (snap.count > 0) {
    snap.min_ns = min_ns;
    snap.max_ns = max_ns;
  }
  return snap;
}

void Histogram::reset() {
  for (auto& chunk : chunks_) {
    Shard* shards = chunk.load(std::memory_order_acquire);
    if (shards == nullptr) continue;
    for (std::size_t s = 0; s < kChunkSize; ++s) {
      Shard& shard = shards[s];
      for (auto& b : shard.buckets) b.store(0, std::memory_order_relaxed);
      shard.count.store(0, std::memory_order_relaxed);
      shard.sum_ns.store(0, std::memory_order_relaxed);
      shard.min_ns.store(std::numeric_limits<std::int64_t>::max(),
                         std::memory_order_relaxed);
      shard.max_ns.store(std::numeric_limits<std::int64_t>::min(),
                         std::memory_order_relaxed);
    }
  }
}

void counter_add(const char* name, long long delta) {
  if (!enabled()) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters[name] += delta;
}

void gauge_set(const char* name, double value) {
  if (!enabled()) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.gauges[name] = value;
}

void series_append(const char* name, double x, double y) {
  if (!enabled()) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto& channel = r.series[name];
  channel.first.push_back(x);
  channel.second.push_back(y);
}

void series_put(const char* name, std::vector<double> x,
                std::vector<double> y) {
  if (!enabled()) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.series[name] = {std::move(x), std::move(y)};
}

void histogram_record(const char* name, double seconds) {
  if (!enabled()) return;
  Registry& r = registry();
  Histogram* h = nullptr;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    auto& slot = r.histograms[name];
    if (!slot) slot = std::make_unique<Histogram>(name);
    h = slot.get();
  }
  // Instances outlive reset_metrics (contents are zeroed, never freed), so
  // recording outside the lock is safe — and the record path stays the
  // histogram's own lock-free shard update.
  h->record_s(seconds);
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  snap.counters.assign(r.counters.begin(), r.counters.end());
  snap.gauges.assign(r.gauges.begin(), r.gauges.end());
  snap.series.reserve(r.series.size());
  for (const auto& [name, xy] : r.series)
    snap.series.push_back({name, xy.first, xy.second});
  for (const auto& [name, h] : r.histograms) {
    HistogramSnapshot hs = h->snapshot();
    if (hs.count > 0) snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void reset_metrics() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters.clear();
  r.gauges.clear();
  r.series.clear();
  for (const auto& [name, h] : r.histograms) h->reset();
}

// ---------------------------------------------------------------------------
// OpenMetrics text exposition

namespace {

/// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// (the registry's dots, mostly) becomes '_'.
std::string openmetrics_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || c == ':' ||
                    (!out.empty() && c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? "_" : out;
}

std::string openmetrics_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string openmetrics_text(
    const std::vector<std::pair<std::string, long long>>& counters,
    const std::vector<std::pair<std::string, double>>& gauges,
    const std::vector<HistogramSnapshot>& histograms) {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    const std::string n = openmetrics_name(name);
    os << "# TYPE " << n << " counter\n" << n << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = openmetrics_name(name);
    os << "# TYPE " << n << " gauge\n"
       << n << " " << openmetrics_number(value) << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string n = openmetrics_name(h.name);
    os << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cumulative += h.buckets[b];
      // Scrapers interpolate within buckets, so empty interior buckets
      // still matter; emit every bound (the layout is small and fixed).
      os << n << "_bucket{le=\"";
      if (b + 1 == kHistogramBuckets)
        os << "+Inf";
      else
        os << openmetrics_number(histogram_bucket_bound(b));
      os << "\"} " << cumulative << "\n";
    }
    os << n << "_sum " << openmetrics_number(h.sum_s()) << "\n"
       << n << "_count " << h.count << "\n";
  }
  os << "# EOF\n";
  return os.str();
}

void write_histogram(json::Writer& w, const HistogramSnapshot& h) {
  w.begin_object().field("count", h.count).field("sum_s", h.sum_s());
  w.field("min_s", h.min_s()).field("max_s", h.max_s());
  w.field("mean_s", h.mean_s()).key("buckets").begin_array();
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    w.begin_object().key("le");
    if (b + 1 == kHistogramBuckets)
      w.value("+Inf");
    else
      w.value(histogram_bucket_bound(b));
    w.field("n", h.buckets[b]).end_object();
  }
  w.end_array().end_object();
}

}  // namespace tqec::trace
