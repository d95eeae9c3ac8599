// tqec_report — render the pipeline's observability artifacts as a
// human-readable run report.
//
//   tqec_report [--serve-metrics] <file.json> [more.json ...]
//
// Accepts any mix of:
//   - stats_json v1/v2 reports (tqec_compress --stats-json=PATH): stage
//     breakdown table, place+route attempt comparison, SA convergence
//     sparkline, PathFinder congestion top-K and heatmap, and the trace
//     metrics registry;
//   - Chrome trace-event files (tqec_compress --trace-json=PATH): per-span
//     aggregation (count / total / min / max, sorted by total time);
//   - tqec_serve {"admin": "metrics"} snapshots (the whole response line or
//     just its "serve" object): counter table, latency-histogram
//     sparklines over the log-spaced buckets, and a stage-cache
//     effectiveness table. Detected automatically; --serve-metrics forces
//     the interpretation for the files that follow it.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/trace.h"

namespace {

using tqec::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TQEC_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double num_or(const Value& obj, const std::string& key, double fallback) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

// ---------------------------------------------------------------------------
// Sparkline rendering (U+2581..U+2588, downsampled to at most `width` cols).

std::string sparkline(const std::vector<double>& ys, std::size_t width = 60) {
  static const char* kBars[8] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  if (ys.empty()) return "(no samples)";
  double lo = ys[0], hi = ys[0];
  for (const double y : ys) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  const std::size_t cols = std::min(width, ys.size());
  std::string out;
  for (std::size_t c = 0; c < cols; ++c) {
    // Bucket mean over [begin, end) keeps the downsampled shape faithful.
    const std::size_t begin = c * ys.size() / cols;
    const std::size_t end = std::max(begin + 1, (c + 1) * ys.size() / cols);
    double sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += ys[i];
    const double y = sum / static_cast<double>(end - begin);
    const double t = hi > lo ? (y - lo) / (hi - lo) : 0.0;
    out += kBars[std::min(7, static_cast<int>(t * 8.0))];
  }
  return out;
}

std::vector<double> numbers_of(const Value& v) {
  std::vector<double> out;
  if (!v.is_array()) return out;
  out.reserve(v.array.size());
  for (const Value& e : v.array)
    if (e.is_number()) out.push_back(e.number);
  return out;
}

// ---------------------------------------------------------------------------
// Stats-report rendering.

void render_stage_table(const Value& stats) {
  const Value* timings = stats.find("timings");
  if (timings == nullptr || !timings->is_object()) return;
  const double total = num_or(*timings, "total_s", 0);
  static const char* kStages[] = {"pd_graph_s",     "ishape_s",
                                  "primal_bridge_s", "dual_bridge_s",
                                  "place_s",         "route_s"};
  std::printf("\n  stage breakdown (selected attempt; total %.3fs)\n", total);
  std::printf("    %-16s %10s %7s\n", "stage", "seconds", "%");
  for (const char* stage : kStages) {
    const double s = num_or(*timings, stage, 0);
    std::printf("    %-16s %10.3f %6.1f%%\n", stage, s,
                total > 0 ? 100.0 * s / total : 0.0);
  }
  const double wall = num_or(*timings, "place_route_wall_s", 0);
  std::printf("    %-16s %10.3f  (all attempts, wall clock)\n",
              "place+route", wall);
}

void render_attempts(const Value& stats) {
  const Value* attempts = stats.find("attempts");
  if (attempts == nullptr || !attempts->is_array() || attempts->array.empty())
    return;
  std::printf("\n  place+route attempts\n");
  std::printf("    %3s %12s %8s %6s %6s %9s %9s %10s %s\n", "#", "seed",
              "volume", "legal", "y_gap", "place_s", "route_s", "sa_iters",
              "sel");
  for (std::size_t k = 0; k < attempts->array.size(); ++k) {
    const Value& a = attempts->array[k];
    const Value* legal = a.find("legal");
    const Value* selected = a.find("selected");
    std::printf("    %3zu %12.0f %8.0f %6s %6.0f %9.3f %9.3f %10.0f %s\n", k,
                num_or(a, "seed", 0), num_or(a, "volume", 0),
                legal != nullptr && legal->is_bool() && legal->boolean
                    ? "yes" : "NO",
                num_or(a, "y_gap", 0), num_or(a, "place_s", 0),
                num_or(a, "route_s", 0), num_or(a, "sa_iterations", 0),
                selected != nullptr && selected->is_bool() && selected->boolean
                    ? "  <-- selected" : "");
  }
  // SA convergence and per-iteration overuse of the selected attempt.
  for (const Value& a : attempts->array) {
    const Value* selected = a.find("selected");
    if (selected == nullptr || !selected->is_bool() || !selected->boolean)
      continue;
    if (const Value* curve = a.find("sa_curve");
        curve != nullptr && curve->is_object()) {
      const std::vector<double> cost = numbers_of(curve->at("cost"));
      const std::vector<double> rate = numbers_of(curve->at("accept_rate"));
      if (!cost.empty()) {
        std::printf("\n  SA convergence (%zu batches)\n", cost.size());
        std::printf("    cost        %s  [%.0f -> %.0f]\n",
                    sparkline(cost).c_str(), cost.front(), cost.back());
        if (!rate.empty())
          std::printf("    accept rate %s  [%.2f -> %.2f]\n",
                      sparkline(rate).c_str(), rate.front(), rate.back());
      }
    }
    // SA engine diagnostics.
    if (a.find("sa_repacked_nodes") != nullptr) {
      const double moves =
          num_or(a, "sa_accepted", 0) + num_or(a, "sa_rejected", 0);
      std::printf("\n  SA engine\n");
      std::printf("    moves/sec %-14.0f repacked nodes/move %.2f\n",
                  num_or(a, "sa_moves_per_sec", 0),
                  moves > 0 ? num_or(a, "sa_repacked_nodes", 0) / moves : 0.0);
    }
    if (a.find("route_resident_bytes") != nullptr)
      std::printf("\n  router resident %.2f MiB (fabric, search scratch and "
                  "open queue)\n",
                  num_or(a, "route_resident_bytes", 0) / (1024.0 * 1024.0));
    if (const Value* over = a.find("route_overused_per_iter");
        over != nullptr && over->is_array() && !over->array.empty()) {
      const std::vector<double> ys = numbers_of(*over);
      std::printf("\n  PathFinder overused cells per iteration (%zu iters)\n",
                  ys.size());
      std::printf("    %s  [%.0f -> %.0f]\n", sparkline(ys).c_str(),
                  ys.front(), ys.back());
    }
    break;
  }
}

void render_route(const Value& stats) {
  const Value* route = stats.find("route");
  if (route == nullptr || !route->is_object()) return;
  if (route->find("batches") != nullptr) {
    std::printf("\n  negotiation schedule (selected attempt)\n");
    std::printf("    batches %-24.0f conflicts requeued %.0f\n",
                num_or(*route, "batches", 0),
                num_or(*route, "conflicts_requeued", 0));
    std::printf("    mean nets per batch %.2f\n",
                num_or(*route, "parallel_efficiency", 0));
  }
  if (route->find("window_hits") != nullptr) {
    std::printf("\n  search acceleration (selected attempt)\n");
    const double hits = num_or(*route, "window_hits", 0);
    const double misses = num_or(*route, "window_misses", 0);
    std::printf("    warm-window hits %-15.0f misses %.0f (%.1f%% hit)\n",
                hits, misses,
                hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0);
  }
  const Value* hot = route->find("hottest_cells");
  if (hot != nullptr && hot->is_array() && !hot->array.empty()) {
    std::printf("\n  congestion top-%zu (final routing)\n", hot->array.size());
    std::printf("    %5s %5s %5s %7s %9s\n", "x", "y", "z", "usage", "capacity");
    for (const Value& h : hot->array)
      std::printf("    %5.0f %5.0f %5.0f %7.0f %9.0f\n", num_or(h, "x", 0),
                  num_or(h, "y", 0), num_or(h, "z", 0), num_or(h, "usage", 0),
                  num_or(h, "capacity", 0));
  }
  const Value* hist = route->find("congestion_histogram");
  if (hist != nullptr && hist->is_array() && hist->array.size() > 1) {
    std::printf("\n  congestion histogram (cells by usage)\n");
    for (std::size_t u = 0; u < hist->array.size(); ++u)
      if (hist->array[u].is_number())
        std::printf("    usage %2zu: %.0f cells\n", u, hist->array[u].number);
  }
  const Value* heatmap = route->find("heatmap");
  if (heatmap != nullptr && heatmap->is_string() && !heatmap->string.empty()) {
    std::printf("\n  congestion heatmap (rows = z, cols = x, "
                "max usage over y)\n");
    std::istringstream lines(heatmap->string);
    std::string line;
    while (std::getline(lines, line))
      std::printf("    %s\n", line.c_str());
  }
}

void render_shard(const Value& stats) {
  const Value* shard = stats.find("shard");
  if (shard == nullptr || !shard->is_object()) return;
  const Value* enabled = shard->find("enabled");
  if (enabled == nullptr || !enabled->is_bool() || !enabled->boolean) return;
  std::printf("\n  time-axis sharding\n");
  std::printf("    window %.0f layers, %.0f threads; %.0f windows "
              "(%.0f resumed from checkpoint)\n",
              num_or(*shard, "window", 0), num_or(*shard, "threads", 0),
              num_or(*shard, "windows_total", 0),
              num_or(*shard, "windows_resumed", 0));
  if (num_or(*shard, "windows_reseeded", 0) > 0)
    std::printf("    %.0f windows reseeded to unblock seams\n",
                num_or(*shard, "windows_reseeded", 0));
  std::printf("    %.0f crossings -> %.0f stitches, %.0f seam cells, "
              "stitch %.3fs, validate %.3fs\n",
              num_or(*shard, "crossings", 0), num_or(*shard, "stitches", 0),
              num_or(*shard, "seam_cells", 0), num_or(*shard, "stitch_s", 0),
              num_or(*shard, "validate_s", 0));
  if (const Value* volumes = shard->find("window_volumes");
      volumes != nullptr && volumes->is_array() && !volumes->array.empty()) {
    const std::vector<double> ys = numbers_of(*volumes);
    double hi = 0;
    for (const double y : ys) hi = std::max(hi, y);
    std::printf("    window volumes %s  [max %.0f]\n",
                sparkline(ys, 40).c_str(), hi);
  }
  if (const Value* issues = shard->find("issues");
      issues != nullptr && issues->is_array())
    for (const Value& i : issues->array)
      if (i.is_string())
        std::printf("    ISSUE: %s\n", i.string.c_str());
}

void render_geom(const Value& stats) {
  const Value* geom = stats.find("geom");
  if (geom == nullptr || !geom->is_object()) return;
  if (num_or(*geom, "segments", 0) <= 0) return;
  std::printf("\n  geometry engine\n");
  std::printf("    %.0f segments (arena %.1f KiB), %.0f exact cells\n",
              num_or(*geom, "segments", 0),
              num_or(*geom, "arena_bytes", 0) / 1024.0,
              num_or(*geom, "exact_cells", 0));
  std::printf("    occupancy grid %.1f KiB, built in %.3f ms\n",
              num_or(*geom, "grid_bytes", 0) / 1024.0,
              num_or(*geom, "grid_build_s", 0) * 1000.0);
}

void render_cache(const Value& stats) {
  const Value* cache = stats.find("cache");
  if (cache == nullptr || !cache->is_object()) return;
  const Value* enabled = cache->find("enabled");
  if (enabled == nullptr || !enabled->is_bool() || !enabled->boolean) return;
  const auto outcome = [&](const char* stage) {
    const Value* v = cache->find(stage);
    return v != nullptr && v->is_string() ? v->string.c_str() : "?";
  };
  std::printf("\n  stage cache (service request)\n");
  std::printf("    decompose %-6s icm %-6s pd-graph %-6s\n",
              outcome("decompose"), outcome("icm"), outcome("pd_graph"));
  const double hits = num_or(*cache, "hits", 0);
  const double misses = num_or(*cache, "misses", 0);
  std::printf("    lifetime: %.0f hits / %.0f misses (%.1f%% hit), "
              "%.0f entries, %.1f MiB of %.1f MiB, %.0f evictions\n",
              hits, misses,
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0,
              num_or(*cache, "entries", 0),
              num_or(*cache, "bytes", 0) / (1024.0 * 1024.0),
              num_or(*cache, "budget", 0) / (1024.0 * 1024.0),
              num_or(*cache, "evictions", 0));
}

void render_metrics(const Value& stats) {
  const Value* metrics = stats.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return;
  const Value* counters = metrics->find("counters");
  const Value* gauges = metrics->find("gauges");
  const bool have_counters = counters != nullptr && counters->is_object() &&
                             !counters->object.empty();
  const bool have_gauges =
      gauges != nullptr && gauges->is_object() && !gauges->object.empty();
  if (!have_counters && !have_gauges) return;
  std::printf("\n  trace metrics registry\n");
  if (have_counters)
    for (const auto& [name, v] : counters->object)
      if (v.is_number())
        std::printf("    counter %-28s %15.0f\n", name.c_str(), v.number);
  if (have_gauges)
    for (const auto& [name, v] : gauges->object)
      if (v.is_number())
        std::printf("    gauge   %-28s %15.3f\n", name.c_str(), v.number);
  const Value* series = metrics->find("series");
  if (series != nullptr && series->is_object())
    for (const auto& [name, v] : series->object) {
      const Value* y = v.find("y");
      if (y == nullptr) continue;
      const std::vector<double> ys = numbers_of(*y);
      if (!ys.empty())
        std::printf("    series  %-28s %s\n", name.c_str(),
                    sparkline(ys, 40).c_str());
    }
}

void render_stats(const Value& stats, const std::string& label) {
  const Value* name = stats.find("name");
  std::printf("== run report: %s ==\n",
              name != nullptr && name->is_string() ? name->string.c_str()
                                                   : label.c_str());
  std::printf("  stats version %d, volume %.0f (canonical %.0f, %.2fx), "
              "%s\n",
              static_cast<int>(num_or(stats, "stats_version", 1)),
              num_or(stats, "volume", 0), num_or(stats, "canonical_volume", 0),
              num_or(stats, "volume", 0) > 0
                  ? num_or(stats, "canonical_volume", 0) /
                        num_or(stats, "volume", 1)
                  : 0.0,
              [&] {
                const Value* legal = stats.find("legal");
                return legal != nullptr && legal->is_bool() && legal->boolean
                           ? "legally routed" : "NOT LEGAL";
              }());
  std::printf("  modules %.0f -> nodes %.0f (ishape %.0f, primal %.0f, "
              "dual %.0f bridges; %.0f net components)\n",
              num_or(stats, "modules", 0), num_or(stats, "nodes", 0),
              num_or(stats, "ishape_merges", 0),
              num_or(stats, "primal_bridges", 0),
              num_or(stats, "dual_bridges", 0),
              num_or(stats, "net_components", 0));
  if (const double rss = num_or(stats, "peak_rss_bytes", 0); rss > 0)
    std::printf("  peak RSS %.1f MiB\n", rss / (1024.0 * 1024.0));
  render_stage_table(stats);
  render_attempts(stats);
  render_route(stats);
  render_shard(stats);
  render_geom(stats);
  render_cache(stats);
  render_metrics(stats);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Chrome-trace rendering: aggregate complete events per span name.

void render_trace(const Value& trace, const std::string& label) {
  const Value& events = trace.at("traceEvents");
  TQEC_REQUIRE(events.is_array(), "traceEvents is not an array");
  struct Agg {
    std::int64_t count = 0;
    double total_us = 0;
    double min_us = 0;
    double max_us = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<double, std::int64_t> by_tid;
  for (const Value& e : events.array) {
    const Value* phase = e.find("ph");
    if (phase == nullptr || !phase->is_string() || phase->string != "X")
      continue;
    const double dur = num_or(e, "dur", 0);
    const Value* name = e.find("name");
    Agg& agg = by_name[name != nullptr && name->is_string() ? name->string
                                                            : "(unnamed)"];
    if (agg.count == 0) agg.min_us = agg.max_us = dur;
    agg.count += 1;
    agg.total_us += dur;
    agg.min_us = std::min(agg.min_us, dur);
    agg.max_us = std::max(agg.max_us, dur);
    by_tid[num_or(e, "tid", 0)] += 1;
  }
  std::printf("== trace report: %s ==\n", label.c_str());
  std::printf("  %zu span names, %zu thread(s)\n", by_name.size(),
              by_tid.size());
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });
  std::printf("    %-28s %7s %12s %12s %12s\n", "span", "count", "total_ms",
              "min_ms", "max_ms");
  for (const auto& [name, agg] : rows)
    std::printf("    %-28s %7lld %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(agg.count), agg.total_us / 1e3,
                agg.min_us / 1e3, agg.max_us / 1e3);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// tqec_serve {"admin": "metrics"} snapshot rendering.

std::string human_s(double s) {
  char buf[32];
  if (s <= 0) std::snprintf(buf, sizeof buf, "0");
  else if (s < 1e-3) std::snprintf(buf, sizeof buf, "%.1fus", s * 1e6);
  else if (s < 1) std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  else std::snprintf(buf, sizeof buf, "%.3fs", s);
  return buf;
}

/// Map a bucket's "le" bound back onto the canonical log-spaced bucket
/// index ("+Inf" -> overflow bucket; numbers match within rounding).
std::size_t bucket_index_of(const Value& le) {
  using tqec::trace::kHistogramBuckets;
  using tqec::trace::kHistogramFiniteBuckets;
  if (le.is_string()) return kHistogramBuckets - 1;
  if (!le.is_number()) return kHistogramBuckets;  // ignored
  for (std::size_t i = 0; i < kHistogramFiniteBuckets; ++i) {
    const double bound = tqec::trace::histogram_bucket_bound(i);
    if (le.number <= bound * (1 + 1e-9)) return i;
  }
  return kHistogramBuckets - 1;
}

void render_serve_histograms(const Value& histograms) {
  if (!histograms.is_object() || histograms.object.empty()) return;
  std::printf("\n  latency histograms (log-spaced buckets, 3 per decade)\n");
  std::printf("    %-28s %8s %10s %10s %10s  %s\n", "histogram", "count",
              "mean", "min", "max", "distribution");
  for (const auto& [name, h] : histograms.object) {
    if (!h.is_object()) continue;
    std::array<double, tqec::trace::kHistogramBuckets> counts{};
    const Value* buckets = h.find("buckets");
    if (buckets != nullptr && buckets->is_array())
      for (const Value& b : buckets->array) {
        const Value* le = b.find("le");
        if (le == nullptr) continue;
        const std::size_t i = bucket_index_of(*le);
        if (i < counts.size()) counts[i] += num_or(b, "n", 0);
      }
    // Trim to the populated bucket range so the sparkline has resolution
    // where the samples are.
    std::size_t first = counts.size(), last = 0;
    for (std::size_t i = 0; i < counts.size(); ++i)
      if (counts[i] > 0) {
        first = std::min(first, i);
        last = i;
      }
    std::string spark = "(no samples)";
    std::string range;
    if (first < counts.size()) {
      spark = sparkline(std::vector<double>(counts.begin() + first,
                                            counts.begin() + last + 1),
                        28);
      const double lo_bound =
          first == 0 ? 0 : tqec::trace::histogram_bucket_bound(first - 1);
      range = "  [" + human_s(lo_bound) + " .. " +
              (last + 1 == counts.size()
                   ? "+Inf"
                   : human_s(tqec::trace::histogram_bucket_bound(last))) +
              "]";
    }
    std::printf("    %-28s %8.0f %10s %10s %10s  %s%s\n", name.c_str(),
                num_or(h, "count", 0), human_s(num_or(h, "mean_s", 0)).c_str(),
                human_s(num_or(h, "min_s", 0)).c_str(),
                human_s(num_or(h, "max_s", 0)).c_str(), spark.c_str(),
                range.c_str());
  }
}

void render_serve_cache(const Value& serve) {
  const Value* cache = serve.find("cache");
  if (cache == nullptr || !cache->is_object()) return;
  const double hits = num_or(*cache, "hits", 0);
  const double misses = num_or(*cache, "misses", 0);
  std::printf("\n  stage-cache effectiveness\n");
  std::printf("    %10s %10s %8s %12s %10s\n", "hits", "misses", "hit%",
              "insertions", "evictions");
  std::printf("    %10.0f %10.0f %7.1f%% %12.0f %10.0f\n", hits, misses,
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0,
              num_or(*cache, "insertions", 0),
              num_or(*cache, "evictions", 0));
  std::printf("    %.0f entries, %.1f MiB of %.1f MiB budget\n",
              num_or(*cache, "entries", 0),
              num_or(*cache, "bytes", 0) / (1024.0 * 1024.0),
              num_or(*cache, "budget", 0) / (1024.0 * 1024.0));
  const Value* histograms = serve.find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    if (const Value* lookup = histograms->find("serve.cache_lookup_s");
        lookup != nullptr && lookup->is_object())
      std::printf("    lookup latency: %.0f lookups, mean %s, max %s\n",
                  num_or(*lookup, "count", 0),
                  human_s(num_or(*lookup, "mean_s", 0)).c_str(),
                  human_s(num_or(*lookup, "max_s", 0)).c_str());
  }
}

void render_serve_metrics(const Value& doc, const std::string& label) {
  // Accept the whole admin response line or just its "serve" object.
  const Value* serve = doc.find("serve");
  if (serve == nullptr || !serve->is_object()) serve = &doc;
  std::printf("== serve metrics: %s ==\n", label.c_str());
  std::printf("  uptime %.1fs, %.0f workers, %.0f in flight, "
              "queue depth %.0f\n",
              num_or(*serve, "uptime_s", 0), num_or(*serve, "workers", 0),
              num_or(*serve, "inflight", 0),
              num_or(*serve, "queue_depth", 0));
  if (const Value* counters = serve->find("counters");
      counters != nullptr && counters->is_object()) {
    std::printf("\n  request counters\n");
    for (const auto& [name, v] : counters->object)
      if (v.is_number())
        std::printf("    %-28s %15.0f\n", name.c_str(), v.number);
  }
  if (const Value* histograms = serve->find("histograms");
      histograms != nullptr)
    render_serve_histograms(*histograms);
  render_serve_cache(*serve);
  std::printf("\n");
}

bool looks_like_serve_metrics(const Value& doc) {
  if (!doc.is_object()) return false;
  if (const Value* serve = doc.find("serve");
      serve != nullptr && serve->is_object() &&
      serve->find("histograms") != nullptr)
    return true;
  return doc.find("counters") != nullptr && doc.find("histograms") != nullptr;
}

int render_file(const std::string& path, bool force_serve) {
  const Value doc = tqec::json::parse(read_file(path));
  if (doc.is_object() && doc.find("traceEvents") != nullptr) {
    render_trace(doc, path);
    return 0;
  }
  if (force_serve || looks_like_serve_metrics(doc)) {
    if (!doc.is_object()) {
      std::fprintf(stderr, "%s: not a serve metrics snapshot\n", path.c_str());
      return 1;
    }
    render_serve_metrics(doc, path);
    return 0;
  }
  if (doc.is_object()) {
    render_stats(doc, path);
    return 0;
  }
  std::fprintf(stderr, "%s: not a stats report or trace file\n", path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool force_serve = false;
  int files = 0;
  int status = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve-metrics") {
      force_serve = true;
      continue;
    }
    ++files;
    try {
      status |= render_file(arg, force_serve);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", arg.c_str(), e.what());
      status = 1;
    }
  }
  if (files == 0) {
    std::fprintf(
        stderr,
        "usage: tqec_report [--serve-metrics] <stats.json|trace.json>"
        " [more ...]\n"
        "renders tqec_compress --stats-json / --trace-json output and\n"
        "tqec_serve admin metrics snapshots as a run report\n");
    return 2;
  }
  return status;
}
