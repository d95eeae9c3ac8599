// tqec_serve — long-running compilation service over newline-delimited JSON.
//
//   tqec_serve [--threads=N] [--queue=N] [--cache-bytes=N] [--socket=PATH]
//              [--access-log=PATH] [--slow-s=F]
//
// Requests arrive one JSON object per line on stdin (default) or on a
// Unix-domain socket; responses leave one JSON object per line on stdout /
// the same connection, in completion order, correlated by "id".
//
// Request:
//   {"id": "r1",
//    "benchmark": "hwb-50-56" | "real": "<.real text>" | "icm": "<.icm text>",
//    "optimize": true,              // .real only: reversible peephole pass
//    "options": {"mode": "full|dual|modular", "seed": N, "effort": F,
//                "jobs": N, "place_restarts": K, "plan": true},
//    "shard_window": 0,             // time-axis sharding: ASAP layers per
//                                   // window (0 = off; see core/shard.h)
//    "shard_threads": 1,            // concurrent window compiles (never
//                                   // changes results)
//    "checkpoint_dir": "",          // per-window resume checkpoints
//    "deadline_s": 30.0,            // wall-clock budget; 0 = none
//    "geometry": false,             // emit + validate the 3D geometry
//    "stats": false}                // embed the full stats_json v2 report
//   {"cancel": "r1"}                // cancel an in-flight request
//
// Admin introspection (answered inline by the read loop — fast even when
// every worker is busy):
//   {"admin": "health"}        -> {"ok": true, "admin": "health",
//                                  "uptime_s": U, "inflight": N,
//                                  "queue_depth": Q, "workers": W}
//   {"admin": "metrics"}       -> {"ok": true, "admin": "metrics",
//                                  "serve": {counters, cache, histograms}}
//   {"admin": "metrics_text"}  -> {"ok": true, "admin": "metrics_text",
//                                  "text": "<OpenMetrics exposition>"}
// An optional "id" is echoed back. The metrics_text body is the standard
// Prometheus/OpenMetrics text format shipped as a JSON string; a scraper
// sidecar extracts the "text" field and serves it over HTTP.
//
// Response (success; "legal" is always true, since an illegal result is
// the not_legal error):
//   {"id": "r1", "ok": true, "volume": V, "legal": true, "modules": M,
//    "nodes": N, "wall_s": S, "cache": {"decompose": "hit|miss|skip", ...},
//    "shard": {"windows_total": W, "windows_resumed": R,
//              "seam_cells": C, ...},   // only for sharded requests
//    "stats": {...},                // only when the request asked for it
//    "debug": {...}}                // only for slow requests (see --slow-s)
// Response (failure):
//   {"id": "r1", "ok": false,
//    "error": {"code": "bad_request|parse_error|cancelled|deadline_exceeded|
//              not_legal|overloaded|internal", "message": "...",
//              "source": "...", "line": L}}   // parse_error only
//
// Observability: the server keeps always-on latency histograms
// (serve.request_s, serve.queue_wait_s, serve.stage.*_s, plus the
// Compiler's serve.cache_lookup_s) and counters; the trace flight recorder
// runs permanently so a request slower than --slow-s attaches its span
// tree to the response's "debug" field. --access-log=PATH appends one JSON
// line per request (timestamp, id, input digest, options, queue wait,
// stage times, cache outcomes, result code). All of it is observational:
// responses are bit-identical with every surface on or off.
//
// Scheduling: requests run on a fixed WorkerPool; the admission queue is
// bounded (--queue) and a full queue rejects immediately with "overloaded"
// rather than stalling the read loop — the client owns backoff/retry.
// Identical pure-prefix stages across requests are served from the shared
// content-hash stage cache (--cache-bytes, 0 disables; see
// core/stage_cache.h).
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/socket.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/service.h"

namespace {

using namespace tqec;

struct ServeOptions {
  int threads = 0;  // 0 = one per hardware thread
  std::size_t queue = 64;
  std::int64_t cache_bytes = std::int64_t{256} << 20;
  std::string socket_path;  // empty = stdin/stdout
  std::string access_log;   // empty = no access log
  double slow_s = 0;        // 0 = no slow-request capture
};

int usage() {
  std::fprintf(stderr,
               "usage: tqec_serve [--threads=N] [--queue=N]"
               " [--cache-bytes=N] [--socket=PATH]\n"
               "                  [--access-log=PATH] [--slow-s=F]\n"
               "reads one JSON request per line on stdin (or PATH), writes\n"
               "one JSON response per line on stdout (or the connection)\n");
  return 2;
}

/// Serialized sink for response lines: workers finish in any order, the
/// mutex keeps each line atomic. Jobs hold the connection fd alive through
/// the shared_ptr even after the read loop moved on.
struct Output {
  Output(int fd, std::atomic<std::uint64_t>* dropped)
      : fd(fd), dropped(dropped) {}
  Output(net::Fd conn, std::atomic<std::uint64_t>* dropped)
      : owned(std::move(conn)), fd(owned.get()), dropped(dropped) {}
  std::mutex mutex;
  net::Fd owned;
  int fd;
  std::atomic<std::uint64_t>* dropped;  // serve.responses_dropped

  /// Write one response line; false when the line was dropped. Drops are
  /// never silent: each one bumps the responses_dropped counter and logs
  /// the request id — at debug for a vanished client (EPIPE/ECONNRESET,
  /// not a server fault) and at warn for anything else.
  bool write_line(const std::string& line, const std::string& id = {}) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (net::write_all(fd, line + "\n")) return true;
    const int err = errno;  // write_all preserves the failing errno
    if (dropped != nullptr)
      dropped->fetch_add(1, std::memory_order_relaxed);
    const char* shown = id.empty() ? "<none>" : id.c_str();
    if (err == EPIPE || err == ECONNRESET) {
      TQEC_LOG_DEBUG("response dropped, client gone ("
                     << std::strerror(err) << "); id=" << shown);
    } else {
      TQEC_LOG_WARN("response write failed (" << std::strerror(err)
                                              << "); id=" << shown);
    }
    return false;
  }
};

/// In-flight request registry backing {"cancel": id}.
class InflightMap {
 public:
  void add(const std::string& id, CancelToken token) {
    if (id.empty()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    tokens_[id] = std::move(token);
  }
  void remove(const std::string& id) {
    if (id.empty()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    tokens_.erase(id);
  }
  bool cancel(const std::string& id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tokens_.find(id);
    if (it == tokens_.end()) return false;
    it->second.cancel();
    return true;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, CancelToken> tokens_;
};

/// Append-only JSONL access log; the mutex keeps concurrent workers' lines
/// whole, the per-line flush keeps the file complete after a crash.
class AccessLog {
 public:
  explicit AccessLog(const std::string& path)
      : file_(std::fopen(path.c_str(), "a")) {
    if (file_ == nullptr)
      throw TqecError("cannot open access log '" + path +
                      "': " + std::strerror(errno));
  }
  ~AccessLog() {
    if (file_ != nullptr) std::fclose(file_);
  }
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fputs(line.c_str(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }

 private:
  std::mutex mutex_;
  std::FILE* file_;
};

/// Start a response object: {"id": id, "ok": ok, ... (caller closes it).
json::Writer& begin_response(json::Writer& w, const std::string& id,
                             bool ok) {
  return w.begin_object().field("id", id).field("ok", ok);
}

std::string error_line(const std::string& id, const std::string& code,
                       const std::string& message,
                       const std::string& source = {}, int line = 0) {
  json::Writer w;
  begin_response(w, id, false).key("error").begin_object();
  w.field("code", code).field("message", message);
  if (!source.empty()) w.field("source", source).field("line", line);
  w.end_object().end_object();
  return w.str();
}

/// The span tree a slow request attaches to its response and access line.
struct SlowCapture {
  double threshold_s = 0;
  std::vector<trace::FlightRecord> spans;
};

/// {"slow": true, "threshold_s": T, "spans": [{name, start_s, dur_s,
/// tid}, ...]} with process-relative span times.
void write_debug(json::Writer& w, const SlowCapture& slow) {
  w.begin_object().field("slow", true).field("threshold_s", slow.threshold_s);
  w.key("spans").begin_array();
  for (const trace::FlightRecord& s : slow.spans) {
    w.begin_object().field("name", s.name ? s.name : "");
    w.field("start_s", static_cast<double>(s.start_ns) / 1e9);
    w.field("dur_s", static_cast<double>(s.dur_ns) / 1e9);
    w.field("tid", s.tid).end_object();
  }
  w.end_array().end_object();
}

std::string response_line(const std::string& id, const CompileResponse& r,
                          bool want_stats,
                          const std::optional<SlowCapture>& slow) {
  if (!r.ok)
    return error_line(id, r.error.code_name(), r.error.message,
                      r.error.source, r.error.line);
  const core::CompileResult& res = r.result;
  json::Writer w;
  begin_response(w, id, true).field("volume", res.volume);
  w.field("legal", res.routed_legal).field("modules", res.modules);
  w.field("nodes", res.nodes).field("wall_s", r.wall_s);
  w.key("cache").begin_object();
  core::visit_cache_fields(core::JsonMembers{w}, res.cache);
  w.end_object();
  if (res.shard.enabled) {
    w.key("shard").begin_object();
    core::visit_shard_fields(core::JsonMembers{w}, res.shard);
    w.end_object();
  }
  if (want_stats) core::write_stats_json(w.key("stats"), res);
  if (slow) write_debug(w.key("debug"), *slow);
  w.end_object();
  return w.str();
}

const char* mode_name(core::PipelineMode mode) {
  switch (mode) {
    case core::PipelineMode::DualOnly: return "dual";
    case core::PipelineMode::ModularOnly: return "modular";
    default: return "full";
  }
}

/// Translate a request's "options" object onto core::CompileOptions;
/// throws TqecError on unknown modes / wrong types (surfaced as
/// bad_request by the caller).
void apply_options(const json::Value& v, core::CompileOptions& opt) {
  if (const json::Value* m = v.find("mode")) {
    const std::string& mode = m->as_string();
    if (mode == "full") opt.mode = core::PipelineMode::Full;
    else if (mode == "dual") opt.mode = core::PipelineMode::DualOnly;
    else if (mode == "modular") opt.mode = core::PipelineMode::ModularOnly;
    else throw TqecError("unknown mode '" + mode + "'");
  }
  if (const json::Value* m = v.find("seed"))
    opt.seed = static_cast<std::uint64_t>(m->as_int());
  if (const json::Value* m = v.find("effort")) opt.effort = m->as_double();
  if (const json::Value* m = v.find("jobs"))
    opt.jobs = static_cast<int>(m->as_int());
  if (const json::Value* m = v.find("place_restarts"))
    opt.place_restarts = static_cast<int>(m->as_int());
  if (const json::Value* m = v.find("plan")) opt.plan_flips = m->as_bool();
}

/// What the access log remembers about a request before it runs.
struct RequestMeta {
  std::string id;
  const char* kind = "unknown";  // benchmark | real | icm | unknown
  std::string digest;            // 32-hex-char content digest of the input
  /// Applied options (absent for requests rejected before parsing them).
  std::optional<core::CompileOptions> options;
  core::ShardOptions shard;
  std::uint64_t t_recv = 0;  // trace::now_ns() at the read loop
};

/// The request's applied options as a JSON object ({} when absent).
void write_options(json::Writer& w, const RequestMeta& meta) {
  w.begin_object();
  if (const std::optional<core::CompileOptions>& o = meta.options) {
    w.field("mode", mode_name(o->mode)).field("seed", o->seed);
    w.field("effort", o->effort).field("jobs", o->jobs);
    w.field("place_restarts", o->place_restarts).field("plan", o->plan_flips);
    if (meta.shard.window > 0)
      w.field("shard_window", meta.shard.window)
          .field("shard_threads", meta.shard.threads);
  }
  w.end_object();
}

/// Always-on service counters. Plain relaxed atomics: each is a
/// commutative sum, so totals are deterministic for any worker count.
struct ServerStats {
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_error{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> cancel_requests{0};
  std::atomic<std::uint64_t> admin_requests{0};
  std::atomic<std::uint64_t> responses_dropped{0};
  std::atomic<std::uint64_t> slow_requests{0};
  /// Time-axis sharding totals over all sharded requests (core/shard.h).
  std::atomic<std::uint64_t> sharded_requests{0};
  std::atomic<std::uint64_t> windows_total{0};
  std::atomic<std::uint64_t> windows_resumed{0};
  std::atomic<std::uint64_t> seam_cells{0};
  /// Requests admitted but not yet answered (queued + running).
  std::atomic<std::int64_t> inflight{0};
};

class Server {
 public:
  Server(const ServeOptions& serve_opt)
      : compiler_(CompilerConfig{serve_opt.cache_bytes,
                                 serve_opt.cache_bytes > 0}),
        pool_(serve_opt.threads > 0
                  ? serve_opt.threads
                  : static_cast<int>(std::thread::hardware_concurrency()),
              serve_opt.queue),
        slow_ns_(serve_opt.slow_s > 0
                     ? static_cast<std::uint64_t>(serve_opt.slow_s * 1e9)
                     : 0),
        slow_s_(serve_opt.slow_s),
        start_ns_(trace::now_ns()) {
    if (!serve_opt.access_log.empty())
      access_log_ = std::make_unique<AccessLog>(serve_opt.access_log);
    // The flight recorder stays on for the server's lifetime: bounded
    // memory, lock-free record path, and it is what lets --slow-s attach
    // a span tree to a slow response after the fact.
    trace::set_flight_recorder_enabled(true);
    core::visit_stage_fields([this](const char* name) {
      stage_s_.emplace_back(std::string("serve.stage.") + name);
    });
  }

  std::atomic<std::uint64_t>* dropped_counter() {
    return &stats_.responses_dropped;
  }

  /// Handle one request line; every outcome becomes exactly one response
  /// line on `out` (now, for rejections and admin; later, for admitted
  /// requests) and — for compile requests — exactly one access-log line.
  void handle_line(const std::string& line,
                   const std::shared_ptr<Output>& out) {
    if (trim(line).empty()) return;
    const std::uint64_t t_recv = trace::now_ns();
    json::Value doc;
    try {
      doc = json::parse(line);
      if (!doc.is_object()) throw TqecError("request must be a JSON object");
    } catch (const std::exception& e) {
      RequestMeta meta;
      meta.t_recv = t_recv;
      finish_rejected(meta, "bad_request", e.what(), out);
      return;
    }

    if (const json::Value* cancel = doc.find("cancel")) {
      // Cancellation acknowledgement: ok reports whether the id was still
      // in flight (the compile's own response still arrives, as
      // "cancelled", once the pipeline reaches a stage boundary).
      stats_.cancel_requests.fetch_add(1, std::memory_order_relaxed);
      std::string id;
      bool hit = false;
      try {
        id = cancel->as_string();
        hit = inflight_.cancel(id);
      } catch (const std::exception& e) {
        out->write_line(error_line("", "bad_request", e.what()));
        return;
      }
      json::Writer w;
      begin_response(w, id, hit).field("cancelled", hit).end_object();
      out->write_line(w.str(), id);
      return;
    }

    if (const json::Value* admin = doc.find("admin")) {
      handle_admin(*admin, doc, out);
      return;
    }

    CompileRequest req;
    RequestMeta meta;
    meta.t_recv = t_recv;
    bool want_stats = false;
    try {
      if (const json::Value* v = doc.find("id")) req.id = v->as_string();
      if (const json::Value* v = doc.find("real"))
        req.real_text = v->as_string();
      if (const json::Value* v = doc.find("icm"))
        req.icm_text = v->as_string();
      if (const json::Value* v = doc.find("benchmark"))
        req.benchmark = v->as_string();
      if (const json::Value* v = doc.find("optimize"))
        req.optimize = v->as_bool();
      if (const json::Value* v = doc.find("deadline_s"))
        req.deadline_s = v->as_double();
      // Table statistics only by default; geometry emission is the one
      // expensive output a service client usually doesn't want.
      req.options.emit_geometry = false;
      if (const json::Value* v = doc.find("geometry"))
        req.options.emit_geometry = v->as_bool();
      if (const json::Value* v = doc.find("stats"))
        want_stats = v->as_bool();
      if (const json::Value* v = doc.find("options"))
        apply_options(*v, req.options);
      if (const json::Value* v = doc.find("shard_window"))
        req.shard.window = static_cast<int>(v->as_int());
      if (const json::Value* v = doc.find("shard_threads"))
        req.shard.threads = static_cast<int>(v->as_int());
      if (const json::Value* v = doc.find("checkpoint_dir"))
        req.shard.checkpoint_dir = v->as_string();
    } catch (const std::exception& e) {
      meta.id = req.id;
      finish_rejected(meta, "bad_request", e.what(), out);
      return;
    }

    meta.id = req.id;
    const std::string* input = nullptr;
    if (!req.benchmark.empty()) {
      meta.kind = "benchmark";
      input = &req.benchmark;
    } else if (!req.real_text.empty()) {
      meta.kind = "real";
      input = &req.real_text;
    } else if (!req.icm_text.empty()) {
      meta.kind = "icm";
      input = &req.icm_text;
    }
    if (input != nullptr) {
      Digest128 d;
      d.update(*input);
      meta.digest = d.hex();
    }
    meta.options = req.options;
    meta.shard = req.shard;

    req.options.cancel = CancelToken();
    const std::string id = req.id;
    inflight_.add(id, req.options.cancel);
    stats_.inflight.fetch_add(1, std::memory_order_relaxed);
    auto job = [this, req = std::move(req), meta = std::move(meta),
                want_stats, out] {
      run_request(req, meta, want_stats, out);
    };
    if (!pool_.submit(std::move(job))) {
      // Admission control: a full queue answers immediately instead of
      // wedging the read loop behind the slowest compile.
      inflight_.remove(id);
      stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
      stats_.overloaded.fetch_add(1, std::memory_order_relaxed);
      RequestMeta rejected;
      rejected.id = id;
      rejected.t_recv = t_recv;
      finish_rejected(rejected, "overloaded",
                      "admission queue full; retry later", out);
    }
  }

  void drain() { pool_.shutdown(); }

 private:
  /// Run one admitted request on a worker thread: compile, record the
  /// latency histograms, capture a slow request's spans, answer, log.
  void run_request(const CompileRequest& req, const RequestMeta& meta,
                   bool want_stats, const std::shared_ptr<Output>& out) {
    const std::uint64_t t_start = trace::now_ns();
    const double queue_wait_s =
        static_cast<double>(t_start - meta.t_recv) / 1e9;
    queue_wait_s_.record_s(queue_wait_s);

    const CompileResponse response = compiler_.compile(req);

    inflight_.remove(req.id);
    stats_.inflight.fetch_sub(1, std::memory_order_relaxed);
    const std::uint64_t t_end = trace::now_ns();
    const double wall_s = static_cast<double>(t_end - meta.t_recv) / 1e9;
    request_s_.record_s(wall_s);
    stats_.requests_total.fetch_add(1, std::memory_order_relaxed);
    std::optional<SlowCapture> slow;
    if (response.ok) {
      stats_.requests_ok.fetch_add(1, std::memory_order_relaxed);
      record_stage_times(response.result.timings);
      if (response.result.shard.enabled) {
        const core::ShardStats& sh = response.result.shard;
        stats_.sharded_requests.fetch_add(1, std::memory_order_relaxed);
        stats_.windows_total.fetch_add(
            static_cast<std::uint64_t>(sh.windows_total),
            std::memory_order_relaxed);
        stats_.windows_resumed.fetch_add(
            static_cast<std::uint64_t>(sh.windows_resumed),
            std::memory_order_relaxed);
        stats_.seam_cells.fetch_add(
            static_cast<std::uint64_t>(sh.seam_cells),
            std::memory_order_relaxed);
      }
    } else {
      stats_.requests_error.fetch_add(1, std::memory_order_relaxed);
    }
    if (slow_ns_ > 0 && t_end - t_start >= slow_ns_) {
      stats_.slow_requests.fetch_add(1, std::memory_order_relaxed);
      // This worker thread ran the whole compile, so its flight ring
      // filtered to spans that started after t_start is exactly this
      // request's (top-level) span tree.
      slow = SlowCapture{slow_s_, trace::flight_records_this_thread(t_start)};
    }
    out->write_line(response_line(req.id, response, want_stats, slow),
                    req.id);
    if (access_log_ != nullptr)
      access_log_->write(access_line(
          meta, wall_s, response.ok ? "ok" : response.error.code_name(),
          &response, queue_wait_s, slow ? &*slow : nullptr));
  }

  /// Answer a request rejected before it reached a worker (bad JSON,
  /// bad_request, overloaded). Rejections are requests too: they count,
  /// they land in serve.request_s, and they get an access-log line — so
  /// requests_total always equals the request_s sample count.
  void finish_rejected(const RequestMeta& meta, const std::string& code,
                       const std::string& message,
                       const std::shared_ptr<Output>& out) {
    const double wall_s =
        static_cast<double>(trace::now_ns() - meta.t_recv) / 1e9;
    request_s_.record_s(wall_s);
    stats_.requests_total.fetch_add(1, std::memory_order_relaxed);
    stats_.requests_error.fetch_add(1, std::memory_order_relaxed);
    out->write_line(error_line(meta.id, code, message), meta.id);
    if (access_log_ != nullptr)
      access_log_->write(access_line(meta, wall_s, code));
  }

  void record_stage_times(const core::StageTimings& t) {
    // Only stages that actually ran; a zero time means the stage was
    // skipped by the pipeline mode, not that it took zero seconds.
    std::size_t i = 0;
    core::visit_stage_fields(
        [&](const char*, double s) {
          if (s > 0) stage_s_[i].record_s(s);
          ++i;
        },
        t);
  }

  // -- access log -----------------------------------------------------------

  /// One access-log line. `r` is null for a request rejected before a
  /// worker ran it: such lines carry no queue wait, result or debug.
  std::string access_line(const RequestMeta& meta, double wall_s,
                          const std::string& code,
                          const CompileResponse* r = nullptr,
                          double queue_wait_s = 0,
                          const SlowCapture* slow = nullptr) const {
    json::Writer w;
    w.begin_object().field("ts", iso8601_utc_now()).field("id", meta.id);
    w.field("kind", meta.kind).field("digest", meta.digest).key("options");
    write_options(w, meta);
    w.field("wall_s", wall_s).field("code", code);
    if (r != nullptr) w.field("queue_wait_s", queue_wait_s);
    if (r != nullptr && r->ok) {
      const core::CompileResult& res = r->result;
      w.field("volume", res.volume);
      w.field("peak_rss_bytes", res.peak_rss_bytes).key("stages");
      w.begin_object();
      core::visit_timing_fields(core::JsonMembers{w}, res.timings);
      w.end_object().key("cache").begin_object();
      core::visit_cache_fields(core::JsonMembers{w}, res.cache);
      w.end_object();
      if (res.shard.enabled) {
        w.key("shard").begin_object();
        core::visit_shard_fields(core::JsonMembers{w}, res.shard);
        w.end_object();
      }
    }
    if (slow != nullptr)
      write_debug(w.field("slow", true).key("debug"), *slow);
    w.end_object();
    return w.str();
  }

  // -- admin protocol -------------------------------------------------------

  void handle_admin(const json::Value& admin, const json::Value& doc,
                    const std::shared_ptr<Output>& out) {
    stats_.admin_requests.fetch_add(1, std::memory_order_relaxed);
    std::string what, id;
    try {
      what = admin.as_string();
      if (const json::Value* v = doc.find("id")) id = v->as_string();
    } catch (const std::exception& e) {
      out->write_line(error_line(id, "bad_request", e.what()), id);
      return;
    }
    if (what == "health") {
      out->write_line(health_line(id), id);
    } else if (what == "metrics") {
      out->write_line(metrics_line(id), id);
    } else if (what == "metrics_text") {
      json::Writer w;
      begin_response(w, id, true).field("admin", "metrics_text");
      w.field("text", openmetrics()).end_object();
      out->write_line(w.str(), id);
    } else {
      out->write_line(error_line(id, "bad_request",
                                 "unknown admin command '" + what +
                                     "' (health, metrics, metrics_text)"),
                      id);
    }
  }

  double uptime_s() const {
    return static_cast<double>(trace::now_ns() - start_ns_) / 1e9;
  }

  std::string health_line(const std::string& id) {
    json::Writer w;
    begin_response(w, id, true).field("admin", "health");
    w.field("uptime_s", uptime_s());
    write_load(w);
    w.end_object();
    return w.str();
  }

  /// The inflight / queue_depth / workers members of health and metrics.
  void write_load(json::Writer& w) const {
    w.field("inflight", stats_.inflight.load(std::memory_order_relaxed));
    w.field("queue_depth", pool_.pending());
    w.field("workers", pool_.worker_count());
  }

  /// The serve histograms that currently hold samples, in a fixed order.
  std::vector<trace::HistogramSnapshot> histogram_snapshots() const {
    std::vector<trace::HistogramSnapshot> out;
    const auto keep = [&out](trace::HistogramSnapshot s) {
      if (s.count > 0) out.push_back(std::move(s));
    };
    keep(request_s_.snapshot());
    keep(queue_wait_s_.snapshot());
    for (const trace::Histogram& h : stage_s_) keep(h.snapshot());
    keep(compiler_.cache_lookup_latency());
    return out;
  }

  std::vector<std::pair<std::string, long long>> counter_values() const {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    const auto v = [](const std::atomic<std::uint64_t>& a) {
      return static_cast<long long>(a.load(std::memory_order_relaxed));
    };
    return {{"requests", v(stats_.requests_total)},
            {"requests_ok", v(stats_.requests_ok)},
            {"requests_error", v(stats_.requests_error)},
            {"overloaded", v(stats_.overloaded)},
            {"cancel_requests", v(stats_.cancel_requests)},
            {"admin_requests", v(stats_.admin_requests)},
            {"responses_dropped", v(stats_.responses_dropped)},
            {"slow_requests", v(stats_.slow_requests)},
            {"sharded_requests", v(stats_.sharded_requests)},
            {"windows_total", v(stats_.windows_total)},
            {"windows_resumed", v(stats_.windows_resumed)},
            {"seam_cells", v(stats_.seam_cells)},
            {"cache_hits", static_cast<long long>(cache.hits)},
            {"cache_misses", static_cast<long long>(cache.misses)},
            {"cache_insertions", static_cast<long long>(cache.insertions)},
            {"cache_evictions", static_cast<long long>(cache.evictions)}};
  }

  std::string metrics_line(const std::string& id) {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    json::Writer w;
    begin_response(w, id, true).field("admin", "metrics").key("serve");
    w.begin_object().field("uptime_s", uptime_s()).key("counters");
    w.begin_object();
    for (const auto& [name, value] : counter_values()) w.field(name, value);
    w.end_object();
    write_load(w);
    w.field("peak_rss_bytes", trace::peak_rss_bytes()).key("cache");
    w.begin_object().field("hits", cache.hits).field("misses", cache.misses);
    w.field("insertions", cache.insertions);
    w.field("evictions", cache.evictions).field("entries", cache.entries);
    w.field("bytes", cache.bytes).field("budget", cache.budget).end_object();
    w.key("histograms").begin_object();
    for (const trace::HistogramSnapshot& h : histogram_snapshots()) {
      w.key(h.name);
      trace::write_histogram(w, h);
    }
    w.end_object().end_object().end_object();
    return w.str();
  }

  /// "serve.request_s" -> "tqec_serve_request_s" etc.
  static std::string prom_name(const std::string& name) {
    std::string out = "tqec_";
    for (const char c : name) out += c == '.' ? '_' : c;
    return out;
  }

  std::string openmetrics() const {
    const core::StageCache::Stats cache = compiler_.cache_stats();
    std::vector<std::pair<std::string, long long>> counters;
    for (const auto& [name, value] : counter_values())
      counters.emplace_back("tqec_serve_" + name, value);
    const std::vector<std::pair<std::string, double>> gauges = {
        {"tqec_serve_uptime_s", uptime_s()},
        {"tqec_serve_inflight",
         static_cast<double>(stats_.inflight.load(std::memory_order_relaxed))},
        {"tqec_serve_queue_depth", static_cast<double>(pool_.pending())},
        {"tqec_serve_workers", static_cast<double>(pool_.worker_count())},
        {"tqec_serve_cache_entries", static_cast<double>(cache.entries)},
        {"tqec_serve_cache_bytes", static_cast<double>(cache.bytes)},
        {"tqec_process_peak_rss_bytes",
         static_cast<double>(trace::peak_rss_bytes())}};
    std::vector<trace::HistogramSnapshot> histograms =
        histogram_snapshots();
    for (trace::HistogramSnapshot& h : histograms) h.name = prom_name(h.name);
    return trace::openmetrics_text(counters, gauges, histograms);
  }

  Compiler compiler_;
  WorkerPool pool_;
  InflightMap inflight_;
  ServerStats stats_;
  std::unique_ptr<AccessLog> access_log_;
  const std::uint64_t slow_ns_;
  const double slow_s_;
  const std::uint64_t start_ns_;

  // Always-on latency histograms (lock-free record path; see
  // common/trace.h — aggregates are deterministic for any worker count).
  trace::Histogram request_s_{"serve.request_s"};
  trace::Histogram queue_wait_s_{"serve.queue_wait_s"};
  /// serve.stage.<name> for every stage field of core::StageTimings, in
  /// field-list order (a deque: histograms are neither copied nor moved).
  std::deque<trace::Histogram> stage_s_;
};

int run_stdin(Server& server) {
  auto out = std::make_shared<Output>(1 /* stdout */,
                                      server.dropped_counter());
  net::LineReader reader(0 /* stdin */);
  std::string line;
  while (reader.next_line(line)) server.handle_line(line, out);
  server.drain();
  return 0;
}

int run_socket(Server& server, const std::string& path) {
  net::UnixServerSocket listener(path);
  std::fprintf(stderr, "tqec_serve: listening on %s\n", path.c_str());
  for (;;) {
    net::Fd conn = listener.accept_client();
    if (!conn.valid()) break;
    auto out = std::make_shared<Output>(std::move(conn),
                                        server.dropped_counter());
    net::LineReader reader(out->fd);
    std::string line;
    while (reader.next_line(line)) server.handle_line(line, out);
    // The connection object stays alive inside any still-queued jobs;
    // their responses go to the (possibly closed) fd and are counted as
    // dropped by Output::write_line.
  }
  server.drain();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  ServeOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value_of =
          [&](const char* prefix) -> std::optional<std::string> {
        const std::size_t n = std::strlen(prefix);
        if (arg.compare(0, n, prefix) == 0) return arg.substr(n);
        return std::nullopt;
      };
      if (auto v = value_of("--threads=")) {
        opt.threads = parse_int(*v, "--threads");
      } else if (auto v = value_of("--queue=")) {
        opt.queue = static_cast<std::size_t>(parse_u64(*v, "--queue"));
      } else if (auto v = value_of("--cache-bytes=")) {
        opt.cache_bytes = parse_i64(*v, "--cache-bytes");
      } else if (auto v = value_of("--socket=")) {
        opt.socket_path = *v;
      } else if (auto v = value_of("--access-log=")) {
        opt.access_log = *v;
      } else if (auto v = value_of("--slow-s=")) {
        opt.slow_s = parse_double(*v, "--slow-s");
      } else {
        std::fprintf(stderr, "unknown option %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  try {
    Server server(opt);
    return opt.socket_path.empty() ? run_stdin(server)
                                   : run_socket(server, opt.socket_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
