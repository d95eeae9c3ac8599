#include "core/shard.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "geom/canonical.h"
#include "geom/cell_grid.h"
#include "geom/stitch.h"
#include "geom/validate.h"
#include "icm/serialize.h"

namespace tqec::core {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Window outcome: the slim per-window record kept across the shard run.
// Holding only this (never the window's CompileResult with its fabric,
// B*-tree, and internals) is what makes sequential peak RSS O(largest
// window).

struct WindowOutcome {
  bool legal = false;
  std::int64_t volume = 0;
  std::int64_t canonical_volume = 0;
  TQEC_COUNT_FIELDS(TQEC_STATS_MEMBER)
  StageTimings timings;        // scalars only (no per-attempt breakdown)
  PlaceAttemptStats selected;  // the winning attempt (series omitted)
  geom::GeomDescription geometry;  // normalized: bounding box lo == origin
  std::vector<std::pair<int, Vec3>> carry_in;   // global line -> cell
  std::vector<std::pair<int, Vec3>> carry_out;
  bool resumed = false;
};

// ---------------------------------------------------------------------------
// Content hashing (stage-cache discipline: Digest128 over canonical text)

/// Every result-affecting compile option, serialized canonically. Thread
/// counts (jobs, shard threads) are excluded: they never
/// change results, so a resume with a different worker count must still
/// hit.
std::string options_fingerprint(const CompileOptions& o,
                                const ShardOptions& shard) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "shardfp/v1"
     << "|mode=" << static_cast<int>(o.mode) << "|seed=" << o.seed
     << "|effort=" << o.effort << "|plan=" << o.plan_flips
     << "|ish=" << o.enable_ishape << "|pri=" << o.enable_primal
     << "|dual=" << o.enable_dual << "|prestarts=" << o.primal_restarts
     << "|attempts=" << o.place_restarts;
  const place::PlaceOptions& p = o.place;
  // Removed fields print the values they always had (automatic layers and
  // iterations, volume weight 1, HPWL wire model, one tempering chain at
  // stagger 1.6, warm-start chaining on) and fields that became constants
  // print those, so existing checkpoint names still resume.
  os << "|p.layers=0|p.alpha=1|p.beta=" << place::kBetaWire
     << "|p.wire=0|p.iters=0|p.effort=" << p.effort
     << "|p.t0=" << place::kT0Fraction << "|p.cool=" << place::kCooling
     << "|p.batch=" << p.batch << "|p.ygap=" << p.layer_y_gap
     << "|p.replicas=1|p.stagger=1.6000000000000001";
  const route::RouteOptions& r = o.route;
  os << "|r.margin=" << r.margin << "|r.maxit=" << r.max_iterations
     << "|r.hist=" << route::kHistoryIncrement
     << "|r.pbase=" << route::kPresentBase
     << "|r.pgrow=" << r.present_growth << "|r.pmax=" << route::kPresentMax
     << "|r.region=" << r.region_margin << "|r.warm=1";
  os << "|shard.window=" << shard.window << "|shard.gap=" << shard.seam_gap;
  return os.str();
}

/// Content hash of one window: its canonical ICM text (carry flags
/// included), the result-affecting options, and its position in the plan.
/// The ICM serializer streams straight into the digest — FNV-1a chunks
/// identically however the bytes arrive, so the hash equals the old
/// update(to_icm_text(...)) without materializing the window's text.
std::string window_digest(const icm::IcmCircuit& window_circuit,
                          const std::string& fingerprint, int index,
                          int total) {
  Digest128 d;
  d.update("tqec.shard.window/v1");
  d.update(fingerprint);
  d.update(std::to_string(index) + "/" + std::to_string(total));
  DigestStreambuf sb(d);
  std::ostream os(&sb);
  icm::write_icm(window_circuit, os);
  os.flush();
  return sb.digest().hex();
}

// ---------------------------------------------------------------------------
// Checkpoint serialization (self-contained text record per window)

void write_vec3(std::ostream& out, Vec3 v) {
  out << v.x << ' ' << v.y << ' ' << v.z;
}

/// Record format version, written in the `tqecck` header line. Bump it
/// whenever a field list the record writes changes: a record of another
/// version fails soft (its window recompiles) instead of misreading.
constexpr std::string_view kCheckpointVersion = "6";

// The `counts`, `timings` and `attempt` lines hold every field of their
// list, in list order (bools as 0/1, doubles at 17 significant digits, so
// they read back bit-exact). The attempt's `selected` flag is implied — a
// record holds its window's selected attempt — and never written.
bool implied_field(std::string_view name) { return name == "selected"; }

/// Visitor callback appending each field as one space-separated token.
struct WriteTokens {
  std::ostream& out;
  template <typename T>
  void operator()(const char* name, const T& v) const {
    if (implied_field(name)) return;
    if constexpr (std::is_same_v<T, bool>)
      out << ' ' << (v ? 1 : 0);
    else
      out << ' ' << v;
  }
};

void write_checkpoint(std::ostream& out, const std::string& digest,
                      int index, int total, const WindowOutcome& o) {
  out << std::setprecision(17);
  out << "tqecck " << kCheckpointVersion << "\n";
  out << "digest " << digest << "\n";
  out << "window " << index << ' ' << total << "\n";
  out << "legal " << (o.legal ? 1 : 0) << "\n";
  out << "volume " << o.volume << ' ' << o.canonical_volume << "\n";
  out << "counts";
  visit_count_fields(WriteTokens{out}, o);
  out << "\ntimings";
  visit_timing_fields(WriteTokens{out}, o.timings);
  out << "\nattempt";
  visit_attempt_fields(WriteTokens{out}, o.selected);
  out << "\n";
  for (const auto& [line, cell] : o.carry_in) {
    out << "carry_in " << line << ' ';
    write_vec3(out, cell);
    out << "\n";
  }
  for (const auto& [line, cell] : o.carry_out) {
    out << "carry_out " << line << ' ';
    write_vec3(out, cell);
    out << "\n";
  }
  for (const geom::DefectView d : o.geometry.defects()) {
    out << "defect " << (d.type == geom::DefectType::Primal ? 'p' : 'd')
        << ' ' << d.source_id << ' ' << d.segments.size() << "\n";
    for (const geom::Segment& s : d.segments) {
      out << "seg ";
      write_vec3(out, s.a);
      out << ' ';
      write_vec3(out, s.b);
      out << "\n";
    }
  }
  for (const geom::DistillBox& b : o.geometry.boxes()) {
    out << "box " << (b.kind == geom::BoxKind::YBox ? 'y' : 'a') << ' ';
    write_vec3(out, b.origin);
    out << ' ' << b.line << "\n";
  }
  for (const geom::ImComponent& c : o.geometry.components()) {
    out << "comp " << static_cast<int>(c.kind) << ' ';
    write_vec3(out, c.position);
    out << ' ' << c.defect_index << "\n";
  }
  out << "end\n";
}

/// Tokenizing reader for the checkpoint format; any structural surprise
/// makes the load fail soft (nullopt -> the window is recompiled).
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& in) : in_(in) {}

  bool next(std::vector<std::string>& tokens) {
    std::string raw;
    while (std::getline(in_, raw)) {
      const std::string_view t = trim(raw);
      if (t.empty()) continue;
      tokens = split_ws(t);
      return true;
    }
    return false;
  }

 private:
  std::istream& in_;
};

/// Store a checked parse (common/string_util) into `out`; false when the
/// token was malformed, out of the field's range, or — for doubles — not
/// finite, so a corrupt record fails soft instead of loading garbage.
template <typename T>
bool take(std::optional<T> parsed, T& out) {
  if (!parsed) return false;
  out = *parsed;
  return true;
}

bool parse_vec3(const std::vector<std::string>& t, std::size_t at, Vec3& v) {
  return t.size() >= at + 3 && take(try_parse_int(t[at]), v.x) &&
         take(try_parse_int(t[at + 1]), v.y) &&
         take(try_parse_int(t[at + 2]), v.z);
}

bool parse_token(std::string_view s, bool& v) {
  int i = 0;
  if (!take(try_parse_int(s), i)) return false;
  v = i != 0;
  return true;
}
bool parse_token(std::string_view s, int& v) {
  return take(try_parse_int(s), v);
}
bool parse_token(std::string_view s, std::int64_t& v) {
  return take(try_parse_i64(s), v);
}
bool parse_token(std::string_view s, std::uint64_t& v) {
  return take(try_parse_u64(s), v);
}
bool parse_token(std::string_view s, double& v) {
  return take(try_parse_double(s), v);
}

/// Visitor callback reading a record line's tokens (after the keyword)
/// into the visited fields; done() is true when every field parsed and no
/// token is left over.
struct ReadTokens {
  const std::vector<std::string>& t;
  std::size_t next = 1;
  bool ok = true;
  template <typename T>
  void operator()(const char* name, T& v) {
    if (implied_field(name)) return;
    ok = ok && next < t.size() && parse_token(t[next++], v);
  }
  bool done() const { return ok && next == t.size(); }
};

std::optional<WindowOutcome> read_checkpoint(std::istream& in,
                                             const std::string& digest,
                                             int index, int total) {
  CheckpointReader reader(in);
  std::vector<std::string> t;
  WindowOutcome o;
  // Defects stream line-by-line straight into the geometry's segment
  // arena (begin_defect/append_segment) — no intermediate vector-of-
  // vectors, so peak memory during a resume is the parse buffer plus the
  // geometry itself. Components are collected for the end-of-record index
  // check (they may reference any defect).
  geom::GeomDescription rebuilt;
  std::vector<geom::ImComponent> ck_components;
  bool defect_open = false;
  std::size_t segs_expected = 0, segs_read = 0;
  bool header = false, digest_ok = false, ended = false;

  while (reader.next(t)) {
    const std::string& kw = t[0];
    int i1 = 0, i2 = 0;
    if (kw == "tqecck") {
      if (t.size() < 2 || t[1] != kCheckpointVersion) return std::nullopt;
      header = true;
    } else if (!header) {
      return std::nullopt;
    } else if (kw == "digest") {
      if (t.size() != 2 || t[1] != digest) return std::nullopt;
      digest_ok = true;
    } else if (kw == "window") {
      if (t.size() != 3 || !take(try_parse_int(t[1]), i1) ||
          !take(try_parse_int(t[2]), i2) || i1 != index || i2 != total)
        return std::nullopt;
    } else if (kw == "legal") {
      if (t.size() != 2 || !take(try_parse_int(t[1]), i1))
        return std::nullopt;
      o.legal = i1 != 0;
    } else if (kw == "volume") {
      if (t.size() != 3 || !take(try_parse_i64(t[1]), o.volume) ||
          !take(try_parse_i64(t[2]), o.canonical_volume))
        return std::nullopt;
    } else if (kw == "counts") {
      ReadTokens fields{t};
      visit_count_fields(fields, o);
      if (!fields.done()) return std::nullopt;
    } else if (kw == "timings") {
      ReadTokens fields{t};
      visit_timing_fields(fields, o.timings);
      if (!fields.done()) return std::nullopt;
    } else if (kw == "attempt") {
      // Attempt seeds are splitmix64 outputs: full u64 range.
      ReadTokens fields{t};
      visit_attempt_fields(fields, o.selected);
      if (!fields.done()) return std::nullopt;
      o.selected.selected = true;
    } else if (kw == "carry_in" || kw == "carry_out") {
      Vec3 cell;
      if (t.size() != 5 || !take(try_parse_int(t[1]), i1) ||
          !parse_vec3(t, 2, cell))
        return std::nullopt;
      auto& dst = kw == "carry_in" ? o.carry_in : o.carry_out;
      dst.emplace_back(i1, cell);
    } else if (kw == "defect") {
      if (defect_open && segs_read != segs_expected) return std::nullopt;
      if (t.size() != 4 || (t[1] != "p" && t[1] != "d") ||
          !take(try_parse_int(t[2]), i1) || !take(try_parse_int(t[3]), i2) ||
          i2 < 0)
        return std::nullopt;
      rebuilt.begin_defect(t[1] == "p" ? geom::DefectType::Primal
                                       : geom::DefectType::Dual,
                           i1);
      defect_open = true;
      segs_expected = static_cast<std::size_t>(i2);
      segs_read = 0;
    } else if (kw == "seg") {
      geom::Segment s;
      if (!defect_open || t.size() != 7 || !parse_vec3(t, 1, s.a) ||
          !parse_vec3(t, 4, s.b) || !s.axis_aligned())
        return std::nullopt;
      rebuilt.append_segment(s);
      ++segs_read;
    } else if (kw == "box") {
      geom::DistillBox b;
      if (t.size() != 6 || (t[1] != "y" && t[1] != "a") ||
          !parse_vec3(t, 2, b.origin) || !take(try_parse_int(t[5]), b.line))
        return std::nullopt;
      b.kind = t[1] == "y" ? geom::BoxKind::YBox : geom::BoxKind::ABox;
      rebuilt.add_box(b);
    } else if (kw == "comp") {
      geom::ImComponent c;
      if (t.size() != 6 || !take(try_parse_int(t[1]), i1) || i1 < 0 ||
          i1 > 5 || !parse_vec3(t, 2, c.position) ||
          !take(try_parse_int(t[5]), c.defect_index))
        return std::nullopt;
      c.kind = static_cast<geom::ComponentKind>(i1);
      ck_components.push_back(c);
    } else if (kw == "end") {
      ended = true;
      break;
    } else {
      return std::nullopt;
    }
  }
  if (!header || !digest_ok || !ended) return std::nullopt;
  if (defect_open && segs_read != segs_expected) return std::nullopt;
  // Components last, so their defect indices validate against the fully
  // streamed defect list.
  for (const geom::ImComponent& c : ck_components) {
    if (c.defect_index >= static_cast<int>(rebuilt.defect_count()))
      return std::nullopt;
    rebuilt.add_component(c);
  }
  o.geometry = std::move(rebuilt);
  o.resumed = true;
  return o;
}

std::string checkpoint_filename(int index, const std::string& digest) {
  return "win" + std::to_string(index) + "_" + digest + ".tqecck";
}

std::optional<WindowOutcome> load_checkpoint(const fs::path& path,
                                             const std::string& digest,
                                             int index, int total) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  try {
    return read_checkpoint(in, digest, index, total);
  } catch (...) {
    return std::nullopt;  // corrupt record: recompile the window
  }
}

void save_checkpoint(const fs::path& path, const std::string& digest,
                     int index, int total, const WindowOutcome& o) {
  // Atomic publish: a killed compile must never leave a half-written
  // record that a resume could half-read.
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return;  // checkpointing is best-effort, never fatal
    write_checkpoint(out, digest, index, total, o);
    if (!out) return;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
}

void write_manifest(const fs::path& dir, const std::string& name,
                    const ShardOptions& shard, const ShardPlan& plan,
                    const std::vector<std::string>& digests) {
  std::ofstream out(dir / "manifest.json");
  if (!out) return;
  json::Writer w;
  w.begin_object().field("name", name).field("shard_window", shard.window);
  w.field("depth", plan.depth).key("windows").begin_array();
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    w.begin_object().field("index", i);
    w.field("layer_lo", plan.windows[i].layer_lo);
    w.field("layer_hi", plan.windows[i].layer_hi);
    w.field("digest", digests[i]);
    w.field("file", checkpoint_filename(static_cast<int>(i), digests[i]));
    w.end_object();
  }
  w.end_array().end_object();
  out << w.str() << "\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// Planning

ShardPlan plan_windows(const icm::IcmCircuit& circuit, int window_layers) {
  TQEC_TRACE_SPAN("shard.plan");
  const int K = std::max(1, window_layers);
  const int lines = circuit.num_lines();
  const auto& cnots = circuit.cnots();

  ShardPlan plan;
  plan.meas_window.assign(static_cast<std::size_t>(lines), 0);

  // ASAP layering: layer(k) = 1 + max(last layer of either endpoint).
  std::vector<int> layer(cnots.size(), 0);
  std::vector<int> last(static_cast<std::size_t>(lines), 0);
  std::vector<int> first_use(static_cast<std::size_t>(lines), 0);
  std::vector<int> last_use(static_cast<std::size_t>(lines), 0);
  int depth = 0;
  for (std::size_t k = 0; k < cnots.size(); ++k) {
    const auto c = static_cast<std::size_t>(cnots[k].control);
    const auto t = static_cast<std::size_t>(cnots[k].target);
    const int L = std::max(last[c], last[t]) + 1;
    layer[k] = L;
    last[c] = last[t] = L;
    if (first_use[c] == 0) first_use[c] = L;
    if (first_use[t] == 0) first_use[t] = L;
    last_use[c] = std::max(last_use[c], L);
    last_use[t] = std::max(last_use[t], L);
    depth = std::max(depth, L);
  }
  plan.depth = depth;

  if (depth == 0) {
    // CNOT-free circuit: one window holding every line.
    WindowPlan w;
    w.index = 0;
    w.layer_lo = 1;
    w.layer_hi = 2;
    for (int l = 0; l < lines; ++l) {
      w.lines.push_back(l);
      w.carry_in.push_back(0);
      w.carry_out.push_back(0);
    }
    plan.windows.push_back(std::move(w));
    return plan;
  }

  // crossings(b) = #lines with a CNOT at a layer < b and one at >= b,
  // via a difference array over boundary candidates b in [2, depth].
  std::vector<int> crossing(static_cast<std::size_t>(depth) + 2, 0);
  for (int l = 0; l < lines; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    if (first_use[lu] == 0 || first_use[lu] == last_use[lu]) continue;
    crossing[static_cast<std::size_t>(first_use[lu]) + 1] += 1;
    crossing[static_cast<std::size_t>(last_use[lu]) + 1] -= 1;
  }
  for (std::size_t b = 1; b < crossing.size(); ++b)
    crossing[b] += crossing[b - 1];

  // Cut selection: around each target multiple of K, pick the boundary
  // with the fewest crossings in a +-K/3 neighborhood (smallest layer on
  // ties). The slack keeps the final window from degenerating.
  const int slack = std::max(1, K / 3);
  std::vector<int> bounds{1};
  int lo = 1;
  while (depth - lo + 1 > K + slack) {
    const int blo = lo + std::max(1, (2 * K) / 3);
    const int bhi = std::min(depth, lo + K + slack);
    int best = blo;
    for (int b = blo; b <= bhi; ++b)
      if (crossing[static_cast<std::size_t>(b)] <
          crossing[static_cast<std::size_t>(best)])
        best = b;
    bounds.push_back(best);
    plan.cut_layers.push_back(best);
    plan.crossings += crossing[static_cast<std::size_t>(best)];
    lo = best;
  }
  bounds.push_back(depth + 1);

  const auto n = bounds.size() - 1;
  plan.windows.resize(n);
  std::vector<int> window_of_layer(static_cast<std::size_t>(depth) + 1, 0);
  for (std::size_t w = 0; w < n; ++w) {
    plan.windows[w].index = static_cast<int>(w);
    plan.windows[w].layer_lo = bounds[w];
    plan.windows[w].layer_hi = bounds[w + 1];
    for (int L = bounds[w]; L < bounds[w + 1]; ++L)
      window_of_layer[static_cast<std::size_t>(L)] = static_cast<int>(w);
  }
  for (std::size_t k = 0; k < cnots.size(); ++k)
    plan.windows[static_cast<std::size_t>(
                     window_of_layer[static_cast<std::size_t>(layer[k])])]
        .cnots.push_back(static_cast<int>(k));

  for (int l = 0; l < lines; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    if (first_use[lu] == 0) {
      // Line untouched by any CNOT: keep it in the first window.
      plan.windows[0].lines.push_back(l);
      plan.windows[0].carry_in.push_back(0);
      plan.windows[0].carry_out.push_back(0);
      plan.meas_window[lu] = 0;
      continue;
    }
    const int wf = window_of_layer[static_cast<std::size_t>(first_use[lu])];
    const int wl = window_of_layer[static_cast<std::size_t>(last_use[lu])];
    for (int w = wf; w <= wl; ++w) {
      auto& win = plan.windows[static_cast<std::size_t>(w)];
      win.lines.push_back(l);
      win.carry_in.push_back(w > wf ? 1 : 0);
      win.carry_out.push_back(w < wl ? 1 : 0);
    }
    plan.meas_window[lu] = wl;
  }

  for (const icm::MeasOrder& o : circuit.meas_order()) {
    const int wb = plan.meas_window[static_cast<std::size_t>(o.before_line)];
    const int wa = plan.meas_window[static_cast<std::size_t>(o.after_line)];
    if (wb != wa) plan.cross_order.push_back(o);
  }
  return plan;
}

icm::IcmCircuit extract_window(const icm::IcmCircuit& circuit,
                               const ShardPlan& plan, int index) {
  const WindowPlan& w = plan.windows.at(static_cast<std::size_t>(index));
  icm::IcmCircuit out(circuit.name() + "@w" + std::to_string(index));

  std::unordered_map<int, int> local;
  local.reserve(w.lines.size());
  for (std::size_t i = 0; i < w.lines.size(); ++i) {
    const int l = w.lines[i];
    const int id = out.add_line(circuit.init_basis(l),
                                circuit.meas_basis(l));
    // Crossing the right cut defers the measurement exactly like a real
    // output; crossing the left cut suppresses the initialization.
    if (circuit.is_output(l) || w.carry_out[i]) out.mark_output(id);
    if (circuit.is_carry_in(l) || w.carry_in[i]) out.mark_carry_in(id);
    local.emplace(l, id);
  }
  for (const int k : w.cnots) {
    const icm::IcmCnot& c = circuit.cnots()[static_cast<std::size_t>(k)];
    out.add_cnot(local.at(c.control), local.at(c.target));
  }
  for (const icm::MeasOrder& o : circuit.meas_order()) {
    if (plan.meas_window[static_cast<std::size_t>(o.before_line)] != index ||
        plan.meas_window[static_cast<std::size_t>(o.after_line)] != index)
      continue;
    out.add_meas_order(local.at(o.before_line), local.at(o.after_line));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sharded compile

CompileResult compile_sharded(const icm::IcmCircuit& circuit,
                              const CompileOptions& options,
                              const ShardOptions& shard) {
  if (shard.window <= 0) return compile(circuit, options);
  const auto t_start = std::chrono::steady_clock::now();
  TQEC_TRACE_SPAN("shard.compile");

  const ShardPlan plan = plan_windows(circuit, shard.window);
  const std::size_t n = plan.windows.size();

  // Window circuits, content digests, and the checkpoint layout.
  const std::string fingerprint = options_fingerprint(options, shard);
  std::vector<icm::IcmCircuit> window_circuits(n);
  std::vector<std::string> digests(n);
  for (std::size_t w = 0; w < n; ++w) {
    window_circuits[w] = extract_window(circuit, plan, static_cast<int>(w));
    digests[w] = window_digest(window_circuits[w], fingerprint,
                               static_cast<int>(w), static_cast<int>(n));
  }

  const bool checkpointing = !shard.checkpoint_dir.empty();
  fs::path ckdir;
  if (checkpointing) {
    ckdir = shard.checkpoint_dir;
    std::error_code ec;
    fs::create_directories(ckdir, ec);  // best-effort; loads just miss
    write_manifest(ckdir, circuit.name(), shard, plan, digests);
  }

  // Per-window seeds, derived exactly like the place+route attempt chain
  // (window 0 uses the request seed itself).
  std::vector<std::uint64_t> seeds(n);
  seeds[0] = options.seed;
  std::uint64_t seed_state = options.seed;
  for (std::size_t w = 1; w < n; ++w) seeds[w] = splitmix64(seed_state);

  std::vector<WindowOutcome> outcomes(n);
  auto run_window = [&](std::size_t w, std::uint64_t seed,
                        bool allow_resume) {
    const fs::path ckpath =
        checkpointing
            ? ckdir / checkpoint_filename(static_cast<int>(w), digests[w])
            : fs::path();
    if (checkpointing && allow_resume) {
      if (auto loaded = load_checkpoint(ckpath, digests[w],
                                        static_cast<int>(w),
                                        static_cast<int>(n))) {
        outcomes[w] = std::move(*loaded);
        return;
      }
    }

    CompileOptions wopt = options;
    wopt.seed = seed;
    // The stitch needs the window geometry and the carry modules' cells.
    wopt.emit_geometry = true;
    wopt.keep_internals = true;
    CompileResult r = compile(window_circuits[w], wopt);

    WindowOutcome o;
    o.legal = r.routed_legal;
    o.volume = r.volume;
    o.canonical_volume = r.canonical_volume;
    const auto assign = [](const char*, auto& dst, const auto& src) {
      dst = src;
    };
    visit_count_fields(assign, o, r);
    visit_timing_fields(assign, o.timings, r.timings);
    for (const PlaceAttemptStats& a : r.timings.attempts)
      if (a.selected) {
        visit_attempt_fields(assign, o.selected, a);
        break;
      }

    // Normalize the window to the origin; carry cells move with it.
    const Box3 bb = r.geometry.bounding_box();
    const Vec3 lo = bb.empty() ? Vec3{0, 0, 0} : bb.lo;
    o.geometry = std::move(r.geometry);
    o.geometry.translate({-lo.x, -lo.y, -lo.z});

    const WindowPlan& wp = plan.windows[w];
    const auto& rows = r.internals->graph.rows();
    const auto& module_cell = r.placement.module_cell;
    for (std::size_t i = 0; i < wp.lines.size(); ++i) {
      const auto& row = rows[i];  // local line id == i by construction
      if (wp.carry_in[i])
        o.carry_in.emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(row.front())] - lo);
      if (wp.carry_out[i])
        o.carry_out.emplace_back(
            wp.lines[i],
            module_cell[static_cast<std::size_t>(row.back())] - lo);
    }
    outcomes[w] = std::move(o);

    if (checkpointing)
      save_checkpoint(ckpath, digests[w], static_cast<int>(w),
                      static_cast<int>(n), outcomes[w]);
  };

  // Window compiles: window-indexed writes + a serial stitch below keep the
  // result bit-identical for any worker count (the repo-wide reduction
  // rule). threads == 1 additionally guarantees only one window is ever
  // live at once: one fabric and B*-tree at jobs == 1, up to two (its
  // concurrent whitespace levels) at jobs >= 2.
  const int workers = resolve_jobs(shard.threads);
  parallel_for(n, workers,
               [&](std::size_t w) { run_window(w, seeds[w], true); });
  const double windows_wall_s = seconds_since(t_start);

  // Serial stitch along the pinned seam interfaces. A placement can seal
  // a carry module inside a pocket of neighboring cells, leaving its seam
  // with no legal path; when that happens the blamed window is recompiled
  // with the next seed of its deterministic retry chain and the stitch
  // reruns. Serial, so the outcome is identical for any worker count, and
  // retried windows overwrite their checkpoints so a resumed run replays
  // the retried geometry byte-for-byte.
  const auto t_stitch = std::chrono::steady_clock::now();
  trace::Span stitch_span("shard.stitch");
  geom::StitchOptions sopt;
  sopt.seam_gap = shard.seam_gap;
  geom::StitchResult stitched;
  std::vector<int> reseeds(n, 0);
  constexpr int kMaxReseedsPerWindow = 3;
  int windows_reseeded = 0;
  for (;;) {
    // Windows point at the outcome geometries — a retry iteration restages
    // them without deep-copying a single segment vector.
    std::vector<geom::StitchWindow> stitch_in(n);
    for (std::size_t w = 0; w < n; ++w) {
      stitch_in[w].geometry = &outcomes[w].geometry;
      stitch_in[w].carry_in = outcomes[w].carry_in;
      stitch_in[w].carry_out = outcomes[w].carry_out;
    }
    stitched = geom::stitch_windows(stitch_in, circuit.name(), sopt);
    if (stitched.blocked.empty()) break;
    std::vector<int> blamed;
    for (const auto& b : stitched.blocked) blamed.push_back(b.window);
    std::sort(blamed.begin(), blamed.end());
    blamed.erase(std::unique(blamed.begin(), blamed.end()), blamed.end());
    bool progressed = false;
    for (const int w : blamed) {
      const auto wu = static_cast<std::size_t>(w);
      if (reseeds[wu] >= kMaxReseedsPerWindow) continue;
      ++reseeds[wu];
      ++windows_reseeded;
      std::uint64_t state = seeds[wu];
      std::uint64_t seed = 0;
      for (int i = 0; i < reseeds[wu]; ++i) seed = splitmix64(state);
      run_window(wu, seed, false);
      progressed = true;
    }
    if (!progressed) break;
  }
  const double stitch_s = seconds_since(t_stitch);
  stitch_span.end();

  // Assemble the merged result.
  CompileResult result;
  result.name = circuit.name();
  result.stats = circuit.stats();
  // Canonical volume is the whole circuit's Table-1 reference (what the
  // compression ratio is measured against), not a sum of window canonicals
  // (carry lines drop their injection modules inside a window).
  result.canonical_volume = geom::canonical_volume(result.stats);
  result.shard.enabled = true;
  result.shard.window = shard.window;
  result.shard.threads = workers;
  result.shard.windows_total = static_cast<int>(n);
  result.shard.crossings = plan.crossings;
  result.shard.cut_layers = plan.cut_layers;
  result.shard.stitches = stitched.stitches;
  result.shard.seam_cells = stitched.seam_cells;
  result.shard.stitch_s = stitch_s;
  result.shard.windows_reseeded = windows_reseeded;
  result.shard.issues = stitched.issues;

  bool windows_legal = true;
  const auto add = [](const char*, auto& sum, const auto& v) { sum += v; };
  for (std::size_t w = 0; w < n; ++w) {
    const WindowOutcome& o = outcomes[w];
    if (o.resumed) ++result.shard.windows_resumed;
    if (!o.legal) {
      windows_legal = false;
      result.shard.issues.push_back("window " + std::to_string(w) +
                                    ": not legally routed");
    }
    result.shard.window_volumes.push_back(o.volume);
    visit_count_fields(add, result, o);
    visit_timing_fields(add, result.timings, o.timings);
    result.timings.attempts.push_back(o.selected);
  }
  // Not sums: the window phase's and the whole run's own wall clocks.
  result.timings.place_route_wall_s = windows_wall_s;

  // Cross-window measurement order: window w sits at strictly smaller x
  // than window w+1, so before-window < after-window is sufficient.
  for (const icm::MeasOrder& o : plan.cross_order) {
    if (plan.meas_window[static_cast<std::size_t>(o.before_line)] >
        plan.meas_window[static_cast<std::size_t>(o.after_line)]) {
      std::ostringstream os;
      os << "cross-window measurement order reversed: line "
         << o.before_line << " measures after line " << o.after_line;
      result.shard.issues.push_back(os.str());
    }
  }

  // The stitched geometry must pass the structural validator wholesale —
  // seams are held to the same rules as any compiled design.
  const auto t_validate = std::chrono::steady_clock::now();
  trace::Span validate_span("shard.validate");
  const geom::ValidationReport vr = geom::validate(stitched.geometry);
  validate_span.end();
  result.shard.validate_s = seconds_since(t_validate);
  constexpr std::size_t kMaxReported = 16;
  for (std::size_t i = 0; i < vr.issues.size() && i < kMaxReported; ++i)
    result.shard.issues.push_back("validate: [" + vr.issues[i].rule + "] " +
                                  vr.issues[i].detail);
  if (vr.issues.size() > kMaxReported)
    result.shard.issues.push_back(
        "validate: +" + std::to_string(vr.issues.size() - kMaxReported) +
        " more issue(s)");

  result.volume = stitched.geometry.volume();
  result.routing.volume = result.volume;
  result.routing.bounding = stitched.geometry.bounding_box();
  result.routed_legal = windows_legal && result.shard.issues.empty();
  result.routing.legal = result.routed_legal;

  // Geometry-engine observability: grid_build_s totals the rasterization
  // passes of this result (stitcher frame grid, validator grid, and the
  // final occupancy grid that yields the exact cell count); grid_bytes is
  // the largest single-grid footprint.
  {
    geom::GridBuildStats gstats;
    const geom::OccupancyGrid grid =
        geom::build_occupancy(stitched.geometry, &gstats);
    result.geom.grid_build_s =
        gstats.build_s + vr.grid_build_s + stitched.grid_build_s;
    result.geom.grid_bytes =
        std::max({gstats.bytes, vr.grid_bytes, stitched.grid_bytes});
    result.geom.exact_cells =
        grid.popcount(geom::kPrimalPlane) + grid.popcount(geom::kDualPlane);
    result.geom.segments =
        static_cast<std::int64_t>(stitched.geometry.segment_count());
    result.geom.arena_bytes = stitched.geometry.arena_bytes();
  }
  if (options.emit_geometry) result.geometry = std::move(stitched.geometry);

  result.peak_rss_bytes = trace::peak_rss_bytes();
  result.timings.total_s = seconds_since(t_start);

  // Shard-level metrics snapshot. Window compiles each reset the registry
  // (core::compile's per-run discipline), so the merged result publishes
  // its own shard gauges rather than inheriting the last window's.
  if (trace::enabled()) {
    trace::reset_metrics();
    trace::gauge_set("shard.windows_total",
                     static_cast<double>(result.shard.windows_total));
    trace::gauge_set("shard.windows_resumed",
                     static_cast<double>(result.shard.windows_resumed));
    trace::gauge_set("shard.crossings",
                     static_cast<double>(result.shard.crossings));
    trace::gauge_set("shard.stitches",
                     static_cast<double>(result.shard.stitches));
    trace::gauge_set("shard.seam_cells",
                     static_cast<double>(result.shard.seam_cells));
    publish_geom_gauges(result.geom);
    trace::gauge_set("process.peak_rss_bytes",
                     static_cast<double>(result.peak_rss_bytes));
    result.metrics = trace::snapshot_metrics();
  }
  return result;
}

}  // namespace tqec::core
