#include "geom/stitch.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/clock.h"
#include "geom/cell_grid.h"

namespace tqec::geom {

namespace {

/// Visit every lattice cell of an axis-aligned segment, a -> b inclusive.
template <typename Fn>
void for_each_cell(const Segment& s, Fn&& fn) {
  TQEC_REQUIRE(s.axis_aligned(), "stitch: non-axis-aligned segment");
  const Vec3 d = s.b - s.a;
  const Vec3 step{(d.x > 0) - (d.x < 0), (d.y > 0) - (d.y < 0),
                  (d.z > 0) - (d.z < 0)};
  for (Vec3 p = s.a;; p += step) {
    fn(p);
    if (p == s.b) break;
  }
}

/// Occupancy + A* bookkeeping, hash flavor: node-based hash containers
/// whose cost follows the cells touched, not the frame volume. The engine
/// for frames too large for GridSpace's dense planes.
class HashSpace {
 public:
  static constexpr bool kGrid = false;

  bool init_frame(const Box3&) { return true; }
  bool occupy(Vec3 c) { return occupied_.insert(c).second; }
  void release(Vec3 c) { occupied_.erase(c); }
  bool is_occupied(Vec3 c) const { return occupied_.count(c) != 0; }
  bool is_pass(Vec3 c) const { return pass_.count(c) != 0; }
  void pass_insert(Vec3 c) { pass_.insert(c); }
  void pass_remove(Vec3 c) { pass_.erase(c); }

  void begin_search(const Box3&) { best_.clear(); }
  int g_of(Vec3 c) const {
    const auto it = best_.find(c);
    return it == best_.end() ? -1 : it->second.first;
  }
  Vec3 parent_of(Vec3 c) const { return best_.at(c).second; }
  void set_node(Vec3 c, int g, Vec3 parent) { best_[c] = {g, parent}; }

  std::int64_t byte_size() const { return 0; }

 private:
  std::unordered_set<Vec3> occupied_;
  std::unordered_set<Vec3> pass_;
  std::unordered_map<Vec3, std::pair<int, Vec3>> best_;
};

/// Occupancy + A* bookkeeping, grid flavor: occupancy and pass-through
/// cells are bit planes of one CellGrid over the merged frame, and the
/// search keeps g/parent in dense scratch arrays over the carve region
/// (allocation reused across carves). A search does not reset them: g is
/// stored as base_ + g, where each search's base_ lies above every key an
/// earlier search could store, so a cell is reached iff its key is at
/// least base_ (an epoch stamp folded into the g word). Every
/// operation has the exact semantics of HashSpace, so seam paths — and
/// therefore the stitched geometry — are bit-identical; only the cost per
/// cell changes (a word load instead of a hash + pointer chase).
class GridSpace {
 public:
  static constexpr bool kGrid = true;
  /// Fall back to HashSpace above this dense-frame footprint (the frame
  /// spans every window, so a pathological input could ask for gigabytes).
  static constexpr std::int64_t kFrameByteCap = std::int64_t{64} << 20;

  bool init_frame(const Box3& frame) {
    if (CellGrid::projected_bytes(frame, 2) > kFrameByteCap) return false;
    grid_.reset(frame, 2);
    return true;
  }
  bool occupy(Vec3 c) { return grid_.set(kOccupiedPlane, c); }
  void release(Vec3 c) { grid_.clear(kOccupiedPlane, c); }
  bool is_occupied(Vec3 c) const { return grid_.test(kOccupiedPlane, c); }
  bool is_pass(Vec3 c) const { return grid_.test(kPassPlane, c); }
  void pass_insert(Vec3 c) { grid_.set(kPassPlane, c); }
  void pass_remove(Vec3 c) { grid_.clear(kPassPlane, c); }

  /// Callers guarantee the search's start and goal lie inside `region`
  /// (the carve region is expanded around both endpoints and the pin).
  void begin_search(const Box3& region) {
    const std::int64_t n = region.volume();
    TQEC_REQUIRE(n <= std::numeric_limits<std::int32_t>::max(),
                 "stitch: carve region too large");
    rlo_ = region.lo;
    const Vec3 d = region.dims();
    rdy_ = static_cast<std::size_t>(d.y);
    rdz_ = static_cast<std::size_t>(d.z);
    if (g_.size() < static_cast<std::size_t>(n)) {
      g_.resize(static_cast<std::size_t>(n), 0);
      parent_.resize(static_cast<std::size_t>(n));
    }
    // A search stores g < n, so its keys stay below base_ + n, where the
    // next search's base starts. Keys would overflow first: clear them.
    if (next_base_ > std::numeric_limits<std::uint32_t>::max() -
                         static_cast<std::uint32_t>(n)) {
      std::fill(g_.begin(), g_.end(), 0u);
      next_base_ = 1;
    }
    base_ = next_base_;
    next_base_ = base_ + static_cast<std::uint32_t>(n);
  }
  int g_of(Vec3 c) const {
    const std::uint32_t key = g_[idx(c)];
    return key >= base_ ? static_cast<int>(key - base_) : -1;
  }
  Vec3 parent_of(Vec3 c) const { return cell(parent_[idx(c)]); }
  void set_node(Vec3 c, int g, Vec3 parent) {
    const std::size_t i = idx(c);
    g_[i] = base_ + static_cast<std::uint32_t>(g);
    parent_[i] = static_cast<std::int32_t>(idx(parent));
  }

  std::int64_t byte_size() const {
    return grid_.byte_size() +
           static_cast<std::int64_t>((g_.capacity() + parent_.capacity()) *
                                     sizeof(std::int32_t));
  }

 private:
  static constexpr int kOccupiedPlane = 0;
  static constexpr int kPassPlane = 1;

  std::size_t idx(Vec3 c) const {
    return (static_cast<std::size_t>(c.x - rlo_.x) * rdy_ +
            static_cast<std::size_t>(c.y - rlo_.y)) *
               rdz_ +
           static_cast<std::size_t>(c.z - rlo_.z);
  }
  Vec3 cell(std::int32_t i) const {
    const auto u = static_cast<std::size_t>(i);
    return {rlo_.x + static_cast<int>(u / (rdy_ * rdz_)),
            rlo_.y + static_cast<int>((u / rdz_) % rdy_),
            rlo_.z + static_cast<int>(u % rdz_)};
  }

  CellGrid grid_;
  Vec3 rlo_;
  std::size_t rdy_ = 1, rdz_ = 1;
  std::vector<std::uint32_t> g_;       // base_ + settled cost
  std::vector<std::int32_t> parent_;   // region index of the parent cell
  std::uint32_t base_ = 0;             // this search's key of g = 0
  std::uint32_t next_base_ = 1;        // above every key stored so far
};

/// Deterministic A* (unit edge costs, Manhattan heuristic) from `start` to
/// `goal` through cells of `region` not occupied in `space` (the endpoints
/// themselves are exempt, as is every pass-through cell — the carve's own
/// endpoint defects, whose rails the seam path may legally ride since they
/// all merge into one final defect). Returns a shortest cell path
/// start..goal inclusive, or empty when unreachable. Ties on f = g + h
/// break by insertion order and the neighbor order is fixed, so the path
/// is a pure function of the inputs. Goal-directed search matters here:
/// seam regions span two whole windows, and a breadth-first flood visits
/// every free cell of that box per carve (tens of millions of cells across
/// a long circuit's seams) where A* walks essentially straight to the pin.
template <typename Space>
std::vector<Vec3> seam_path(Vec3 start, Vec3 goal, const Box3& region,
                            Space& space) {
  if (start == goal) return {start};
  static constexpr Vec3 kSteps[6] = {{1, 0, 0}, {-1, 0, 0}, {0, 1, 0},
                                     {0, -1, 0}, {0, 0, 1}, {0, 0, -1}};
  // Weighted heuristic (W > 1): the path need not be shortest, only legal
  // and deterministic, and the extra goal bias cuts expansions sharply in
  // cluttered regions at the cost of slightly longer seams.
  constexpr int kWeight = 3;
  const auto h = [goal](Vec3 v) {
    return kWeight * (std::abs(v.x - goal.x) + std::abs(v.y - goal.y) +
                      std::abs(v.z - goal.z));
  };
  // (f, insertion order, cell): lazy-deletion open list; the space holds
  // the settled g and the parent of every reached cell.
  using OpenEntry = std::tuple<int, long, Vec3>;
  std::priority_queue<OpenEntry, std::vector<OpenEntry>,
                      std::greater<OpenEntry>>
      open;
  space.begin_search(region);
  long order = 0;
  space.set_node(start, 0, start);
  open.emplace(h(start), order++, start);
  while (!open.empty()) {
    const auto [f, tie, p] = open.top();
    open.pop();
    const int gp = space.g_of(p);
    if (f != gp + h(p)) continue;  // stale entry
    if (p == goal) {
      std::vector<Vec3> path;
      for (Vec3 c = goal;; c = space.parent_of(c)) {
        path.push_back(c);
        if (c == start) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (const Vec3 s : kSteps) {
      const Vec3 n = p + s;
      if (!region.contains(n)) continue;
      if (n != goal && space.is_occupied(n) && !space.is_pass(n)) continue;
      const int gn = gp + 1;
      const int cur = space.g_of(n);
      if (cur >= 0 && cur <= gn) continue;
      space.set_node(n, gn, p);
      open.emplace(gn + h(n), order++, n);
    }
  }
  return {};
}

/// Collapse a cell path into maximal straight segments.
std::vector<Segment> path_to_segments(const std::vector<Vec3>& path) {
  std::vector<Segment> segments;
  if (path.empty()) return segments;
  Vec3 run_start = path[0];
  Vec3 prev = path[0];
  Vec3 dir{0, 0, 0};
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Vec3 step = path[i] - prev;
    if (dir != Vec3{0, 0, 0} && step != dir) {
      segments.push_back({run_start, prev});
      run_start = prev;
    }
    dir = step;
    prev = path[i];
  }
  segments.push_back({run_start, prev});
  return segments;
}

/// Union-find over staged defect indices; roots stay the smallest member,
/// so merge results are independent of merge order.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// One staged (translated) defect: an index range into the staging arena
/// plus the metadata the emit step needs. The bounding box pre-filters the
/// carry-cell -> defect resolution scan.
struct StagedRec {
  std::size_t first = 0;
  std::size_t count = 0;
  DefectType type = DefectType::Primal;
  int source_id = -1;
  Box3 bb;
};

/// The whole stitch, parameterized over the occupancy engine. Returns
/// false when the engine declines the frame (grid too large) *before any
/// work happened*, so the caller can rerun with the hash engine.
template <typename Space>
bool stitch_impl(const std::vector<StitchWindow>& windows,
                 const StitchOptions& options, Space& space,
                 StitchResult& res) {
  const int gap = std::max(1, options.seam_gap);

  // Window layout along +x and global extents for the pin plane. Window
  // w's slot is the x span [slot_start[w], slot_start[w + 1]): its staged
  // cells and the gap after it.
  std::vector<int> off(windows.size(), 0);
  std::vector<int> slot_start(windows.size(), 0);
  int cursor = 0;
  int max_y = 0, min_z = 0, max_z = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Box3 bb = windows[w].geometry->bounding_box();
    slot_start[w] = cursor;
    off[w] = cursor - std::min(0, bb.lo.x);
    cursor = off[w] + (bb.empty() ? 1 : bb.hi.x + 1) + gap;
    if (!bb.empty()) {
      max_y = std::max(max_y, bb.hi.y);
      min_z = std::min(min_z, bb.lo.z);
      max_z = std::max(max_z, bb.hi.z);
    }
  }
  const int pin_y = max_y + 1;
  const int max_up = options.max_attempts - 1;

  // Frame: a box containing every cell the occupancy may ever hold or
  // test-and-carve — the staged windows (boxes included), every seam pin
  // and carry endpoint, and the widest per-line search region.
  Box3 frame;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    Box3 bb = windows[w].geometry->bounding_box();
    if (bb.empty()) continue;
    bb.lo += Vec3{off[w], 0, 0};
    bb.hi += Vec3{off[w], 0, 0};
    frame = frame.merged(bb);
  }
  for (std::size_t w = 0; w + 1 < windows.size(); ++w) {
    for (const auto& [line, cell] : windows[w].carry_out)
      frame = frame.expanded(cell + Vec3{off[w], 0, 0});
    const auto& ins = windows[w + 1].carry_in;
    for (std::size_t r = 0; r < ins.size(); ++r) {
      const Vec3 pin{off[w + 1] - gap + gap / 2, pin_y,
                     2 * static_cast<int>(r)};
      const Box3 mr{
          {off[w], -1 - max_up, std::min(min_z, pin.z) - 1 - max_up},
          {off[w + 1] + windows[w + 1].geometry->bounding_box().hi.x,
           pin_y + 1 + 2 * max_up, std::max(max_z, pin.z) + 1 + max_up}};
      frame = frame.merged(mr).expanded(pin).expanded(
          ins[r].second + Vec3{off[w + 1], 0, 0});
    }
  }
  if (!space.init_frame(frame)) return false;
  res.window_offsets = off;

  const auto t0 = std::chrono::steady_clock::now();

  // Stage all window geometry in the merged frame. The occupancy blocks
  // seam carving; `find_primal` below resolves a carry cell to its staged
  // defect (a primal module cell can legally coincide with dual net cells,
  // so the primal resolution ignores dual defects). Staged segments live
  // in one flat arena — laying out a thousand windows appends to two
  // vectors instead of allocating a Defect per structure.
  std::vector<Segment> sarena;
  std::vector<StagedRec> srecs;
  std::vector<DistillBox> boxes;
  std::vector<ImComponent> components;
  std::vector<std::size_t> defect_base(windows.size(), 0);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Vec3 delta{off[w], 0, 0};
    const GeomDescription& g = *windows[w].geometry;
    defect_base[w] = srecs.size();
    for (const DefectView d : g.defects()) {
      StagedRec rec;
      rec.first = sarena.size();
      rec.count = d.segments.size();
      rec.type = d.type;
      rec.source_id = d.source_id;
      for (const Segment& s : d.segments) {
        const Segment t{s.a + delta, s.b + delta};
        sarena.push_back(t);
        rec.bb = rec.bb.merged(t.box());
        for_each_cell(t, [&](Vec3 c) { space.occupy(c); });
      }
      srecs.push_back(rec);
    }
    for (const DistillBox& b : g.boxes()) {
      DistillBox t = b;
      t.origin += delta;
      const Box3 e = t.extent();
      for (int x = e.lo.x; x <= e.hi.x; ++x)
        for (int y = e.lo.y; y <= e.hi.y; ++y)
          for (int z = e.lo.z; z <= e.hi.z; ++z) space.occupy({x, y, z});
      boxes.push_back(t);
    }
    for (const ImComponent& c : g.components()) {
      ImComponent t = c;
      t.position += delta;
      if (t.defect_index >= 0)
        t.defect_index += static_cast<int>(defect_base[w]);
      components.push_back(t);
    }
  }
  if constexpr (Space::kGrid) {
    res.grid_build_s = seconds_since(t0);
  }

  // Resolve a carry cell to the first staged *primal* defect containing it
  // (first in staging order — windows are disjoint along x, so at most one
  // window's defects can match, and within a window the first-declared
  // defect wins, matching the first-wins cell map this scan replaced).
  const auto find_primal = [&](Vec3 c) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < srecs.size(); ++i) {
      const StagedRec& r = srecs[i];
      if (r.type != DefectType::Primal || !r.bb.contains(c)) continue;
      for (std::size_t j = 0; j < r.count; ++j)
        if (sarena[r.first + j].box().contains(c))
          return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };

  // Carve seams serially in (seam, line-rank) order. `comp_segs` keeps
  // every primal component's segments at its DSU root (seam paths
  // included), merged into the root on unite and bucketed by window slot,
  // so a carve's pass-through set reads only the slots its search region
  // spans. A component chains across every seam stitched so far; without
  // the buckets each carve would rescan the whole chain. A seam segment
  // that spans several slots is filed under each.
  const auto slot_of = [&](int x) {
    const auto it = std::upper_bound(slot_start.begin(), slot_start.end(), x);
    return it == slot_start.begin()
               ? 0
               : static_cast<int>(it - slot_start.begin()) - 1;
  };
  using SlotSegments = std::map<int, std::vector<Segment>>;
  Dsu dsu(srecs.size());
  std::vector<std::pair<std::size_t, std::vector<Segment>>> stitch_segs;
  std::vector<SlotSegments> comp_segs(srecs.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::size_t end =
        w + 1 < windows.size() ? defect_base[w + 1] : srecs.size();
    for (std::size_t d = defect_base[w]; d < end; ++d) {
      if (srecs[d].type != DefectType::Primal) continue;  // never an endpoint
      const auto first =
          sarena.begin() + static_cast<std::ptrdiff_t>(srecs[d].first);
      comp_segs[d][static_cast<int>(w)].assign(
          first, first + static_cast<std::ptrdiff_t>(srecs[d].count));
    }
  }
  std::vector<Vec3> pass_list;
  for (std::size_t w = 0; w + 1 < windows.size(); ++w) {
    std::unordered_map<int, Vec3> outs;
    for (const auto& [line, cell] : windows[w].carry_out)
      outs.emplace(line, cell + Vec3{off[w], 0, 0});

    std::vector<std::pair<int, Vec3>> ins = windows[w + 1].carry_in;
    std::sort(ins.begin(), ins.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    // Reserve every pin cell of this seam up front: the search goal cell
    // is exempt from the occupancy, so without the reservation an earlier
    // rank's path could run along the pin column and squat on a later
    // rank's pin — two distinct final defects sharing a cell.
    for (std::size_t r = 0; r < ins.size(); ++r)
      space.occupy(
          {off[w + 1] - gap + gap / 2, pin_y, 2 * static_cast<int>(r)});

    std::unordered_set<int> seen_in;
    int rank = 0;
    for (const auto& [line, cell_in] : ins) {
      seen_in.insert(line);
      const auto it = outs.find(line);
      std::ostringstream where;
      where << "seam " << w << "->" << w + 1 << " line " << line;
      if (it == outs.end()) {
        res.issues.push_back(where.str() + ": carried in with no carry-out");
        continue;
      }
      const Vec3 P = it->second;
      const Vec3 Q = cell_in + Vec3{off[w + 1], 0, 0};
      const Vec3 pin{off[w + 1] - gap + gap / 2, pin_y, 2 * rank};
      ++rank;
      const std::ptrdiff_t pi = find_primal(P);
      const std::ptrdiff_t qi = find_primal(Q);
      if (pi < 0 || qi < 0) {
        res.issues.push_back(where.str() +
                             ": carry cell not on a primal defect");
        continue;
      }

      // The seam path may ride the rails of its own endpoint defects'
      // merged components — every such cell (staged segments and already
      // carved seams alike) ends up in the same final defect, which
      // matters when a carry cell sits enclosed by its module's own loop.
      // The components chain across every seam stitched so far, but the
      // search never leaves the widest attempt's region, so only cells
      // inside it are kept, read from the slots its x range spans (the
      // rest of a chain can be arbitrarily long).
      Box3 max_region{
          {off[w], -1 - max_up, std::min(min_z, pin.z) - 1 - max_up},
          {off[w + 1] + windows[w + 1].geometry->bounding_box().hi.x,
           pin_y + 1 + 2 * max_up, std::max(max_z, pin.z) + 1 + max_up}};
      max_region = max_region.expanded(P).expanded(Q).expanded(pin);
      const std::size_t rp = dsu.find(static_cast<std::size_t>(pi));
      const std::size_t rq = dsu.find(static_cast<std::size_t>(qi));
      pass_list.clear();
      const int slot_lo = slot_of(max_region.lo.x);
      const int slot_hi = slot_of(max_region.hi.x);
      for (const std::size_t r : {rp, rq}) {
        const SlotSegments& slots = comp_segs[r];
        for (auto it = slots.lower_bound(slot_lo);
             it != slots.end() && it->first <= slot_hi; ++it)
          for (const Segment& seg : it->second) {
            if (!max_region.intersects(seg.box())) continue;
            for_each_cell(seg, [&](Vec3 c) {
              if (max_region.contains(c)) pass_list.push_back(c);
            });
          }
        if (rq == rp) break;
      }
      for (const Vec3 c : pass_list) space.pass_insert(c);

      bool carved = false;
      bool q_side_failed = false;
      for (int attempt = 0; attempt < options.max_attempts && !carved;
           ++attempt) {
        // The y floor dips below the windows (they are normalized to
        // y >= 0), so a carry module sealed in by its neighbors at the
        // floor plane can always escape under the structure.
        Box3 region{
            {off[w], -1 - attempt, std::min(min_z, pin.z) - 1 - attempt},
            {off[w + 1] + windows[w + 1].geometry->bounding_box().hi.x,
             pin_y + 1 + 2 * attempt, std::max(max_z, pin.z) + 1 + attempt}};
        region = region.expanded(P).expanded(Q).expanded(pin);

        const std::vector<Vec3> leg1 = seam_path(P, pin, region, space);
        if (leg1.empty()) {
          q_side_failed = false;
          continue;
        }
        std::vector<Vec3> added;
        for (const Vec3 c : leg1)
          if (space.occupy(c)) added.push_back(c);
        const std::vector<Vec3> leg2 = seam_path(pin, Q, region, space);
        if (leg2.empty()) {
          q_side_failed = true;
          for (const Vec3 c : added) space.release(c);
          continue;
        }
        for (const Vec3 c : leg2)
          if (space.occupy(c)) added.push_back(c);

        std::vector<Vec3> path = leg1;
        path.insert(path.end(), leg2.begin() + 1, leg2.end());
        std::vector<Segment> segs = path_to_segments(path);
        dsu.unite(static_cast<std::size_t>(pi), static_cast<std::size_t>(qi));
        const std::size_t root = dsu.find(static_cast<std::size_t>(pi));
        for (const std::size_t r : {rp, rq})
          if (r != root) {
            for (auto& [slot, from] : comp_segs[r]) {
              std::vector<Segment>& into = comp_segs[root][slot];
              into.insert(into.end(), from.begin(), from.end());
            }
            comp_segs[r].clear();
          }
        for (const Segment& seg : segs) {
          const Box3 b = seg.box();
          for (int k = slot_of(b.lo.x); k <= slot_of(b.hi.x); ++k)
            comp_segs[root][k].push_back(seg);
        }
        stitch_segs.emplace_back(static_cast<std::size_t>(pi),
                                 std::move(segs));
        res.seam_cells += static_cast<std::int64_t>(added.size());
        res.interface_pins.push_back(pin);
        ++res.stitches;
        carved = true;
      }
      for (const Vec3 c : pass_list) space.pass_remove(c);
      if (!carved) {
        res.issues.push_back(where.str() + ": seam path blocked after " +
                             std::to_string(options.max_attempts) +
                             " attempts");
        res.blocked.push_back(
            {static_cast<int>(w), line,
             static_cast<int>(q_side_failed ? w + 1 : w)});
      }
    }
    for (const auto& [line, cell] : outs) {
      (void)cell;
      if (!seen_in.count(line)) {
        std::ostringstream os;
        os << "seam " << w << "->" << w + 1 << " line " << line
           << ": carried out with no carry-in";
        res.issues.push_back(os.str());
      }
    }
  }
  if constexpr (Space::kGrid) res.grid_bytes = space.byte_size();

  // Emit merged defects in first-member order so the output is stable.
  std::vector<int> final_of(srecs.size(), -1);
  std::vector<Defect> finals;
  for (std::size_t i = 0; i < srecs.size(); ++i) {
    const std::size_t r = dsu.find(i);
    if (final_of[r] < 0) {
      Defect d;
      d.type = srecs[r].type;
      d.source_id = srecs[r].source_id;
      final_of[r] = static_cast<int>(finals.size());
      finals.push_back(std::move(d));
    }
    final_of[i] = final_of[r];
    auto& out = finals[static_cast<std::size_t>(final_of[i])];
    out.segments.insert(out.segments.end(), sarena.data() + srecs[i].first,
                        sarena.data() + srecs[i].first + srecs[i].count);
  }
  for (auto& [member, segs] : stitch_segs) {
    auto& out = finals[static_cast<std::size_t>(
        final_of[dsu.find(member)])];
    out.segments.insert(out.segments.end(), segs.begin(), segs.end());
  }

  for (const Defect& d : finals) res.geometry.add_defect(d);
  for (const DistillBox& b : boxes) res.geometry.add_box(b);
  for (ImComponent c : components) {
    if (c.defect_index >= 0)
      c.defect_index = final_of[static_cast<std::size_t>(c.defect_index)];
    res.geometry.add_component(c);
  }
  return true;
}

}  // namespace

StitchResult stitch_windows(const std::vector<StitchWindow>& windows,
                            const std::string& name,
                            const StitchOptions& options) {
  StitchResult res;
  res.geometry = GeomDescription(name);
  if (windows.empty()) return res;
  for (const StitchWindow& w : windows)
    TQEC_REQUIRE(w.geometry != nullptr, "stitch: window without geometry");
  GridSpace grid;
  if (stitch_impl(windows, options, grid, res)) return res;
  // Frame too large for the dense grid: fall back to the hash engine (the
  // grid declined before any work, leaving `res` untouched).
  HashSpace hash;
  stitch_impl(windows, options, hash, res);
  return res;
}

}  // namespace tqec::geom
