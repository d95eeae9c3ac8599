#include "geom/cell_grid.h"

#include <algorithm>
#include <bit>

#include "common/clock.h"

namespace tqec::geom {

// ---------------------------------------------------------------------------
// CellGrid

void CellGrid::reset(const Box3& bounds, int planes) {
  TQEC_REQUIRE(planes > 0, "CellGrid: need at least one plane");
  bounds_ = bounds;
  planes_ = planes;
  if (bounds.empty()) {
    dy_ = dz_ = words_per_row_ = 0;
    words_.clear();
    return;
  }
  const Vec3 d = bounds.dims();
  dy_ = static_cast<std::size_t>(d.y);
  dz_ = static_cast<std::size_t>(d.z);
  words_per_row_ = (static_cast<std::size_t>(d.x) + 63) / 64;
  words_.assign(static_cast<std::size_t>(planes) * dy_ * dz_ * words_per_row_,
                0);
}

std::int64_t CellGrid::projected_bytes(const Box3& bounds, int planes) {
  if (bounds.empty()) return 0;
  const Vec3 d = bounds.dims();
  const std::int64_t words_per_row = (static_cast<std::int64_t>(d.x) + 63) / 64;
  return static_cast<std::int64_t>(planes) * d.y * d.z * words_per_row * 8;
}

std::int64_t CellGrid::set_segment(int plane, const Segment& s,
                                   std::vector<Vec3>* collisions) {
  TQEC_REQUIRE(s.axis_aligned(), "CellGrid: segment not axis-aligned");
  TQEC_REQUIRE(bounds_.contains(s.a) && bounds_.contains(s.b),
               "CellGrid::set_segment out of bounds");
  std::int64_t fresh = 0;
  if (s.a.y == s.b.y && s.a.z == s.b.z) {
    // x-run: whole word masks per 64-cell chunk.
    const int xlo = std::min(s.a.x, s.b.x);
    const int xhi = std::max(s.a.x, s.b.x);
    const std::size_t base = row_base(plane, s.a.y, s.a.z);
    const std::size_t lo = static_cast<std::size_t>(xlo - bounds_.lo.x);
    const std::size_t hi = static_cast<std::size_t>(xhi - bounds_.lo.x);
    for (std::size_t w = lo >> 6; w <= hi >> 6; ++w) {
      const std::size_t wlo = std::max(lo, w << 6);
      const std::size_t whi = std::min(hi, (w << 6) + 63);
      std::uint64_t mask = ~std::uint64_t{0};
      mask >>= 63 - (whi - (w << 6));
      mask &= ~std::uint64_t{0} << (wlo - (w << 6));
      std::uint64_t& word = words_[base + w];
      std::uint64_t hit = word & mask;
      fresh += std::popcount(mask) - std::popcount(hit);
      if (collisions != nullptr) {
        while (hit != 0) {
          const int bit = std::countr_zero(hit);
          hit &= hit - 1;
          collisions->push_back({bounds_.lo.x +
                                     static_cast<int>((w << 6)) + bit,
                                 s.a.y, s.a.z});
        }
      }
      word |= mask;
    }
  } else {
    // y- or z-run: one bit per row.
    s.for_each_cell([&](Vec3 p) {
      if (set(plane, p)) {
        ++fresh;
      } else if (collisions != nullptr) {
        collisions->push_back(p);
      }
    });
  }
  return fresh;
}

void CellGrid::clear_segment(int plane, const Segment& s) {
  TQEC_REQUIRE(s.axis_aligned(), "CellGrid: segment not axis-aligned");
  if (s.a.y == s.b.y && s.a.z == s.b.z) {
    const int xlo = std::min(s.a.x, s.b.x);
    const int xhi = std::max(s.a.x, s.b.x);
    const std::size_t base = row_base(plane, s.a.y, s.a.z);
    const std::size_t lo = static_cast<std::size_t>(xlo - bounds_.lo.x);
    const std::size_t hi = static_cast<std::size_t>(xhi - bounds_.lo.x);
    for (std::size_t w = lo >> 6; w <= hi >> 6; ++w) {
      const std::size_t wlo = std::max(lo, w << 6);
      const std::size_t whi = std::min(hi, (w << 6) + 63);
      std::uint64_t mask = ~std::uint64_t{0};
      mask >>= 63 - (whi - (w << 6));
      mask &= ~std::uint64_t{0} << (wlo - (w << 6));
      words_[base + w] &= ~mask;
    }
  } else {
    s.for_each_cell([&](Vec3 p) { clear(plane, p); });
  }
}

std::int64_t CellGrid::popcount(int plane) const {
  const std::size_t per_plane = dy_ * dz_ * words_per_row_;
  const std::size_t base = static_cast<std::size_t>(plane) * per_plane;
  std::int64_t n = 0;
  for (std::size_t w = 0; w < per_plane; ++w)
    n += std::popcount(words_[base + w]);
  return n;
}

void CellGrid::clear_all() {
  std::fill(words_.begin(), words_.end(), 0);
}

// ---------------------------------------------------------------------------
// IntervalOccupancy

namespace {

std::uint64_t row_key(int plane, int y, int z) {
  // (plane, y, z) packed so ordering is lexicographic: plane in the top
  // two bits, then 31-bit biased y and z (reset() rejects bounds beyond
  // +/-2^30, so the bias never saturates and the fields never collide).
  const auto yb = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(y) + (std::int64_t{1} << 30));
  const auto zb = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(z) + (std::int64_t{1} << 30));
  return (static_cast<std::uint64_t>(plane) << 62) | (yb << 31) | zb;
}

}  // namespace

void IntervalOccupancy::reset(const Box3& bounds, int planes) {
  TQEC_REQUIRE(planes > 0, "IntervalOccupancy: need at least one plane");
  constexpr int kCoordCap = 1 << 30;  // row_key packs y/z into 31 bits
  TQEC_REQUIRE(bounds.empty() ||
                   (bounds.lo.y > -kCoordCap && bounds.hi.y < kCoordCap &&
                    bounds.lo.z > -kCoordCap && bounds.hi.z < kCoordCap),
               "IntervalOccupancy: bounds exceed the row-key coordinate range");
  bounds_ = bounds;
  planes_ = planes;
  keys_.clear();
  rows_.clear();
}

IntervalOccupancy::Row& IntervalOccupancy::row(int plane, int y, int z) {
  const std::uint64_t key = row_key(plane, y, z);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  const std::size_t at = static_cast<std::size_t>(it - keys_.begin());
  if (it == keys_.end() || *it != key) {
    keys_.insert(it, key);
    rows_.insert(rows_.begin() + static_cast<std::ptrdiff_t>(at), Row{});
  }
  return rows_[at];
}

const IntervalOccupancy::Row* IntervalOccupancy::find_row(int plane, int y,
                                                          int z) const {
  const std::uint64_t key = row_key(plane, y, z);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &rows_[static_cast<std::size_t>(it - keys_.begin())];
}

bool IntervalOccupancy::test(int plane, Vec3 p) const {
  if (!bounds_.contains(p)) return false;
  const Row* r = find_row(plane, p.y, p.z);
  if (r == nullptr) return false;
  // First interval with hi >= x.
  const auto it = std::lower_bound(
      r->begin(), r->end(), p.x,
      [](const std::pair<int, int>& iv, int x) { return iv.second < x; });
  return it != r->end() && it->first <= p.x;
}

std::int64_t IntervalOccupancy::insert_run(Row& r, int y, int z, int lo,
                                           int hi,
                                           std::vector<Vec3>* collisions) {
  // Find the overlap window [first, last) of intervals touching [lo, hi].
  auto first = std::lower_bound(
      r.begin(), r.end(), lo,
      [](const std::pair<int, int>& iv, int x) { return iv.second < x - 1; });
  auto last = first;
  std::int64_t already = 0;
  int merged_lo = lo, merged_hi = hi;
  while (last != r.end() && last->first <= hi + 1) {
    const int olo = std::max(lo, last->first);
    const int ohi = std::min(hi, last->second);
    if (olo <= ohi) {
      already += ohi - olo + 1;
      if (collisions != nullptr)
        for (int x = olo; x <= ohi; ++x) collisions->push_back({x, y, z});
    }
    merged_lo = std::min(merged_lo, last->first);
    merged_hi = std::max(merged_hi, last->second);
    ++last;
  }
  first = r.erase(first, last);
  r.insert(first, {merged_lo, merged_hi});
  return (hi - lo + 1) - already;
}

bool IntervalOccupancy::set(int plane, Vec3 p) {
  TQEC_REQUIRE(bounds_.contains(p), "IntervalOccupancy::set out of bounds");
  return insert_run(row(plane, p.y, p.z), p.y, p.z, p.x, p.x, nullptr) > 0;
}

std::int64_t IntervalOccupancy::set_segment(int plane, const Segment& s,
                                            std::vector<Vec3>* collisions) {
  TQEC_REQUIRE(s.axis_aligned(), "IntervalOccupancy: segment not aligned");
  TQEC_REQUIRE(bounds_.contains(s.a) && bounds_.contains(s.b),
               "IntervalOccupancy::set_segment out of bounds");
  if (s.a.y == s.b.y && s.a.z == s.b.z) {
    return insert_run(row(plane, s.a.y, s.a.z), s.a.y, s.a.z,
                      std::min(s.a.x, s.b.x), std::max(s.a.x, s.b.x),
                      collisions);
  }
  std::int64_t fresh = 0;
  s.for_each_cell([&](Vec3 p) {
    if (insert_run(row(plane, p.y, p.z), p.y, p.z, p.x, p.x, nullptr) > 0) {
      ++fresh;
    } else if (collisions != nullptr) {
      collisions->push_back(p);
    }
  });
  return fresh;
}

std::int64_t IntervalOccupancy::popcount(int plane) const {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (static_cast<int>(keys_[i] >> 62) != plane) continue;
    for (const auto& [lo, hi] : rows_[i]) n += hi - lo + 1;
  }
  return n;
}

std::int64_t IntervalOccupancy::byte_size() const {
  std::int64_t bytes = static_cast<std::int64_t>(
      keys_.size() * sizeof(std::uint64_t) + rows_.size() * sizeof(Row));
  for (const Row& r : rows_)
    bytes += static_cast<std::int64_t>(r.capacity() * sizeof(r[0]));
  return bytes;
}

// ---------------------------------------------------------------------------
// OccupancyGrid

OccupancyGrid::OccupancyGrid(const Box3& bounds, int planes,
                             std::int64_t dense_byte_cap) {
  dense_ = CellGrid::projected_bytes(bounds, planes) <= dense_byte_cap;
  if (dense_) {
    grid_.reset(bounds, planes);
  } else {
    sparse_.reset(bounds, planes);
  }
}

OccupancyGrid build_occupancy(const GeomDescription& g, GridBuildStats* stats,
                              std::int64_t dense_byte_cap) {
  const auto t0 = std::chrono::steady_clock::now();
  Box3 bb;
  for (const DefectView d : g.defects()) bb = bb.merged(d.bounding_box());
  OccupancyGrid occ(bb, 2, dense_byte_cap);
  for (const DefectView d : g.defects()) {
    const int plane = plane_of(d.type);
    for (const Segment& s : d.segments) occ.set_segment(plane, s);
  }
  if (stats != nullptr) {
    stats->build_s = seconds_since(t0);
    stats->bytes = occ.byte_size();
    stats->dense = occ.dense();
  }
  return occ;
}

}  // namespace tqec::geom
