// 3D geometric descriptions of TQEC circuits (paper Sec. 2.1).
//
// A geometric description is the 3D visual representation of a braided TQEC
// computation: primal and dual defects (chains of axis-aligned cuboid
// segments) moving through the code surface along the time axis, plus the
// qubit initialization/measurement components and the |Y> / |A> state
// distillation boxes.
//
// Coordinate convention ("plumbing-piece" units, calibrated to the paper's
// published volumes — see DESIGN.md): one lattice cell is one unit; the
// required one-unit separation between disjoint defects is part of the cell
// pitch, so disjoint same-type defects must simply occupy distinct cells.
// Primal and dual structures live on half-offset sublattices, so a primal
// and a dual element may legally share a cell. The space-time volume of a
// description is #x * #y * #z of its bounding box, and distillation boxes
// either fall inside the bounding box (after placement) or are accounted
// additively (canonical forms, matching the paper's Table 2 note).
//
// Storage layout: a description owns one pooled segment arena (SoA-style:
// all segments contiguous, in defect order) and per-defect records holding
// {first, count, type, source_id} index ranges into it. Defects are read
// through lightweight `DefectView`s (a span over the arena), so iterating
// every segment of every defect is one linear scan of one allocation, and
// copying/translating/absorbing descriptions moves flat arrays instead of
// a vector-of-vectors. `Defect` remains as the builder type callers fill
// and hand to `add_defect`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/vec3.h"

namespace tqec::geom {

enum class DefectType : std::uint8_t { Primal, Dual };

inline const char* defect_type_name(DefectType t) {
  return t == DefectType::Primal ? "primal" : "dual";
}

/// One axis-aligned run of defect cells from a to b inclusive.
/// a == b encodes a single-cell segment.
struct Segment {
  Vec3 a;
  Vec3 b;

  /// True when the endpoints differ in at most one coordinate.
  bool axis_aligned() const {
    const Vec3 d = b - a;
    return (d.x == 0 && d.y == 0) || (d.x == 0 && d.z == 0) ||
           (d.y == 0 && d.z == 0);
  }

  Box3 box() const { return Box3::spanning(a, b); }
  int length() const { return manhattan(a, b) + 1; }  // cell count

  /// Visit every cell from a to b inclusive. Requires an axis-aligned
  /// segment.
  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    TQEC_REQUIRE(axis_aligned(), "segment not axis-aligned");
    const Vec3 d = b - a;
    const Vec3 step{(d.x > 0) - (d.x < 0), (d.y > 0) - (d.y < 0),
                    (d.z > 0) - (d.z < 0)};
    for (Vec3 p = a;; p += step) {
      fn(p);
      if (p == b) break;
    }
  }

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Builder for one connected primal or dual structure; `add_defect` moves
/// its segments into the description's arena.
struct Defect {
  DefectType type = DefectType::Primal;
  std::vector<Segment> segments;
  /// Back-reference into the PD graph (module id for primal structures,
  /// net id for dual structures); -1 when not applicable.
  int source_id = -1;

  Box3 bounding_box() const {
    Box3 box;
    for (const Segment& s : segments) box = box.merged(s.box());
    return box;
  }

  /// Total segment length in cells. Double-counts cells where segments
  /// overlap — canonical rails/rings and stitched seams intentionally
  /// share corner cells between adjacent segments — so this is an upper
  /// bound; see GeomDescription::exact_cell_count() for the exact count.
  std::int64_t cell_count() const {
    std::int64_t n = 0;
    for (const Segment& s : segments) n += s.length();
    return n;
  }
};

/// Read-only view of one defect stored in a description's segment arena.
/// Cheap to copy (a span plus two scalars); never outlives mutation of
/// the owning GeomDescription.
struct DefectView {
  DefectType type = DefectType::Primal;
  int source_id = -1;
  std::span<const Segment> segments;

  Box3 bounding_box() const {
    Box3 box;
    for (const Segment& s : segments) box = box.merged(s.box());
    return box;
  }

  /// Sum of segment lengths (upper bound; see Defect::cell_count).
  std::int64_t cell_count() const {
    std::int64_t n = 0;
    for (const Segment& s : segments) n += s.length();
    return n;
  }
};

/// Kinds of distillation boxes (paper Sec. 2.1; sizes from Fowler-Devitt).
enum class BoxKind : std::uint8_t { YBox, ABox };

/// |Y> distillation box: 3 x 3 x 2 = 18 units.
constexpr Vec3 kYBoxDims{3, 3, 2};
/// |A> distillation box: 16 x 6 x 2 = 192 units.
constexpr Vec3 kABoxDims{16, 6, 2};

constexpr Vec3 box_dims(BoxKind kind) {
  return kind == BoxKind::YBox ? kYBoxDims : kABoxDims;
}
constexpr std::int64_t box_volume(BoxKind kind) {
  const Vec3 d = box_dims(kind);
  return std::int64_t{d.x} * d.y * d.z;
}

struct DistillBox {
  BoxKind kind = BoxKind::YBox;
  Vec3 origin;  // minimum corner
  /// ICM line fed by this box (-1 if unbound).
  int line = -1;

  Box3 extent() const { return Box3{origin, origin + box_dims(kind) - Vec3{1, 1, 1}}; }
};

/// Qubit I/M and injection components attached to defect ends (Fig. 2).
enum class ComponentKind : std::uint8_t {
  InitZ,     // Z-basis initialization of a primal defect pair
  InitX,     // X-basis initialization
  MeasZ,     // Z-basis measurement
  MeasX,     // X-basis measurement
  InjectY,   // |Y> state injection point
  InjectA,   // |A> state injection point
};

struct ImComponent {
  ComponentKind kind = ComponentKind::InitZ;
  Vec3 position;
  int defect_index = -1;  // defect this component terminates
};

class GeomDescription {
 public:
  /// Random-access range of DefectViews over the arena (see defects()).
  class DefectList {
   public:
    class iterator {
     public:
      using value_type = DefectView;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const GeomDescription* g, std::size_t i) : g_(g), i_(i) {}
      DefectView operator*() const { return g_->defect(i_); }
      iterator& operator++() { ++i_; return *this; }
      iterator operator++(int) { iterator t = *this; ++i_; return t; }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      const GeomDescription* g_ = nullptr;
      std::size_t i_ = 0;
    };

    explicit DefectList(const GeomDescription* g) : g_(g) {}
    std::size_t size() const { return g_->defect_count(); }
    bool empty() const { return size() == 0; }
    DefectView operator[](std::size_t i) const { return g_->defect(i); }
    iterator begin() const { return {g_, 0}; }
    iterator end() const { return {g_, size()}; }

   private:
    const GeomDescription* g_;
  };

  GeomDescription() = default;
  explicit GeomDescription(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  DefectList defects() const { return DefectList(this); }
  std::size_t defect_count() const { return recs_.size(); }
  DefectView defect(std::size_t i) const {
    const DefectRec& r = recs_[i];
    return {r.type, r.source_id,
            std::span<const Segment>(arena_.data() + r.first, r.count)};
  }

  const std::vector<DistillBox>& boxes() const { return boxes_; }
  const std::vector<ImComponent>& components() const { return components_; }

  /// Append a defect (builder form); returns its index.
  int add_defect(const Defect& defect) {
    return add_defect(defect.type, defect.source_id, defect.segments);
  }
  /// Append a defect directly from a segment range; returns its index.
  int add_defect(DefectType type, int source_id,
                 std::span<const Segment> segments);

  /// Streaming construction (checkpoint reads): open a defect, then append
  /// its segments one at a time. The defect closes when the next one opens
  /// or any other mutation happens; no explicit end call is needed.
  int begin_defect(DefectType type, int source_id);
  void append_segment(const Segment& s);

  int add_box(DistillBox box);
  void add_component(ImComponent component);

  /// Bounding box over all defect cells and all box extents.
  Box3 bounding_box() const;

  /// Space-time volume of the bounding box (#x * #y * #z).
  std::int64_t volume() const { return bounding_box().volume(); }

  /// Canonical-form volume accounting (paper Table 2 note): core bounding
  /// box volume plus the sum of distillation-box volumes, for descriptions
  /// whose boxes are not placed inside the core region.
  std::int64_t additive_volume() const;

  /// Translate all geometry by `delta`.
  void translate(Vec3 delta);

  /// Merge another description into this one (defect/box indices shift).
  void absorb(GeomDescription other);

  /// Sum of per-defect cell_count()s: fast, but an *upper bound* (segments
  /// may overlap at shared corners; canonical builders and the stitcher do
  /// this on purpose).
  std::int64_t defect_cell_count() const;

  /// Exact number of occupied (cell, sublattice) sites, from the occupancy
  /// grid's population count. A cell hosting both a primal and a dual
  /// structure counts once per sublattice.
  std::int64_t exact_cell_count() const;

  /// Total segments across all defects (the arena length).
  std::size_t segment_count() const { return arena_.size(); }
  /// Heap bytes held by the segment arena and defect records.
  std::int64_t arena_bytes() const {
    return static_cast<std::int64_t>(arena_.capacity() * sizeof(Segment) +
                                     recs_.capacity() * sizeof(DefectRec));
  }

 private:
  struct DefectRec {
    std::uint32_t first = 0;  // index of the defect's first arena segment
    std::uint32_t count = 0;
    DefectType type = DefectType::Primal;
    int source_id = -1;
  };

  std::string name_;
  std::vector<Segment> arena_;   // all segments, in defect order
  std::vector<DefectRec> recs_;  // index ranges into arena_
  std::vector<DistillBox> boxes_;
  std::vector<ImComponent> components_;
};

/// Human-readable multi-line dump (examples, debugging).
std::string describe(const GeomDescription& g);

/// JSON export for external visualization tooling.
std::string to_json(const GeomDescription& g);

}  // namespace tqec::geom
