#include "geom/geometry.h"

#include <sstream>

#include "common/json.h"
#include "geom/cell_grid.h"

namespace tqec::geom {

int GeomDescription::add_defect(DefectType type, int source_id,
                                std::span<const Segment> segments) {
  for (const Segment& s : segments)
    TQEC_REQUIRE(s.axis_aligned(), "defect segment not axis-aligned");
  DefectRec rec;
  rec.first = static_cast<std::uint32_t>(arena_.size());
  rec.count = static_cast<std::uint32_t>(segments.size());
  rec.type = type;
  rec.source_id = source_id;
  arena_.insert(arena_.end(), segments.begin(), segments.end());
  recs_.push_back(rec);
  return static_cast<int>(recs_.size()) - 1;
}

int GeomDescription::begin_defect(DefectType type, int source_id) {
  DefectRec rec;
  rec.first = static_cast<std::uint32_t>(arena_.size());
  rec.count = 0;
  rec.type = type;
  rec.source_id = source_id;
  recs_.push_back(rec);
  return static_cast<int>(recs_.size()) - 1;
}

void GeomDescription::append_segment(const Segment& s) {
  TQEC_REQUIRE(!recs_.empty(), "append_segment: no open defect");
  TQEC_REQUIRE(s.axis_aligned(), "defect segment not axis-aligned");
  arena_.push_back(s);
  recs_.back().count += 1;
}

int GeomDescription::add_box(DistillBox box) {
  boxes_.push_back(box);
  return static_cast<int>(boxes_.size()) - 1;
}

void GeomDescription::add_component(ImComponent component) {
  TQEC_REQUIRE(component.defect_index >= -1 &&
                   component.defect_index < static_cast<int>(recs_.size()),
               "component defect index out of range");
  components_.push_back(component);
}

Box3 GeomDescription::bounding_box() const {
  Box3 box;
  for (const Segment& s : arena_) box = box.merged(s.box());
  for (const DistillBox& b : boxes_) box = box.merged(b.extent());
  return box;
}

std::int64_t GeomDescription::additive_volume() const {
  Box3 core;
  for (const Segment& s : arena_) core = core.merged(s.box());
  std::int64_t total = core.volume();
  for (const DistillBox& b : boxes_) total += box_volume(b.kind);
  return total;
}

void GeomDescription::translate(Vec3 delta) {
  for (Segment& s : arena_) {
    s.a += delta;
    s.b += delta;
  }
  for (DistillBox& b : boxes_) b.origin += delta;
  for (ImComponent& c : components_) c.position += delta;
}

void GeomDescription::absorb(GeomDescription other) {
  const int defect_shift = static_cast<int>(recs_.size());
  const std::uint32_t seg_shift = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), other.arena_.begin(), other.arena_.end());
  for (DefectRec r : other.recs_) {
    r.first += seg_shift;
    recs_.push_back(r);
  }
  for (const DistillBox& b : other.boxes_) boxes_.push_back(b);
  for (ImComponent c : other.components_) {
    if (c.defect_index >= 0) c.defect_index += defect_shift;
    components_.push_back(c);
  }
}

std::int64_t GeomDescription::defect_cell_count() const {
  std::int64_t n = 0;
  for (const Segment& s : arena_) n += s.length();
  return n;
}

std::int64_t GeomDescription::exact_cell_count() const {
  const OccupancyGrid occ = build_occupancy(*this);
  return occ.popcount(kPrimalPlane) + occ.popcount(kDualPlane);
}

namespace {
const char* component_kind_name(ComponentKind k) {
  switch (k) {
    case ComponentKind::InitZ: return "init_z";
    case ComponentKind::InitX: return "init_x";
    case ComponentKind::MeasZ: return "meas_z";
    case ComponentKind::MeasX: return "meas_x";
    case ComponentKind::InjectY: return "inject_y";
    case ComponentKind::InjectA: return "inject_a";
  }
  return "?";
}
}  // namespace

std::string describe(const GeomDescription& g) {
  std::ostringstream os;
  const Box3 bb = g.bounding_box();
  const Vec3 d = bb.dims();
  os << "geometric description";
  if (!g.name().empty()) os << " '" << g.name() << "'";
  os << ": " << g.defects().size() << " defects, " << g.boxes().size()
     << " boxes, volume " << d.x << "x" << d.y << "x" << d.z << " = "
     << g.volume() << "\n";
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView def = g.defect(i);
    os << "  defect " << i << " (" << defect_type_name(def.type) << ", src "
       << def.source_id << "): ";
    for (const Segment& s : def.segments) os << s.a << "->" << s.b << ' ';
    os << "\n";
  }
  for (const DistillBox& b : g.boxes()) {
    os << "  box " << (b.kind == BoxKind::YBox ? 'Y' : 'A') << " at "
       << b.origin << " line " << b.line << "\n";
  }
  return os.str();
}

std::string to_json(const GeomDescription& g) {
  std::ostringstream os;
  auto vec = [&](Vec3 v) {
    std::ostringstream o;
    o << '[' << v.x << ',' << v.y << ',' << v.z << ']';
    return o.str();
  };
  os << "{\"name\":\"" << json::escape(g.name()) << "\",\"defects\":[";
  for (std::size_t i = 0; i < g.defects().size(); ++i) {
    const DefectView d = g.defect(i);
    if (i) os << ',';
    os << "{\"type\":\"" << defect_type_name(d.type) << "\",\"source\":"
       << d.source_id << ",\"segments\":[";
    for (std::size_t j = 0; j < d.segments.size(); ++j) {
      if (j) os << ',';
      os << "{\"a\":" << vec(d.segments[j].a) << ",\"b\":"
         << vec(d.segments[j].b) << '}';
    }
    os << "]}";
  }
  os << "],\"boxes\":[";
  for (std::size_t i = 0; i < g.boxes().size(); ++i) {
    const DistillBox& b = g.boxes()[i];
    if (i) os << ',';
    os << "{\"kind\":\"" << (b.kind == BoxKind::YBox ? "Y" : "A")
       << "\",\"origin\":" << vec(b.origin) << ",\"line\":" << b.line << '}';
  }
  os << "],\"components\":[";
  for (std::size_t i = 0; i < g.components().size(); ++i) {
    const ImComponent& c = g.components()[i];
    if (i) os << ',';
    os << "{\"kind\":\"" << component_kind_name(c.kind) << "\",\"position\":"
       << vec(c.position) << ",\"defect\":" << c.defect_index << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace tqec::geom
