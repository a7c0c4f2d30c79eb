#include "network/grid_index.h"

#include <algorithm>
#include <unordered_set>

#include "network/geometry.h"

namespace utcq::network {

GridIndex::GridIndex(const RoadNetwork& network, uint32_t cells_per_side)
    : network_(network),
      cells_per_side_(std::max<uint32_t>(cells_per_side, 1)),
      bbox_(network.bounding_box()) {
  // Guard against degenerate (empty or flat) bounding boxes.
  if (bbox_.width() <= 0) bbox_.max_x = bbox_.min_x + 1.0;
  if (bbox_.height() <= 0) bbox_.max_y = bbox_.min_y + 1.0;
  cell_w_ = bbox_.width() / cells_per_side_;
  cell_h_ = bbox_.height() / cells_per_side_;

  region_edges_.resize(num_regions());
  edge_regions_.resize(network.num_edges());
  // An edge is listed in every cell of its bounding box whose rectangle
  // the segment meets, and in its endpoints' cells (which a rounded
  // RegionRect at the grid's far border might not contain).
  for (EdgeId e = 0; e < network.num_edges(); ++e) {
    const Edge& ed = network.edge(e);
    const Vertex& a = network.vertex(ed.from);
    const Vertex& b = network.vertex(ed.to);
    const RegionId ends[] = {RegionOf(a.x, a.y), RegionOf(b.x, b.y)};
    const Rect box{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
                   std::max(a.y, b.y)};
    for (const RegionId re : RegionsInRect(box)) {
      if (re == ends[0] || re == ends[1] ||
          SegmentIntersectsRect(a.x, a.y, b.x, b.y, RegionRect(re))) {
        edge_regions_[e].push_back(re);
        region_edges_[re].push_back(e);
      }
    }
  }
}

RegionId GridIndex::RegionOf(double x, double y) const {
  const auto clamp_cell = [&](double v, double lo, double extent) {
    const int64_t c = static_cast<int64_t>((v - lo) / extent);
    return static_cast<uint32_t>(
        std::clamp<int64_t>(c, 0, cells_per_side_ - 1));
  };
  const uint32_t cx = clamp_cell(x, bbox_.min_x, cell_w_);
  const uint32_t cy = clamp_cell(y, bbox_.min_y, cell_h_);
  return cy * cells_per_side_ + cx;
}

double GridIndex::DistanceToEdge(double x, double y, EdgeId e,
                                 double* offset_on_edge) const {
  const Edge& ed = network_.edge(e);
  const Vertex& a = network_.vertex(ed.from);
  const Vertex& b = network_.vertex(ed.to);
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0) {
    t = std::clamp(((x - a.x) * dx + (y - a.y) * dy) / len2, 0.0, 1.0);
  }
  const double px = a.x + t * dx;
  const double py = a.y + t * dy;
  if (offset_on_edge != nullptr) *offset_on_edge = t * ed.length;
  return Distance(x, y, px, py);
}

std::vector<EdgeId> GridIndex::EdgesNear(double x, double y,
                                         double radius) const {
  std::vector<EdgeId> result;
  std::unordered_set<EdgeId> seen;
  const Rect probe{x - radius, y - radius, x + radius, y + radius};
  for (const RegionId re : RegionsInRect(probe)) {
    for (const EdgeId e : region_edges_[re]) {
      if (!seen.insert(e).second) continue;
      if (DistanceToEdge(x, y, e) <= radius) result.push_back(e);
    }
  }
  return result;
}

Rect GridIndex::RegionRect(RegionId re) const {
  const uint32_t cx = re % cells_per_side_;
  const uint32_t cy = re / cells_per_side_;
  return {bbox_.min_x + cx * cell_w_, bbox_.min_y + cy * cell_h_,
          bbox_.min_x + (cx + 1) * cell_w_, bbox_.min_y + (cy + 1) * cell_h_};
}

std::vector<RegionId> GridIndex::RegionsInRect(const Rect& rect) const {
  const auto cell_range = [&](double lo_v, double hi_v, double origin,
                              double extent) {
    int64_t lo = static_cast<int64_t>((lo_v - origin) / extent);
    int64_t hi = static_cast<int64_t>((hi_v - origin) / extent);
    lo = std::clamp<int64_t>(lo, 0, cells_per_side_ - 1);
    hi = std::clamp<int64_t>(hi, 0, cells_per_side_ - 1);
    return std::pair<uint32_t, uint32_t>(static_cast<uint32_t>(lo),
                                         static_cast<uint32_t>(hi));
  };
  const auto [x0, x1] = cell_range(rect.min_x, rect.max_x, bbox_.min_x, cell_w_);
  const auto [y0, y1] = cell_range(rect.min_y, rect.max_y, bbox_.min_y, cell_h_);
  std::vector<RegionId> out;
  out.reserve((x1 - x0 + 1) * (y1 - y0 + 1));
  for (uint32_t cy = y0; cy <= y1; ++cy) {
    for (uint32_t cx = x0; cx <= x1; ++cx) {
      out.push_back(cy * cells_per_side_ + cx);
    }
  }
  return out;
}

size_t GridIndex::SizeBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& v : region_edges_) bytes += v.size() * sizeof(EdgeId);
  for (const auto& v : edge_regions_) bytes += v.size() * sizeof(RegionId);
  return bytes;
}

}  // namespace utcq::network
