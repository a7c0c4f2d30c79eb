#ifndef UTCQ_NETWORK_GRID_INDEX_H_
#define UTCQ_NETWORK_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "network/road_network.h"

namespace utcq::network {

using RegionId = uint32_t;
inline constexpr RegionId kInvalidRegion = std::numeric_limits<RegionId>::max();

/// Uniform grid partition of the road network's bounding box into
/// `cells_per_side`^2 regions (the `re_i` of Section 5.2) plus an
/// edge-to-region mapping.
///
/// Region membership of an edge is decided by sampling points along the
/// (straight) edge, which is exact for the synthetic networks where edges are
/// segments. Both the StIU spatial index, the TED baseline index and the
/// probabilistic map-matcher's candidate search run on this structure.
class GridIndex {
 public:
  GridIndex(const RoadNetwork& network, uint32_t cells_per_side);

  const RoadNetwork& network() const { return network_; }
  uint32_t cells_per_side() const { return cells_per_side_; }
  uint32_t num_regions() const { return cells_per_side_ * cells_per_side_; }

  /// Region containing point (x, y); points outside the bounding box clamp
  /// to the border cells.
  RegionId RegionOf(double x, double y) const;

  /// Regions an edge passes through, in travel order (deduplicated).
  const std::vector<RegionId>& RegionsOfEdge(EdgeId e) const {
    return edge_regions_[e];
  }

  /// Edges overlapping a region.
  const std::vector<EdgeId>& EdgesInRegion(RegionId re) const {
    return region_edges_[re];
  }

  /// Edges with any sampled point within `radius` of (x, y) — candidate
  /// search for map matching. Distances are point-to-segment.
  std::vector<EdgeId> EdgesNear(double x, double y, double radius) const;

  /// Geometric rectangle of a region.
  Rect RegionRect(RegionId re) const;

  /// All regions intersecting `rect` (range queries use this).
  std::vector<RegionId> RegionsInRect(const Rect& rect) const;

  /// Exact point-to-segment distance from (x, y) to edge `e`.
  double DistanceToEdge(double x, double y, EdgeId e,
                        double* offset_on_edge = nullptr) const;

  /// Approximate in-memory footprint, for the index-size metric (Fig. 9).
  size_t SizeBytes() const;

 private:
  const RoadNetwork& network_;
  uint32_t cells_per_side_;
  Rect bbox_;
  double cell_w_;
  double cell_h_;
  std::vector<std::vector<EdgeId>> region_edges_;
  std::vector<std::vector<RegionId>> edge_regions_;
};

}  // namespace utcq::network

#endif  // UTCQ_NETWORK_GRID_INDEX_H_
