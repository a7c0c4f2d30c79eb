#ifndef UTCQ_TRAJ_TYPES_H_
#define UTCQ_TRAJ_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "network/road_network.h"

namespace utcq::traj {

/// Seconds since local midnight; the paper's temporal index partitions one
/// day, so a day-relative clock keeps everything simple.
using Timestamp = int64_t;

inline constexpr Timestamp kSecondsPerDay = 86400;

/// Index of the `partition_s`-second day partition holding `t`, clamped
/// into [0, num_partitions - 1] (`num_partitions` >= 1). Timestamps before
/// midnight or past the day (ingest does not bound time) fold into the edge
/// partitions, so partition membership stays a superset filter; callers
/// re-check the exact [t_first, t_last] span.
inline size_t DayPartition(Timestamp t, int64_t partition_s,
                           size_t num_partitions) {
  if (t < 0) return 0;
  const auto p = static_cast<size_t>(t / partition_s);
  return p < num_partitions ? p : num_partitions - 1;
}

/// A raw GPS fix (x, y, t) in the network's planar coordinate system.
struct RawPoint {
  double x = 0.0;
  double y = 0.0;
  Timestamp t = 0;
};

using RawTrajectory = std::vector<RawPoint>;

/// A mapped location (Definition 2), expressed against the owning instance's
/// path: `path_index` selects the edge, `rd` is the relative distance
/// (Definition 7) of the location on that edge. Using a path index (rather
/// than an EdgeId) keeps the location unambiguous even if a path revisits an
/// edge. The timestamp lives in the uncertain trajectory's shared time
/// sequence.
struct MappedLocation {
  uint32_t path_index = 0;
  double rd = 0.0;

  bool operator==(const MappedLocation&) const = default;
};

/// One instance of a network-constrained uncertain trajectory
/// (Definition 5): a connected edge path, the time-ordered mapped locations
/// on it, and the instance probability.
///
/// Invariants (checked by Validate):
///  * path edges are connected (edge[i].to == edge[i+1].from);
///  * locations are ordered by (path_index, rd) non-decreasingly;
///  * the first and last path edges each carry at least one location;
///  * every instance of one uncertain trajectory has the same location count.
struct TrajectoryInstance {
  std::vector<network::EdgeId> path;
  std::vector<MappedLocation> locations;
  double probability = 0.0;

  network::EdgeId EdgeOfLocation(size_t i) const {
    return path[locations[i].path_index];
  }

  bool operator==(const TrajectoryInstance&) const = default;
};

/// A network-constrained uncertain trajectory: instances sharing one time
/// sequence. `times.size()` equals every instance's location count.
struct UncertainTrajectory {
  uint64_t id = 0;
  std::vector<Timestamp> times;
  std::vector<TrajectoryInstance> instances;

  size_t num_points() const { return times.size(); }
};

using UncertainCorpus = std::vector<UncertainTrajectory>;

/// Validates the structural invariants above. Returns an empty string when
/// valid, else a description of the first violation (used by tests and the
/// generators' self-checks).
std::string Validate(const network::RoadNetwork& net,
                     const UncertainTrajectory& tu);

/// Builds the TED/UTCQ edge sequence E(.) of an instance: for each path edge
/// in travel order its outgoing edge number, followed by (r - 1) zeros when
/// the edge carries r > 1 mapped locations (Section 2.2).
std::vector<uint32_t> BuildEdgeSequence(const network::RoadNetwork& net,
                                        const TrajectoryInstance& inst);

/// Builds the full (untrimmed) time-flag bit-string T'(.): one bit per edge
/// sequence entry, 1 iff that entry carries a mapped location. The number of
/// 1s equals the location count, and the first and last bits are always 1.
std::vector<uint8_t> BuildTimeFlagBits(const TrajectoryInstance& inst);

/// The start vertex SV(.) of an instance.
network::VertexId StartVertex(const network::RoadNetwork& net,
                              const TrajectoryInstance& inst);

/// Per-component raw storage footprint of a corpus, the baseline for all
/// compression-ratio metrics. Conventions (documented in DESIGN.md §2):
/// 32 bits per timestamp / edge-sequence entry / relative distance /
/// probability / start vertex; 1 bit per (uncompressed) time-flag bit.
struct ComponentSizes {
  uint64_t t_bits = 0;
  uint64_t sv_bits = 0;
  uint64_t e_bits = 0;
  uint64_t d_bits = 0;
  uint64_t tflag_bits = 0;
  uint64_t p_bits = 0;

  uint64_t total() const {
    return t_bits + sv_bits + e_bits + d_bits + tflag_bits + p_bits;
  }
  ComponentSizes& operator+=(const ComponentSizes& o);
};

ComponentSizes MeasureRawSize(const network::RoadNetwork& net,
                              const UncertainTrajectory& tu);
ComponentSizes MeasureRawSize(const network::RoadNetwork& net,
                              const UncertainCorpus& corpus);

}  // namespace utcq::traj

#endif  // UTCQ_TRAJ_TYPES_H_
