#ifndef UTCQ_TRAJ_INTERPOLATE_H_
#define UTCQ_TRAJ_INTERPOLATE_H_

#include <optional>
#include <vector>

#include "network/road_network.h"
#include "traj/types.h"

namespace utcq::traj {

/// A concrete network position <(vs -> ve), ndist> as returned by
/// probabilistic where queries (Definition 10).
struct NetworkPosition {
  network::EdgeId edge = network::kInvalidEdge;
  double ndist = 0.0;

  bool operator==(const NetworkPosition&) const = default;
};

/// Movement semantics shared by every query engine: between consecutive
/// mapped locations the object moves along the instance path at constant
/// speed (the interpolation the paper's Example 3 applies).

/// Network distance from the path start to location `loc_idx`.
double PathOffsetOfLocation(const network::RoadNetwork& net,
                            const TrajectoryInstance& inst, size_t loc_idx);

/// Path offsets of locations `loc_idx` and `loc_idx + 1` in a single path
/// walk. The accumulation visits edge lengths in the same left-to-right
/// order as two PathOffsetOfLocation calls, so the results are bit-for-bit
/// the doubles those calls would produce — just without walking the shared
/// path prefix twice.
void OffsetPairOfLocations(const network::RoadNetwork& net,
                           const TrajectoryInstance& inst, size_t loc_idx,
                           double* d0, double* d1);

/// Position of `inst` at time t given the bracketing samples (i, t0, t1);
/// constant-speed interpolation along the path (Example 3 semantics). With
/// a degenerate bracket (i past the penultimate location, or t1 <= t0) the
/// object sits at location min(i, last).
NetworkPosition PositionInBracket(const network::RoadNetwork& net,
                                  const TrajectoryInstance& inst, size_t i,
                                  Timestamp t0, Timestamp t1, Timestamp t);

/// PositionInBracket over many instances sharing one time bracket — the
/// shape of a Where hit list or a Range candidate chunk, where one (t, t0,
/// t1) is evaluated against every qualifying instance. The interpolation
/// fraction is computed once and each instance's offset pair comes from one
/// path walk; out[k] is bit-for-bit what
/// PositionInBracket(net, *insts[k], i, t0, t1, t) returns.
std::vector<NetworkPosition> PositionsInBracket(
    const network::RoadNetwork& net,
    const std::vector<const TrajectoryInstance*>& insts, size_t i,
    Timestamp t0, Timestamp t1, Timestamp t);

/// Network position of the instance at time `t`, or nullopt when t lies
/// outside [times.front(), times.back()]: PositionInBracket over the first
/// bracket i with t <= times[i + 1].
std::optional<NetworkPosition> PositionAtTime(
    const network::RoadNetwork& net, const TrajectoryInstance& inst,
    const std::vector<Timestamp>& times, Timestamp t);

/// Path offset -> (edge, ndist) resolution.
NetworkPosition PositionAtPathOffset(const network::RoadNetwork& net,
                                     const TrajectoryInstance& inst,
                                     double offset);

/// All timestamps at which the instance passes <edge, rd> (one per matching
/// traversal of `edge` within the sampled span); probabilistic when queries
/// (Definition 11) build on this. `tolerance_m` widens the sampled span for
/// engines working on lossily-coded relative distances (quantization can
/// pull the first/last location past the exact query position).
std::vector<Timestamp> TimesAtPosition(const network::RoadNetwork& net,
                                       const TrajectoryInstance& inst,
                                       const std::vector<Timestamp>& times,
                                       network::EdgeId edge, double rd,
                                       double tolerance_m = 1e-9);

/// Rebuilds a TrajectoryInstance from its improved-TED constituents: start
/// vertex, edge sequence entries E(.), *full* (untrimmed) time-flag bits and
/// relative distances. Returns nullopt when the entries do not resolve to a
/// connected path in the network (corruption guard for decoders).
std::optional<TrajectoryInstance> ReconstructInstance(
    const network::RoadNetwork& net, network::VertexId sv,
    const std::vector<uint32_t>& entries, const std::vector<uint8_t>& tflag,
    const std::vector<double>& rds, double probability);

/// ReconstructInstance into `out`, whose vectors are cleared and refilled
/// (capacity kept), so a loop reconstructing many instances into one stops
/// allocating. Returns false, leaving `out` unspecified, where
/// ReconstructInstance returns nullopt.
bool ReconstructInstanceInto(const network::RoadNetwork& net,
                             network::VertexId sv,
                             const std::vector<uint32_t>& entries,
                             const std::vector<uint8_t>& tflag,
                             const std::vector<double>& rds,
                             double probability, TrajectoryInstance* out);

}  // namespace utcq::traj

#endif  // UTCQ_TRAJ_INTERPOLATE_H_
