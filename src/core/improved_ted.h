#ifndef UTCQ_CORE_IMPROVED_TED_H_
#define UTCQ_CORE_IMPROVED_TED_H_

#include <cstdint>
#include <vector>

#include "network/road_network.h"
#include "traj/types.h"

namespace utcq::core {

/// Improved TED representation of one uncertain-trajectory instance
/// (Section 4.1): the start vertex is separated from E(.), and the time-flag
/// bit-string drops its first and last bits (they are always 1).
struct InstanceRepr {
  network::VertexId sv = network::kInvalidVertex;
  std::vector<uint32_t> entries;         // E(Tu^j_w), start vertex excluded
  std::vector<uint8_t> tflag_trimmed;    // T'(.) minus first and last bit
  std::vector<double> rds;               // D(.)
  double p = 0.0;
};

/// Builds the improved TED representation of an instance.
InstanceRepr BuildInstanceRepr(const network::RoadNetwork& net,
                               const traj::TrajectoryInstance& inst);

/// Restores the full time-flag bit-string from its trimmed form into
/// `full` (cleared, capacity kept). `entry_count` is |E(.)|; when it is 1
/// the single (shared first/last) bit is 1, when 0 the result is empty.
void UntrimTimeFlags(const std::vector<uint8_t>& trimmed, size_t entry_count,
                     std::vector<uint8_t>* full);

/// Sample Interval Adaptive Representation (SIAR) of a shared time sequence:
/// deltas[i] = (t_{i+1} - t_i) - Ts. Lossless given t0 and Ts.
std::vector<int64_t> SiarDeltas(const std::vector<traj::Timestamp>& times,
                                int64_t default_interval_s);

/// Inverse of SiarDeltas.
std::vector<traj::Timestamp> SiarExpand(traj::Timestamp t0,
                                        const std::vector<int64_t>& deltas,
                                        int64_t default_interval_s);

}  // namespace utcq::core

#endif  // UTCQ_CORE_IMPROVED_TED_H_
