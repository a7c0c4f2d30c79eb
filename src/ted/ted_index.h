#ifndef UTCQ_TED_TED_INDEX_H_
#define UTCQ_TED_TED_INDEX_H_

#include <cstdint>
#include <vector>

#include "network/grid_index.h"
#include "ted/ted_compress.h"

namespace utcq::ted {

/// Spatio-temporal index over a TED-compressed corpus, after [40]: time
/// partitions list active trajectories; grid regions list the (trajectory,
/// instance) pairs passing them. Unlike StIU it carries no probability
/// aggregates and no referential metadata, so query processing must fully
/// decode every surviving candidate instance.
class TedIndex {
 public:
  struct SpatialTuple {
    uint32_t traj = 0;
    uint32_t inst = 0;
  };

  TedIndex(const network::RoadNetwork& net, const network::GridIndex& grid,
           const TedCorpusView& compressed, int64_t time_partition_s);

  /// Trajectories active in the partition containing `t` (clamped into
  /// the day, see traj::DayPartition).
  const std::vector<uint32_t>& TrajectoriesAt(traj::Timestamp t) const;

  /// Instances passing region `re`.
  const std::vector<SpatialTuple>& InstancesIn(network::RegionId re) const {
    return spatial_[re];
  }

  int64_t time_partition_s() const { return time_partition_s_; }
  const network::GridIndex& grid() const { return grid_; }

  /// Index footprint in bytes (Fig. 9's TED index-size series).
  size_t SizeBytes() const;

 private:
  const network::GridIndex& grid_;
  int64_t time_partition_s_;
  std::vector<std::vector<uint32_t>> temporal_;
  std::vector<std::vector<SpatialTuple>> spatial_;
};

}  // namespace utcq::ted

#endif  // UTCQ_TED_TED_INDEX_H_
