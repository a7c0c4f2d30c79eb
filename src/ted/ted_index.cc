#include "ted/ted_index.h"

#include <algorithm>

namespace utcq::ted {

TedIndex::TedIndex(const network::RoadNetwork& net,
                   const network::GridIndex& grid,
                   const TedCorpusView& compressed, int64_t time_partition_s)
    : grid_(grid), time_partition_s_(std::max<int64_t>(time_partition_s, 1)) {
  const size_t partitions =
      static_cast<size_t>((traj::kSecondsPerDay + time_partition_s_ - 1) /
                          time_partition_s_);
  temporal_.resize(partitions);
  spatial_.resize(grid.num_regions());

  for (size_t j = 0; j < compressed.num_trajectories(); ++j) {
    const TedTrajMeta& meta = compressed.meta(j);
    const size_t first =
        traj::DayPartition(meta.t_first, time_partition_s_, partitions);
    const size_t last =
        traj::DayPartition(meta.t_last, time_partition_s_, partitions);
    for (size_t p = first; p <= last; ++p) {
      temporal_[p].push_back(static_cast<uint32_t>(j));
    }
    for (size_t w = 0; w < meta.instances.size(); ++w) {
      const auto inst = compressed.DecodeInstance(net, j, w);
      if (!inst.has_value()) continue;
      std::vector<network::RegionId> seen;
      for (const network::EdgeId e : inst->path) {
        for (const network::RegionId re : grid.RegionsOfEdge(e)) {
          if (std::find(seen.begin(), seen.end(), re) == seen.end()) {
            seen.push_back(re);
            spatial_[re].push_back(
                {static_cast<uint32_t>(j), static_cast<uint32_t>(w)});
          }
        }
      }
    }
  }
}

const std::vector<uint32_t>& TedIndex::TrajectoriesAt(traj::Timestamp t) const {
  return temporal_[traj::DayPartition(t, time_partition_s_, temporal_.size())];
}

size_t TedIndex::SizeBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& v : temporal_) bytes += v.size() * sizeof(uint32_t);
  for (const auto& v : spatial_) bytes += v.size() * sizeof(SpatialTuple);
  return bytes;
}

}  // namespace utcq::ted
