#include "ted/ted_query.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

namespace utcq::ted {

using network::Rect;
using traj::NetworkPosition;
using traj::Timestamp;
using traj::TrajectoryInstance;

std::vector<traj::WhereHit> TedQueryProcessor::Where(size_t traj_idx,
                                                     Timestamp t,
                                                     double alpha) const {
  std::vector<traj::WhereHit> hits;
  if (traj_idx >= compressed_.num_trajectories()) return hits;
  const TedTrajMeta& meta = compressed_.meta(traj_idx);
  if (t < meta.t_first || t > meta.t_last) return hits;
  const std::vector<Timestamp> times = compressed_.DecodeTimes(traj_idx);
  for (size_t w = 0; w < meta.instances.size(); ++w) {
    if (meta.instances[w].p_quantized < alpha) continue;
    const std::optional<TrajectoryInstance> inst =
        compressed_.DecodeInstance(net_, traj_idx, w);
    if (!inst.has_value()) continue;
    const auto pos = traj::PositionAtTime(net_, *inst, times, t);
    if (pos.has_value()) {
      hits.push_back({static_cast<uint32_t>(w), inst->probability, *pos});
    }
  }
  return hits;
}

std::vector<traj::WhenHit> TedQueryProcessor::When(size_t traj_idx,
                                                   network::EdgeId edge,
                                                   double rd,
                                                   double alpha) const {
  std::vector<traj::WhenHit> hits;
  if (traj_idx >= compressed_.num_trajectories()) return hits;
  const TedTrajMeta& meta = compressed_.meta(traj_idx);
  const std::vector<Timestamp> times = compressed_.DecodeTimes(traj_idx);
  // Widen the sampled span by the D quantization error (see core query).
  const double tol =
      2.0 * compressed_.eta_d() * net_.edge(edge).length + 1e-6;
  for (size_t w = 0; w < meta.instances.size(); ++w) {
    if (meta.instances[w].p_quantized < alpha) continue;
    const std::optional<TrajectoryInstance> inst =
        compressed_.DecodeInstance(net_, traj_idx, w);
    if (!inst.has_value()) continue;
    for (const Timestamp t :
         traj::TimesAtPosition(net_, *inst, times, edge, rd, tol)) {
      hits.push_back({static_cast<uint32_t>(w), inst->probability, t});
    }
  }
  return hits;
}

traj::RangeResult TedQueryProcessor::Range(const Rect& region, Timestamp tq,
                                           double alpha) const {
  traj::RangeResult result;

  // Candidate trajectories: active at tq and passing a region cell that
  // overlaps RE.
  const auto& active = index_.TrajectoriesAt(tq);
  std::unordered_set<uint32_t> active_set(active.begin(), active.end());

  std::unordered_set<uint32_t> candidates;
  for (const network::RegionId re : index_.grid().RegionsInRect(region)) {
    for (const TedIndex::SpatialTuple& tup : index_.InstancesIn(re)) {
      if (active_set.count(tup.traj) > 0) candidates.insert(tup.traj);
    }
  }

  std::vector<uint32_t> ordered(candidates.begin(), candidates.end());
  std::sort(ordered.begin(), ordered.end());
  for (const uint32_t j : ordered) {
    const TedTrajMeta& meta = compressed_.meta(j);
    if (tq < meta.t_first || tq > meta.t_last) continue;
    const std::vector<Timestamp> times = compressed_.DecodeTimes(j);
    double overlap_p = 0.0;
    for (size_t w = 0; w < meta.instances.size(); ++w) {
      const std::optional<TrajectoryInstance> inst =
          compressed_.DecodeInstance(net_, j, w);
      if (!inst.has_value()) continue;
      const auto pos = traj::PositionAtTime(net_, *inst, times, tq);
      if (!pos.has_value()) continue;
      const network::Vertex xy = net_.PointOnEdge(pos->edge, pos->ndist);
      if (region.Contains(xy.x, xy.y)) {
        overlap_p += meta.instances[w].p_quantized;
      }
    }
    if (overlap_p >= alpha) result.push_back(j);
  }
  return result;
}

}  // namespace utcq::ted
