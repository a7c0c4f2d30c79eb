#include "verify/plain_query.h"

#include "traj/interpolate.h"

namespace utcq::verify {

std::vector<traj::WhereHit> PlainQueryEngine::Where(size_t traj_idx,
                                                    traj::Timestamp t,
                                                    double alpha) const {
  std::vector<traj::WhereHit> hits;
  const traj::UncertainTrajectory& tu = corpus_[traj_idx];
  for (size_t w = 0; w < tu.instances.size(); ++w) {
    const auto& inst = tu.instances[w];
    if (inst.probability < alpha) continue;
    const auto pos = traj::PositionAtTime(net_, inst, tu.times, t);
    if (pos.has_value()) {
      hits.push_back({static_cast<uint32_t>(w), inst.probability, *pos});
    }
  }
  return hits;
}

std::vector<traj::WhenHit> PlainQueryEngine::When(size_t traj_idx,
                                                  network::EdgeId edge,
                                                  double rd,
                                                  double alpha) const {
  std::vector<traj::WhenHit> hits;
  const traj::UncertainTrajectory& tu = corpus_[traj_idx];
  for (size_t w = 0; w < tu.instances.size(); ++w) {
    const auto& inst = tu.instances[w];
    if (inst.probability < alpha) continue;
    for (const traj::Timestamp t :
         traj::TimesAtPosition(net_, inst, tu.times, edge, rd)) {
      hits.push_back({static_cast<uint32_t>(w), inst.probability, t});
    }
  }
  return hits;
}

traj::RangeResult PlainQueryEngine::Range(const network::Rect& region,
                                          traj::Timestamp tq,
                                          double alpha) const {
  traj::RangeResult result;
  for (size_t j = 0; j < corpus_.size(); ++j) {
    const traj::UncertainTrajectory& tu = corpus_[j];
    double overlap_p = 0.0;
    for (const auto& inst : tu.instances) {
      const auto pos = traj::PositionAtTime(net_, inst, tu.times, tq);
      if (!pos.has_value()) continue;
      const network::Vertex xy = net_.PointOnEdge(pos->edge, pos->ndist);
      if (region.Contains(xy.x, xy.y)) overlap_p += inst.probability;
    }
    if (overlap_p >= alpha) result.push_back(static_cast<uint32_t>(j));
  }
  return result;
}

}  // namespace utcq::verify
