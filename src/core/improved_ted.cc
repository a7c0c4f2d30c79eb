#include "core/improved_ted.h"

namespace utcq::core {

InstanceRepr BuildInstanceRepr(const network::RoadNetwork& net,
                               const traj::TrajectoryInstance& inst) {
  InstanceRepr repr;
  repr.sv = traj::StartVertex(net, inst);
  repr.entries = traj::BuildEdgeSequence(net, inst);
  const auto full = traj::BuildTimeFlagBits(inst);
  if (full.size() > 2) {
    repr.tflag_trimmed.assign(full.begin() + 1, full.end() - 1);
  }
  repr.rds.reserve(inst.locations.size());
  for (const auto& loc : inst.locations) repr.rds.push_back(loc.rd);
  repr.p = inst.probability;
  return repr;
}

void UntrimTimeFlags(const std::vector<uint8_t>& trimmed, size_t entry_count,
                     std::vector<uint8_t>* full) {
  full->clear();
  if (entry_count == 0) return;
  full->reserve(entry_count);
  full->push_back(1);
  if (entry_count == 1) return;
  full->insert(full->end(), trimmed.begin(), trimmed.end());
  full->push_back(1);
}

std::vector<int64_t> SiarDeltas(const std::vector<traj::Timestamp>& times,
                                int64_t default_interval_s) {
  std::vector<int64_t> deltas;
  if (times.size() < 2) return deltas;
  deltas.reserve(times.size() - 1);
  for (size_t i = 1; i < times.size(); ++i) {
    deltas.push_back((times[i] - times[i - 1]) - default_interval_s);
  }
  return deltas;
}

std::vector<traj::Timestamp> SiarExpand(traj::Timestamp t0,
                                        const std::vector<int64_t>& deltas,
                                        int64_t default_interval_s) {
  std::vector<traj::Timestamp> times;
  times.reserve(deltas.size() + 1);
  times.push_back(t0);
  traj::Timestamp t = t0;
  for (const int64_t d : deltas) {
    t += default_interval_s + d;
    times.push_back(t);
  }
  return times;
}

}  // namespace utcq::core
