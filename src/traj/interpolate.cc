#include "traj/interpolate.h"

#include <algorithm>
#include <cmath>

namespace utcq::traj {

using network::EdgeId;
using network::RoadNetwork;

namespace {

/// Prefix path lengths: prefix[i] = network distance before path edge i.
std::vector<double> PrefixLengths(const RoadNetwork& net,
                                  const TrajectoryInstance& inst) {
  std::vector<double> prefix(inst.path.size() + 1, 0.0);
  for (size_t i = 0; i < inst.path.size(); ++i) {
    prefix[i + 1] = prefix[i] + net.edge(inst.path[i]).length;
  }
  return prefix;
}

}  // namespace

double PathOffsetOfLocation(const RoadNetwork& net,
                            const TrajectoryInstance& inst, size_t loc_idx) {
  const MappedLocation& loc = inst.locations[loc_idx];
  double offset = 0.0;
  for (uint32_t i = 0; i < loc.path_index; ++i) {
    offset += net.edge(inst.path[i]).length;
  }
  return offset + loc.rd * net.edge(inst.path[loc.path_index]).length;
}

void OffsetPairOfLocations(const RoadNetwork& net,
                           const TrajectoryInstance& inst, size_t loc_idx,
                           double* d0, double* d1) {
  const MappedLocation& a = inst.locations[loc_idx];
  const MappedLocation& b = inst.locations[loc_idx + 1];
  // One walk, two prefix snapshots. `offset` takes the exact same sequence
  // of additions PathOffsetOfLocation performs, so the snapshots equal its
  // partial sums bit-for-bit (b.path_index >= a.path_index on any real
  // instance, but the snapshots don't care either way).
  const uint32_t stop = std::max(a.path_index, b.path_index);
  double offset = 0.0;
  double pa = 0.0;
  double pb = 0.0;
  for (uint32_t k = 0; k < stop; ++k) {
    if (k == a.path_index) pa = offset;
    if (k == b.path_index) pb = offset;
    offset += net.edge(inst.path[k]).length;
  }
  if (a.path_index == stop) pa = offset;
  if (b.path_index == stop) pb = offset;
  *d0 = pa + a.rd * net.edge(inst.path[a.path_index]).length;
  *d1 = pb + b.rd * net.edge(inst.path[b.path_index]).length;
}

NetworkPosition PositionAtPathOffset(const RoadNetwork& net,
                                     const TrajectoryInstance& inst,
                                     double offset) {
  double walked = 0.0;
  for (size_t i = 0; i < inst.path.size(); ++i) {
    const double len = net.edge(inst.path[i]).length;
    if (offset <= walked + len || i + 1 == inst.path.size()) {
      return {inst.path[i], std::clamp(offset - walked, 0.0, len)};
    }
    walked += len;
  }
  return {inst.path.back(), net.edge(inst.path.back()).length};
}

std::optional<NetworkPosition> PositionAtTime(
    const RoadNetwork& net, const TrajectoryInstance& inst,
    const std::vector<Timestamp>& times, Timestamp t) {
  if (times.empty() || t < times.front() || t > times.back()) {
    return std::nullopt;
  }
  // Bracketing samples i, i+1 with times[i] <= t <= times[i+1].
  const auto it = std::upper_bound(times.begin(), times.end(), t);
  size_t i = static_cast<size_t>(it - times.begin());
  i = i > 0 ? i - 1 : 0;
  if (i + 1 >= times.size()) {
    // t == times.back()
    const MappedLocation& loc = inst.locations.back();
    return NetworkPosition{inst.path[loc.path_index],
                           loc.rd * net.edge(inst.path[loc.path_index]).length};
  }
  const double d0 = PathOffsetOfLocation(net, inst, i);
  const double d1 = PathOffsetOfLocation(net, inst, i + 1);
  const double span = static_cast<double>(times[i + 1] - times[i]);
  const double f =
      span > 0 ? static_cast<double>(t - times[i]) / span : 0.0;
  return PositionAtPathOffset(net, inst, d0 + (d1 - d0) * f);
}

std::vector<Timestamp> TimesAtPosition(const RoadNetwork& net,
                                       const TrajectoryInstance& inst,
                                       const std::vector<Timestamp>& times,
                                       EdgeId edge, double rd,
                                       double tolerance_m) {
  std::vector<Timestamp> result;
  if (times.size() != inst.locations.size() || times.empty()) return result;
  const std::vector<double> prefix = PrefixLengths(net, inst);

  // Path offsets of all mapped locations (monotone non-decreasing).
  std::vector<double> loc_offsets(inst.locations.size());
  for (size_t i = 0; i < loc_offsets.size(); ++i) {
    const MappedLocation& loc = inst.locations[i];
    loc_offsets[i] = prefix[loc.path_index] +
                     loc.rd * net.edge(inst.path[loc.path_index]).length;
  }

  for (size_t k = 0; k < inst.path.size(); ++k) {
    if (inst.path[k] != edge) continue;
    double pos = prefix[k] + rd * net.edge(edge).length;
    if (pos < loc_offsets.front() - tolerance_m ||
        pos > loc_offsets.back() + tolerance_m) {
      continue;  // outside the sampled span of this traversal
    }
    pos = std::clamp(pos, loc_offsets.front(), loc_offsets.back());
    // Find bracketing locations: largest i with loc_offsets[i] <= pos.
    const auto it = std::upper_bound(loc_offsets.begin(), loc_offsets.end(),
                                     pos + 1e-9);
    size_t i = static_cast<size_t>(it - loc_offsets.begin());
    i = i > 0 ? i - 1 : 0;
    Timestamp t;
    if (i + 1 >= loc_offsets.size()) {
      t = times.back();
    } else {
      const double seg = loc_offsets[i + 1] - loc_offsets[i];
      const double f = seg > 1e-12 ? (pos - loc_offsets[i]) / seg : 0.0;
      t = times[i] + static_cast<Timestamp>(std::llround(
                         f * static_cast<double>(times[i + 1] - times[i])));
    }
    result.push_back(t);
  }
  return result;
}

NetworkPosition PositionInBracket(const RoadNetwork& net,
                                  const TrajectoryInstance& inst, size_t i,
                                  Timestamp t0, Timestamp t1, Timestamp t) {
  if (i + 1 >= inst.locations.size() || t1 <= t0) {
    const auto& loc = inst.locations[std::min(i, inst.locations.size() - 1)];
    return {inst.path[loc.path_index],
            loc.rd * net.edge(inst.path[loc.path_index]).length};
  }
  const double d0 = PathOffsetOfLocation(net, inst, i);
  const double d1 = PathOffsetOfLocation(net, inst, i + 1);
  const double f = static_cast<double>(t - t0) / static_cast<double>(t1 - t0);
  return PositionAtPathOffset(net, inst, d0 + (d1 - d0) * f);
}

std::vector<NetworkPosition> PositionsInBracket(
    const RoadNetwork& net,
    const std::vector<const TrajectoryInstance*>& insts, size_t i,
    Timestamp t0, Timestamp t1, Timestamp t) {
  std::vector<NetworkPosition> out(insts.size());
  if (t1 <= t0) {
    // Degenerate bracket for every instance; nothing to interpolate.
    for (size_t k = 0; k < insts.size(); ++k) {
      out[k] = PositionInBracket(net, *insts[k], i, t0, t1, t);
    }
    return out;
  }
  // One fraction for the whole batch: the single-instance path recomputes
  // this per instance from the same three integers, giving the same double.
  const double f = static_cast<double>(t - t0) / static_cast<double>(t1 - t0);
  for (size_t k = 0; k < insts.size(); ++k) {
    const TrajectoryInstance& inst = *insts[k];
    if (i + 1 >= inst.locations.size()) {
      out[k] = PositionInBracket(net, inst, i, t0, t1, t);
      continue;
    }
    double d0 = 0.0;
    double d1 = 0.0;
    OffsetPairOfLocations(net, inst, i, &d0, &d1);
    out[k] = PositionAtPathOffset(net, inst, d0 + (d1 - d0) * f);
  }
  return out;
}

std::optional<TrajectoryInstance> ReconstructInstance(
    const RoadNetwork& net, network::VertexId sv,
    const std::vector<uint32_t>& entries, const std::vector<uint8_t>& tflag,
    const std::vector<double>& rds, double probability) {
  TrajectoryInstance inst;
  if (!ReconstructInstanceInto(net, sv, entries, tflag, rds, probability,
                               &inst)) {
    return std::nullopt;
  }
  return inst;
}

bool ReconstructInstanceInto(const RoadNetwork& net, network::VertexId sv,
                             const std::vector<uint32_t>& entries,
                             const std::vector<uint8_t>& tflag,
                             const std::vector<double>& rds,
                             double probability, TrajectoryInstance* out) {
  if (entries.size() != tflag.size()) return false;
  // The start vertex arrives as a raw 32-bit field from a possibly
  // untrusted stream; everything after it is derived from real edges.
  if (sv >= net.num_vertices()) return false;
  TrajectoryInstance& inst = *out;
  inst.path.clear();
  inst.locations.clear();
  inst.probability = probability;
  network::VertexId cursor = sv;
  size_t loc = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const uint32_t no = entries[i];
    if (no != 0) {
      const EdgeId e = net.OutEdge(cursor, no);
      if (e == network::kInvalidEdge) return false;
      inst.path.push_back(e);
      cursor = net.edge(e).to;
    } else if (inst.path.empty()) {
      return false;  // a repeat marker cannot open the sequence
    }
    if (tflag[i] != 0) {
      if (loc >= rds.size()) return false;
      inst.locations.push_back(
          {static_cast<uint32_t>(inst.path.size() - 1), rds[loc]});
      ++loc;
    }
  }
  if (loc != rds.size()) return false;
  // Lossy D coding is not strictly monotone; restore same-edge ordering so
  // interpolation invariants hold (perturbation stays within the bound).
  for (size_t i = 1; i < inst.locations.size(); ++i) {
    auto& cur = inst.locations[i];
    const auto& prev = inst.locations[i - 1];
    if (cur.path_index == prev.path_index && cur.rd < prev.rd) {
      cur.rd = prev.rd;
    }
  }
  return true;
}

}  // namespace utcq::traj
