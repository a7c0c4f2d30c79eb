#include "verify/workload.h"

#include <algorithm>
#include <utility>

#include "core/decoder.h"
#include "core/encoder.h"
#include "network/generator.h"
#include "traj/generator.h"
#include "verify/oracle.h"

namespace utcq::verify {

using traj::Timestamp;

WorkloadGen::WorkloadGen(uint64_t seed, WorkloadOptions opts)
    : seed_(seed), opts_(opts), rng_(seed) {}

traj::UncertainTrajectory WorkloadGen::SingleEdge(
    const network::RoadNetwork& net) {
  traj::UncertainTrajectory tu;
  const auto e = static_cast<network::EdgeId>(
      rng_.UniformInt(0, static_cast<int64_t>(net.num_edges()) - 1));
  const Timestamp t0 = rng_.UniformInt(0, traj::kSecondsPerDay / 2);
  tu.times = {t0, t0 + rng_.UniformInt(1, 600)};
  traj::TrajectoryInstance inst;
  inst.path = {e};
  const double rd0 = rng_.Uniform(0.0, 0.5);
  inst.locations = {{0, rd0}, {0, rd0 + rng_.Uniform(0.0, 0.5)}};
  inst.probability = 1.0;
  tu.instances = {inst};
  return tu;
}

traj::UncertainTrajectory WorkloadGen::ZeroDuration(
    const network::RoadNetwork& net) {
  traj::UncertainTrajectory tu;
  const auto e = static_cast<network::EdgeId>(
      rng_.UniformInt(0, static_cast<int64_t>(net.num_edges()) - 1));
  tu.times = {rng_.UniformInt(0, traj::kSecondsPerDay - 1)};
  traj::TrajectoryInstance inst;
  inst.path = {e};
  inst.locations = {{0, rng_.Uniform(0.0, 1.0)}};
  inst.probability = 1.0;
  tu.instances = {inst};
  return tu;
}

void WorkloadGen::AppendDegenerates(Workload& w) {
  // Valid but extreme shapes: the single-point, single-edge and max-length
  // trajectories the paper's pipeline must carry without special-casing.
  w.corpus.push_back(SingleEdge(w.net));
  w.corpus.push_back(ZeroDuration(w.net));
  {
    traj::DatasetProfile longest = w.profile;
    longest.mean_edges = opts_.max_length_points / 2.0;
    longest.min_edges = static_cast<int>(opts_.max_length_points / 2);
    longest.max_edges = static_cast<int>(opts_.max_length_points);
    longest.mean_instances = 2.0;
    longest.max_instances = 3;
    traj::UncertainTrajectoryGenerator gen(
        w.net, longest, static_cast<uint64_t>(rng_.UniformInt(1, 1 << 30)));
    w.corpus.push_back(gen.Generate());
  }
  for (size_t j = 0; j < w.corpus.size(); ++j) w.corpus[j].id = j;

  // Invalid shapes Validate must reject: duplicate timestamps and
  // non-monotone location ordering.
  {
    traj::UncertainTrajectory dup = w.corpus.front();
    if (dup.times.size() >= 2) dup.times[1] = dup.times[0];
    w.invalid.push_back(std::move(dup));
  }
  for (const auto& tu : w.corpus) {
    if (tu.instances.front().locations.size() < 2) continue;
    traj::UncertainTrajectory unordered = tu;
    auto& locs = unordered.instances.front().locations;
    if (locs.front() == locs.back()) continue;
    std::swap(locs.front(), locs.back());
    w.invalid.push_back(std::move(unordered));
    break;
  }
}

void WorkloadGen::MakeQueries(Workload& w) {
  const auto bbox = w.net.bounding_box();
  const auto rand_traj = [&] {
    return static_cast<uint32_t>(
        rng_.UniformInt(0, static_cast<int64_t>(w.corpus.size()) - 1));
  };
  const auto rand_alpha = [&] {
    const int64_t kind = rng_.UniformInt(0, 9);
    if (kind == 0) return 0.0;              // everything qualifies
    if (kind == 1) return 1.2;              // nothing can qualify
    return rng_.Uniform(0.0, 1.0);
  };

  const auto add_point_queries = [&](uint32_t j) {
    const traj::UncertainTrajectory& tu = w.corpus[j];
    QueryCase where;
    where.kind = QueryCase::Kind::kWhere;
    where.traj = j;
    where.alpha = rand_alpha();
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        where.t = tu.times.front();  // exact first sample
        break;
      case 1:
        where.t = tu.times.back();  // exact last sample
        break;
      case 2:
        where.t = tu.times.back() + rng_.UniformInt(1, 1000);  // past the end
        break;
      default:
        where.t = rng_.UniformInt(tu.times.front(), tu.times.back());
    }
    w.queries.push_back(where);

    QueryCase when;
    when.kind = QueryCase::Kind::kWhen;
    when.traj = j;
    when.alpha = rand_alpha();
    const auto& inst = tu.instances[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(tu.instances.size()) - 1))];
    if (rng_.Bernoulli(0.6)) {
      // A position an instance demonstrably visits.
      const auto& loc = inst.locations[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(inst.locations.size()) - 1))];
      when.edge = inst.path[loc.path_index];
      when.rd = loc.rd;
    } else {
      // An arbitrary position on the travelled path (often missed).
      when.edge = inst.path[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(inst.path.size()) - 1))];
      when.rd = rng_.Uniform(0.0, 1.0);
    }
    w.queries.push_back(when);
  };

  // Every degenerate shape gets targeted point queries; the rest sample
  // uniformly.
  for (size_t back = 1; back <= 3 && back <= w.corpus.size(); ++back) {
    add_point_queries(static_cast<uint32_t>(w.corpus.size() - back));
  }
  for (uint32_t i = 0; i < opts_.num_point_queries; ++i) {
    add_point_queries(rand_traj());
  }

  // Out-of-range trajectory ids: every public API must answer empty.
  for (int i = 0; i < 2; ++i) {
    QueryCase q;
    q.kind = i == 0 ? QueryCase::Kind::kWhere : QueryCase::Kind::kWhen;
    q.traj = static_cast<uint32_t>(w.corpus.size()) +
             static_cast<uint32_t>(rng_.UniformInt(0, 5));
    q.t = rng_.UniformInt(0, traj::kSecondsPerDay - 1);
    q.edge = static_cast<network::EdgeId>(
        rng_.UniformInt(0, static_cast<int64_t>(w.net.num_edges()) - 1));
    q.rd = rng_.Uniform(0.0, 1.0);
    q.alpha = rng_.Uniform(0.0, 1.0);
    w.queries.push_back(q);
  }

  Timestamp t_min = 0;
  Timestamp t_max = traj::kSecondsPerDay - 1;
  if (!w.corpus.empty()) {
    t_min = w.corpus.front().times.front();
    t_max = w.corpus.front().times.back();
    for (const auto& tu : w.corpus) {
      t_min = std::min(t_min, tu.times.front());
      t_max = std::max(t_max, tu.times.back());
    }
  }
  for (uint32_t i = 0; i < opts_.num_range_queries; ++i) {
    QueryCase q;
    q.kind = QueryCase::Kind::kRange;
    // Range alpha stays strictly positive: at alpha == 0 the answer set is
    // defined by index reach, not by probability mass (any candidate
    // trivially satisfies mass >= 0), which no scan-based oracle can
    // reproduce.
    q.alpha = rng_.Uniform(0.05, 0.9);
    q.t = rng_.Bernoulli(0.85) ? rng_.UniformInt(t_min, t_max)
                               : t_max + rng_.UniformInt(1, 1000);
    const double cx = rng_.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng_.Uniform(bbox.min_y, bbox.max_y);
    const double span_x = bbox.max_x - bbox.min_x;
    const double half = rng_.Bernoulli(0.2)
                            ? span_x  // covers (almost) everything
                            : rng_.Uniform(span_x / 50.0, span_x / 3.0);
    q.region = {cx - half, cy - half, cx + half, cy + half};
    w.queries.push_back(q);
  }

  // Zero-area rectangles through a point where the oracle places an
  // instance of the decompressed corpus (what every engine reconstructs):
  // the point itself, or a zero-width or zero-height line through it.
  // Contains is exact there, so Range must compute the oracle's position
  // bit for bit.
  constexpr uint32_t kZeroAreaRangeQueries = 6;
  const core::CompressedCorpus cc =
      core::UtcqCompressor(w.net, w.params).Compress(w.corpus);
  const traj::UncertainCorpus decoded =
      core::UtcqDecoder(w.net, cc).DecompressAll();
  const Oracle oracle(w.net, decoded, w.params.eta_d);
  for (uint32_t i = 0; i < kZeroAreaRangeQueries; ++i) {
    const auto j = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(decoded.size()) - 1));
    QueryCase q;
    q.kind = QueryCase::Kind::kRange;
    q.t = rng_.UniformInt(decoded[j].times.front(), decoded[j].times.back());
    // Hits of positive probability only: alpha stays strictly positive.
    const auto hits = oracle.Where(j, q.t, 1e-9);
    if (hits.empty()) continue;
    const traj::WhereHit& hit = hits[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(hits.size()) - 1))];
    q.alpha = hit.probability * rng_.Uniform(0.5, 1.0);
    const network::Vertex xy =
        w.net.PointOnEdge(hit.position.edge, hit.position.ndist);
    const double reach = rng_.Uniform(0.0, (bbox.max_x - bbox.min_x) / 20.0);
    switch (i % 3) {
      case 0:
        q.region = {xy.x, xy.y, xy.x, xy.y};
        break;
      case 1:
        q.region = {xy.x, xy.y - reach, xy.x, xy.y + reach};
        break;
      default:
        q.region = {xy.x - reach, xy.y, xy.x + reach, xy.y};
        break;
    }
    w.queries.push_back(q);
  }
}

Workload WorkloadGen::Generate() {
  Workload w;
  w.seed = seed_;
  const auto profiles = traj::AllProfiles();
  w.profile =
      profiles[static_cast<size_t>(rng_.UniformInt(0, 2))];
  const auto side = static_cast<uint32_t>(
      rng_.UniformInt(opts_.min_city_side, opts_.max_city_side));
  network::CityParams city = w.profile.city;
  city.rows = side;
  city.cols = side;
  w.net = network::GenerateCity(rng_, city);

  w.params.default_interval_s = w.profile.default_interval_s;
  w.params.eta_p = w.profile.eta_p;
  w.params.eta_d = w.profile.eta_d;
  w.params.num_pivots = rng_.Bernoulli(0.25) ? 2 : 1;
  // Dense sync tables (archive v3 seek path engaged on nearly every
  // bracket) or none at all (the pre-v3 scan) — both must answer
  // identically on every path, and the differential run covers both.
  w.params.t_sync_interval = rng_.Bernoulli(0.5) ? 2 : 0;

  traj::UncertainTrajectoryGenerator gen(
      w.net, w.profile, static_cast<uint64_t>(rng_.UniformInt(1, 1 << 30)));
  w.corpus = gen.GenerateCorpus(opts_.num_trajectories);
  AppendDegenerates(w);
  MakeQueries(w);
  return w;
}

}  // namespace utcq::verify
