// End-to-end pipeline: raw noisy GPS traces -> probabilistic map matching
// (HMM, Section 2.1) -> network-constrained uncertain trajectories ->
// UTCQ compression -> *a real on-disk archive* -> reopen -> queries. This is
// the full life of a trajectory as the paper's compress-once/query-many
// premise describes it: the compressor and the original corpus are gone by
// the time the queries run; only the road network and the archive file
// survive.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/utcq.h"
#include "matching/hmm_matcher.h"
#include "network/generator.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "traj/statistics.h"

int main() {
  using namespace utcq;  // NOLINT

  common::Rng rng(31);
  traj::DatasetProfile profile = traj::ChengduProfile();
  profile.gps_noise_m = 25.0;  // deliberately noisy receivers
  network::CityParams city = profile.city;
  city.rows = 20;
  city.cols = 20;
  const network::RoadNetwork net = network::GenerateCity(rng, city);
  const network::GridIndex grid(net, 24);

  // --- probabilistic map matching of raw traces ---
  traj::UncertainTrajectoryGenerator gen(net, profile, 3);
  matching::MatchParams mparams;
  mparams.gps_sigma_m = 25.0;
  mparams.max_instances = 8;
  const matching::HmmMatcher matcher(net, grid, mparams);

  traj::UncertainCorpus corpus;
  size_t raw_points = 0;
  size_t failures = 0;
  uint64_t next_id = 0;
  while (corpus.size() < 300) {
    const auto trace = gen.GenerateRaw();
    raw_points += trace.raw.size();
    auto tu = matcher.Match(trace.raw);
    if (!tu.has_value() || traj::Validate(net, *tu) != "") {
      ++failures;
      if (failures > 2000) break;
      continue;
    }
    tu->id = next_id++;
    corpus.push_back(std::move(*tu));
  }
  if (corpus.empty()) return 1;
  const auto summary = traj::Summarize(net, corpus);
  std::printf(
      "matched %zu traces (%zu raw fixes, %zu rejected); avg %.1f instances "
      "per trace — the uncertainty the matcher exposes\n",
      corpus.size(), raw_points, failures, summary.avg_instances);

  // Remember a query the archived corpus must still answer later.
  const auto t_mid = (corpus[0].times.front() + corpus[0].times.back()) / 2;

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/gps_corpus.utcq";

  // --- compress + save; compressor, index and corpus all die with this
  // scope, so everything after it runs purely off the file ---
  {
    core::UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    const core::UtcqSystem sys(net, grid, corpus, params,
                               core::StiuParams{24, 1800});
    std::printf("%s\n", core::FormatReport("compress", sys.report()).c_str());

    std::string error;
    if (!archive::ArchiveWriter(sys.compressed(), sys.index().params())
             .Save(path, &error)) {
      std::fprintf(stderr, "save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("archived %zu trajectories to %s\n", corpus.size(),
                path.c_str());
  }

  // --- reopen from disk and query ---
  archive::ArchiveReader reader;
  std::string error;
  if (!reader.Open(path, &error)) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  const network::GridIndex query_grid(net, reader.index_cells_per_side());
  const auto index = reader.LoadIndex(query_grid, &error);
  if (index == nullptr) {
    std::fprintf(stderr, "index load failed: %s\n", error.c_str());
    return 1;
  }
  const core::UtcqQueryProcessor queries(net, reader.view(), *index);

  // Where was trace 0 halfway through its trip, per instance?
  const auto hits = queries.Where(0, t_mid, 0.0);
  std::printf("trace 0 at t=%lld (from the reopened archive): %zu possible "
              "positions\n",
              static_cast<long long>(t_mid), hits.size());
  for (const auto& hit : hits) {
    std::printf("  p=%.3f edge=%u ndist=%.1f m\n", hit.probability,
                hit.position.edge, hit.position.ndist);
  }

  // And when did it pass the first of those positions?
  if (!hits.empty()) {
    const auto& pos = hits.front().position;
    const double rd = pos.ndist / net.edge(pos.edge).length;
    const auto whens = queries.When(0, pos.edge, rd, 0.0);
    std::printf("trace 0 passed edge %u at %zu candidate times\n", pos.edge,
                whens.size());
  }

  std::remove(path.c_str());
  return hits.empty() ? 1 : 0;
}
