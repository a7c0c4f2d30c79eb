// Query-serving scenario: an archive of compressed uncertain trajectories
// answers probabilistic where / when / range queries online — through
// serve::QueryEngine, the recommended read path: it batches requests,
// amortizes decodes across repeated accesses via the decoded-trajectory
// cache, and stays hit-for-hit identical to the raw query processors
// (spot-checked against the uncompressed PlainQueryEngine at the end).

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "serve/query_engine.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "verify/plain_query.h"

int main() {
  using namespace utcq;  // NOLINT

  common::Rng rng(5);
  const traj::DatasetProfile profile = traj::DenmarkProfile();
  network::CityParams city = profile.city;
  city.rows = 28;
  city.cols = 28;
  const network::RoadNetwork net = network::GenerateCity(rng, city);
  traj::UncertainTrajectoryGenerator gen(net, profile, 11);
  const traj::UncertainCorpus corpus = gen.GenerateCorpus(1000);

  core::UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  params.num_pivots = 2;
  const network::GridIndex grid(net, 32);
  const core::UtcqSystem sys(net, grid, corpus, params,
                             core::StiuParams{32, 1200});
  std::printf("%s\n", core::FormatReport("archive", sys.report()).c_str());

  // --- the serving layer over the compressed corpus ---
  serve::EngineOptions eopts;
  eopts.cache_budget_bytes = 64ull << 20;
  serve::QueryEngine engine(sys.queries(), eopts);

  // --- a mixed query batch, built once, executed through ExecuteBatch:
  // requests for the same trajectory share one decode ---
  common::Rng qrng(17);
  const auto bbox = net.bounding_box();
  std::vector<serve::QueryRequest> requests;
  for (int i = 0; i < 400; ++i) {
    const auto j =
        static_cast<uint32_t>(qrng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const auto t =
        tu.times.front() +
        qrng.UniformInt(0, std::max<int64_t>(
                               tu.times.back() - tu.times.front(), 1));
    requests.push_back(serve::QueryRequest::MakeWhere(j, t, 0.3));

    const auto& inst = tu.instances[static_cast<size_t>(
        qrng.UniformInt(0, tu.instances.size() - 1))];
    const auto& loc = inst.locations[static_cast<size_t>(
        qrng.UniformInt(0, inst.locations.size() - 1))];
    requests.push_back(serve::QueryRequest::MakeWhen(
        j, inst.path[loc.path_index], loc.rd, 0.3));

    const double cx = qrng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = qrng.Uniform(bbox.min_y, bbox.max_y);
    requests.push_back(serve::QueryRequest::MakeRange(
        {cx - 400, cy - 400, cx + 400, cy + 400}, t, 0.5));
  }

  common::Stopwatch watch;
  const auto results = engine.ExecuteBatch(requests);
  const double batch_ms = watch.ElapsedMillis();

  size_t where_hits = 0;
  size_t when_hits = 0;
  size_t range_hits = 0;
  for (const auto& r : results) {
    where_hits += r.where.size();
    when_hits += r.when.size();
    range_hits += r.range.size();
  }
  std::printf("%zu queries in %.1f ms (%.1f us/query, batched)\n",
              requests.size(), batch_ms,
              batch_ms * 1000.0 / static_cast<double>(requests.size()));
  std::printf("hits: where=%zu when=%zu range=%zu\n", where_hits, when_hits,
              range_hits);

  // Re-run the same requests one at a time against the warm cache.
  watch.Restart();
  for (const auto& req : requests) engine.Execute(req);
  const double warm_ms = watch.ElapsedMillis();
  const auto stats = engine.stats();
  std::printf(
      "warm re-run: %.1f ms; cache: %.1f%% hit rate, %zu resident entries "
      "(%.1f MiB), p50 %.1f us, p99 %.1f us\n",
      warm_ms, 100.0 * stats.hit_rate(), stats.cache_resident_entries,
      static_cast<double>(stats.cache_resident_bytes) / (1024.0 * 1024.0),
      stats.p50_latency_us, stats.p99_latency_us);

  // --- spot-check against the uncompressed ground truth ---
  const verify::PlainQueryEngine plain(net, corpus);
  size_t agree = 0;
  for (int i = 0; i < 50; ++i) {
    const size_t j =
        static_cast<size_t>(qrng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const auto t =
        tu.times.front() +
        qrng.UniformInt(0, std::max<int64_t>(
                               tu.times.back() - tu.times.front(), 1));
    if (engine.Where(static_cast<uint32_t>(j), t, 0.3).size() ==
        plain.Where(j, t, 0.3).size()) {
      ++agree;
    }
  }
  std::printf("ground-truth agreement on 50 where queries: %zu/50\n", agree);
  return agree == 50 ? 0 : 1;
}
