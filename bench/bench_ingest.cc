// Streaming-ingestion benchmark: raw GPS points through the
// ingest::StreamingService — online matching throughput (points/sec), seal
// latency percentiles, flush cost, and live-vs-sealed query throughput
// through a serve::QueryEngine over the tier.
//
// Emits BENCH_ingest.json, the baseline of the streaming tier, validated
// by scripts/validate_bench_json.py in CI next to BENCH_shard.json and
// BENCH_query.json. The equivalence gate runs first: live answers, sealed
// answers and the batch build of the same sealed trajectories must agree
// hit for hit before any throughput number means anything.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/encoder.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "core/stiu_index.h"
#include "ingest/streaming_service.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"

namespace {

using namespace utcq;         // NOLINT
using namespace utcq::bench;  // NOLINT

double SafeRate(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t k = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[k];
}

struct QueryRun {
  std::string mode;
  double seconds = 0.0;
  double qps = 0.0;
  size_t queries = 0;
};

/// Mixed point+range workload over the sealed corpus, executed through the
/// engine; also used for the equivalence gate against the batch build.
struct WorkItem {
  uint32_t traj;
  traj::Timestamp t;
  network::EdgeId edge;
  network::Rect region;
};

}  // namespace

int main(int argc, char** argv) {
  const long requested = argc > 1 ? std::atol(argv[1]) : 0;
  if (argc > 1 && requested <= 0) {
    std::fprintf(stderr, "usage: %s [raw streams > 0]\n", argv[0]);
    return 2;
  }
  const size_t streams = argc > 1 ? static_cast<size_t>(requested)
                                  : TrajectoryCount(300);

  auto profile = traj::ChengduProfile();
  profile.gps_noise_m = 10.0;
  common::Rng net_rng(100);
  network::CityParams city = profile.city;
  city.rows = 20;
  city.cols = 20;
  const network::RoadNetwork net = network::GenerateCity(net_rng, city);
  const network::GridIndex grid(net, 24);
  traj::UncertainTrajectoryGenerator gen(net, profile, 7);

  std::vector<traj::RawTrajectory> raws;
  size_t points = 0;
  for (size_t i = 0; i < streams; ++i) {
    raws.push_back(gen.GenerateRaw().raw);
    points += raws.back().size();
  }

  // One registry for the whole streaming tier: its snapshot (ingest.*
  // counters, seal/flush histograms) becomes the baseline's metrics
  // object.
  obs::MetricRegistry metrics_registry;
  ingest::StreamingOptions opts;
  opts.registry = &metrics_registry;
  opts.match.match.gps_sigma_m = 15.0;
  opts.match.max_pending_steps = 32;
  opts.limits.max_points = 512;
  opts.params.default_interval_s = profile.default_interval_s;
  opts.index_params = core::StiuParams{24, 1800};

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string manifest =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/bench_ingest.utcq";
  std::remove(manifest.c_str());

  ingest::StreamingService service(net, grid, manifest, opts);
  std::string error;
  if (!service.Open(&error)) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }

  // --- ingest: every point through the online matcher, round-robin over
  // the vehicles, sessions ended (and sealed) per vehicle with the seal
  // latency sampled on each end ---------------------------------------------
  common::Stopwatch watch;
  size_t cursor = 0;
  bool more = true;
  while (more) {
    more = false;
    for (size_t v = 0; v < raws.size(); ++v) {
      if (cursor < raws[v].size()) {
        service.Push(v, raws[v][cursor]);
        more = more || cursor + 1 < raws[v].size();
      }
    }
    ++cursor;
  }
  std::vector<double> seal_ms;
  seal_ms.reserve(raws.size());
  for (size_t v = 0; v < raws.size(); ++v) {
    common::Stopwatch seal_watch;
    service.EndSession(v);
    seal_ms.push_back(seal_watch.ElapsedMillis());
  }
  const double ingest_seconds = watch.ElapsedSeconds();
  const auto stats = service.stats();
  const double points_per_sec =
      SafeRate(static_cast<double>(points), ingest_seconds);
  std::printf(
      "ingested %zu points of %zu streams in %.3fs (%.0f points/s), "
      "sealed %llu trajectories\n",
      points, streams, ingest_seconds, points_per_sec,
      static_cast<unsigned long long>(stats.trajectories_sealed));
  const double seal_p50 = Percentile(seal_ms, 0.50);
  const double seal_p99 = Percentile(seal_ms, 0.99);
  std::printf("seal latency: p50 %.3f ms, p99 %.3f ms\n", seal_p50, seal_p99);

  // --- batch ground truth over the sealed trajectories ---------------------
  const traj::UncertainCorpus corpus = service.LiveTrajectories();
  if (corpus.size() < 2) {
    std::fprintf(stderr, "too few matched trajectories (%zu)\n",
                 corpus.size());
    return 1;
  }
  const core::UtcqCompressor compressor(net, opts.params);
  std::vector<std::vector<core::NrefFactorLayout>> layouts;
  const core::CompressedCorpus batch_cc = compressor.Compress(corpus, &layouts);
  core::StiuParams iparams = opts.index_params;
  iparams.cells_per_side = grid.cells_per_side();
  const core::StiuIndex batch_index(net, grid, corpus, batch_cc.view(),
                                    layouts, iparams);
  const core::UtcqQueryProcessor batch(net, batch_cc.view(), batch_index);

  const double alpha = 0.3;
  const auto bbox = net.bounding_box();
  common::Rng rng(17);
  std::vector<WorkItem> work;
  for (size_t i = 0; i < 512; ++i) {
    const auto j = static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const auto& path = tu.instances.front().path;
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    work.push_back(
        {j, rng.UniformInt(tu.times.front(), tu.times.back()),
         path[static_cast<size_t>(rng.UniformInt(0, path.size() - 1))],
         {cx - 500, cy - 500, cx + 500, cy + 500}});
  }

  // --- equivalence gate: live == batch ------------------------------------
  size_t mismatches = 0;
  {
    serve::QueryEngine gate(service);
    for (size_t i = 0; i < std::min<size_t>(work.size(), 64); ++i) {
      const WorkItem& q = work[i];
      if (gate.Where(q.traj, q.t, alpha) != batch.Where(q.traj, q.t, alpha)) {
        ++mismatches;
      }
      if (gate.When(q.traj, q.edge, 0.5, alpha) !=
          batch.When(q.traj, q.edge, 0.5, alpha)) {
        ++mismatches;
      }
      if (gate.Range(q.region, q.t, alpha) !=
          batch.Range(q.region, q.t, alpha)) {
        ++mismatches;
      }
    }
  }

  // --- live vs sealed query throughput ------------------------------------
  const auto run_queries = [&](const std::string& mode) {
    QueryRun run;
    run.mode = mode;
    serve::QueryEngine engine(service);
    common::Stopwatch qwatch;
    for (const WorkItem& q : work) {
      engine.Where(q.traj, q.t, alpha);
      engine.When(q.traj, q.edge, 0.5, alpha);
      engine.Range(q.region, q.t, alpha);
    }
    run.seconds = qwatch.ElapsedSeconds();
    run.queries = 3 * work.size();
    run.qps = SafeRate(static_cast<double>(run.queries), run.seconds);
    std::printf("%s: %zu queries in %.3fs (%.0f qps)\n", mode.c_str(),
                run.queries, run.seconds, run.qps);
    return run;
  };

  std::vector<QueryRun> query_runs;
  query_runs.push_back(run_queries("live"));

  watch.Restart();
  if (!service.Flush(&error)) {
    std::fprintf(stderr, "flush failed: %s\n", error.c_str());
    return 1;
  }
  const double flush_seconds = watch.ElapsedSeconds();
  std::printf("flushed %zu trajectories in %.3fs\n", corpus.size(),
              flush_seconds);

  query_runs.push_back(run_queries("sealed"));

  // Sealed answers must agree with batch too (same gate, post-flush).
  {
    serve::QueryEngine gate(service);
    for (size_t i = 0; i < std::min<size_t>(work.size(), 64); ++i) {
      const WorkItem& q = work[i];
      if (gate.Where(q.traj, q.t, alpha) != batch.Where(q.traj, q.t, alpha)) {
        ++mismatches;
      }
    }
  }
  std::printf("equivalence: %zu mismatches (expected 0)\n", mismatches);

  const double sealed_over_live =
      SafeRatio(query_runs[1].qps, query_runs[0].qps);

  std::FILE* json = std::fopen("BENCH_ingest.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ingest.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"ingest\",\n");
  std::fprintf(json, "  \"raw_streams\": %zu,\n", streams);
  std::fprintf(json, "  \"points\": %zu,\n", points);
  std::fprintf(json, "  \"matched_trajectories\": %zu,\n", corpus.size());
  std::fprintf(json, "  \"threads_available\": %u,\n",
               common::DefaultThreads());
  std::fprintf(json, "  \"equivalence_mismatches\": %zu,\n", mismatches);
  std::fprintf(json, "  \"ingest_seconds\": %.6f,\n", ingest_seconds);
  std::fprintf(json, "  \"points_per_sec\": %.3f,\n", points_per_sec);
  std::fprintf(json, "  \"seal_p50_ms\": %.4f,\n", seal_p50);
  std::fprintf(json, "  \"seal_p99_ms\": %.4f,\n", seal_p99);
  std::fprintf(json, "  \"flush_seconds\": %.6f,\n", flush_seconds);
  std::fprintf(json, "  \"sealed_over_live\": %.4f,\n", sealed_over_live);
  std::fprintf(json, "  \"query_runs\": [\n");
  for (size_t i = 0; i < query_runs.size(); ++i) {
    const QueryRun& r = query_runs[i];
    std::fprintf(json,
                 "    {\"mode\": \"%s\", \"seconds\": %.6f, \"qps\": %.3f, "
                 "\"queries\": %zu}%s\n",
                 r.mode.c_str(), r.seconds, r.qps, r.queries,
                 i + 1 < query_runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  AppendMetricsJson(json, metrics_registry.Snapshot());
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_ingest.json\n");

  for (uint32_t g = 0; g < service.num_generations(); ++g) {
    std::remove(shard::ShardArchivePath(manifest, g).c_str());
  }
  std::remove(manifest.c_str());
  return mismatches == 0 ? 0 : 1;
}
