// Fleet archival scenario (the paper's motivating workload): a day of
// uncertain taxi trajectories is archived. Compares UTCQ against the TED
// baseline on the same corpus — compression ratio per component, time and
// peak working set — shows that decompression is faithful, and then scales
// the build: the same fleet compressed through the sharded parallel
// pipeline into a multi-file archive set, reopened, and queried.

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/decoder.h"
#include "core/utcq.h"
#include "network/csv_io.h"
#include "network/generator.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "ted/ted_compress.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "traj/statistics.h"

int main(int argc, char** argv) {
  using namespace utcq;  // NOLINT
  const size_t fleet = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 2000;

  common::Rng rng(99);
  const traj::DatasetProfile profile = traj::HangzhouProfile();
  network::CityParams city = profile.city;
  city.rows = 32;
  city.cols = 32;
  const network::RoadNetwork net = network::GenerateCity(rng, city);
  network::SaveCsv(net, "/tmp/utcq_fleet_network");  // reusable via LoadCsv

  traj::UncertainTrajectoryGenerator gen(net, profile, 2024);
  const traj::UncertainCorpus corpus = gen.GenerateCorpus(fleet);
  const auto summary = traj::Summarize(net, corpus);
  std::printf(
      "fleet: %zu uncertain trajectories, avg %.1f instances (max %zu), "
      "avg %.1f edges, raw %.2f MiB\n",
      summary.trajectories, summary.avg_instances, summary.max_instances,
      summary.avg_edges, summary.raw_bytes / (1024.0 * 1024.0));

  const auto raw = traj::MeasureRawSize(net, corpus);

  // --- UTCQ ---
  core::UtcqParams uparams;
  uparams.default_interval_s = profile.default_interval_s;
  uparams.eta_p = profile.eta_p;
  common::Stopwatch uw;
  core::UtcqCompressor ucomp(net, uparams);
  const auto cc = ucomp.Compress(corpus);
  const auto ureport = core::MakeReport(raw, cc.compressed_bits(),
                                        uw.ElapsedSeconds(),
                                        cc.peak_memory_bytes());
  std::printf("%s\n", core::FormatReport("UTCQ", ureport).c_str());

  // StIU build for the unsharded corpus: the sharded pipeline below builds
  // per-shard indexes as part of its timing, so the fair single-threaded
  // baseline is compression + index, not compression alone.
  const network::GridIndex grid(net, 32);
  common::Stopwatch iw;
  const core::StiuIndex uindex(grid, corpus, cc, core::StiuParams{32, 1800});
  const double unsharded_seconds = ureport.seconds + iw.ElapsedSeconds();

  // --- TED baseline ---
  ted::TedParams tparams;
  tparams.eta_p = profile.eta_p;
  common::Stopwatch tw;
  ted::TedCompressor tcomp(net, tparams);
  const auto tc = tcomp.Compress(corpus);
  const auto treport = core::MakeReport(raw, tc.compressed_bits(),
                                        tw.ElapsedSeconds(),
                                        tc.peak_memory_bytes());
  std::printf("%s\n", core::FormatReport("TED ", treport).c_str());
  std::printf("UTCQ/TED compression-ratio advantage: %.2fx; memory: %.1fx\n",
              ureport.total / treport.total,
              static_cast<double>(treport.peak_memory_bytes) /
                  static_cast<double>(ureport.peak_memory_bytes));

  // --- fidelity: decompress everything and verify paths are lossless ---
  core::UtcqDecoder decoder(net, cc);
  const auto rebuilt = decoder.DecompressAll();
  size_t mismatches = 0;
  for (size_t j = 0; j < corpus.size(); ++j) {
    for (size_t w = 0; w < corpus[j].instances.size(); ++w) {
      if (rebuilt[j].instances[w].path != corpus[j].instances[w].path) {
        ++mismatches;
      }
    }
  }
  std::printf("decompression check: %zu path mismatches (expected 0)\n",
              mismatches);
  if (mismatches != 0) return 1;

  // --- sharded parallel pipeline: same fleet, 8 shards on all cores ---
  shard::ShardOptions sopts;
  sopts.num_shards = 8;
  const shard::ShardedCompressor scomp(net, grid, uparams,
                                       core::StiuParams{32, 1800}, sopts);
  common::Stopwatch sw;
  const shard::ShardedBuild build = scomp.Compress(corpus);
  const double sharded_seconds = sw.ElapsedSeconds();
  const bool same_bits = build.total_bits() == cc.total_bits();
  std::printf(
      "sharded build: %u shards on %u threads in %.3fs (%.2fx vs "
      "single-threaded compress+index; same payload bits: %s)\n",
      build.plan.num_shards(), common::DefaultThreads(), sharded_seconds,
      unsharded_seconds / sharded_seconds, same_bits ? "yes" : "NO");
  if (!same_bits) return 1;

  const std::string manifest = "/tmp/utcq_fleet_set.utcq";
  std::string error;
  if (!build.Save(manifest, &error)) {
    std::fprintf(stderr, "archive-set save failed: %s\n", error.c_str());
    return 1;
  }
  shard::ShardedCorpus sharded;
  if (!sharded.Open(net, manifest, &error)) {
    std::fprintf(stderr, "archive-set open failed: %s\n", error.c_str());
    return 1;
  }
  const auto bbox = net.bounding_box();
  const network::Rect downtown{
      bbox.min_x + 0.25 * (bbox.max_x - bbox.min_x),
      bbox.min_y + 0.25 * (bbox.max_y - bbox.min_y),
      bbox.min_x + 0.75 * (bbox.max_x - bbox.min_x),
      bbox.min_y + 0.75 * (bbox.max_y - bbox.min_y)};
  const auto rush = (corpus[0].times.front() + corpus[0].times.back()) / 2;
  const auto in_range = sharded.Range(downtown, rush, 0.3);
  std::printf(
      "reopened archive set (%zu shards, %zu trajectories); fan-out range "
      "query over downtown at t=%lld: %zu trajectories\n",
      sharded.num_shards(), sharded.num_trajectories(),
      static_cast<long long>(rush), in_range.size());

  // --- query serving: the same fan-out through the cached engine ---------
  // Repeated range queries re-decode their candidates from the bitstreams
  // every time on the uncached path; the engine decodes each trajectory
  // once into its LRU cache and serves the rest from memory.
  constexpr int kReps = 20;
  common::Stopwatch uncached_watch;
  for (int rep = 0; rep < kReps; ++rep) {
    if (sharded.Range(downtown, rush, 0.3) != in_range) return 1;
  }
  const double uncached_s = uncached_watch.ElapsedSeconds();

  serve::QueryEngine engine(sharded);
  if (engine.Range(downtown, rush, 0.3) != in_range) return 1;  // cold fill
  common::Stopwatch cached_watch;
  for (int rep = 0; rep < kReps; ++rep) {
    if (engine.Range(downtown, rush, 0.3) != in_range) return 1;
  }
  const double cached_s = cached_watch.ElapsedSeconds();
  const auto estats = engine.stats();
  std::printf(
      "cached engine: %d warm fan-out range queries in %.3fs vs %.3fs "
      "uncached (%.1fx); hit rate %.3f, %zu trajectories resident "
      "(%.1f MiB), p50 %.0fus p99 %.0fus\n",
      kReps, cached_s, uncached_s,
      cached_s > 0.0 ? uncached_s / cached_s : 0.0, estats.hit_rate(),
      estats.cache_resident_entries,
      static_cast<double>(estats.cache_resident_bytes) / (1024.0 * 1024.0),
      estats.p50_latency_us, estats.p99_latency_us);

  for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
    std::remove(shard::ShardArchivePath(manifest, s).c_str());
  }
  std::remove(manifest.c_str());
  return 0;
}
