// Streaming ingestion subsystem: online sessions seal into a live shard,
// the flusher freezes generations into an append-log archive set, and a
// QueryEngine over the tier answers across live + sealed. The load-bearing
// pins: (1) stream-then-flush equals batch — the flushed archive is byte-
// identical to batch compression of the same sealed trajectories, and
// every query answers identically; (2) a crash injected between archive
// write and manifest swap leaves the on-disk set exactly pre-flush, never
// torn; (3) ingest, flush and queries can race without tearing a snapshot.

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/encoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "ingest/streaming_service.h"
#include "matching/online_viterbi.h"
#include "network/generator.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::ingest {
namespace {

struct IngestFixture {
  IngestFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    grid = std::make_unique<network::GridIndex>(net, 16);

    auto gen_profile = profile;
    gen_profile.gps_noise_m = 8.0;
    gen = std::make_unique<traj::UncertainTrajectoryGenerator>(
        net, gen_profile, 909);

    opts.match.match.gps_sigma_m = 15.0;
    opts.match.match.max_instances = 6;
    opts.match.max_pending_steps = 0;  // batch-equal matching by default
    opts.limits.max_points = 400;
    opts.limits.idle_timeout_s = 300;
    opts.params.default_interval_s = profile.default_interval_s;
    opts.index_params = core::StiuParams{16, 900};
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  static void Cleanup(const std::string& manifest, size_t generations) {
    for (uint32_t g = 0; g < generations; ++g) {
      std::remove(shard::ShardArchivePath(manifest, g).c_str());
    }
    std::remove(manifest.c_str());
  }

  /// Pushes each raw stream as its own vehicle, round-robin across
  /// vehicles (the realistic interleaving), then ends the sessions in
  /// vehicle order. Returns the number of trajectories sealed.
  size_t IngestRaws(StreamingService& svc,
                    const std::vector<traj::RawTrajectory>& raws,
                    uint64_t first_vehicle = 0) const {
    size_t cursor = 0;
    bool more = true;
    while (more) {
      more = false;
      for (size_t v = 0; v < raws.size(); ++v) {
        if (cursor < raws[v].size()) {
          svc.Push(first_vehicle + v, raws[v][cursor]);
          more = more || cursor + 1 < raws[v].size();
        }
      }
      ++cursor;
    }
    size_t sealed = 0;
    for (size_t v = 0; v < raws.size(); ++v) {
      sealed += svc.EndSession(first_vehicle + v);
    }
    return sealed;
  }

  std::vector<traj::RawTrajectory> MakeRaws(size_t count) {
    std::vector<traj::RawTrajectory> raws;
    for (size_t i = 0; i < count; ++i) {
      raws.push_back(gen->GenerateRaw().raw);
    }
    return raws;
  }

  /// Batch ground truth over a trajectory list: the same compression and
  /// index parameters the live shard and flusher use.
  struct Batch {
    core::CompressedCorpus cc;
    std::unique_ptr<core::StiuIndex> index;
    std::unique_ptr<core::UtcqQueryProcessor> queries;
  };
  std::unique_ptr<Batch> CompressBatch(
      const traj::UncertainCorpus& corpus) const {
    auto batch = std::make_unique<Batch>();
    const core::UtcqCompressor compressor(net, opts.params);
    batch->cc = compressor.Compress(corpus);
    core::StiuParams iparams = opts.index_params;
    iparams.cells_per_side = grid->cells_per_side();
    batch->index = std::make_unique<core::StiuIndex>(
        *grid, corpus, batch->cc.view(), iparams);
    batch->queries = std::make_unique<core::UtcqQueryProcessor>(
        net, batch->cc.view(), *batch->index);
    return batch;
  }

  /// Mixed workload over `corpus`, answered through `engine` and compared
  /// hit-for-hit against the batch processor. Returns mismatches.
  size_t CompareWorkload(serve::QueryEngine& engine,
                         const core::UtcqQueryProcessor& batch,
                         const traj::UncertainCorpus& corpus, size_t count,
                         uint64_t seed) const {
    common::Rng rng(seed);
    const auto bbox = net.bounding_box();
    size_t mismatches = 0;
    for (size_t i = 0; i < count; ++i) {
      const auto j =
          static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
      const auto& tu = corpus[j];
      const double alpha = rng.Uniform(0.1, 0.6);
      const auto t = rng.UniformInt(tu.times.front(), tu.times.back());
      if (engine.Where(j, t, alpha) != batch.Where(j, t, alpha)) {
        ++mismatches;
      }
      const auto& path = tu.instances.front().path;
      const network::EdgeId edge =
          path[static_cast<size_t>(rng.UniformInt(0, path.size() - 1))];
      const double rd = rng.Uniform(0.0, 1.0);
      if (engine.When(j, edge, rd, alpha) != batch.When(j, edge, rd, alpha)) {
        ++mismatches;
      }
      const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
      const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
      const network::Rect re{cx - 600, cy - 600, cx + 600, cy + 600};
      if (engine.Range(re, t, alpha) != batch.Range(re, t, alpha)) {
        ++mismatches;
      }
    }
    return mismatches;
  }

  network::RoadNetwork net;
  std::unique_ptr<network::GridIndex> grid;
  std::unique_ptr<traj::UncertainTrajectoryGenerator> gen;
  StreamingOptions opts;
};

IngestFixture& Fixture() {
  static IngestFixture* fixture = new IngestFixture();
  return *fixture;
}

TEST(OnlineViterbi, BoundedLagCommitsAndStaysValid) {
  IngestFixture& f = Fixture();
  matching::OnlineMatchParams params;
  params.match = f.opts.match.match;
  params.max_pending_steps = 4;
  matching::OnlineViterbi viterbi(f.net, *f.grid, params);

  common::Rng pick(3);
  size_t max_pending = 0;
  size_t accepted = 0;
  traj::RawTrajectory raw;
  for (int trial = 0; trial < 6 && raw.size() < 24; ++trial) {
    raw = f.gen->GenerateRaw().raw;
  }
  ASSERT_GE(raw.size(), 10u);
  for (const auto& p : raw) {
    const auto r = viterbi.Append(p);
    if (r.status == matching::AppendStatus::kAccepted) ++accepted;
    max_pending = std::max(max_pending, viterbi.pending_steps());
    EXPECT_LE(viterbi.pending_steps(), params.max_pending_steps);
  }
  ASSERT_GE(accepted, 8u);
  // The lag bound forced/let the matcher commit a prefix long before the
  // stream ended.
  EXPECT_GT(viterbi.committed_points(), 0u);
  const auto tu = viterbi.Finish();
  ASSERT_TRUE(tu.has_value());
  EXPECT_EQ(traj::Validate(f.net, *tu), "");
  EXPECT_EQ(tu->times.size(), accepted);
}

TEST(StreamingService, SealsOnMaxLengthIdleTimeoutAndExplicitEnd) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_seal.utcq");
  auto opts = f.opts;
  opts.limits.max_points = 12;
  StreamingService svc(f.net, *f.grid, path, opts);
  std::string error;
  ASSERT_TRUE(svc.Open(&error)) << error;

  // Long stream on one vehicle: max-length seals fire mid-stream.
  traj::RawTrajectory raw;
  traj::Timestamp shift = 0;
  for (int i = 0; i < 3; ++i) {
    auto piece = f.gen->GenerateRaw().raw;
    traj::Timestamp base =
        raw.empty() ? 0 : raw.back().t + 10 - piece.front().t;
    // Stitch pieces into one long in-order stream (gaps under max_gap_s).
    for (auto p : piece) {
      p.t += base + shift;
      raw.push_back(p);
    }
  }
  for (const auto& p : raw) svc.Push(7, p);
  const auto mid_stats = svc.stats();
  EXPECT_GT(mid_stats.trajectories_sealed, 0u)
      << "max-length must seal while the session stays open";
  EXPECT_EQ(svc.open_sessions(), 1u);

  // Idle timeout: the stream goes silent, the sweeper seals and closes.
  const size_t sealed_before = svc.stats().trajectories_sealed;
  svc.AdvanceTime(raw.back().t + opts.limits.idle_timeout_s + 1);
  EXPECT_EQ(svc.open_sessions(), 0u);
  EXPECT_GE(svc.stats().sessions_closed, 1u);
  (void)sealed_before;

  // Explicit end on a fresh short session.
  auto raw2 = f.gen->GenerateRaw().raw;
  for (const auto& p : raw2) svc.Push(8, p);
  EXPECT_EQ(svc.open_sessions(), 1u);
  svc.EndSession(8);
  EXPECT_EQ(svc.open_sessions(), 0u);

  // Every sealed trajectory is structurally valid.
  for (const auto& tu : svc.LiveTrajectories()) {
    EXPECT_EQ(traj::Validate(f.net, tu), "");
  }
  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, GapBreaksSealMidStream) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_gap.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  ASSERT_TRUE(svc.Open());

  traj::RawTrajectory raw;
  for (int trial = 0; trial < 6 && raw.size() < 12; ++trial) {
    raw = f.gen->GenerateRaw().raw;
  }
  ASSERT_GE(raw.size(), 12u);
  // Two hours of silence mid-trip.
  for (size_t i = raw.size() / 2; i < raw.size(); ++i) raw[i].t += 7200;
  for (const auto& p : raw) svc.Push(1, p);
  const auto stats = svc.stats();
  EXPECT_GE(stats.segment_breaks, 1u);
  EXPECT_GE(stats.trajectories_sealed, 1u)
      << "the pre-gap half must have been sealed by the break";
  svc.EndSession(1);
  for (const auto& tu : svc.LiveTrajectories()) {
    EXPECT_EQ(traj::Validate(f.net, tu), "");
    // No sealed trajectory spans the gap.
    EXPECT_TRUE(tu.times.back() <= raw[raw.size() / 2 - 1].t ||
                tu.times.front() >= raw[raw.size() / 2].t);
  }
  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, StreamThenFlushEqualsBatchBitExactly) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_equals_batch.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  std::string error;
  ASSERT_TRUE(svc.Open(&error)) << error;

  const auto raws = f.MakeRaws(10);
  const size_t sealed = f.IngestRaws(svc, raws);
  ASSERT_GE(sealed, 6u);
  const traj::UncertainCorpus corpus = svc.LiveTrajectories();
  ASSERT_EQ(corpus.size(), svc.num_live());
  const auto batch = f.CompressBatch(corpus);

  // --- pre-flush: the live tail answers exactly like the batch build ---
  serve::QueryEngine live_engine(svc);
  EXPECT_EQ(live_engine.num_trajectories(), corpus.size());
  EXPECT_EQ(f.CompareWorkload(live_engine, *batch->queries, corpus, 40, 11),
            0u);

  // --- flush, then: the archive generation is byte-identical to batch
  // compression of the same sealed trajectories ---
  ASSERT_TRUE(svc.Flush(&error)) << error;
  EXPECT_EQ(svc.num_live(), 0u);
  EXPECT_EQ(svc.num_sealed(), corpus.size());
  EXPECT_EQ(svc.num_generations(), 1u);

  std::vector<uint8_t> flushed_bytes;
  ASSERT_TRUE(archive::ReadFileBytes(shard::ShardArchivePath(path, 0),
                                     &flushed_bytes, &error))
      << error;
  const std::vector<uint8_t> batch_bytes =
      archive::ArchiveWriter(batch->cc, batch->index->params()).Serialize();
  EXPECT_EQ(flushed_bytes, batch_bytes)
      << "stream-then-flush must equal batch compression bit for bit";

  // --- post-flush: the sealed set still answers identically ---
  serve::QueryEngine sealed_engine(svc);
  EXPECT_EQ(f.CompareWorkload(sealed_engine, *batch->queries, corpus, 40, 12),
            0u);

  // --- restart: a fresh service over the same manifest serves the same ---
  StreamingService reopened(f.net, *f.grid, path, f.opts);
  ASSERT_TRUE(reopened.Open(&error)) << error;
  EXPECT_EQ(reopened.num_sealed(), corpus.size());
  serve::QueryEngine reopened_engine(reopened);
  EXPECT_EQ(
      f.CompareWorkload(reopened_engine, *batch->queries, corpus, 40, 13),
      0u);

  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, LivePlusSealedMergeAnswersAcrossBothTiers) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_mixed.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  std::string error;
  ASSERT_TRUE(svc.Open(&error)) << error;

  // Generation 0 sealed on disk, a second wave left live.
  const auto first = f.MakeRaws(6);
  ASSERT_GE(f.IngestRaws(svc, first, 0), 4u);
  traj::UncertainCorpus combined = svc.LiveTrajectories();
  ASSERT_TRUE(svc.Flush(&error)) << error;
  const auto second = f.MakeRaws(5);
  ASSERT_GE(f.IngestRaws(svc, second, 100), 3u);
  for (const auto& tu : svc.LiveTrajectories()) combined.push_back(tu);

  ASSERT_GT(svc.num_sealed(), 0u);
  ASSERT_GT(svc.num_live(), 0u);
  ASSERT_EQ(combined.size(), svc.num_trajectories());
  // Ids were assigned at seal time and survive the flush: combined[j] is
  // global id j.
  for (size_t j = 0; j < combined.size(); ++j) {
    EXPECT_EQ(combined[j].id, j);
  }

  const auto batch = f.CompressBatch(combined);
  serve::QueryEngine engine(svc);
  EXPECT_EQ(engine.num_trajectories(), combined.size());
  EXPECT_EQ(f.CompareWorkload(engine, *batch->queries, combined, 60, 21),
            0u);

  // Flushing the live tail must not change a single answer (same engine,
  // same cache, new tier split mid-test).
  ASSERT_TRUE(svc.Flush(&error)) << error;
  EXPECT_EQ(svc.num_live(), 0u);
  EXPECT_EQ(svc.num_generations(), 2u);
  EXPECT_EQ(f.CompareWorkload(engine, *batch->queries, combined, 60, 22),
            0u);

  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, CrashBetweenArchiveWriteAndManifestSwapIsNeverTorn) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_crash.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  std::string error;
  ASSERT_TRUE(svc.Open(&error)) << error;

  const auto first = f.MakeRaws(5);
  ASSERT_GE(f.IngestRaws(svc, first, 0), 3u);
  const size_t gen0_count = svc.num_live();
  ASSERT_TRUE(svc.Flush(&error)) << error;

  const auto second = f.MakeRaws(4);
  ASSERT_GE(f.IngestRaws(svc, second, 50), 2u);
  const size_t live_count = svc.num_live();

  // Kill the flush between archive write and manifest swap.
  svc.set_flush_crash_hook(
      [](FlushStep step) { return step != FlushStep::kAfterArchiveWrite; });
  EXPECT_FALSE(svc.Flush(&error));
  EXPECT_NE(error.find("after-archive-write"), std::string::npos) << error;

  // In-process: nothing was lost or published.
  EXPECT_EQ(svc.num_generations(), 1u);
  EXPECT_EQ(svc.num_sealed(), gen0_count);
  EXPECT_EQ(svc.num_live(), live_count);

  // On disk: a reopen sees exactly the pre-flush set — the orphaned
  // generation file exists but the manifest never names it.
  {
    StreamingService reopened(f.net, *f.grid, path, f.opts);
    ASSERT_TRUE(reopened.Open(&error)) << error;
    EXPECT_EQ(reopened.num_sealed(), gen0_count);
    EXPECT_EQ(reopened.num_generations(), 1u);
  }

  // Retry after the "crash": the flush completes and publishes everything.
  svc.set_flush_crash_hook(nullptr);
  ASSERT_TRUE(svc.Flush(&error)) << error;
  EXPECT_EQ(svc.num_generations(), 2u);
  EXPECT_EQ(svc.num_sealed(), gen0_count + live_count);
  EXPECT_EQ(svc.num_live(), 0u);
  {
    StreamingService reopened(f.net, *f.grid, path, f.opts);
    ASSERT_TRUE(reopened.Open(&error)) << error;
    EXPECT_EQ(reopened.num_sealed(), gen0_count + live_count);
    EXPECT_EQ(reopened.num_generations(), 2u);
  }

  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, ConcurrentIngestWhileQuerying) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_concurrent.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  std::string error;
  ASSERT_TRUE(svc.Open(&error)) << error;

  // A sealed baseline so queries have something stable to chew on.
  const auto first = f.MakeRaws(5);
  ASSERT_GE(f.IngestRaws(svc, first, 0), 3u);
  traj::UncertainCorpus combined = svc.LiveTrajectories();
  ASSERT_TRUE(svc.Flush(&error)) << error;
  const size_t baseline = combined.size();

  serve::QueryEngine engine(svc);
  const auto bbox = f.net.bounding_box();
  std::atomic<bool> stop{false};
  std::atomic<size_t> executed{0};
  std::atomic<size_t> torn{0};

  // Query thread: hammers the engine while ingestion reshapes the tier.
  // Every answer must come from a consistent snapshot: point queries on
  // the stable baseline must answer non-torn (their data never changes),
  // and no request may crash regardless of how ids race the seals.
  std::thread querier([&] {
    common::Rng rng(31);
    while (!stop.load()) {
      const auto j =
          static_cast<uint32_t>(rng.UniformInt(0, 2 * baseline - 1));
      const auto& tu = combined[j % baseline];
      const auto t = rng.UniformInt(tu.times.front(), tu.times.back());
      engine.Where(j, t, 0.3);
      const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
      const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
      engine.Range({cx - 500, cy - 500, cx + 500, cy + 500}, t, 0.4);
      executed.fetch_add(1);
    }
  });

  std::thread flusher_thread([&] {
    while (!stop.load()) {
      std::string flush_error;
      if (!svc.Flush(&flush_error)) {
        torn.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  const auto second = f.MakeRaws(6);
  f.IngestRaws(svc, second, 200);
  while (executed.load() < 50) std::this_thread::yield();
  stop.store(true);
  querier.join();
  flusher_thread.join();
  EXPECT_EQ(torn.load(), 0u) << "concurrent flushes must never fail";

  // Quiesced: everything survived the storm, and the stable baseline
  // still answers exactly like its batch build.
  ASSERT_TRUE(svc.Flush(&error)) << error;
  EXPECT_GT(svc.num_sealed(), baseline);
  {
    StreamingService reopened(f.net, *f.grid, path, f.opts);
    ASSERT_TRUE(reopened.Open(&error)) << error;
    EXPECT_EQ(reopened.num_sealed(), svc.num_sealed());
  }
  const auto batch = f.CompressBatch(combined);
  EXPECT_EQ(f.CompareWorkload(engine, *batch->queries, combined, 30, 41),
            0u);

  IngestFixture::Cleanup(path, svc.num_generations());
}

TEST(StreamingService, EmptyServiceAnswersEmpty) {
  IngestFixture& f = Fixture();
  const std::string path = f.TempPath("ingest_empty.utcq");
  StreamingService svc(f.net, *f.grid, path, f.opts);
  ASSERT_TRUE(svc.Open());
  serve::QueryEngine engine(svc);
  EXPECT_EQ(engine.num_trajectories(), 0u);
  EXPECT_TRUE(engine.Where(0, 100, 0.3).empty());
  EXPECT_TRUE(engine.When(3, 0, 0.5, 0.3).empty());
  EXPECT_TRUE(engine.Range({0, 0, 1000, 1000}, 100, 0.3).empty());
  // Flushing nothing is a no-op success, publishing nothing.
  std::string error;
  EXPECT_TRUE(svc.Flush(&error)) << error;
  EXPECT_EQ(svc.num_generations(), 0u);
}

// ---------------------------------------------------------- crash matrix
//
// The declarative crash/fault matrix (DESIGN.md §11): a simulated process
// crash is injected at *every* publication step of a flush, on both a
// fresh set and one with an already-published generation, and each case
// asserts the single durability invariant — a reopen from disk sees either
// exactly the pre-flush set or exactly the post-flush set, never a torn
// one — plus loss-freedom: whatever the reopen is missing is still
// recoverable (pre-publication crashes retry; post-publication crashes
// already persisted everything).

class FlushCrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlushCrashMatrix, EveryReopenIsFullyPreOrFullyPostFlush) {
  const auto step = static_cast<FlushStep>(std::get<0>(GetParam()));
  const bool with_prior_generation = std::get<1>(GetParam()) == 1;
  IngestFixture& f = Fixture();
  SCOPED_TRACE(std::string("crash at ") + FlushStepName(step) +
               (with_prior_generation ? " on generation 1"
                                      : " on generation 0"));

  const std::string path =
      f.TempPath("crash_matrix_" + std::to_string(std::get<0>(GetParam())) +
                 "_" + std::to_string(std::get<1>(GetParam())) + ".utcq");
  traj::UncertainTrajectoryGenerator gen(f.net, traj::ChengduProfile(), 555);
  const auto corpus = gen.GenerateCorpus(8);

  core::StiuParams iparams = f.opts.index_params;
  iparams.cells_per_side = f.grid->cells_per_side();
  LiveShard live(f.net, *f.grid, f.opts.params, iparams);
  Flusher flusher(f.net, path);
  std::string error;
  std::shared_ptr<const shard::ShardedCorpus> sealed;
  ASSERT_TRUE(flusher.Open(&error, &sealed)) << error;

  size_t base_count = 0;
  if (with_prior_generation) {
    for (size_t j = 0; j < 3; ++j) live.Append(corpus[j]);
    const auto snap = live.Snapshot();
    ASSERT_TRUE(flusher.Flush(*snap, &error, &sealed)) << error;
    live.DropFlushed(snap->count());
    base_count = 3;
  }
  for (size_t j = base_count; j < corpus.size(); ++j) live.Append(corpus[j]);
  const size_t tail_count = corpus.size() - base_count;
  const auto snap = live.Snapshot();
  ASSERT_NE(snap, nullptr);

  // Crash exactly at the parameterized step.
  flusher.set_crash_hook([step](FlushStep s) { return s != step; });
  std::shared_ptr<const shard::ShardedCorpus> unused;
  EXPECT_FALSE(flusher.Flush(*snap, &error, &unused));
  EXPECT_NE(error.find(FlushStepName(step)), std::string::npos) << error;
  EXPECT_EQ(unused, nullptr);

  // Steps strictly before the manifest swap leave the pre-flush set; steps
  // at or after it have durably published the generation.
  const bool published = step >= FlushStep::kAfterManifestSwap;

  // Simulated restart: a fresh flusher reads only the disk.
  {
    Flusher restarted(f.net, path);
    std::shared_ptr<const shard::ShardedCorpus> reopened;
    ASSERT_TRUE(restarted.Open(&error, &reopened)) << error;
    const size_t want =
        published ? base_count + tail_count : base_count;
    EXPECT_EQ(restarted.num_sealed(), want);
    EXPECT_EQ(restarted.num_generations(),
              (with_prior_generation ? 1u : 0u) + (published ? 1u : 0u));
    ASSERT_EQ(reopened != nullptr, want > 0);
    if (reopened != nullptr) {
      EXPECT_EQ(reopened->num_trajectories(), want);
    }

    // Loss-freedom: after a pre-publication crash the recovered process
    // retries the flush (the live shard still holds the tail) and ends up
    // with everything published; after a post-publication crash everything
    // already is.
    if (!published) {
      std::shared_ptr<const shard::ShardedCorpus> retried;
      ASSERT_TRUE(restarted.Flush(*snap, &error, &retried)) << error;
      ASSERT_NE(retried, nullptr);
      EXPECT_EQ(retried->num_trajectories(), corpus.size());
    }
  }

  // Whatever the path, the final on-disk set now holds the full corpus and
  // its point queries answer from every generation.
  {
    Flusher final_open(f.net, path);
    std::shared_ptr<const shard::ShardedCorpus> full;
    ASSERT_TRUE(final_open.Open(&error, &full)) << error;
    ASSERT_NE(full, nullptr);
    ASSERT_EQ(full->num_trajectories(), corpus.size());
    for (size_t j = 0; j < corpus.size(); ++j) {
      EXPECT_FALSE(
          full->Where(j, corpus[j].times.front(), 0.0).empty())
          << "trajectory " << j;
    }
  }

  IngestFixture::Cleanup(path, 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllSteps, FlushCrashMatrix,
    ::testing::Combine(
        ::testing::Values(
            static_cast<int>(FlushStep::kBeforeArchiveWrite),
            static_cast<int>(FlushStep::kAfterArchiveWrite),
            static_cast<int>(FlushStep::kAfterManifestSwap),
            static_cast<int>(FlushStep::kBeforeHandoff)),
        ::testing::Values(0, 1)));

}  // namespace
}  // namespace utcq::ingest
