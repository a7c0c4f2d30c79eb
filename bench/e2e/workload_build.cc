// build: the write path. The HZ corpus is generated untimed; the timed
// loop compresses it with shard::ShardedCompressor (8 shards, hash policy,
// every hardware thread) and saves the archive set, rep after rep. Improved
// TED, pivots, FJD, reference selection, referential coding, the StIU
// build and the archive save do all the work; no wire, cache or ingest
// layer runs.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/thread_pool.h"
#include "core/query.h"
#include "replay.h"
#include "serving.h"
#include "workloads.h"

namespace utcq::e2e {

namespace {

/// Reps always run, whatever the duration: the byte-identity gate needs a
/// second build to compare with the first.
constexpr uint64_t kMinReps = 2;
constexpr size_t kGatePoint = 150;
constexpr size_t kGateRange = 50;

std::vector<std::vector<uint8_t>> ReadAll(const std::vector<std::string>& files,
                                          Result& result) {
  std::vector<std::vector<uint8_t>> out(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::string error;
    if (!archive::ReadFileBytes(files[i], &out[i], &error)) {
      result.Fail("cannot read back " + files[i] + ": " + error);
    }
  }
  return out;
}

/// In-memory answer of the build that was just saved: each shard's own
/// processor over its CompressedCorpus and StIU, routed by the plan.
class InMemoryAnswers {
 public:
  InMemoryAnswers(const network::RoadNetwork& net,
                  const shard::ShardedBuild& build)
      : build_(build) {
    for (uint32_t s = 0; s < build.shards.size(); ++s) {
      processors_.push_back(std::make_unique<core::UtcqQueryProcessor>(
          net, build.shards[s]->corpus.view(), *build.shards[s]->index));
      for (uint32_t local = 0; local < build.plan.members[s].size(); ++local) {
        const uint32_t global = build.plan.members[s][local];
        if (route_.size() <= global) route_.resize(global + 1);
        route_[global] = {s, local};
      }
    }
  }

  serve::QueryResult Answer(const serve::QueryRequest& req) const {
    serve::QueryResult out;
    out.kind = req.kind;
    if (req.kind == serve::QueryKind::kRange) {
      for (uint32_t s = 0; s < processors_.size(); ++s) {
        for (const uint32_t local :
             processors_[s]->Range(req.region, req.t, req.alpha)) {
          out.range.push_back(build_.plan.members[s][local]);
        }
      }
      std::sort(out.range.begin(), out.range.end());
      return out;
    }
    const auto [s, local] = route_[req.traj];
    if (req.kind == serve::QueryKind::kWhere) {
      out.where = processors_[s]->Where(local, req.t, req.alpha);
    } else {
      out.when = processors_[s]->When(local, req.edge, req.rd, req.alpha);
    }
    return out;
  }

 private:
  const shard::ShardedBuild& build_;
  std::vector<std::unique_ptr<core::UtcqQueryProcessor>> processors_;
  std::vector<std::pair<uint32_t, uint32_t>> route_;
};

}  // namespace

void RunBuild(const RunOptions& opts, Result& result) {
  Tracer tracer(opts.trace, kTraceSpans);
  const std::string manifest = opts.work_dir + "/build.utcq";
  const std::vector<std::string> files = ArchiveFiles(manifest, kShards);

  // --- set-up: input generation ----------------------------------------
  const uint64_t setup_t0 = NowNs();
  const ArchiveInputs in = MakeArchiveInputs(opts);
  const double setup_s = static_cast<double>(NowNs() - setup_t0) / 1e9;
  const City& city = in.city;
  const traj::UncertainCorpus& corpus = in.corpus;
  const CorpusShape shape = MeasureCorpus(*city.net, corpus);
  const shard::ShardedCompressor compressor(
      *city.net, *city.grid, ParamsFor(city.profile), IndexParams(),
      ArchiveShardOptions());

  // --- timed phase: compress + save, rep after rep ----------------------
  ResetPeakRss();
  // Batch semantics: every trajectory of a rep is archived only when the
  // rep's whole set is saved, so each one's latency is the rep's wall, and
  // each rep is one window of the headline metrics.
  Samples traj_latency;
  std::vector<Window> windows;
  std::vector<double> compress_us;
  std::vector<double> save_us;
  std::vector<std::vector<uint8_t>> first_bytes;
  shard::ShardedBuild last;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(opts.seconds * 1e9);
  uint64_t reps = 0;
  for (; reps < kMinReps || NowNs() < deadline; ++reps) {
    const ScopedSpan rep_span(tracer, "bench.build_rep", reps);
    shard::ShardedBuild build;
    std::string error;
    const uint64_t t0 = NowNs();
    {
      const ScopedSpan span(tracer, "shard.ShardedCompressor::Compress", reps,
                            rep_span.id());
      build = compressor.Compress(corpus);
    }
    const uint64_t t1 = NowNs();
    bool saved = false;
    {
      const ScopedSpan span(tracer, "archive.ShardedBuild::Save", reps,
                            rep_span.id());
      saved = build.Save(manifest, &error);
    }
    const uint64_t t2 = NowNs();
    result.Attempt(corpus.size());
    if (!saved) {
      result.Fail("rep " + std::to_string(reps) + ": save failed: " + error,
                  corpus.size());
      break;
    }
    compress_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    save_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    traj_latency.Add(static_cast<double>(t2 - t0) / 1e3, corpus.size());
    windows.emplace_back();
    windows.back().latency.Add(static_cast<double>(t2 - t0) / 1e3,
                               corpus.size());
    windows.back().seconds = static_cast<double>(t2 - t0) / 1e9;
    // Untimed: the rep's archive bytes must equal rep 1's.
    std::vector<std::vector<uint8_t>> bytes = ReadAll(files, result);
    if (reps == 0) {
      first_bytes = std::move(bytes);
    } else if (bytes != first_bytes) {
      result.Fail("rep " + std::to_string(reps) +
                      ": archive bytes differ from rep 1's",
                  corpus.size());
    }
    last = std::move(build);
  }
  const double peak_rss = PeakRssMib();

  uint64_t archive_bytes = 0;
  for (const std::vector<uint8_t>& b : first_bytes) archive_bytes += b.size();
  AddFingerprint(shape, archive_bytes, result);

  // --- gate: the reopened set answers exactly as the in-memory build ----
  shard::ShardedCorpus reopened;
  std::string error;
  const uint64_t open_t0 = NowNs();
  const bool opened = reopened.Open(*city.net, manifest, &error);
  const double open_us = static_cast<double>(NowNs() - open_t0) / 1e3;
  const Targets targets = MakeTargets(*city.net, corpus);
  std::vector<serve::QueryRequest> gate;
  {
    common::Rng rng(SubSeed(opts.seed, 10));
    for (size_t i = 0; i < kGatePoint; ++i) {
      gate.push_back(DrawPoint(
          targets,
          static_cast<uint32_t>(
              rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1)),
          rng));
    }
    for (size_t i = 0; i < kGateRange; ++i) gate.push_back(DrawRange(targets, rng));
  }
  result.Attempt(gate.size());
  if (!opened) {
    result.Fail("reopen failed: " + error, gate.size());
  } else if (!last.shards.empty()) {
    const InMemoryAnswers memory(*city.net, last);
    size_t mismatches = 0;
    for (const serve::QueryRequest& req : gate) {
      if (!SameAnswer(AnswerOf(reopened, req), memory.Answer(req))) {
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      result.Fail("gate: " + std::to_string(mismatches) +
                      " reopened answers differ from the in-memory build",
                  mismatches);
    }
  }

  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mib", peak_rss, "MiB");
  result.Add("compression_ratio",
             static_cast<double>(shape.raw.total()) /
                 (8.0 * static_cast<double>(archive_bytes)),
             "x");
  result.AddHeadline(windows, traj_latency);
  const double ops_per_s = result.Get("ops_per_s");
  result.Reference("op_mean_us", traj_latency.Mean());
  result.Reference("ops_per_s", ops_per_s);
  if (!opts.trace || !opened) return;

  // --- traced run: per-layer breakdown ---------------------------------
  const BuildReplay build = ReplayBuild(city, ParamsFor(city.profile), corpus,
                                        last.plan.members, tracer);
  AddBuildMetrics(build, Median(compress_us),
                  common::EffectiveThreads(kShards, 0), result);
  uint64_t index_bytes = 0;
  for (const auto& shard : last.shards) index_bytes += shard->index->SizeBytes();
  AddCoreMetrics(shape, last.compressed_bits(), index_bytes, result);
  result.Add("archive.save_ms", Median(save_us) / 1e3, "ms", save_us.size());
  result.Add("archive.open_ms", open_us / 1e3, "ms", 1);
  result.Add("archive.bytes", static_cast<double>(archive_bytes), "B");
  std::vector<serve::QueryRequest> sample;
  {
    common::Rng rng(SubSeed(opts.seed, 14));
    for (size_t i = 0; i < kReplayPoint; ++i) {
      sample.push_back(DrawPoint(
          targets,
          static_cast<uint32_t>(
              rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1)),
          rng));
    }
    for (size_t i = 0; i < kReplayRange; ++i) {
      sample.push_back(DrawRange(targets, rng));
    }
  }
  ReplayQueries(city, reopened, manifest, sample, kReplayRequestBase, tracer,
                result);
  if (opts.ref_ops_per_s > 0) {
    result.Add("trace.overhead_ratio", ops_per_s / opts.ref_ops_per_s, "ratio");
  }

  // Blocking path of one rep (every trajectory of a rep waits for all of
  // it): the parallel compression, then the save.
  double compress_total = 0.0;
  for (const double us : compress_us) compress_total += us;
  double save_total = 0.0;
  for (const double us : save_us) save_total += us;
  const double r = static_cast<double>(compress_us.size());
  const std::vector<PathRow> rows = {
      {"shard.ShardedCompressor::Compress", compress_total / r,
       "mean wall of the rep's parallel compression"},
      {"archive.ShardedBuild::Save", save_total / r,
       "mean wall of the rep's archive-set save"},
  };
  WriteLayersJson(opts.trace_dir + "/layers.json", opts, "us per build rep",
                  traj_latency.Mean(), rows, tracer, result);
  tracer.WriteChromeTrace(opts.trace_dir + "/trace.json", kTraceEvents);
}

}  // namespace utcq::e2e
