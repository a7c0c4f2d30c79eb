// serve_point and serve_range: the HZ archive reopened from disk behind
// serve::QueryEngine and net::TcpServer, loaded by two closed-loop wire
// connections. serve_point's working set exceeds its 16 MiB cache, so
// the cache, the decoder and the wire framing carry its latency;
// serve_range's corpus is decoded into a 256 MiB cache before timing, so
// the StIU probe, Lemma 1-4 pruning, interpolation and the pool fan-out
// carry it and a decode or wire change should not move it.

#include <algorithm>
#include <memory>
#include <string>

#include "replay.h"
#include "serving.h"
#include "traj/generator.h"
#include "workloads.h"

namespace utcq::e2e {

namespace {

// Cache budgets, client count and the request mixes below are unverified
// guesses, not measured traffic (README.md, "Where the parameters come
// from"); changing one changes what the workload measures.
constexpr size_t kPointBudgetBytes = size_t{16} << 20;
constexpr size_t kRangeBudgetBytes = size_t{256} << 20;
constexpr unsigned kConnections = 2;
constexpr double kWarmupS = 2.0;
/// The timed phase's windows for the headline metrics (Result::AddHeadline).
constexpr double kWindowS = 1.0;
constexpr size_t kGateRequests = 200;

/// One complete set-up: inputs, build, save, reopen, engine + server and,
/// for serve_range, the cache fill.
struct Setup {
  obs::MetricRegistry registry;
  ArchiveInputs in;
  std::unique_ptr<shard::ShardedCorpus> corpus;
  std::unique_ptr<ServingStack> stack;
  double open_us = 0.0;
};

std::unique_ptr<Setup> SetUp(const RunOptions& opts, bool point,
                             const std::string& manifest, Result& result) {
  auto s = std::make_unique<Setup>();
  s->in = MakeArchiveInputs(opts);
  const City& city = s->in.city;
  std::string error;
  {
    const shard::ShardedCompressor compressor(
        *city.net, *city.grid, ParamsFor(city.profile), IndexParams(),
        ArchiveShardOptions());
    if (!compressor.Compress(s->in.corpus).Save(manifest, &error)) {
      result.Fail("set-up: save failed: " + error);
      return nullptr;
    }
  }
  const uint64_t t = NowNs();
  s->corpus = std::make_unique<shard::ShardedCorpus>();
  if (!s->corpus->Open(*city.net, manifest, &error)) {
    result.Fail("set-up: open failed: " + error);
    return nullptr;
  }
  s->open_us = static_cast<double>(NowNs() - t) / 1e3;
  s->stack = std::make_unique<ServingStack>(
      *s->corpus, point ? kPointBudgetBytes : kRangeBudgetBytes, s->registry);
  if (!s->stack->Start()) {
    result.Fail("set-up: server failed to start");
    return nullptr;
  }
  if (!point) {
    // Decode every trajectory into the cache: one Where inside each span
    // pins its full decode.
    std::vector<serve::QueryRequest> fill;
    const uint32_t n = static_cast<uint32_t>(s->corpus->num_trajectories());
    for (uint32_t j = 0; j < n; ++j) {
      const auto [shard, local] = s->corpus->Route(j);
      const core::TrajMeta& meta =
          s->corpus->shard_queries(shard).decoder().view().meta(local);
      fill.push_back(serve::QueryRequest::MakeWhere(j, meta.t_first, 0.5));
      if (fill.size() == 1024 || j + 1 == n) {
        s->stack->engine().ExecuteBatch(fill);
        fill.clear();
      }
    }
  }
  return s;
}

}  // namespace

ArchiveInputs MakeArchiveInputs(const RunOptions& opts) {
  ArchiveInputs in;
  in.city = MakeCity(traj::HangzhouProfile());
  traj::UncertainTrajectoryGenerator gen(*in.city.net, in.city.profile,
                                         SubSeed(opts.seed, 2));
  in.corpus = gen.GenerateCorpus(opts.smoke ? kSmokeArchiveTrajectories
                                            : kArchiveTrajectories);
  return in;
}

shard::ShardOptions ArchiveShardOptions() {
  shard::ShardOptions o;
  o.num_shards = kShards;
  o.policy = shard::ShardPolicy::kHash;
  return o;
}

Targets MakeTargets(const network::RoadNetwork& net,
                    const traj::UncertainCorpus& corpus) {
  Targets t;
  t.bbox = net.bounding_box();
  t.entries.reserve(corpus.size());
  for (const traj::UncertainTrajectory& tu : corpus) {
    t.entries.push_back(
        {tu.times.front(), tu.times.back(), tu.instances.front().path});
  }
  return t;
}

serve::QueryRequest DrawPoint(const Targets& targets, uint32_t traj,
                              common::Rng& rng) {
  const Targets::Entry& e = targets.entries[traj];
  const double alpha = rng.Uniform(0.1, 0.6);
  if (rng.Bernoulli(0.5)) {
    return serve::QueryRequest::MakeWhere(
        traj, rng.UniformInt(e.t_first, e.t_last), alpha);
  }
  const network::EdgeId edge = e.edges[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(e.edges.size()) - 1))];
  return serve::QueryRequest::MakeWhen(traj, edge, rng.Uniform(0.0, 1.0),
                                       alpha);
}

serve::QueryRequest DrawRange(const Targets& targets, common::Rng& rng) {
  const Targets::Entry& e = targets.entries[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(targets.entries.size()) - 1))];
  const traj::Timestamp tq = rng.UniformInt(e.t_first, e.t_last);
  const double half = rng.Uniform(200.0, 900.0);
  const double cx = rng.Uniform(targets.bbox.min_x, targets.bbox.max_x);
  const double cy = rng.Uniform(targets.bbox.min_y, targets.bbox.max_y);
  const double alpha = rng.Uniform(0.1, 0.6);
  return serve::QueryRequest::MakeRange(
      {cx - half, cy - half, cx + half, cy + half}, tq, alpha);
}

serve::QueryResult AnswerOf(const shard::ShardedCorpus& corpus,
                            const serve::QueryRequest& req) {
  serve::QueryResult out;
  out.kind = req.kind;
  switch (req.kind) {
    case serve::QueryKind::kWhere:
      out.where = corpus.Where(req.traj, req.t, req.alpha);
      break;
    case serve::QueryKind::kWhen:
      out.when = corpus.When(req.traj, req.edge, req.rd, req.alpha);
      break;
    case serve::QueryKind::kRange:
      out.range = corpus.Range(req.region, req.t, req.alpha);
      break;
  }
  return out;
}

void RunServe(const RunOptions& opts, Result& result) {
  const bool point = opts.workload == "serve_point";
  const std::string manifest = opts.work_dir + "/corpus.utcq";
  Tracer tracer(opts.trace, kTraceSpans);

  // --- set-up ----------------------------------------------------------
  const uint64_t setup_t0 = NowNs();
  const std::unique_ptr<Setup> s = SetUp(opts, point, manifest, result);
  if (s == nullptr) return;
  const double setup_s = static_cast<double>(NowNs() - setup_t0) / 1e9;
  const City& city = s->in.city;
  ServingStack& stack = *s->stack;
  const shard::ShardedCorpus& corpus = *s->corpus;
  const CorpusShape shape = MeasureCorpus(*city.net, s->in.corpus);
  const Targets targets = MakeTargets(*city.net, s->in.corpus);
  const uint64_t archive_bytes = FileBytes(ArchiveFiles(manifest, kShards));
  AddFingerprint(shape, archive_bytes, result);
  // The raw corpus is not needed past this point; kept, it would only
  // inflate the measured peak RSS.
  traj::UncertainCorpus().swap(s->in.corpus);

  const size_t n = targets.entries.size();
  const RequestGen skewed_point = [&targets, n](common::Rng& rng) {
    // Popular trajectories first: u^3 puts ~46% of the traffic on the
    // lowest tenth of the ids.
    const double u = rng.Uniform(0.0, 1.0);
    const auto traj = std::min<uint32_t>(
        static_cast<uint32_t>(u * u * u * static_cast<double>(n)),
        static_cast<uint32_t>(n - 1));
    return DrawPoint(targets, traj, rng);
  };
  const RequestGen uniform_point = [&targets, n](common::Rng& rng) {
    return DrawPoint(
        targets,
        static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1)),
        rng);
  };
  const RequestGen range = [&targets](common::Rng& rng) {
    return DrawRange(targets, rng);
  };
  const RequestGen& gen = point ? skewed_point : range;
  const auto expect = [&corpus](const serve::QueryRequest& req) {
    return AnswerOf(corpus, req);
  };

  WireGate(stack, DrawRequests(gen, kGateRequests, SubSeed(opts.seed, 10)),
           expect, "pre-timing gate", result);
  if (point) {
    // Untimed warm-up: the cache reaches its steady hit ratio.
    Tracer off(false, 0);
    const double warm_s = std::min(kWarmupS, opts.seconds / 5);
    const LoopResult warm = RunClosedLoop(stack, kConnections, warm_s, warm_s,
                                          SubSeed(opts.seed, 11), gen, 0, off);
    result.Attempt(warm.ok + warm.failed);
    if (warm.failed > 0) result.Fail("warm-up: wire requests failed", warm.failed);
  }

  // --- timed phase -----------------------------------------------------
  ResetPeakRss();
  const obs::RegistrySnapshot before = stack.registry().Snapshot();
  const obs::RegistrySnapshot pool_before =
      obs::MetricRegistry::Global().Snapshot();
  const LoopResult loop =
      RunClosedLoop(stack, kConnections, opts.seconds, kWindowS,
                    SubSeed(opts.seed, 12), gen,
                    point ? kReplayPoint : kReplayRange, tracer);
  const obs::RegistrySnapshot after = stack.registry().Snapshot();
  const obs::RegistrySnapshot pool_after =
      obs::MetricRegistry::Global().Snapshot();
  const double peak_rss = PeakRssMib();
  result.Attempt(loop.ok + loop.failed);
  if (loop.failed > 0) {
    result.Fail("timed phase: wire requests failed", loop.failed);
  }

  WireGate(stack, DrawRequests(gen, kGateRequests, SubSeed(opts.seed, 13)),
           expect, "post-timing gate", result);
  Reconcile(stack, result);

  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mib", peak_rss, "MiB");
  result.Add("compression_ratio",
             static_cast<double>(shape.raw.total()) /
                 (8.0 * static_cast<double>(archive_bytes)),
             "x");
  result.AddHeadline(loop.windows, loop.all);
  const double ops_per_s = result.Get("ops_per_s");
  result.Reference("op_mean_us", loop.all.Mean());
  result.Reference("ops_per_s", ops_per_s);
  if (!opts.trace) return;

  // --- traced run: per-layer breakdown ---------------------------------
  // Replay sample: the timed phase's first requests of the workload's own
  // kind, plus drawn requests of the other kind.
  std::vector<serve::QueryRequest> sample = loop.head;
  const std::vector<serve::QueryRequest> other =
      point ? DrawRequests(range, kReplayRange, SubSeed(opts.seed, 14))
            : DrawRequests(uniform_point, kReplayPoint, SubSeed(opts.seed, 14));
  sample.insert(sample.end(), other.begin(), other.end());
  const QueryReplay replay = ReplayQueries(city, corpus, manifest, sample,
                                           kReplayRequestBase, tracer, result);
  result.Add("archive.open_ms", s->open_us / 1e3, "ms", 1);
  result.Add("archive.bytes", static_cast<double>(archive_bytes), "B");
  AddServingMetrics(before, after, pool_before, pool_after, loop.all.Mean(),
                    loop.ok, loop.ranges, result);
  if (opts.ref_ops_per_s > 0) {
    result.Add("trace.overhead_ratio", ops_per_s / opts.ref_ops_per_s, "ratio");
  }

  // Blocking path of one wire query. The engine row is split with the
  // replay's single-thread means: serve_point by its cache misses' decodes
  // and its Where/When over a decoded handle, serve_range by the StIU probe.
  std::vector<PathRow> rows = ServingPath(before, after, loop.all.Mean());
  const double engine_us = rows.back().mean_us;
  rows.pop_back();
  double split = 0.0;
  if (point) {
    const double misses = static_cast<double>(
        CounterDelta(before, after, "serve.cache.misses"));
    const double decode = misses / std::max<double>(1.0, loop.ok) *
                          replay.decode_us;
    rows.push_back({"core.UtcqDecoder::DecodeTraj", decode,
                    "cache misses per query x replayed DecodeTraj mean"});
    rows.push_back({"core.UtcqQueryProcessor::Where/When", replay.point_us,
                    "replayed Where/When over a decoded handle"});
    split = decode + replay.point_us;
  } else {
    rows.push_back({"core.StiuIndex::probe", replay.probe_us,
                    "replayed StIU probe, every shard on one thread"});
    split = replay.probe_us;
  }
  rows.push_back({"serve.engine.other", engine_us - split,
                  "engine latency minus the rows split from it above"});
  WriteLayersJson(opts.trace_dir + "/layers.json", opts, "us per wire query",
                  loop.all.Mean(), rows, tracer, result);
  tracer.WriteChromeTrace(opts.trace_dir + "/trace.json", kTraceEvents);
}

}  // namespace utcq::e2e
