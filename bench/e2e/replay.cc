#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "archive/archive.h"
#include "common/pddp.h"
#include "core/encoder.h"
#include "core/fjd.h"
#include "core/improved_ted.h"
#include "core/pivot.h"
#include "core/reference_selection.h"
#include "core/referential.h"

namespace utcq::e2e {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Times `fn` under a span; returns microseconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* span, uint64_t request, Fn&& fn) {
  const ScopedSpan s(tracer, span, request);
  const uint64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

}  // namespace

core::UtcqParams ParamsFor(const traj::DatasetProfile& profile) {
  core::UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_d = profile.eta_d;
  params.eta_p = profile.eta_p;
  return params;
}

core::StiuParams IndexParams() { return {kGridCells, kTimePartitionS}; }

CorpusShape MeasureCorpus(const network::RoadNetwork& net,
                          const traj::UncertainCorpus& corpus) {
  CorpusShape shape;
  shape.trajectories = corpus.size();
  for (const traj::UncertainTrajectory& tu : corpus) {
    shape.points += tu.num_points();
    shape.instances += tu.instances.size();
  }
  shape.raw = traj::MeasureRawSize(net, corpus);
  return shape;
}

void AddFingerprint(const CorpusShape& shape, uint64_t archive_bytes,
                    Result& result) {
  result.Fingerprint("trajectories", static_cast<double>(shape.trajectories));
  result.Fingerprint("points", static_cast<double>(shape.points));
  result.Fingerprint("instances", static_cast<double>(shape.instances));
  result.Fingerprint("raw_bits", static_cast<double>(shape.raw.total()));
  result.Fingerprint("archive_bytes", static_cast<double>(archive_bytes));
}

std::vector<std::string> ArchiveFiles(const std::string& manifest,
                                      size_t num_shards) {
  std::vector<std::string> files{manifest};
  for (uint32_t s = 0; s < num_shards; ++s) {
    files.push_back(shard::ShardArchivePath(manifest, s));
  }
  return files;
}

BuildReplay ReplayBuild(const City& city, const core::UtcqParams& params,
                        const traj::UncertainCorpus& corpus,
                        const std::vector<std::vector<uint32_t>>& members,
                        Tracer& tracer) {
  BuildReplay out;
  const network::RoadNetwork& net = *city.net;
  const core::UtcqCompressor compressor(net, params);
  const common::PddpCodec d_codec(params.eta_d);
  const auto quantize_d = [&d_codec](double v) { return d_codec.Quantize(v); };
  core::StiuParams iparams = IndexParams();
  iparams.cells_per_side = city.grid->cells_per_side();
  // Sizes of every stage's product, so no stage's work is dead code.
  size_t sink = 0;

  for (const std::vector<uint32_t>& shard : members) {
    traj::UncertainCorpus sub;
    sub.reserve(shard.size());
    for (const uint32_t j : shard) sub.push_back(corpus[j]);
    core::CompressedCorpus cc = compressor.Begin();
    std::vector<std::vector<core::NrefFactorLayout>> layouts;
    double shard_us = 0.0;
    for (size_t k = 0; k < sub.size(); ++k) {
      const traj::UncertainTrajectory& tu = sub[k];
      const uint64_t req = shard[k];
      const size_t n = tu.instances.size();
      std::vector<core::InstanceRepr> reprs;
      std::vector<std::vector<uint32_t>> entry_seqs;
      out.repr_us += Timed(tracer, "core.BuildInstanceRepr", req, [&] {
        for (const traj::TrajectoryInstance& inst : tu.instances) {
          reprs.push_back(core::BuildInstanceRepr(net, inst));
          entry_seqs.push_back(reprs.back().entries);
        }
      });
      if (n > 1 && !params.disable_referential) {
        std::vector<std::vector<core::PivotCom>> pivot_reprs;
        out.pivot_us += Timed(tracer, "core.SelectPivots", req, [&] {
          const auto pivots = core::SelectPivots(entry_seqs, params.num_pivots);
          pivot_reprs = core::RepresentAgainstPivots(entry_seqs, pivots);
        });
        std::vector<double> probs(n);
        std::vector<uint32_t> svs(n);
        for (size_t w = 0; w < n; ++w) {
          probs[w] = reprs[w].p;
          svs[w] = reprs[w].sv;
        }
        std::vector<std::vector<double>> sm;
        out.fjd_us += Timed(tracer, "core.BuildScoreMatrix", req, [&] {
          sm = core::BuildScoreMatrix(pivot_reprs, probs, svs);
        });
        core::ReferencePlan plan;
        out.refsel_us += Timed(tracer, "core.SelectReferences", req,
                               [&] { plan = core::SelectReferences(sm); });
        out.referential_us += Timed(tracer, "core.Referential", req, [&] {
          for (size_t w = 0; w < n; ++w) {
            if (plan.ref_of[w] < 0) continue;
            const core::InstanceRepr& ref =
                reprs[plan.references[static_cast<size_t>(plan.ref_of[w])]];
            sink += core::FactorizeE(ref.entries, reprs[w].entries).size();
            sink += core::FactorizeTflag(ref.tflag_trimmed,
                                         reprs[w].tflag_trimmed)
                        .factors.size();
            sink += core::DiffD(ref.rds, reprs[w].rds, quantize_d).size();
          }
        });
      }
      layouts.emplace_back();
      const double append = Timed(tracer, "core.AppendTrajectory", req, [&] {
        compressor.AppendTrajectory(tu, &cc, &layouts.back());
      });
      out.append_us += append;
      shard_us += append;
    }
    const double stiu = Timed(tracer, "core.StiuIndex::Build", 0, [&] {
      const core::StiuIndex index(net, *city.grid, sub, cc.view(), layouts,
                                  iparams);
      sink += index.SizeBytes();
    });
    out.stiu_us += stiu;
    out.shard_us.push_back(shard_us + stiu);
    out.trajectories += sub.size();
  }
  if (sink == 0) std::fprintf(stderr, "build replay produced nothing\n");
  return out;
}

void AddBuildMetrics(const BuildReplay& replay, double parallel_wall_us,
                     unsigned threads, Result& result) {
  const double n = static_cast<double>(replay.trajectories);
  const uint64_t samples = replay.trajectories;
  result.Add("build.repr_us_per_traj", Ratio(replay.repr_us, n), "us", samples);
  result.Add("build.pivot_us_per_traj", Ratio(replay.pivot_us, n), "us",
             samples);
  result.Add("build.fjd_us_per_traj", Ratio(replay.fjd_us, n), "us", samples);
  result.Add("build.refsel_us_per_traj", Ratio(replay.refsel_us, n), "us",
             samples);
  result.Add("build.referential_us_per_traj", Ratio(replay.referential_us, n),
             "us", samples);
  result.Add("build.append_us_per_traj", Ratio(replay.append_us, n), "us",
             samples);
  result.Add("build.stiu_us_per_traj", Ratio(replay.stiu_us, n), "us",
             samples);
  if (replay.shard_us.empty()) return;
  double total = 0.0;
  double slowest = 0.0;
  for (const double us : replay.shard_us) {
    total += us;
    slowest = std::max(slowest, us);
  }
  const double mean = total / static_cast<double>(replay.shard_us.size());
  result.Add("build.parallel_efficiency",
             Ratio(total, static_cast<double>(threads) * parallel_wall_us),
             "ratio");
  result.Add("build.shard_max_over_mean", Ratio(slowest, mean), "ratio");
}

void AddCoreMetrics(const CorpusShape& shape,
                    const traj::ComponentSizes& compressed,
                    uint64_t index_bytes, Result& result) {
  const traj::ComponentSizes& raw = shape.raw;
  const auto ratio = [](uint64_t r, uint64_t c) {
    return Ratio(static_cast<double>(r), static_cast<double>(c));
  };
  // SV folds into E on both sides, as in the paper's Table 8 accounting.
  result.Add("core.payload_ratio", ratio(raw.total(), compressed.total()), "x");
  result.Add("core.cr_t", ratio(raw.t_bits, compressed.t_bits), "x");
  result.Add("core.cr_e",
             ratio(raw.e_bits + raw.sv_bits,
                   compressed.e_bits + compressed.sv_bits),
             "x");
  result.Add("core.cr_d", ratio(raw.d_bits, compressed.d_bits), "x");
  result.Add("core.cr_tflag", ratio(raw.tflag_bits, compressed.tflag_bits),
             "x");
  result.Add("core.cr_p", ratio(raw.p_bits, compressed.p_bits), "x");
  result.Add("core.index_bytes_per_traj",
             Ratio(static_cast<double>(index_bytes),
                   static_cast<double>(shape.trajectories)),
             "B");
}

QueryReplay ReplayQueries(const City& city,
                          const shard::ShardedCorpus& corpus,
                          const std::string& manifest,
                          const std::vector<serve::QueryRequest>& sample,
                          uint64_t first_request, Tracer& tracer,
                          Result& result) {
  // The opened corpus keeps its StIU indexes private; the probe replay
  // reloads them from the same shard archives.
  const std::string dir =
      std::filesystem::path(manifest).parent_path().string() + "/";
  std::vector<std::unique_ptr<core::StiuIndex>> indexes;
  for (const archive::ShardManifest::Shard& entry : corpus.manifest().shards) {
    archive::ArchiveReader reader;
    std::string error;
    std::unique_ptr<core::StiuIndex> index;
    if (reader.Open(dir + entry.file, &error)) {
      index = reader.LoadIndex(*city.grid, &error);
    }
    if (index == nullptr) {
      result.Fail("replay: cannot reload StIU of " + entry.file + ": " + error);
      return {};
    }
    indexes.push_back(std::move(index));
  }

  Samples decode_us, where_us, when_us, probe_us;
  double decode_bytes = 0.0;
  core::QueryStats range_stats;
  uint64_t ranges = 0;
  uint64_t range_hits = 0;
  size_t sink = 0;
  std::map<uint32_t, std::shared_ptr<const traj::DecodedTraj>> handles;

  for (size_t i = 0; i < sample.size(); ++i) {
    const serve::QueryRequest& req = sample[i];
    const uint64_t id = first_request + i;
    if (req.kind == serve::QueryKind::kRange) {
      probe_us.Add(Timed(tracer, "core.StiuIndex::probe", id, [&] {
        for (const auto& index : indexes) {
          sink += index->TrajectoriesAt(req.t).size();
          for (const network::RegionId re :
               index->grid().RegionsInRect(req.region)) {
            sink += index->RefTuplesIn(re).size() +
                    index->NrefTuplesIn(re).size();
          }
        }
      }));
      core::QueryStats qs;
      Timed(tracer, "shard.ShardedCorpus::Range", id, [&] {
        range_hits += corpus.Range(req.region, req.t, req.alpha, &qs).size();
      });
      range_stats.candidates += qs.candidates;
      range_stats.pruned_lemma2 += qs.pruned_lemma2;
      range_stats.pruned_lemma4 += qs.pruned_lemma4;
      range_stats.accepted_lemma3 += qs.accepted_lemma3;
      range_stats.instances_decoded += qs.instances_decoded;
      ++ranges;
      continue;
    }
    if (req.traj >= corpus.num_trajectories()) continue;
    const auto [s, local] = corpus.Route(req.traj);
    const core::UtcqQueryProcessor& qp = corpus.shard_queries(s);
    auto& dt = handles[req.traj];
    if (dt == nullptr) {
      decode_us.Add(Timed(tracer, "core.UtcqDecoder::DecodeTraj", id, [&] {
        dt = std::make_shared<const traj::DecodedTraj>(
            qp.decoder().DecodeTraj(local));
      }));
      decode_bytes += static_cast<double>(dt->ApproxBytes());
    }
    if (req.kind == serve::QueryKind::kWhere) {
      where_us.Add(Timed(tracer, "core.UtcqQueryProcessor::Where", id, [&] {
        sink += qp.Where(local, req.t, req.alpha, *dt).size();
      }));
    } else {
      when_us.Add(Timed(tracer, "core.UtcqQueryProcessor::When", id, [&] {
        sink += qp.When(local, req.edge, req.rd, req.alpha, *dt).size();
      }));
    }
  }
  if (sink == 0 && range_hits == 0) {
    std::fprintf(stderr, "query replay produced nothing\n");
  }

  Samples point_us = where_us;
  point_us.Merge(when_us);
  const QueryReplay means{decode_us.Mean(), point_us.Mean(), probe_us.Mean()};
  result.AddPercentiles("decode.traj_us.p50", "decode.traj_us.p99", decode_us,
                        "us");
  result.Add("decode.mb_per_s",
             Ratio(decode_bytes, decode_us.Sum()),  // bytes/us == MB/s
             "MB/s", decode_us.size());
  if (where_us.size() > 0) {
    result.Add("query.where_us", where_us.Percentile(0.5), "us",
               where_us.size());
  }
  if (when_us.size() > 0) {
    result.Add("query.when_us", when_us.Percentile(0.5), "us", when_us.size());
  }
  if (ranges == 0) return means;
  const double r = static_cast<double>(ranges);
  result.Add("stiu.probe_us", probe_us.Percentile(0.5), "us", probe_us.size());
  result.Add("range.candidates_per_query",
             static_cast<double>(range_stats.candidates) / r, "count", ranges);
  result.Add("range.pruned_lemma2_per_query",
             static_cast<double>(range_stats.pruned_lemma2) / r, "count",
             ranges);
  result.Add("range.pruned_lemma4_per_query",
             static_cast<double>(range_stats.pruned_lemma4) / r, "count",
             ranges);
  result.Add("range.accepted_lemma3_per_query",
             static_cast<double>(range_stats.accepted_lemma3) / r, "count",
             ranges);
  result.Add("range.instances_decoded_per_query",
             static_cast<double>(range_stats.instances_decoded) / r, "count",
             ranges);
  result.Add("range.hit_ratio",
             Ratio(static_cast<double>(range_hits),
                   static_cast<double>(range_stats.candidates)),
             "ratio", ranges);
  return means;
}

namespace {

obs::HistogramSnapshot EngineLatency(const obs::RegistrySnapshot& before,
                                     const obs::RegistrySnapshot& after) {
  obs::HistogramSnapshot h =
      HistogramDelta(before, after, "serve.engine.latency_ns.where");
  h.MergeFrom(HistogramDelta(before, after, "serve.engine.latency_ns.when"));
  h.MergeFrom(HistogramDelta(before, after, "serve.engine.latency_ns.range"));
  return h;
}

}  // namespace

void AddServingMetrics(const obs::RegistrySnapshot& before,
                       const obs::RegistrySnapshot& after,
                       const obs::RegistrySnapshot& pool_before,
                       const obs::RegistrySnapshot& pool_after,
                       double client_rtt_us, uint64_t requests,
                       uint64_t ranges, Result& result) {
  const obs::HistogramSnapshot handle =
      HistogramDelta(before, after, "net.handle_ns");
  const obs::HistogramSnapshot engine = EngineLatency(before, after);
  const double handle_us = HistogramMean(handle) / 1e3;
  const double q = static_cast<double>(requests);
  const auto per_query = [&](std::string_view counter) {
    return Ratio(static_cast<double>(CounterDelta(before, after, counter)), q);
  };

  result.Add("net.wire_us", client_rtt_us - handle_us, "us", requests);
  result.Add("net.handle_us.p50", handle.p50() / 1e3, "us", handle.count);
  if (handle.count >= kMinP99Samples) {
    result.Add("net.handle_us.p99", handle.p99() / 1e3, "us", handle.count);
  }
  result.Add("net.bytes_per_query",
             per_query("net.bytes.in") + per_query("net.bytes.out"), "B",
             requests);
  result.Add("serve.session_us", handle_us - HistogramMean(engine) / 1e3, "us",
             requests);
  result.Add("serve.engine_us.p50", engine.p50() / 1e3, "us", engine.count);
  if (engine.count >= kMinP99Samples) {
    result.Add("serve.engine_us.p99", engine.p99() / 1e3, "us", engine.count);
  }
  for (const char* kind : {"where", "when", "range"}) {
    const obs::HistogramSnapshot h = HistogramDelta(
        before, after, std::string("serve.engine.latency_ns.") + kind);
    if (h.count == 0) continue;
    result.Add(std::string("serve.engine_us.") + kind, HistogramMean(h) / 1e3,
               "us", h.count);
  }
  const double hits =
      static_cast<double>(CounterDelta(before, after, "serve.cache.hits"));
  const double misses =
      static_cast<double>(CounterDelta(before, after, "serve.cache.misses"));
  result.Add("serve.cache.hit_ratio", Ratio(hits, hits + misses), "ratio",
             static_cast<uint64_t>(hits + misses));
  result.Add("serve.cache.evictions_per_query",
             per_query("serve.cache.evictions"), "count", requests);
  result.Add("serve.decode_bytes_per_query",
             per_query("serve.cache.decoded_bytes"), "B", requests);
  if (ranges > 0) {
    const double r = static_cast<double>(ranges);
    result.Add("pool.tasks_per_range",
               static_cast<double>(
                   CounterDelta(pool_before, pool_after, "pool.tasks")) /
                   r,
               "count", ranges);
    result.Add("pool.steals_per_range",
               static_cast<double>(
                   CounterDelta(pool_before, pool_after, "pool.steals")) /
                   r,
               "count", ranges);
  }
}

std::vector<PathRow> ServingPath(const obs::RegistrySnapshot& before,
                                 const obs::RegistrySnapshot& after,
                                 double client_rtt_us) {
  const double handle_us =
      HistogramMean(HistogramDelta(before, after, "net.handle_ns")) / 1e3;
  const double engine_us = HistogramMean(EngineLatency(before, after)) / 1e3;
  return {
      {"net.wire", client_rtt_us - handle_us,
       "client round trip minus mean net.handle_ns"},
      {"serve.session", handle_us - engine_us,
       "mean net.handle_ns minus mean serve.engine.latency_ns"},
      {"serve.engine", engine_us, "mean serve.engine.latency_ns"},
  };
}

}  // namespace utcq::e2e
