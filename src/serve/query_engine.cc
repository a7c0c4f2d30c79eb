#include "serve/query_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace utcq::serve {

namespace {

/// A whole single corpus served as a live tail: local index = global id.
class CorpusTail final : public LiveTail {
 public:
  explicit CorpusTail(const core::UtcqQueryProcessor& queries)
      : queries_(queries) {}
  const core::UtcqQueryProcessor& queries() const override { return queries_; }
  uint32_t count() const override {
    return static_cast<uint32_t>(queries_.decoder().view().num_trajectories());
  }

 private:
  const core::UtcqQueryProcessor& queries_;
};

obs::MetricRegistry* ResolveRegistry(
    obs::MetricRegistry* requested,
    std::unique_ptr<obs::MetricRegistry>& owned) {
  if (requested != nullptr) return requested;
  owned = std::make_unique<obs::MetricRegistry>();
  return owned.get();
}

}  // namespace

QueryRequest QueryRequest::MakeWhere(uint32_t traj, traj::Timestamp t,
                                     double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kWhere;
  req.traj = traj;
  req.t = t;
  req.alpha = alpha;
  return req;
}

QueryRequest QueryRequest::MakeWhen(uint32_t traj, network::EdgeId edge,
                                    double rd, double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kWhen;
  req.traj = traj;
  req.edge = edge;
  req.rd = rd;
  req.alpha = alpha;
  return req;
}

QueryRequest QueryRequest::MakeRange(const network::Rect& region,
                                     traj::Timestamp tq, double alpha) {
  QueryRequest req;
  req.kind = QueryKind::kRange;
  req.region = region;
  req.t = tq;
  req.alpha = alpha;
  return req;
}

QueryEngine::QueryEngine(const core::UtcqQueryProcessor& queries,
                         EngineOptions opts)
    : QueryEngine(nullptr,
                  std::make_shared<const TierSnapshot>(TierSnapshot{
                      nullptr, std::make_shared<const CorpusTail>(queries)}),
                  opts) {}

QueryEngine::QueryEngine(const shard::ShardedCorpus& corpus,
                         EngineOptions opts)
    : QueryEngine(nullptr,
                  std::make_shared<const TierSnapshot>(TierSnapshot{
                      // Non-owning alias: the caller keeps `corpus` alive.
                      {std::shared_ptr<void>(), &corpus}, nullptr}),
                  opts) {}

QueryEngine::QueryEngine(const TierSource& tier, EngineOptions opts)
    : QueryEngine(&tier, nullptr, opts) {}

QueryEngine::QueryEngine(const TierSource* tier,
                         std::shared_ptr<const TierSnapshot> fixed,
                         EngineOptions opts)
    : fixed_(std::move(fixed)),
      tier_(tier != nullptr ? tier : &fixed_),
      opts_(opts),
      clock_(opts.clock != nullptr ? opts.clock : &obs::Clock::Real()),
      cache_(opts.cache_budget_bytes, DecodedTrajCache::kDefaultShards,
             ResolveRegistry(opts.registry, owned_registry_)) {
  obs::MetricRegistry& reg =
      opts_.registry != nullptr ? *opts_.registry : *owned_registry_;
  queries_ = &reg.GetCounter("serve.engine.queries");
  batches_ = &reg.GetCounter("serve.engine.batches");
  partial_queries_ = &reg.GetCounter("serve.engine.partial_queries");
  decode_bytes_partial_ = &reg.GetCounter("serve.engine.decode_bytes_partial");
  sync_seeks_ = &reg.GetCounter("serve.engine.sync_seeks");
  latency_where_ = &reg.GetHistogram("serve.engine.latency_ns.where");
  latency_when_ = &reg.GetHistogram("serve.engine.latency_ns.when");
  latency_range_ = &reg.GetHistogram("serve.engine.latency_ns.range");
  range_tuples_scanned_ =
      &reg.GetHistogram("serve.engine.range_tuples_scanned");
  range_window_rejected_ =
      &reg.GetHistogram("serve.engine.range_window_rejected");
  range_candidates_ = &reg.GetHistogram("serve.engine.range_candidates");
  decode_bytes_ = &reg.GetHistogram("serve.engine.decode_bytes");
  batch_size_ = &reg.GetHistogram("serve.engine.batch_size");
}

size_t QueryEngine::num_trajectories() const {
  return tier_->Acquire()->num_trajectories();
}

QueryEngine::Target QueryEngine::Resolve(uint32_t global,
                                         const TierSnapshot& snap) const {
  const size_t sealed_n = snap.sealed_count();
  if (global < sealed_n) {
    const auto [s, local] = snap.sealed->Route(global);
    return {&snap.sealed->shard_queries(s), local, global};
  }
  return {&snap.live->queries(), global - static_cast<uint32_t>(sealed_n),
          global};
}

std::shared_ptr<const traj::DecodedTraj> QueryEngine::Pin(
    const Target& target, DecodedTrajCache::Admission admission,
    PinAgg* agg) {
  DecodedTrajCache::PinOutcome outcome;
  auto dt = cache_.GetOrDecode(
      target.global, admission,
      [&target] { return target.qp->decoder().DecodeTraj(target.local); },
      &outcome);
  if (agg != nullptr && dt != nullptr) {
    common::MutexLock lock(agg->mu);
    if (outcome.hit) {
      agg->hits += 1;
    } else {
      agg->decode_bytes += outcome.decoded_bytes;
      agg->misses += 1;
    }
  }
  return dt;
}

void QueryEngine::RecordPartial(const core::QueryStats& qs, PinAgg* agg) {
  const uint64_t bytes = (qs.stream_bits_read + 7) / 8;
  partial_queries_->Increment();
  decode_bytes_partial_->Add(bytes);
  sync_seeks_->Add(qs.sync_seeks);
  if (agg != nullptr) {
    common::MutexLock lock(agg->mu);
    agg->decode_bytes += bytes;
    agg->partial = true;
  }
}

void QueryEngine::FinishQuery(const QueryRequest& req, uint64_t latency_ns,
                              PinAgg& agg) {
  LatencyFor(req.kind).Record(latency_ns);
  uint64_t decode_bytes = 0;
  bool cache_hit = false;
  bool partial = false;
  {
    common::MutexLock lock(agg.mu);
    decode_bytes = agg.decode_bytes;
    cache_hit = agg.hits > 0 && agg.misses == 0;
    partial = agg.partial;
  }
  decode_bytes_->Record(decode_bytes);

  const uint64_t threshold_ns = opts_.slow_query_threshold_us * 1000;
  if (threshold_ns == 0 || latency_ns < threshold_ns ||
      opts_.slow_query_log_size == 0) {
    return;
  }
  SlowQuery entry;
  entry.kind = req.kind;
  entry.traj = req.kind == QueryKind::kRange ? UINT32_MAX : req.traj;
  entry.latency_us = static_cast<double>(latency_ns) / 1000.0;
  entry.decode_bytes = decode_bytes;
  entry.cache_hit = cache_hit;
  entry.partial = partial;
  common::MutexLock lock(slow_mu_);
  if (slow_.size() < opts_.slow_query_log_size) {
    slow_.push_back(entry);
    return;
  }
  // Full: keep the N worst by displacing the fastest retained entry.
  auto fastest = std::min_element(
      slow_.begin(), slow_.end(), [](const SlowQuery& a, const SlowQuery& b) {
        return a.latency_us < b.latency_us;
      });
  if (fastest->latency_us < entry.latency_us) *fastest = entry;
}

std::vector<SlowQuery> QueryEngine::slow_queries() const {
  std::vector<SlowQuery> out;
  {
    common::MutexLock lock(slow_mu_);
    out = slow_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQuery& a, const SlowQuery& b) {
              return a.latency_us > b.latency_us;
            });
  return out;
}

std::vector<traj::WhereHit> QueryEngine::Where(uint32_t traj_idx,
                                               traj::Timestamp t,
                                               double alpha) {
  return Execute(QueryRequest::MakeWhere(traj_idx, t, alpha)).where;
}

std::vector<traj::WhenHit> QueryEngine::When(uint32_t traj_idx,
                                             network::EdgeId edge, double rd,
                                             double alpha) {
  return Execute(QueryRequest::MakeWhen(traj_idx, edge, rd, alpha)).when;
}

traj::RangeResult QueryEngine::Range(const network::Rect& region,
                                     traj::Timestamp tq, double alpha) {
  return Execute(QueryRequest::MakeRange(region, tq, alpha)).range;
}

QueryResult QueryEngine::Execute(const QueryRequest& req) {
  const std::shared_ptr<const TierSnapshot> snap = tier_->Acquire();
  std::shared_ptr<const traj::DecodedTraj> dt;
  QueryResult result = ExecuteOne(req, 0, *snap, &dt);
  queries_->Increment();
  return result;
}

QueryResult QueryEngine::ExecuteOne(
    const QueryRequest& req, unsigned range_threads, const TierSnapshot& snap,
    std::shared_ptr<const traj::DecodedTraj>* dt) {
  const uint64_t start_ns = clock_->NowNanos();
  PinAgg agg;
  QueryResult result;
  result.kind = req.kind;
  if (req.kind == QueryKind::kRange) {
    result.range = RangeInternal(req.region, req.t, req.alpha, range_threads,
                                 snap, &agg);
  } else if (req.traj < snap.num_trajectories()) {
    // A server-shaped API sees untrusted trajectory ids: out-of-range
    // point queries answer empty (still timed and accounted) instead of
    // indexing past the routing table.
    AnswerPoint(req, Resolve(req.traj, snap), dt, &agg, &result);
  }
  const uint64_t now_ns = clock_->NowNanos();
  FinishQuery(req, now_ns > start_ns ? now_ns - start_ns : 0, agg);
  return result;
}

void QueryEngine::AnswerPoint(const QueryRequest& req, const Target& target,
                              std::shared_ptr<const traj::DecodedTraj>* dt,
                              PinAgg* agg, QueryResult* result) {
  const core::UtcqQueryProcessor& qp = *target.qp;
  const bool where = req.kind == QueryKind::kWhere;
  // The uncached path rejects an out-of-window t from meta alone, and a
  // trajectory with no StIU tuples near the edge from the index alone
  // (Lemma 1 full skip); pinning first would turn those cheap rejections
  // into full decodes. Accepted edges repeat the tuple lookup inside
  // When's group construction — a probe orders cheaper than the decode
  // the rejection avoids.
  if (where) {
    const core::TrajMeta& meta = qp.decoder().view().meta(target.local);
    if (req.t < meta.t_first || req.t > meta.t_last) return;
  } else if (!qp.MayPassEdge(target.local, req.edge)) {
    return;
  }
  // The decode lands in this request's latency sample and pin attribution.
  // Point pins never evict: on a full cache shard no decode runs and the
  // handle stays empty.
  if (*dt == nullptr) {
    *dt = Pin(target, DecodedTrajCache::Admission::kIfRoom, agg);
  }
  if (*dt == nullptr) {
    // Seek path: bracket through the sync table and decode only the
    // qualifying instances — never into the cache (a partial expansion
    // cached under the full-decode key would poison later hits).
    core::QueryStats qs;
    if (where) {
      result->where = qp.Where(target.local, req.t, req.alpha, &qs);
    } else {
      result->when = qp.When(target.local, req.edge, req.rd, req.alpha, &qs);
    }
    RecordPartial(qs, agg);
    return;
  }
  if (where) {
    result->where = qp.Where(target.local, req.t, req.alpha, **dt);
  } else {
    result->when = qp.When(target.local, req.edge, req.rd, req.alpha, **dt);
  }
}

traj::RangeResult QueryEngine::RangeInternal(const network::Rect& region,
                                             traj::Timestamp tq, double alpha,
                                             unsigned num_threads,
                                             const TierSnapshot& snap,
                                             PinAgg* agg) {
  // Cached Range hands the processors a provider that pins through the
  // cache, evicting to admit. With no budget a cold bracket passes empty
  // providers instead, so surviving members decode inline from the
  // bitstreams (BracketTime seeks through the sync tables) and the cache is
  // neither consulted nor populated.
  const bool cached = cache_.budget_bytes() > 0;
  core::QueryStats qs;
  traj::RangeResult out;
  // Sealed fan-out first, then the live tail; live hits are offset to
  // global ids, and since every live id exceeds every sealed id the
  // concatenation is already globally sorted.
  if (snap.sealed != nullptr) {
    shard::ShardDecodedProvider provider;
    if (cached) {
      provider = [this, &snap, agg](uint32_t s, uint32_t local) {
        return Pin({&snap.sealed->shard_queries(s), local,
                    snap.sealed->manifest().shards[s].members[local]},
                   DecodedTrajCache::Admission::kEvict, agg);
      };
    }
    out = snap.sealed->Range(region, tq, alpha, &qs, num_threads, provider);
  }
  if (snap.live != nullptr) {
    const uint32_t base = static_cast<uint32_t>(snap.sealed_count());
    traj::DecodedProvider provider;
    if (cached) {
      provider = [this, &snap, base, agg](uint32_t local) {
        return Pin({&snap.live->queries(), local, base + local},
                   DecodedTrajCache::Admission::kEvict, agg);
      };
    }
    for (const uint32_t local :
         snap.live->queries().Range(region, tq, alpha, provider, &qs)) {
      out.push_back(base + local);
    }
  }
  if (!cached) RecordPartial(qs, agg);
  range_tuples_scanned_->Record(qs.tuples_scanned);
  range_window_rejected_->Record(qs.window_rejected);
  range_candidates_->Record(qs.candidates);
  return out;
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());

  // One snapshot for the whole batch: every request is answered against
  // the same live+sealed split even while ingestion seals and flushes.
  const std::shared_ptr<const TierSnapshot> snap = tier_->Acquire();

  // Group point queries by target trajectory so each trajectory's decode
  // (or cache fetch) happens once per batch regardless of how requests
  // interleave. Ranges are their own work units.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> groups;
  std::unordered_map<uint32_t, size_t> group_of;
  std::vector<uint32_t> ranges;
  for (uint32_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == QueryKind::kRange) {
      ranges.push_back(i);
      continue;
    }
    const auto [it, inserted] =
        group_of.try_emplace(requests[i].traj, groups.size());
    if (inserted) groups.push_back({requests[i].traj, {}});
    groups[it->second].second.push_back(i);
  }

  // Ranges first: ParallelFor hands out indices in order, and the ranges
  // are the long units — starting them immediately lets the cheap groups
  // fill the remaining worker time instead of a late Range gating the
  // whole batch (longest-processing-time-first). A lone unit cannot
  // saturate the workers, so only then does the nested fan-out get them.
  const size_t units = groups.size() + ranges.size();
  const unsigned range_threads = units <= 1 ? 0 : 1;
  common::ParallelFor(units, 0, [&](size_t u) {
    if (u < ranges.size()) {
      results[ranges[u]] =
          ExecuteOne(requests[ranges[u]], range_threads, *snap, nullptr);
      return;
    }
    // One lazy pin per group: a group of all-rejected requests never
    // decodes at all.
    std::shared_ptr<const traj::DecodedTraj> dt;
    for (const uint32_t i : groups[u - ranges.size()].second) {
      results[i] = ExecuteOne(requests[i], range_threads, *snap, &dt);
    }
  });

  queries_->Add(requests.size());
  batches_->Increment();
  batch_size_->Record(requests.size());
  return results;
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  out.queries = queries_->value();
  out.batches = batches_->value();
  const DecodedTrajCache::Stats cache = cache_.stats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.bytes_decoded = cache.decoded_bytes;
  out.partial_queries = partial_queries_->value();
  out.decode_bytes_partial = decode_bytes_partial_->value();
  out.sync_seeks = sync_seeks_->value();
  out.cache_resident_bytes = cache.resident_bytes;
  out.cache_resident_entries = cache.resident_entries;

  obs::HistogramSnapshot merged = latency_where_->Snapshot();
  merged.MergeFrom(latency_when_->Snapshot());
  merged.MergeFrom(latency_range_->Snapshot());
  out.p50_latency_us = merged.p50() / 1000.0;
  out.p99_latency_us = merged.p99() / 1000.0;
  {
    common::MutexLock lock(slow_mu_);
    out.slow_queries = slow_.size();
  }
  return out;
}

}  // namespace utcq::serve
