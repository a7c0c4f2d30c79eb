#include "serve/query_engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"

namespace utcq::serve {

namespace {

/// Cache key: corpus shard in the high half, local index in the low half.
uint64_t CacheKey(uint32_t shard, uint32_t local) {
  return (static_cast<uint64_t>(shard) << 32) | local;
}

/// Pseudo-shard of tier-mode cache keys. In tier mode *every* entry —
/// sealed or live — is keyed by its global trajectory id: a sealed
/// trajectory's decoded form never changes, so the very entry warmed while
/// it was live keeps serving after the flush moves it into the sealed set,
/// and across live-shard rebuilds. (A sealed archive set never reaches
/// 2^32 - 1 real shards, so the pseudo-shard cannot collide.)
constexpr uint32_t kTierKeyShard = 0xFFFFFFFFu;

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

#define UTCQ_ENGINE_INIT(opts)                                            \
  opts_(opts), clock_(opts.clock != nullptr ? opts.clock                  \
                                            : &obs::Clock::Real()),       \
      cache_(opts.cache_budget_bytes, opts.cache_shards,                  \
             ResolveRegistry(opts.registry, owned_registry_))

QueryEngine::QueryEngine(const core::UtcqQueryProcessor& queries,
                         EngineOptions opts)
    : single_(&queries), UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

QueryEngine::QueryEngine(const shard::ShardedCorpus& corpus,
                         EngineOptions opts)
    : sharded_(&corpus), UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

QueryEngine::QueryEngine(const TierSource& tier, EngineOptions opts)
    : tier_(&tier), UTCQ_ENGINE_INIT(opts) {
  InitInstruments();
}

#undef UTCQ_ENGINE_INIT

void QueryEngine::InitInstruments() {
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
  range_candidates_ = &reg.GetHistogram("serve.engine.range_candidates");
  decode_bytes_ = &reg.GetHistogram("serve.engine.decode_bytes");
  batch_size_ = &reg.GetHistogram("serve.engine.batch_size");
}

size_t QueryEngine::num_trajectories() const {
  if (tier_ != nullptr) return tier_->Acquire()->num_trajectories();
  return sharded_ != nullptr
             ? sharded_->num_trajectories()
             : single_->decoder().view().num_trajectories();
}

size_t QueryEngine::TotalOf(const TierSnapshot* snap) const {
  return snap != nullptr ? snap->num_trajectories() : num_trajectories();
}

QueryEngine::Target QueryEngine::Resolve(uint32_t global,
                                         const TierSnapshot* snap) const {
  if (snap != nullptr) {
    const size_t sealed_n = snap->sealed_count();
    if (global < sealed_n) {
      const auto [s, local] = snap->sealed->Route(global);
      return {&snap->sealed->shard_queries(s), s, local,
              CacheKey(kTierKeyShard, global)};
    }
    const uint32_t local = global - static_cast<uint32_t>(sealed_n);
    return {&snap->live->queries(), kTierKeyShard, local,
            CacheKey(kTierKeyShard, global)};
  }
  if (sharded_ != nullptr) {
    const auto [s, local] = sharded_->Route(global);
    return {&sharded_->shard_queries(s), s, local, CacheKey(s, local)};
  }
  return {single_, 0, global, CacheKey(0, global)};
}

std::shared_ptr<const traj::DecodedTraj> QueryEngine::Pin(
    const Target& target, PinAgg* agg) {
  const core::UtcqQueryProcessor* qp = target.qp;
  const uint32_t local = target.local;
  DecodedTrajCache::PinOutcome outcome;
  auto dt = cache_.GetOrDecode(
      target.cache_key,
      [qp, local] { return qp->decoder().DecodeTraj(local); }, &outcome);
  if (agg != nullptr && !outcome.hit) {
    common::MutexLock lock(agg->mu);
    agg->decode_bytes += outcome.decoded_bytes;
    agg->misses += 1;
  }
  return dt;
}

void QueryEngine::RecordPartial(const core::QueryStats& qs, PinAgg* agg) {
  const uint64_t bytes = (qs.stream_bits_read + 7) / 8;
  partial_queries_->Increment();
  decode_bytes_partial_->Add(bytes);
  sync_seeks_->Add(qs.sync_seeks);
  if (agg != nullptr && bytes > 0) {
    common::MutexLock lock(agg->mu);
    agg->decode_bytes += bytes;
  }
}

void QueryEngine::FinishQuery(const QueryRequest& req, uint64_t latency_ns,
                              PinAgg& agg) {
  LatencyFor(req.kind).Record(latency_ns);
  uint64_t decode_bytes = 0;
  uint64_t misses = 0;
  {
    common::MutexLock lock(agg.mu);
    decode_bytes = agg.decode_bytes;
    misses = agg.misses;
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
  entry.cache_hit = misses == 0;
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
  std::shared_ptr<const TierSnapshot> snap;
  if (tier_ != nullptr) snap = tier_->Acquire();
  return ExecuteOne(req, opts_.num_threads, snap.get());
}

QueryResult QueryEngine::ExecuteOne(const QueryRequest& req,
                                    unsigned range_threads,
                                    const TierSnapshot* snap) {
  const uint64_t start_ns = clock_->NowNanos();
  PinAgg agg;
  QueryResult result;
  result.kind = req.kind;
  // A server-shaped API sees untrusted trajectory ids: out-of-range point
  // queries answer empty instead of indexing past the routing table.
  const bool routable =
      req.kind == QueryKind::kRange || req.traj < TotalOf(snap);
  if (routable) {
    switch (req.kind) {
      case QueryKind::kWhere: {
        const Target target = Resolve(req.traj, snap);
        // The uncached path rejects an out-of-window t from meta alone;
        // pinning first would turn that O(1) rejection into a full decode.
        const core::TrajMeta& meta =
            target.qp->decoder().view().meta(target.local);
        if (req.t < meta.t_first || req.t > meta.t_last) break;
        if (PartialActive()) {
          // Seek path: bracket through the sync table and decode only the
          // qualifying instances — never the cache (a partial expansion
          // cached under the full-decode key would poison later hits).
          core::QueryStats qs;
          result.where = target.qp->Where(target.local, req.t, req.alpha, &qs);
          RecordPartial(qs, &agg);
          break;
        }
        const auto dt = Pin(target, &agg);
        result.where = target.qp->Where(target.local, req.t, req.alpha, *dt);
        break;
      }
      case QueryKind::kWhen: {
        const Target target = Resolve(req.traj, snap);
        // Same principle as kWhere: the uncached path rejects a trajectory
        // with no StIU tuples near the edge from the index alone (Lemma 1
        // full skip) — keep that O(index) rejection ahead of the decode.
        // Accepted edges repeat this per-trajectory tuple lookup inside
        // When's group construction; that duplicate index probe is orders
        // cheaper than the decode the rejection avoids.
        if (!target.qp->MayPassEdge(target.local, req.edge)) break;
        if (PartialActive()) {
          core::QueryStats qs;
          result.when =
              target.qp->When(target.local, req.edge, req.rd, req.alpha, &qs);
          RecordPartial(qs, &agg);
          break;
        }
        const auto dt = Pin(target, &agg);
        result.when =
            target.qp->When(target.local, req.edge, req.rd, req.alpha, *dt);
        break;
      }
      case QueryKind::kRange:
        result.range = RangeInternal(req.region, req.t, req.alpha,
                                     range_threads, snap, &agg);
        break;
    }
  }
  queries_->Increment();
  const uint64_t now_ns = clock_->NowNanos();
  FinishQuery(req, now_ns > start_ns ? now_ns - start_ns : 0, agg);
  return result;
}

traj::RangeResult QueryEngine::RangeInternal(const network::Rect& region,
                                             traj::Timestamp tq, double alpha,
                                             unsigned num_threads,
                                             const TierSnapshot* snap,
                                             PinAgg* agg) {
  // Cached Range hands the processors a provider that pins through the
  // cache. A cold bracket passes empty providers instead, so surviving
  // members decode inline from the bitstreams (BracketTime seeks through
  // the sync tables) and the cache is neither consulted nor populated.
  const bool cached = !PartialActive();
  core::QueryStats qs;
  traj::RangeResult out;
  if (snap != nullptr) {
    // Sealed fan-out first, then the live tail; live hits are offset to
    // global ids, and since every live id exceeds every sealed id the
    // concatenation is already globally sorted.
    if (snap->sealed != nullptr) {
      shard::ShardDecodedProvider provider;
      if (cached) {
        provider = [this, snap, agg](uint32_t s, uint32_t local) {
          const uint32_t global =
              snap->sealed->manifest().shards[s].members[local];
          return Pin({&snap->sealed->shard_queries(s), s, local,
                      CacheKey(kTierKeyShard, global)},
                     agg);
        };
      }
      out = snap->sealed->Range(region, tq, alpha, &qs, num_threads,
                                provider);
    }
    if (snap->live != nullptr) {
      const uint32_t base = static_cast<uint32_t>(snap->sealed_count());
      traj::DecodedProvider provider;
      if (cached) {
        provider = [this, snap, base, agg](uint32_t local) {
          return Pin({&snap->live->queries(), kTierKeyShard, local,
                      CacheKey(kTierKeyShard, base + local)},
                     agg);
        };
      }
      for (const uint32_t local :
           snap->live->queries().Range(region, tq, alpha, provider, &qs)) {
        out.push_back(base + local);
      }
    }
  } else if (sharded_ != nullptr) {
    shard::ShardDecodedProvider provider;
    if (cached) {
      provider = [this, agg](uint32_t s, uint32_t local) {
        return Pin({&sharded_->shard_queries(s), s, local, CacheKey(s, local)},
                   agg);
      };
    }
    out = sharded_->Range(region, tq, alpha, &qs, num_threads, provider);
  } else {
    traj::DecodedProvider provider;
    if (cached) {
      provider = [this, agg](uint32_t j) {
        return Pin({single_, 0, j, CacheKey(0, j)}, agg);
      };
    }
    out = single_->Range(region, tq, alpha, provider, &qs);
  }
  if (!cached) RecordPartial(qs, agg);
  range_tuples_scanned_->Record(qs.tuples_scanned);
  range_candidates_->Record(qs.candidates);
  return out;
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());

  // One snapshot for the whole batch: every request is answered against
  // the same live+sealed split even while ingestion seals and flushes.
  std::shared_ptr<const TierSnapshot> snap;
  if (tier_ != nullptr) snap = tier_->Acquire();

  // Group point queries by target trajectory so each trajectory's decode
  // (or cache fetch) happens once per batch regardless of how requests
  // interleave. Ranges are their own work units.
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> groups;
  std::unordered_map<uint32_t, size_t> group_of;
  std::vector<uint32_t> ranges;
  const size_t total = TotalOf(snap.get());
  for (uint32_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == QueryKind::kRange) {
      ranges.push_back(i);
      continue;
    }
    if (requests[i].traj >= total) {  // untrusted id: answer empty
      results[i].kind = requests[i].kind;
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
  const unsigned range_threads = units <= 1 ? opts_.num_threads : 1;
  common::ParallelFor(units, opts_.num_threads, [&](size_t u) {
    if (u >= ranges.size()) {
      const auto& [traj_idx, members] = groups[u - ranges.size()];
      const Target target = Resolve(traj_idx, snap.get());
      const core::TrajMeta& meta =
          target.qp->decoder().view().meta(target.local);
      // Pinned by the first request that survives its cheap rejection —
      // the decode lands in that request's latency sample and pin
      // attribution, matching Execute()'s accounting, and a group of
      // all-rejected requests never decodes at all.
      std::shared_ptr<const traj::DecodedTraj> dt;
      for (const uint32_t i : members) {
        const QueryRequest& req = requests[i];
        const uint64_t start_ns = clock_->NowNanos();
        PinAgg agg;
        const auto pinned = [&]() -> const traj::DecodedTraj& {
          if (dt == nullptr) dt = Pin(target, &agg);
          return *dt;
        };
        results[i].kind = req.kind;
        if (PartialActive()) {
          // Same uncached calls as Execute()'s partial branch; requests
          // the cheap meta/index rejection dismisses don't count as
          // partial queries there either.
          core::QueryStats qs;
          bool attempted = false;
          if (req.kind == QueryKind::kWhere) {
            if (req.t >= meta.t_first && req.t <= meta.t_last) {
              results[i].where =
                  target.qp->Where(target.local, req.t, req.alpha, &qs);
              attempted = true;
            }
          } else if (target.qp->MayPassEdge(target.local, req.edge)) {
            results[i].when = target.qp->When(target.local, req.edge, req.rd,
                                              req.alpha, &qs);
            attempted = true;
          }
          if (attempted) RecordPartial(qs, &agg);
        } else if (req.kind == QueryKind::kWhere) {
          if (req.t >= meta.t_first && req.t <= meta.t_last) {
            results[i].where =
                target.qp->Where(target.local, req.t, req.alpha, pinned());
          }
        } else if (target.qp->MayPassEdge(target.local, req.edge)) {
          results[i].when = target.qp->When(target.local, req.edge, req.rd,
                                            req.alpha, pinned());
        }
        const uint64_t now_ns = clock_->NowNanos();
        FinishQuery(req, now_ns > start_ns ? now_ns - start_ns : 0, agg);
      }
    } else {
      const uint32_t i = ranges[u];
      const QueryRequest& req = requests[i];
      const uint64_t start_ns = clock_->NowNanos();
      PinAgg agg;
      results[i].kind = req.kind;
      results[i].range = RangeInternal(req.region, req.t, req.alpha,
                                       range_threads, snap.get(), &agg);
      const uint64_t now_ns = clock_->NowNanos();
      FinishQuery(req, now_ns > start_ns ? now_ns - start_ns : 0, agg);
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
