#ifndef UTCQ_SERVE_QUERY_ENGINE_H_
#define UTCQ_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/query.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/decoded_cache.h"
#include "serve/tier.h"
#include "shard/sharded.h"
#include "traj/query_types.h"

namespace utcq::serve {

/// One request of the batched serving API. `traj` addresses the global
/// trajectory space (identical to the backing corpus / sharded set).
enum class QueryKind : uint8_t { kWhere, kWhen, kRange };

struct QueryRequest {
  QueryKind kind = QueryKind::kWhere;
  uint32_t traj = 0;         // where/when target
  traj::Timestamp t = 0;     // where time / range tq
  network::EdgeId edge = 0;  // when
  double rd = 0.0;           // when
  network::Rect region{};    // range
  double alpha = 0.0;

  static QueryRequest MakeWhere(uint32_t traj, traj::Timestamp t,
                                double alpha);
  static QueryRequest MakeWhen(uint32_t traj, network::EdgeId edge, double rd,
                               double alpha);
  static QueryRequest MakeRange(const network::Rect& region,
                                traj::Timestamp tq, double alpha);
};

/// The slot matching the request's kind is filled; the others stay empty.
struct QueryResult {
  QueryKind kind = QueryKind::kWhere;
  std::vector<traj::WhereHit> where;
  std::vector<traj::WhenHit> when;
  traj::RangeResult range;
};

/// Whether point queries and cold Range brackets answer from the seekable
/// bitstreams (archive v3, DESIGN.md §16) instead of pinning a full decode.
enum class PartialDecode : uint8_t {
  /// Partial iff the cache keeps nothing resident (cache_budget_bytes == 0):
  /// with no cache to warm, a full decode per query is pure waste, while a
  /// warmed cache amortizes its decode across repeats partial decode would
  /// pay every time.
  kAuto,
  /// Always pin a full decode (pre-v3 behaviour).
  kOff,
  /// Always answer from the bitstreams; the cache is never consulted or
  /// populated by query execution. Differential harnesses force this to
  /// sweep the seek path.
  kAlways,
};

struct EngineOptions {
  /// Total decoded-trajectory cache budget. 0 keeps nothing resident
  /// (every query decodes — the cold path, useful for measurement).
  size_t cache_budget_bytes = 256ull << 20;
  uint32_t cache_shards = 8;
  /// Partial-decode policy; see PartialDecode. The partial path never
  /// touches the DecodedTrajCache in either direction — in particular it
  /// must never insert its partially expanded state under the full-decode
  /// key, where a later query would trust it as complete.
  PartialDecode partial_decode = PartialDecode::kAuto;
  /// Fan-out width for ExecuteBatch grouping and Range. 0 picks
  /// common::DefaultThreads(). Work runs on the process-wide persistent
  /// ThreadPool::Shared() (no per-batch thread spawning); this caps how
  /// many of its workers one batch enlists.
  unsigned num_threads = 0;
  /// Where the engine's `serve.*` instruments live (DESIGN.md §15).
  /// nullptr = a private registry, so independent engines (tests) keep
  /// exact per-instance stats; a server passes one registry for export.
  obs::MetricRegistry* registry = nullptr;
  /// Latency time source; nullptr = obs::Clock::Real(). Injected so tests
  /// drive the latency histograms and slow-query log deterministically.
  const obs::Clock* clock = nullptr;
  /// Queries at least this slow (microseconds) enter the slow-query log;
  /// 0 disables the log entirely (no lock ever taken for it).
  uint64_t slow_query_threshold_us = 0;
  /// How many worst queries the slow-query log retains.
  size_t slow_query_log_size = 32;
};

/// One retained slow-query record (see EngineOptions thresholds).
struct SlowQuery {
  QueryKind kind = QueryKind::kWhere;
  /// Target trajectory; UINT32_MAX for range queries.
  uint32_t traj = 0;
  double latency_us = 0.0;
  /// Bytes this query's pins materialized (0 when served from cache).
  uint64_t decode_bytes = 0;
  /// True when every pin this query took was a cache hit.
  bool cache_hit = false;
};

/// Point-in-time engine counters. Latency percentiles are read from the
/// engine's obs latency histograms (all query kinds merged).
struct EngineStats {
  uint64_t queries = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t bytes_decoded = 0;
  /// Queries answered from the bitstreams without pinning a full decode.
  uint64_t partial_queries = 0;
  /// Compressed-stream bytes those queries consumed (the partial analogue
  /// of bytes_decoded, in comparable stream units).
  uint64_t decode_bytes_partial = 0;
  /// Bracket scans the partial path started from a v3 sync point.
  uint64_t sync_seeks = 0;
  size_t cache_resident_bytes = 0;
  size_t cache_resident_entries = 0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  /// Entries currently retained in the slow-query log.
  size_t slow_queries = 0;

  double hit_rate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) /
                                  static_cast<double>(total);
  }
};

/// The query-serving layer (DESIGN.md §9): sits above a single compressed
/// corpus (CorpusView + StIU via UtcqQueryProcessor) or a sharded archive
/// set, and amortizes the expensive step of every probabilistic query — the
/// bitstream decode of the target trajectory — across repeated accesses
/// through a byte-budgeted, sharded-LRU DecodedTrajCache.
///
/// All entry points are safe to call from many threads concurrently: the
/// underlying processors are immutable, the cache takes per-shard locks,
/// and engine counters are lock-free obs instruments. Results are
/// pinned-handle exact: every query returns precisely what the uncached
/// processor returns.
class QueryEngine {
 public:
  /// Serves a single corpus. `queries` (and everything it borrows) must
  /// outlive the engine.
  explicit QueryEngine(const core::UtcqQueryProcessor& queries,
                       EngineOptions opts = {});

  /// Serves an opened sharded archive set; point queries route to the
  /// owning shard, Range fans out with the cache shared across shards.
  explicit QueryEngine(const shard::ShardedCorpus& corpus,
                       EngineOptions opts = {});

  /// Live+sealed mode: serves a streaming tier (DESIGN.md §10). Every
  /// Execute acquires one TierSnapshot — ExecuteBatch one for the whole
  /// batch — so each request sees a consistent sealed-set/live-tail split
  /// while ingestion seals and flushes underneath. Point queries route by
  /// global id to whichever part currently owns it; Range merges the
  /// sealed fan-out with the live tail's hits. Every decoded-cache entry
  /// is keyed by global id in this mode, which stays valid across
  /// live-shard rebuilds and across the flush that moves a trajectory into
  /// the sealed set (its decoded form never changes) — flushing never
  /// cools the cache.
  explicit QueryEngine(const TierSource& tier, EngineOptions opts = {});

  size_t num_trajectories() const;

  /// Single-query API, cached.
  std::vector<traj::WhereHit> Where(uint32_t traj_idx, traj::Timestamp t,
                                    double alpha);
  std::vector<traj::WhenHit> When(uint32_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha);
  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha);

  QueryResult Execute(const QueryRequest& req);

  /// Batched execution: requests are grouped by target trajectory, each
  /// needed trajectory is decoded (or fetched) once, and groups run on
  /// the shared persistent pool via ParallelFor. results[i] answers
  /// requests[i] and equals Execute(requests[i]) exactly — batching
  /// reorders work, never results.
  std::vector<QueryResult> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  EngineStats stats() const;
  /// The retained worst queries, sorted slowest first. Empty unless
  /// EngineOptions::slow_query_threshold_us is set.
  std::vector<SlowQuery> slow_queries() const;
  void ClearCache() { cache_.Clear(); }
  const EngineOptions& options() const { return opts_; }

 private:
  struct Target {
    const core::UtcqQueryProcessor* qp = nullptr;
    uint32_t shard = 0;
    uint32_t local = 0;
    uint64_t cache_key = 0;
  };

  /// Per-query pin cost, accumulated across every Pin the query takes
  /// (Range fans out across pool workers, hence the stack-local mutex).
  struct PinAgg {
    common::Mutex mu;
    uint64_t decode_bytes UTCQ_GUARDED_BY(mu) = 0;
    uint64_t misses UTCQ_GUARDED_BY(mu) = 0;
  };

  void InitInstruments();
  /// True when this engine answers point queries / cold Range brackets via
  /// partial decode (see PartialDecode).
  bool PartialActive() const {
    return opts_.partial_decode == PartialDecode::kAlways ||
           (opts_.partial_decode == PartialDecode::kAuto &&
            opts_.cache_budget_bytes == 0);
  }
  /// Folds one partial query's stream consumption into the obs counters
  /// and the per-query pin aggregation (for the decode_bytes histogram and
  /// slow-query log; cache miss accounting is untouched — no pin happened).
  void RecordPartial(const core::QueryStats& qs, PinAgg* agg);
  size_t TotalOf(const TierSnapshot* snap) const;
  Target Resolve(uint32_t global, const TierSnapshot* snap) const;
  std::shared_ptr<const traj::DecodedTraj> Pin(const Target& target,
                                               PinAgg* agg);
  QueryResult ExecuteOne(const QueryRequest& req, unsigned range_threads,
                         const TierSnapshot* snap);
  traj::RangeResult RangeInternal(const network::Rect& region,
                                  traj::Timestamp tq, double alpha,
                                  unsigned num_threads,
                                  const TierSnapshot* snap, PinAgg* agg);
  obs::Histogram& LatencyFor(QueryKind kind) {
    switch (kind) {
      case QueryKind::kWhere: return *latency_where_;
      case QueryKind::kWhen: return *latency_when_;
      case QueryKind::kRange: break;
    }
    return *latency_range_;
  }
  /// Records one finished request: latency histogram, slow-query log.
  void FinishQuery(const QueryRequest& req, uint64_t latency_ns,
                   PinAgg& agg);

  const core::UtcqQueryProcessor* single_ = nullptr;
  const shard::ShardedCorpus* sharded_ = nullptr;
  const TierSource* tier_ = nullptr;
  EngineOptions opts_;

  /// Declared before the cache and instrument pointers: both borrow it.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  const obs::Clock* clock_ = nullptr;
  obs::Counter* queries_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* partial_queries_ = nullptr;
  obs::Counter* decode_bytes_partial_ = nullptr;
  obs::Counter* sync_seeks_ = nullptr;
  obs::Histogram* latency_where_ = nullptr;
  obs::Histogram* latency_when_ = nullptr;
  obs::Histogram* latency_range_ = nullptr;
  /// Per Range: StIU tuples candidate generation read, and candidate
  /// trajectories (QueryStats::tuples_scanned / candidates).
  obs::Histogram* range_tuples_scanned_ = nullptr;
  obs::Histogram* range_candidates_ = nullptr;
  obs::Histogram* decode_bytes_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;

  DecodedTrajCache cache_;

  /// Slow-query log: touched only when a request crosses the threshold.
  mutable common::Mutex slow_mu_;
  std::vector<SlowQuery> slow_ UTCQ_GUARDED_BY(slow_mu_);
};

}  // namespace utcq::serve

#endif  // UTCQ_SERVE_QUERY_ENGINE_H_
