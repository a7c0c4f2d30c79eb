#ifndef UTCQ_SERVE_DECODED_CACHE_H_
#define UTCQ_SERVE_DECODED_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "traj/decoded.h"

namespace utcq::serve {

/// Byte-budgeted, sharded LRU cache of decoded trajectories — the
/// amortization structure of the query-serving layer (DESIGN.md §9).
///
/// Keys are opaque 64-bit ids (the engine uses global trajectory ids).
/// The key space is partitioned across `num_shards` independent
/// LRU lists, each behind its own mutex, so concurrent readers of distinct
/// trajectories rarely contend; the decode itself always runs *outside*
/// the lock, so a slow decode never serializes the shard's hits. Each
/// cache shard accounts its resident bytes through a common::MemoryTracker
/// and evicts least-recently-used entries past its slice of the budget.
///
/// Values are shared_ptr-pinned: an entry handed to a query stays alive for
/// as long as the query holds it, even if the cache evicts it concurrently
/// — eviction drops the cache's reference, never the caller's.
///
/// Instrumented through obs (DESIGN.md §15): hits/misses/evictions/
/// decoded-bytes counters plus resident-bytes/entries gauges under
/// `serve.cache.*`, registered in `registry` (nullptr = a private registry,
/// keeping per-instance stats exact when many caches coexist in one
/// process, as in tests).
class DecodedTrajCache {
 public:
  /// `budget_bytes` is the total across shards (each shard gets an equal
  /// slice); 0 disables retention entirely (every lookup decodes).
  static constexpr uint32_t kDefaultShards = 8;

  explicit DecodedTrajCache(size_t budget_bytes,
                            uint32_t num_shards = kDefaultShards,
                            obs::MetricRegistry* registry = nullptr);

  DecodedTrajCache(const DecodedTrajCache&) = delete;
  DecodedTrajCache& operator=(const DecodedTrajCache&) = delete;

  using DecodeFn = std::function<traj::DecodedTraj()>;

  /// What one GetOrDecode did — per-query cost attribution for the
  /// engine's decode-bytes histogram and slow-query log.
  struct PinOutcome {
    bool hit = false;
    /// Bytes this call materialized (0 on a hit; also counts a decode
    /// discarded because a concurrent miss inserted first).
    uint64_t decoded_bytes = 0;
  };

  /// Returns the cached entry for `key`, decoding (and inserting) on miss.
  /// When two threads miss the same key concurrently both decode, and the
  /// first insert wins — wasted work under a thundering herd, but no lock
  /// is ever held across a decode.
  std::shared_ptr<const traj::DecodedTraj> GetOrDecode(
      uint64_t key, const DecodeFn& decode, PinOutcome* outcome = nullptr);

  /// Lookup without decode; nullptr on miss. Does not touch hit/miss
  /// counters (introspection, tests).
  std::shared_ptr<const traj::DecodedTraj> Peek(uint64_t key) const;

  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Total bytes materialized by misses (decode volume, monotone).
    uint64_t decoded_bytes = 0;
    /// Currently resident.
    size_t resident_bytes = 0;
    size_t resident_entries = 0;
  };
  Stats stats() const;

  size_t budget_bytes() const { return budget_per_shard_ * shards_.size(); }

 private:
  struct Entry {
    uint64_t key = 0;
    std::shared_ptr<const traj::DecodedTraj> value;
    size_t bytes = 0;
  };
  struct Shard {
    mutable common::Mutex mu;
    /// front = most recently used
    std::list<Entry> lru UTCQ_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index
        UTCQ_GUARDED_BY(mu);
    /// Byte accounting moves strictly with lru/index mutations, so it
    /// shares their guard — the budget check reads it under the same lock.
    common::MemoryTracker tracker UTCQ_GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key) const;
  /// Evicts from the back of `shard` until it fits its budget slice.
  void EvictToBudget(Shard& shard) UTCQ_REQUIRES(shard.mu);

  /// Declared before the instrument pointers so they outlive every use.
  std::unique_ptr<obs::MetricRegistry> owned_registry_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* decoded_bytes_ = nullptr;
  obs::Gauge* resident_bytes_ = nullptr;
  obs::Gauge* resident_entries_ = nullptr;

  size_t budget_per_shard_ = 0;
  mutable std::vector<Shard> shards_;
};

}  // namespace utcq::serve

#endif  // UTCQ_SERVE_DECODED_CACHE_H_
