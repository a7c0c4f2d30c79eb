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
/// Every lookup names its admission rule (Admission): Range pins evict
/// least-recently-used entries to admit their decode, point queries only
/// fill free budget and never evict.
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
  /// slice); 0 disables retention entirely (every kEvict lookup decodes,
  /// every kIfRoom lookup returns nullptr).
  static constexpr uint32_t kDefaultShards = 8;

  explicit DecodedTrajCache(size_t budget_bytes,
                            uint32_t num_shards = kDefaultShards,
                            obs::MetricRegistry* registry = nullptr);

  DecodedTrajCache(const DecodedTrajCache&) = delete;
  DecodedTrajCache& operator=(const DecodedTrajCache&) = delete;

  using DecodeFn = std::function<traj::DecodedTraj()>;

  /// How a miss may claim space in its cache shard.
  enum class Admission : uint8_t {
    /// Insert, then evict from the LRU tail back to the budget (Range pins).
    kEvict,
    /// Insert only while the shard has free budget; never evict (point
    /// queries). A decode that would overflow is handed to the caller but
    /// not inserted, and it latches the shard full: later kIfRoom misses
    /// there return nullptr without decoding, so the caller answers from
    /// the bitstreams instead, until an eviction or Clear frees space.
    /// A shard runs one kIfRoom decode at a time: a kIfRoom miss that
    /// finds one in flight waits for its outcome, so concurrent misses
    /// cannot overshoot the latch with decodes that will not be admitted.
    kIfRoom,
  };

  /// What one GetOrDecode did — per-query cost attribution for the
  /// engine's decode-bytes histogram and slow-query log.
  struct PinOutcome {
    bool hit = false;
    /// Bytes this call materialized (0 on a hit; also counts a decode
    /// discarded because a concurrent miss inserted first).
    uint64_t decoded_bytes = 0;
  };

  /// Returns the cached entry for `key`, decoding (and admitting per
  /// `admission`) on miss. Returns nullptr only for a kIfRoom miss on a
  /// shard latched full (or with a zero budget slice): no decode ran, and
  /// the lookup counts as neither hit nor miss. When two kEvict lookups
  /// miss the same key concurrently both decode, and the first insert wins
  /// — wasted work under a thundering herd, but no lock is ever held
  /// across a decode.
  std::shared_ptr<const traj::DecodedTraj> GetOrDecode(
      uint64_t key, Admission admission, const DecodeFn& decode,
      PinOutcome* outcome = nullptr);

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
    /// Latched by a kIfRoom decode that did not fit; reset by any eviction
    /// and by Clear. Without it "admit while under budget" is plain LRU:
    /// every eviction leaves the shard under budget again.
    bool full UTCQ_GUARDED_BY(mu) = false;
    /// A kIfRoom decode is in flight (set before it unlocks, cleared with
    /// a notify on `admitted` when it relocks to admit or latch).
    bool admitting UTCQ_GUARDED_BY(mu) = false;
    common::CondVar admitted;
  };

  Shard& ShardFor(uint64_t key) const;
  /// Evicts from the back of `shard` until it fits its budget slice;
  /// unlatches `shard.full` if it evicted anything.
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
