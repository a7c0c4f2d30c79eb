#ifndef UTCQ_SERVE_TIER_H_
#define UTCQ_SERVE_TIER_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "core/query.h"
#include "shard/sharded.h"

namespace utcq::serve {

/// Read-side of a not-yet-flushed live shard: a query processor over the
/// live trajectories (local indices 0..count) plus ownership of everything
/// it borrows — an implementation (the ingest layer's live-shard snapshot)
/// is immutable once handed out, so queries against it are lock-free.
class LiveTail {
 public:
  virtual ~LiveTail() = default;
  virtual const core::UtcqQueryProcessor& queries() const = 0;
  virtual uint32_t count() const = 0;
};

/// One snapshot-consistent view of a live+sealed streaming tier
/// (DESIGN.md §10): the sealed archive set covers global trajectory ids
/// [0, sealed_count), the live tail covers [sealed_count, sealed_count +
/// live_count) — together exactly the trajectories sealed so far, each id
/// in precisely one part. Both members are immutable; the shared_ptrs keep
/// them alive across a concurrent flush swapping the tier underneath.
struct TierSnapshot {
  std::shared_ptr<const shard::ShardedCorpus> sealed;  // null before flush 1
  std::shared_ptr<const LiveTail> live;                // null when tail empty

  size_t sealed_count() const {
    return sealed != nullptr ? sealed->num_trajectories() : 0;
  }
  size_t live_count() const { return live != nullptr ? live->count() : 0; }
  size_t num_trajectories() const { return sealed_count() + live_count(); }
};

/// What a QueryEngine serves from: each Acquire returns a consistent
/// TierSnapshot (sealed set and live tail taken under one lock), so a
/// query — or a whole batch — sees the tier at one instant no matter how
/// ingestion and flushing race it.
class TierSource {
 public:
  virtual ~TierSource() = default;
  virtual std::shared_ptr<const TierSnapshot> Acquire() const = 0;
};

/// A tier that never changes: every Acquire hands back the one stored
/// snapshot (no allocation per query). Serves a fixed archive set or
/// corpus, and freezes a sealed+live split for tests.
class FixedTier final : public TierSource {
 public:
  explicit FixedTier(std::shared_ptr<const TierSnapshot> snap)
      : snap_(std::move(snap)) {}
  std::shared_ptr<const TierSnapshot> Acquire() const override {
    return snap_;
  }

 private:
  std::shared_ptr<const TierSnapshot> snap_;
};

}  // namespace utcq::serve

#endif  // UTCQ_SERVE_TIER_H_
