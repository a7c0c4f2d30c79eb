#ifndef UTCQ_INGEST_LIVE_SHARD_H_
#define UTCQ_INGEST_LIVE_SHARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/encoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "network/grid_index.h"
#include "network/road_network.h"
#include "serve/tier.h"
#include "traj/types.h"

namespace utcq::ingest {

/// One immutable snapshot of the live shard, the serve layer's LiveTail:
/// a query processor over the sealed-but-unflushed trajectories plus
/// everything it borrows (its own copy of the compressed streams, the StIU
/// index built over them). Handed out by shared_ptr, so queries keep
/// running against it while the shard appends, flushes and rebuilds.
class LiveSnapshot final : public serve::LiveTail {
 public:
  const core::UtcqQueryProcessor& queries() const override { return *qp_; }
  uint32_t count() const override { return count_; }

  /// Global trajectory id of local index 0 (== the sealed set's size at
  /// snapshot time).
  uint32_t base() const { return base_; }
  const core::CompressedCorpus& corpus() const { return cc_; }
  const core::StiuIndex& index() const { return *index_; }

 private:
  friend class LiveShard;
  LiveSnapshot() = default;

  core::CompressedCorpus cc_;
  std::unique_ptr<core::StiuIndex> index_;
  std::unique_ptr<core::UtcqQueryProcessor> qp_;
  uint32_t base_ = 0;
  uint32_t count_ = 0;
};

/// The in-memory live shard of the streaming tier (DESIGN.md §10): sealed
/// trajectories are appended one at a time onto an incrementally grown
/// CompressedCorpus (UtcqCompressor::AppendTrajectory — bit-identical to
/// the batch build of the same sequence, which is what makes flushing
/// equal batch compression). Queries go through Snapshot(), a cached
/// immutable view rebuilt lazily after a change; the flusher freezes the
/// current snapshot to disk and then calls DropFlushed.
///
/// All entry points are thread-safe behind one internal mutex; the
/// expensive per-append work (the trajectory's compression) runs inside
/// it, serializing seals — acceptable because seals are rare next to
/// points, and required because the streams are append-ordered.
class LiveShard {
 public:
  /// `net` and `grid` must outlive the shard and every snapshot it hands
  /// out. index_params.cells_per_side is forced to the grid's.
  LiveShard(const network::RoadNetwork& net, const network::GridIndex& grid,
            core::UtcqParams params, core::StiuParams index_params);

  /// Global id of the next trajectory to be appended == base() + size().
  uint32_t base() const;
  size_t size() const;

  /// Appends a sealed trajectory (assigning it the next global id, also
  /// returned) and invalidates the cached snapshot.
  uint32_t Append(traj::UncertainTrajectory tu);

  /// The current immutable read-side; nullptr while the shard is empty.
  /// Cached: repeated calls between changes return the same snapshot. A
  /// miss copies the state under the lock but runs the expensive StIU
  /// build *outside* it (version-checked install, bounded retries), so
  /// seals and other snapshot readers keep flowing while one rebuilds.
  std::shared_ptr<const LiveSnapshot> Snapshot() const;

  /// Removes the `count` oldest trajectories (just flushed into the sealed
  /// set), advances base accordingly, and rebuilds the compressed streams
  /// over whatever arrived since the flushed snapshot was taken.
  void DropFlushed(size_t count);

  /// Re-anchors the global id space under the sealed set; only legal while
  /// the shard is empty (service open/reopen).
  void ResetBase(uint32_t base);

  /// Copy of the sealed-but-unflushed trajectories (tests, introspection).
  std::vector<traj::UncertainTrajectory> Trajectories() const;

 private:
  /// Builds a snapshot from the members directly.
  std::shared_ptr<const LiveSnapshot> BuildLocked() const UTCQ_REQUIRES(mu_);

  const network::RoadNetwork& net_;
  const network::GridIndex& grid_;
  core::StiuParams index_params_;
  /// The incremental encoder: AppendTrajectory mutates its reference
  /// bookkeeping, so it moves only under mu_ (constructor use aside).
  core::UtcqCompressor compressor_ UTCQ_GUARDED_BY(mu_);

  mutable common::Mutex mu_;
  uint32_t base_ UTCQ_GUARDED_BY(mu_) = 0;
  /// Bumped by every mutation; Snapshot's optimistic build re-validates
  /// against it before installing.
  uint64_t version_ UTCQ_GUARDED_BY(mu_) = 0;
  std::vector<traj::UncertainTrajectory> trajs_ UTCQ_GUARDED_BY(mu_);
  core::CompressedCorpus cc_ UTCQ_GUARDED_BY(mu_);
  mutable std::shared_ptr<const LiveSnapshot> cached_ UTCQ_GUARDED_BY(mu_);
};

}  // namespace utcq::ingest

#endif  // UTCQ_INGEST_LIVE_SHARD_H_
