#ifndef UTCQ_INGEST_STREAMING_SERVICE_H_
#define UTCQ_INGEST_STREAMING_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ingest/flusher.h"
#include "ingest/ingestor.h"
#include "ingest/live_shard.h"
#include "ingest/session.h"
#include "network/grid_index.h"
#include "network/road_network.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/tier.h"

namespace utcq::ingest {

/// Everything the streaming tier is tuned by, in one bundle.
struct StreamingOptions {
  /// Online map matching (bounded lag + the batch MatchParams).
  matching::OnlineMatchParams match;
  /// Seal policy.
  SessionLimits limits;
  /// Compression and StIU parameters of the live shard and every flushed
  /// generation (index cells are forced to the grid's resolution).
  core::UtcqParams params;
  core::StiuParams index_params;
  /// Where the ingest tier's `ingest.*` instruments live (DESIGN.md §15).
  /// nullptr = each component owns a private registry; a server passes one
  /// registry (shared with its QueryEngine) for unified export.
  obs::MetricRegistry* registry = nullptr;
  /// Time source for seal-latency / flush-duration histograms; nullptr =
  /// the real steady clock.
  const obs::Clock* clock = nullptr;
};

/// The streaming ingestion service (DESIGN.md §10) — the subsystem that
/// turns the batch compressor into something GPS points can be thrown at:
///
///   raw point --Push--> IngestSession (online Viterbi, bounded lag)
///     --seal--> LiveShard (incremental UtcqCompressor + StIU)
///     --Flush--> append-log archive set on disk (crash-consistent)
///
/// and the serving side: StreamingService is a serve::TierSource, so a
/// serve::QueryEngine constructed over it answers Where/When/Range across
/// the union of the flushed (sealed) set and the unflushed live tail under
/// a snapshot-consistent view. Stream-then-flush equals batch: flushing
/// writes exactly the bytes batch compression of the same sealed
/// trajectories would produce (pinned by tests/ingest_test.cc).
///
/// Thread safety: Push/EndSession/AdvanceTime, Flush, and Acquire may all
/// race freely. Ingestion locks per session + the live shard; Acquire
/// takes the tier lock; Flush does its disk work without blocking either
/// and takes the tier lock only for the final publication (sealed-set swap
/// + live-shard trim), which is what keeps every Acquire'd view exact.
class StreamingService final : public serve::TierSource {
 public:
  /// `net` and `grid` must outlive the service. `manifest_path` is where
  /// the sealed set lives; call Open() before anything else.
  StreamingService(const network::RoadNetwork& net,
                   const network::GridIndex& grid, std::string manifest_path,
                   StreamingOptions opts);

  /// Opens the sealed set (a missing manifest means a fresh service) and
  /// anchors the live shard's id space after it. Unflushed live data of a
  /// previous process is gone by design — a crash loses at most the tail
  /// sealed since the last Flush, never flushed generations.
  bool Open(std::string* error = nullptr);

  // --- ingestion ---
  matching::AppendStatus Push(uint64_t vehicle, const traj::RawPoint& p) {
    return ingestor_.Push(vehicle, p);
  }
  size_t EndSession(uint64_t vehicle) { return ingestor_.EndSession(vehicle); }
  size_t EndAllSessions() { return ingestor_.EndAllSessions(); }
  size_t AdvanceTime(traj::Timestamp now) {
    return ingestor_.AdvanceTime(now);
  }

  // --- durability ---
  /// Freezes the live shard into the next on-disk generation. A no-op
  /// success when the live shard is empty. Serialized against itself;
  /// ingestion and queries keep running throughout.
  bool Flush(std::string* error = nullptr);
  /// Full crash matrix (every FlushStep); see Flusher::set_crash_hook.
  void set_flush_crash_hook(Flusher::CrashHook hook) {
    common::MutexLock flush_lock(flush_mu_);
    flusher_.set_crash_hook(std::move(hook));
  }

  // --- serving (serve::TierSource) ---
  std::shared_ptr<const serve::TierSnapshot> Acquire() const override;

  // --- introspection ---
  IngestStats stats() const { return ingestor_.stats(); }
  size_t open_sessions() const { return ingestor_.open_sessions(); }
  size_t num_sealed() const;
  size_t num_live() const { return live_.size(); }
  size_t num_trajectories() const;
  size_t num_generations() const;
  std::string manifest_path() const {
    common::MutexLock flush_lock(flush_mu_);
    return flusher_.manifest_path();
  }
  /// Copy of the unflushed trajectories (tests pin stream==batch with it).
  std::vector<traj::UncertainTrajectory> LiveTrajectories() const {
    return live_.Trajectories();
  }

 private:
  LiveShard live_;
  /// Not internally synchronized (see Flusher docs) — every touch,
  /// including the inline hook setters above, holds flush_mu_.
  Flusher flusher_ UTCQ_GUARDED_BY(flush_mu_);
  StreamIngestor ingestor_;  // declared last: its sink appends into live_

  /// Guards the published tier (sealed_ + live_'s base/trim) against
  /// Acquire, so every snapshot sees sealed and live agreeing on the id
  /// split. Always taken before the live shard's internal lock — the
  /// flush publication point depends on this order (DESIGN.md §13).
  mutable common::Mutex tier_mu_;
  std::shared_ptr<const shard::ShardedCorpus> sealed_
      UTCQ_GUARDED_BY(tier_mu_);

  /// Serializes flushes (and Open) against each other only.
  mutable common::Mutex flush_mu_;
};

}  // namespace utcq::ingest

#endif  // UTCQ_INGEST_STREAMING_SERVICE_H_
