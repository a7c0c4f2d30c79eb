#ifndef UTCQ_SHARD_SHARDED_H_
#define UTCQ_SHARD_SHARDED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/encoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "network/grid_index.h"
#include "traj/decoded.h"
#include "traj/types.h"

namespace utcq::shard {

/// Decoded-trajectory lookup addressed by (shard, local index) — the
/// sharded counterpart of traj::DecodedProvider, supplied by the serving
/// layer so a Range fan-out shares one cache across shards.
using ShardDecodedProvider =
    std::function<std::shared_ptr<const traj::DecodedTraj>(uint32_t shard,
                                                           uint32_t local)>;

/// How trajectories are assigned to shards. Values are persisted in the
/// shard manifest (archive::ShardManifest::policy): append-only, never
/// renumber.
enum class ShardPolicy : uint8_t {
  /// Shard by a mix of the trajectory id — uniform load regardless of
  /// ingestion order. The default.
  kHash = 0,
  /// Shard by the trajectory's start-time window: trajectories beginning in
  /// the same `time_window_s` window land in the same shard (modulo the
  /// shard count), so time-bounded scans touch few shards.
  kTimePartition = 1,
  /// Streaming flush log (DESIGN.md §10): each shard is one flush
  /// generation, members are the contiguous global ids sealed between two
  /// flushes, in seal order. Written by ingest::Flusher, never by
  /// MakeShardPlan.
  kAppendLog = 2,
};

struct ShardOptions {
  uint32_t num_shards = 8;
  /// Worker threads for compression and fan-out; 0 picks
  /// common::DefaultThreads().
  unsigned num_threads = 0;
  ShardPolicy policy = ShardPolicy::kHash;
  /// Window length for kTimePartition (seconds).
  int64_t time_window_s = 3600;
};

/// Assignment of the corpus's global trajectory indices to shards:
/// members[s] lists shard s's global indices, strictly ascending. The
/// local index of a trajectory within its shard is its position in that
/// list — the invariant every routing decision rests on.
struct ShardPlan {
  ShardPolicy policy = ShardPolicy::kHash;
  int64_t time_window_s = 0;
  std::vector<std::vector<uint32_t>> members;

  uint32_t num_shards() const { return static_cast<uint32_t>(members.size()); }
};

ShardPlan MakeShardPlan(const traj::UncertainCorpus& corpus,
                        const ShardOptions& opts);

/// Path of shard `shard`'s archive file for a manifest at `manifest_path` —
/// the naming scheme ShardedBuild::Save writes and the manifest records
/// (relative to its own directory). Callers managing set files (cleanup,
/// replication) derive names through this instead of re-rolling the suffix.
std::string ShardArchivePath(const std::string& manifest_path,
                             uint32_t shard);

/// A compressed shard's StIU index, derived from the shard's streams on
/// first dereference by the walk ArchiveReader opens an archive with
/// (core::DeriveMetasAndIndex, DESIGN.md §6, §8), once: dereferences racing
/// the first wait for its derivation and get the same object. `grid` and
/// `corpus` must outlive it.
class LazyStiuIndex {
 public:
  LazyStiuIndex(const network::GridIndex& grid, core::StiuParams params,
                const core::CompressedCorpus& corpus)
      : grid_(grid), params_(params), corpus_(corpus) {}
  LazyStiuIndex(const LazyStiuIndex&) = delete;
  LazyStiuIndex& operator=(const LazyStiuIndex&) = delete;

  const core::StiuIndex& operator*() const;
  const core::StiuIndex* operator->() const { return &**this; }

 private:
  const network::GridIndex& grid_;
  const core::StiuParams params_;
  const core::CompressedCorpus& corpus_;
  mutable common::Mutex mu_;
  mutable std::unique_ptr<core::StiuIndex> index_ UTCQ_GUARDED_BY(mu_);
};

/// One compressed shard: an independent CompressedCorpus over the shard's
/// sub-corpus, the parameters its archive records, and its StIU index,
/// which nothing derives until a caller dereferences it: the writer needs
/// only the parameters.
struct CompressedShard {
  /// Records `index_params_in` as an index over `grid` does
  /// (core::StiuIndex::RecordedParams), so Save writes what the index
  /// holds.
  CompressedShard(core::CompressedCorpus corpus_in,
                  const network::GridIndex& grid,
                  core::StiuParams index_params_in)
      : corpus(std::move(corpus_in)),
        index_params(core::StiuIndex::RecordedParams(grid, index_params_in)),
        index(grid, index_params, corpus) {}

  const core::CompressedCorpus corpus;
  const core::StiuParams index_params;
  const LazyStiuIndex index;
};

/// Write-side product of a sharded compression run: the plan plus one
/// CompressedShard per shard. Save writes the multi-file archive set —
/// per-shard §6 containers next to a §8 manifest, shards first so the
/// manifest only ever names files that exist.
struct ShardedBuild {
  ShardPlan plan;
  std::vector<std::unique_ptr<CompressedShard>> shards;

  /// Sum of the shards' compressed payloads in bits.
  uint64_t total_bits() const;
  /// Per-component compressed sizes summed across shards.
  traj::ComponentSizes compressed_bits() const;

  /// Writes `manifest_path` plus one `<manifest>.shard-NNN` file per shard
  /// in the same directory. The shard files are written concurrently on
  /// the shared pool; the manifest only after all of them succeeded. On
  /// failure no manifest is written and `*error` is the lowest-index
  /// failing shard's error.
  bool Save(const std::string& manifest_path,
            std::string* error = nullptr) const;
};

/// Parallel compression pipeline: partitions a corpus by the shard policy
/// and compresses the shards concurrently. Each shard runs the
/// single-threaded UtcqCompressor over its members, read in place from the
/// caller's corpus — shards share only immutable inputs (network, grid,
/// corpus), so no locking is involved. No StIU index is built here: each
/// shard's is derived on first use (LazyStiuIndex).
class ShardedCompressor {
 public:
  /// `net` and `grid` must outlive the compressor and every build it
  /// returns. index_params.cells_per_side is forced to the grid's.
  ShardedCompressor(const network::RoadNetwork& net,
                    const network::GridIndex& grid, core::UtcqParams params,
                    core::StiuParams index_params, ShardOptions opts);

  /// Compresses every shard straight from `corpus` by reference: no
  /// trajectory is copied.
  ShardedBuild Compress(const traj::UncertainCorpus& corpus) const;

  const ShardOptions& options() const { return opts_; }

 private:
  const network::RoadNetwork& net_;
  const network::GridIndex& grid_;
  core::UtcqParams params_;
  core::StiuParams index_params_;
  ShardOptions opts_;
};

/// Read-side of a sharded archive set: opens the manifest and every shard
/// archive, then serves the three probabilistic queries over the global
/// trajectory space. Where/When route to the owning shard through the
/// manifest's member lists; Range fans out across all shards in parallel
/// and merges the hits back to global indices. Results are identical to an
/// unsharded corpus over the same trajectories (pinned by tests).
class ShardedCorpus {
 public:
  ShardedCorpus() = default;

  /// Opens manifest + shards. `net` must be the network the corpus was
  /// compressed against and must outlive this object. Shards are read,
  /// validated and indexed concurrently on the shared pool; the cross-shard
  /// checks run in shard order, so the error reported is the first one in
  /// shard order. On failure returns false and leaves the corpus unopened.
  bool Open(const network::RoadNetwork& net, const std::string& manifest_path,
            std::string* error = nullptr);

  bool is_open() const { return !shards_.empty(); }
  size_t num_shards() const { return shards_.size(); }
  size_t num_trajectories() const { return route_.size(); }
  const archive::ShardManifest& manifest() const { return manifest_; }

  /// Shard and local index owning global trajectory `j`.
  std::pair<uint32_t, uint32_t> Route(size_t j) const { return route_[j]; }

  /// Shard `s`'s query processor, for callers (the serving layer) that
  /// route point queries themselves and pass decoded handles through.
  const core::UtcqQueryProcessor& shard_queries(uint32_t s) const {
    return *shards_[s]->queries;
  }

  std::vector<traj::WhereHit> Where(size_t traj_idx, traj::Timestamp t,
                                    double alpha,
                                    core::QueryStats* stats = nullptr) const;
  std::vector<traj::WhenHit> When(size_t traj_idx, network::EdgeId edge,
                                  double rd, double alpha,
                                  core::QueryStats* stats = nullptr) const;

  /// Fan-out range query; trajectory ids in the result are global. With
  /// num_threads == 0 the manifest's shard count and DefaultThreads()
  /// bound the parallelism. A non-empty `provider` serves per-shard decoded
  /// handles (from the engine's cache) to every shard's member walk.
  traj::RangeResult Range(const network::Rect& region, traj::Timestamp tq,
                          double alpha, core::QueryStats* stats = nullptr,
                          unsigned num_threads = 0,
                          const ShardDecodedProvider& provider = nullptr) const;

 private:
  struct Shard {
    archive::ArchiveReader reader;
    std::unique_ptr<core::StiuIndex> index;
    std::unique_ptr<core::UtcqQueryProcessor> queries;
  };

  const network::RoadNetwork* net_ = nullptr;
  std::unique_ptr<network::GridIndex> grid_;
  archive::ShardManifest manifest_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global trajectory index -> (shard, local index).
  std::vector<std::pair<uint32_t, uint32_t>> route_;
};

}  // namespace utcq::shard

#endif  // UTCQ_SHARD_SHARDED_H_
