#ifndef UTCQ_BENCH_E2E_REPLAY_H_
#define UTCQ_BENCH_E2E_REPLAY_H_

// Per-layer measurements taken from outside the library: the traced run
// replays a build and a sample of queries through the layers' public
// functions, one call at a time on one thread, and times each call; the
// serving layers are read from the instruments they already export. The
// end-to-end numbers never come from here.

#include <cstdint>
#include <string>
#include <vector>

#include "core/corpus_meta.h"
#include "core/stiu_index.h"
#include "harness.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "traj/types.h"

namespace utcq::e2e {

/// Traced runs replay this many point queries and Range queries through
/// ReplayQueries; span request ids of the replay start at
/// kReplayRequestBase, clear of the timed phase's.
inline constexpr size_t kReplayPoint = 2000;
inline constexpr size_t kReplayRange = 500;
inline constexpr uint64_t kReplayRequestBase = uint64_t{1} << 56;
/// Span buffer of a traced run, and the events trace.json keeps of it.
inline constexpr size_t kTraceSpans = size_t{4} << 20;
inline constexpr size_t kTraceEvents = 100000;

/// Compression parameters every workload builds with for `profile`.
core::UtcqParams ParamsFor(const traj::DatasetProfile& profile);
core::StiuParams IndexParams();

/// Raw size of a corpus plus the shape counts of the input fingerprint.
struct CorpusShape {
  uint64_t trajectories = 0;
  uint64_t points = 0;
  uint64_t instances = 0;
  traj::ComponentSizes raw;
};
CorpusShape MeasureCorpus(const network::RoadNetwork& net,
                          const traj::UncertainCorpus& corpus);
void AddFingerprint(const CorpusShape& shape, uint64_t archive_bytes,
                    Result& result);

/// Every file of the archive set under `manifest`: the manifest itself
/// plus one archive per shard.
std::vector<std::string> ArchiveFiles(const std::string& manifest,
                                      size_t num_shards);

/// Single-thread replay of a build, stage by stage: for each shard's
/// trajectories the encoder's stage functions (improved TED
/// representation, pivots, FJD score matrix, reference selection,
/// referential factorization) are called and timed one by one, then the
/// whole UtcqCompressor::AppendTrajectory, then the shard's StIU build.
struct BuildReplay {
  size_t trajectories = 0;
  double repr_us = 0.0;
  double pivot_us = 0.0;
  double fjd_us = 0.0;
  double refsel_us = 0.0;
  double referential_us = 0.0;
  double append_us = 0.0;
  double stiu_us = 0.0;
  /// Per shard: AppendTrajectory over its members plus its StIU build —
  /// what one pool worker spends on the shard.
  std::vector<double> shard_us;
};
BuildReplay ReplayBuild(const City& city, const core::UtcqParams& params,
                        const traj::UncertainCorpus& corpus,
                        const std::vector<std::vector<uint32_t>>& members,
                        Tracer& tracer);

/// build.* stage metrics. `parallel_wall_us` is the measured wall time of
/// the parallel compression the replay mirrors over `threads` workers.
void AddBuildMetrics(const BuildReplay& replay, double parallel_wall_us,
                     unsigned threads, Result& result);

/// core.* compression accounting: the paper's payload ratio and its
/// per-stream split, and the StIU bytes per trajectory.
void AddCoreMetrics(const CorpusShape& shape,
                    const traj::ComponentSizes& compressed,
                    uint64_t index_bytes, Result& result);

/// Replays `sample` in-process against the opened archive set under
/// `manifest`: DecodeTraj of each point-query target, Where/When over the
/// decoded handle, the StIU probe of each Range's cells, and
/// ShardedCorpus::Range with its QueryStats. Adds the decode.*, query.*,
/// stiu.* and range.* metrics. Span request ids start at `first_request`.
/// Returns the replay's mean times, which the blocking paths split the
/// engine's time with.
struct QueryReplay {
  double decode_us = 0.0;  // per DecodeTraj
  double point_us = 0.0;   // per Where/When over a decoded handle
  double probe_us = 0.0;   // per Range, StIU probe of every shard
};
QueryReplay ReplayQueries(const City& city,
                          const shard::ShardedCorpus& corpus,
                          const std::string& manifest,
                          const std::vector<serve::QueryRequest>& sample,
                          uint64_t first_request, Tracer& tracer,
                          Result& result);

/// net.*, serve.* and pool.* read from the shared registry across the
/// timed phase (`before`/`after`; the pool's instruments live in the
/// process-wide registry, hence their own pair). `client_rtt_us` is the
/// mean client-side round trip of the same phase.
void AddServingMetrics(const obs::RegistrySnapshot& before,
                       const obs::RegistrySnapshot& after,
                       const obs::RegistrySnapshot& pool_before,
                       const obs::RegistrySnapshot& pool_after,
                       double client_rtt_us, uint64_t requests,
                       uint64_t ranges, Result& result);

/// Blocking-path rows of a wire query from the same snapshots: the wire
/// (client round trip beyond the server's frame handling), the session
/// (frame handling beyond the engine) and the engine.
std::vector<PathRow> ServingPath(const obs::RegistrySnapshot& before,
                                 const obs::RegistrySnapshot& after,
                                 double client_rtt_us);

}  // namespace utcq::e2e

#endif  // UTCQ_BENCH_E2E_REPLAY_H_
