#ifndef UTCQ_BENCH_E2E_WORKLOADS_H_
#define UTCQ_BENCH_E2E_WORKLOADS_H_

// The three workloads and the inputs they share. Why each workload exists,
// and the layers it loads, is in README.md.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "serve/query_engine.h"
#include "shard/sharded.h"
#include "traj/types.h"

namespace utcq::e2e {

/// The HZ corpus of every workload: HZ has the most instances per
/// trajectory, which loads the O(n^2) score matrix and reference selection
/// hardest.
inline constexpr size_t kArchiveTrajectories = 20000;
inline constexpr size_t kSmokeArchiveTrajectories = 1500;
inline constexpr uint32_t kShards = 8;

struct ArchiveInputs {
  City city;
  traj::UncertainCorpus corpus;
};
ArchiveInputs MakeArchiveInputs(const RunOptions& opts);
shard::ShardOptions ArchiveShardOptions();

/// What request generators need of each trajectory: its time span and the
/// edges its first instance travels.
struct Targets {
  struct Entry {
    traj::Timestamp t_first = 0;
    traj::Timestamp t_last = 0;
    std::vector<network::EdgeId> edges;
  };
  std::vector<Entry> entries;
  network::Rect bbox{};
};
Targets MakeTargets(const network::RoadNetwork& net,
                    const traj::UncertainCorpus& corpus);

/// Where or When (even odds) on trajectory `traj` of `targets`, alpha
/// uniform in [0.1, 0.6).
serve::QueryRequest DrawPoint(const Targets& targets, uint32_t traj,
                              common::Rng& rng);
/// Range over a square of half-width uniform in [200, 900) m centred
/// uniformly in the network's bounding box, at a time inside a uniformly
/// drawn trajectory's span, alpha uniform in [0.1, 0.6).
serve::QueryRequest DrawRange(const Targets& targets, common::Rng& rng);

/// The in-process answer of the opened archive set, uncached.
serve::QueryResult AnswerOf(const shard::ShardedCorpus& corpus,
                            const serve::QueryRequest& req);

void RunBuild(const RunOptions& opts, Result& result);
/// serve_point and serve_range.
void RunServe(const RunOptions& opts, Result& result);

}  // namespace utcq::e2e

#endif  // UTCQ_BENCH_E2E_WORKLOADS_H_
