// Randomized differential harness (DESIGN.md §11): every seeded workload is
// run through every real query path — the raw UtcqQueryProcessor, a sharded
// archive set reopened from disk, the serving QueryEngine cold / warm /
// batched (also from the bitstreams alone and under a tight cache budget),
// the live+sealed streaming tier and its reopened append-log set,
// the TED baseline, the network tier (a real TCP round trip through
// src/net/'s server and client), and a fine 60 s StIU time partition — and
// every answer is checked hit-for-hit against verify::Oracle, a
// brute-force scan of the decompressed corpus with no index, no pruning
// and no cache. Failures print the workload
// seed; rerun a single workload with:
//   differential_test --seed=<seed> --gtest_filter='*Workloads*/0'

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "core/utcq.h"
#include "ingest/flusher.h"
#include "ingest/live_shard.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "network/grid_index.h"
#include "serve/query_engine.h"
#include "serve/tier.h"
#include "shard/sharded.h"
#include "ted/ted_compress.h"
#include "ted/ted_index.h"
#include "ted/ted_query.h"
#include "answer_checks.h"
#include "stiu_sections.h"
#include "test_fixtures.h"
#include "verify/oracle.h"
#include "verify/workload.h"

namespace utcq {
namespace {

using test::ExpectWhenEqual;
using test::ExpectWhereEqual;
using traj::Timestamp;
using verify::QueryCase;

constexpr uint64_t kDefaultBaseSeed = 20260728;
constexpr int kNumWorkloads = 50;

// ----------------------------------------------------------- comparators

/// Range answers must agree as sets; a trajectory may differ only when its
/// overlap mass ties alpha to within summation-order noise (the engines
/// accumulate quantized probabilities in index order, the oracle in
/// instance order).
void ExpectRangeEqual(traj::RangeResult got, traj::RangeResult want,
                      const verify::Oracle& oracle, const QueryCase& q) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return;
  std::vector<uint32_t> diff;
  std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                want.end(), std::back_inserter(diff));
  for (const uint32_t j : diff) {
    const double mass = oracle.OverlapMass(j, q.region, q.t);
    EXPECT_LE(std::abs(mass - q.alpha), 1e-9)
        << "trajectory " << j << " flipped with mass " << mass
        << " vs alpha " << q.alpha;
  }
}

// ------------------------------------------------------------ query paths

/// One real path under test: the three query entry points, uniformly
/// global-indexed so the oracle result applies to every path.
struct QueryPath {
  std::string name;
  std::function<std::vector<traj::WhereHit>(uint32_t, Timestamp, double)>
      where;
  std::function<std::vector<traj::WhenHit>(uint32_t, network::EdgeId, double,
                                           double)>
      when;
  std::function<traj::RangeResult(const network::Rect&, Timestamp, double)>
      range;
};

QueryPath PathOf(const std::string& name, const core::UtcqQueryProcessor& qp) {
  return {name,
          [&qp](uint32_t j, Timestamp t, double a) { return qp.Where(j, t, a); },
          [&qp](uint32_t j, network::EdgeId e, double rd, double a) {
            return qp.When(j, e, rd, a);
          },
          [&qp](const network::Rect& re, Timestamp tq, double a) {
            return qp.Range(re, tq, a);
          }};
}

QueryPath PathOf(const std::string& name, const shard::ShardedCorpus& sc) {
  return {name,
          [&sc](uint32_t j, Timestamp t, double a) { return sc.Where(j, t, a); },
          [&sc](uint32_t j, network::EdgeId e, double rd, double a) {
            return sc.When(j, e, rd, a);
          },
          [&sc](const network::Rect& re, Timestamp tq, double a) {
            return sc.Range(re, tq, a);
          }};
}

QueryPath PathOf(const std::string& name, serve::QueryEngine& engine) {
  return {name,
          [&engine](uint32_t j, Timestamp t, double a) {
            return engine.Where(j, t, a);
          },
          [&engine](uint32_t j, network::EdgeId e, double rd, double a) {
            return engine.When(j, e, rd, a);
          },
          [&engine](const network::Rect& re, Timestamp tq, double a) {
            return engine.Range(re, tq, a);
          }};
}

QueryPath PathOf(const std::string& name, const ted::TedQueryProcessor& qp) {
  return {name,
          [&qp](uint32_t j, Timestamp t, double a) { return qp.Where(j, t, a); },
          [&qp](uint32_t j, network::EdgeId e, double rd, double a) {
            return qp.When(j, e, rd, a);
          },
          [&qp](const network::Rect& re, Timestamp tq, double a) {
            return qp.Range(re, tq, a);
          }};
}

void RunPath(const network::RoadNetwork& net, const verify::Oracle& oracle,
             const std::vector<QueryCase>& queries, const QueryPath& path) {
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryCase& q = queries[i];
    SCOPED_TRACE(path.name + " query #" + std::to_string(i));
    switch (q.kind) {
      case QueryCase::Kind::kWhere:
        ExpectWhereEqual(net, path.where(q.traj, q.t, q.alpha),
                         oracle.Where(q.traj, q.t, q.alpha));
        break;
      case QueryCase::Kind::kWhen:
        ExpectWhenEqual(path.when(q.traj, q.edge, q.rd, q.alpha),
                        oracle.When(q.traj, q.edge, q.rd, q.alpha));
        break;
      case QueryCase::Kind::kRange:
        ExpectRangeEqual(path.range(q.region, q.t, q.alpha),
                         oracle.Range(q.region, q.t, q.alpha), oracle, q);
        break;
    }
  }
}

serve::QueryRequest ToRequest(const QueryCase& q) {
  switch (q.kind) {
    case QueryCase::Kind::kWhere:
      return serve::QueryRequest::MakeWhere(q.traj, q.t, q.alpha);
    case QueryCase::Kind::kWhen:
      return serve::QueryRequest::MakeWhen(q.traj, q.edge, q.rd, q.alpha);
    case QueryCase::Kind::kRange:
      break;
  }
  return serve::QueryRequest::MakeRange(q.region, q.t, q.alpha);
}

/// Batched execution must equal the oracle too (and thereby one-at-a-time
/// execution).
void RunBatch(const network::RoadNetwork& net, const verify::Oracle& oracle,
              const std::vector<QueryCase>& queries, serve::QueryEngine& engine,
              const std::string& label) {
  std::vector<serve::QueryRequest> requests;
  requests.reserve(queries.size());
  for (const QueryCase& q : queries) requests.push_back(ToRequest(q));
  const auto results = engine.ExecuteBatch(requests);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryCase& q = queries[i];
    SCOPED_TRACE(label + " batch query #" + std::to_string(i));
    switch (q.kind) {
      case QueryCase::Kind::kWhere:
        ExpectWhereEqual(net, results[i].where,
                         oracle.Where(q.traj, q.t, q.alpha));
        break;
      case QueryCase::Kind::kWhen:
        ExpectWhenEqual(results[i].when,
                        oracle.When(q.traj, q.edge, q.rd, q.alpha));
        break;
      case QueryCase::Kind::kRange:
        ExpectRangeEqual(results[i].range,
                         oracle.Range(q.region, q.t, q.alpha), oracle, q);
        break;
    }
  }
}

// ------------------------------------------------------------ temp files

std::string TempPath(const std::string& name) {
  // Seed-keyed names alone collide when several instances of this binary
  // run concurrently; the pid keeps each process's archives (and any
  // debris from an aborted run) private.
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "_" +
         name;
}

// ------------------------------------------------------------ the harness

void RunWorkload(uint64_t seed) {
  SCOPED_TRACE("workload seed " + std::to_string(seed) +
               " — rerun: differential_test --seed=" + std::to_string(seed) +
               " --gtest_filter='*Workloads*/0'");
  verify::WorkloadGen gen(seed);
  verify::Workload w = gen.Generate();

  // The generator's contract: the corpus validates, the degenerate shapes
  // are rejected before they could reach a compressor.
  for (const auto& tu : w.corpus) {
    ASSERT_EQ(traj::Validate(w.net, tu), "") << "trajectory " << tu.id;
  }
  ASSERT_FALSE(w.invalid.empty());
  for (const auto& tu : w.invalid) {
    EXPECT_NE(traj::Validate(w.net, tu), "");
  }

  const network::GridIndex grid(w.net, 16);
  const core::StiuParams index_params{16, 900};

  // --- path 1: the in-memory processor over the live compression run ---
  const core::UtcqSystem sys(w.net, grid, w.corpus, w.params, index_params);

  // The oracle scans the decompressed corpus: the naive rescan of exactly
  // the data every engine reconstructs (quantization included).
  const traj::UncertainCorpus decoded = sys.decoder().DecompressAll();
  ASSERT_EQ(decoded.size(), w.corpus.size());
  const verify::Oracle oracle(w.net, decoded, w.params.eta_d);

  RunPath(w.net, oracle, w.queries, PathOf("processor", sys.queries()));

  std::vector<std::string> files;

  // --- path 2: sharded archive set, saved and reopened from disk ---
  {
    shard::ShardOptions sopts;
    sopts.num_shards = 1 + static_cast<uint32_t>(seed % 3);
    sopts.policy = (seed % 2 == 0) ? shard::ShardPolicy::kHash
                                   : shard::ShardPolicy::kTimePartition;
    const shard::ShardedCompressor scomp(w.net, grid, w.params, index_params,
                                         sopts);
    const shard::ShardedBuild build = scomp.Compress(w.corpus);
    const std::string manifest =
        TempPath("diff_shard_" + std::to_string(seed) + ".utcq");
    std::string error;
    ASSERT_TRUE(build.Save(manifest, &error)) << error;
    files.push_back(manifest);
    for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
      files.push_back(shard::ShardArchivePath(manifest, s));
    }
    shard::ShardedCorpus sharded;
    ASSERT_TRUE(sharded.Open(w.net, manifest, &error)) << error;
    RunPath(w.net, oracle, w.queries, PathOf("sharded", sharded));

    // --- path 3: the serving engine over the sharded set, cold → warm →
    // batched, under a deliberately tight cache budget ---
    serve::EngineOptions eopts;
    eopts.cache_budget_bytes = 1 << 20;
    serve::QueryEngine engine(sharded, eopts);
    RunPath(w.net, oracle, w.queries, PathOf("engine-sharded-cold", engine));
    RunPath(w.net, oracle, w.queries, PathOf("engine-sharded-warm", engine));
    RunBatch(w.net, oracle, w.queries, engine, "engine-sharded");
  }

  // --- path 4: the serving engine over the single corpus ---
  {
    serve::QueryEngine engine(sys.queries());
    RunPath(w.net, oracle, w.queries, PathOf("engine-single-cold", engine));
    RunPath(w.net, oracle, w.queries, PathOf("engine-single-warm", engine));
    RunBatch(w.net, oracle, w.queries, engine, "engine-single");
  }

  // --- path 5: the streaming tier — half flushed into the sealed set,
  // half served from the live tail — then the whole set reopened ---
  {
    const std::string manifest =
        TempPath("diff_tier_" + std::to_string(seed) + ".utcq");
    ingest::LiveShard live(w.net, grid, w.params, index_params);
    ingest::Flusher flusher(w.net, manifest);
    std::string error;
    std::shared_ptr<const shard::ShardedCorpus> sealed;
    ASSERT_TRUE(flusher.Open(&error, &sealed)) << error;

    const size_t half = w.corpus.size() / 2;
    for (size_t j = 0; j < half; ++j) live.Append(w.corpus[j]);
    const auto first = live.Snapshot();
    ASSERT_NE(first, nullptr);
    ASSERT_TRUE(flusher.Flush(*first, &error, &sealed)) << error;
    files.push_back(shard::ShardArchivePath(manifest, 0));
    live.DropFlushed(first->count());
    for (size_t j = half; j < w.corpus.size(); ++j) live.Append(w.corpus[j]);

    auto snap = std::make_shared<serve::TierSnapshot>();
    snap->sealed = sealed;
    snap->live = live.Snapshot();
    ASSERT_EQ(snap->num_trajectories(), w.corpus.size());
    const serve::FixedTier tier(snap);
    serve::QueryEngine engine(tier);
    RunPath(w.net, oracle, w.queries, PathOf("tier-live+sealed", engine));
    RunBatch(w.net, oracle, w.queries, engine, "tier-live+sealed");

    // Flush the tail and reopen the append-log set from scratch: the
    // durable path must answer like everything else.
    const auto rest = live.Snapshot();
    ASSERT_NE(rest, nullptr);
    ASSERT_TRUE(flusher.Flush(*rest, &error, &sealed)) << error;
    files.push_back(shard::ShardArchivePath(manifest, 1));
    files.push_back(manifest);

    ingest::Flusher reopened(w.net, manifest);
    std::shared_ptr<const shard::ShardedCorpus> resealed;
    ASSERT_TRUE(reopened.Open(&error, &resealed)) << error;
    ASSERT_NE(resealed, nullptr);
    ASSERT_EQ(resealed->num_trajectories(), w.corpus.size());
    RunPath(w.net, oracle, w.queries, PathOf("tier-reopened", *resealed));
  }

  // --- path 6: the TED baseline against its own decompressed corpus ---
  {
    ted::TedParams tparams;
    tparams.eta_p = w.params.eta_p;
    tparams.eta_d = w.params.eta_d;
    const ted::TedCompressor tcomp(w.net, tparams);
    const ted::TedCompressed tc = tcomp.Compress(w.corpus);
    const ted::TedIndex tindex(w.net, grid, tc, index_params.time_partition_s);
    const ted::TedQueryProcessor tq(w.net, tc, tindex);

    traj::UncertainCorpus ted_decoded(w.corpus.size());
    for (size_t j = 0; j < w.corpus.size(); ++j) {
      ted_decoded[j].id = j;
      ted_decoded[j].times = tc.DecodeTimes(j);
      ted_decoded[j].instances.resize(tc.meta(j).instances.size());
      for (size_t wi = 0; wi < ted_decoded[j].instances.size(); ++wi) {
        if (auto inst = tc.DecodeInstance(w.net, j, wi)) {
          ted_decoded[j].instances[wi] = std::move(*inst);
        }
      }
    }
    const verify::Oracle ted_oracle(w.net, ted_decoded, tparams.eta_d);
    RunPath(w.net, ted_oracle, w.queries, PathOf("ted", tq));
  }

  // --- path 7: the network tier — the same engine behind a real TCP
  // server (src/net/, DESIGN.md §14; distinct from src/network/, the road
  // graph), answered through the client library. The wire adds a codec
  // layer but must stay *hit-for-hit byte-identical* to the in-process
  // engine, so every network answer is compared with operator== against
  // Execute/ExecuteBatch before the oracle pass — no tolerance, no
  // reordering. Single queries round-trip one at a time; the whole
  // workload then rides one pipelined burst. Ephemeral port, so several
  // instances of this binary can run concurrently.
  {
    serve::QueryEngine engine(sys.queries());
    net::TcpServer server(&engine, nullptr);
    ASSERT_TRUE(server.Start());
    net::Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
        << client.last_status().message;

    const auto networked = [&](const serve::QueryRequest& req) {
      serve::QueryResult got;
      const net::Client::Status status = client.Query(req, &got);
      EXPECT_TRUE(status.ok) << status.message;
      const serve::QueryResult local = engine.Execute(req);
      EXPECT_TRUE(got.where == local.where && got.when == local.when &&
                  got.range == local.range)
          << "network answer differs from in-process answer";
      return got;
    };
    const QueryPath path{
        "network",
        [&](uint32_t j, Timestamp t, double a) {
          return networked(serve::QueryRequest::MakeWhere(j, t, a)).where;
        },
        [&](uint32_t j, network::EdgeId e, double rd, double a) {
          return networked(serve::QueryRequest::MakeWhen(j, e, rd, a)).when;
        },
        [&](const network::Rect& re, Timestamp tq, double a) {
          return networked(serve::QueryRequest::MakeRange(re, tq, a)).range;
        }};
    RunPath(w.net, oracle, w.queries, path);

    // Pipelined burst: the server folds the run into ExecuteBatch; the
    // responses must come back in request order and bit-identical.
    std::vector<serve::QueryRequest> requests;
    std::vector<uint64_t> ids;
    for (const QueryCase& q : w.queries) {
      requests.push_back(ToRequest(q));
      ids.push_back(client.SendQuery(requests.back()));
    }
    ASSERT_TRUE(client.Flush());
    const std::vector<serve::QueryResult> local =
        engine.ExecuteBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      uint64_t id = 0;
      serve::QueryResult got;
      const net::Client::Status status = client.Receive(&id, &got);
      ASSERT_TRUE(status.ok) << status.message;
      ASSERT_EQ(id, ids[i]) << "pipelined responses out of order";
      EXPECT_TRUE(got.where == local[i].where && got.when == local[i].when &&
                  got.range == local[i].range)
          << "pipelined network answer differs, query #" << i;
    }

    client.Close();
    server.Shutdown();
    EXPECT_EQ(server.active_connections(), 0u) << "leaked sessions";
  }

  // --- path 8: the serving engine with no cache budget, over a
  // recompression with a dense sync interval (K=2) — every query answers
  // from the seekable bitstreams (archive v3, DESIGN.md §16) and must be
  // hit-for-hit identical to the oracle and the full-decode engine. Sync
  // emission is meta-only, so the K=2 corpus decodes identically to the
  // workload corpus; the oracle carries over unchanged. ---
  core::UtcqParams dense = w.params;
  dense.t_sync_interval = 2;
  const core::UtcqSystem dsys(w.net, grid, w.corpus, dense, index_params);
  {
    serve::EngineOptions eopts;
    eopts.cache_budget_bytes = 0;
    serve::QueryEngine engine(dsys.queries(), eopts);
    RunPath(w.net, oracle, w.queries, PathOf("engine-partial", engine));
    RunBatch(w.net, oracle, w.queries, engine, "engine-partial");
    const serve::EngineStats stats = engine.stats();
    EXPECT_GT(stats.partial_queries, 0u);
    EXPECT_EQ(stats.cache_resident_bytes, 0u)
        << "partial decode leaked state into the full-decode cache";
  }

  // --- path 8b: one engine whose budget holds about a quarter of the
  // decoded corpus, over the same dense-sync recompression — point
  // queries admitted while a cache shard has room (then hits), point
  // misses on a full shard answered from the bitstreams, and Range pins
  // (which evict to admit), all interleaved cold → warm → batched ---
  {
    const core::UtcqDecoder ddec = dsys.decoder();
    size_t decoded_bytes = 0;
    for (uint32_t j = 0; j < w.corpus.size(); ++j) {
      decoded_bytes += ddec.DecodeTraj(j).ApproxBytes();
    }
    serve::EngineOptions eopts;
    eopts.cache_budget_bytes = decoded_bytes / 4;
    serve::QueryEngine engine(dsys.queries(), eopts);
    RunPath(w.net, oracle, w.queries, PathOf("engine-tight-cold", engine));
    RunPath(w.net, oracle, w.queries, PathOf("engine-tight-warm", engine));
    RunBatch(w.net, oracle, w.queries, engine, "engine-tight");
    const serve::EngineStats stats = engine.stats();
    EXPECT_GT(stats.partial_queries, 0u);
    EXPECT_GT(stats.cache_hits, 0u);
    EXPECT_GT(stats.cache_misses, 0u);
    EXPECT_LE(stats.cache_resident_bytes, eopts.cache_budget_bytes);
  }

  // --- path 9: a 60 s time partition, so most trajectories span several
  // partitions and Range reads their copies in several partition rows (and
  // at levels above 0 when they span more than four), through the
  // processor and the serving engine ---
  {
    const core::UtcqSystem fine(w.net, grid, w.corpus, w.params,
                                core::StiuParams{16, 60});
    size_t listings = 0;
    for (size_t p = 0; p < fine.index().num_partitions(); ++p) {
      listings +=
          fine.index().TrajectoriesAt(static_cast<traj::Timestamp>(p) * 60)
              .size();
    }
    EXPECT_GT(listings, fine.index().num_trajectories());
    RunPath(w.net, oracle, w.queries, PathOf("processor-60s", fine.queries()));
    serve::QueryEngine engine(fine.queries());
    RunPath(w.net, oracle, w.queries, PathOf("engine-60s", engine));
  }

  // --- the index an archive derives on open is the compress-time index,
  // array for array, at 1800, 600 and 60 s partitions (60 s puts
  // trajectories above level 0) ---
  for (const int64_t partition_s : {int64_t{1800}, int64_t{600}, int64_t{60}}) {
    SCOPED_TRACE("derived index, partition " + std::to_string(partition_s));
    const core::StiuIndex built(grid, w.corpus, sys.compressed(),
                                core::StiuParams{16, partition_s});
    archive::ArchiveReader reader;
    std::string error;
    ASSERT_TRUE(reader.OpenBytes(
        archive::ArchiveWriter(sys.compressed(), built.params()).Serialize(),
        &error))
        << error;
    const auto derived = reader.LoadIndex(grid, &error);
    ASSERT_NE(derived, nullptr) << error;
    test::ExpectSameIndex(*derived, built);
  }

  // --- an archive derives its metas and sync tables on open: field for
  // field the compressor's, at K = 0 and 32, in the same walk that derives
  // the index; the reopened processor answers like the oracle ---
  for (const uint32_t k : {0u, 32u}) {
    SCOPED_TRACE("derived metas, K " + std::to_string(k));
    core::UtcqParams params = w.params;
    params.t_sync_interval = k;
    const core::UtcqSystem ksys(w.net, grid, w.corpus, params, index_params);
    const std::vector<uint8_t> image =
        archive::ArchiveWriter(ksys.compressed(), ksys.index().params())
            .Serialize();
    archive::ArchivePayload payload;
    std::string error;
    ASSERT_TRUE(archive::DecodeArchive(image.data(), image.size(), &payload,
                                       &error))
        << error;
    archive::ArchiveReader reader;
    std::unique_ptr<core::StiuIndex> index;
    ASSERT_TRUE(reader.OpenPayload(std::move(payload), &grid, &index,
                                   w.corpus.size(), &error))
        << error;
    EXPECT_EQ(reader.params().t_sync_interval, k);
    ASSERT_EQ(reader.metas().size(), w.corpus.size());
    for (size_t j = 0; j < w.corpus.size(); ++j) {
      ASSERT_EQ(reader.metas()[j], ksys.compressed().meta(j))
          << "trajectory " << j;
    }
    test::ExpectSameIndex(*index, ksys.index());
    const core::UtcqQueryProcessor reopened(w.net, reader.view(), *index);
    RunPath(w.net, oracle, w.queries,
            PathOf("reopened-k" + std::to_string(k), reopened));
  }

  for (const std::string& f : files) std::remove(f.c_str());
}

class Workloads : public ::testing::TestWithParam<int> {};

TEST_P(Workloads, AllPathsMatchTheOracle) {
  RunWorkload(test::BaseSeed(kDefaultBaseSeed) +
              static_cast<uint64_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Differential, Workloads,
                         ::testing::Range(0, kNumWorkloads));

}  // namespace
}  // namespace utcq

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      utcq::test::SetSeedOverride(std::strtoull(arg.c_str() + 7, nullptr, 10));
    }
  }
  return RUN_ALL_TESTS();
}
