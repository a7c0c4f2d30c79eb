// Query-serving layer: the engine must be result-identical to the uncached
// processors under every cache state — cold, warm, thrashing at tiny byte
// budgets, and hammered concurrently — and the batched API must equal
// one-at-a-time execution exactly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/utcq.h"
#include "ingest/live_shard.h"
#include "network/generator.h"
#include "serve/decoded_cache.h"
#include "serve/query_engine.h"
#include "serve/tier.h"
#include "shard/sharded.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::serve {
namespace {

struct ServeFixture {
  ServeFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 777);
    corpus = gen.GenerateCorpus(50);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
  }

  /// A deterministic mixed query workload over the fixture corpus.
  std::vector<QueryRequest> MakeWorkload(size_t count, uint64_t seed) const {
    std::vector<QueryRequest> reqs;
    common::Rng rng(seed);
    const auto bbox = net.bounding_box();
    for (size_t i = 0; i < count; ++i) {
      const auto j =
          static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
      const auto& tu = corpus[j];
      const double alpha = rng.Uniform(0.1, 0.6);
      switch (rng.UniformInt(0, 2)) {
        case 0:
          reqs.push_back(QueryRequest::MakeWhere(
              j, rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        case 1: {
          const auto& path = tu.instances.front().path;
          reqs.push_back(QueryRequest::MakeWhen(
              j, path[rng.UniformInt(0, path.size() - 1)],
              rng.Uniform(0.0, 1.0), alpha));
          break;
        }
        default: {
          const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
          const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
          const double half = rng.Uniform(200.0, 900.0);
          reqs.push_back(QueryRequest::MakeRange(
              {cx - half, cy - half, cx + half, cy + half},
              rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        }
      }
    }
    return reqs;
  }

  /// Ground truth: the uncached processor's answer.
  QueryResult Uncached(const QueryRequest& req) const {
    QueryResult expected;
    expected.kind = req.kind;
    switch (req.kind) {
      case QueryKind::kWhere:
        expected.where = sys->queries().Where(req.traj, req.t, req.alpha);
        break;
      case QueryKind::kWhen:
        expected.when =
            sys->queries().When(req.traj, req.edge, req.rd, req.alpha);
        break;
      case QueryKind::kRange:
        expected.range = sys->queries().Range(req.region, req.t, req.alpha);
        break;
    }
    return expected;
  }

  static bool SameResult(const QueryResult& a, const QueryResult& b) {
    return a.where == b.where && a.when == b.when && a.range == b.range;
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  core::UtcqParams params;
  std::unique_ptr<core::UtcqSystem> sys;
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

/// `corpus` compressed into a 4-shard archive set, saved under TempDir as
/// `name` and opened; the files are removed on destruction.
struct SavedSet {
  SavedSet(const ServeFixture& f, const traj::UncertainCorpus& corpus,
           const std::string& name)
      : manifest(::testing::TempDir() + "/" + name) {
    shard::ShardOptions sopts;
    sopts.num_shards = 4;
    const shard::ShardedBuild build =
        shard::ShardedCompressor(f.net, *f.grid, f.params,
                                 core::StiuParams{16, 900}, sopts)
            .Compress(corpus);
    num_shards = build.plan.num_shards();
    std::string error;
    EXPECT_TRUE(build.Save(manifest, &error)) << error;
    EXPECT_TRUE(sharded->Open(f.net, manifest, &error)) << error;
  }
  ~SavedSet() {
    for (uint32_t s = 0; s < num_shards; ++s) {
      std::remove(shard::ShardArchivePath(manifest, s).c_str());
    }
    std::remove(manifest.c_str());
  }

  std::string manifest;
  uint32_t num_shards = 0;
  std::shared_ptr<shard::ShardedCorpus> sharded =
      std::make_shared<shard::ShardedCorpus>();
};

TEST(DecodedTrajCache, LruEvictsLeastRecentlyUsed) {
  // Single cache shard so the eviction order is fully deterministic.
  const size_t unit = [&] {
    traj::DecodedTraj probe;
    probe.times.resize(100);
    return probe.ApproxBytes();
  }();

  DecodedTrajCache cache(2 * unit, 1);
  std::atomic<int> decodes{0};
  auto counted = [&](uint64_t key) {
    return cache.GetOrDecode(
        key, DecodedTrajCache::Admission::kEvict, [&, key] {
          ++decodes;
          traj::DecodedTraj dt;
          dt.times.resize(100);
          (void)key;
          return dt;
        });
  };

  counted(1);
  counted(2);
  EXPECT_EQ(decodes.load(), 2);
  counted(1);  // hit; makes key 2 the LRU victim
  EXPECT_EQ(decodes.load(), 2);
  counted(3);  // evicts 2
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_NE(cache.Peek(3), nullptr);
  counted(2);  // re-decodes
  EXPECT_EQ(decodes.load(), 4);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
}

TEST(DecodedTrajCache, PinsSurviveEviction) {
  traj::DecodedTraj big;
  big.times.resize(4096);
  const size_t bytes = big.ApproxBytes();

  DecodedTrajCache cache(bytes / 2, 1);  // nothing fits
  const auto pin = cache.GetOrDecode(7, DecodedTrajCache::Admission::kEvict,
                                     [&] { return big; });
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->times.size(), 4096u);
  // The entry was evicted on insert (over budget), but the pin holds it.
  EXPECT_EQ(cache.Peek(7), nullptr);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  EXPECT_EQ(pin->times.size(), 4096u);
}

TEST(DecodedTrajCache, IfRoomLatchesAFullShardUntilAnEviction) {
  // Single cache shard, room for exactly two entries.
  using Admission = DecodedTrajCache::Admission;
  const auto make = [] {
    traj::DecodedTraj dt;
    dt.times.resize(100);
    return dt;
  };
  const size_t unit = make().ApproxBytes();
  DecodedTrajCache cache(2 * unit, 1);
  int decodes = 0;
  const auto lookup = [&](uint64_t key, Admission admission) {
    return cache.GetOrDecode(key, admission, [&] {
      ++decodes;
      return make();
    });
  };

  // Free budget: point misses decode and stay resident.
  ASSERT_NE(lookup(1, Admission::kIfRoom), nullptr);
  ASSERT_NE(lookup(2, Admission::kIfRoom), nullptr);
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_NE(cache.Peek(2), nullptr);

  // A decode that does not fit is handed back but not admitted, and no
  // resident entry is evicted for it.
  const auto third = lookup(3, Admission::kIfRoom);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->times.size(), 100u);
  EXPECT_EQ(cache.Peek(3), nullptr);
  EXPECT_NE(cache.Peek(1), nullptr);
  EXPECT_NE(cache.Peek(2), nullptr);
  EXPECT_EQ(decodes, 3);

  // Latched: the next point miss returns nullptr without decoding, and
  // counts as neither hit nor miss. Resident keys still hit.
  EXPECT_EQ(lookup(4, Admission::kIfRoom), nullptr);
  EXPECT_EQ(decodes, 3);
  EXPECT_NE(lookup(1, Admission::kIfRoom), nullptr);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_entries, 2u);

  // An evicting insert (key 2 is now the LRU tail) clears the latch:
  // the shard admits point decodes again while it has room.
  ASSERT_NE(lookup(5, Admission::kEvict), nullptr);
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(decodes, 4);
  ASSERT_NE(lookup(6, Admission::kIfRoom), nullptr);
  EXPECT_EQ(decodes, 5);
  EXPECT_EQ(cache.Peek(6), nullptr);  // still full: returned, not admitted
  EXPECT_EQ(lookup(7, Admission::kIfRoom), nullptr);
  EXPECT_EQ(decodes, 5);

  // Clear resets the latch too.
  cache.Clear();
  ASSERT_NE(lookup(7, Admission::kIfRoom), nullptr);
  EXPECT_NE(cache.Peek(7), nullptr);
  EXPECT_EQ(decodes, 6);
}

TEST(DecodedTrajCache, IfRoomRunsOnePointDecodePerShardAtATime) {
  // A point miss that arrives while another point decode is probing the
  // same shard's room waits for that outcome instead of racing it: here
  // the first decode overflows and latches, so the second lookup returns
  // nullptr without decoding at all.
  using Admission = DecodedTrajCache::Admission;
  traj::DecodedTraj big;
  big.times.resize(4096);
  DecodedTrajCache cache(big.ApproxBytes() / 2, 1);  // nothing fits

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> decodes{0};
  std::thread first([&] {
    const auto pin = cache.GetOrDecode(1, Admission::kIfRoom, [&] {
      ++decodes;
      started = true;
      while (!release) std::this_thread::yield();
      return big;
    });
    EXPECT_NE(pin, nullptr);
  });
  while (!started) std::this_thread::yield();
  std::thread second([&] {
    EXPECT_EQ(cache.GetOrDecode(2, Admission::kIfRoom,
                                [&] {
                                  ++decodes;
                                  return big;
                                }),
              nullptr);
  });
  // Give the second lookup time to reach the wait (either order passes).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  release = true;
  first.join();
  second.join();
  EXPECT_EQ(decodes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
}

TEST(QueryEngine, MatchesUncachedColdAndWarm) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  const auto reqs = f.MakeWorkload(120, 9001);
  for (int pass = 0; pass < 2; ++pass) {  // cold, then fully warm
    for (const auto& req : reqs) {
      EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req),
                                           f.Uncached(req)))
          << "pass " << pass;
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.queries, 240u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(QueryEngine, WhenOnForeignEdgesMatchesWithoutDecoding) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  // Sweep edges regardless of whether trajectory 0 passes them: the
  // index-only rejection must agree with the uncached answer, and edges
  // the trajectory never passes must not cost a decode.
  size_t rejected = 0;
  for (network::EdgeId e = 0; e < 40; ++e) {
    const auto got = engine.When(0, e, 0.5, 0.2);
    EXPECT_EQ(got, f.sys->queries().When(0, e, 0.5, 0.2)) << "edge " << e;
    if (!f.sys->queries().MayPassEdge(0, e)) {
      EXPECT_TRUE(got.empty());
      ++rejected;
    }
  }
  ASSERT_GT(rejected, 0u);  // the sweep must hit foreign edges
  // Only passed-edge queries may have pinned the trajectory: rejections
  // shy of the cache leave no miss traffic behind.
  EXPECT_LE(engine.stats().cache_misses, 1u);
}

TEST(QueryEngine, PartialDecodeNeverTouchesTheCache) {
  // A partial decode must never land in the DecodedTrajCache under the
  // full-decode key: a later query hitting that entry would trust a stale
  // prefix as the complete trajectory. The partial path is structurally
  // cache-free — a budget-0 engine answers everything from the bitstreams
  // and the cache must stay empty in both directions (no inserts, no hits,
  // no misses).
  ServeFixture& f = Fixture();
  core::UtcqParams params = f.params;
  params.t_sync_interval = 2;  // dense sync tables so the seek path engages
  const core::UtcqSystem sys2(f.net, *f.grid, f.corpus, params,
                              core::StiuParams{16, 900});

  EngineOptions popts;
  popts.cache_budget_bytes = 0;
  QueryEngine partial(sys2.queries(), popts);

  const auto reqs = f.MakeWorkload(120, 2026);
  std::vector<QueryResult> got;
  got.reserve(reqs.size());
  for (const auto& req : reqs) got.push_back(partial.Execute(req));

  const EngineStats ps = partial.stats();
  EXPECT_GT(ps.partial_queries, 0u);
  EXPECT_GT(ps.decode_bytes_partial, 0u);
  EXPECT_GT(ps.sync_seeks, 0u);
  EXPECT_EQ(ps.cache_resident_bytes, 0u);
  EXPECT_EQ(ps.cache_resident_entries, 0u);
  EXPECT_EQ(ps.cache_hits + ps.cache_misses, 0u);

  // The partial answers are hit-for-hit identical to the full-decode
  // engine over the same corpus (and to the uncached oracle).
  QueryEngine full(sys2.queries());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(ServeFixture::SameResult(got[i], full.Execute(reqs[i])))
        << "request " << i;
    EXPECT_TRUE(ServeFixture::SameResult(got[i], f.Uncached(reqs[i])))
        << "request " << i;
  }

  // After partial traffic, a full-decode engine's first pin of a
  // trajectory is a genuine miss that materializes the complete decode:
  // resident bytes equal the whole trajectory exactly, not a prefix.
  QueryEngine fresh(sys2.queries());
  (void)fresh.Where(0, f.corpus[0].times.front(), 0.3);
  const core::UtcqDecoder decoder(f.net, sys2.compressed());
  const auto st = fresh.stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_resident_bytes, decoder.DecodeTraj(0).ApproxBytes());
  EXPECT_EQ(st.partial_queries, 0u);
}

TEST(QueryEngine, PartialDecodeReadsFewerBytesThanFullDecode) {
  // The point of the seekable bitstreams: answering from them must consume
  // fewer compressed-stream bytes than pinning a full decode, or the seek
  // machinery is dead weight. One Where per trajectory, so the full-decode
  // engine misses (and decodes) every trajectory exactly once.
  ServeFixture& f = Fixture();
  core::UtcqParams params = f.params;
  params.t_sync_interval = 2;  // dense sync tables so the seek path engages
  const core::UtcqSystem sys2(f.net, *f.grid, f.corpus, params,
                              core::StiuParams{16, 900});

  EngineOptions popts;
  popts.cache_budget_bytes = 0;
  QueryEngine partial(sys2.queries(), popts);
  QueryEngine full(sys2.queries());
  for (uint32_t j = 0; j < f.corpus.size(); ++j) {
    const auto& times = f.corpus[j].times;
    const traj::Timestamp t = (times.front() + times.back()) / 2;
    EXPECT_EQ(partial.Where(j, t, 0.3), full.Where(j, t, 0.3)) << j;
  }

  const EngineStats ps = partial.stats();
  const EngineStats fs = full.stats();
  EXPECT_EQ(ps.partial_queries, f.corpus.size());
  EXPECT_EQ(fs.partial_queries, 0u);
  EXPECT_EQ(fs.cache_misses, f.corpus.size());
  EXPECT_GT(ps.decode_bytes_partial, 0u);
  EXPECT_LT(ps.decode_bytes_partial, fs.bytes_decoded);
}

TEST(QueryEngine, TinyBudgetEvictionStaysCorrect) {
  ServeFixture& f = Fixture();
  EngineOptions opts;
  opts.cache_budget_bytes = 512;  // far below one decoded trajectory
  QueryEngine engine(f.sys->queries(), opts);
  const auto reqs = f.MakeWorkload(80, 4242);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& req : reqs) {
      EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req),
                                           f.Uncached(req)));
    }
  }
  const auto stats = engine.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_resident_bytes, opts.cache_budget_bytes);
  EXPECT_EQ(stats.cache_hits, 0u);  // nothing can stay resident
}

TEST(QueryEngine, BatchEqualsSequential) {
  ServeFixture& f = Fixture();
  const auto reqs = f.MakeWorkload(150, 31337);

  QueryEngine batch_engine(f.sys->queries());
  const auto batched = batch_engine.ExecuteBatch(reqs);
  ASSERT_EQ(batched.size(), reqs.size());

  QueryEngine seq_engine(f.sys->queries());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const QueryResult sequential = seq_engine.Execute(reqs[i]);
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], sequential)) << i;
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], f.Uncached(reqs[i])))
        << i;
  }
  EXPECT_EQ(batch_engine.stats().batches, 1u);
  EXPECT_EQ(batch_engine.stats().queries, reqs.size());
}

TEST(QueryEngine, PointQueriesNeverEvictUnderCachePressure) {
  // A round-robin stream over more trajectories than the budget holds used
  // to thrash an LRU one query at a time. Point queries now never evict to
  // admit: the first miss on each cache shard decodes, finds no room and
  // latches the shard, and every later miss there answers from the
  // bitstreams — sequentially and batched alike, with identical answers.
  ServeFixture& f = Fixture();
  constexpr uint32_t kTrajs = 10;
  constexpr int kRounds = 3;
  std::vector<QueryRequest> reqs;
  for (int round = 0; round < kRounds; ++round) {
    for (uint32_t j = 0; j < kTrajs; ++j) {
      const auto& times = f.corpus[j].times;
      reqs.push_back(QueryRequest::MakeWhere(
          j, (times.front() + times.back()) / 2, 0.3));
    }
  }
  EngineOptions opts;
  opts.cache_budget_bytes = 512;  // far below one decoded trajectory

  QueryEngine seq(f.sys->queries(), opts);
  std::vector<QueryResult> sequential;
  for (const auto& req : reqs) sequential.push_back(seq.Execute(req));
  QueryEngine batch(f.sys->queries(), opts);
  const std::vector<QueryResult> batched = batch.ExecuteBatch(reqs);

  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(ServeFixture::SameResult(sequential[i], f.Uncached(reqs[i])))
        << i;
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], sequential[i])) << i;
  }
  for (const auto& [name, engine, queries_per_miss] :
       {std::tuple{"sequential", &seq, uint64_t{1}},
        std::tuple{"batch", &batch, uint64_t{kRounds}}}) {
    SCOPED_TRACE(name);
    const EngineStats st = engine->stats();
    EXPECT_EQ(st.cache_evictions, 0u);
    EXPECT_EQ(st.cache_hits, 0u);
    EXPECT_EQ(st.cache_resident_entries, 0u);
    // At most one decode per cache shard (10 trajectories span more than
    // one shard, so at least one decode ran).
    EXPECT_GE(st.cache_misses, 1u);
    EXPECT_LE(st.cache_misses, DecodedTrajCache::kDefaultShards);
    // Every other request answered from the bitstreams. A batch answers a
    // decoded group's repeats from the group's one handle.
    EXPECT_EQ(st.cache_misses * queries_per_miss + st.partial_queries,
              reqs.size());
  }
}

TEST(QueryEngine, PointMissesFillFreeBudgetAndNeverEvict) {
  // A budget a quarter of the decoded corpus: point queries admit while a
  // cache shard has room, then answer from the bitstreams — hot entries
  // stay resident and hit on the second pass. Range pins still evict.
  ServeFixture& f = Fixture();
  const core::UtcqDecoder decoder = f.sys->decoder();
  size_t decoded_bytes = 0;
  for (uint32_t j = 0; j < f.corpus.size(); ++j) {
    decoded_bytes += decoder.DecodeTraj(j).ApproxBytes();
  }
  EngineOptions opts;
  opts.cache_budget_bytes = decoded_bytes / 4;
  QueryEngine engine(f.sys->queries(), opts);

  std::vector<QueryRequest> reqs;
  for (uint32_t j = 0; j < f.corpus.size(); ++j) {
    const auto& tu = f.corpus[j];
    const auto& path = tu.instances.front().path;
    reqs.push_back(QueryRequest::MakeWhere(
        j, (tu.times.front() + tu.times.back()) / 2, 0.3));
    reqs.push_back(QueryRequest::MakeWhen(j, path[path.size() / 2], 0.5, 0.2));
  }
  uint64_t first_pass_hits = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& req : reqs) {
      EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req),
                                           f.Uncached(req)))
          << "pass " << pass;
    }
    if (pass == 0) first_pass_hits = engine.stats().cache_hits;
  }
  const EngineStats points = engine.stats();
  EXPECT_EQ(points.cache_evictions, 0u);
  EXPECT_GT(points.partial_queries, 0u);
  EXPECT_GT(points.cache_hits, first_pass_hits);
  EXPECT_GT(points.cache_resident_entries, 0u);
  EXPECT_LE(points.cache_resident_bytes, opts.cache_budget_bytes);

  for (const QueryRequest& req : f.MakeWorkload(150, 4242)) {
    if (req.kind != QueryKind::kRange) continue;
    EXPECT_TRUE(ServeFixture::SameResult(engine.Execute(req), f.Uncached(req)));
  }
  const EngineStats after = engine.stats();
  EXPECT_GT(after.cache_misses, points.cache_misses);
  EXPECT_GT(after.cache_evictions, 0u);
  EXPECT_EQ(after.partial_queries, points.partial_queries);
}

TEST(QueryEngine, ConcurrentMixedQueriesMatchUncached) {
  ServeFixture& f = Fixture();
  // Budget sized so the working set does not fully fit: threads race
  // hits, misses, and evictions against each other.
  EngineOptions opts;
  opts.cache_budget_bytes = 64 * 1024;
  QueryEngine engine(f.sys->queries(), opts);

  const auto reqs = f.MakeWorkload(100, 5150);
  std::vector<QueryResult> expected;
  expected.reserve(reqs.size());
  for (const auto& req : reqs) expected.push_back(f.Uncached(req));

  constexpr int kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the workload at its own offset so cache states
      // interleave differently per thread.
      for (size_t i = 0; i < reqs.size(); ++i) {
        const size_t k = (i + static_cast<size_t>(t) * 25) % reqs.size();
        if (!ServeFixture::SameResult(engine.Execute(reqs[k]), expected[k])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(engine.stats().queries, static_cast<size_t>(kThreads) * reqs.size());
}

TEST(QueryEngine, ShardedBackendMatchesAndSharesCache) {
  ServeFixture& f = Fixture();
  const SavedSet set(f, f.corpus, "serve_set.utcq");
  ASSERT_TRUE(set.sharded->is_open());
  const shard::ShardedCorpus& sharded = *set.sharded;

  QueryEngine engine(sharded);
  EXPECT_EQ(engine.num_trajectories(), f.corpus.size());
  const auto reqs = f.MakeWorkload(120, 2718);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& req : reqs) {
      const QueryResult got = engine.Execute(req);
      // The sharded set is pinned result-identical to the unsharded system
      // (shard_test), so the unsharded processor is ground truth here too.
      EXPECT_TRUE(ServeFixture::SameResult(got, f.Uncached(req)));
    }
  }
  // Range fan-out ran through the shared cache: its candidate pins must
  // show up as engine cache traffic.
  EXPECT_GT(engine.stats().cache_hits, 0u);

  // Batch over the sharded backend as well.
  QueryEngine batch_engine(sharded);
  const auto batched = batch_engine.ExecuteBatch(reqs);
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(ServeFixture::SameResult(batched[i], f.Uncached(reqs[i])));
  }
}

TEST(QueryEngine, OutOfRangeTrajectoryAnswersEmpty) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  const auto n = static_cast<uint32_t>(engine.num_trajectories());
  // Untrusted ids past the corpus answer empty instead of reading past
  // the routing table / meta array.
  EXPECT_TRUE(engine.Where(n, 100, 0.3).empty());
  EXPECT_TRUE(engine.When(n + 5, 0, 0.5, 0.3).empty());
  const std::vector<QueryRequest> reqs = {
      QueryRequest::MakeWhere(n + 1, 100, 0.3),
      QueryRequest::MakeWhere(0, f.corpus[0].times.front(), 0.3)};
  const auto results = engine.ExecuteBatch(reqs);
  EXPECT_TRUE(results[0].where.empty());
  EXPECT_EQ(results[1].where, f.sys->queries().Where(
                                  0, f.corpus[0].times.front(), 0.3));
  EXPECT_EQ(engine.stats().queries, 4u);
}

TEST(QueryEngine, EveryRequestIsTimedAndAccountedEvenOutOfRange) {
  // Execute and ExecuteBatch alike record one latency sample and one
  // decode_bytes sample per request — out-of-range ids included — so the
  // per-kind latency histograms reconcile with serve.engine.queries.
  ServeFixture& f = Fixture();
  obs::MetricRegistry registry;
  EngineOptions opts;
  opts.registry = &registry;
  QueryEngine engine(f.sys->queries(), opts);
  const auto n = static_cast<uint32_t>(engine.num_trajectories());
  std::vector<QueryRequest> reqs = f.MakeWorkload(30, 8080);
  for (const uint32_t bad : {n, n + 7, UINT32_MAX}) {
    reqs.insert(reqs.begin() + bad % reqs.size(),
                QueryRequest::MakeWhere(bad, 100, 0.3));
    reqs.push_back(QueryRequest::MakeWhen(bad, 0, 0.5, 0.3));
  }
  engine.ExecuteBatch(reqs);
  for (const auto& req : reqs) engine.Execute(req);

  const auto snap = registry.Snapshot();
  const auto count = [&snap](const std::string& hist) -> uint64_t {
    for (const auto& [name, h] : snap.histograms) {
      if (name == hist) return h.count;
    }
    return 0;
  };
  const uint64_t queries = engine.stats().queries;
  EXPECT_EQ(queries, 2 * reqs.size());
  EXPECT_EQ(count("serve.engine.latency_ns.where") +
                count("serve.engine.latency_ns.when") +
                count("serve.engine.latency_ns.range"),
            queries);
  EXPECT_EQ(count("serve.engine.decode_bytes"), queries);
}

TEST(QueryEngine, PointAndRangePinsShareOneCacheKey) {
  // Every cache entry is keyed by its global trajectory id, whichever path
  // pins it: once a batch of Where over every id has warmed the cache,
  // Range candidates — sealed or live — are all hits.
  ServeFixture& f = Fixture();
  const size_t half = f.corpus.size() / 2;
  const SavedSet set(
      f, traj::UncertainCorpus(f.corpus.begin(), f.corpus.begin() + half),
      "one_key_set.utcq");
  ASSERT_TRUE(set.sharded->is_open());
  const std::shared_ptr<shard::ShardedCorpus>& sealed = set.sharded;

  ingest::LiveShard live(f.net, *f.grid, f.params, core::StiuParams{16, 900});
  for (size_t j = half; j < f.corpus.size(); ++j) live.Append(f.corpus[j]);
  const FixedTier tier(std::make_shared<const TierSnapshot>(
      TierSnapshot{sealed, live.Snapshot()}));

  std::vector<QueryRequest> wheres;
  for (uint32_t j = 0; j < f.corpus.size(); ++j) {
    wheres.push_back(QueryRequest::MakeWhere(j, f.corpus[j].times.front(),
                                             0.3));
  }
  const auto bbox = f.net.bounding_box();
  for (const auto& [name, engine] :
       {std::pair{"sharded", std::make_shared<QueryEngine>(*sealed)},
        std::pair{"sealed+live", std::make_shared<QueryEngine>(tier)}}) {
    SCOPED_TRACE(name);
    engine->ExecuteBatch(wheres);
    const EngineStats warm = engine->stats();
    EXPECT_EQ(warm.cache_resident_entries, engine->num_trajectories());
    for (const auto& tu : f.corpus) {
      const traj::Timestamp tq = (tu.times.front() + tu.times.back()) / 2;
      engine->Range({bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y}, tq,
                    0.3);
    }
    const EngineStats after = engine->stats();
    EXPECT_EQ(after.cache_misses, warm.cache_misses);
    EXPECT_GT(after.cache_hits, warm.cache_hits);
  }
}

TEST(QueryEngine, StatsReportLatencyPercentiles) {
  ServeFixture& f = Fixture();
  QueryEngine engine(f.sys->queries());
  const auto reqs = f.MakeWorkload(60, 99);
  engine.ExecuteBatch(reqs);
  const auto stats = engine.stats();
  EXPECT_GT(stats.p50_latency_us, 0.0);
  EXPECT_GE(stats.p99_latency_us, stats.p50_latency_us);
  EXPECT_GT(stats.bytes_decoded, 0u);
}

/// Advances by a programmable step on every read, so each query's
/// latency (two reads: start and finish) is exactly `step` nanoseconds —
/// the slow-query log becomes fully deterministic.
struct StepClock : obs::Clock {
  mutable uint64_t now = 0;
  uint64_t step = 0;
  uint64_t NowNanos() const override { return now += step; }
};

TEST(QueryEngine, SlowQueryLogRetainsTheWorstDeterministically) {
  ServeFixture& f = Fixture();
  StepClock clock;
  EngineOptions opts;
  opts.clock = &clock;
  opts.slow_query_threshold_us = 1;
  opts.slow_query_log_size = 4;
  QueryEngine engine(f.sys->queries(), opts);

  // Below threshold: never logged, cache misses included.
  clock.step = 100;  // 0.1 µs per query
  for (int i = 0; i < 3; ++i) {
    engine.Where(0, f.corpus[0].times.front(), 0.3);
  }
  EXPECT_EQ(engine.stats().slow_queries, 0u);
  EXPECT_TRUE(engine.slow_queries().empty());

  // Six slow queries on one trajectory with rising synthetic latencies
  // (2..7 µs), then one slower miss on a fresh trajectory (10 µs). The
  // log holds 4 entries: it must retain exactly the worst four.
  for (uint64_t us = 2; us <= 7; ++us) {
    clock.step = us * 1000;
    engine.Where(1, f.corpus[1].times.front(), 0.3);
  }
  clock.step = 10 * 1000;
  engine.Where(2, f.corpus[2].times.front(), 0.3);

  const auto slow = engine.slow_queries();
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(engine.stats().slow_queries, 4u);
  // Sorted slowest first: 10, 7, 6, 5 µs — the 2/3/4 µs entries were
  // displaced.
  EXPECT_DOUBLE_EQ(slow[0].latency_us, 10.0);
  EXPECT_DOUBLE_EQ(slow[1].latency_us, 7.0);
  EXPECT_DOUBLE_EQ(slow[2].latency_us, 6.0);
  EXPECT_DOUBLE_EQ(slow[3].latency_us, 5.0);
  // The 10 µs query decoded trajectory 2 for the first time: a miss with
  // its decode cost attributed. The others were warm repeats.
  EXPECT_EQ(slow[0].traj, 2u);
  EXPECT_FALSE(slow[0].cache_hit);
  EXPECT_FALSE(slow[0].partial);
  EXPECT_GT(slow[0].decode_bytes, 0u);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].traj, 1u);
    EXPECT_TRUE(slow[i].cache_hit);
    EXPECT_FALSE(slow[i].partial);
    EXPECT_EQ(slow[i].decode_bytes, 0u);
    EXPECT_EQ(slow[i].kind, QueryKind::kWhere);
  }
}

TEST(QueryEngine, SlowQueryLogMarksBitstreamAnswers) {
  // A budget-0 engine pins nothing: its slow queries are bitstream
  // answers, never cache hits — a query with no pin at all is not a hit.
  ServeFixture& f = Fixture();
  StepClock clock;
  clock.step = 5 * 1000;
  EngineOptions opts;
  opts.cache_budget_bytes = 0;
  opts.clock = &clock;
  opts.slow_query_threshold_us = 1;
  QueryEngine engine(f.sys->queries(), opts);
  const auto& tu = f.corpus[3];
  engine.Where(3, (tu.times.front() + tu.times.back()) / 2, 0.3);
  engine.When(3, tu.instances.front().path.front(), 0.5, 0.3);

  const auto slow = engine.slow_queries();
  ASSERT_EQ(slow.size(), 2u);
  for (const SlowQuery& q : slow) {
    EXPECT_EQ(q.traj, 3u);
    EXPECT_TRUE(q.partial);
    EXPECT_FALSE(q.cache_hit);
    EXPECT_GT(q.decode_bytes, 0u);
  }
  EXPECT_EQ(engine.stats().partial_queries, 2u);
}

TEST(QueryEngine, ZeroThresholdDisablesTheSlowQueryLog) {
  ServeFixture& f = Fixture();
  StepClock clock;
  clock.step = 1000 * 1000;  // every query takes a synthetic 1 ms
  EngineOptions opts;
  opts.clock = &clock;
  opts.slow_query_threshold_us = 0;  // disabled
  QueryEngine engine(f.sys->queries(), opts);
  engine.Where(0, f.corpus[0].times.front(), 0.3);
  EXPECT_TRUE(engine.slow_queries().empty());
  EXPECT_EQ(engine.stats().slow_queries, 0u);
}

TEST(QueryEngine, SharedRegistryExportsTheEngineCountersExactly) {
  ServeFixture& f = Fixture();
  obs::MetricRegistry registry;
  EngineOptions opts;
  opts.registry = &registry;
  QueryEngine engine(f.sys->queries(), opts);
  const auto reqs = f.MakeWorkload(40, 123);
  engine.ExecuteBatch(reqs);
  for (const auto& req : reqs) engine.Execute(req);

  const auto stats = engine.stats();
  const auto snap = registry.Snapshot();
  const auto counter = [&snap](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter " << name << " missing";
    return 0;
  };
  EXPECT_EQ(counter("serve.engine.queries"), stats.queries);
  EXPECT_EQ(counter("serve.engine.queries"), 2 * reqs.size());
  EXPECT_EQ(counter("serve.engine.batches"), stats.batches);
  EXPECT_EQ(counter("serve.cache.hits"), stats.cache_hits);
  EXPECT_EQ(counter("serve.cache.misses"), stats.cache_misses);
  // Every pin the workload took is accounted: hits + misses covers all
  // cache lookups, and the evictions counter matches.
  EXPECT_EQ(counter("serve.cache.evictions"), stats.cache_evictions);
}

TEST(QueryEngine, RangeInstrumentsReconcileWithShardedQueryStats) {
  // serve.engine.range_tuples_scanned / range_window_rejected /
  // range_candidates record one sample per Range, and their sums equal the
  // QueryStats ShardedCorpus::Range reports for the same requests — cached,
  // batched and partial alike.
  ServeFixture& f = Fixture();
  const SavedSet set(f, f.corpus, "range_stats_set.utcq");
  ASSERT_TRUE(set.sharded->is_open());
  const shard::ShardedCorpus& sharded = *set.sharded;

  std::vector<QueryRequest> ranges;
  for (const QueryRequest& req : f.MakeWorkload(150, 4242)) {
    if (req.kind == QueryKind::kRange) ranges.push_back(req);
  }
  ASSERT_GT(ranges.size(), 10u);
  core::QueryStats want;
  for (const QueryRequest& req : ranges) {
    sharded.Range(req.region, req.t, req.alpha, &want);
  }
  EXPECT_GT(want.tuples_scanned, 0u);
  EXPECT_GT(want.window_rejected, 0u);
  EXPECT_GT(want.candidates, 0u);

  for (const auto& [name, budget, batched] :
       {std::tuple{"cached", size_t{64} << 20, false},
        std::tuple{"batched", size_t{64} << 20, true},
        std::tuple{"partial", size_t{0}, false}}) {
    SCOPED_TRACE(name);
    obs::MetricRegistry registry;
    EngineOptions opts;
    opts.registry = &registry;
    opts.cache_budget_bytes = budget;
    QueryEngine engine(sharded, opts);
    if (batched) {
      engine.ExecuteBatch(ranges);
    } else {
      for (const QueryRequest& req : ranges) engine.Execute(req);
    }
    const auto snap = registry.Snapshot();
    const auto histogram = [&snap](const std::string& hist) {
      for (const auto& [n, h] : snap.histograms) {
        if (n == hist) return h;
      }
      ADD_FAILURE() << "histogram " << hist << " missing";
      return obs::HistogramSnapshot{};
    };
    const auto scanned = histogram("serve.engine.range_tuples_scanned");
    const auto rejected = histogram("serve.engine.range_window_rejected");
    const auto candidates = histogram("serve.engine.range_candidates");
    EXPECT_EQ(scanned.count, ranges.size());
    EXPECT_EQ(scanned.sum, want.tuples_scanned);
    EXPECT_EQ(rejected.count, ranges.size());
    EXPECT_EQ(rejected.sum, want.window_rejected);
    EXPECT_EQ(candidates.count, ranges.size());
    EXPECT_EQ(candidates.sum, want.candidates);
  }
}

}  // namespace
}  // namespace utcq::serve
