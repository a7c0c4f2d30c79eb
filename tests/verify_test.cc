// Verification-subsystem self-checks and the error-path coverage the
// differential harness leans on: the oracle's own semantics on the paper
// example, workload-generator determinism, and the empty / out-of-range
// inputs every public query API must answer (not crash) on.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/utcq.h"
#include "ingest/flusher.h"
#include "ingest/live_shard.h"
#include "network/grid_index.h"
#include "paper_example.h"
#include "serve/decoded_cache.h"
#include "serve/query_engine.h"
#include "serve/tier.h"
#include "shard/sharded.h"
#include "ted/ted_compress.h"
#include "ted/ted_index.h"
#include "ted/ted_query.h"
#include "test_fixtures.h"
#include "verify/oracle.h"
#include "verify/plain_query.h"
#include "verify/workload.h"

namespace utcq {
namespace {

// ------------------------------------------------------------ the oracle

TEST(Oracle, MatchesPlainEngineOnExactData) {
  // On un-quantized data the oracle and the plain reference engine are two
  // independent implementations of the same definitions; their Where /
  // Range answers must agree (When differs only by the deliberate
  // tolerance widening, exercised below).
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const verify::Oracle oracle(ex.net, corpus, /*eta_d=*/0.0);
  const verify::PlainQueryEngine plain(ex.net, corpus);

  for (const traj::Timestamp t :
       {ex.tu.times.front(), ex.tu.times.front() + 100, traj::Timestamp{19285},
        ex.tu.times.back()}) {
    for (const double alpha : {0.0, 0.1, 0.25, 0.5, 0.9}) {
      const auto got = oracle.Where(0, t, alpha);
      const auto want = plain.Where(0, t, alpha);
      ASSERT_EQ(got.size(), want.size()) << "t=" << t << " alpha=" << alpha;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].instance, want[i].instance);
        EXPECT_DOUBLE_EQ(got[i].probability, want[i].probability);
      }
    }
  }

  const auto bbox = ex.net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};
  EXPECT_EQ(oracle.Range(everywhere, 18325, 0.5),
            plain.Range(everywhere, 18325, 0.5));
  EXPECT_EQ(oracle.Range({5000, 5000, 6000, 6000}, 18325, 0.1),
            plain.Range({5000, 5000, 6000, 6000}, 18325, 0.1));
}

TEST(Oracle, OutOfSpanAndOutOfRangeAnswerEmpty) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const verify::Oracle oracle(ex.net, corpus, 1.0 / 128.0);
  EXPECT_TRUE(oracle.Where(0, ex.tu.times.front() - 1, 0.0).empty());
  EXPECT_TRUE(oracle.Where(0, ex.tu.times.back() + 1, 0.0).empty());
  EXPECT_TRUE(oracle.Where(7, 18205, 0.0).empty());
  EXPECT_TRUE(oracle.When(7, ex.corridor[0], 0.5, 0.0).empty());
  EXPECT_DOUBLE_EQ(oracle.OverlapMass(7, {0, 0, 1, 1}, 18205), 0.0);
}

TEST(Oracle, WhenAppliesTheSameToleranceAsTheEngines) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const verify::Oracle oracle(ex.net, corpus, 1.0 / 128.0);
  // All three instances pass l0's position at t0 (paper Example / Table 2).
  const auto hits = oracle.When(0, ex.corridor[0], 0.875, 0.0);
  ASSERT_EQ(hits.size(), 3u);
  for (const auto& h : hits) EXPECT_EQ(h.t, ex.tu.times[0]);
}

// ------------------------------------------------------- workload generator

TEST(WorkloadGen, DeterministicInSeed) {
  verify::WorkloadGen a(12345);
  verify::WorkloadGen b(12345);
  const auto wa = a.Generate();
  const auto wb = b.Generate();
  ASSERT_EQ(wa.corpus.size(), wb.corpus.size());
  for (size_t j = 0; j < wa.corpus.size(); ++j) {
    EXPECT_EQ(wa.corpus[j].times, wb.corpus[j].times);
    ASSERT_EQ(wa.corpus[j].instances.size(), wb.corpus[j].instances.size());
    for (size_t w = 0; w < wa.corpus[j].instances.size(); ++w) {
      EXPECT_EQ(wa.corpus[j].instances[w], wb.corpus[j].instances[w]);
    }
  }
  ASSERT_EQ(wa.queries.size(), wb.queries.size());
  EXPECT_EQ(wa.net.num_edges(), wb.net.num_edges());

  verify::WorkloadGen c(12346);
  const auto wc = c.Generate();
  EXPECT_NE(wa.net.num_edges() == wc.net.num_edges() &&
                wa.corpus.size() == wc.corpus.size() &&
                wa.corpus.front().times == wc.corpus.front().times,
            true)
      << "adjacent seeds should not reproduce the same workload";
}

TEST(WorkloadGen, ProducesDegenerateShapesAndInvalidCases) {
  verify::WorkloadGen gen(7);
  const auto w = gen.Generate();
  // The three degenerate-but-valid shapes ride at the end of the corpus.
  ASSERT_GE(w.corpus.size(), 3u);
  const auto& single_edge = w.corpus[w.corpus.size() - 3];
  EXPECT_EQ(single_edge.instances.front().path.size(), 1u);
  const auto& zero_duration = w.corpus[w.corpus.size() - 2];
  EXPECT_EQ(zero_duration.times.size(), 1u);
  const auto& longest = w.corpus.back();
  EXPECT_GE(longest.instances.front().path.size(), 40u);
  for (const auto& tu : w.corpus) {
    EXPECT_EQ(traj::Validate(w.net, tu), "") << tu.id;
  }
  ASSERT_FALSE(w.invalid.empty());
  for (const auto& tu : w.invalid) {
    EXPECT_NE(traj::Validate(w.net, tu), "");
  }
  // The mix exercises out-of-range ids on purpose.
  bool has_out_of_range = false;
  for (const auto& q : w.queries) {
    if (q.kind != verify::QueryCase::Kind::kRange &&
        q.traj >= w.corpus.size()) {
      has_out_of_range = true;
    }
  }
  EXPECT_TRUE(has_out_of_range);
}

// ------------------------------------------------- error-path coverage

struct ErrorPathFixture {
  ErrorPathFixture()
      : profile(traj::ChengduProfile()),
        net(test::MakeSmallCity(profile, 10)),
        grid(net, 16),
        corpus(test::MakeSmallCorpus(net, profile, 321, 12)) {
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, grid, corpus, params,
                                             core::StiuParams{16, 900});
  }
  traj::DatasetProfile profile;
  network::RoadNetwork net;
  network::GridIndex grid;
  traj::UncertainCorpus corpus;
  core::UtcqParams params;
  std::unique_ptr<core::UtcqSystem> sys;
};

ErrorPathFixture& Fixture() {
  static auto* fixture = new ErrorPathFixture();
  return *fixture;
}

TEST(ErrorPaths, OutOfRangeTrajectoryIdsOnEveryQueryApi) {
  ErrorPathFixture& f = Fixture();
  const uint32_t bad = static_cast<uint32_t>(f.corpus.size()) + 7;
  const network::EdgeId edge = f.corpus[0].instances[0].path[0];

  // Core processor.
  EXPECT_TRUE(f.sys->queries().Where(bad, 1000, 0.0).empty());
  EXPECT_TRUE(f.sys->queries().When(bad, edge, 0.5, 0.0).empty());

  // TED baseline processor.
  ted::TedParams tparams;
  const ted::TedCompressor tcomp(f.net, tparams);
  const ted::TedCompressed tc = tcomp.Compress(f.corpus);
  const ted::TedIndex tindex(f.net, f.grid, tc, 900);
  const ted::TedQueryProcessor tq(f.net, tc, tindex);
  EXPECT_TRUE(tq.Where(bad, 1000, 0.0).empty());
  EXPECT_TRUE(tq.When(bad, edge, 0.5, 0.0).empty());

  // Sharded corpus (opened).
  const shard::ShardedCompressor scomp(f.net, f.grid, f.params,
                                       core::StiuParams{16, 900},
                                       shard::ShardOptions{2, 1});
  const auto build = scomp.Compress(f.corpus);
  const std::string manifest =
      ::testing::TempDir() + "/verify_errorpaths.utcq";
  std::string error;
  ASSERT_TRUE(build.Save(manifest, &error)) << error;
  shard::ShardedCorpus sharded;
  ASSERT_TRUE(sharded.Open(f.net, manifest, &error)) << error;
  EXPECT_TRUE(sharded.Where(bad, 1000, 0.0).empty());
  EXPECT_TRUE(sharded.When(bad, edge, 0.5, 0.0).empty());

  // Serving engine over both backings.
  serve::QueryEngine single_engine(f.sys->queries());
  EXPECT_TRUE(single_engine.Where(bad, 1000, 0.0).empty());
  EXPECT_TRUE(single_engine.When(bad, edge, 0.5, 0.0).empty());
  serve::QueryEngine sharded_engine(sharded);
  EXPECT_TRUE(sharded_engine.Where(bad, 1000, 0.0).empty());
  EXPECT_TRUE(sharded_engine.When(bad, edge, 0.5, 0.0).empty());

  std::remove(manifest.c_str());
  for (uint32_t s = 0; s < 2; ++s) {
    std::remove(shard::ShardArchivePath(manifest, s).c_str());
  }
}

TEST(ErrorPaths, EmptyCorpusAnswersEmptyEverywhere) {
  ErrorPathFixture& f = Fixture();
  const traj::UncertainCorpus empty;
  const core::UtcqCompressor compressor(f.net, f.params);
  const core::CompressedCorpus cc = compressor.Compress(empty);
  EXPECT_EQ(cc.num_trajectories(), 0u);
  const core::StiuIndex index(f.grid, empty, cc.view(),
                              core::StiuParams{16, 900});
  const core::UtcqQueryProcessor qp(f.net, cc.view(), index);
  EXPECT_TRUE(qp.Where(0, 1000, 0.0).empty());
  EXPECT_TRUE(qp.When(0, 0, 0.5, 0.0).empty());
  EXPECT_TRUE(qp.Range({0, 0, 1e6, 1e6}, 1000, 0.0).empty());

  serve::QueryEngine engine(qp);
  EXPECT_EQ(engine.num_trajectories(), 0u);
  EXPECT_TRUE(engine.Where(0, 1000, 0.0).empty());
  EXPECT_TRUE(engine.Range({0, 0, 1e6, 1e6}, 1000, 0.0).empty());
}

TEST(ErrorPaths, UnopenedShardSetAnswersEmpty) {
  const shard::ShardedCorpus unopened;
  EXPECT_FALSE(unopened.is_open());
  EXPECT_EQ(unopened.num_trajectories(), 0u);
  EXPECT_TRUE(unopened.Where(0, 1000, 0.0).empty());
  EXPECT_TRUE(unopened.When(0, 0, 0.5, 0.0).empty());
  EXPECT_TRUE(unopened.Range({0, 0, 1e6, 1e6}, 1000, 0.0).empty());
}

TEST(ErrorPaths, TierWithEmptyLiveTailServesSealedOnly) {
  ErrorPathFixture& f = Fixture();
  // A sealed-only snapshot (live == nullptr) is exactly the state right
  // after a full flush; every global id routes to the sealed set and
  // nothing indexes into the missing tail.
  ingest::LiveShard live(f.net, f.grid, f.params, core::StiuParams{16, 900});
  const std::string manifest =
      ::testing::TempDir() + "/verify_tier_empty_live.utcq";
  ingest::Flusher flusher(f.net, manifest);
  std::string error;
  std::shared_ptr<const shard::ShardedCorpus> sealed;
  ASSERT_TRUE(flusher.Open(&error, &sealed)) << error;
  for (size_t j = 0; j < 4; ++j) live.Append(f.corpus[j]);
  const auto snap = live.Snapshot();
  ASSERT_TRUE(flusher.Flush(*snap, &error, &sealed)) << error;
  live.DropFlushed(snap->count());

  auto tier_snap = std::make_shared<serve::TierSnapshot>();
  tier_snap->sealed = sealed;
  tier_snap->live = live.Snapshot();  // nullptr: the shard is empty
  EXPECT_EQ(tier_snap->live, nullptr);

  const serve::FixedTier tier(tier_snap);
  serve::QueryEngine engine(tier);
  EXPECT_EQ(engine.num_trajectories(), 4u);
  EXPECT_FALSE(engine.Where(0, f.corpus[0].times.front(), 0.0).empty());
  EXPECT_TRUE(engine.Where(4, 1000, 0.0).empty());   // first missing id
  EXPECT_TRUE(engine.Where(99, 1000, 0.0).empty());  // far out of range
  const auto bbox = f.net.bounding_box();
  (void)engine.Range({bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y},
                     f.corpus[0].times.front(), 0.05);

  std::remove(manifest.c_str());
  std::remove(shard::ShardArchivePath(manifest, 0).c_str());
}

TEST(ErrorPaths, ZeroByteCacheBudgetDecodesEveryTimeAndStaysEmpty) {
  ErrorPathFixture& f = Fixture();

  // The cache itself: a 0-byte budget must serve every evicting lookup by
  // decode, retain nothing, and still pin the handed-out value for the
  // caller.
  serve::DecodedTrajCache cache(0, 4);
  const auto decode = [&f] { return f.sys->decoder().DecodeTraj(0); };
  const auto a =
      cache.GetOrDecode(1, serve::DecodedTrajCache::Admission::kEvict, decode);
  const auto b =
      cache.GetOrDecode(1, serve::DecodedTrajCache::Admission::kEvict, decode);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->times, b->times);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(cache.Peek(1), nullptr);

  // And through the engine: a 0-budget engine answers exactly like the
  // uncached processor.
  serve::EngineOptions opts;
  opts.cache_budget_bytes = 0;
  serve::QueryEngine engine(f.sys->queries(), opts);
  for (uint32_t j = 0; j < 4; ++j) {
    const auto t = f.corpus[j].times.front();
    const auto got = engine.Where(j, t, 0.0);
    const auto want = f.sys->queries().Where(j, t, 0.0);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
  EXPECT_EQ(engine.stats().cache_resident_entries, 0u);
}

}  // namespace
}  // namespace utcq
