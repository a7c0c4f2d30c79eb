#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "paper_example.h"
#include "stiu_sections.h"
#include "traj/generator.h"
#include "ted/ted_compress.h"
#include "ted/ted_index.h"
#include "ted/ted_query.h"
#include "traj/profiles.h"
#include "test_fixtures.h"
#include "verify/oracle.h"

namespace utcq::core {
namespace {

// Tuples hold only the fields queries read.
static_assert(sizeof(StiuIndex::RefTuple) == 16);
static_assert(sizeof(StiuIndex::NrefTuple) == 8);

struct StiuFixture {
  explicit StiuFixture(int64_t partition_s = 900, size_t count = 60) {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 606);
    corpus = gen.GenerateCorpus(count);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<UtcqSystem>(net, *grid, corpus, params,
                                       StiuParams{16, partition_s});
  }
  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  UtcqParams params;
  std::unique_ptr<UtcqSystem> sys;
};

TEST(StiuIndex, TemporalTuplesCoverEveryPartitionOfTheSpan) {
  StiuFixture fx;
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tuples = fx.sys->index().TemporalOf(j);
    ASSERT_FALSE(tuples.empty());
    EXPECT_EQ(tuples.front().t_no, 0u);
    EXPECT_EQ(tuples.front().t_start, fx.corpus[j].times.front());
    for (size_t k = 1; k < tuples.size(); ++k) {
      EXPECT_GT(tuples[k].t_start, tuples[k - 1].t_start);
      EXPECT_GT(tuples[k].t_no, tuples[k - 1].t_no);
      // Each tuple starts a new 900 s partition.
      EXPECT_NE(tuples[k].t_start / 900, tuples[k - 1].t_start / 900);
    }
  }
}

TEST(StiuIndex, BracketFromAnyTupleMatchesBracketFromStart) {
  // The t_pos bit offsets must let a partial decode starting at *any*
  // temporal tuple agree with a decode from the beginning of the stream.
  StiuFixture fx;
  const auto decoder = fx.sys->decoder();
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tu = fx.corpus[j];
    const auto& tuples = fx.sys->index().TemporalOf(j);
    const auto& first = tuples.front();
    for (traj::Timestamp t = tu.times.front(); t <= tu.times.back();
         t += std::max<traj::Timestamp>(
             (tu.times.back() - tu.times.front()) / 7, 1)) {
      const auto via_index = fx.sys->index().TemporalTupleFor(j, t);
      const auto a = decoder.BracketTime(j, t, via_index.t_no,
                                         via_index.t_start, via_index.t_pos);
      const auto b =
          decoder.BracketTime(j, t, first.t_no, first.t_start, first.t_pos);
      ASSERT_EQ(a.has_value(), b.has_value()) << "traj " << j << " t " << t;
      if (a.has_value()) {
        EXPECT_EQ(a->index, b->index);
        EXPECT_EQ(a->t0, b->t0);
        EXPECT_EQ(a->t1, b->t1);
        // And the bracket is correct against the raw time sequence.
        EXPECT_EQ(a->t0, tu.times[a->index]);
        if (a->index + 1 < tu.times.size()) {
          EXPECT_EQ(a->t1, tu.times[a->index + 1]);
        }
        EXPECT_LE(a->t0, t);
        EXPECT_GE(a->t1, t);
      }
    }
  }
}

TEST(StiuIndex, SpatialTuplesAreComplete) {
  // Every region an instance's path overlaps must be reachable via a tuple
  // (the conservative completeness the range candidate generation needs).
  StiuFixture fx;
  const auto& meta_of = fx.sys->compressed();
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const TrajMeta& meta = meta_of.meta(j);
    for (size_t w = 0; w < fx.corpus[j].instances.size(); ++w) {
      const auto& inst = fx.corpus[j].instances[w];
      const auto [is_ref, idx] = meta.roles[w];
      for (const auto e : inst.path) {
        for (const auto re : fx.grid->RegionsOfEdge(e)) {
          bool found = false;
          if (is_ref) {
            for (const auto& rt : fx.sys->index().RefTuplesIn(re)) {
              found = found || (rt.traj == j && rt.ref_idx == idx &&
                                rt.ref_passes);
            }
          } else {
            for (const auto& nt : fx.sys->index().NrefTuplesIn(re)) {
              found = found || (nt.traj == j && nt.nref_idx == idx);
            }
          }
          EXPECT_TRUE(found) << "traj " << j << " inst " << w << " region "
                             << re;
        }
      }
    }
  }
}

TEST(StiuIndex, RefTupleAggregatesAreConsistent) {
  StiuFixture fx;
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    for (const auto& rt : fx.sys->index().RefTuplesIn(re)) {
      EXPECT_GE(rt.p_max, 0.0f);
    }
  }
}

TEST(StiuIndex, RefTuplesOfATrajectoryAscendInRefIdx) {
  // Each (region, trajectory) run lists its reference groups in ascending
  // ref_idx, so the section bytes do not depend on a hash table's order.
  StiuFixture fx;
  size_t multi = 0;
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    for (uint32_t j = 0; j < fx.corpus.size(); ++j) {
      const auto run = fx.sys->index().TuplesOf(re, j).refs;
      for (size_t k = 1; k < run.size(); ++k) {
        EXPECT_LT(run[k - 1].ref_idx, run[k].ref_idx)
            << "region " << re << " traj " << j;
      }
      multi += run.size() > 1;
    }
  }
  EXPECT_GT(multi, 0u);  // some runs hold more than one group
}

TEST(StiuIndex, PaperExampleTuples) {
  // Fig. 5: Tu^1_1 is the reference; the spatial tuples near the corridor
  // start must name it and carry the largest non-reference probability.
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 4);
  UtcqParams params;
  params.default_interval_s = 240;
  const UtcqSystem sys(ex.net, grid, corpus, params, StiuParams{4, 900});

  const auto re0 = grid.RegionOf(ex.net.vertex(ex.v[1]).x + 1,
                                 ex.net.vertex(ex.v[1]).y + 1);
  bool found = false;
  for (const auto& rt : sys.index().RefTuplesIn(re0)) {
    if (rt.traj != 0 || !rt.ref_passes) continue;
    found = true;
    EXPECT_NEAR(rt.p_max, 0.2, 0.01);  // max non-reference probability
  }
  EXPECT_TRUE(found);
}

class StiuLayout : public ::testing::TestWithParam<int64_t> {};

TEST_P(StiuLayout, BuiltLayoutMatchesTheMembershipOracle) {
  const StiuFixture fx(GetParam());
  test::ExpectLayoutMatchesOracle(fx.sys->index());
  // The 60 s layout must put trajectories above level 0.
  if (GetParam() <= 60) EXPECT_GT(fx.sys->index().num_levels(), 1u);
}

TEST_P(StiuLayout, EveryTupleOfEveryActiveTrajectoryIsReadOnce) {
  // Over all levels, the runs at t hold each stored tuple of each
  // trajectory in TrajectoriesAt(t) exactly once: counted per region and
  // trajectory, without the oracle's level rule.
  const StiuFixture fx(GetParam());
  const StiuIndex& index = fx.sys->index();
  const size_t n = index.num_trajectories();
  std::vector<std::vector<size_t>> stored(fx.grid->num_regions(),
                                          std::vector<size_t>(n, 0));
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    for (const auto& rt : index.RefTuplesIn(re)) ++stored[re][rt.traj];
    for (const auto& nt : index.NrefTuplesIn(re)) ++stored[re][nt.traj];
  }
  std::vector<size_t> read(n);
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    const auto& active = index.TrajectoriesAt(t);
    for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
      std::fill(read.begin(), read.end(), 0);
      for (size_t level = 0; level < index.num_levels(); ++level) {
        const auto run = index.TuplesAt(level, t, re, re);
        for (const auto& rt : run.refs) ++read[rt.traj];
        for (const auto& nt : run.nrefs) ++read[nt.traj];
      }
      for (const uint32_t j : active) {
        EXPECT_EQ(read[j], stored[re][j])
            << "partition " << p << " region " << re << " trajectory " << j;
      }
    }
  }
}

TEST_P(StiuLayout, DerivedOnOpenEqualsTheBuiltIndex) {
  // The index an archive derives on open is the compress-time index, array
  // for array, and matches the layout oracle.
  const StiuFixture fx(GetParam());
  archive::ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(
      archive::ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
          .Serialize(),
      &error))
      << error;
  const auto derived = reader.LoadIndex(*fx.grid, &error);
  ASSERT_NE(derived, nullptr) << error;
  test::ExpectSameIndex(*derived, fx.sys->index());
  test::ExpectLayoutMatchesOracle(*derived);
}

INSTANTIATE_TEST_SUITE_P(Partitions, StiuLayout,
                         ::testing::Values(int64_t{14400}, int64_t{900},
                                           int64_t{60}));

/// `corpus` with every trajectory's samples spread evenly over [start,
/// end]: the same paths, listed in every partition the span covers.
traj::UncertainCorpus Stretched(traj::UncertainCorpus corpus,
                                traj::Timestamp start, traj::Timestamp end) {
  for (traj::UncertainTrajectory& tu : corpus) {
    const auto n = static_cast<traj::Timestamp>(tu.times.size());
    for (traj::Timestamp i = 0; i < n; ++i) {
      tu.times[i] = start + (end - start) * i / std::max<traj::Timestamp>(n - 1, 1);
    }
  }
  return corpus;
}

TEST(StiuIndex, DayLongTrajectoriesHoldAtMostFourCopies) {
  // Trajectories listed in every one of 1 440 partitions sit at the
  // coarsest level (two 1 024-partition-wide partitions): the layout holds
  // at most kMaxCopies copies of the region lists, not one per partition.
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  const auto corpus = Stretched(test::MakeSmallCorpus(net, profile, 606, 30),
                                0, traj::kSecondsPerDay - 1);
  const network::GridIndex grid(net, 16);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const UtcqSystem sys(net, grid, corpus, params, StiuParams{16, 60});
  const StiuIndex& index = sys.index();
  ASSERT_EQ(index.num_partitions(), 1440u);
  size_t stored = 0;
  for (network::RegionId re = 0; re < grid.num_regions(); ++re) {
    stored += index.RefTuplesIn(re).size() + index.NrefTuplesIn(re).size();
  }
  ASSERT_GT(stored, 0u);
  EXPECT_EQ(index.num_levels(), 6u);
  EXPECT_LE(index.ref_tuples().size() + index.nref_tuples().size(),
            StiuIndex::kMaxCopies * stored);
  test::ExpectLayoutMatchesOracle(index);
}

TEST(StiuIndex, FinePartitionsOverManyRegionsBuildInLinearTime) {
  // One-second partitions (86 400 of them) over a 512x512 grid: building
  // the partition-major layout must cost O(tuples + partitions), not
  // O(regions x partitions) (2e10 steps here).
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  const auto corpus = test::MakeSmallCorpus(net, profile, 606, 40);
  const network::GridIndex grid(net, 512);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const CompressedCorpus cc = UtcqCompressor(net, params).Compress(corpus);
  // One partition for the whole day stores each tuple once.
  const StiuIndex whole_day(grid, corpus, cc, StiuParams{512, 86400});
  const size_t stored =
      whole_day.ref_tuples().size() + whole_day.nref_tuples().size();
  ASSERT_GT(stored, 0u);

  const auto start = std::chrono::steady_clock::now();
  const StiuIndex index(grid, corpus, cc, StiuParams{512, 1});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(index.num_partitions(), 86400u);
  EXPECT_GT(index.num_levels(), 1u);
  EXPECT_LE(index.ref_tuples().size() + index.nref_tuples().size(),
            StiuIndex::kMaxCopies * stored);
  // Over every level, the rows at a trajectory's first sample hold each of
  // its tuples exactly once.
  const auto& tu = corpus[7];
  size_t read = 0;
  for (size_t level = 0; level < index.num_levels(); ++level) {
    const auto run =
        index.TuplesAt(level, tu.times.front(), 0, grid.num_regions() - 1);
    for (const auto& rt : run.refs) read += rt.traj == 7;
    for (const auto& nt : run.nrefs) read += nt.traj == 7;
  }
  size_t own = 0;
  for (const auto& rt : whole_day.ref_tuples()) own += rt.traj == 7;
  for (const auto& nt : whole_day.nref_tuples()) own += nt.traj == 7;
  EXPECT_GT(own, 0u);
  EXPECT_EQ(read, own);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(StiuIndex, RangeScansAFractionOfTheRegionLists) {
  // Range reads only tq's partition rows: across a day of queries
  // over the whole map, at least 10x fewer tuples than the full region
  // lists the index used to walk — with identical answers to a scan of
  // the decompressed corpus.
  const StiuFixture fx(900, 200);
  const StiuIndex& index = fx.sys->index();
  const auto bbox = fx.net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};
  size_t full = 0;
  for (const network::RegionId re : fx.grid->RegionsInRect(everywhere)) {
    full += index.RefTuplesIn(re).size() + index.NrefTuplesIn(re).size();
  }
  const auto decoded = fx.sys->decoder().DecompressAll();
  const verify::Oracle oracle(fx.net, decoded, fx.params.eta_d);
  QueryStats stats;
  size_t queries = 0;
  size_t hits = 0;
  for (size_t j = 0; j < fx.corpus.size(); j += 4) {
    const auto& times = fx.corpus[j].times;
    const traj::Timestamp tq = (times.front() + times.back()) / 2;
    const auto got = fx.sys->queries().Range(everywhere, tq, 0.05, &stats);
    EXPECT_EQ(got, oracle.Range(everywhere, tq, 0.05)) << "tq " << tq;
    hits += got.size();
    ++queries;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(stats.tuples_scanned, 0u);
  EXPECT_GE(full * queries, 10 * stats.tuples_scanned)
      << "scanned " << stats.tuples_scanned << " of " << full * queries;
}

TEST(StiuIndex, OutOfDayTimestampsStayRangeCandidates) {
  // Ingest does not bound time: a trajectory running past midnight, or
  // recorded wholly after it, is clamped into the day's last partition
  // and must still reach Range exactly as a full scan finds it, in the
  // UTCQ engine and in the TED baseline.
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  traj::UncertainCorpus corpus = test::MakeSmallCorpus(net, profile, 909, 12);
  const auto shift_to = [](traj::UncertainTrajectory& tu,
                           traj::Timestamp start) {
    const traj::Timestamp delta = start - tu.times.front();
    for (auto& t : tu.times) t += delta;
  };
  const traj::Timestamp span0 =
      corpus[0].times.back() - corpus[0].times.front();
  ASSERT_GT(span0, 1);
  shift_to(corpus[0], traj::kSecondsPerDay - span0 / 2);  // crosses midnight
  shift_to(corpus[1], traj::kSecondsPerDay + 5000);       // wholly after it

  const network::GridIndex grid(net, 16);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const UtcqSystem sys(net, grid, corpus, params, StiuParams{16, 900});
  const auto decoded = sys.decoder().DecompressAll();
  ASSERT_EQ(decoded[1].times, corpus[1].times);
  const verify::Oracle oracle(net, decoded, params.eta_d);

  // The TED baseline partitions the day the same way.
  ted::TedParams tparams;
  tparams.eta_d = params.eta_d;
  tparams.eta_p = params.eta_p;
  const ted::TedCompressed tc = ted::TedCompressor(net, tparams).Compress(corpus);
  const ted::TedIndex tindex(net, grid, tc, 900);
  const ted::TedQueryProcessor ted_queries(net, tc, tindex);

  const auto bbox = net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};
  for (const uint32_t j : {0u, 1u}) {
    const auto& times = corpus[j].times;
    for (const traj::Timestamp tq :
         {times.front(), (times.front() + times.back()) / 2, times.back()}) {
      const auto want = oracle.Range(everywhere, tq, 0.05);
      ASSERT_TRUE(std::binary_search(want.begin(), want.end(), j))
          << "trajectory " << j << " tq " << tq;
      EXPECT_EQ(sys.queries().Range(everywhere, tq, 0.05), want)
          << "trajectory " << j << " tq " << tq;
      const auto ted_got = ted_queries.Range(everywhere, tq, 0.05);
      EXPECT_TRUE(std::binary_search(ted_got.begin(), ted_got.end(), j))
          << "TED, trajectory " << j << " tq " << tq;
    }
  }
}

}  // namespace
}  // namespace utcq::core
