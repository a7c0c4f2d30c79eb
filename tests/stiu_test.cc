#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "core/utcq.h"
#include "ingest/live_shard.h"
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
static_assert(sizeof(StiuIndex::NrefTuple) == 12);

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
  // temporal tuple agree with a decode from the beginning of the stream,
  // also at each tuple's own start time, which the scan brackets at the
  // previous entry.
  StiuFixture fx;
  const auto decoder = fx.sys->decoder();
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tu = fx.corpus[j];
    const auto& tuples = fx.sys->index().TemporalOf(j);
    const auto& first = tuples.front();
    std::vector<traj::Timestamp> probes;
    for (traj::Timestamp t = tu.times.front(); t <= tu.times.back();
         t += std::max<traj::Timestamp>(
             (tu.times.back() - tu.times.front()) / 7, 1)) {
      probes.push_back(t);
    }
    for (const auto& tuple : tuples) probes.push_back(tuple.t_start);
    for (const traj::Timestamp t : probes) {
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
              found = found || (rt.traj == j && rt.ref_idx() == idx &&
                                rt.ref_passes());
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
        EXPECT_LT(run[k - 1].ref_idx(), run[k].ref_idx())
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
    if (rt.traj != 0 || !rt.ref_passes()) continue;
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

/// A tuple's identity: (traj, is_ref, idx), packed.
uint64_t KeyOf(const StiuIndex::RefTuple& rt) {
  return (uint64_t{rt.traj} << 33) | (uint64_t{1} << 32) | rt.ref_idx();
}
uint64_t KeyOf(const StiuIndex::NrefTuple& nt) {
  return (uint64_t{nt.traj} << 33) | nt.nref_idx;
}

TEST_P(StiuLayout, EveryTupleWhoseWindowHoldsTIsReadOnce) {
  // Over all levels, the runs at t hold stored tuples only, each at most
  // once, and every tuple of an active trajectory whose window holds t:
  // checked per region at the start and the middle of every partition,
  // without the oracle's level or copy rule.
  const StiuFixture fx(GetParam());
  const StiuIndex& index = fx.sys->index();
  const size_t n = index.num_trajectories();
  std::vector<std::vector<std::pair<uint64_t, StiuIndex::TimeWindow>>> stored(
      fx.grid->num_regions());
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    for (const auto& rt : index.RefTuplesIn(re)) {
      stored[re].emplace_back(KeyOf(rt), rt.window);
    }
    for (const auto& nt : index.NrefTuplesIn(re)) {
      stored[re].emplace_back(KeyOf(nt), nt.window);
    }
    std::ranges::sort(stored[re], {}, [](const auto& kw) { return kw.first; });
  }
  std::vector<bool> active(n);
  size_t held = 0;
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const auto start =
        static_cast<traj::Timestamp>(p) * index.time_partition_s();
    for (const traj::Timestamp t :
         {start, start + index.time_partition_s() / 2}) {
      std::fill(active.begin(), active.end(), false);
      for (const uint32_t j : index.TrajectoriesAt(t)) active[j] = true;
      for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
        std::vector<uint64_t> read;
        for (size_t level = 0; level < index.num_levels(); ++level) {
          const auto run = index.TuplesAt(level, t, re, re);
          for (const auto& rt : run.refs) read.push_back(KeyOf(rt));
          for (const auto& nt : run.nrefs) read.push_back(KeyOf(nt));
        }
        std::ranges::sort(read);
        SCOPED_TRACE("t " + std::to_string(t) + " region " +
                     std::to_string(re));
        EXPECT_EQ(std::ranges::adjacent_find(read), read.end());
        for (const uint64_t key : read) {
          EXPECT_TRUE(std::ranges::binary_search(
              stored[re], key, {}, [](const auto& kw) { return kw.first; }))
              << "key " << key;
        }
        for (const auto& [key, window] : stored[re]) {
          if (!active[key >> 33] || !test::WindowMeets(window, t, t)) continue;
          ++held;
          EXPECT_TRUE(std::ranges::binary_search(read, key)) << "key " << key;
        }
      }
    }
  }
  EXPECT_GT(held, 0u);
}

TEST_P(StiuLayout, DerivedOnOpenEqualsTheBuiltIndex) {
  // The index an archive derives on open is the compress-time index, array
  // for array, and matches the layout oracle.
  const StiuFixture fx(GetParam());
  archive::ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(
      archive::ArchiveWriter(fx.sys->compressed(), fx.sys->index().params())
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

/// Whether a run Range reads at tq over `rect`'s regions holds a tuple of
/// the instance at original position `w` of trajectory `j` whose window
/// holds tq.
bool ReadWithWindowHolding(const StiuIndex& index, const TrajMeta& meta,
                           uint32_t j, uint32_t w, const network::Rect& rect,
                           traj::Timestamp tq) {
  const auto [is_ref, idx] = meta.roles[w];
  for (const network::RegionId re : index.grid().RegionsInRect(rect)) {
    for (size_t level = 0; level < index.num_levels(); ++level) {
      const auto run = index.TuplesAt(level, tq, re, re);
      for (const auto& rt : run.refs) {
        if (is_ref && rt.traj == j && rt.ref_idx() == idx &&
            rt.ref_passes() && test::WindowMeets(rt.window, tq, tq)) {
          return true;
        }
      }
      for (const auto& nt : run.nrefs) {
        if (!is_ref && nt.traj == j && nt.nref_idx == idx &&
            test::WindowMeets(nt.window, tq, tq)) {
          return true;
        }
      }
    }
  }
  return false;
}

TEST(StiuWindows, EveryOraclePlacementIsReadWithAWindowHoldingTq) {
  // Soundness of Range's window test: wherever the oracle places an
  // instance inside a query rectangle at tq, and a tuple names it in one of
  // the rectangle's regions, a run Range reads at tq over those regions
  // holds a tuple of that instance whose window holds tq. tq falls on
  // samples, between them, on repeated samples, at the first and last
  // sample and outside the span; trajectories 0-4 have one location, and
  // five more a repeated timestamp. Every fourth rectangle is a point,
  // which may fall in a cell the edge only clips at a corner, and Range
  // must answer each of those like the oracle.
  const uint64_t base = test::BaseSeed(4242);
  for (uint64_t seed = base; seed < base + 2; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto profile = seed % 2 == 0 ? traj::HangzhouProfile()
                                       : traj::ChengduProfile();
    const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
    traj::UncertainCorpus corpus =
        test::MakeSmallCorpus(net, profile, seed, 40);
    for (size_t j = 0; j < 5; ++j) {
      corpus[j].times.resize(1);
      for (auto& inst : corpus[j].instances) {
        inst.path.resize(inst.locations.front().path_index + 1);
        inst.locations.resize(1);
      }
    }
    size_t repeated = 0;
    for (size_t j = 5; j < corpus.size() && repeated < 5; ++j) {
      auto& times = corpus[j].times;
      if (times.size() < 3) continue;
      times[1] = times[2];
      ++repeated;
    }
    ASSERT_EQ(repeated, 5u);
    const network::GridIndex grid(net, 16);
    UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    params.eta_p = profile.eta_p;
    for (const int64_t partition_s :
         {int64_t{1800}, int64_t{600}, int64_t{60}}) {
      SCOPED_TRACE("partition " + std::to_string(partition_s));
      const UtcqSystem sys(net, grid, corpus, params,
                           StiuParams{16, partition_s});
      const auto decoded = sys.decoder().DecompressAll();
      const verify::Oracle oracle(net, decoded, params.eta_d);
      common::Rng rng(seed * 7 + static_cast<uint64_t>(partition_s));
      size_t placed = 0;
      for (uint32_t j = 0; j < corpus.size(); ++j) {
        const auto& times = corpus[j].times;
        ASSERT_EQ(decoded[j].times, times);
        std::vector<traj::Timestamp> tqs = {times.front() - 1,
                                            times.back() + 1};
        for (size_t k = 0; k < times.size(); ++k) {
          tqs.push_back(times[k]);
          if (k + 1 < times.size()) {
            tqs.push_back(rng.UniformInt(times[k], times[k + 1]));
          }
        }
        for (const traj::Timestamp tq : tqs) {
          for (const traj::WhereHit& hit : oracle.Where(j, tq, 0.0)) {
            const network::Vertex xy =
                net.PointOnEdge(hit.position.edge, hit.position.ndist);
            // Every fourth rectangle is the point itself; Range is checked
            // against the oracle on each of those and on some of the
            // others.
            const bool point = placed % 4 == 1;
            const double reach = point ? 0.0 : 300.0;
            const network::Rect rect{xy.x - rng.Uniform(0.0, reach),
                                     xy.y - rng.Uniform(0.0, reach),
                                     xy.x + rng.Uniform(0.0, reach),
                                     xy.y + rng.Uniform(0.0, reach)};
            ASSERT_TRUE(rect.Contains(xy.x, xy.y));
            const TrajMeta& meta = sys.compressed().meta(j);
            EXPECT_TRUE(ReadWithWindowHolding(sys.index(), meta, j,
                                              hit.instance, rect, tq))
                << "trajectory " << j << " instance " << hit.instance
                << " tq " << tq;
            if (point || placed % 64 == 0) {
              const double alpha = rng.Uniform(0.05, 0.9);
              EXPECT_EQ(sys.queries().Range(rect, tq, alpha),
                        oracle.Range(rect, tq, alpha))
                  << "tq " << tq;
            }
            ++placed;
          }
        }
      }
      EXPECT_GT(placed, 1000u);
    }
  }
}

/// Windows of the tuples that name instance `w` (original position) of
/// trajectory `j` in their region: ref tuples whose reference passes, and
/// nref tuples.
std::vector<StiuIndex::TimeWindow> WindowsOf(const StiuIndex& index,
                                             const TrajMeta& meta, uint32_t j,
                                             uint32_t w) {
  const auto [is_ref, idx] = meta.roles[w];
  std::vector<StiuIndex::TimeWindow> out;
  for (network::RegionId re = 0; re < index.grid().num_regions(); ++re) {
    for (const auto& rt : index.RefTuplesIn(re)) {
      if (is_ref && rt.traj == j && rt.ref_idx() == idx && rt.ref_passes()) {
        out.push_back(rt.window);
      }
    }
    for (const auto& nt : index.NrefTuplesIn(re)) {
      if (!is_ref && nt.traj == j && nt.nref_idx == idx) {
        out.push_back(nt.window);
      }
    }
  }
  return out;
}

/// Every tuple naming instance `w` of trajectory `j` has the unbounded
/// window, and there is at least one.
void ExpectUnbounded(const StiuIndex& index, const TrajMeta& meta, uint32_t j,
                     uint32_t w) {
  const auto windows = WindowsOf(index, meta, j, w);
  EXPECT_FALSE(windows.empty()) << "trajectory " << j << " instance " << w;
  for (const auto& window : windows) {
    EXPECT_EQ(window, StiuIndex::TimeWindow{})
        << "trajectory " << j << " instance " << w;
  }
}

/// Range through `queries` answers like `oracle` over the whole map and
/// random rectangles, at the first, a middle and the last sample of every
/// trajectory of `corpus` and at random times over two days; some answer
/// holds a hit.
void ExpectRangeLikeOracle(const network::RoadNetwork& net,
                           const UtcqQueryProcessor& queries,
                           const verify::Oracle& oracle,
                           const traj::UncertainCorpus& corpus,
                           uint64_t seed) {
  common::Rng rng(seed);
  const auto bbox = net.bounding_box();
  std::vector<traj::Timestamp> tqs;
  for (const auto& tu : corpus) {
    tqs.push_back(tu.times.front());
    tqs.push_back(tu.times[tu.times.size() / 2]);
    tqs.push_back(tu.times.back());
  }
  for (int k = 0; k < 20; ++k) {
    tqs.push_back(rng.UniformInt(0, 2 * traj::kSecondsPerDay));
  }
  size_t hits = 0;
  for (const traj::Timestamp tq : tqs) {
    for (int k = 0; k < 4; ++k) {
      const double half = k == 0 ? 1e9 : rng.Uniform(150.0, 900.0);
      const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
      const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
      const network::Rect rect{cx - half, cy - half, cx + half, cy + half};
      const double alpha = k == 0 ? 0.05 : rng.Uniform(0.05, 0.9);
      const auto want = oracle.Range(rect, tq, alpha);
      EXPECT_EQ(queries.Range(rect, tq, alpha), want)
          << "tq " << tq << " rectangle " << k;
      hits += want.size();
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST(StiuWindows, OutOfDayTimesThroughALiveShardAreUnbounded) {
  // Ingest does not bound time: trajectories crossing or wholly past
  // midnight reach the live shard's index with unbounded windows, and
  // Range over the snapshot answers like the oracle.
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  traj::UncertainCorpus corpus = test::MakeSmallCorpus(net, profile, 909, 12);
  const auto shift_to = [](traj::UncertainTrajectory& tu,
                           traj::Timestamp start) {
    const traj::Timestamp delta = start - tu.times.front();
    for (auto& t : tu.times) t += delta;
  };
  shift_to(corpus[0], traj::kSecondsPerDay - 30);    // crosses midnight
  shift_to(corpus[1], traj::kSecondsPerDay + 5000);  // wholly after it
  const network::GridIndex grid(net, 16);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  ingest::LiveShard live(net, grid, params, StiuParams{16, 900});
  for (const auto& tu : corpus) live.Append(tu);
  const auto snap = live.Snapshot();
  ASSERT_NE(snap, nullptr);
  const TrajMeta* meta[] = {&snap->corpus().meta(0), &snap->corpus().meta(1)};
  for (uint32_t j : {0u, 1u}) {
    for (uint32_t w = 0; w < corpus[j].instances.size(); ++w) {
      ExpectUnbounded(snap->index(), *meta[j], j, w);
    }
  }
  // An in-day trajectory keeps bounded windows.
  EXPECT_NE(WindowsOf(snap->index(), snap->corpus().meta(2), 2, 0).front(),
            StiuIndex::TimeWindow{});

  const auto decoded = snap->queries().decoder().DecompressAll();
  ASSERT_EQ(decoded[1].times, corpus[1].times);
  const verify::Oracle oracle(net, decoded, params.eta_d);
  ExpectRangeLikeOracle(net, snap->queries(), oracle, corpus, 11);
}

TEST(StiuWindows, BackwardTimesAreUnbounded) {
  // Times that run backwards (a hostile archive can hold them) give the
  // whole trajectory unbounded windows; Range answers like the oracle.
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  traj::UncertainCorpus corpus = test::MakeSmallCorpus(net, profile, 313, 12);
  for (const size_t j : {0, 1}) {
    auto& times = corpus[j].times;
    ASSERT_GE(times.size(), 4u);
    std::swap(times[1], times[2]);
  }
  const network::GridIndex grid(net, 16);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  // One partition: each trajectory has one temporal tuple, so the engines'
  // bracket scan and the oracle's agree on non-monotone times.
  const UtcqSystem sys(net, grid, corpus, params,
                       StiuParams{16, traj::kSecondsPerDay});
  for (uint32_t j : {0u, 1u}) {
    for (uint32_t w = 0; w < corpus[j].instances.size(); ++w) {
      ExpectUnbounded(sys.index(), sys.compressed().meta(j), j, w);
    }
  }
  const auto decoded = sys.decoder().DecompressAll();
  ASSERT_EQ(decoded[0].times, corpus[0].times);
  const verify::Oracle oracle(net, decoded, params.eta_d);
  ExpectRangeLikeOracle(net, sys.queries(), oracle, corpus, 12);
}

TEST(StiuWindows, MisshapenInstancesAreUnbounded) {
  // An instance whose location count is not the time count, or whose
  // path_index decreases, gets unbounded windows: the index is built from
  // such shapes, the streams from the honest corpus, and Range answers
  // like the oracle over the streams.
  const auto profile = traj::HangzhouProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  const traj::UncertainCorpus corpus =
      test::MakeSmallCorpus(net, profile, 717, 16);
  const network::GridIndex grid(net, 16);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  const CompressedCorpus cc = UtcqCompressor(net, params).Compress(corpus);
  for (const bool short_count : {true, false}) {
    SCOPED_TRACE(short_count ? "location count" : "decreasing path_index");
    traj::UncertainCorpus shaped = corpus;
    std::vector<std::pair<uint32_t, uint32_t>> changed;
    for (uint32_t j = 0; j < shaped.size(); j += 3) {
      for (uint32_t w = 0; w < shaped[j].instances.size(); w += 2) {
        auto& locs = shaped[j].instances[w].locations;
        if (short_count) {
          locs.pop_back();
        } else if (locs.front().path_index != locs.back().path_index) {
          std::swap(locs.front().path_index, locs.back().path_index);
        } else {
          continue;
        }
        changed.emplace_back(j, w);
      }
    }
    ASSERT_GT(changed.size(), 10u);
    const StiuIndex index(grid, shaped, cc, StiuParams{16, 900});
    for (const auto& [j, w] : changed) {
      ExpectUnbounded(index, cc.meta(j), j, w);
    }
    const UtcqQueryProcessor queries(net, cc, index);
    const verify::Oracle oracle(net, corpus, params.eta_d);
    ExpectRangeLikeOracle(net, queries, oracle, corpus, 13);
  }
}

}  // namespace
}  // namespace utcq::core
