#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
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

/// Loads a section, which must parse to its last byte.
std::unique_ptr<StiuIndex> Load(const network::GridIndex& grid,
                                const std::vector<uint8_t>& bytes) {
  common::ByteReader in(bytes);
  auto index = std::make_unique<StiuIndex>(grid, in, /*legacy_shape=*/false);
  EXPECT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
  return index;
}

std::vector<uint8_t> Serialized(const StiuIndex& index) {
  common::ByteWriter out;
  index.Serialize(out);
  return out.Release();
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

TEST_P(StiuLayout, ReloadedAndCraftedSectionsMatchTheOracle) {
  // The layout matches the oracle on the built index, its reload, an older
  // writer's id-ordered section and crafted sections: a repeated id, ids
  // past the index, a trajectory in no partition, a gapped partition list,
  // one listed in every partition and everything in one partition. A
  // reload writes the bytes it was derived from, up to list order.
  const StiuFixture fx(GetParam());
  const StiuIndex& built = fx.sys->index();
  const test::StiuSection honest = test::StiuSection::Of(built);
  const auto n = static_cast<uint32_t>(built.num_trajectories());
  const size_t partitions = built.num_partitions();
  const std::vector<uint8_t> serialized = Serialized(built);
  ASSERT_EQ(honest.Write(), serialized);

  test::StiuSection crafted = honest;
  for (auto& l : crafted.partitions) {
    std::erase(l, 0u);
    const auto once = l;
    l.insert(l.end(), once.begin(), once.end());
    l.push_back(n + 5);
    std::sort(l.rbegin(), l.rend());
  }
  for (size_t re = 0; re < crafted.refs.size(); re += 3) {
    if (crafted.refs[re].empty()) continue;
    test::LegacyRefTuple phantom = crafted.refs[re].front();
    phantom.traj = n + 1;
    crafted.refs[re].push_back(phantom);
  }
  test::StiuSection gapped = honest;  // trajectory 1: first, then mid-day
  for (auto& l : gapped.partitions) std::erase(l, 1u);
  gapped.partitions.front().push_back(1);
  gapped.partitions[partitions / 2].push_back(1);
  test::StiuSection everywhere = honest;  // trajectory 2: every partition
  for (auto& l : everywhere.partitions) {
    if (std::find(l.begin(), l.end(), 2u) == l.end()) l.push_back(2);
    std::sort(l.begin(), l.end());
  }
  test::StiuSection one_bucket = honest;
  for (auto& l : one_bucket.partitions) l.clear();
  for (uint32_t j = 0; j < n; ++j) one_bucket.partitions[0].push_back(j);

  for (const auto& [name, bytes] :
       {std::pair{"reloaded", serialized},
        std::pair{"id-ordered", honest.Write(test::ListOrder::kIdAscending)},
        std::pair{"crafted", crafted.Write(test::ListOrder::kIdDescending)},
        std::pair{"gapped", gapped.Write()},
        std::pair{"everywhere", everywhere.Write()},
        std::pair{"one bucket", one_bucket.Write()}}) {
    SCOPED_TRACE(name);
    const auto index = Load(*fx.grid, bytes);
    test::ExpectLayoutMatchesOracle(*index);
    const auto again = Serialized(*index);
    EXPECT_EQ(again.size(), bytes.size());
    EXPECT_EQ(Serialized(*Load(*fx.grid, again)), again);
    if (std::string(name) == "reloaded" || std::string(name) == "id-ordered") {
      EXPECT_EQ(again, serialized);
    }
    if (std::string(name) == "crafted") {
      // Trajectory 0 and the phantom owners are stored, never read.
      size_t unread = 0;
      for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
        for (const auto& rt : index->RefTuplesIn(re)) {
          unread += rt.traj == 0 || rt.traj >= n;
        }
      }
      EXPECT_GT(unread, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, StiuLayout,
                         ::testing::Values(int64_t{14400}, int64_t{900},
                                           int64_t{60}));

TEST(StiuIndex, EveryPartitionSectionHoldsAtMostFourCopies) {
  // A section listing every trajectory in every one of 1 440 partitions
  // stores each at the coarsest level (two 1 024-partition-wide
  // partitions): the layout holds at most kMaxCopies copies of the stored
  // tuples, not one per partition.
  const StiuFixture fx(60);
  test::StiuSection every = test::StiuSection::Of(fx.sys->index());
  const auto n = static_cast<uint32_t>(fx.sys->index().num_trajectories());
  for (auto& l : every.partitions) {
    l.clear();
    for (uint32_t j = 0; j < n; ++j) l.push_back(j);
  }
  const auto index = Load(*fx.grid, every.Write());
  size_t stored = 0;
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    stored += index->RefTuplesIn(re).size() + index->NrefTuplesIn(re).size();
  }
  ASSERT_GT(stored, 0u);
  EXPECT_EQ(index->num_levels(), 6u);
  EXPECT_LE(index->ref_tuples().size() + index->nref_tuples().size(),
            StiuIndex::kMaxCopies * stored);
  test::ExpectLayoutMatchesOracle(*index);
}

TEST(StiuIndex, FinePartitionsOverManyRegionsLoadInLinearTime) {
  // Each partition and each region list costs a crafted section one byte,
  // so a small section can name ~1e5 partitions over a 512x512 grid.
  // Deriving the partition-major layout must cost O(bytes), not O(regions
  // x partitions) (5e10 steps here), even when every tuple sits in a
  // partition of its own.
  const auto profile = traj::ChengduProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  const network::GridIndex grid(net, 512);
  constexpr uint64_t kPartitions = 100000;
  constexpr uint32_t kTrajs = kPartitions / 5;  // j listed in partition 5j
  const auto region_of = [&](uint32_t j) {
    return static_cast<network::RegionId>((uint64_t{j} * 7919) %
                                          grid.num_regions());
  };
  std::vector<std::vector<uint32_t>> nref_owners(grid.num_regions());
  for (uint32_t j = 0; j < kTrajs; ++j) nref_owners[region_of(j)].push_back(j);
  common::ByteWriter out;
  out.PutVarint(512);  // cells_per_side
  out.PutSignedVarint(1);  // time_partition_s
  out.PutVarint(kTrajs);
  out.PutVarint(kPartitions);
  out.PutVarint(grid.num_regions());
  for (uint32_t j = 0; j < kTrajs; ++j) out.PutVarint(0);  // no temporal
  for (uint64_t p = 0; p < kPartitions; ++p) {
    out.PutVarint(p % 5 == 0 ? 1 : 0);
    if (p % 5 == 0) out.PutVarint(p / 5);
  }
  for (size_t re = 0; re < grid.num_regions(); ++re) out.PutVarint(0);
  for (const auto& owners : nref_owners) {
    out.PutVarint(owners.size());
    for (const uint32_t j : owners) {
      out.PutVarint(j);  // traj
      out.PutVarint(0);  // nref_idx
    }
  }

  const auto start = std::chrono::steady_clock::now();
  common::ByteReader in(out.bytes());
  const StiuIndex index(grid, in, /*legacy_shape=*/false);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(index.num_partitions(), kPartitions);
  EXPECT_EQ(index.num_levels(), 1u);
  const network::RegionId re = region_of(10000);
  EXPECT_TRUE(index.TuplesAt(0, 50000, 0, 0).refs.empty());
  const auto live = index.TuplesAt(0, 50000, re, re).nrefs;
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.front().traj, 10000u);
  EXPECT_TRUE(index.TuplesAt(0, 50001, re, re).nrefs.empty());
  EXPECT_EQ(index.TuplesAt(0, 50000, 0, grid.num_regions() - 1).nrefs.size(),
            1u);
  // One copy and one cell per tuple, one offset per partition: the layout
  // is a small multiple of the section, not regions x partitions.
  EXPECT_EQ(index.nref_tuples().size(), kTrajs);
  EXPECT_LE(index.spatial_size_bytes(), 4 * out.bytes().size());
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
