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

// ref_passes fills the padding before d_pos (the directory's memory is paid
// for by this packing).
static_assert(sizeof(StiuIndex::RefTuple) == 40);

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
      const TrajMeta& meta = fx.sys->compressed().meta(rt.traj);
      // p_total covers at least the members that contributed p_max and the
      // reference itself when it passes.
      double lower = rt.p_max;
      if (rt.ref_passes) lower += meta.refs[rt.ref_idx].p_quantized;
      EXPECT_GE(rt.p_total + 1e-6, lower);
      EXPECT_GE(rt.p_max, 0.0f);
      if (rt.ref_passes) {
        EXPECT_LT(rt.fv_no, meta.refs[rt.ref_idx].e_len);
      }
    }
  }
}

TEST(StiuIndex, PaperExampleTuples) {
  // Fig. 5: Tu^1_1 is the reference; the spatial tuples near the corridor
  // start must name it with fv = SV and carry p_total = 1 (all three
  // instances pass the first region).
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
    EXPECT_EQ(rt.fv_id, ex.v[1]);  // SV special case of Section 5.2
    EXPECT_EQ(rt.fv_no, 0u);
    EXPECT_NEAR(rt.p_total, 1.0, 0.02);  // all instances start here
    EXPECT_NEAR(rt.p_max, 0.2, 0.01);    // max non-reference probability
  }
  EXPECT_TRUE(found);
}

/// First and last partition each trajectory is listed in, read back through
/// TrajectoriesAt alone (first = num_partitions() when listed nowhere), so
/// the checks below do not trust the index's own bucket assignment.
std::vector<std::pair<size_t, size_t>> Membership(const StiuIndex& index) {
  std::vector<std::pair<size_t, size_t>> span(
      index.num_trajectories(), {index.num_partitions(), 0});
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    for (const uint32_t j : index.TrajectoriesAt(t)) {
      span[j].first = std::min(span[j].first, p);
      span[j].second = p;
    }
  }
  return span;
}

/// `tuples` is ordered by (first partition, trajectory id), and for every
/// partition p `live_at(p)` is exactly the tuples whose first partition
/// lies in [p - max_span + 1, p].
template <typename Tuple, typename LiveAt>
void ExpectPartitionMajor(
    const std::vector<Tuple>& tuples,
    const std::vector<std::pair<size_t, size_t>>& membership,
    size_t partitions, size_t max_span, const LiveAt& live_at) {
  const auto key = [&](const Tuple& t) {
    return std::pair(membership[t.traj].first, t.traj);
  };
  for (size_t k = 1; k < tuples.size(); ++k) {
    EXPECT_LE(key(tuples[k - 1]), key(tuples[k])) << "position " << k;
  }
  const auto below = [&](size_t b) {
    return static_cast<size_t>(std::count_if(
        tuples.begin(), tuples.end(),
        [&](const Tuple& t) { return membership[t.traj].first < b; }));
  };
  for (size_t p = 0; p < partitions; ++p) {
    const std::span<const Tuple> slice = live_at(p);
    const size_t lo = p + 1 > max_span ? p + 1 - max_span : 0;
    EXPECT_EQ(static_cast<size_t>(slice.data() - tuples.data()), below(lo))
        << "partition " << p;
    EXPECT_EQ(slice.size(), below(p + 1) - below(lo)) << "partition " << p;
  }
}

/// Every tuple of a trajectory in `active` lies inside `slice`, and
/// `run_of(j)` is exactly j's tuples of the whole list, in list order.
template <typename Tuple, typename RunOf>
void ExpectSlicesCover(const std::vector<Tuple>& tuples,
                       std::span<const Tuple> slice,
                       const std::vector<uint32_t>& active,
                       const RunOf& run_of) {
  const auto is_active = [&](const Tuple& t) {
    return std::binary_search(active.begin(), active.end(), t.traj);
  };
  EXPECT_EQ(std::count_if(slice.begin(), slice.end(), is_active),
            std::count_if(tuples.begin(), tuples.end(), is_active));
  for (const uint32_t j : active) {
    std::vector<const Tuple*> want;
    for (const Tuple& t : tuples) {
      if (t.traj == j) want.push_back(&t);
    }
    std::vector<const Tuple*> got;
    for (const Tuple& t : run_of(j)) got.push_back(&t);
    EXPECT_EQ(got, want) << "trajectory " << j;
  }
}

class StiuLayout : public ::testing::TestWithParam<int64_t> {};

TEST_P(StiuLayout, RegionListsArePartitionMajorWithExactLiveWindows) {
  const StiuFixture fx(GetParam());
  const StiuIndex& index = fx.sys->index();
  const auto membership = Membership(index);
  const auto time_of = [&](size_t p) {
    return static_cast<traj::Timestamp>(p) * index.time_partition_s();
  };
  for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
    SCOPED_TRACE("region " + std::to_string(re));
    ExpectPartitionMajor(
        index.RefTuplesIn(re), membership, index.num_partitions(),
        index.max_span(),
        [&](size_t p) { return index.RefTuplesLiveAt(re, time_of(p)); });
    ExpectPartitionMajor(
        index.NrefTuplesIn(re), membership, index.num_partitions(),
        index.max_span(),
        [&](size_t p) { return index.NrefTuplesLiveAt(re, time_of(p)); });
  }
}

TEST_P(StiuLayout, LiveSliceHoldsEveryTupleOfEveryActiveTrajectory) {
  const StiuFixture fx(GetParam());
  const StiuIndex& index = fx.sys->index();
  for (size_t p = 0; p < index.num_partitions(); ++p) {
    const auto t = static_cast<traj::Timestamp>(p) * index.time_partition_s();
    const auto& active = index.TrajectoriesAt(t);
    for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
      SCOPED_TRACE("partition " + std::to_string(p) + " region " +
                   std::to_string(re));
      ExpectSlicesCover(index.RefTuplesIn(re), index.RefTuplesLiveAt(re, t),
                        active,
                        [&](uint32_t j) { return index.RefTuplesOf(re, j); });
      ExpectSlicesCover(index.NrefTuplesIn(re), index.NrefTuplesLiveAt(re, t),
                        active,
                        [&](uint32_t j) { return index.NrefTuplesOf(re, j); });
    }
  }
}

TEST_P(StiuLayout, MaxSpanIsTheWidestMembership) {
  const StiuFixture fx(GetParam());
  const StiuIndex& index = fx.sys->index();
  size_t widest = 0;
  for (const auto& [first, last] : Membership(index)) {
    if (first < index.num_partitions()) {
      widest = std::max(widest, last - first + 1);
    }
  }
  EXPECT_EQ(index.max_span(), widest);
  // The 60 s layout must exercise a multi-bucket window.
  if (GetParam() <= 60) EXPECT_GT(index.max_span(), 1u);
}

TEST_P(StiuLayout, BucketDirectoryMatchesABinarySearchOracle) {
  // The directory bounds every bucket window of every region list exactly
  // where a binary search over the owners' buckets would, on the built
  // index, its reload, an older writer's id-ordered section and crafted
  // sections.
  const StiuFixture fx(GetParam());
  const StiuIndex& built = fx.sys->index();
  const auto load = [&](const std::vector<uint8_t>& bytes) {
    common::ByteReader in(bytes);
    auto index = std::make_unique<StiuIndex>(*fx.grid, in);
    EXPECT_TRUE(in.ok());
    EXPECT_EQ(in.remaining(), 0u);
    return index;
  };
  const test::StiuSection honest = test::StiuSection::Of(built);
  const auto n = static_cast<uint32_t>(built.num_trajectories());
  const size_t partitions = built.num_partitions();

  // Crafted: trajectory 0 in no partition (its tuples sit in the sentinel
  // bucket), the rest listed twice and out of order with phantom ids, and
  // tuples naming trajectories past the index in some regions.
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
    StiuIndex::RefTuple phantom = crafted.refs[re].front();
    phantom.traj = n + 1;
    crafted.refs[re].push_back(phantom);
  }
  // Single bucket: every trajectory listed in partition 0 alone.
  test::StiuSection one_bucket = honest;
  for (auto& l : one_bucket.partitions) l.clear();
  for (uint32_t j = 0; j < n; ++j) one_bucket.partitions[0].push_back(j);

  const std::vector<uint8_t> serialized = [&] {
    common::ByteWriter out;
    built.Serialize(out);
    return out.Release();
  }();
  ASSERT_EQ(honest.Write(), serialized);

  size_t empty_lists = 0;
  size_t single_bucket_lists = 0;
  for (const auto& [name, bytes] :
       {std::pair{"reloaded", serialized},
        std::pair{"id-ordered", honest.Write(test::ListOrder::kIdAscending)},
        std::pair{"crafted", crafted.Write(test::ListOrder::kIdDescending)},
        std::pair{"one bucket", one_bucket.Write()}}) {
    SCOPED_TRACE(name);
    const auto index = load(bytes);
    test::ExpectDirectoryMatchesOracle(*index);
    for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
      const auto& list = index->NrefTuplesIn(re);
      empty_lists += list.empty();
      single_bucket_lists +=
          !list.empty() &&
          index->NrefTuplesInBuckets(re, 0, 1).size() == list.size();
    }
    if (std::string(name) == "crafted") {
      // The sentinel bucket holds trajectory 0 and the phantom owners.
      size_t sentinel = 0;
      for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
        sentinel +=
            index->RefTuplesInBuckets(re, partitions, partitions + 1).size();
        EXPECT_TRUE(index->RefTuplesLiveAt(re, 0).empty() ||
                    index->RefTuplesLiveAt(re, 0).back().traj < n);
      }
      EXPECT_GT(sentinel, 0u);
    }
  }
  test::ExpectDirectoryMatchesOracle(built);
  EXPECT_GT(empty_lists, 0u);
  EXPECT_GT(single_bucket_lists, 0u);
}

INSTANTIATE_TEST_SUITE_P(Partitions, StiuLayout,
                         ::testing::Values(int64_t{14400}, int64_t{900},
                                           int64_t{60}));

TEST(StiuIndex, FinePartitionsOverManyRegionsLoadInLinearTime) {
  // Each partition and each region list costs a crafted section one byte,
  // so a small section can name ~1e5 partitions over a 512x512 grid.
  // Deriving the partition-major layout and the bucket directory must cost
  // O(bytes), not O(regions x partitions) (5e10 steps here), even when
  // every tuple sits in a bucket of its own.
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
      out.PutU32(0);     // rv_id
      out.PutVarint(0);  // rv_no
      out.PutVarint(0);  // ma_pos
    }
  }

  const auto start = std::chrono::steady_clock::now();
  common::ByteReader in(out.bytes());
  const StiuIndex index(grid, in);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(index.num_partitions(), kPartitions);
  EXPECT_EQ(index.max_span(), 1u);
  EXPECT_TRUE(index.RefTuplesLiveAt(0, 50000).empty());
  const auto live = index.NrefTuplesLiveAt(region_of(10000), 50000);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.front().traj, 10000u);
  EXPECT_TRUE(index.NrefTuplesLiveAt(region_of(10000), 50001).empty());
  // One run per tuple at most, plus one offset per region and kind.
  EXPECT_LE(index.directory_size_bytes(),
            kTrajs * 8 + 2 * (grid.num_regions() + 1) * sizeof(uint32_t));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(StiuIndex, RangeScansAFractionOfTheRegionLists) {
  // Range reads only the live partition buckets: across a day of queries
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
