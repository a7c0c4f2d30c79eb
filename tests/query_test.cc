#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/plain_query.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "paper_example.h"
#include "stiu_sections.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::core {
namespace {

struct Fixture {
  network::RoadNetwork net;
  network::GridIndex grid{net, 1};
  traj::UncertainCorpus corpus;
};

UtcqParams PaperParams() {
  UtcqParams p;
  p.default_interval_s = 240;
  return p;
}

TEST(ClassifySubpath, DegenerateInstancesAreDisjoint) {
  // Regression: with an empty edge loop, all_inside used to survive as true
  // and a subpath touching no edge classified kInside — over-counting
  // overlap probability in Range. Degenerate instances only reach this code
  // via crafted archives, which must not inflate query results.
  const auto ex = test::MakePaperExample();
  const auto bbox = ex.net.bounding_box();
  const network::Rect everywhere{bbox.min_x, bbox.min_y, bbox.max_x,
                                 bbox.max_y};

  traj::TrajectoryInstance no_path;
  no_path.locations.push_back({0, 0.0});
  EXPECT_EQ(ClassifySubpath(ex.net, no_path, 0, everywhere),
            SubpathRelation::kDisjoint);

  traj::TrajectoryInstance past_path;
  past_path.path = {ex.corridor[0]};
  past_path.locations.push_back({5, 0.0});  // path_index beyond the path
  EXPECT_EQ(ClassifySubpath(ex.net, past_path, 0, everywhere),
            SubpathRelation::kDisjoint);

  traj::TrajectoryInstance backwards;  // non-monotone location ordering
  backwards.path = ex.corridor;
  backwards.locations.push_back({3, 0.0});
  backwards.locations.push_back({1, 0.0});
  EXPECT_EQ(ClassifySubpath(ex.net, backwards, 0, everywhere),
            SubpathRelation::kDisjoint);

  // Sanity: a real subpath inside the all-covering rect still classifies
  // kInside.
  const auto& inst = ex.tu.instances[0];
  EXPECT_EQ(ClassifySubpath(ex.net, inst, 0, everywhere),
            SubpathRelation::kInside);
}

TEST(UtcqQuery, PaperExample3WhereQuery) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // where(Tu^1, 5:21:25, 0.25): only Tu^1_1 (p = 0.75) qualifies; the
  // object sits between l4 (rd .5 on (v6->v7)) and l5 (rd 0 on (v7->v8)).
  const auto hits = sys.queries().Where(0, 19285, 0.25);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].instance, 0u);
  const auto& inst = ex.tu.instances[0];
  EXPECT_TRUE(hits[0].position.edge == inst.path[5] ||
              hits[0].position.edge == inst.path[6]);

  // At the very first sample the position is l0 exactly.
  const auto at_start = sys.queries().Where(0, ex.tu.times[0], 0.25);
  ASSERT_EQ(at_start.size(), 1u);
  EXPECT_EQ(at_start[0].position.edge, inst.path[0]);
  EXPECT_NEAR(at_start[0].position.ndist,
              0.875 * ex.net.edge(inst.path[0]).length, 2.0);
}

TEST(UtcqQuery, WhenQueryFindsSampleTimes) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // All three instances pass l0's position at t0.
  const auto hits = sys.queries().When(0, ex.corridor[0], 0.875, 0.0);
  EXPECT_EQ(hits.size(), 3u);
  for (const auto& h : hits) EXPECT_EQ(h.t, ex.tu.times[0]);

  // Lemma 1: with alpha above every non-reference probability, only the
  // reference is evaluated.
  QueryStats stats;
  const auto only_ref =
      sys.queries().When(0, ex.corridor[0], 0.875, 0.5, &stats);
  ASSERT_EQ(only_ref.size(), 1u);
  EXPECT_EQ(only_ref[0].instance, 0u);
  EXPECT_GT(stats.pruned_lemma1, 0u);
}

TEST(UtcqQuery, WhenQueryOnDetourEdgeSeesOnlyDetourInstance) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // l1' lies on (v2 -> v10), traversed only by Tu^1_2 (p = 0.2).
  const auto hits = sys.queries().When(0, ex.e_v2_v10, 0.25, 0.1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].instance, 1u);
  EXPECT_EQ(hits[0].t, ex.tu.times[1]);

  // alpha above p(Tu^1_2) filters it.
  EXPECT_TRUE(sys.queries().When(0, ex.e_v2_v10, 0.25, 0.3).empty());
}

TEST(UtcqQuery, RangeQueryPaperExample4Shape) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  const network::GridIndex grid(ex.net, 8);
  const UtcqSystem sys(ex.net, grid, corpus, PaperParams(), {8, 900});

  // A box over the corridor start at 5:05:25 captures every instance.
  const network::Rect re{100, -100, 450, 200};
  const auto result = sys.queries().Range(re, 18325, 0.5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 0u);

  // A disjoint box returns nothing (Lemma 2/4 prune).
  QueryStats stats;
  EXPECT_TRUE(
      sys.queries().Range({5000, 5000, 6000, 6000}, 18325, 0.5, &stats)
          .empty());
}

// ------------------------- randomized agreement with the plain evaluator

class QueryAgreement : public ::testing::TestWithParam<int> {};

TEST_P(QueryAgreement, CompressedEnginesMatchGroundTruth) {
  const auto profiles = traj::AllProfiles();
  const auto& profile = profiles[static_cast<size_t>(GetParam())];
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 333);
  const auto corpus = gen.GenerateCorpus(80);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1200});
  const PlainQueryEngine plain(net, corpus);

  common::Rng rng(17);
  // Probabilities within eta_p of alpha can legitimately flip between the
  // engines; exclude those borderline instances from the comparison.
  const double eta_p = params.eta_p;

  int where_checked = 0;
  int when_checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const double alpha = rng.Uniform(0.0, 0.6);

    // ---- where ----
    const traj::Timestamp t =
        tu.times.front() +
        rng.UniformInt(0, std::max<int64_t>(tu.times.back() - tu.times.front(), 1));
    const auto got = sys.queries().Where(j, t, alpha);
    const auto want = plain.Where(j, t, alpha);
    std::set<uint32_t> got_ids, want_ids;
    bool borderline = false;
    for (const auto& tu_inst : tu.instances) {
      if (std::abs(tu_inst.probability - alpha) <= eta_p) borderline = true;
    }
    if (!borderline) {
      for (const auto& h : got) got_ids.insert(h.instance);
      for (const auto& h : want) want_ids.insert(h.instance);
      EXPECT_EQ(got_ids, want_ids) << "where traj " << j << " t " << t;
      // Positions agree to within the D quantization scaled by edge length.
      for (const auto& g : got) {
        for (const auto& w : want) {
          if (g.instance != w.instance) continue;
          const double tol =
              4.0 * params.eta_d *
                  std::max(net.edge(g.position.edge).length,
                           net.edge(w.position.edge).length) +
              1.0;
          if (g.position.edge == w.position.edge) {
            EXPECT_NEAR(g.position.ndist, w.position.ndist, tol);
          }
          ++where_checked;
        }
      }
    }

    // ---- when ----
    const auto& inst =
        tu.instances[static_cast<size_t>(rng.UniformInt(0, tu.instances.size() - 1))];
    const auto& loc =
        inst.locations[static_cast<size_t>(rng.UniformInt(0, inst.locations.size() - 1))];
    const network::EdgeId edge = inst.path[loc.path_index];
    if (!borderline) {
      const auto got_when = sys.queries().When(j, edge, loc.rd, alpha);
      const auto want_when = plain.When(j, edge, loc.rd, alpha);
      // Compressed rd grids differ slightly; compare hit counts loosely and
      // matched timestamps tightly.
      std::multiset<uint32_t> got_w, want_w;
      for (const auto& h : got_when) got_w.insert(h.instance);
      for (const auto& h : want_when) want_w.insert(h.instance);
      // Every plain hit instance should be found by the compressed engine.
      for (const auto id : want_w) {
        EXPECT_TRUE(got_w.count(id) > 0)
            << "when traj " << j << " edge " << edge << " rd " << loc.rd;
      }
      ++when_checked;
    }
  }
  EXPECT_GT(where_checked, 10);
  EXPECT_GT(when_checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Profiles, QueryAgreement, ::testing::Values(0, 1, 2));

TEST(RangeAgreement, CompressedMatchesPlain) {
  const auto profile = traj::ChengduProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 444);
  const auto corpus = gen.GenerateCorpus(80);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1200});
  const PlainQueryEngine plain(net, corpus);

  common::Rng rng(23);
  const auto bbox = net.bounding_box();
  int agreements = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1));
    const auto& tu = corpus[j];
    const traj::Timestamp tq =
        tu.times.front() +
        rng.UniformInt(0, std::max<int64_t>(tu.times.back() - tu.times.front(), 1));
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(100.0, 600.0);
    const network::Rect re{cx - half, cy - half, cx + half, cy + half};
    const double alpha = rng.Uniform(0.05, 0.8);

    const auto got = sys.queries().Range(re, tq, alpha);
    const auto want = plain.Range(re, tq, alpha);

    // Quantized probabilities can flip trajectories whose overlap mass sits
    // within a few eta_p of alpha; tolerate only those.
    std::set<uint32_t> got_s(got.begin(), got.end());
    std::set<uint32_t> want_s(want.begin(), want.end());
    std::vector<uint32_t> diff;
    std::set_symmetric_difference(got_s.begin(), got_s.end(), want_s.begin(),
                                  want_s.end(), std::back_inserter(diff));
    for (const uint32_t d : diff) {
      double mass = 0.0;
      for (const auto& inst : corpus[d].instances) {
        const auto pos =
            traj::PositionAtTime(net, inst, corpus[d].times, tq);
        if (!pos.has_value()) continue;
        const auto xy = net.PointOnEdge(pos->edge, pos->ndist);
        if (re.Contains(xy.x, xy.y)) mass += inst.probability;
      }
      // Allow flips near the threshold (quantization) or near the box
      // boundary (position quantization moves a point across the border).
      EXPECT_LE(std::abs(mass - alpha),
                corpus[d].instances.size() * params.eta_p + 0.12)
          << "trajectory " << d << " trial " << trial;
    }
    if (diff.empty()) ++agreements;
  }
  // The engines agree in the overwhelming majority of trials.
  EXPECT_GE(agreements, 85);
}

TEST(QueryStatsAccounting, LemmasActuallyFire) {
  const auto profile = traj::HangzhouProfile();
  const auto net = test::MakeSmallCity(profile, 14);
  traj::UncertainTrajectoryGenerator gen(net, profile, 555);
  const auto corpus = gen.GenerateCorpus(60);
  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  const network::GridIndex grid(net, 16);
  const UtcqSystem sys(net, grid, corpus, params, {16, 1800});

  QueryStats stats;
  common::Rng rng(3);
  const auto bbox = net.bounding_box();
  for (int trial = 0; trial < 60; ++trial) {
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const network::Rect re{cx - 250, cy - 250, cx + 250, cy + 250};
    sys.queries().Range(re, rng.UniformInt(0, traj::kSecondsPerDay - 1), 0.6,
                        &stats);
  }
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GT(stats.pruned_lemma4 + stats.pruned_lemma2 + stats.accepted_lemma3,
            0u);
}

/// Brute-force Range: candidates from the whole region lists, a sorted and
/// deduplicated copy of TrajectoriesAt(tq) and sort + unique over packed
/// member keys, then the Lemma 2-4 walk exactly as the processor runs it
/// (members in key order, chunks of 8, inline decodes), so every QueryStats
/// field is comparable. tuples_scanned counts the tuples of the live bucket
/// window, with buckets read back through TrajectoriesAt.
traj::RangeResult ReferenceRange(const network::RoadNetwork& net,
                                 const StiuIndex& index,
                                 const UtcqDecoder& decoder,
                                 const network::Rect& region,
                                 traj::Timestamp tq, double alpha,
                                 QueryStats* stats) {
  const CorpusView& cc = decoder.view();
  const size_t n = index.num_trajectories();
  std::vector<uint32_t> active = index.TrajectoriesAt(tq);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  std::erase_if(active, [n](uint32_t j) { return j >= n; });
  const auto is_active = [&](uint32_t j) {
    return std::binary_search(active.begin(), active.end(), j);
  };
  const auto first = test::FirstPartitions(index);
  const size_t p = traj::DayPartition(tq, index.time_partition_s(),
                                      index.num_partitions());
  const auto live = [&](uint32_t j) {
    const size_t b = j < n ? first[j] : index.num_partitions();
    return b <= p && b + index.max_span() > p;
  };

  std::vector<uint64_t> members;
  for (const network::RegionId re : index.grid().RegionsInRect(region)) {
    for (const auto& rt : index.RefTuplesIn(re)) {
      stats->tuples_scanned += live(rt.traj);
      if (rt.ref_passes && is_active(rt.traj)) {
        members.push_back((uint64_t{rt.traj} << 33) | (1ull << 32) |
                          rt.ref_idx);
      }
    }
    for (const auto& nt : index.NrefTuplesIn(re)) {
      stats->tuples_scanned += live(nt.traj);
      if (is_active(nt.traj)) {
        members.push_back((uint64_t{nt.traj} << 33) | nt.nref_idx);
      }
    }
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  traj::RangeResult result;
  for (size_t lo = 0; lo < members.size();) {
    const auto j = static_cast<uint32_t>(members[lo] >> 33);
    const TrajMeta& meta = cc.meta(j);
    const auto p_of = [&](uint64_t key) {
      const auto idx = static_cast<uint32_t>(key & 0xFFFFFFFFu);
      return (key >> 32) & 1 ? meta.refs[idx].p_quantized
                             : meta.nrefs[idx].p_quantized;
    };
    size_t hi = lo;
    double p_sum = 0.0;
    for (; hi < members.size() && (members[hi] >> 33) == j; ++hi) {
      p_sum += p_of(members[hi]);
    }
    const size_t begin = lo;
    lo = hi;
    ++stats->candidates;
    if (tq < meta.t_first || tq > meta.t_last) continue;
    if (p_sum < alpha) {
      ++stats->pruned_lemma4;
      continue;
    }
    const auto& tuple = index.TemporalTupleFor(j, tq);
    UtcqDecoder::SeekStats seek;
    const auto bracket = decoder.BracketTime(j, tq, tuple.t_no, tuple.t_start,
                                             tuple.t_pos, &seek);
    stats->stream_bits_read += seek.bits_read;
    stats->sync_seeks += seek.sync_seeks;
    if (!bracket.has_value()) continue;

    std::map<uint32_t, DecodedInstance> refs;
    const auto ref_of = [&](uint32_t r) -> const DecodedInstance& {
      const auto [it, fresh] = refs.try_emplace(r);
      if (fresh) {
        ++stats->instances_decoded;
        stats->stream_bits_read += decoder.DecodeReferenceInto(j, r, &it->second);
      }
      return it->second;
    };
    double overlap_p = 0.0;
    bool accepted = false;
    for (size_t cb = begin; cb < hi && !accepted; cb += 8) {
      const size_t ce = std::min(cb + 8, hi);
      std::vector<std::optional<traj::TrajectoryInstance>> insts;
      insts.reserve(8);  // `partial` points into it
      std::vector<SubpathRelation> rels;
      std::vector<const traj::TrajectoryInstance*> partial;
      for (size_t k = cb; k < ce; ++k) {
        const auto idx = static_cast<uint32_t>(members[k] & 0xFFFFFFFFu);
        if ((members[k] >> 32) & 1) {
          insts.push_back(decoder.ToInstance(ref_of(idx)));
        } else {
          const DecodedInstance& ref = ref_of(meta.nrefs[idx].ref_pos);
          DecodedInstance d;
          ++stats->instances_decoded;
          stats->stream_bits_read +=
              decoder.DecodeNonReferenceInto(j, idx, ref, &d);
          insts.push_back(decoder.ToInstance(d));
        }
        rels.push_back(insts.back().has_value()
                           ? ClassifySubpath(net, *insts.back(),
                                             bracket->index, region)
                           : SubpathRelation::kDisjoint);
        if (!insts.back().has_value()) continue;
        if (rels.back() == SubpathRelation::kPartial) {
          partial.push_back(&*insts.back());
        } else {
          ++stats->pruned_lemma2;
        }
      }
      const auto positions = traj::PositionsInBracket(
          net, partial, bracket->index, bracket->t0, bracket->t1, tq);
      size_t v = 0;
      for (size_t c = 0; c < insts.size(); ++c) {
        if (!insts[c].has_value()) continue;
        bool inside = rels[c] == SubpathRelation::kInside;
        if (rels[c] == SubpathRelation::kPartial) {
          const auto xy =
              net.PointOnEdge(positions[v].edge, positions[v].ndist);
          ++v;
          inside = region.Contains(xy.x, xy.y);
        }
        if (inside) overlap_p += p_of(members[cb + c]);
        if (overlap_p >= alpha) {
          ++stats->accepted_lemma3;
          accepted = true;
          break;
        }
      }
    }
    if (accepted) result.push_back(j);
  }
  return result;
}

void ExpectSameStats(const QueryStats& got, const QueryStats& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.pruned_lemma1, want.pruned_lemma1);
  EXPECT_EQ(got.pruned_lemma2, want.pruned_lemma2);
  EXPECT_EQ(got.pruned_lemma4, want.pruned_lemma4);
  EXPECT_EQ(got.accepted_lemma3, want.accepted_lemma3);
  EXPECT_EQ(got.instances_decoded, want.instances_decoded);
  EXPECT_EQ(got.stream_bits_read, want.stream_bits_read);
  EXPECT_EQ(got.sync_seeks, want.sync_seeks);
  EXPECT_EQ(got.tuples_scanned, want.tuples_scanned);
}

TEST(RangeCandidates, MatchABruteForceReferenceStatForStat) {
  // Range's candidate generation (bucket directory, active bitmap,
  // sort-free dedupe) against the brute-force reference, on built indexes
  // and on sections whose partition lists repeat ids, list them out of
  // order and name ids past the corpus.
  const uint64_t base = test::BaseSeed(8080);
  for (uint64_t seed = base; seed < base + 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto profile = seed % 2 == 0 ? traj::HangzhouProfile()
                                       : traj::ChengduProfile();
    const auto net = test::MakeSmallCity(profile, 14);
    const auto corpus = test::MakeSmallCorpus(net, profile, seed, 80);
    UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    params.eta_p = profile.eta_p;
    const network::GridIndex grid(net, 16);
    for (const int64_t partition_s : {int64_t{1800}, int64_t{60}}) {
      SCOPED_TRACE("partition " + std::to_string(partition_s));
      const UtcqSystem sys(net, grid, corpus, params,
                           StiuParams{16, partition_s});
      test::StiuSection crafted = test::StiuSection::Of(sys.index());
      const auto n = static_cast<uint32_t>(corpus.size());
      for (auto& l : crafted.partitions) {
        const auto once = l;
        l.insert(l.end(), once.begin(), once.end());
        l.push_back(n);
        l.push_back(n + 40);
        std::sort(l.rbegin(), l.rend());
      }
      const auto bytes = crafted.Write();
      common::ByteReader in(bytes);
      const StiuIndex crafted_index(grid, in);
      ASSERT_TRUE(in.ok());
      const UtcqQueryProcessor crafted_queries(net, sys.compressed(),
                                               crafted_index);

      common::Rng rng(seed * 31 + static_cast<uint64_t>(partition_s));
      const auto bbox = net.bounding_box();
      size_t hits = 0;
      for (int trial = 0; trial < 40; ++trial) {
        const auto& tu =
            corpus[static_cast<size_t>(rng.UniformInt(0, corpus.size() - 1))];
        const traj::Timestamp tq =
            trial < 5 ? std::array<traj::Timestamp, 5>{
                            -1, 0, partition_s, 86399, 90000}[trial]
                      : tu.times.front() +
                            rng.UniformInt(0, tu.times.back() -
                                                  tu.times.front());
        const double half = trial % 4 == 0 ? 1e9 : rng.Uniform(150.0, 900.0);
        const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
        const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
        const network::Rect re{cx - half, cy - half, cx + half, cy + half};
        const double alpha = rng.Uniform(0.05, 0.9);
        for (const auto& [index, queries] :
             {std::pair{&sys.index(), &sys.queries()},
              std::pair{&crafted_index, &crafted_queries}}) {
          SCOPED_TRACE("trial " + std::to_string(trial) +
                       (index == &crafted_index ? " crafted" : " built"));
          QueryStats want_stats;
          const auto want = ReferenceRange(net, *index, queries->decoder(), re,
                                           tq, alpha, &want_stats);
          QueryStats got_stats;
          EXPECT_EQ(queries->Range(re, tq, alpha, &got_stats), want);
          ExpectSameStats(got_stats, want_stats);
          hits += want.size();
        }
      }
      EXPECT_GT(hits, 0u);
    }
  }
}

}  // namespace
}  // namespace utcq::core
