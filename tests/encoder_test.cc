#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/exp_golomb.h"
#include "common/rng.h"
#include "common/varint.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "network/generator.h"
#include "paper_example.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::core {
namespace {

UtcqParams PaperParams() {
  UtcqParams p;
  p.default_interval_s = 240;
  p.eta_d = 1.0 / 128.0;
  p.eta_p = 1.0 / 512.0;
  p.num_pivots = 1;
  return p;
}

TEST(Encoder, PaperExampleRoundTrip) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  UtcqCompressor compressor(ex.net, PaperParams());
  const CompressedCorpus cc = compressor.Compress(corpus);
  ASSERT_EQ(cc.num_trajectories(), 1u);

  UtcqDecoder decoder(ex.net, cc);
  // Times are lossless.
  EXPECT_EQ(decoder.DecodeTimes(0), ex.tu.times);

  const auto rebuilt = decoder.DecompressAll();
  ASSERT_EQ(rebuilt.size(), 1u);
  ASSERT_EQ(rebuilt[0].instances.size(), 3u);
  for (size_t w = 0; w < 3; ++w) {
    const auto& orig = ex.tu.instances[w];
    const auto& got = rebuilt[0].instances[w];
    EXPECT_EQ(got.path, orig.path) << "instance " << w;
    ASSERT_EQ(got.locations.size(), orig.locations.size());
    for (size_t i = 0; i < orig.locations.size(); ++i) {
      EXPECT_EQ(got.locations[i].path_index, orig.locations[i].path_index);
      EXPECT_NEAR(got.locations[i].rd, orig.locations[i].rd,
                  PaperParams().eta_d + 1e-12);
    }
    EXPECT_NEAR(got.probability, orig.probability,
                PaperParams().eta_p + 1e-12);
  }
}

TEST(Encoder, ReferenceSharingShrinksNonReferences) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  UtcqCompressor compressor(ex.net, PaperParams());
  const CompressedCorpus cc = compressor.Compress(corpus);
  const TrajMeta& meta = cc.meta(0);
  // Example 2: Tu^1_1 is the single reference; Tu^1_2, Tu^1_3 in its Rrs.
  ASSERT_EQ(meta.refs.size(), 1u);
  EXPECT_EQ(meta.refs[0].orig_index, 0u);
  ASSERT_EQ(meta.nrefs.size(), 2u);
  // A non-reference costs far fewer bits than the reference's E block.
  const uint64_t nref_bits =
      cc.nref_stream().size_bits();  // both non-references together
  const uint64_t ref_bits = cc.ref_stream().size_bits();
  EXPECT_LT(nref_bits, ref_bits);
}

TEST(Encoder, SingleInstanceTrajectory) {
  auto ex = test::MakePaperExample();
  ex.tu.instances.resize(1);
  ex.tu.instances[0].probability = 1.0;
  const traj::UncertainCorpus corpus{ex.tu};
  UtcqCompressor compressor(ex.net, PaperParams());
  const CompressedCorpus cc = compressor.Compress(corpus);
  UtcqDecoder decoder(ex.net, cc);
  const auto rebuilt = decoder.DecompressAll();
  ASSERT_EQ(rebuilt[0].instances.size(), 1u);
  EXPECT_EQ(rebuilt[0].instances[0].path, ex.tu.instances[0].path);
}

TEST(Encoder, BracketTimePartialDecode) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  UtcqCompressor compressor(ex.net, PaperParams());
  const CompressedCorpus cc = compressor.Compress(corpus);
  UtcqDecoder decoder(ex.net, cc);

  // Header in the T stream: n varint (16 bits) + 17-bit t0.
  common::BitReader r(cc.t_stream().bytes().data(),
                      cc.t_stream().size_bits());
  r.Seek(cc.meta(0).t_pos);
  common::GetVarint(r);
  r.GetBits(17);
  const uint64_t first_delta_pos = r.position();

  // 5:21:25 = 19285 sits between samples 4 (19165) and 5 (19405).
  const auto bracket =
      decoder.BracketTime(0, 19285, 0, ex.tu.times[0], first_delta_pos);
  ASSERT_TRUE(bracket.has_value());
  EXPECT_EQ(bracket->index, 4u);
  EXPECT_EQ(bracket->t0, 19165);
  EXPECT_EQ(bracket->t1, 19405);

  // Exactly at a sample.
  const auto at_sample =
      decoder.BracketTime(0, 18445, 0, ex.tu.times[0], first_delta_pos);
  ASSERT_TRUE(at_sample.has_value());
  EXPECT_LE(at_sample->t0, 18445);
  EXPECT_GE(at_sample->t1, 18445);

  // Outside the span.
  EXPECT_FALSE(decoder.BracketTime(0, 18204, 0, ex.tu.times[0],
                                   first_delta_pos)
                   .has_value());
  EXPECT_FALSE(decoder.BracketTime(0, 99999, 0, ex.tu.times[0],
                                   first_delta_pos)
                   .has_value());
}

class EncoderProfileRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EncoderProfileRoundTrip, LosslessButForQuantization) {
  const auto profiles = traj::AllProfiles();
  const auto& profile = profiles[static_cast<size_t>(GetParam())];
  const auto net = test::MakeSmallCity(profile, 16);
  traj::UncertainTrajectoryGenerator gen(net, profile, 51);
  const auto corpus = gen.GenerateCorpus(60);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.eta_p = profile.eta_p;
  params.num_pivots = profile.name == "DK" ? 2 : 1;
  UtcqCompressor compressor(net, params);
  const CompressedCorpus cc = compressor.Compress(corpus);
  UtcqDecoder decoder(net, cc);
  const auto rebuilt = decoder.DecompressAll();

  ASSERT_EQ(rebuilt.size(), corpus.size());
  for (size_t j = 0; j < corpus.size(); ++j) {
    EXPECT_EQ(rebuilt[j].times, corpus[j].times) << "traj " << j;
    ASSERT_EQ(rebuilt[j].instances.size(), corpus[j].instances.size());
    for (size_t w = 0; w < corpus[j].instances.size(); ++w) {
      const auto& orig = corpus[j].instances[w];
      const auto& got = rebuilt[j].instances[w];
      // Paths and location structure are lossless.
      ASSERT_EQ(got.path, orig.path) << "traj " << j << " inst " << w;
      ASSERT_EQ(got.locations.size(), orig.locations.size());
      for (size_t i = 0; i < orig.locations.size(); ++i) {
        EXPECT_EQ(got.locations[i].path_index, orig.locations[i].path_index);
        // Same-edge monotonicity clamping can add at most one more eta.
        EXPECT_NEAR(got.locations[i].rd, orig.locations[i].rd,
                    2 * params.eta_d + 1e-12);
      }
      EXPECT_NEAR(got.probability, orig.probability, params.eta_p + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, EncoderProfileRoundTrip,
                         ::testing::Values(0, 1, 2));

TEST(Encoder, CompressedSmallerThanRaw) {
  common::Rng net_rng(100);
  const auto profile = traj::ChengduProfile();
  network::CityParams small = profile.city;
  small.rows = 16;
  small.cols = 16;
  const auto net = network::GenerateCity(net_rng, small);
  traj::UncertainTrajectoryGenerator gen(net, profile, 61);
  const auto corpus = gen.GenerateCorpus(120);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  UtcqCompressor compressor(net, params);
  const CompressedCorpus cc = compressor.Compress(corpus);
  const auto raw = traj::MeasureRawSize(net, corpus);
  EXPECT_LT(cc.total_bits(), raw.total() / 4)
      << "expected a compression ratio well above 4";
  // Component accounting matches the stream totals.
  const auto& bits = cc.compressed_bits();
  EXPECT_EQ(bits.total(), cc.total_bits());
}

TEST(Encoder, IncrementalAppendEqualsBatchBitExactly) {
  // The streaming live shard grows its corpus one AppendTrajectory at a
  // time; the whole stream-then-flush == batch guarantee reduces to this:
  // Begin + Append* produces the very bytes Compress does.
  common::Rng net_rng(404);
  const auto profile = traj::ChengduProfile();
  network::CityParams city = profile.city;
  city.rows = 10;
  city.cols = 10;
  const network::RoadNetwork net = network::GenerateCity(net_rng, city);
  traj::UncertainTrajectoryGenerator gen(net, profile, 12);
  const traj::UncertainCorpus corpus = gen.GenerateCorpus(30);

  UtcqParams params = PaperParams();
  params.default_interval_s = profile.default_interval_s;
  const UtcqCompressor compressor(net, params);

  const CompressedCorpus batch = compressor.Compress(corpus);

  CompressedCorpus incr = compressor.Begin();
  for (const traj::UncertainTrajectory& tu : corpus) {
    compressor.AppendTrajectory(tu, &incr);
  }

  EXPECT_EQ(batch.t_stream().size_bits(), incr.t_stream().size_bits());
  EXPECT_EQ(batch.t_stream().bytes(), incr.t_stream().bytes());
  EXPECT_EQ(batch.ref_stream().size_bits(), incr.ref_stream().size_bits());
  EXPECT_EQ(batch.ref_stream().bytes(), incr.ref_stream().bytes());
  EXPECT_EQ(batch.nref_stream().size_bits(), incr.nref_stream().size_bits());
  EXPECT_EQ(batch.nref_stream().bytes(), incr.nref_stream().bytes());
  EXPECT_EQ(batch.structure_stream().size_bits(),
            incr.structure_stream().size_bits());
  EXPECT_EQ(batch.structure_stream().bytes(),
            incr.structure_stream().bytes());
  EXPECT_EQ(batch.num_trajectories(), incr.num_trajectories());
  EXPECT_EQ(batch.compressed_bits().total(), incr.compressed_bits().total());

  // Metas and params included: the serialized archives agree byte for byte.
  EXPECT_EQ(archive::ArchiveWriter(batch).Serialize(),
            archive::ArchiveWriter(incr).Serialize());
}

// Bit position of trajectory j's first T delta (header skipped) — the
// start state of the StIU's first temporal tuple.
uint64_t FirstDeltaPos(const CompressedCorpus& cc, size_t j) {
  common::BitReader r(cc.t_stream().bytes().data(),
                      cc.t_stream().size_bits());
  r.Seek(cc.meta(j).t_pos);
  common::GetVarint(r);
  r.GetBits(17);
  return r.position();
}

TEST(Encoder, BracketBoundariesPinnedAtSamples) {
  // §16 boundary contract, pinned on the paper example's known times: a
  // query exactly at sample k brackets at {k-1, t_{k-1}, t_k} (at
  // {0, t_0, t_1} for k == 0), identically on the bitstream-scan path and
  // the expanded-times path, with or without a sync table.
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  for (const uint32_t sync_k : {0u, 2u}) {
    UtcqParams params = PaperParams();
    params.t_sync_interval = sync_k;
    UtcqCompressor compressor(ex.net, params);
    const CompressedCorpus cc = compressor.Compress(corpus);
    UtcqDecoder decoder(ex.net, cc);
    const auto times = decoder.DecodeTimes(0);
    ASSERT_EQ(times, ex.tu.times);
    const uint64_t first_delta = FirstDeltaPos(cc, 0);
    const uint32_t n = cc.meta(0).n_points;

    for (uint32_t k = 0; k < n; ++k) {
      UtcqDecoder::SeekStats seek;
      const auto via_stream = decoder.BracketTime(0, times[k], 0, times[0],
                                                  first_delta, &seek);
      const auto via_times =
          UtcqDecoder::BracketInTimes(times, n, times[k], 0, times[0]);
      ASSERT_TRUE(via_stream.has_value()) << "K=" << sync_k << " k=" << k;
      ASSERT_TRUE(via_times.has_value());
      const uint32_t expect = k == 0 ? 0 : k - 1;
      EXPECT_EQ(via_stream->index, expect) << "K=" << sync_k << " k=" << k;
      EXPECT_EQ(via_stream->t0, times[expect]);
      EXPECT_EQ(via_stream->t1, times[expect + 1]);
      EXPECT_EQ(via_times->index, via_stream->index);
      EXPECT_EQ(via_times->t0, via_stream->t0);
      EXPECT_EQ(via_times->t1, via_stream->t1);
    }
    // Outside the span on both sides.
    EXPECT_FALSE(decoder.BracketTime(0, times.front() - 1, 0, times[0],
                                     first_delta)
                     .has_value());
    EXPECT_FALSE(decoder.BracketTime(0, times.back() + 1, 0, times[0],
                                     first_delta)
                     .has_value());
    EXPECT_FALSE(UtcqDecoder::BracketInTimes(times, n, times.back() + 1, 0,
                                             times[0])
                     .has_value());
  }
}

TEST(Encoder, SyncSeekBracketsMatchFullScanEverywhere) {
  // K=2 corpus: nearly every bracket start upgrades through the sync
  // table. The seek path must agree with the expanded-times scan for every
  // probe — every sample time (the equality boundary the strict
  // `sync.t < t` comparison protects), every midpoint, and both
  // out-of-span sides — and the sweep must actually take seeks.
  common::Rng net_rng(100);
  const auto profile = traj::ChengduProfile();
  network::CityParams small = profile.city;
  small.rows = 16;
  small.cols = 16;
  const auto net = network::GenerateCity(net_rng, small);
  traj::UncertainTrajectoryGenerator gen(net, profile, 61);
  const auto corpus = gen.GenerateCorpus(40);

  UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  params.t_sync_interval = 2;
  UtcqCompressor compressor(net, params);
  const CompressedCorpus cc = compressor.Compress(corpus);
  UtcqDecoder decoder(net, cc);

  uint64_t seeks = 0;
  for (size_t j = 0; j < cc.num_trajectories(); ++j) {
    const TrajMeta& meta = cc.meta(j);
    const auto times = decoder.DecodeTimes(j);
    ASSERT_EQ(times.size(), meta.n_points);
    std::vector<traj::Timestamp> probes;
    for (size_t i = 0; i < times.size(); ++i) {
      probes.push_back(times[i]);
      if (i + 1 < times.size() && times[i + 1] > times[i] + 1) {
        probes.push_back(times[i] + (times[i + 1] - times[i]) / 2);
      }
    }
    probes.push_back(times.front() - 1);
    probes.push_back(times.back() + 1);

    const uint64_t first_delta = FirstDeltaPos(cc, j);
    for (const traj::Timestamp t : probes) {
      UtcqDecoder::SeekStats seek;
      const auto via_seek =
          decoder.BracketTime(j, t, 0, times.front(), first_delta, &seek);
      const auto via_scan =
          UtcqDecoder::BracketInTimes(times, meta.n_points, t, 0,
                                      times.front());
      seeks += seek.sync_seeks;
      ASSERT_EQ(via_seek.has_value(), via_scan.has_value())
          << "traj " << j << " t=" << t;
      if (via_seek.has_value()) {
        EXPECT_EQ(via_seek->index, via_scan->index)
            << "traj " << j << " t=" << t;
        EXPECT_EQ(via_seek->t0, via_scan->t0);
        EXPECT_EQ(via_seek->t1, via_scan->t1);
      }
    }
  }
  EXPECT_GT(seeks, 0u) << "the sweep never took the seek upgrade";
}

TEST(Encoder, SyncTablesMatchStreamPositions) {
  // Each recorded sync must restate exactly what a scan from the block
  // start knows when it has expanded `entry` entries: the accumulated
  // timestamp and the reader's bit position. K on/off must not change the
  // stream bytes (syncs live in the metas only).
  common::Rng net_rng(404);
  const auto profile = traj::ChengduProfile();
  network::CityParams city = profile.city;
  city.rows = 10;
  city.cols = 10;
  const auto net = network::GenerateCity(net_rng, city);
  traj::UncertainTrajectoryGenerator gen(net, profile, 12);
  const auto corpus = gen.GenerateCorpus(30);

  UtcqParams params = PaperParams();
  params.default_interval_s = profile.default_interval_s;
  params.t_sync_interval = 4;
  UtcqCompressor with_syncs(net, params);
  const CompressedCorpus cc = with_syncs.Compress(corpus);
  params.t_sync_interval = 0;
  UtcqCompressor without(net, params);
  const CompressedCorpus plain = without.Compress(corpus);

  EXPECT_EQ(cc.t_stream().bytes(), plain.t_stream().bytes());
  EXPECT_EQ(cc.t_stream().size_bits(), plain.t_stream().size_bits());

  UtcqDecoder decoder(net, cc);
  size_t total_syncs = 0;
  for (size_t j = 0; j < cc.num_trajectories(); ++j) {
    const TrajMeta& meta = cc.meta(j);
    EXPECT_TRUE(plain.meta(j).t_syncs.empty());
    const auto times = decoder.DecodeTimes(j);
    common::BitReader r(cc.t_stream().bytes().data(),
                        cc.t_stream().size_bits());
    r.Seek(meta.t_pos);
    common::GetVarint(r);
    r.GetBits(17);
    uint32_t entry = 0;
    size_t next_sync = 0;
    while (entry + 1 < meta.n_points && next_sync < meta.t_syncs.size()) {
      common::GetImprovedExpGolomb(r);
      ++entry;
      const TSync& s = meta.t_syncs[next_sync];
      if (s.entry != entry) continue;
      EXPECT_EQ(s.t, times[entry]) << "traj " << j << " entry " << entry;
      EXPECT_EQ(s.bit, r.position()) << "traj " << j << " entry " << entry;
      EXPECT_EQ(entry % 4, 0u);
      EXPECT_LT(entry + 1, meta.n_points);
      ++next_sync;
      ++total_syncs;
    }
    EXPECT_EQ(next_sync, meta.t_syncs.size()) << "traj " << j;
  }
  EXPECT_GT(total_syncs, 0u);
}

TEST(Encoder, MorePivotsNeverCrash) {
  const auto ex = test::MakePaperExample();
  const traj::UncertainCorpus corpus{ex.tu};
  for (int pivots = 1; pivots <= 5; ++pivots) {
    UtcqParams params = PaperParams();
    params.num_pivots = pivots;
    UtcqCompressor compressor(ex.net, params);
    const CompressedCorpus cc = compressor.Compress(corpus);
    UtcqDecoder decoder(ex.net, cc);
    EXPECT_EQ(decoder.DecompressAll()[0].instances[0].path,
              ex.tu.instances[0].path);
  }
}

}  // namespace
}  // namespace utcq::core
