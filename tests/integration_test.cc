#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "ted/ted_compress.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "traj/statistics.h"
#include "test_fixtures.h"

namespace utcq {
namespace {

struct ProfileFixture {
  explicit ProfileFixture(const traj::DatasetProfile& p, size_t trajectories)
      : profile(p) {
    net = test::MakeSmallCity(profile, 18);
    traj::UncertainTrajectoryGenerator gen(net, profile, 2024);
    corpus = gen.GenerateCorpus(trajectories);
  }
  traj::DatasetProfile profile;
  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
};

class EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(EndToEnd, UtcqBeatsTedOnRatioAndTime) {
  const auto profiles = traj::AllProfiles();
  ProfileFixture fx(profiles[static_cast<size_t>(GetParam())], 150);

  // --- UTCQ ---
  core::UtcqParams uparams;
  uparams.default_interval_s = fx.profile.default_interval_s;
  uparams.eta_p = fx.profile.eta_p;
  uparams.num_pivots = fx.profile.name == "DK" ? 2 : 1;
  core::UtcqCompressor ucomp(fx.net, uparams);
  const auto cc = ucomp.Compress(fx.corpus);

  // --- TED baseline ---
  ted::TedParams tparams;
  tparams.eta_p = fx.profile.eta_p;
  ted::TedCompressor tcomp(fx.net, tparams);
  const auto tc = tcomp.Compress(fx.corpus);

  const auto raw = traj::MeasureRawSize(fx.net, fx.corpus);
  const double utcq_cr = static_cast<double>(raw.total()) /
                         static_cast<double>(cc.compressed_bits().total());
  const double ted_cr = static_cast<double>(raw.total()) /
                        static_cast<double>(tc.compressed_bits().total());

  // Table 8 shape: UTCQ compresses at least ~1.8x better than TED.
  EXPECT_GT(utcq_cr, ted_cr * 1.5) << fx.profile.name;
  EXPECT_GT(utcq_cr, 5.0) << fx.profile.name;

  // Component shape: SIAR beats TED's (i,t) pairs; referential T' beats
  // raw bit-strings (TED T' ratio is exactly 1).
  const double utcq_t = static_cast<double>(raw.t_bits) /
                        static_cast<double>(cc.compressed_bits().t_bits);
  const double ted_t = static_cast<double>(raw.t_bits) /
                       static_cast<double>(tc.compressed_bits().t_bits);
  EXPECT_GT(utcq_t, ted_t) << fx.profile.name;
  const double ted_tflag =
      static_cast<double>(raw.tflag_bits) /
      static_cast<double>(tc.compressed_bits().tflag_bits);
  EXPECT_DOUBLE_EQ(ted_tflag, 1.0);
  const double utcq_tflag =
      static_cast<double>(raw.tflag_bits) /
      static_cast<double>(cc.compressed_bits().tflag_bits);
  EXPECT_GT(utcq_tflag, 1.3) << fx.profile.name;

  // Per-stream floors: referential coding lifts E and D above TED's, and
  // both systems code p with the same PDDP codec, so p bits are identical.
  const auto& ub = cc.compressed_bits();
  const auto& tb = tc.compressed_bits();
  EXPECT_LT(ub.e_bits, tb.e_bits) << fx.profile.name;
  EXPECT_LT(ub.d_bits, tb.d_bits) << fx.profile.name;
  EXPECT_EQ(ub.p_bits, tb.p_bits) << fx.profile.name;

  // TED's matrix transformation dominates the memory comparison.
  EXPECT_GT(tc.peak_memory_bytes(), cc.peak_memory_bytes())
      << fx.profile.name;
}

TEST_P(EndToEnd, ReferentialCodingBeatsStandaloneInstances) {
  // The ablation DESIGN.md §5 cites: with every instance coded standalone
  // (UtcqParams::disable_referential) only improved TED + SIAR remain, so
  // E, D and T' lose the reference machinery, and so does the total.
  const auto profiles = traj::AllProfiles();
  ProfileFixture fx(profiles[static_cast<size_t>(GetParam())], 150);
  core::UtcqParams params;
  params.default_interval_s = fx.profile.default_interval_s;
  params.eta_p = fx.profile.eta_p;
  const auto on = core::UtcqCompressor(fx.net, params).Compress(fx.corpus);
  params.disable_referential = true;
  const auto off = core::UtcqCompressor(fx.net, params).Compress(fx.corpus);

  // Same raw size on both sides, so a higher CR is strictly fewer bits.
  const auto& ob = on.compressed_bits();
  const auto& fb = off.compressed_bits();
  EXPECT_LT(ob.total(), fb.total()) << fx.profile.name;
  EXPECT_LT(ob.e_bits, fb.e_bits) << fx.profile.name;
  EXPECT_LT(ob.d_bits, fb.d_bits) << fx.profile.name;
  EXPECT_LT(ob.tflag_bits, fb.tflag_bits) << fx.profile.name;
}

INSTANTIATE_TEST_SUITE_P(Profiles, EndToEnd, ::testing::Values(0, 1, 2));

TEST(EndToEnd, MorePivotsImproveOrHoldCompression) {
  ProfileFixture fx(traj::HangzhouProfile(), 100);
  const auto raw = traj::MeasureRawSize(fx.net, fx.corpus);
  double first_cr = 0.0;
  double last_cr = 0.0;
  for (int pivots = 1; pivots <= 4; ++pivots) {
    core::UtcqParams params;
    params.default_interval_s = fx.profile.default_interval_s;
    params.eta_p = fx.profile.eta_p;
    params.num_pivots = pivots;
    core::UtcqCompressor comp(fx.net, params);
    const auto cc = comp.Compress(fx.corpus);
    const double cr = static_cast<double>(raw.total()) /
                      static_cast<double>(cc.compressed_bits().total());
    if (pivots == 1) first_cr = cr;
    last_cr = cr;
  }
  // Fig. 8 shape: the ratio does not degrade with more pivots.
  EXPECT_GE(last_cr, first_cr * 0.98);
}

TEST(EndToEnd, FullPipelineSmallCorpusFullFidelity) {
  ProfileFixture fx(traj::ChengduProfile(), 60);
  core::UtcqParams params;
  params.default_interval_s = fx.profile.default_interval_s;
  const network::GridIndex grid(fx.net, 16);
  const core::UtcqSystem sys(fx.net, grid, fx.corpus, params, {16, 1800});

  // Round-trip fidelity of the whole pipeline.
  const auto rebuilt = sys.decoder().DecompressAll();
  ASSERT_EQ(rebuilt.size(), fx.corpus.size());
  size_t instances = 0;
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    ASSERT_EQ(rebuilt[j].instances.size(), fx.corpus[j].instances.size());
    for (size_t w = 0; w < fx.corpus[j].instances.size(); ++w) {
      EXPECT_EQ(rebuilt[j].instances[w].path,
                fx.corpus[j].instances[w].path);
      ++instances;
    }
  }
  EXPECT_GT(instances, 100u);

  // The report is self-consistent.
  const auto& report = sys.report();
  EXPECT_GT(report.total, 1.0);
  EXPECT_EQ(report.compressed_bits, sys.compressed().total_bits());
  EXPECT_GT(sys.index_size_bytes(), 0u);
}

TEST(EndToEnd, StatisticsMatchPaperShape) {
  ProfileFixture fx(traj::DenmarkProfile(), 200);
  const auto h = traj::ComputeIntervalHistogram(
      fx.corpus, fx.profile.default_interval_s);
  EXPECT_GT(h.within_one(), 0.85);  // DK: 93% in the paper
  common::Rng rng(8);
  const auto within = traj::ComputeWithinDistances(fx.net, fx.corpus, rng);
  EXPECT_GT(within.at_most_five(), 0.7);  // 88% in the paper
}

TEST(EndToEnd, IndexSizeScalesWithPartitioning) {
  ProfileFixture fx(traj::ChengduProfile(), 80);
  core::UtcqParams params;
  params.default_interval_s = fx.profile.default_interval_s;

  const network::GridIndex g8(fx.net, 8);
  const network::GridIndex g64(fx.net, 64);
  const core::UtcqSystem coarse(fx.net, g8, fx.corpus, params, {8, 3600});
  const core::UtcqSystem fine(fx.net, g64, fx.corpus, params, {64, 600});
  // Finer grids and shorter partitions yield a larger index (Fig. 9).
  EXPECT_GT(fine.index().spatial_size_bytes(),
            coarse.index().spatial_size_bytes());
  EXPECT_GT(fine.index().temporal_size_bytes(),
            coarse.index().temporal_size_bytes());
}

}  // namespace
}  // namespace utcq
