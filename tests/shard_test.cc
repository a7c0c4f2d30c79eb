#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "shard/sharded.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "test_fixtures.h"

namespace utcq::shard {
namespace {

/// A corpus plus its *unsharded* compressed system — the ground truth every
/// sharded result is compared against.
struct ShardFixture {
  ShardFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 4242);
    corpus = gen.GenerateCorpus(60);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  /// Compress with `opts`, save, reopen. Registers every written file for
  /// cleanup in `files`.
  ShardedCorpus BuildAndReopen(const ShardOptions& opts,
                               const std::string& name,
                               std::vector<std::string>* files) {
    const ShardedCompressor compressor(net, *grid, params,
                                       core::StiuParams{16, 900}, opts);
    const ShardedBuild build = compressor.Compress(corpus);
    EXPECT_EQ(build.total_bits(), sys->compressed().total_bits())
        << "per-trajectory compression must be shard-invariant";
    const std::string manifest = TempPath(name);
    std::string error;
    EXPECT_TRUE(build.Save(manifest, &error)) << error;
    files->push_back(manifest);
    for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
      files->push_back(ShardArchivePath(manifest, s));
    }
    ShardedCorpus sharded;
    EXPECT_TRUE(sharded.Open(net, manifest, &error)) << error;
    return sharded;
  }

  static void Cleanup(const std::vector<std::string>& files) {
    for (const std::string& f : files) std::remove(f.c_str());
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  core::UtcqParams params;
  std::unique_ptr<core::UtcqSystem> sys;
};

void ExpectPlanPartitions(const ShardPlan& plan, size_t corpus_size) {
  std::set<uint32_t> seen;
  for (const auto& members : plan.members) {
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) EXPECT_LT(members[i - 1], members[i]);
      EXPECT_TRUE(seen.insert(members[i]).second);
      EXPECT_LT(members[i], corpus_size);
    }
  }
  EXPECT_EQ(seen.size(), corpus_size);
}

TEST(ShardPlan, BothPoliciesPartitionTheCorpus) {
  ShardFixture fx;
  for (const ShardPolicy policy :
       {ShardPolicy::kHash, ShardPolicy::kTimePartition}) {
    ShardOptions opts;
    opts.num_shards = 4;
    opts.policy = policy;
    const ShardPlan plan = MakeShardPlan(fx.corpus, opts);
    EXPECT_EQ(plan.num_shards(), 4u);
    ExpectPlanPartitions(plan, fx.corpus.size());
  }
}

TEST(ShardPlan, HashSpreadsSequentialIds) {
  ShardFixture fx;
  ShardOptions opts;
  opts.num_shards = 4;
  const ShardPlan plan = MakeShardPlan(fx.corpus, opts);
  // Sequential ids must not pile into one shard: every shard gets something.
  for (const auto& members : plan.members) EXPECT_FALSE(members.empty());
}

TEST(Sharded, RoundTripQueriesMatchUnsharded) {
  ShardFixture fx;
  std::vector<std::string> files;
  ShardOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  const ShardedCorpus sharded = fx.BuildAndReopen(opts, "set_hash.utcq",
                                                  &files);
  ASSERT_TRUE(sharded.is_open());
  EXPECT_EQ(sharded.num_shards(), 4u);
  ASSERT_EQ(sharded.num_trajectories(), fx.corpus.size());

  // Where: every trajectory, mid-trip, all instances (alpha 0) — routed
  // point lookups must reproduce the unsharded hits bit for bit.
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& times = fx.corpus[j].times;
    const traj::Timestamp t = (times.front() + times.back()) / 2;
    const auto expected = fx.sys->queries().Where(j, t, 0.0);
    const auto actual = sharded.Where(j, t, 0.0);
    ASSERT_EQ(actual.size(), expected.size()) << "trajectory " << j;
    for (size_t h = 0; h < actual.size(); ++h) {
      EXPECT_EQ(actual[h].instance, expected[h].instance);
      EXPECT_EQ(actual[h].probability, expected[h].probability);
      EXPECT_EQ(actual[h].position.edge, expected[h].position.edge);
      EXPECT_EQ(actual[h].position.ndist, expected[h].position.ndist);
    }
  }

  // When: ask at the position the first Where hit of each trajectory gave.
  for (size_t j = 0; j < std::min<size_t>(fx.corpus.size(), 20); ++j) {
    const auto& times = fx.corpus[j].times;
    const auto hits =
        fx.sys->queries().Where(j, (times.front() + times.back()) / 2, 0.0);
    if (hits.empty()) continue;
    const auto& pos = hits.front().position;
    const double rd = pos.ndist / fx.net.edge(pos.edge).length;
    const auto expected = fx.sys->queries().When(j, pos.edge, rd, 0.0);
    const auto actual = sharded.When(j, pos.edge, rd, 0.0);
    ASSERT_EQ(actual.size(), expected.size()) << "trajectory " << j;
    for (size_t h = 0; h < actual.size(); ++h) {
      EXPECT_EQ(actual[h].instance, expected[h].instance);
      EXPECT_EQ(actual[h].probability, expected[h].probability);
      EXPECT_EQ(actual[h].t, expected[h].t);
    }
  }

  // Range: random regions and times; the parallel fan-out merge must equal
  // the unsharded result exactly (both ascending by global index).
  common::Rng rng(7);
  const auto bbox = fx.net.bounding_box();
  for (int q = 0; q < 30; ++q) {
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const double half = rng.Uniform(200.0, 900.0);
    const network::Rect re{cx - half, cy - half, cx + half, cy + half};
    const auto tq = rng.UniformInt(0, traj::kSecondsPerDay - 1);
    for (const double alpha : {0.0, 0.3, 0.7}) {
      EXPECT_EQ(sharded.Range(re, tq, alpha),
                fx.sys->queries().Range(re, tq, alpha))
          << "query " << q << " alpha " << alpha;
    }
  }

  ShardFixture::Cleanup(files);
}

TEST(Sharded, TimePartitionPolicyMatchesUnsharded) {
  ShardFixture fx;
  std::vector<std::string> files;
  ShardOptions opts;
  opts.num_shards = 3;
  opts.num_threads = 2;
  opts.policy = ShardPolicy::kTimePartition;
  opts.time_window_s = 3600;
  const ShardedCorpus sharded = fx.BuildAndReopen(opts, "set_time.utcq",
                                                  &files);
  ASSERT_TRUE(sharded.is_open());
  ASSERT_EQ(sharded.num_trajectories(), fx.corpus.size());
  EXPECT_EQ(sharded.manifest().time_partition_s, 3600);

  for (size_t j = 0; j < fx.corpus.size(); j += 5) {
    const auto& times = fx.corpus[j].times;
    const traj::Timestamp t = (times.front() + times.back()) / 2;
    const auto expected = fx.sys->queries().Where(j, t, 0.0);
    const auto actual = sharded.Where(j, t, 0.0);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t h = 0; h < actual.size(); ++h) {
      EXPECT_EQ(actual[h].position.ndist, expected[h].position.ndist);
    }
  }
  common::Rng rng(11);
  const auto bbox = fx.net.bounding_box();
  for (int q = 0; q < 15; ++q) {
    const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
    const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
    const network::Rect re{cx - 500, cy - 500, cx + 500, cy + 500};
    const auto tq = rng.UniformInt(0, traj::kSecondsPerDay - 1);
    EXPECT_EQ(sharded.Range(re, tq, 0.3),
              fx.sys->queries().Range(re, tq, 0.3));
  }

  ShardFixture::Cleanup(files);
}

TEST(Sharded, SingleShardDegenerateCaseWorks) {
  ShardFixture fx;
  std::vector<std::string> files;
  ShardOptions opts;
  opts.num_shards = 1;
  const ShardedCorpus sharded = fx.BuildAndReopen(opts, "set_one.utcq",
                                                  &files);
  ASSERT_TRUE(sharded.is_open());
  EXPECT_EQ(sharded.num_shards(), 1u);
  const auto& times = fx.corpus[0].times;
  const traj::Timestamp t = (times.front() + times.back()) / 2;
  EXPECT_EQ(sharded.Where(0, t, 0.0).size(),
            fx.sys->queries().Where(0, t, 0.0).size());
  ShardFixture::Cleanup(files);
}

// ------------------------------------------------------------- manifest

TEST(ShardManifest, EncodeDecodeRoundTrip) {
  archive::ShardManifest manifest;
  manifest.policy = static_cast<uint8_t>(ShardPolicy::kTimePartition);
  manifest.time_partition_s = 1800;
  manifest.shards.resize(3);
  manifest.shards[0] = {"set.shard-000", {0, 3, 6, 1000000}};
  manifest.shards[1] = {"set.shard-001", {1, 4, 7}};
  manifest.shards[2] = {"set.shard-002", {2, 5, 8}};

  const auto bytes = archive::EncodeShardManifest(manifest);
  archive::ShardManifest decoded;
  std::string error;
  ASSERT_TRUE(archive::DecodeShardManifest(bytes.data(), bytes.size(),
                                           &decoded, &error))
      << error;
  EXPECT_EQ(decoded.policy, manifest.policy);
  EXPECT_EQ(decoded.time_partition_s, manifest.time_partition_s);
  ASSERT_EQ(decoded.shards.size(), manifest.shards.size());
  for (size_t s = 0; s < decoded.shards.size(); ++s) {
    EXPECT_EQ(decoded.shards[s].file, manifest.shards[s].file);
    EXPECT_EQ(decoded.shards[s].members, manifest.shards[s].members);
  }
  EXPECT_EQ(decoded.num_trajectories(), 10u);
}

TEST(ShardManifest, RejectsCorruptionAndTruncation) {
  archive::ShardManifest manifest;
  manifest.shards.push_back({"set.shard-000", {0, 1, 2}});
  auto bytes = archive::EncodeShardManifest(manifest);

  archive::ShardManifest decoded;
  std::string error;
  // Bit rot fails the CRC.
  auto corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(archive::DecodeShardManifest(corrupt.data(), corrupt.size(),
                                            &decoded, &error));
  // Truncation fails the CRC (or the header length check).
  EXPECT_FALSE(archive::DecodeShardManifest(bytes.data(), bytes.size() - 5,
                                            &decoded, &error));
  EXPECT_FALSE(archive::DecodeShardManifest(bytes.data(), 6, &decoded,
                                            &error));
}

TEST(ShardManifest, RejectsEscapingFilenames) {
  std::string error;
  archive::ShardManifest decoded;
  for (const std::string name :
       {"../evil", "/etc/passwd", "a/../../b", "sub\\..\\up", ""}) {
    archive::ShardManifest manifest;
    manifest.shards.push_back({name, {0}});
    const auto bytes = archive::EncodeShardManifest(manifest);
    EXPECT_FALSE(archive::DecodeShardManifest(bytes.data(), bytes.size(),
                                              &decoded, &error))
        << "filename '" << name << "' must be rejected";
  }
  // Plain subdirectory-relative names are fine.
  archive::ShardManifest ok;
  ok.shards.push_back({"sub/dir/set.shard-000", {0}});
  const auto bytes = archive::EncodeShardManifest(ok);
  EXPECT_TRUE(
      archive::DecodeShardManifest(bytes.data(), bytes.size(), &decoded,
                                   &error))
      << error;
}

TEST(ShardManifest, RejectsNonAscendingMembers) {
  archive::ShardManifest decoded;
  std::string error;
  // A duplicate encodes as delta 0; a decreasing pair encodes as a
  // near-2^64 delta whose sum wraps — both must be rejected, not smuggled
  // past the ascending check by modular arithmetic.
  for (const std::vector<uint32_t> members :
       {std::vector<uint32_t>{5, 5}, std::vector<uint32_t>{5, 4}}) {
    archive::ShardManifest manifest;
    manifest.shards.push_back({"set.shard-000", members});
    const auto bytes = archive::EncodeShardManifest(manifest);
    EXPECT_FALSE(archive::DecodeShardManifest(bytes.data(), bytes.size(),
                                              &decoded, &error))
        << "members {" << members[0] << ", " << members[1] << "}";
  }
}

TEST(ShardManifest, RejectsDuplicateShardFiles) {
  // Two entries naming one archive can satisfy every count and partition
  // check while routing half the global space into the wrong shard's data.
  archive::ShardManifest manifest;
  manifest.shards.push_back({"set.shard-000", {0, 1}});
  manifest.shards.push_back({"set.shard-000", {2, 3}});
  const auto bytes = archive::EncodeShardManifest(manifest);
  archive::ShardManifest decoded;
  std::string error;
  EXPECT_FALSE(archive::DecodeShardManifest(bytes.data(), bytes.size(),
                                            &decoded, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
}

TEST(Sharded, CompressByReferenceMatchesCopiedSubCorpora) {
  // Shards are compressed straight from the caller's corpus. The result
  // must equal compressing a copied sub-corpus per shard, down to the
  // archive bytes, and the unsharded total.
  ShardFixture fx;
  ShardOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  const core::StiuParams index_params{16, 900};
  const ShardedCompressor compressor(fx.net, *fx.grid, fx.params, index_params,
                                     opts);
  const ShardedBuild build = compressor.Compress(fx.corpus);
  EXPECT_EQ(build.total_bits(), fx.sys->compressed().total_bits());
  for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
    traj::UncertainCorpus sub;
    for (const uint32_t j : build.plan.members[s]) sub.push_back(fx.corpus[j]);
    const core::UtcqCompressor one(fx.net, fx.params);
    const core::CompressedCorpus cc = one.Compress(sub);
    const core::StiuIndex index(*fx.grid, sub, cc, index_params);
    EXPECT_EQ(archive::ArchiveWriter(build.shards[s]->corpus,
                                     build.shards[s]->index.get())
                  .Serialize(),
              archive::ArchiveWriter(cc, &index).Serialize())
        << "shard " << s;
  }
}

TEST(Sharded, CompressedBytesArePinned) {
  // Golden digests of every shard image of a fixed corpus, once per pivot
  // count. The compressor's planning kernels (pivot factorization, the FJD
  // score matrix, Algorithm 1) may be rewritten for speed only if these
  // stay put: any change to a chosen pivot, a score cell or a reference
  // changes the archive bytes. Algorithm 1 pops a std::priority_queue whose
  // equal-score tie order is libstdc++'s heap algorithm, so the digests
  // hold for that standard library; another one may legitimately pick
  // different (equally scored) references and fail this test.
  const auto profile = traj::HangzhouProfile();
  const network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  const traj::UncertainCorpus corpus =
      test::MakeSmallCorpus(net, profile, 2026, 120);
  const network::GridIndex grid(net, 16);
  ShardOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  struct Golden {
    int num_pivots;
    size_t size[4];
    uint32_t crc[4];
  };
  // Recorded with the v6 images (no tag 6 or 9; K in tag 12); sections
  // 1-5 and 11 are byte-identical to the v5 images these digests
  // replaced.
  const Golden goldens[] = {
      {1,
       {3532, 3312, 5581, 4549},
       {3250338702u, 1124746240u, 3705199810u, 1203084960u}},
      {2,
       {3520, 3316, 5573, 4544},
       {4156797178u, 3810397520u, 2635808811u, 437308356u}},
  };
  for (const Golden& golden : goldens) {
    core::UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    params.num_pivots = golden.num_pivots;
    const ShardedCompressor compressor(net, grid, params,
                                       core::StiuParams{16, 900}, opts);
    const ShardedBuild build = compressor.Compress(corpus);
    ASSERT_EQ(build.plan.num_shards(), 4u);
    for (uint32_t s = 0; s < 4; ++s) {
      const std::vector<uint8_t> bytes =
          archive::ArchiveWriter(build.shards[s]->corpus,
                                 build.shards[s]->index.get())
              .Serialize();
      // An image ends in the CRC-32 of everything before it, so a CRC over
      // the whole image is a constant residue: digest the body.
      EXPECT_EQ(bytes.size(), golden.size[s])
          << "num_pivots " << golden.num_pivots << " shard " << s;
      EXPECT_EQ(common::Crc32(bytes.data(), bytes.size() - 4), golden.crc[s])
          << "num_pivots " << golden.num_pivots << " shard " << s;
    }
  }
}

TEST(Sharded, SavedFilesEqualEachShardsSerialize) {
  ShardFixture fx;
  ShardOptions opts;
  opts.num_shards = 5;
  const ShardedCompressor compressor(fx.net, *fx.grid, fx.params,
                                     core::StiuParams{16, 900}, opts);
  const ShardedBuild build = compressor.Compress(fx.corpus);
  const std::string manifest = fx.TempPath("set_files.utcq");
  std::string error;
  ASSERT_TRUE(build.Save(manifest, &error)) << error;
  std::vector<std::string> files = {manifest};
  for (uint32_t s = 0; s < build.plan.num_shards(); ++s) {
    files.push_back(ShardArchivePath(manifest, s));
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(archive::ReadFileBytes(files.back(), &bytes, &error)) << error;
    EXPECT_EQ(bytes, archive::ArchiveWriter(build.shards[s]->corpus,
                                            build.shards[s]->index.get())
                         .Serialize())
        << "shard " << s;
  }
  ShardFixture::Cleanup(files);
}

TEST(Sharded, FailedSaveReportsTheFirstBadShardAndPublishesNoManifest) {
  ShardFixture fx;
  ShardOptions opts;
  opts.num_shards = 4;
  const core::StiuParams index_params{16, 900};
  const ShardedBuild old_set =
      ShardedCompressor(fx.net, *fx.grid, fx.params, index_params, opts)
          .Compress(fx.corpus);
  opts.policy = ShardPolicy::kTimePartition;
  const ShardedBuild new_set =
      ShardedCompressor(fx.net, *fx.grid, fx.params, index_params, opts)
          .Compress(fx.corpus);
  const std::string manifest = fx.TempPath("set_fail.utcq");
  std::string error;
  ASSERT_TRUE(old_set.Save(manifest, &error)) << error;
  std::vector<uint8_t> published;
  ASSERT_TRUE(archive::ReadFileBytes(manifest, &published, &error));

  // A directory where shards 1 and 3 must go: their renames fail, every
  // other shard is written.
  for (const uint32_t s : {1u, 3u}) {
    const std::string path = ShardArchivePath(manifest, s);
    std::remove(path.c_str());
    ASSERT_TRUE(std::filesystem::create_directory(path));
  }
  EXPECT_FALSE(new_set.Save(manifest, &error));
  EXPECT_EQ(error, "cannot rename " + ShardArchivePath(manifest, 1) +
                       ".tmp to " + ShardArchivePath(manifest, 1));

  // The old manifest is still the published one, byte for byte, and no
  // temp file is left behind.
  std::vector<uint8_t> after;
  ASSERT_TRUE(archive::ReadFileBytes(manifest, &after, &error));
  EXPECT_EQ(after, published);
  EXPECT_FALSE(std::filesystem::exists(manifest + ".tmp"));
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string tmp = ShardArchivePath(manifest, s) + ".tmp";
    EXPECT_FALSE(std::filesystem::exists(tmp)) << tmp;
  }

  std::filesystem::remove(ShardArchivePath(manifest, 1));
  std::filesystem::remove(ShardArchivePath(manifest, 3));
  std::vector<std::string> files = {manifest};
  for (uint32_t s = 0; s < 4; ++s) {
    files.push_back(ShardArchivePath(manifest, s));
  }
  ShardFixture::Cleanup(files);
}

TEST(Sharded, OpenReportsTheFirstBadShardInShardOrder) {
  ShardFixture fx;
  ShardOptions opts;
  opts.num_shards = 4;
  const ShardedBuild build =
      ShardedCompressor(fx.net, *fx.grid, fx.params, core::StiuParams{16, 900},
                        opts)
          .Compress(fx.corpus);
  const std::string manifest = fx.TempPath("set_open.utcq");
  std::string error;
  ASSERT_TRUE(build.Save(manifest, &error)) << error;
  std::vector<std::string> files = {manifest};
  for (uint32_t s = 0; s < 4; ++s) {
    files.push_back(ShardArchivePath(manifest, s));
  }

  const auto rewrite = [&](uint32_t s, const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(archive::SaveBytesAtomic(bytes, files[s + 1], &error)) << error;
  };
  const auto image = [&](uint32_t s, const core::StiuIndex* index) {
    return archive::ArchiveWriter(build.shards[s]->corpus, index).Serialize();
  };
  const auto bad_magic = [&](uint32_t s) {
    std::vector<uint8_t> bytes = image(s, build.shards[s]->index.get());
    bytes[0] ^= 0xFF;
    return bytes;
  };
  const auto bad_crc = [&](uint32_t s) {
    std::vector<uint8_t> bytes = image(s, build.shards[s]->index.get());
    bytes[bytes.size() / 2] ^= 0x01;
    return bytes;
  };
  // The texts a one-shard-at-a-time open reports for the lower shard.
  const std::string kBadMagic = "bad magic: not a UTCQ archive";
  const std::string kBadCrc = "checksum mismatch: archive corrupt or truncated";

  ShardedCorpus sharded;
  rewrite(1, bad_magic(1));
  rewrite(3, bad_crc(3));
  EXPECT_FALSE(sharded.Open(fx.net, manifest, &error));
  EXPECT_EQ(error, kBadMagic);

  rewrite(1, bad_crc(1));
  rewrite(3, bad_magic(3));
  EXPECT_FALSE(sharded.Open(fx.net, manifest, &error));
  EXPECT_EQ(error, kBadCrc);

  // Valid archives without an index fail the cross-shard checks, which
  // name the shard.
  rewrite(1, image(1, nullptr));
  rewrite(3, image(3, nullptr));
  EXPECT_FALSE(sharded.Open(fx.net, manifest, &error));
  EXPECT_EQ(error, "shard set_open.utcq.shard-001 carries no StIU index");
  EXPECT_FALSE(sharded.is_open());

  rewrite(1, image(1, build.shards[1]->index.get()));
  rewrite(3, image(3, build.shards[3]->index.get()));
  EXPECT_TRUE(sharded.Open(fx.net, manifest, &error)) << error;

  // A shard whose streams do not walk fails the open, which names the
  // shard and the trajectory.
  archive::ArchivePayload cut;
  const std::vector<uint8_t> good = image(2, build.shards[2]->index.get());
  ASSERT_TRUE(archive::DecodeArchive(good.data(), good.size(), &cut, &error))
      << error;
  cut.t.size_bits -= 3;
  rewrite(2, archive::EncodeArchive(cut));
  EXPECT_FALSE(sharded.Open(fx.net, manifest, &error));
  EXPECT_EQ(error, "shard set_open.utcq.shard-002: trajectory " +
                       std::to_string(build.plan.members[2].size() - 1) +
                       ": T block runs past the end of the T stream");

  // A shard whose derived trajectory count is not its manifest's: shard
  // 3's archive under shard 2's name.
  ASSERT_NE(build.plan.members[2].size(), build.plan.members[3].size());
  rewrite(2, image(3, build.shards[3]->index.get()));
  EXPECT_FALSE(sharded.Open(fx.net, manifest, &error));
  EXPECT_EQ(error, "shard set_open.utcq.shard-002: derived " +
                       std::to_string(build.plan.members[3].size()) +
                       " trajectories where the manifest lists " +
                       std::to_string(build.plan.members[2].size()));
  ShardFixture::Cleanup(files);
}

TEST(Sharded, OpenRejectsOverlappingMemberLists) {
  // Structurally valid manifest whose member lists do not partition the
  // global space (same index in two shards): Open must refuse to route.
  ShardFixture fx;
  std::vector<std::string> files;
  ShardOptions opts;
  opts.num_shards = 2;
  const ShardedCompressor compressor(fx.net, *fx.grid, fx.params,
                                     core::StiuParams{16, 900}, opts);
  const ShardedBuild build = compressor.Compress(fx.corpus);
  const std::string manifest_path = fx.TempPath("set_bad.utcq");
  std::string error;
  ASSERT_TRUE(build.Save(manifest_path, &error)) << error;
  files.push_back(manifest_path);
  files.push_back(ShardArchivePath(manifest_path, 0));
  files.push_back(ShardArchivePath(manifest_path, 1));

  // Rewrite the manifest with both shards claiming indices 0..count-1: each
  // list is strictly ascending and sized to match its shard archive, so
  // only the routing check (every global claimed exactly once) can catch
  // the overlap.
  archive::ShardManifest tampered;
  tampered.policy = static_cast<uint8_t>(build.plan.policy);
  tampered.shards.resize(2);
  for (uint32_t s = 0; s < 2; ++s) {
    tampered.shards[s].file = s == 0 ? "set_bad.utcq.shard-000"
                                     : "set_bad.utcq.shard-001";
    for (uint32_t i = 0; i < build.plan.members[s].size(); ++i) {
      tampered.shards[s].members.push_back(i);
    }
  }
  ASSERT_TRUE(archive::SaveBytesAtomic(
      archive::EncodeShardManifest(tampered), manifest_path, &error))
      << error;

  ShardedCorpus sharded;
  EXPECT_FALSE(sharded.Open(fx.net, manifest_path, &error));
  EXPECT_FALSE(sharded.is_open());
  ShardFixture::Cleanup(files);
}

}  // namespace
}  // namespace utcq::shard
