#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/utcq.h"
#include "network/generator.h"
#include "traj/generator.h"
#include "traj/profiles.h"
#include "answer_checks.h"
#include "stiu_sections.h"
#include "test_fixtures.h"
#include "verify/oracle.h"

namespace utcq::archive {
namespace {

/// A small compressed corpus + StIU index, the write side of every test.
struct ArchiveFixture {
  explicit ArchiveFixture(bool disable_referential = false) {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 14);
    traj::UncertainTrajectoryGenerator gen(net, profile, 7070);
    corpus = gen.GenerateCorpus(50);
    grid = std::make_unique<network::GridIndex>(net, 16);
    core::UtcqParams params;
    params.default_interval_s = profile.default_interval_s;
    params.disable_referential = disable_referential;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
  }

  std::string TempPath(const std::string& name) const {
    return ::testing::TempDir() + "/" + name;
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  std::unique_ptr<core::UtcqSystem> sys;
};

TEST(Archive, SaveLoadResaveIsBitExact) {
  ArchiveFixture fx;
  const ArchiveWriter writer(fx.sys->compressed(), &fx.sys->index());
  const std::vector<uint8_t> first = writer.Serialize();
  // One allocation at the exact image size, StIU section included.
  EXPECT_EQ(first.capacity(), first.size());

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(first, &error)) << error;

  // Re-encoding the loaded payload must reproduce the input byte for byte:
  // the container has exactly one serialization of any corpus.
  const std::vector<uint8_t> second = EncodeArchive(reader.payload());
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(Archive, FileRoundTripPreservesEveryStreamAndMeta) {
  // Both encoder modes: referential (the default) and every instance
  // standalone, whose flag the archive params must carry back.
  for (const bool disable_referential : {false, true}) {
    SCOPED_TRACE(disable_referential ? "referential off" : "referential on");
    ArchiveFixture fx(disable_referential);
    const std::string path = fx.TempPath("roundtrip.utcq");
    std::string error;
    ASSERT_TRUE(ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
                    .Save(path, &error))
        << error;

    ArchiveReader reader;
    ASSERT_TRUE(reader.Open(path, &error)) << error;
    std::remove(path.c_str());

    const core::CompressedCorpus& cc = fx.sys->compressed();
    const ArchivePayload& payload = reader.payload();
    EXPECT_EQ(payload.entry_bits, cc.entry_bits());
    EXPECT_EQ(payload.params.default_interval_s,
              cc.params().default_interval_s);
    EXPECT_EQ(payload.params.disable_referential, disable_referential);
    EXPECT_EQ(payload.t.size_bits, cc.t_stream().size_bits());
    EXPECT_EQ(payload.t.bytes, cc.t_stream().bytes());
    EXPECT_EQ(payload.ref.bytes, cc.ref_stream().bytes());
    EXPECT_EQ(payload.nref.bytes, cc.nref_stream().bytes());
    EXPECT_EQ(payload.structure.bytes, cc.structure_stream().bytes());
    // The metas are derived from the streams, field for field the
    // compressor's.
    ASSERT_EQ(reader.metas().size(), cc.num_trajectories());
    for (size_t j = 0; j < cc.num_trajectories(); ++j) {
      EXPECT_EQ(reader.metas()[j], cc.meta(j)) << "trajectory " << j;
      if (disable_referential) EXPECT_TRUE(reader.metas()[j].nrefs.empty());
    }
  }
}

TEST(Archive, LoadedCorpusDecodesIdenticallyToLiveCorpus) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));

  const core::UtcqDecoder live(fx.net, fx.sys->compressed());
  const core::UtcqDecoder loaded(fx.net, reader.view());
  const auto live_corpus = live.DecompressAll();
  const auto loaded_corpus = loaded.DecompressAll();
  ASSERT_EQ(live_corpus.size(), loaded_corpus.size());
  for (size_t j = 0; j < live_corpus.size(); ++j) {
    EXPECT_EQ(live_corpus[j].times, loaded_corpus[j].times);
    ASSERT_EQ(live_corpus[j].instances.size(),
              loaded_corpus[j].instances.size());
    for (size_t w = 0; w < live_corpus[j].instances.size(); ++w) {
      EXPECT_EQ(live_corpus[j].instances[w].path,
                loaded_corpus[j].instances[w].path);
      EXPECT_EQ(live_corpus[j].instances[w].probability,
                loaded_corpus[j].instances[w].probability);
    }
  }
}

TEST(Archive, LoadedQueriesMatchLiveQueries) {
  ArchiveFixture fx;
  const std::string path = fx.TempPath("queries.utcq");
  ASSERT_TRUE(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Save(path));

  // A fresh process: only the network (shared, corpus-independent state)
  // and the file. The live system's memory is not consulted.
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  std::remove(path.c_str());
  ASSERT_TRUE(reader.has_index());
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto index = reader.LoadIndex(grid, &error);
  ASSERT_NE(index, nullptr) << error;
  const core::UtcqQueryProcessor loaded(fx.net, reader.view(), *index);

  const core::UtcqQueryProcessor& live = fx.sys->queries();
  size_t where_hits = 0;
  size_t when_hits = 0;
  for (size_t j = 0; j < fx.corpus.size(); j += 5) {
    const auto& tu = fx.corpus[j];
    const auto t_mid = (tu.times.front() + tu.times.back()) / 2;
    for (const double alpha : {0.0, 0.2, 0.5}) {
      const auto a = live.Where(j, t_mid, alpha);
      const auto b = loaded.Where(j, t_mid, alpha);
      ASSERT_EQ(a.size(), b.size()) << "traj " << j << " alpha " << alpha;
      where_hits += a.size();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].instance, b[k].instance);
        EXPECT_EQ(a[k].probability, b[k].probability);
        EXPECT_EQ(a[k].position.edge, b[k].position.edge);
        EXPECT_EQ(a[k].position.ndist, b[k].position.ndist);
      }
    }
    // when() against the first location of the first instance's path.
    const auto& inst = tu.instances.front();
    const auto edge = inst.path[inst.locations.front().path_index];
    const double rd = inst.locations.front().rd;
    const auto a = live.When(j, edge, rd, 0.1);
    const auto b = loaded.When(j, edge, rd, 0.1);
    ASSERT_EQ(a.size(), b.size()) << "traj " << j;
    when_hits += a.size();
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].instance, b[k].instance);
      EXPECT_EQ(a[k].t, b[k].t);
    }
  }
  EXPECT_GT(where_hits, 0u);
  EXPECT_GT(when_hits, 0u);

  // range() over a window around the first trajectory's start.
  const auto& inst0 = fx.corpus[0].instances.front();
  const auto& e0 = fx.net.edge(inst0.path.front());
  const auto& v0 = fx.net.vertex(e0.from);
  const network::Rect re{v0.x - 800, v0.y - 800, v0.x + 800, v0.y + 800};
  const auto tq = fx.corpus[0].times.front();
  for (const double alpha : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(live.Range(re, tq, alpha), loaded.Range(re, tq, alpha))
        << "alpha " << alpha;
  }
}

TEST(Archive, ReloadedStiuTuplesMatch) {
  // The index derived on open is the compress-time index, array for array,
  // whether the opening walk derives it or LoadIndex walks again.
  ArchiveFixture fx;
  const std::vector<uint8_t> image =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(image));
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  std::string error;
  const auto index = reader.LoadIndex(grid, &error);
  ASSERT_NE(index, nullptr) << error;
  test::ExpectSameIndex(*index, fx.sys->index());

  ArchivePayload payload;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &payload, &error));
  ArchiveReader fused;
  std::unique_ptr<core::StiuIndex> derived;
  ASSERT_TRUE(fused.OpenPayload(std::move(payload), &grid, &derived,
                                fx.corpus.size(), &error))
      << error;
  ASSERT_NE(derived, nullptr);
  test::ExpectSameIndex(*derived, fx.sys->index());
  EXPECT_EQ(fused.metas(), reader.metas());
}

/// The section tags of a container image, in file order.
std::vector<uint64_t> SectionTags(const std::vector<uint8_t>& image) {
  common::ByteReader in(image.data(), image.size() - 4);
  in.Skip(sizeof(kMagic) + 4);
  std::vector<uint64_t> tags(in.GetVarint());
  for (uint64_t& tag : tags) {
    tag = in.GetVarint();
    in.Skip(in.GetVarint());
  }
  EXPECT_TRUE(in.ok());
  return tags;
}

TEST(Archive, V6ImagesStoreOnlyTheStreamsAndParameters) {
  // A v6 image holds the params, the four streams, the StIU parameters
  // (tag 11) and K (tag 12): no metas, no sync tables. LoadIndex needs the
  // StIU section and a grid of the archived resolution, and derives the
  // same index every time it is called.
  ArchiveFixture fx;
  const std::vector<uint8_t> image =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  EXPECT_EQ(image[8], 6u);
  EXPECT_EQ(SectionTags(image),
            (std::vector<uint64_t>{1, 2, 3, 4, 5, 11, 12}));
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(image));
  EXPECT_EQ(reader.payload().stiu_tag, SectionTag::kStiuParams);
  EXPECT_EQ(reader.payload().stiu, (std::vector<uint8_t>{16, 0x88, 0x0E}));
  EXPECT_EQ(reader.index_cells_per_side(), 16u);
  EXPECT_EQ(reader.payload().stiu_params.time_partition_s, 900);
  EXPECT_EQ(reader.params().t_sync_interval, 32u);
  EXPECT_TRUE(reader.payload().legacy_metas.empty());
  EXPECT_TRUE(reader.payload().legacy_syncs.empty());

  std::string error;
  const network::GridIndex grid(fx.net, 16);
  const auto first = reader.LoadIndex(grid, &error);
  const auto second = reader.LoadIndex(grid, &error);
  ASSERT_NE(first, nullptr) << error;
  ASSERT_NE(second, nullptr) << error;
  EXPECT_TRUE(*first == *second);

  const network::GridIndex coarse(fx.net, 8);
  EXPECT_EQ(reader.LoadIndex(coarse, &error), nullptr);
  EXPECT_NE(error.find("grid resolution"), std::string::npos) << error;

  ArchiveReader bare;
  const std::vector<uint8_t> no_index =
      ArchiveWriter(fx.sys->compressed()).Serialize();
  EXPECT_EQ(no_index[8], 6u);
  EXPECT_EQ(SectionTags(no_index), (std::vector<uint64_t>{1, 2, 3, 4, 5, 12}));
  ASSERT_TRUE(bare.OpenBytes(no_index));
  EXPECT_FALSE(bare.has_index());
  EXPECT_EQ(bare.index_cells_per_side(), 0u);
  EXPECT_EQ(bare.LoadIndex(grid, &error), nullptr);
  EXPECT_NE(error.find("no StIU section"), std::string::npos) << error;
}

TEST(Archive, OpenRejectsInstancesThatDoNotReconstruct) {
  // The walk that derives the index reconstructs every instance over the
  // grid's network: against a smaller network the archived vertex ids do
  // not exist, and the open fails naming the trajectory. Without a grid
  // nothing is reconstructed and the same image opens.
  ArchiveFixture fx;
  const std::vector<uint8_t> image =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  const network::RoadNetwork small =
      test::MakeSmallCity(traj::ChengduProfile(), 4);
  const network::GridIndex small_grid(small, 16);
  std::string error;
  ArchivePayload payload;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &payload, &error));
  ArchiveReader reader;
  std::unique_ptr<core::StiuIndex> index;
  EXPECT_FALSE(reader.OpenPayload(payload, &small_grid, &index, std::nullopt,
                                  &error));
  EXPECT_FALSE(reader.is_open());
  EXPECT_EQ(index, nullptr);
  EXPECT_NE(error.find("does not reconstruct"), std::string::npos) << error;
  EXPECT_EQ(error.rfind("trajectory ", 0), 0u) << error;

  ASSERT_TRUE(reader.OpenBytes(image, &error)) << error;
  EXPECT_EQ(reader.LoadIndex(small_grid, &error), nullptr);
  EXPECT_NE(error.find("does not reconstruct"), std::string::npos) << error;

  // The count a manifest lists must be the derived one.
  const network::GridIndex grid(fx.net, 16);
  EXPECT_FALSE(reader.OpenPayload(payload, &grid, &index,
                                  fx.corpus.size() + 1, &error));
  EXPECT_NE(error.find("manifest lists"), std::string::npos) << error;
  EXPECT_TRUE(reader.OpenPayload(payload, &grid, &index, fx.corpus.size(),
                                 &error))
      << error;
}

TEST(Archive, ArchiveWithoutIndexStillDecodes) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed()).Serialize()));
  EXPECT_FALSE(reader.has_index());
  std::string error;
  EXPECT_EQ(reader.LoadIndex(*fx.grid, &error), nullptr);
  const core::UtcqDecoder decoder(fx.net, reader.view());
  EXPECT_EQ(decoder.DecodeTimes(0), fx.corpus[0].times);
}

TEST(Archive, RejectsTruncationBadMagicAndBitRot) {
  ArchiveFixture fx;
  const std::vector<uint8_t> good =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ArchiveReader reader;
  std::string error;

  // Truncated: checksum of the shortened image cannot match.
  std::vector<uint8_t> truncated(good.begin(), good.end() - 10);
  EXPECT_FALSE(reader.OpenBytes(truncated, &error));
  EXPECT_FALSE(reader.is_open());

  // Empty / shorter than any header.
  EXPECT_FALSE(reader.OpenBytes({}, &error));
  EXPECT_FALSE(reader.OpenBytes({'U', 'T'}, &error));

  // Bad magic.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(reader.OpenBytes(bad_magic, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  // One flipped payload byte: caught by the checksum.
  std::vector<uint8_t> bit_rot = good;
  bit_rot[good.size() / 2] ^= 0x04;
  EXPECT_FALSE(reader.OpenBytes(bit_rot, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos);

  // Future format version (byte 8 is the version's little-endian low byte);
  // the footer is re-stamped so the version check, not the checksum, fires.
  std::vector<uint8_t> future = good;
  future[8] = 99;
  const uint32_t crc = common::Crc32(future.data(), future.size() - 4);
  for (int i = 0; i < 4; ++i) {
    future[future.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  EXPECT_FALSE(reader.OpenBytes(future, &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // A version-1 image still opens: v2 only appended the shard-manifest
  // tag; the payload shapes of tags 1-7 are unchanged (§6 append-only
  // rule), so pre-shard archives remain readable.
  std::vector<uint8_t> v1 = good;
  v1[8] = 1;
  const uint32_t v1_crc = common::Crc32(v1.data(), v1.size() - 4);
  for (int i = 0; i < 4; ++i) {
    v1[v1.size() - 4 + i] = static_cast<uint8_t>(v1_crc >> (8 * i));
  }
  EXPECT_TRUE(reader.OpenBytes(v1, &error)) << error;
  EXPECT_TRUE(reader.is_open());

  // The pristine image still opens after all those copies.
  EXPECT_TRUE(reader.OpenBytes(good, &error)) << error;
  EXPECT_TRUE(reader.is_open());
}

TEST(Archive, RejectsStreamsThatDoNotWalk) {
  // The walk that derives the metas checks the streams against each other:
  // every block must decode inside its stream, and every stream must end
  // exactly where its last block does. Each mutation below is CRC-valid.
  ArchiveFixture fx;
  ArchivePayload base;
  std::string error;
  const std::vector<uint8_t> image =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &base, &error));
  const size_t last = fx.corpus.size() - 1;
  const auto grow = [](ArchivePayload::Stream* s, uint64_t bits) {
    s->size_bits += bits;
    s->bytes.resize((s->size_bits + 7) / 8, 0);
  };
  const auto shrink = [](ArchivePayload::Stream* s, uint64_t bits) {
    s->size_bits -= bits;
    s->bytes.resize((s->size_bits + 7) / 8);
  };
  const auto expect_rejected = [&](const ArchivePayload& payload,
                                   const std::string& why) {
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_FALSE(hostile.is_open());
    EXPECT_NE(error.find(why), std::string::npos) << error;
  };
  {
    SCOPED_TRACE("T header claims more deltas than the stream holds");
    ArchivePayload p = base;
    std::fill_n(p.t.bytes.begin(), 10, uint8_t{0xFF});
    expect_rejected(p, "trajectory 0: T block runs past the end");
  }
  {
    SCOPED_TRACE("T stream cut inside the last block");
    ArchivePayload p = base;
    shrink(&p.t, 3);
    expect_rejected(p, "trajectory " + std::to_string(last) +
                           ": T block runs past the end");
  }
  {
    SCOPED_TRACE("trailing T bits");
    ArchivePayload p = base;
    grow(&p.t, 5);
    expect_rejected(p, "trajectory " + std::to_string(last + 1) +
                           ": T stream holds bits past the last structure "
                           "record");
  }
  {
    SCOPED_TRACE("structure stream cut");
    ArchivePayload p = base;
    shrink(&p.structure, 1);
    expect_rejected(p, "trajectory " + std::to_string(last) +
                           ": structure record runs past the end");
  }
  {
    SCOPED_TRACE("ref blocks past the structure stream's instance counts");
    ArchivePayload p = base;
    grow(&p.ref, 9);
    expect_rejected(p, "ref stream holds 9 bits past the blocks of its " +
                           std::to_string(fx.corpus.size()) +
                           " trajectories");
  }
  {
    SCOPED_TRACE("trailing nref bits");
    ArchivePayload p = base;
    grow(&p.nref, 1);
    expect_rejected(p, "nref stream holds 1 bits past the blocks");
  }
  {
    SCOPED_TRACE("ref decoder overflow");
    ArchivePayload p = base;
    shrink(&p.ref, 2);
    expect_rejected(p, "trajectory " + std::to_string(last) +
                           ": reference");
    EXPECT_NE(error.find("overflows the ref stream"), std::string::npos)
        << error;
  }
  {
    SCOPED_TRACE("nref decoder overflow");
    size_t with_nref = last;
    while (fx.sys->compressed().meta(with_nref).nrefs.empty()) --with_nref;
    ArchivePayload p = base;
    shrink(&p.nref, p.nref.size_bits -
                        fx.sys->compressed().meta(with_nref).nrefs[0].offset -
                        3);
    expect_rejected(p, "trajectory " + std::to_string(with_nref) +
                           ": non-reference 0 overflows the nref stream");
  }
  // The unmutated payload re-encodes and opens: the rejections above came
  // from the mutations, not the harness.
  ArchiveReader ok;
  EXPECT_TRUE(ok.OpenBytes(EncodeArchive(base), &error)) << error;
}

/// Query rectangles around a few trajectories' starts plus the whole map.
std::vector<network::Rect> RangeRects(const ArchiveFixture& fx) {
  const auto bbox = fx.net.bounding_box();
  std::vector<network::Rect> rects{
      {bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y}};
  for (size_t j = 0; j < fx.corpus.size(); j += 10) {
    const auto& inst = fx.corpus[j].instances.front();
    const auto& v = fx.net.vertex(fx.net.edge(inst.path.front()).from);
    rects.push_back({v.x - 600, v.y - 600, v.x + 600, v.y + 600});
  }
  return rects;
}

/// `loaded` answers every Where / When / Range of the fixture's query mix
/// hit for hit like the live processor, and like a full scan of the
/// decompressed corpus (Where/When in any order, Range up to alpha ties at
/// summation noise).
void ExpectSameAnswers(const ArchiveFixture& fx,
                       const core::UtcqQueryProcessor& loaded) {
  const core::UtcqQueryProcessor& live = fx.sys->queries();
  const auto decoded = live.decoder().DecompressAll();
  const verify::Oracle oracle(fx.net, decoded,
                              fx.sys->compressed().params().eta_d);
  const auto rects = RangeRects(fx);
  size_t range_hits = 0;
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& tu = fx.corpus[j];
    const auto t_mid = (tu.times.front() + tu.times.back()) / 2;
    const auto a = live.Where(j, t_mid, 0.2);
    const auto b = loaded.Where(j, t_mid, 0.2);
    ASSERT_EQ(a.size(), b.size()) << "traj " << j;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].instance, b[k].instance);
      EXPECT_EQ(a[k].position.edge, b[k].position.edge);
      EXPECT_EQ(a[k].position.ndist, b[k].position.ndist);
    }
    test::ExpectWhereEqual(fx.net, b, oracle.Where(j, t_mid, 0.2));
    const auto& inst = tu.instances.front();
    const auto edge = inst.path[inst.locations.front().path_index];
    const double rd = inst.locations.front().rd;
    const auto wa = live.When(j, edge, rd, 0.1);
    const auto wb = loaded.When(j, edge, rd, 0.1);
    ASSERT_EQ(wa.size(), wb.size()) << "traj " << j;
    for (size_t k = 0; k < wa.size(); ++k) {
      EXPECT_EQ(wa[k].instance, wb[k].instance);
      EXPECT_EQ(wa[k].t, wb[k].t);
    }
    test::ExpectWhenEqual(wb, oracle.When(j, edge, rd, 0.1));
    EXPECT_EQ(live.MayPassEdge(j, edge), loaded.MayPassEdge(j, edge));
    if (j % 5 != 0) continue;
    for (const network::Rect& re : rects) {
      for (const double alpha : {0.1, 0.5}) {
        const auto got = loaded.Range(re, t_mid, alpha);
        EXPECT_EQ(got, live.Range(re, t_mid, alpha));
        const auto want = oracle.Range(re, t_mid, alpha);
        std::vector<uint32_t> diff;
        std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                      want.end(), std::back_inserter(diff));
        for (const uint32_t k : diff) {
          EXPECT_NEAR(oracle.OverlapMass(k, re, t_mid), alpha, 1e-9)
              << "trajectory " << k << " tq " << t_mid;
        }
        range_hits += want.size();
      }
    }
  }
  EXPECT_GT(range_hits, 0u);
}

/// The tag-6 body a v1-v5 writer stored: every TrajMeta, roles left out.
std::vector<uint8_t> LegacyMetasBody(const std::vector<core::TrajMeta>& metas) {
  common::ByteWriter out;
  out.PutVarint(metas.size());
  for (const core::TrajMeta& m : metas) {
    out.PutVarint(m.t_pos);
    out.PutVarint(m.n_points);
    out.PutSignedVarint(m.t_first);
    out.PutSignedVarint(m.t_last);
    out.PutVarint(m.refs.size());
    for (const core::RefMeta& rm : m.refs) {
      out.PutVarint(rm.orig_index);
      out.PutVarint(rm.offset);
      out.PutVarint(rm.e_len);
      out.PutVarint(rm.d_pos);
      out.PutF32(rm.p_quantized);
    }
    out.PutVarint(m.nrefs.size());
    for (const core::NrefMeta& nm : m.nrefs) {
      out.PutVarint(nm.orig_index);
      out.PutVarint(nm.ref_pos);
      out.PutVarint(nm.offset);
      out.PutVarint(nm.e_len);
      out.PutF32(nm.p_quantized);
    }
  }
  return out.Release();
}

/// The tag-9 body a v3-v5 writer stored: K, then each trajectory's sync
/// table, delta coded.
std::vector<uint8_t> LegacySyncsBody(uint32_t interval,
                                     const std::vector<core::TrajMeta>& metas) {
  common::ByteWriter out;
  out.PutVarint(interval);
  out.PutVarint(metas.size());
  for (const core::TrajMeta& m : metas) {
    out.PutVarint(m.t_syncs.size());
    uint32_t prev_entry = 0;
    traj::Timestamp prev_t = 0;
    uint64_t prev_bit = 0;
    for (const core::TSync& sync : m.t_syncs) {
      out.PutVarint(sync.entry - prev_entry);
      out.PutSignedVarint(sync.t - prev_t);
      out.PutVarint(sync.bit - prev_bit);
      prev_entry = sync.entry;
      prev_t = sync.t;
      prev_bit = sync.bit;
    }
  }
  return out.Release();
}

/// `cc`'s image as a v1-v5 writer stored it: version `version`, its metas
/// in tag 6 and, when K > 0, its sync tables in tag 9.
ArchivePayload LegacyPayload(const core::CompressedCorpus& cc,
                             const core::StiuIndex* index, uint32_t version) {
  ArchivePayload payload;
  const std::vector<uint8_t> image = ArchiveWriter(cc, index).Serialize();
  std::string error;
  EXPECT_TRUE(DecodeArchive(image.data(), image.size(), &payload, &error))
      << error;
  payload.format_version = version;
  payload.legacy_metas = LegacyMetasBody(cc.metas());
  if (cc.params().t_sync_interval > 0) {
    payload.legacy_syncs =
        LegacySyncsBody(cc.params().t_sync_interval, cc.metas());
  }
  return payload;
}

/// The fixture's image as written by an older writer: version
/// `version`, its StIU section `stiu` under `tag`, reopened with its index
/// derived.
struct Reopened {
  ArchiveReader reader;
  std::unique_ptr<core::StiuIndex> index;
  std::unique_ptr<core::UtcqQueryProcessor> queries;
};

std::unique_ptr<Reopened> ReopenWithStiu(const ArchiveFixture& fx,
                                         uint32_t version, SectionTag tag,
                                         std::vector<uint8_t> stiu) {
  ArchivePayload payload =
      LegacyPayload(fx.sys->compressed(), &fx.sys->index(), version);
  payload.stiu_tag = tag;
  payload.stiu = std::move(stiu);
  const std::vector<uint8_t> image = EncodeArchive(payload);
  auto r = std::make_unique<Reopened>();
  std::string error;
  EXPECT_TRUE(r->reader.OpenBytes(image, &error)) << error;
  EXPECT_EQ(EncodeArchive(r->reader.payload()), image);
  EXPECT_EQ(SectionTags(image),
            (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, uint64_t(tag), 9}));
  EXPECT_EQ(r->reader.metas(), fx.sys->compressed().metas());
  EXPECT_EQ(r->reader.index_cells_per_side(), 16u);
  r->index = r->reader.LoadIndex(*fx.grid, &error);
  EXPECT_NE(r->index, nullptr) << error;
  if (r->index == nullptr) return nullptr;
  r->queries = std::make_unique<core::UtcqQueryProcessor>(
      fx.net, r->reader.view(), *r->index);
  return r;
}

TEST(Archive, HostileTupleSectionsCannotChangeAnswers) {
  // A v3 (tag 7) or v4 (tag 10) section whose parameters are valid opens
  // whatever its tuple lists claim: zero or 2^60 trajectories, counts past
  // the payload, ids past the corpus, a ref index outside the metas,
  // unsorted lists, scattered or everywhere partition lists. Nothing reads
  // the lists, so the derived index is the compress-time one and every
  // answer matches the live processor and the oracle.
  ArchiveFixture fx;
  const core::StiuIndex& live = fx.sys->index();
  const test::StiuSection honest = test::StiuSection::Of(live);
  const auto n = static_cast<uint32_t>(live.num_trajectories());
  const auto header = [&](uint64_t trajs, uint64_t partitions) {
    common::ByteWriter out;
    out.PutVarint(16);   // cells_per_side
    out.PutSignedVarint(900);  // time_partition_s
    out.PutVarint(trajs);
    out.PutVarint(partitions);
    out.PutVarint(fx.grid->num_regions());
    return out;
  };
  std::vector<std::pair<std::string, test::StiuSection>> sections;
  test::StiuSection lying = honest;  // ids past the corpus, unsorted
  for (auto& l : lying.partitions) {
    l.push_back(n + 7);
    std::reverse(l.begin(), l.end());
  }
  for (auto& l : lying.refs) {
    if (!l.empty()) l.push_back({.traj = n + 1, .ref_idx = 1u << 20});
    std::reverse(l.begin(), l.end());
  }
  for (auto& l : lying.nrefs) std::reverse(l.begin(), l.end());
  sections.emplace_back("lying lists", lying);
  test::StiuSection everywhere = honest;  // everything in every partition
  for (auto& l : everywhere.partitions) {
    l.clear();
    for (uint32_t j = 0; j < n; ++j) l.push_back(j);
  }
  sections.emplace_back("everywhere", everywhere);

  for (const auto& [version, tag] :
       {std::pair{3u, SectionTag::kStiu}, std::pair{4u, SectionTag::kStiuV4}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const bool legacy = tag == SectionTag::kStiu;
    std::vector<std::pair<std::string, std::vector<uint8_t>>> blobs;
    blobs.emplace_back("zero trajectories", header(0, 0).Release());
    blobs.emplace_back("2^60 trajectories",
                       header(uint64_t{1} << 60, 0).Release());
    common::ByteWriter past = header(n, 96);
    past.PutVarint(uint64_t{1} << 40);  // temporal count past the payload
    blobs.emplace_back("counts past the payload", past.Release());
    for (const auto& [name, section] : sections) {
      blobs.emplace_back(name, legacy ? section.WriteLegacy() : section.Write());
    }
    for (const auto& [name, blob] : blobs) {
      SCOPED_TRACE(name);
      const auto reopened = ReopenWithStiu(fx, version, tag, blob);
      ASSERT_NE(reopened, nullptr);
      test::ExpectSameIndex(*reopened->index, live);
      ExpectSameAnswers(fx, *reopened->queries);
    }
  }
}

/// FNV-1a (64-bit) over an image: a fingerprint that no compiler or
/// standard library can change.
uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// A payload built field by field: every section kind, multi-byte and
/// negative varints, sync tables and a StIU section, as a v3 image with a
/// crafted tag-7 tuple section, a v4 image with the same tuples as tag 10,
/// or a v5 image with tag 11's parameters alone, each with the metas and
/// sync tables older writers stored in tags 6 and 9; or as a v6 image,
/// which holds tag 11 and K (tag 12) instead. Every float is a literal (no
/// floating-point arithmetic), so the image is the same under any
/// compiler. The streams are not a corpus: DecodeArchive does not walk
/// them.
ArchivePayload GoldenPayload(uint32_t version) {
  ArchivePayload p;
  p.format_version = version;
  p.params.eta_d = 0.0078125;
  p.params.eta_p = 0.001953125;
  p.params.num_pivots = 2;
  p.params.default_interval_s = 15;
  p.params.t_sync_interval = 4;
  p.entry_bits = 5;
  p.compressed_bits = {1234567, 89, uint64_t{1} << 40, 300, 0, 127};
  const auto fill = [](ArchivePayload::Stream* s, size_t bytes, int pad) {
    for (size_t i = 0; i < bytes; ++i) {
      s->bytes.push_back(static_cast<uint8_t>(i * 37 + 11));
    }
    s->size_bits = bytes * 8 - pad;
  };
  fill(&p.t, 300, 3);
  fill(&p.ref, 200, 0);
  fill(&p.nref, 150, 7);
  fill(&p.structure, 17, 1);

  core::TrajMeta a;
  a.t_pos = 0;
  a.n_points = 40;
  a.t_first = -100;
  a.t_last = 5000;
  a.refs = {{1, 0, 12, 1000, 0.5f}, {2, 500, 300, 1200, 0.25f}};
  a.nrefs = {{0, 1, 7, 9, 0.125f}};
  a.t_syncs = {{4, -60, 100}, {9, 200, 333}};
  core::TrajMeta b;
  b.t_pos = 700;
  b.n_points = 3;
  b.t_first = 86000;
  b.t_last = 86399;
  b.refs = {{0, 1599, 1, 1599, 1.0f}};
  core::TrajMeta c;
  c.t_pos = 2396;
  c.n_points = 200;
  c.t_first = 0;
  c.t_last = 3599;
  c.refs = {{3, 40, 128, 900, 0.0625f}};
  c.nrefs = {{0, 0, 0, 16384, 0.375f},
             {1, 0, 1193, 2, 0.1875f},
             {2, 0, 77, 0, 0.0f}};
  c.t_syncs = {{128, 1000, 2000}};
  if (version < 6) {
    p.legacy_metas = LegacyMetasBody({a, b, c});
    p.legacy_syncs = LegacySyncsBody(p.params.t_sync_interval, {a, b, c});
  }

  test::StiuSection stiu;
  stiu.cells_per_side = 2;
  stiu.time_partition_s = 43200;
  stiu.temporal = {{{-100, 0, 17}, {43200, 30, 190}},
                   {{86000, 0, 717}},
                   {{0, 0, 2413}}};
  stiu.partitions = {{0, 2}, {0, 1}};
  test::LegacyRefTuple r0;
  r0.traj = 0;
  r0.ref_idx = 1;
  r0.fv_id = 0xFFFFFFFEu;
  r0.fv_no = 5;
  r0.d_no = 2;
  r0.ref_passes = true;
  r0.d_pos = 1210;
  r0.p_total = 0.75f;
  r0.p_max = 0.125f;
  test::LegacyRefTuple r1 = r0;
  r1.traj = 2;
  r1.ref_idx = 0;
  r1.fv_id = 7;
  r1.fv_no = 300;
  r1.d_no = 0;
  r1.ref_passes = false;
  r1.d_pos = 900;
  r1.p_total = 0.5f;
  r1.p_max = 0.375f;
  test::LegacyNrefTuple n0;
  n0.traj = 2;
  n0.nref_idx = 1;
  n0.rv_id = 123456;
  n0.rv_no = 0;
  n0.ma_pos = uint64_t{1} << 33;
  stiu.refs = {{r0}, {}, {r0, r1}, {}};
  stiu.nrefs = {{}, {n0}, {}, {n0, n0}};
  common::ByteWriter params;
  params.PutVarint(stiu.cells_per_side);
  params.PutSignedVarint(stiu.time_partition_s);
  p.stiu = version == 3   ? stiu.WriteLegacy()
           : version == 4 ? stiu.Write()
                          : params.Release();
  p.stiu_tag = version == 3   ? SectionTag::kStiu
               : version == 4 ? SectionTag::kStiuV4
                              : SectionTag::kStiuParams;
  p.stiu_params = {2, 43200};
  return p;
}

// Byte-exact pin of the container writer, recorded before the writer was
// rewritten around exact-size images: any change to these bytes is a
// format change. The image is v3 with a tag-7 StIU section.
TEST(Archive, GoldenImageBytesArePinned) {
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(3));
  ArchivePayload loaded;
  std::string error;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &loaded, &error))
      << error;
  const std::vector<uint8_t> again = EncodeArchive(loaded);
  EXPECT_EQ(again, image);
  EXPECT_EQ(again.size(), 1015u);
  EXPECT_EQ(Fnv1a64(again), 0x8474EBCE1718ED52ull);
  // The image is allocated once, at its exact size.
  EXPECT_EQ(again.capacity(), again.size());
}

// The same payload as a v4 image: a tag-10 StIU section, recorded when
// tag 10 was added.
TEST(Archive, GoldenV4ImageBytesArePinned) {
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(4));
  ArchivePayload loaded;
  std::string error;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &loaded, &error))
      << error;
  EXPECT_EQ(loaded.stiu_tag, SectionTag::kStiuV4);
  EXPECT_EQ(loaded.stiu_params.cells_per_side, 2u);
  EXPECT_EQ(loaded.stiu_params.time_partition_s, 43200);
  const std::vector<uint8_t> again = EncodeArchive(loaded);
  EXPECT_EQ(again, image);
  EXPECT_EQ(again[8], 4u);
  EXPECT_EQ(again.size(), 947u);
  EXPECT_EQ(Fnv1a64(again), 0xA08079A96D4434F7ull);
  EXPECT_EQ(again.capacity(), again.size());
}

// The same payload as a v5 image: a tag-11 section holding only the index
// parameters, recorded when tag 11 was added.
TEST(Archive, GoldenV5ImageBytesArePinned) {
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(5));
  ArchivePayload loaded;
  std::string error;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &loaded, &error))
      << error;
  EXPECT_EQ(loaded.stiu_tag, SectionTag::kStiuParams);
  EXPECT_EQ(loaded.stiu_params.cells_per_side, 2u);
  EXPECT_EQ(loaded.stiu_params.time_partition_s, 43200);
  const std::vector<uint8_t> again = EncodeArchive(loaded);
  EXPECT_EQ(again, image);
  EXPECT_EQ(again[8], 5u);
  EXPECT_EQ(again.size(), 872u);
  EXPECT_EQ(Fnv1a64(again), 0xE70E34E111315A84ull);
  EXPECT_EQ(again.capacity(), again.size());
}

// The same payload as a v6 image: no tag 6 or 9, and tag 12 holding K,
// recorded when tag 12 was added.
TEST(Archive, GoldenV6ImageBytesArePinned) {
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(6));
  ArchivePayload loaded;
  std::string error;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &loaded, &error))
      << error;
  EXPECT_EQ(SectionTags(image),
            (std::vector<uint64_t>{1, 2, 3, 4, 5, 11, 12}));
  EXPECT_EQ(loaded.params.t_sync_interval, 4u);
  EXPECT_EQ(loaded.stiu_params.cells_per_side, 2u);
  const std::vector<uint8_t> again = EncodeArchive(loaded);
  EXPECT_EQ(again, image);
  EXPECT_EQ(again[8], 6u);
  EXPECT_EQ(again.size(), 748u);
  EXPECT_EQ(Fnv1a64(again), 0x4A5196822807C090ull);
  EXPECT_EQ(again.capacity(), again.size());
}

TEST(Archive, OpenMissingFileFails) {
  ArchiveReader reader;
  std::string error;
  EXPECT_FALSE(reader.Open("/nonexistent/dir/archive.utcq", &error));
  EXPECT_FALSE(reader.is_open());
}

/// Restamps the CRC-32 footer after a deliberate image mutation, so the
/// section being tested — not the checksum — is what rejects the input.
void RestampCrc(std::vector<uint8_t>* image) {
  const uint32_t crc = common::Crc32(image->data(), image->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*image)[image->size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

/// Splices a hand-built section into a serialized image: the section body
/// is appended ahead of the CRC footer, the section-count varint (a single
/// byte at offset 12 for these small archives) is bumped, and the footer
/// is restamped. This reaches tag-9 shapes EncodeArchive can never emit.
std::vector<uint8_t> WithExtraSection(std::vector<uint8_t> image, uint64_t tag,
                                      const common::ByteWriter& body) {
  common::ByteWriter section;
  section.PutVarint(tag);
  section.PutBlob(body.bytes().data(), body.size());
  const std::span<const uint8_t> sec = section.bytes();
  image.insert(image.end() - 4, sec.begin(), sec.end());
  EXPECT_LT(image[12], 0x7F);  // still a single-byte varint after the bump
  image[12] += 1;
  RestampCrc(&image);
  return image;
}

TEST(Archive, OlderWritersImagesOpenAndAnswerLikeTheOracle) {
  // v3 and v4 images of a generated corpus, their StIU tuples in the tag-7
  // shape v1-v3 writers stored (the dropped fields filled with values no
  // query may read) or in v4's tag-10 shape, open, re-encode byte for byte,
  // derive the compress-time index and answer every query like the live
  // index and the oracle.
  ArchiveFixture fx;
  test::StiuSection section = test::StiuSection::Of(fx.sys->index());
  for (auto& list : section.refs) {
    for (auto& rt : list) {
      rt.fv_id = rt.traj * 7 + 3;
      rt.fv_no = rt.ref_idx + 11;
      rt.d_no = 5;
      rt.d_pos = uint64_t{1} << 35;
      rt.p_total = 0.875f;
    }
  }
  for (auto& list : section.nrefs) {
    for (auto& nt : list) {
      nt.rv_id = 0xFFFFFFFEu;
      nt.rv_no = nt.nref_idx + 2;
      nt.ma_pos = uint64_t{1} << 40;
    }
  }
  for (const auto& [version, tag, blob] :
       {std::tuple{3u, SectionTag::kStiu, section.WriteLegacy()},
        std::tuple{4u, SectionTag::kStiuV4, section.Write()}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const auto reopened = ReopenWithStiu(fx, version, tag, blob);
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened->reader.payload().format_version, version);
    test::ExpectSameIndex(*reopened->index, fx.sys->index());
    ExpectSameAnswers(fx, *reopened->queries);
  }
}

TEST(Archive, RejectsImagesCarryingTwoStiuSections) {
  // One image holds one StIU section: a second one of any shape, spliced
  // into a v3 or a v6 image, is invalid.
  ArchiveFixture fx;
  const test::StiuSection section = test::StiuSection::Of(fx.sys->index());
  const auto body_of = [](const std::vector<uint8_t>& bytes) {
    common::ByteWriter body;
    body.PutBytes(bytes.data(), bytes.size());
    return body;
  };
  const std::vector<uint8_t> v6 =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(v6, &error)) << error;
  const std::vector<uint8_t> params = reader.payload().stiu;
  ArchivePayload legacy = reader.payload();
  legacy.format_version = 3;
  legacy.stiu = section.WriteLegacy();
  legacy.stiu_tag = SectionTag::kStiu;
  const std::vector<uint8_t> v3 = EncodeArchive(legacy);
  ASSERT_TRUE(reader.OpenBytes(v3, &error)) << error;

  for (const auto& [name, image] :
       {std::pair{"tag 7 after tag 11",
                  WithExtraSection(v6, 7, body_of(section.WriteLegacy()))},
        std::pair{"tag 11 after tag 11",
                  WithExtraSection(v6, 11, body_of(params))},
        std::pair{"tag 10 after tag 7",
                  WithExtraSection(v3, 10, body_of(section.Write()))}}) {
    SCOPED_TRACE(name);
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(image, &error));
    EXPECT_NE(error.find("more than one StIU section"), std::string::npos)
        << error;
  }
}

TEST(Archive, SyncTablesAreDerivedByTheEncodersRule) {
  // A v6 image stores K (tag 12), not the tables: the reader rebuilds each
  // table from the T stream, sync for sync the compressor's. A dense
  // interval guarantees the fixture's short trajectories carry sync points.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 4;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const core::CompressedCorpus& cc = sys2.compressed();
  const std::vector<uint8_t> bytes =
      ArchiveWriter(cc, &sys2.index()).Serialize();
  EXPECT_EQ(bytes[8], 6u);

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(bytes, &error)) << error;
  EXPECT_EQ(reader.payload().format_version, kFormatVersion);
  EXPECT_EQ(reader.params().t_sync_interval, 4u);
  EXPECT_EQ(reader.metas(), cc.metas());
  size_t total_syncs = 0;
  for (const core::TrajMeta& m : cc.metas()) total_syncs += m.t_syncs.size();
  EXPECT_GT(total_syncs, 0u);
  EXPECT_EQ(EncodeArchive(reader.payload()), bytes);

  // A v5 image of the same corpus stored the tables in tag 9 and the metas
  // in tag 6: it opens to the same metas and re-encodes byte for byte.
  const std::vector<uint8_t> v5 =
      EncodeArchive(LegacyPayload(cc, &sys2.index(), 5));
  ArchiveReader legacy;
  ASSERT_TRUE(legacy.OpenBytes(v5, &error)) << error;
  EXPECT_EQ(legacy.params().t_sync_interval, 4u);
  EXPECT_EQ(legacy.metas(), cc.metas());
  EXPECT_EQ(EncodeArchive(legacy.payload()), v5);
}

TEST(Archive, SyncFreeCorpusWritesNoIntervalSection) {
  // With sync emission disabled the image carries no tag 12 (nor tag 9),
  // the reader derives no tables, and brackets come out as with them (the
  // seek path simply never upgrades its scan start). A v2 image, which had
  // tag 6 but no tag 9, opens the same way and re-encodes as v2.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 0;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> bytes =
      ArchiveWriter(sys2.compressed()).Serialize();
  EXPECT_EQ(bytes[8], 6u);
  EXPECT_EQ(SectionTags(bytes), (std::vector<uint64_t>{1, 2, 3, 4, 5}));

  const std::vector<uint8_t> v2 =
      EncodeArchive(LegacyPayload(sys2.compressed(), nullptr, 2));
  EXPECT_EQ(SectionTags(v2), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  for (const auto& image : {bytes, v2}) {
    ArchiveReader reader;
    std::string error;
    ASSERT_TRUE(reader.OpenBytes(image, &error)) << error;
    EXPECT_EQ(reader.payload().format_version, image[8]);
    EXPECT_EQ(reader.params().t_sync_interval, 0u);
    EXPECT_EQ(reader.metas(), sys2.compressed().metas());
    EXPECT_EQ(EncodeArchive(reader.payload()), image);

    const core::UtcqDecoder plain(fx.net, reader.view());
    const core::UtcqDecoder synced(fx.net, fx.sys->compressed());
    for (size_t j = 0; j < 5; ++j) {
      const auto times = synced.DecodeTimes(j);
      ASSERT_FALSE(times.empty());
      const traj::Timestamp probe = times[times.size() / 2];
      const auto a = plain.BracketTime(j, probe, 0, times.front(),
                                       reader.metas()[j].t_pos);
      const auto b = synced.BracketTime(j, probe, 0, times.front(),
                                        fx.sys->compressed().meta(j).t_pos);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->index, b->index);
        EXPECT_EQ(a->t0, b->t0);
        EXPECT_EQ(a->t1, b->t1);
      }
    }
  }
}

TEST(Archive, LegacySyncTablesAreNeverRead) {
  // Of a v3-v5 tag-9 section only K is read: tables that lie about entry
  // order, entry range or bit offsets, or whose trajectory count disagrees
  // with the streams, change nothing, because the tables are derived. A K
  // of zero, a second interval section, or a tag-12 body with trailing
  // bytes is rejected.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 2;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const core::CompressedCorpus& cc = sys2.compressed();
  const ArchivePayload base = LegacyPayload(cc, &sys2.index(), 5);
  std::vector<core::TrajMeta> lying = cc.metas();
  for (core::TrajMeta& m : lying) {
    for (core::TSync& sync : m.t_syncs) {
      sync.entry = m.n_points + 3;
      sync.bit = cc.t_stream().size_bits() * 2;
    }
  }
  lying.resize(3);
  ArchivePayload payload = base;
  payload.legacy_syncs = LegacySyncsBody(2, lying);
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(EncodeArchive(payload), &error)) << error;
  EXPECT_EQ(reader.metas(), cc.metas());
  EXPECT_EQ(EncodeArchive(reader.payload()), EncodeArchive(payload));

  const auto body_of = [](std::initializer_list<uint64_t> varints) {
    common::ByteWriter body;
    for (const uint64_t v : varints) body.PutVarint(v);
    return body;
  };
  payload.legacy_syncs = LegacySyncsBody(0, cc.metas());
  const std::vector<uint8_t> v6 =
      ArchiveWriter(cc, &sys2.index()).Serialize();
  ArchivePayload sync_free = base;
  sync_free.legacy_syncs.clear();
  sync_free.params.t_sync_interval = 0;
  const std::vector<uint8_t> no_interval = EncodeArchive(sync_free);
  for (const auto& [name, image] :
       {std::pair{"tag 9 with K = 0", EncodeArchive(payload)},
        std::pair{"tag 12 with K = 0",
                  WithExtraSection(no_interval, 12, body_of({0}))},
        std::pair{"tag 12 with a trailing byte",
                  WithExtraSection(no_interval, 12, body_of({2, 0}))},
        std::pair{"tag 12 after tag 12",
                  WithExtraSection(v6, 12, body_of({2}))},
        std::pair{"tag 9 after tag 12",
                  WithExtraSection(v6, 9, body_of({2, 0}))}}) {
    SCOPED_TRACE(name);
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(image, &error));
    EXPECT_NE(error.find("sync-interval section"), std::string::npos) << error;
  }

  // A spliced tag 12 of K = 2 is the interval the tables follow.
  ArchiveReader fine;
  ASSERT_TRUE(fine.OpenBytes(WithExtraSection(no_interval, 12, body_of({2})),
                             &error))
      << error;
  EXPECT_EQ(fine.params().t_sync_interval, 2u);
  EXPECT_EQ(fine.metas(), cc.metas());
}

}  // namespace
}  // namespace utcq::archive
