#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
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
    ASSERT_EQ(payload.metas.size(), cc.num_trajectories());
    for (size_t j = 0; j < payload.metas.size(); ++j) {
      const core::TrajMeta& a = payload.metas[j];
      const core::TrajMeta& b = cc.meta(j);
      EXPECT_EQ(a.t_pos, b.t_pos);
      EXPECT_EQ(a.n_points, b.n_points);
      ASSERT_EQ(a.refs.size(), b.refs.size());
      ASSERT_EQ(a.nrefs.size(), b.nrefs.size());
      if (disable_referential) EXPECT_TRUE(a.nrefs.empty());
      EXPECT_EQ(a.roles, b.roles);
      for (size_t r = 0; r < a.refs.size(); ++r) {
        EXPECT_EQ(a.refs[r].offset, b.refs[r].offset);
        EXPECT_EQ(a.refs[r].d_pos, b.refs[r].d_pos);
        EXPECT_EQ(a.refs[r].p_quantized, b.refs[r].p_quantized);
      }
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
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto index = reader.LoadIndex(grid);
  ASSERT_NE(index, nullptr);

  const core::StiuIndex& live = fx.sys->index();
  EXPECT_EQ(index->time_partition_s(), live.time_partition_s());
  for (size_t j = 0; j < fx.corpus.size(); ++j) {
    const auto& a = live.TemporalOf(j);
    const auto& b = index->TemporalOf(j);
    ASSERT_EQ(a.size(), b.size()) << "traj " << j;
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].t_start, b[k].t_start);
      EXPECT_EQ(a[k].t_no, b[k].t_no);
      EXPECT_EQ(a[k].t_pos, b[k].t_pos);
    }
  }
  for (network::RegionId re = 0; re < grid.num_regions(); ++re) {
    const auto& ra = live.RefTuplesIn(re);
    const auto& rb = index->RefTuplesIn(re);
    ASSERT_EQ(ra.size(), rb.size()) << "region " << re;
    for (size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].traj, rb[k].traj);
      EXPECT_EQ(ra[k].ref_idx, rb[k].ref_idx);
      EXPECT_EQ(ra[k].p_max, rb[k].p_max);
      EXPECT_EQ(ra[k].ref_passes, rb[k].ref_passes);
    }
    const auto& na = live.NrefTuplesIn(re);
    const auto& nb = index->NrefTuplesIn(re);
    ASSERT_EQ(na.size(), nb.size()) << "region " << re;
    for (size_t k = 0; k < na.size(); ++k) {
      EXPECT_EQ(na[k].traj, nb[k].traj);
      EXPECT_EQ(na[k].nref_idx, nb[k].nref_idx);
    }
  }
}

TEST(Archive, TakeIndexFreesTheSectionBytesAndKeepsHasIndex) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto loaded = reader.LoadIndex(grid);
  ASSERT_NE(loaded, nullptr);

  std::string error;
  const auto taken = reader.TakeIndex(grid, &error);
  ASSERT_NE(taken, nullptr) << error;
  common::ByteWriter a;
  common::ByteWriter b;
  loaded->Serialize(a);
  taken->Serialize(b);
  EXPECT_TRUE(std::ranges::equal(a.bytes(), b.bytes()));

  EXPECT_TRUE(reader.payload().stiu.empty());
  EXPECT_EQ(reader.payload().stiu.capacity(), 0u);
  EXPECT_TRUE(reader.has_index());
  EXPECT_EQ(reader.LoadIndex(grid, &error), nullptr);
  EXPECT_NE(error.find("released"), std::string::npos) << error;
  EXPECT_EQ(reader.TakeIndex(grid, &error), nullptr);

  ArchiveReader bare;
  ASSERT_TRUE(bare.OpenBytes(ArchiveWriter(fx.sys->compressed()).Serialize()));
  EXPECT_FALSE(bare.has_index());
  EXPECT_EQ(bare.TakeIndex(grid, &error), nullptr);
  EXPECT_NE(error.find("no StIU section"), std::string::npos) << error;
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

TEST(Archive, RejectsHostileStiuSections) {
  // CRC-valid archives whose StIU section lies about its shape must fail
  // LoadIndex cleanly instead of OOMing or leaving an index that queries
  // out of bounds, under tag 10 and under the legacy tag 7 alike.
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  for (const bool legacy : {false, true}) {
    SCOPED_TRACE(legacy ? "tag 7" : "tag 10");
    ArchivePayload payload = reader.payload();
    payload.stiu_legacy = legacy;
    std::string error;

    // Claims zero trajectories while the metas section has 50.
    {
      common::ByteWriter stiu;
      stiu.PutVarint(16);                      // cells_per_side
      stiu.PutSignedVarint(900);               // time_partition_s
      stiu.PutVarint(0);                       // num_trajs
      stiu.PutVarint(0);                       // num_partitions
      stiu.PutVarint(fx.grid->num_regions());  // num_regions
      for (uint32_t re = 0; re < 2 * fx.grid->num_regions(); ++re) {
        stiu.PutVarint(0);  // empty ref + nref tuple lists
      }
      payload.stiu = stiu.Release();
      ArchiveReader hostile;
      ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
      EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
      EXPECT_NE(error.find("trajectory count"), std::string::npos) << error;
    }

    // Claims an absurd trajectory count (would OOM a naive resize).
    {
      common::ByteWriter stiu;
      stiu.PutVarint(16);
      stiu.PutSignedVarint(900);
      stiu.PutVarint(uint64_t{1} << 60);  // num_trajs
      stiu.PutVarint(0);
      stiu.PutVarint(fx.grid->num_regions());
      payload.stiu = stiu.Release();
      ArchiveReader hostile;
      ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
      EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
    }
  }
}

TEST(Archive, RejectsMetasWithDuplicateOrigIndex) {
  // Two metas claiming the same instance slot would leave another slot at
  // the default role and decode nrefs[0] out of bounds; the reader must
  // reject the section instead.
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = reader.payload();
  core::TrajMeta* victim = nullptr;
  for (auto& m : payload.metas) {
    if (!m.refs.empty() && !m.nrefs.empty()) {
      victim = &m;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  victim->nrefs[0].orig_index = victim->refs[0].orig_index;
  std::string error;
  ArchiveReader hostile;
  EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
  EXPECT_NE(error.find("metas"), std::string::npos) << error;
}

TEST(Archive, RejectsStiuTuplePointingOutsideMetas) {
  ArchiveFixture fx;
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  for (const bool legacy : {false, true}) {
    SCOPED_TRACE(legacy ? "tag 7" : "tag 10");
    ArchivePayload payload = reader.payload();
    payload.stiu_legacy = legacy;

    // A structurally valid StIU section (right trajectory count, every
    // trajectory covered) whose one spatial tuple names a ref index that
    // does not exist in the metas.
    common::ByteWriter stiu;
    stiu.PutVarint(16);                      // cells_per_side
    stiu.PutSignedVarint(900);               // time_partition_s
    stiu.PutVarint(payload.metas.size());    // num_trajs
    stiu.PutVarint(0);                       // num_partitions
    stiu.PutVarint(fx.grid->num_regions());  // num_regions
    for (size_t j = 0; j < payload.metas.size(); ++j) {
      stiu.PutVarint(1);  // one temporal tuple
      stiu.PutVarint(0);  // t_start delta
      stiu.PutVarint(0);  // t_no
      stiu.PutVarint(0);  // t_pos
    }
    for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
      if (re == 0) {
        stiu.PutVarint(1);  // one hostile ref tuple
        stiu.PutVarint(0);  // traj
        stiu.PutVarint(1u << 20);  // ref_idx: far outside metas[0].refs
        if (legacy) {
          stiu.PutU32(0);     // fv_id
          stiu.PutVarint(0);  // fv_no
          stiu.PutVarint(0);  // d_no
          stiu.PutVarint(0);  // d_pos
          stiu.PutF32(0.5f);  // p_total
        }
        stiu.PutF32(0.5f);  // p_max
        stiu.PutU8(1);      // ref_passes
      } else {
        stiu.PutVarint(0);
      }
    }
    for (uint32_t re = 0; re < fx.grid->num_regions(); ++re) {
      stiu.PutVarint(0);  // no nref tuples
    }
    payload.stiu = stiu.Release();

    std::string error;
    ArchiveReader hostile;
    ASSERT_TRUE(hostile.OpenBytes(EncodeArchive(payload), &error)) << error;
    EXPECT_EQ(hostile.LoadIndex(*fx.grid, &error), nullptr);
    EXPECT_NE(error.find("outside the metas"), std::string::npos) << error;
  }
}

using test::ListOrder;

/// Re-emits `index` as a StIU section with `partitions` as the partition
/// lists and every region list in `order`.
std::vector<uint8_t> WriteStiu(const core::StiuIndex& index,
                               const std::vector<std::vector<uint32_t>>& partitions,
                               ListOrder order) {
  test::StiuSection section = test::StiuSection::Of(index);
  section.partitions = partitions;
  return section.Write(order);
}

/// An archive of `fx` whose StIU section is replaced by `stiu`, reopened.
struct Reopened {
  ArchiveReader reader;
  std::unique_ptr<network::GridIndex> grid;
  std::unique_ptr<core::StiuIndex> index;
  std::unique_ptr<core::UtcqQueryProcessor> queries;
};

std::unique_ptr<Reopened> ReopenWithStiu(const ArchiveFixture& fx,
                                         std::vector<uint8_t> stiu) {
  ArchiveReader writer_side;
  EXPECT_TRUE(writer_side.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize()));
  ArchivePayload payload = writer_side.payload();
  payload.stiu = std::move(stiu);
  auto r = std::make_unique<Reopened>();
  std::string error;
  EXPECT_TRUE(r->reader.OpenBytes(EncodeArchive(payload), &error)) << error;
  r->grid = std::make_unique<network::GridIndex>(
      fx.net, r->reader.index_cells_per_side());
  r->index = r->reader.LoadIndex(*r->grid, &error);
  EXPECT_NE(r->index, nullptr) << error;
  if (r->index == nullptr) return nullptr;
  r->queries = std::make_unique<core::UtcqQueryProcessor>(
      fx.net, r->reader.view(), *r->index);
  return r;
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

TEST(Archive, StiuSectionsInOtherTupleOrdersReloadIdentically) {
  // Sections written before the region lists went partition-major store
  // them in trajectory-id order; a crafted one may use any order. Same
  // tuples, same byte count; the reader re-derives the layout, so the lists
  // and every answer come out equal.
  ArchiveFixture fx;
  const core::StiuIndex& live = fx.sys->index();
  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &live).Serialize()));
  const auto partitions = test::StiuSection::Of(live).partitions;
  ASSERT_EQ(WriteStiu(live, partitions, ListOrder::kAsIndexed),
            reader.payload().stiu)
      << "WriteStiu must mirror StiuIndex::Serialize";

  for (const ListOrder order :
       {ListOrder::kIdAscending, ListOrder::kIdDescending}) {
    SCOPED_TRACE(order == ListOrder::kIdAscending ? "ascending" : "descending");
    const auto stiu = WriteStiu(live, partitions, order);
    EXPECT_EQ(stiu.size(), reader.payload().stiu.size());
    EXPECT_NE(stiu, reader.payload().stiu) << "orders never differed";

    const auto reopened = ReopenWithStiu(fx, stiu);
    ASSERT_NE(reopened, nullptr);
    for (network::RegionId re = 0; re < fx.grid->num_regions(); ++re) {
      const auto& ra = live.RefTuplesIn(re);
      const auto& rb = reopened->index->RefTuplesIn(re);
      ASSERT_EQ(ra.size(), rb.size()) << "region " << re;
      for (size_t k = 0; k < ra.size(); ++k) {
        EXPECT_EQ(ra[k].traj, rb[k].traj);
        EXPECT_EQ(ra[k].ref_idx, rb[k].ref_idx);
      }
      const auto& na = live.NrefTuplesIn(re);
      const auto& nb = reopened->index->NrefTuplesIn(re);
      ASSERT_EQ(na.size(), nb.size()) << "region " << re;
      for (size_t k = 0; k < na.size(); ++k) {
        EXPECT_EQ(na[k].traj, nb[k].traj);
        EXPECT_EQ(na[k].nref_idx, nb[k].nref_idx);
      }
    }
    test::ExpectLayoutMatchesOracle(*reopened->index);
    ExpectSameAnswers(fx, *reopened->queries);
  }
}

TEST(Archive, CraftedPartitionListsStillAnswerLikeTheOracle) {
  // Partition lists are a superset filter: a section may list a trajectory
  // in extra, non-contiguous partitions, name ids no trajectory has, or
  // list everything everywhere (every trajectory at the coarsest level),
  // and list ids out of order and more than once. None of these may change
  // an answer or break the layout's oracle.
  ArchiveFixture fx;
  const core::StiuIndex& live = fx.sys->index();
  const auto honest = test::StiuSection::Of(live).partitions;
  const size_t n = honest.size();
  const auto num_trajs = static_cast<uint32_t>(live.num_trajectories());
  const auto normalized = [](std::vector<std::vector<uint32_t>> lists) {
    for (auto& l : lists) {
      std::sort(l.begin(), l.end());
      l.erase(std::unique(l.begin(), l.end()), l.end());
    }
    return lists;
  };

  auto scattered = honest;  // every trajectory also half a day away
  for (size_t p = 0; p < n; ++p) {
    for (const uint32_t j : honest[p]) scattered[(p + n / 2) % n].push_back(j);
  }
  auto phantom = honest;  // ids past the corpus in every partition
  for (auto& l : phantom) {
    l.push_back(num_trajs);
    l.push_back(num_trajs + 7);
  }
  std::vector<std::vector<uint32_t>> everywhere(n);
  for (auto& l : everywhere) {
    for (uint32_t j = 0; j < num_trajs; ++j) l.push_back(j);
  }
  auto repeated = scattered;  // descending, every id twice, phantoms inside
  for (auto& l : repeated) {
    l.push_back(num_trajs + 3);
    const auto once = l;
    l.insert(l.end(), once.begin(), once.end());
    std::sort(l.rbegin(), l.rend());
  }

  for (const auto& [name, lists] :
       {std::pair{"scattered", normalized(scattered)},
        std::pair{"phantom", normalized(phantom)},
        std::pair{"everywhere", everywhere},
        std::pair{"repeated", repeated}}) {
    SCOPED_TRACE(name);
    const auto reopened =
        ReopenWithStiu(fx, WriteStiu(live, lists, ListOrder::kAsIndexed));
    ASSERT_NE(reopened, nullptr);
    if (std::string(name) == "everywhere") {
      EXPECT_GT(reopened->index->num_levels(), live.num_levels());
    }
    test::ExpectLayoutMatchesOracle(*reopened->index);
    ExpectSameAnswers(fx, *reopened->queries);
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
/// negative varints, sync tables and a crafted StIU section, as a v3 image
/// with a tag-7 section (`legacy`) or as a v4 image with a tag-10 one.
/// Every float is a literal (no floating-point arithmetic), so the image is
/// the same under any compiler.
ArchivePayload GoldenPayload(bool legacy) {
  ArchivePayload p;
  p.format_version = legacy ? 3 : 4;
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
  p.metas = {a, b, c};

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
  p.stiu = legacy ? stiu.WriteLegacy() : stiu.Write();
  p.stiu_legacy = legacy;
  p.stiu_cells_per_side = 2;
  return p;
}

// Byte-exact pin of the container writer, recorded before the writer was
// rewritten around exact-size images: any change to these bytes is a
// format change. The image is v3 with a tag-7 StIU section.
TEST(Archive, GoldenImageBytesArePinned) {
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(true));
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
  const std::vector<uint8_t> image = EncodeArchive(GoldenPayload(false));
  ArchivePayload loaded;
  std::string error;
  ASSERT_TRUE(DecodeArchive(image.data(), image.size(), &loaded, &error))
      << error;
  EXPECT_FALSE(loaded.stiu_legacy);
  const std::vector<uint8_t> again = EncodeArchive(loaded);
  EXPECT_EQ(again, image);
  EXPECT_EQ(again[8], 4u);
  EXPECT_EQ(again.size(), 947u);
  EXPECT_EQ(Fnv1a64(again), 0xA08079A96D4434F7ull);
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

TEST(Archive, V3Tag7ImageOpensAndAnswersLikeV4AndTheOracle) {
  // A v3 image of a generated corpus, its StIU section in the tag-7 shape
  // that v1-v3 writers emitted (the dropped fields filled with values no
  // query may read), opens, re-encodes byte for byte, reloads the tuples
  // of the v4 image and answers every query like the live index (which the
  // v4 image reloads, LoadedQueriesMatchLiveQueries) and the oracle.
  ArchiveFixture fx;
  std::string error;
  ArchiveReader v4;
  ASSERT_TRUE(v4.OpenBytes(
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize(),
      &error))
      << error;
  EXPECT_EQ(v4.payload().format_version, 4u);
  EXPECT_FALSE(v4.payload().stiu_legacy);

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
  ArchivePayload legacy = v4.payload();
  legacy.format_version = 3;
  legacy.stiu = section.WriteLegacy();
  legacy.stiu_legacy = true;
  const std::vector<uint8_t> v3 = EncodeArchive(legacy);
  EXPECT_EQ(v3[8], 3u);

  ArchiveReader reader;
  ASSERT_TRUE(reader.OpenBytes(v3, &error)) << error;
  EXPECT_TRUE(reader.payload().stiu_legacy);
  EXPECT_EQ(EncodeArchive(reader.payload()), v3);

  const network::GridIndex grid(fx.net, reader.index_cells_per_side());
  const auto old_index = reader.LoadIndex(grid, &error);
  ASSERT_NE(old_index, nullptr) << error;
  common::ByteWriter reserialized;
  old_index->Serialize(reserialized);
  EXPECT_TRUE(std::ranges::equal(reserialized.bytes(), v4.payload().stiu));

  const core::UtcqQueryProcessor old_queries(fx.net, reader.view(),
                                             *old_index);
  ExpectSameAnswers(fx, old_queries);
}

TEST(Archive, RejectsImagesCarryingBothStiuShapes) {
  // One image holds one StIU section shape: a tag-7 section spliced into a
  // v4 image, or a tag-10 section into a v3 one, is invalid.
  ArchiveFixture fx;
  const test::StiuSection section = test::StiuSection::Of(fx.sys->index());
  const auto body_of = [](const std::vector<uint8_t>& bytes) {
    common::ByteWriter body;
    body.PutBytes(bytes.data(), bytes.size());
    return body;
  };
  const std::vector<uint8_t> v4 =
      ArchiveWriter(fx.sys->compressed(), &fx.sys->index()).Serialize();
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(v4, &error)) << error;
  ArchivePayload legacy = reader.payload();
  legacy.format_version = 3;
  legacy.stiu = section.WriteLegacy();
  legacy.stiu_legacy = true;
  const std::vector<uint8_t> v3 = EncodeArchive(legacy);
  ASSERT_TRUE(reader.OpenBytes(v3, &error)) << error;

  for (const auto& [name, image] :
       {std::pair{"tag 7 after tag 10",
                  WithExtraSection(v4, 7, body_of(section.WriteLegacy()))},
        std::pair{"tag 10 after tag 7",
                  WithExtraSection(v3, 10, body_of(section.Write()))}}) {
    SCOPED_TRACE(name);
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(image, &error));
    EXPECT_NE(error.find("both StIU section shapes"), std::string::npos)
        << error;
  }
}

TEST(Archive, V3RoundTripPreservesSyncTables) {
  // The default UtcqParams emit sync points (t_sync_interval = 32), so the
  // fixture's index-free archive is stamped format v3; with an index
  // (tag 10) it is v4.
  ArchiveFixture fx;
  EXPECT_EQ(ArchiveWriter(fx.sys->compressed()).Serialize()[8],
            3u);  // version little-endian low byte
  EXPECT_EQ(ArchiveWriter(fx.sys->compressed(), &fx.sys->index())
                .Serialize()[8],
            4u);

  // A dense interval guarantees the fixture's short trajectories actually
  // carry sync points, so the table round-trip is exercised non-vacuously.
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 4;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> bytes =
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize();
  EXPECT_EQ(bytes[8], 4u);

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(bytes, &error)) << error;
  const ArchivePayload& payload = reader.payload();
  EXPECT_EQ(payload.format_version, kFormatVersion);
  EXPECT_EQ(payload.params.t_sync_interval, 4u);

  // The loaded tables must match the live corpus sync for sync.
  const core::CompressedCorpus& cc = sys2.compressed();
  size_t total_syncs = 0;
  ASSERT_EQ(payload.metas.size(), cc.num_trajectories());
  for (size_t j = 0; j < payload.metas.size(); ++j) {
    const auto& loaded = payload.metas[j].t_syncs;
    const auto& live = cc.meta(j).t_syncs;
    ASSERT_EQ(loaded.size(), live.size());
    for (size_t s = 0; s < loaded.size(); ++s) {
      EXPECT_EQ(loaded[s].entry, live[s].entry);
      EXPECT_EQ(loaded[s].t, live[s].t);
      EXPECT_EQ(loaded[s].bit, live[s].bit);
    }
    total_syncs += loaded.size();
  }
  EXPECT_GT(total_syncs, 0u);

  // Re-encoding the loaded payload reproduces the image byte for byte,
  // sync tables included.
  EXPECT_EQ(EncodeArchive(payload), bytes);
}

TEST(Archive, SyncFreeCorpusWritesV2ThatRoundTripsBitExact) {
  // With sync emission disabled and no index the writer must stamp format
  // v2 and emit no kTSyncIndex section at all — pre-v3 readers stay
  // compatible, and the §6 single-serialization rule holds across the
  // downgrade. An index (tag 10) alone makes the image v4.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 0;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  EXPECT_EQ(ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize()[8],
            4u);
  const std::vector<uint8_t> bytes =
      ArchiveWriter(sys2.compressed()).Serialize();
  EXPECT_EQ(bytes[8], 2u);

  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(bytes, &error)) << error;
  EXPECT_EQ(reader.payload().format_version, 2u);
  EXPECT_EQ(reader.payload().params.t_sync_interval, 0u);
  for (const core::TrajMeta& m : reader.payload().metas) {
    EXPECT_TRUE(m.t_syncs.empty());
  }

  // Re-encoding the loaded v2 payload reproduces the v2 image exactly —
  // format_version is preserved, not silently upgraded to v3.
  EXPECT_EQ(EncodeArchive(reader.payload()), bytes);

  // And the sync-free archive answers brackets identically (the seek path
  // simply never upgrades its scan start).
  const core::UtcqDecoder plain(fx.net, reader.view());
  const core::UtcqDecoder synced(fx.net, fx.sys->compressed());
  for (size_t j = 0; j < 5; ++j) {
    const auto times = synced.DecodeTimes(j);
    ASSERT_FALSE(times.empty());
    const traj::Timestamp probe = times[times.size() / 2];
    const auto a = plain.BracketTime(j, probe, 0, times.front(),
                                     reader.payload().metas[j].t_pos);
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

TEST(Archive, RejectsCraftedSyncTables) {
  // CRC-valid v3 archives whose skip tables lie — about entry order, entry
  // range, or bit offsets — must be rejected at open (§6 discipline): a
  // trusted hostile table would aim the seek path at arbitrary bit
  // positions.  K=2 guarantees multi-sync tables to mutate.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 2;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  ArchiveReader reader;
  std::string error;
  ASSERT_TRUE(reader.OpenBytes(
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize(), &error))
      << error;

  core::TrajMeta* victim = nullptr;
  size_t victim_j = 0;
  ArchivePayload base = reader.payload();
  for (size_t j = 0; j < base.metas.size(); ++j) {
    if (base.metas[j].t_syncs.size() >= 2) {
      victim = &base.metas[j];
      victim_j = j;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);

  // Non-monotone entry indices: the delta coding makes a repeated entry a
  // zero delta, which the section parser refuses.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs[1].entry = syncs[0].entry;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Entry index at/after the last decodable bracket start.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs.back().entry = payload.metas[victim_j].n_points;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Bit offset past the end of the T stream.
  {
    ArchivePayload payload = base;
    auto& syncs = payload.metas[victim_j].t_syncs;
    syncs.back().bit = payload.t.size_bits;
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(EncodeArchive(payload), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // The unmutated payload still re-encodes and opens — the rejections
  // above came from the mutations, not the harness.
  ArchiveReader ok;
  EXPECT_TRUE(ok.OpenBytes(EncodeArchive(base), &error)) << error;
}

TEST(Archive, RejectsHandBuiltSyncSections) {
  // Tag-9 shapes the writer can never produce: a zero sync interval, and a
  // table set whose trajectory count disagrees with the metas. Both are
  // spliced into a sync-free image so the crafted section is the only
  // kTSyncIndex present.
  ArchiveFixture fx;
  core::UtcqParams params;
  params.default_interval_s = traj::ChengduProfile().default_interval_s;
  params.t_sync_interval = 0;
  const core::UtcqSystem sys2(fx.net, *fx.grid, fx.corpus, params,
                              core::StiuParams{16, 900});
  const std::vector<uint8_t> v2 =
      ArchiveWriter(sys2.compressed(), &sys2.index()).Serialize();
  constexpr uint64_t kTag = 9;  // SectionTag::kTSyncIndex
  std::string error;

  // Sync interval zero.
  {
    common::ByteWriter body;
    body.PutVarint(0);  // interval — must be >= 1
    body.PutVarint(sys2.compressed().num_trajectories());
    for (size_t j = 0; j < sys2.compressed().num_trajectories(); ++j) {
      body.PutVarint(0);  // no syncs for this trajectory
    }
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(WithExtraSection(v2, kTag, body), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // Trajectory count disagrees with the metas section.
  {
    common::ByteWriter body;
    body.PutVarint(2);  // interval
    body.PutVarint(1);  // one table; metas carry 50 trajectories
    body.PutVarint(0);
    ArchiveReader hostile;
    EXPECT_FALSE(hostile.OpenBytes(WithExtraSection(v2, kTag, body), &error));
    EXPECT_NE(error.find("sync-index"), std::string::npos) << error;
  }

  // A structurally valid spliced table is accepted — the helper builds
  // openable images, so the rejections above are the section's doing.
  {
    common::ByteWriter body;
    body.PutVarint(2);
    body.PutVarint(sys2.compressed().num_trajectories());
    for (size_t j = 0; j < sys2.compressed().num_trajectories(); ++j) {
      body.PutVarint(0);
    }
    ArchiveReader fine;
    EXPECT_TRUE(fine.OpenBytes(WithExtraSection(v2, kTag, body), &error))
        << error;
    EXPECT_EQ(fine.payload().params.t_sync_interval, 2u);
  }
}

}  // namespace
}  // namespace utcq::archive
