// Seed-corpus generator for the fuzz targets: writes real artifacts —
// archives produced by ArchiveWriter, manifests produced by
// EncodeShardManifest, and raw compressed stream bytes — under
// <out>/archive, <out>/manifest and <out>/codecs. Fuzzing from saves the
// system actually performs starts the exploration at the deep decode paths
// instead of the magic-number check; the same files replay as a regression
// suite through fuzz/standalone_main.cc.
//
// The corpus network matches fuzz_archive.cc's (8x8 city, seed 100), so
// replayed archives reconstruct real instances end to end.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "common/bitstream.h"
#include "common/exp_golomb.h"
#include "common/pddp.h"
#include "common/rng.h"
#include "common/serial.h"
#include "core/encoder.h"
#include "core/query.h"
#include "core/stiu_index.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "network/generator.h"
#include "network/grid_index.h"
#include "serve/query_engine.h"
#include "traj/generator.h"
#include "traj/profiles.h"

namespace {

bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<uint8_t> StreamBytes(const utcq::common::BitWriter& w) {
  return w.bytes();
}

/// `image` with `manifest`'s section (tag 8) appended before the footer:
/// the section count (one byte in these images) is bumped and the CRC
/// restamped.
std::vector<uint8_t> WithManifestSection(
    std::vector<uint8_t> image, const utcq::archive::ShardManifest& manifest) {
  // A manifest container is header, count 1, tag 8, then the section's
  // length and body: append those last three.
  const std::vector<uint8_t> container =
      utcq::archive::EncodeShardManifest(manifest);
  image.insert(image.end() - 4, container.begin() + 13, container.end() - 4);
  image[12] += 1;
  const uint32_t crc = utcq::common::Crc32(image.data(), image.size() - 4);
  for (int i = 0; i < 4; ++i) {
    image[image.size() - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return image;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-directory>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path out = argv[1];
  std::error_code ec;
  for (const char* sub : {"archive", "manifest", "codecs", "wire"}) {
    std::filesystem::create_directories(out / sub, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", (out / sub).c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  // The same deterministic network the archive fuzz target opens against.
  utcq::common::Rng net_rng(100);
  utcq::network::CityParams city;
  city.rows = 8;
  city.cols = 8;
  const auto net = utcq::network::GenerateCity(net_rng, city);
  const utcq::network::GridIndex grid(net, 16);

  auto profile = utcq::traj::ChengduProfile();
  utcq::traj::UncertainTrajectoryGenerator gen(net, profile, 4242);
  const auto corpus = gen.GenerateCorpus(6);

  utcq::core::UtcqParams params;
  params.default_interval_s = profile.default_interval_s;
  const utcq::core::UtcqCompressor compressor(net, params);
  const utcq::core::CompressedCorpus cc = compressor.Compress(corpus);
  const utcq::core::StiuIndex index(grid, corpus, cc.view(),
                                    utcq::core::StiuParams{16, 900});

  bool ok = true;

  // --- archives: with index, without index, and empty ---
  ok &= WriteFile((out / "archive" / "with_index.utcqarc").string(),
                  utcq::archive::ArchiveWriter(cc, &index).Serialize());
  // 60 s partitions: the seed trajectories span more partitions than a
  // level-0 copy may, so the section loads into coarser StIU levels too.
  const utcq::core::StiuIndex index_60s(grid, corpus, cc.view(),
                                        utcq::core::StiuParams{16, 60});
  ok &= WriteFile((out / "archive" / "with_index_60s.utcqarc").string(),
                  utcq::archive::ArchiveWriter(cc, &index_60s).Serialize());
  ok &= WriteFile((out / "archive" / "no_index.utcqarc").string(),
                  utcq::archive::ArchiveWriter(cc).Serialize());
  const utcq::core::CompressedCorpus empty =
      compressor.Compress(utcq::traj::UncertainCorpus{});
  ok &= WriteFile((out / "archive" / "empty.utcqarc").string(),
                  utcq::archive::ArchiveWriter(empty).Serialize());

  // Sync-interval coverage (every writer image is v6): dense sync points
  // (K=2 in tag 12, so even the short seed trajectories derive sync tables
  // and the fuzzer starts at the seek paths), and no tag 12 at all.
  {
    utcq::core::UtcqParams dense = params;
    dense.t_sync_interval = 2;
    const utcq::core::UtcqCompressor dense_comp(net, dense);
    ok &= WriteFile(
        (out / "archive" / "v6_dense_sync.utcqarc").string(),
        utcq::archive::ArchiveWriter(dense_comp.Compress(corpus)).Serialize());

    utcq::core::UtcqParams plain = params;
    plain.t_sync_interval = 0;
    const utcq::core::UtcqCompressor plain_comp(net, plain);
    ok &= WriteFile(
        (out / "archive" / "v6_no_sync.utcqarc").string(),
        utcq::archive::ArchiveWriter(plain_comp.Compress(corpus)).Serialize());
  }

  // The indexed image carrying a one-shard manifest section, which the
  // archive target opens as that set's shard: the fuzzer starts at the
  // trajectory-count check against the manifest.
  {
    utcq::archive::ShardManifest m;
    utcq::archive::ShardManifest::Shard s0;
    s0.file = "seed.utcq.shard-000";
    s0.members = {0, 1, 2, 3, 4, 5};
    m.shards = {s0};
    ok &= WriteFile(
        (out / "archive" / "v6_with_manifest_section.utcqarc").string(),
        WithManifestSection(utcq::archive::ArchiveWriter(cc, &index).Serialize(),
                            m));
  }

  // --- manifests: a hash-sharded set and an append-log set ---
  {
    utcq::archive::ShardManifest m;
    m.policy = 0;  // ShardPolicy::kHash
    utcq::archive::ShardManifest::Shard s0;
    s0.file = "seed.utcq.shard-000";
    s0.members = {0, 2, 4};
    utcq::archive::ShardManifest::Shard s1;
    s1.file = "seed.utcq.shard-001";
    s1.members = {1, 3, 5};
    m.shards = {s0, s1};
    ok &= WriteFile((out / "manifest" / "hash.utcqman").string(),
                    utcq::archive::EncodeShardManifest(m));
  }
  {
    utcq::archive::ShardManifest m;
    m.policy = 2;  // ShardPolicy::kAppendLog
    utcq::archive::ShardManifest::Shard g0;
    g0.file = "log.utcq.shard-000";
    g0.members = {0, 1, 2, 3};
    utcq::archive::ShardManifest::Shard g1;
    g1.file = "log.utcq.shard-001";
    g1.members = {4, 5};
    m.shards = {g0, g1};
    ok &= WriteFile((out / "manifest" / "append_log.utcqman").string(),
                    utcq::archive::EncodeShardManifest(m));
  }

  // --- codec streams: the real compressed bit streams, plus a dense file
  // of hand-rolled valid codes of every flavor ---
  ok &= WriteFile((out / "codecs" / "t_stream.bin").string(),
                  StreamBytes(cc.t_stream()));
  ok &= WriteFile((out / "codecs" / "ref_stream.bin").string(),
                  StreamBytes(cc.ref_stream()));
  ok &= WriteFile((out / "codecs" / "nref_stream.bin").string(),
                  StreamBytes(cc.nref_stream()));
  {
    utcq::common::BitWriter w;
    for (uint64_t v = 0; v < 64; ++v) utcq::common::PutExpGolomb(w, v * v, 0);
    for (int64_t d = -40; d <= 40; ++d) {
      utcq::common::PutImprovedExpGolomb(w, d * 7);
    }
    const utcq::common::PddpCodec d_codec(1.0 / 128.0);
    const utcq::common::PddpCodec p_codec(1.0 / 512.0);
    for (int i = 0; i <= 20; ++i) {
      d_codec.Encode(w, i / 20.0);
      p_codec.Encode(w, 1.0 - i / 20.0);
    }
    ok &= WriteFile((out / "codecs" / "valid_codes.bin").string(),
                    StreamBytes(w));
  }

  // --- wire: real request/response captures (§14). The protocol encoders
  // build a pipelined request stream, and a socket-free net::Session —
  // the exact state machine the TCP server runs — answers it over a real
  // QueryEngine, so the captured response bytes are genuine server output,
  // not hand-rolled frames.
  {
    const utcq::core::UtcqQueryProcessor qp(net, cc.view(), index);
    utcq::obs::MetricRegistry registry;
    utcq::serve::EngineOptions engine_opts;
    engine_opts.registry = &registry;
    utcq::serve::QueryEngine engine(qp, engine_opts);

    auto make_frame = [](utcq::net::Op op, uint64_t id,
                         const utcq::common::ByteWriter& w) {
      utcq::net::Frame f;
      f.op = op;
      f.request_id = id;
      f.payload.assign(w.bytes().begin(), w.bytes().end());
      return f;
    };

    std::vector<utcq::net::Frame> requests;
    {
      utcq::common::ByteWriter w;
      utcq::net::EncodeHelloRequest(utcq::net::HelloRequest{}, &w);
      requests.push_back(make_frame(utcq::net::Op::kHello, 1, w));
    }
    {
      utcq::common::ByteWriter w;
      utcq::net::EncodeQueryRequest(
          utcq::serve::QueryRequest::MakeWhere(0, 450, 0.3), &w);
      requests.push_back(make_frame(utcq::net::Op::kQuery, 2, w));
    }
    {
      utcq::common::ByteWriter w;
      utcq::net::EncodeQueryRequest(
          utcq::serve::QueryRequest::MakeWhen(1, 0, 0.5, 0.2), &w);
      requests.push_back(make_frame(utcq::net::Op::kQuery, 3, w));
    }
    {
      utcq::common::ByteWriter w;
      utcq::net::EncodeQueryRequest(
          utcq::serve::QueryRequest::MakeRange(
              utcq::network::Rect{-1e9, -1e9, 1e9, 1e9}, 450, 0.2),
          &w);
      requests.push_back(make_frame(utcq::net::Op::kQuery, 4, w));
    }
    {
      utcq::common::ByteWriter w;
      utcq::net::EncodeBatchRequest(
          {utcq::serve::QueryRequest::MakeWhere(2, 300, 0.4),
           utcq::serve::QueryRequest::MakeWhen(3, 2, 0.25, 0.3)},
          &w);
      requests.push_back(make_frame(utcq::net::Op::kBatch, 5, w));
    }
    requests.push_back(
        make_frame(utcq::net::Op::kStats, 6, utcq::common::ByteWriter{}));
    // A metrics pull after the workload above, so the captured
    // metrics-result frame carries a populated registry snapshot
    // (counters, gauges, and nonempty histogram bucket runs — §15).
    requests.push_back(
        make_frame(utcq::net::Op::kMetrics, 7, utcq::common::ByteWriter{}));
    requests.push_back(
        make_frame(utcq::net::Op::kGoodbye, 8, utcq::common::ByteWriter{}));

    std::vector<uint8_t> request_stream;
    for (const auto& f : requests) {
      utcq::net::AppendFrame(f, &request_stream);
    }
    ok &= WriteFile((out / "wire" / "requests.bin").string(), request_stream);

    utcq::net::Session session(&engine, nullptr, 64, &registry);
    std::vector<uint8_t> response_stream;
    session.HandleFrames(requests, &response_stream);
    ok &= WriteFile((out / "wire" / "responses.bin").string(),
                    response_stream);

    // Each response frame as its own seed, so the fuzzer also starts from
    // single well-formed frames of every response type.
    utcq::net::FrameAssembler splitter;
    splitter.Push(response_stream.data(), response_stream.size());
    utcq::net::Frame frame;
    utcq::net::ErrorCode err;
    int n = 0;
    while (splitter.Next(&frame, &err) ==
           utcq::net::FrameAssembler::Status::kFrame) {
      char name[32];
      std::snprintf(name, sizeof(name), "response_%02d.bin", n++);
      ok &= WriteFile((out / "wire" / name).string(),
                      utcq::net::EncodeFrame(frame));
    }

    // Error captures: a request before hello, then (on a fresh session)
    // an unknown opcode and a rejected version — the kError frames the
    // server actually emits.
    {
      utcq::net::Session strict(&engine, nullptr, 64);
      std::vector<uint8_t> error_stream;
      strict.HandleFrames({requests[1]}, &error_stream);  // no hello first
      utcq::net::Session strict2(&engine, nullptr, 64);
      std::vector<utcq::net::Frame> bad;
      bad.push_back(requests[0]);
      bad.push_back(make_frame(static_cast<utcq::net::Op>(0x42), 8,
                               utcq::common::ByteWriter{}));
      utcq::net::Frame wrong_version = requests[1];
      wrong_version.version = 9;
      bad.push_back(wrong_version);
      // metrics on a registry-less endpoint (not-supported), and metrics
      // with a nonempty payload (malformed) — the two §15 refusals.
      bad.push_back(
          make_frame(utcq::net::Op::kMetrics, 9, utcq::common::ByteWriter{}));
      utcq::common::ByteWriter junk;
      junk.PutU8(0x00);
      bad.push_back(make_frame(utcq::net::Op::kMetrics, 10, junk));
      strict2.HandleFrames(bad, &error_stream);
      ok &= WriteFile((out / "wire" / "errors.bin").string(), error_stream);
    }
  }

  if (!ok) return 1;
  std::printf("seed corpus written under %s\n", out.string().c_str());
  return 0;
}
