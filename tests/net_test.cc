// Network serving tier (DESIGN.md §14). Three layers, tested in order of
// distance from a socket:
//   1. net::wire — every request/response payload encodes→decodes
//      bit-exact, every decoder rejects truncation/trailing/out-of-range
//      input, and the FrameAssembler splits pipelined multi-frame buffers
//      correctly at arbitrary byte boundaries.
//   2. net::Session — the socket-free protocol state machine: hello
//      gating, version negotiation, typed error codes, pipelined kQuery
//      runs folding into ExecuteBatch, goodbye.
//   3. net::TcpServer + net::Client — real loopback TCP: answers
//      identical to in-process execution, pipelining, concurrent clients,
//      ingest upload, overload rejection and drain-then-close shutdown
//      leaking no sessions.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "core/utcq.h"
#include "ingest/ingestor.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "network/generator.h"
#include "network/grid_index.h"
#include "serve/query_engine.h"
#include "test_fixtures.h"
#include "traj/generator.h"
#include "traj/profiles.h"

namespace utcq::net {
namespace {

// ----------------------------------------------------------- wire fixture

Frame MakeFrame(Op op, uint64_t id, std::vector<uint8_t> payload = {}) {
  Frame f;
  f.op = op;
  f.request_id = id;
  f.payload = std::move(payload);
  return f;
}

std::vector<uint8_t> PayloadOf(const std::function<void(common::ByteWriter*)>& fn) {
  common::ByteWriter w;
  fn(&w);
  return w.Release();
}

/// The canonical-encoding contract: encode → decode → re-encode must be
/// byte-identical, and the decoded value must equal the original.
template <typename T, typename EncodeFn, typename DecodeFn>
void ExpectBitExactRoundTrip(const T& value, EncodeFn encode,
                             DecodeFn decode) {
  common::ByteWriter w;
  encode(value, &w);
  const std::vector<uint8_t> bytes = w.Release();
  common::ByteReader r(bytes);
  T decoded{};
  ASSERT_TRUE(decode(&r, &decoded));
  EXPECT_TRUE(decoded == value);
  common::ByteWriter again;
  encode(decoded, &again);
  EXPECT_EQ(again.Release(), bytes) << "re-encode is not byte-identical";
}

TEST(Wire, HelloRoundTripsBitExact) {
  HelloRequest req;
  req.min_version = 1;
  req.max_version = 3;
  req.features = 0x55;
  ExpectBitExactRoundTrip(req, EncodeHelloRequest, DecodeHelloRequest);

  HelloResponse resp;
  resp.version = 1;
  resp.features = 0;
  resp.num_trajectories = 12345;
  resp.query_enabled = true;
  resp.ingest_enabled = false;
  ExpectBitExactRoundTrip(resp, EncodeHelloResponse, DecodeHelloResponse);
}

TEST(Wire, QueryRequestRoundTripsBitExactAllKinds) {
  const auto where = serve::QueryRequest::MakeWhere(7, -1234567, 0.35);
  const auto when = serve::QueryRequest::MakeWhen(9, 42, 0.625, 0.2);
  const auto range = serve::QueryRequest::MakeRange(
      network::Rect{-10.5, 3.25, 900.0, 1200.75}, 86400, 0.5);
  for (const auto& req : {where, when, range}) {
    common::ByteWriter w;
    EncodeQueryRequest(req, &w);
    const std::vector<uint8_t> bytes = w.Release();
    common::ByteReader r(bytes);
    serve::QueryRequest decoded;
    ASSERT_TRUE(DecodeQueryRequest(&r, &decoded));
    ASSERT_TRUE(FinishPayload(r));
    EXPECT_EQ(decoded.kind, req.kind);
    EXPECT_EQ(decoded.traj, req.traj);
    EXPECT_EQ(decoded.t, req.t);
    EXPECT_EQ(decoded.edge, req.edge);
    EXPECT_EQ(decoded.rd, req.rd);
    EXPECT_EQ(decoded.alpha, req.alpha);
    EXPECT_EQ(decoded.region.min_x, req.region.min_x);
    EXPECT_EQ(decoded.region.max_y, req.region.max_y);
    common::ByteWriter again;
    EncodeQueryRequest(decoded, &again);
    EXPECT_EQ(again.Release(), bytes);
  }
}

TEST(Wire, QueryResultRoundTripsBitExactWithHits) {
  serve::QueryResult where;
  where.kind = serve::QueryKind::kWhere;
  where.where = {{3, 0.25, {11, 0.75}}, {1, 0.125, {0, 0.0}}};
  serve::QueryResult when;
  when.kind = serve::QueryKind::kWhen;
  when.when = {{2, 0.5, -100}, {0, 1.0, 7200}};
  serve::QueryResult range;
  range.kind = serve::QueryKind::kRange;
  range.range = {5, 0, 2, 300000};  // engine order is preserved verbatim
  for (const auto& result : {where, when, range}) {
    common::ByteWriter w;
    EncodeQueryResult(result, &w);
    const std::vector<uint8_t> bytes = w.Release();
    common::ByteReader r(bytes);
    serve::QueryResult decoded;
    ASSERT_TRUE(DecodeQueryResult(&r, &decoded));
    ASSERT_TRUE(FinishPayload(r));
    EXPECT_TRUE(decoded.where == result.where);
    EXPECT_TRUE(decoded.when == result.when);
    EXPECT_TRUE(decoded.range == result.range);
    common::ByteWriter again;
    EncodeQueryResult(decoded, &again);
    EXPECT_EQ(again.Release(), bytes);
  }
}

TEST(Wire, BatchAndIngestAndStatsRoundTripBitExact) {
  {
    const std::vector<serve::QueryRequest> reqs = {
        serve::QueryRequest::MakeWhere(0, 10, 0.1),
        serve::QueryRequest::MakeWhen(1, 2, 0.5, 0.2),
        serve::QueryRequest::MakeRange({0, 0, 1, 1}, 5, 0.3)};
    common::ByteWriter w;
    EncodeBatchRequest(reqs, &w);
    const std::vector<uint8_t> bytes = w.Release();
    common::ByteReader r(bytes);
    std::vector<serve::QueryRequest> decoded;
    ASSERT_TRUE(DecodeBatchRequest(&r, &decoded));
    ASSERT_TRUE(FinishPayload(r));
    ASSERT_EQ(decoded.size(), reqs.size());
    common::ByteWriter again;
    EncodeBatchRequest(decoded, &again);
    EXPECT_EQ(again.Release(), bytes);
  }
  ExpectBitExactRoundTrip(IngestPointRequest{77, {1.5, -2.5, 1234}},
                          EncodeIngestPoint, DecodeIngestPoint);
  ExpectBitExactRoundTrip(IngestEndRequest{77}, EncodeIngestEnd,
                          DecodeIngestEnd);
  ExpectBitExactRoundTrip(IngestAdvanceRequest{-5000}, EncodeIngestAdvance,
                          DecodeIngestAdvance);
  ExpectBitExactRoundTrip(
      IngestAck{matching::AppendStatus::kDroppedOutOfOrder, 3},
      EncodeIngestAck, DecodeIngestAck);
  StatsResponse stats;
  stats.has_engine = true;
  stats.queries = 10;
  stats.batches = 2;
  stats.cache_hits = 7;
  stats.cache_misses = 3;
  stats.bytes_decoded = 4096;
  stats.p50_latency_us = 12.5;
  stats.p99_latency_us = 90.25;
  stats.has_ingest = true;
  stats.points = 500;
  stats.accepted = 480;
  stats.trajectories_sealed = 4;
  stats.open_sessions = 2;
  ExpectBitExactRoundTrip(stats, EncodeStatsResponse, DecodeStatsResponse);
}

TEST(Wire, ErrorFramesCarryCodes) {
  for (const ErrorCode code :
       {ErrorCode::kBadVersion, ErrorCode::kBadOpcode, ErrorCode::kMalformed,
        ErrorCode::kNotSupported, ErrorCode::kFrameTooLarge,
        ErrorCode::kShuttingDown, ErrorCode::kInternal,
        ErrorCode::kHelloRequired, ErrorCode::kOverloaded}) {
    const Frame frame = MakeErrorFrame(99, code, "details");
    EXPECT_EQ(frame.op, Op::kError);
    EXPECT_EQ(frame.request_id, 99u);
    common::ByteReader r(frame.payload);
    ErrorBody body;
    ASSERT_TRUE(DecodeErrorBody(&r, &body));
    EXPECT_EQ(body.code, code);
    EXPECT_EQ(body.message, "details");
    EXPECT_STRNE(ErrorCodeName(code), "unknown");
  }
  // Messages are capped, never rejected on the encode side.
  const Frame big = MakeErrorFrame(1, ErrorCode::kInternal,
                                   std::string(4096, 'x'));
  common::ByteReader r(big.payload);
  ErrorBody body;
  ASSERT_TRUE(DecodeErrorBody(&r, &body));
  EXPECT_EQ(body.message.size(), kMaxErrorMessageBytes);
}

TEST(Wire, DecodersRejectTruncationAndTrailingBytes) {
  // One (payload, own-decoder) pair per message family. The opcode — not
  // the payload — selects the decoder, so the invariant is that each
  // payload's OWN decoder accepts it exactly and rejects every strict
  // prefix (truncation) and any trailing byte.
  struct Case {
    const char* name;
    std::vector<uint8_t> payload;
    std::function<bool(const std::vector<uint8_t>&)> decode;
  };
  const std::vector<Case> cases = {
      {"where",
       PayloadOf([](common::ByteWriter* w) {
         EncodeQueryRequest(serve::QueryRequest::MakeWhere(3, 99, 0.25), w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         serve::QueryRequest out;
         return DecodeQueryRequest(&r, &out) && FinishPayload(r);
       }},
      {"range",
       PayloadOf([](common::ByteWriter* w) {
         EncodeQueryRequest(
             serve::QueryRequest::MakeRange({0, 0, 10, 10}, 50, 0.5), w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         serve::QueryRequest out;
         return DecodeQueryRequest(&r, &out) && FinishPayload(r);
       }},
      {"ingest_point",
       PayloadOf([](common::ByteWriter* w) {
         EncodeIngestPoint(IngestPointRequest{1, {2.0, 3.0, 4}}, w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         IngestPointRequest out;
         return DecodeIngestPoint(&r, &out);
       }},
      {"stats",
       PayloadOf([](common::ByteWriter* w) {
         EncodeStatsResponse(StatsResponse{}, w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         StatsResponse out;
         return DecodeStatsResponse(&r, &out);
       }},
      {"error",
       PayloadOf([](common::ByteWriter* w) {
         EncodeErrorBody({ErrorCode::kMalformed, "msg"}, w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         ErrorBody out;
         return DecodeErrorBody(&r, &out);
       }},
      {"metrics",
       PayloadOf([](common::ByteWriter* w) {
         obs::MetricRegistry reg;
         reg.GetCounter("a.count").Add(3);
         reg.GetGauge("b.level").Set(-7);
         reg.GetHistogram("c.latency_ns").Record(1234);
         EncodeMetricsResponse(reg.Snapshot(), w);
       }),
       [](const std::vector<uint8_t>& b) {
         common::ByteReader r(b);
         obs::RegistrySnapshot out;
         return DecodeMetricsResponse(&r, &out);
       }},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(c.decode(c.payload)) << c.name;
    for (size_t cut = 0; cut < c.payload.size(); ++cut) {
      EXPECT_FALSE(c.decode(
          std::vector<uint8_t>(c.payload.begin(), c.payload.begin() + cut)))
          << c.name << ": truncation at byte " << cut << " accepted";
    }
    std::vector<uint8_t> padded = c.payload;
    padded.push_back(0);
    EXPECT_FALSE(c.decode(padded)) << c.name << ": trailing byte accepted";
  }
}

TEST(Wire, DecodersRejectOutOfRangeValues) {
  {
    // Trajectory id that does not fit uint32_t.
    common::ByteWriter w;
    w.PutU8(0);  // kWhere
    w.PutVarint(uint64_t{1} << 40);
    w.PutSignedVarint(0);
    w.PutF64(0.5);
    common::ByteReader r(w.bytes());
    serve::QueryRequest out;
    EXPECT_FALSE(DecodeQueryRequest(&r, &out));
  }
  {
    // Non-finite alpha.
    common::ByteWriter w;
    w.PutU8(0);
    w.PutVarint(1);
    w.PutSignedVarint(0);
    w.PutF64(std::numeric_limits<double>::quiet_NaN());
    common::ByteReader r(w.bytes());
    serve::QueryRequest out;
    EXPECT_FALSE(DecodeQueryRequest(&r, &out));
  }
  {
    // Unknown query kind.
    common::ByteWriter w;
    w.PutU8(7);
    common::ByteReader r(w.bytes());
    serve::QueryRequest out;
    EXPECT_FALSE(DecodeQueryRequest(&r, &out));
  }
  {
    // Crafted hit count far beyond the remaining bytes must be rejected
    // before any allocation.
    common::ByteWriter w;
    w.PutU8(0);  // where result
    w.PutVarint(uint64_t{1} << 50);
    common::ByteReader r(w.bytes());
    serve::QueryResult out;
    EXPECT_FALSE(DecodeQueryResult(&r, &out));
  }
  {
    // AppendStatus outside the enum.
    common::ByteWriter w;
    w.PutU8(200);
    w.PutVarint(0);
    common::ByteReader r(w.bytes());
    IngestAck out;
    EXPECT_FALSE(DecodeIngestAck(&r, &out));
  }
  {
    // Error code 0 and error message over the cap.
    common::ByteWriter w;
    w.PutU16(0);
    w.PutBlob("x", 1);
    common::ByteReader r(w.bytes());
    ErrorBody out;
    EXPECT_FALSE(DecodeErrorBody(&r, &out));
    common::ByteWriter w2;
    w2.PutU16(static_cast<uint16_t>(ErrorCode::kInternal));
    const std::string huge(kMaxErrorMessageBytes + 1, 'y');
    w2.PutBlob(huge.data(), huge.size());
    common::ByteReader r2(w2.bytes());
    EXPECT_FALSE(DecodeErrorBody(&r2, &out));
  }
  {
    // NaN ingest coordinates are NOT a wire error: the ingestor owns that
    // judgment (it answers kDroppedNotFinite).
    common::ByteWriter w;
    EncodeIngestPoint(
        {5, {std::numeric_limits<double>::quiet_NaN(), 0.0, 1}}, &w);
    common::ByteReader r(w.bytes());
    IngestPointRequest out;
    EXPECT_TRUE(DecodeIngestPoint(&r, &out));
    EXPECT_TRUE(std::isnan(out.point.x));
  }
}

// ---------------------------------------------------------- metrics wire

TEST(Wire, MetricsResponseRoundTripsCanonically) {
  obs::MetricRegistry reg;
  reg.GetCounter("net.requests.query").Add(41);
  reg.GetCounter("serve.cache.hits").Add(7);
  reg.GetGauge("net.connections.open").Set(3);
  reg.GetGauge("serve.cache.resident_bytes").Set(-12);  // signed survives
  obs::Histogram& h = reg.GetHistogram("net.handle_ns");
  h.Record(5);
  h.Record(5);
  h.Record(900);
  h.Record(123456789);
  reg.GetHistogram("serve.engine.batch_size");  // empty histogram ships too
  const obs::RegistrySnapshot snap = reg.Snapshot();

  common::ByteWriter w;
  EncodeMetricsResponse(snap, &w);
  const std::vector<uint8_t> bytes = w.Release();
  common::ByteReader r(bytes);
  obs::RegistrySnapshot got;
  ASSERT_TRUE(DecodeMetricsResponse(&r, &got));

  ASSERT_EQ(got.counters.size(), snap.counters.size());
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(got.counters[i], snap.counters[i]);
  }
  ASSERT_EQ(got.gauges.size(), snap.gauges.size());
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    EXPECT_EQ(got.gauges[i], snap.gauges[i]);
  }
  ASSERT_EQ(got.histograms.size(), snap.histograms.size());
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(got.histograms[i].first, snap.histograms[i].first);
    EXPECT_EQ(got.histograms[i].second.count, snap.histograms[i].second.count);
    EXPECT_EQ(got.histograms[i].second.sum, snap.histograms[i].second.sum);
    EXPECT_EQ(got.histograms[i].second.buckets,
              snap.histograms[i].second.buckets);
  }

  // Canonical: re-encoding the decoded snapshot is byte-identical.
  common::ByteWriter again;
  EncodeMetricsResponse(got, &again);
  EXPECT_EQ(again.Release(), bytes);
}

TEST(Wire, MetricsDecoderRejectsMalformedPayloads) {
  const auto rejects = [](const std::vector<uint8_t>& payload) {
    common::ByteReader r(payload);
    obs::RegistrySnapshot out;
    return !DecodeMetricsResponse(&r, &out);
  };
  // Unknown payload version.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion + 1);
    w->PutVarint(0);
  })));
  // Unknown instrument kind tag.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(3);  // kinds are 0/1/2
    w->PutBlob("a", 1);
    w->PutVarint(0);
  })));
  // Empty instrument name.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(0);
    w->PutBlob("", 0);
    w->PutVarint(1);
  })));
  // Name over the cap (bytes actually present, so only the cap rejects).
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(0);
    const std::string huge(kMaxMetricNameBytes + 1, 'n');
    w->PutBlob(huge.data(), huge.size());
    w->PutVarint(1);
  })));
  // Names out of order across instruments.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(2);
    w->PutU8(0);
    w->PutBlob("b", 1);
    w->PutVarint(1);
    w->PutU8(0);
    w->PutBlob("a", 1);
    w->PutVarint(1);
  })));
  // Duplicate name (ordering is strict).
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(2);
    w->PutU8(0);
    w->PutBlob("a", 1);
    w->PutVarint(1);
    w->PutU8(1);
    w->PutBlob("a", 1);
    w->PutSignedVarint(1);
  })));
  // Histogram bucket index outside the compile-time layout.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(2);
    w->PutBlob("h", 1);
    w->PutVarint(10);  // sum
    w->PutVarint(1);   // one bucket
    w->PutVarint(obs::Histogram::kNumBuckets);
    w->PutVarint(1);
  })));
  // Zero bucket count (the encoding is sparse; zeros are non-canonical).
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(2);
    w->PutBlob("h", 1);
    w->PutVarint(0);
    w->PutVarint(1);
    w->PutVarint(4);
    w->PutVarint(0);
  })));
  // Bucket indices out of order.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(1);
    w->PutU8(2);
    w->PutBlob("h", 1);
    w->PutVarint(0);
    w->PutVarint(2);
    w->PutVarint(9);
    w->PutVarint(1);
    w->PutVarint(4);
    w->PutVarint(1);
  })));
  // Crafted instrument count far beyond the remaining bytes: rejected
  // before any allocation.
  EXPECT_TRUE(rejects(PayloadOf([](common::ByteWriter* w) {
    w->PutU8(kMetricsPayloadVersion);
    w->PutVarint(uint64_t{1} << 50);
  })));
}

// ------------------------------------------------------- frame assembling

std::vector<Frame> TestFrames() {
  return {
      MakeFrame(Op::kHello, 1,
                PayloadOf([](common::ByteWriter* w) {
                  EncodeHelloRequest(HelloRequest{}, w);
                })),
      MakeFrame(Op::kStats, 2),  // empty payload
      MakeFrame(Op::kQuery, 3,
                PayloadOf([](common::ByteWriter* w) {
                  EncodeQueryRequest(
                      serve::QueryRequest::MakeWhere(1, 100, 0.5), w);
                })),
      MakeFrame(Op::kError, 0,
                MakeErrorFrame(0, ErrorCode::kShuttingDown, "bye").payload),
      MakeFrame(Op::kIngestPoint, 4,
                PayloadOf([](common::ByteWriter* w) {
                  EncodeIngestPoint({9, {1.0, 2.0, 3}}, w);
                })),
  };
}

TEST(FrameAssembler, SplitsPipelinedBuffersAtArbitraryBoundaries) {
  const std::vector<Frame> frames = TestFrames();
  std::vector<uint8_t> stream;
  for (const Frame& f : frames) AppendFrame(f, &stream);

  // Every split of the pipelined buffer into two pushes, plus a
  // byte-by-byte pass, must yield the same frames.
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameAssembler assembler;
    assembler.Push(stream.data(), cut);
    assembler.Push(stream.data() + cut, stream.size() - cut);
    Frame out;
    ErrorCode err;
    for (const Frame& want : frames) {
      ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kFrame)
          << "cut at byte " << cut;
      EXPECT_TRUE(out == want);
    }
    EXPECT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kNeedMore);
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
  {
    FrameAssembler assembler;
    size_t produced = 0;
    Frame out;
    ErrorCode err;
    for (size_t i = 0; i < stream.size(); ++i) {
      assembler.Push(&stream[i], 1);
      while (assembler.Next(&out, &err) == FrameAssembler::Status::kFrame) {
        ASSERT_LT(produced, frames.size());
        EXPECT_TRUE(out == frames[produced]);
        ++produced;
      }
    }
    EXPECT_EQ(produced, frames.size());
  }
}

TEST(FrameAssembler, FramingErrorsLatchTerminally) {
  {
    // Length below the fixed header size.
    common::ByteWriter w;
    w.PutU32(kFrameOverheadBytes - 1);
    FrameAssembler assembler;
    assembler.Push(w.bytes().data(), w.bytes().size());
    Frame out;
    ErrorCode err;
    ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kBad);
    EXPECT_EQ(err, ErrorCode::kMalformed);
    EXPECT_TRUE(assembler.bad());
  }
  {
    // Length beyond the cap: rejected before any allocation.
    common::ByteWriter w;
    w.PutU32(kMaxFrameBytes + 1);
    FrameAssembler assembler;
    assembler.Push(w.bytes().data(), w.bytes().size());
    Frame out;
    ErrorCode err;
    ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kBad);
    EXPECT_EQ(err, ErrorCode::kFrameTooLarge);
    // Terminal: pushing a perfectly valid frame afterwards changes nothing.
    const std::vector<uint8_t> good = EncodeFrame(MakeFrame(Op::kStats, 1));
    assembler.Push(good.data(), good.size());
    ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kBad);
    EXPECT_EQ(err, ErrorCode::kFrameTooLarge);
  }
  {
    // Nonzero reserved field.
    common::ByteWriter w;
    w.PutU32(kFrameOverheadBytes);
    w.PutU8(kProtocolVersion);
    w.PutU8(static_cast<uint8_t>(Op::kStats));
    w.PutU16(0xBEEF);
    w.PutU64(1);
    FrameAssembler assembler;
    assembler.Push(w.bytes().data(), w.bytes().size());
    Frame out;
    ErrorCode err;
    ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kBad);
    EXPECT_EQ(err, ErrorCode::kMalformed);
  }
  {
    // An unsupported *version* is NOT a framing error: the header layout
    // is version-fixed, so the frame is yielded and the session layer
    // answers kBadVersion.
    Frame odd = MakeFrame(Op::kStats, 5);
    odd.version = 9;
    const std::vector<uint8_t> bytes = EncodeFrame(odd);
    FrameAssembler assembler;
    assembler.Push(bytes.data(), bytes.size());
    Frame out;
    ErrorCode err;
    ASSERT_EQ(assembler.Next(&out, &err), FrameAssembler::Status::kFrame);
    EXPECT_EQ(out.version, 9);
  }
}

// -------------------------------------------------------- engine fixture

struct NetFixture {
  NetFixture() {
    const auto profile = traj::ChengduProfile();
    net = test::MakeSmallCity(profile, 12);
    corpus = test::MakeSmallCorpus(net, profile, 4242, 24);
    grid = std::make_unique<network::GridIndex>(net, 16);
    params.default_interval_s = profile.default_interval_s;
    sys = std::make_unique<core::UtcqSystem>(net, *grid, corpus, params,
                                             core::StiuParams{16, 900});
    gen = std::make_unique<traj::UncertainTrajectoryGenerator>(net, profile,
                                                               909);
  }

  std::vector<serve::QueryRequest> MakeWorkload(size_t count,
                                                uint64_t seed) const {
    std::vector<serve::QueryRequest> reqs;
    common::Rng rng(seed);
    const auto bbox = net.bounding_box();
    for (size_t i = 0; i < count; ++i) {
      const auto j =
          static_cast<uint32_t>(rng.UniformInt(0, corpus.size() - 1));
      const auto& tu = corpus[j];
      const double alpha = rng.Uniform(0.1, 0.6);
      switch (rng.UniformInt(0, 2)) {
        case 0:
          reqs.push_back(serve::QueryRequest::MakeWhere(
              j, rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        case 1: {
          const auto& path = tu.instances.front().path;
          reqs.push_back(serve::QueryRequest::MakeWhen(
              j, path[rng.UniformInt(0, path.size() - 1)],
              rng.Uniform(0.0, 1.0), alpha));
          break;
        }
        default: {
          const double cx = rng.Uniform(bbox.min_x, bbox.max_x);
          const double cy = rng.Uniform(bbox.min_y, bbox.max_y);
          const double half = rng.Uniform(200.0, 900.0);
          reqs.push_back(serve::QueryRequest::MakeRange(
              {cx - half, cy - half, cx + half, cy + half},
              rng.UniformInt(tu.times.front(), tu.times.back()), alpha));
          break;
        }
      }
    }
    return reqs;
  }

  static bool SameResult(const serve::QueryResult& a,
                         const serve::QueryResult& b) {
    return a.where == b.where && a.when == b.when && a.range == b.range;
  }

  network::RoadNetwork net;
  traj::UncertainCorpus corpus;
  std::unique_ptr<network::GridIndex> grid;
  core::UtcqParams params;
  std::unique_ptr<core::UtcqSystem> sys;
  std::unique_ptr<traj::UncertainTrajectoryGenerator> gen;
};

NetFixture& Fixture() {
  static NetFixture* fixture = new NetFixture();
  return *fixture;
}

std::vector<Frame> SplitFrames(const std::vector<uint8_t>& bytes) {
  FrameAssembler assembler;
  assembler.Push(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame out;
  ErrorCode err;
  while (assembler.Next(&out, &err) == FrameAssembler::Status::kFrame) {
    frames.push_back(std::move(out));
  }
  EXPECT_FALSE(assembler.bad());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return frames;
}

Frame HelloFrame(uint64_t id = 1) {
  return MakeFrame(Op::kHello, id, PayloadOf([](common::ByteWriter* w) {
                     EncodeHelloRequest(HelloRequest{}, w);
                   }));
}

ErrorBody ErrorOf(const Frame& frame) {
  EXPECT_EQ(frame.op, Op::kError);
  common::ByteReader r(frame.payload);
  ErrorBody body;
  EXPECT_TRUE(DecodeErrorBody(&r, &body));
  return body;
}

// ----------------------------------------------------------- the session

TEST(Session, RequiresHelloFirst) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  Session session(&engine, nullptr, 64);
  std::vector<uint8_t> out;
  const Frame query = MakeFrame(Op::kQuery, 9, PayloadOf([](auto* w) {
    EncodeQueryRequest(serve::QueryRequest::MakeWhere(0, 1, 0.1), w);
  }));
  EXPECT_FALSE(session.HandleFrames({query}, &out));
  const auto frames = SplitFrames(out);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(ErrorOf(frames[0]).code, ErrorCode::kHelloRequired);
  EXPECT_EQ(frames[0].request_id, 9u);
  EXPECT_FALSE(session.helloed());
}

TEST(Session, HelloNegotiatesVersionAndAdvertisesCapabilities) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  {
    Session session(&engine, nullptr, 64);
    std::vector<uint8_t> out;
    ASSERT_TRUE(session.HandleFrames({HelloFrame()}, &out));
    const auto frames = SplitFrames(out);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].op, Op::kHelloOk);
    EXPECT_EQ(frames[0].request_id, 1u);
    common::ByteReader r(frames[0].payload);
    HelloResponse resp;
    ASSERT_TRUE(DecodeHelloResponse(&r, &resp));
    EXPECT_EQ(resp.version, kProtocolVersion);
    EXPECT_EQ(resp.features, 0u);
    EXPECT_EQ(resp.num_trajectories, engine.num_trajectories());
    EXPECT_TRUE(resp.query_enabled);
    EXPECT_FALSE(resp.ingest_enabled);
    EXPECT_TRUE(session.helloed());
  }
  {
    // No version overlap → kBadVersion and the connection closes.
    Session session(&engine, nullptr, 64);
    std::vector<uint8_t> out;
    HelloRequest req;
    req.min_version = 2;
    req.max_version = 5;
    const Frame hello = MakeFrame(
        Op::kHello, 1,
        PayloadOf([&](auto* w) { EncodeHelloRequest(req, w); }));
    EXPECT_FALSE(session.HandleFrames({hello}, &out));
    const auto frames = SplitFrames(out);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(ErrorOf(frames[0]).code, ErrorCode::kBadVersion);
  }
}

TEST(Session, AnswersIdenticalToEngineAndFoldsPipelinedRuns) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  const auto workload = f.MakeWorkload(24, 11);

  // One pipelined burst: hello + every query in one HandleFrames call.
  std::vector<Frame> burst = {HelloFrame()};
  for (size_t i = 0; i < workload.size(); ++i) {
    burst.push_back(MakeFrame(Op::kQuery, 100 + i, PayloadOf([&](auto* w) {
                                EncodeQueryRequest(workload[i], w);
                              })));
  }
  Session session(&engine, nullptr, 1024);
  std::vector<uint8_t> out;
  ASSERT_TRUE(session.HandleFrames(burst, &out));
  const auto frames = SplitFrames(out);
  ASSERT_EQ(frames.size(), 1 + workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const Frame& reply = frames[1 + i];
    ASSERT_EQ(reply.op, Op::kResult) << "query #" << i;
    EXPECT_EQ(reply.request_id, 100 + i) << "responses must keep order";
    common::ByteReader r(reply.payload);
    serve::QueryResult got;
    ASSERT_TRUE(DecodeQueryResult(&r, &got));
    ASSERT_TRUE(FinishPayload(r));
    EXPECT_TRUE(NetFixture::SameResult(got, engine.Execute(workload[i])))
        << "network answer differs from in-process, query #" << i;
  }
  // The whole run folded into one ExecuteBatch call (plus the comparison
  // Executes above): exactly 1 batch on the engine's counters.
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(Session, ErrorPolicyPerOpcode) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  Session session(&engine, nullptr, 64);
  std::vector<uint8_t> out;
  ASSERT_TRUE(session.HandleFrames({HelloFrame()}, &out));
  out.clear();

  // Unknown opcode: answered, connection stays open.
  ASSERT_TRUE(
      session.HandleFrames({MakeFrame(static_cast<Op>(0x5E), 2)}, &out));
  // A response opcode sent as a request: same.
  ASSERT_TRUE(session.HandleFrames({MakeFrame(Op::kResult, 3)}, &out));
  // Malformed query payload: kMalformed, stays open.
  ASSERT_TRUE(session.HandleFrames(
      {MakeFrame(Op::kQuery, 4, {0xFF, 0xFF, 0xFF})}, &out));
  // Ingest on a query-only endpoint: kNotSupported, stays open.
  ASSERT_TRUE(session.HandleFrames(
      {MakeFrame(Op::kIngestEnd, 5, PayloadOf([](auto* w) {
                   EncodeIngestEnd(IngestEndRequest{1}, w);
                 }))},
      &out));
  // A second hello: kBadOpcode, stays open.
  ASSERT_TRUE(session.HandleFrames({HelloFrame(6)}, &out));
  const auto frames = SplitFrames(out);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(ErrorOf(frames[0]).code, ErrorCode::kBadOpcode);
  EXPECT_EQ(ErrorOf(frames[1]).code, ErrorCode::kBadOpcode);
  EXPECT_EQ(ErrorOf(frames[2]).code, ErrorCode::kMalformed);
  EXPECT_EQ(ErrorOf(frames[3]).code, ErrorCode::kNotSupported);
  EXPECT_EQ(ErrorOf(frames[4]).code, ErrorCode::kBadOpcode);
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].request_id, 2 + i);
  }

  // A frame with the wrong negotiated version: kBadVersion, closes.
  out.clear();
  Frame wrong = MakeFrame(Op::kStats, 7);
  wrong.version = 3;
  EXPECT_FALSE(session.HandleFrames({wrong}, &out));
  const auto closing = SplitFrames(out);
  ASSERT_EQ(closing.size(), 1u);
  EXPECT_EQ(ErrorOf(closing[0]).code, ErrorCode::kBadVersion);

  // Goodbye on a fresh session: kGoodbyeOk, closes.
  Session bye(&engine, nullptr, 64);
  out.clear();
  ASSERT_TRUE(bye.HandleFrames({HelloFrame()}, &out));
  EXPECT_FALSE(bye.HandleFrames({MakeFrame(Op::kGoodbye, 2)}, &out));
  const auto all = SplitFrames(out);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].op, Op::kGoodbyeOk);
  EXPECT_EQ(all[1].request_id, 2u);
}

// ------------------------------------------------------------ TCP layers

TEST(TcpServer, QueriesBatchesAndStatsMatchInProcess) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  TcpServer server(&engine, nullptr);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()))
      << client.last_status().message;
  EXPECT_TRUE(client.hello().query_enabled);
  EXPECT_FALSE(client.hello().ingest_enabled);
  EXPECT_EQ(client.hello().num_trajectories, engine.num_trajectories());

  const auto workload = f.MakeWorkload(18, 21);
  for (const auto& req : workload) {
    serve::QueryResult got;
    const auto status = client.Query(req, &got);
    ASSERT_TRUE(status.ok) << status.message;
    EXPECT_TRUE(NetFixture::SameResult(got, engine.Execute(req)));
  }

  std::vector<serve::QueryResult> batch;
  ASSERT_TRUE(client.Batch(workload, &batch).ok);
  const auto local = engine.ExecuteBatch(workload);
  ASSERT_EQ(batch.size(), local.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(NetFixture::SameResult(batch[i], local[i]));
  }

  StatsResponse stats;
  ASSERT_TRUE(client.Stats(&stats).ok);
  EXPECT_TRUE(stats.has_engine);
  EXPECT_FALSE(stats.has_ingest);
  EXPECT_GE(stats.queries, workload.size());

  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(TcpServer, PipelinedBurstMatchesInProcessInOrder) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  TcpServer server(&engine, nullptr);
  ASSERT_TRUE(server.Start());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const auto workload = f.MakeWorkload(32, 31);
  std::vector<uint64_t> ids;
  for (const auto& req : workload) ids.push_back(client.SendQuery(req));
  ASSERT_TRUE(client.Flush());
  const auto local = engine.ExecuteBatch(workload);
  for (size_t i = 0; i < workload.size(); ++i) {
    uint64_t id = 0;
    serve::QueryResult got;
    const auto status = client.Receive(&id, &got);
    ASSERT_TRUE(status.ok) << status.message;
    EXPECT_EQ(id, ids[i]) << "pipelined responses must keep request order";
    EXPECT_TRUE(NetFixture::SameResult(got, local[i]));
  }
  client.Close();
  server.Shutdown();
}

TEST(TcpServer, IngestsPointsOverTheWire) {
  NetFixture& f = Fixture();
  matching::OnlineMatchParams match;
  match.match.gps_sigma_m = 15.0;
  match.match.max_instances = 6;
  ingest::SessionLimits limits;
  limits.max_points = 400;
  limits.idle_timeout_s = 300;
  std::atomic<size_t> sealed{0};
  ingest::StreamIngestor ingestor(
      f.net, *f.grid, match, limits,
      [&sealed](traj::UncertainTrajectory&&, ingest::SealReason) {
        sealed.fetch_add(1);
      });

  TcpServer server(nullptr, &ingestor);
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(client.hello().query_enabled);
  EXPECT_TRUE(client.hello().ingest_enabled);

  const auto raw = f.gen->GenerateRaw().raw;
  ASSERT_GE(raw.size(), 4u);
  size_t accepted = 0;
  for (const auto& p : raw) {
    IngestAck ack;
    ASSERT_TRUE(client.IngestPoint(7, p, &ack).ok);
    if (ack.status == matching::AppendStatus::kAccepted) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
  // A NaN point is acknowledged as a typed drop, not a protocol error.
  {
    IngestAck ack;
    const traj::RawPoint bad{std::numeric_limits<double>::quiet_NaN(), 0.0,
                             raw.back().t + 10};
    ASSERT_TRUE(client.IngestPoint(7, bad, &ack).ok);
    EXPECT_EQ(ack.status, matching::AppendStatus::kDroppedNotFinite);
  }
  IngestAck end_ack;
  ASSERT_TRUE(client.IngestEnd(7, &end_ack).ok);
  EXPECT_EQ(end_ack.status, matching::AppendStatus::kAccepted);
  EXPECT_EQ(end_ack.sealed, sealed.load());
  EXPECT_EQ(ingestor.open_sessions(), 0u);
  EXPECT_EQ(ingestor.stats().points, raw.size() + 1);

  // A query opcode on the ingest-only endpoint: typed kNotSupported.
  serve::QueryResult unused;
  const auto status =
      client.Query(serve::QueryRequest::MakeWhere(0, 1, 0.1), &unused);
  EXPECT_FALSE(status.ok);
  EXPECT_TRUE(status.server_error);
  EXPECT_EQ(status.code, ErrorCode::kNotSupported);

  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST(TcpServer, ConcurrentClientsAllMatchInProcess) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  TcpServer server(&engine, nullptr);
  ASSERT_TRUE(server.Start());

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port())) {
        failures.fetch_add(1);
        return;
      }
      const auto workload = f.MakeWorkload(12, 1000 + c);
      for (const auto& req : workload) {
        serve::QueryResult got;
        if (!client.Query(req, &got).ok) {
          failures.fetch_add(1);
          return;
        }
        if (!NetFixture::SameResult(got, engine.Execute(req))) {
          mismatches.fetch_add(1);
        }
      }
      client.Close();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  server.Shutdown();
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.counters().connections_accepted,
            static_cast<uint64_t>(kClients));
}

TEST(TcpServer, RejectsConnectionsBeyondTheLimit) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  ServerOptions opts;
  opts.max_connections = 1;
  TcpServer server(&engine, nullptr, opts);
  ASSERT_TRUE(server.Start());

  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  // Ensure the first connection is fully registered before the second.
  StatsResponse stats;
  ASSERT_TRUE(first.Stats(&stats).ok);

  Client second;
  EXPECT_FALSE(second.Connect("127.0.0.1", server.port()));
  // When the overload error outruns the close, it carries the typed code;
  // a transport-level failure is also acceptable, never a hang.
  if (second.last_status().server_error) {
    EXPECT_EQ(second.last_status().code, ErrorCode::kOverloaded);
  }

  first.Close();
  server.Shutdown();
  EXPECT_EQ(server.counters().connections_rejected, 1u);
}

TEST(TcpServer, ShutdownDrainsFlushesAndLeaksNoSessions) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  TcpServer server(&engine, nullptr);
  ASSERT_TRUE(server.Start());

  // Three idle connections are open when Shutdown fires: each must be
  // woken, drained and joined — never leaked, never hung.
  Client a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()));
  ASSERT_EQ(server.active_connections(), 3u);

  // One of them has a full pipelined burst already answered — proving the
  // server processed frames on this connection before the drain.
  const auto workload = f.MakeWorkload(8, 51);
  std::vector<uint64_t> ids;
  for (const auto& req : workload) ids.push_back(a.SendQuery(req));
  ASSERT_TRUE(a.Flush());
  for (size_t i = 0; i < workload.size(); ++i) {
    uint64_t id = 0;
    serve::QueryResult got;
    ASSERT_TRUE(a.Receive(&id, &got).ok);
  }

  server.Shutdown();
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_FALSE(server.running());

  // The clients see clean EOFs, not hangs.
  Frame unused;
  EXPECT_FALSE(a.ReceiveFrame(&unused));
  EXPECT_FALSE(b.ReceiveFrame(&unused));

  // The server object is reusable: Start() again binds a fresh port.
  ASSERT_TRUE(server.Start());
  Client again;
  EXPECT_TRUE(again.Connect("127.0.0.1", server.port()));
  again.Close();
  server.Shutdown();
}

// -------------------------------------------------------- metrics serving

TEST(Session, MetricsErrorPolicy) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  // A directly-constructed Session with no registry has nothing to export:
  // typed kNotSupported, connection stays open.
  {
    Session session(&engine, nullptr, 64);
    std::vector<uint8_t> out;
    ASSERT_TRUE(session.HandleFrames({HelloFrame()}, &out));
    out.clear();
    ASSERT_TRUE(session.HandleFrames({MakeFrame(Op::kMetrics, 2)}, &out));
    const auto frames = SplitFrames(out);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(ErrorOf(frames[0]).code, ErrorCode::kNotSupported);
  }
  // The request payload is specified empty; anything else is kMalformed.
  {
    obs::MetricRegistry reg;
    Session session(&engine, nullptr, 64, &reg);
    std::vector<uint8_t> out;
    ASSERT_TRUE(session.HandleFrames({HelloFrame()}, &out));
    out.clear();
    ASSERT_TRUE(
        session.HandleFrames({MakeFrame(Op::kMetrics, 2, {0x00})}, &out));
    const auto frames = SplitFrames(out);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(ErrorOf(frames[0]).code, ErrorCode::kMalformed);
  }
}

TEST(TcpServer, MetricsReconcileExactlyWithTheIssuedWorkload) {
  NetFixture& f = Fixture();
  // One registry spans the engine and the server, so the exported snapshot
  // carries serve.* and net.* series together.
  obs::MetricRegistry reg;
  serve::EngineOptions eopts;
  eopts.registry = &reg;
  serve::QueryEngine engine(f.sys->queries(), eopts);
  ServerOptions sopts;
  sopts.registry = &reg;
  TcpServer server(&engine, nullptr, sopts);
  ASSERT_TRUE(server.Start());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const auto workload = f.MakeWorkload(23, 77);
  for (const auto& req : workload) {
    serve::QueryResult got;
    ASSERT_TRUE(client.Query(req, &got).ok);
  }
  StatsResponse stats_resp;
  ASSERT_TRUE(client.Stats(&stats_resp).ok);
  // One malformed query: must land in net.errors, not in the query count
  // (the counter tracks requests received, so the bad frame still counts
  // as a query request).
  client.SendFrame(MakeFrame(Op::kQuery, 9999, {0xFF}));
  Frame err_frame;
  ASSERT_TRUE(client.ReceiveFrame(&err_frame));
  EXPECT_EQ(err_frame.op, Op::kError);

  obs::RegistrySnapshot snap;
  ASSERT_TRUE(client.Metrics(&snap).ok) << client.last_status().message;

  const auto counter = [&snap](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter " << name << " missing from the snapshot";
    return 0;
  };
  // Requests by opcode reconcile exactly with what this client issued on
  // the lone connection: 1 hello, queries + 1 malformed, 1 stats. The
  // metrics fetch itself was counted before the snapshot was taken.
  EXPECT_EQ(counter("net.requests.hello"), 1u);
  EXPECT_EQ(counter("net.requests.query"), workload.size() + 1);
  EXPECT_EQ(counter("net.requests.stats"), 1u);
  EXPECT_EQ(counter("net.requests.metrics"), 1u);
  EXPECT_EQ(counter("net.errors"), 1u);

  // Cache accounting: hits + misses == the engine's own lookup totals,
  // and the exported counters equal EngineStats exactly.
  const auto es = engine.stats();
  EXPECT_EQ(counter("serve.cache.hits"), es.cache_hits);
  EXPECT_EQ(counter("serve.cache.misses"), es.cache_misses);
  EXPECT_EQ(counter("serve.cache.hits") + counter("serve.cache.misses"),
            es.cache_hits + es.cache_misses);
  EXPECT_EQ(counter("serve.engine.queries"), es.queries);
  EXPECT_EQ(es.queries, workload.size());

  // The connection gauge reads 1 while this client is connected.
  int64_t open = -1;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "net.connections.open") open = v;
  }
  EXPECT_EQ(open, 1);

  // Latency spans were recorded for every HandleFrames call.
  bool found_handle = false;
  for (const auto& [n, h] : snap.histograms) {
    if (n == "net.handle_ns") {
      found_handle = true;
      EXPECT_GT(h.count, 0u);
    }
  }
  EXPECT_TRUE(found_handle);

  client.Close();
  server.Shutdown();

  // After the drain the gauge returns to zero.
  const obs::RegistrySnapshot after = reg.Snapshot();
  for (const auto& [n, v] : after.gauges) {
    if (n == "net.connections.open") EXPECT_EQ(v, 0);
  }
}

TEST(TcpServer, OwnedRegistryAnswersMetricsWhenNonePassed) {
  NetFixture& f = Fixture();
  serve::QueryEngine engine(f.sys->queries());
  TcpServer server(&engine, nullptr);  // no registry in the options
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  obs::RegistrySnapshot snap;
  ASSERT_TRUE(client.Metrics(&snap).ok) << client.last_status().message;
  // The server-owned registry still carries the net.* series (the engine
  // keeps its private registry, so serve.* is absent here).
  bool saw_hello = false;
  for (const auto& [n, v] : snap.counters) {
    if (n == "net.requests.hello") {
      saw_hello = true;
      EXPECT_EQ(v, 1u);
    }
  }
  EXPECT_TRUE(saw_hello);
  client.Close();
  server.Shutdown();
}

}  // namespace
}  // namespace utcq::net
