// Fuzz target: the network frame decoder (§14). The FrameAssembler is the
// first code that touches attacker-controlled bytes on the serving tier,
// so it must absorb truncated, oversized, mis-versioned and bad-opcode
// frames without crashing or allocating unboundedly. Three invariants are
// enforced with traps:
//
//   1. Chunking independence: feeding the byte stream one odd-sized chunk
//      at a time must yield exactly the frames (and the same terminal
//      error, if any) as feeding it in one push — the transport is free to
//      split reads at any byte boundary.
//   2. Canonical encoding: any payload a typed decoder accepts must
//      re-encode byte-identically (DESIGN.md §14 "Canonical encodings").
//   3. Frame bounds: a yielded frame never exceeds the advertised caps,
//      and after kBad the assembler stays bad with the same code.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "net/wire.h"

namespace {

using utcq::net::ErrorCode;
using utcq::net::Frame;
using utcq::net::FrameAssembler;
using utcq::net::Op;

struct StreamResult {
  std::vector<Frame> frames;
  bool bad = false;
  ErrorCode code = ErrorCode::kMalformed;
};

StreamResult Consume(FrameAssembler* assembler) {
  StreamResult result;
  Frame frame;
  ErrorCode err = ErrorCode::kMalformed;
  for (;;) {
    const FrameAssembler::Status status = assembler->Next(&frame, &err);
    if (status == FrameAssembler::Status::kFrame) {
      result.frames.push_back(frame);
      continue;
    }
    if (status == FrameAssembler::Status::kBad) {
      result.bad = true;
      result.code = err;
      // Terminal: the same answer must come back forever.
      ErrorCode again = ErrorCode::kInternal;
      if (assembler->Next(&frame, &again) != FrameAssembler::Status::kBad ||
          again != err || !assembler->bad()) {
        __builtin_trap();
      }
    }
    return result;
  }
}

/// Invariant 2: a payload the typed decoder for `op` accepts in full must
/// re-encode to exactly the bytes it was decoded from.
void CheckCanonical(const Frame& frame) {
  utcq::common::ByteReader r(frame.payload);
  utcq::common::ByteWriter w;
  bool decoded = false;
  switch (frame.op) {
    case Op::kHello: {
      utcq::net::HelloRequest msg;
      if ((decoded = utcq::net::DecodeHelloRequest(&r, &msg))) {
        utcq::net::EncodeHelloRequest(msg, &w);
      }
      break;
    }
    case Op::kHelloOk: {
      utcq::net::HelloResponse msg;
      if ((decoded = utcq::net::DecodeHelloResponse(&r, &msg))) {
        utcq::net::EncodeHelloResponse(msg, &w);
      }
      break;
    }
    case Op::kQuery: {
      utcq::serve::QueryRequest msg;
      if ((decoded = utcq::net::DecodeQueryRequest(&r, &msg) &&
                     utcq::net::FinishPayload(r))) {
        utcq::net::EncodeQueryRequest(msg, &w);
      }
      break;
    }
    case Op::kResult: {
      utcq::serve::QueryResult msg;
      if ((decoded = utcq::net::DecodeQueryResult(&r, &msg) &&
                     utcq::net::FinishPayload(r))) {
        utcq::net::EncodeQueryResult(msg, &w);
      }
      break;
    }
    case Op::kBatch: {
      std::vector<utcq::serve::QueryRequest> msg;
      if ((decoded = utcq::net::DecodeBatchRequest(&r, &msg) &&
                     utcq::net::FinishPayload(r))) {
        utcq::net::EncodeBatchRequest(msg, &w);
      }
      break;
    }
    case Op::kBatchResult: {
      std::vector<utcq::serve::QueryResult> msg;
      if ((decoded = utcq::net::DecodeBatchResult(&r, &msg) &&
                     utcq::net::FinishPayload(r))) {
        utcq::net::EncodeBatchResult(msg, &w);
      }
      break;
    }
    case Op::kIngestPoint: {
      utcq::net::IngestPointRequest msg;
      if ((decoded = utcq::net::DecodeIngestPoint(&r, &msg))) {
        utcq::net::EncodeIngestPoint(msg, &w);
      }
      break;
    }
    case Op::kIngestEnd: {
      utcq::net::IngestEndRequest msg;
      if ((decoded = utcq::net::DecodeIngestEnd(&r, &msg))) {
        utcq::net::EncodeIngestEnd(msg, &w);
      }
      break;
    }
    case Op::kIngestAdvanceTime: {
      utcq::net::IngestAdvanceRequest msg;
      if ((decoded = utcq::net::DecodeIngestAdvance(&r, &msg))) {
        utcq::net::EncodeIngestAdvance(msg, &w);
      }
      break;
    }
    case Op::kIngestAck: {
      utcq::net::IngestAck msg;
      if ((decoded = utcq::net::DecodeIngestAck(&r, &msg))) {
        utcq::net::EncodeIngestAck(msg, &w);
      }
      break;
    }
    case Op::kStatsResult: {
      utcq::net::StatsResponse msg;
      if ((decoded = utcq::net::DecodeStatsResponse(&r, &msg))) {
        utcq::net::EncodeStatsResponse(msg, &w);
      }
      break;
    }
    case Op::kError: {
      utcq::net::ErrorBody msg;
      if ((decoded = utcq::net::DecodeErrorBody(&r, &msg))) {
        utcq::net::EncodeErrorBody(msg, &w);
      }
      break;
    }
    default:
      return;  // kStats/kGoodbye/kGoodbyeOk carry no payload; others unknown
  }
  if (decoded && !std::ranges::equal(w.bytes(), frame.payload)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Whole-stream pass.
  FrameAssembler whole;
  whole.Push(data, size);
  const StreamResult expect = Consume(&whole);

  // Chunked pass: odd-sized chunks so frame boundaries land everywhere.
  FrameAssembler chunked;
  StreamResult got;
  static constexpr size_t kChunks[] = {1, 3, 7, 2, 13, 5, 11, 1};
  size_t off = 0;
  size_t turn = 0;
  while (off < size && !got.bad) {
    const size_t n = std::min(kChunks[turn++ % 8], size - off);
    chunked.Push(data + off, n);
    off += n;
    const StreamResult step = Consume(&chunked);
    got.frames.insert(got.frames.end(), step.frames.begin(),
                      step.frames.end());
    got.bad = step.bad;
    got.code = step.code;
  }

  // Invariant 1: a framing error is determined by a byte prefix and
  // latches, so the chunked pass must land in exactly the same state and
  // must have yielded exactly the same frames on the way there.
  if (got.bad != expect.bad) __builtin_trap();
  if (got.bad && got.code != expect.code) __builtin_trap();
  if (got.frames.size() != expect.frames.size()) __builtin_trap();
  for (size_t i = 0; i < got.frames.size(); ++i) {
    if (!(got.frames[i] == expect.frames[i])) __builtin_trap();
  }

  for (const Frame& frame : expect.frames) {
    // Invariant 3: the assembler never yields more payload than the cap.
    if (frame.payload.size() >
        utcq::net::kMaxFrameBytes - utcq::net::kFrameOverheadBytes) {
      __builtin_trap();
    }
    // A yielded frame must re-frame to bytes the assembler accepts again.
    FrameAssembler again;
    const std::vector<uint8_t> bytes = utcq::net::EncodeFrame(frame);
    again.Push(bytes.data(), bytes.size());
    Frame copy;
    ErrorCode err;
    if (again.Next(&copy, &err) != FrameAssembler::Status::kFrame ||
        !(copy == frame)) {
      __builtin_trap();
    }
    CheckCanonical(frame);
  }
  return 0;
}
