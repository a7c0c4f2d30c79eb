// Differential pinning of the decode kernels (DESIGN.md §12).
//
// Every word-at-a-time kernel in strategies/kernels.h, and the
// word-at-a-time BitReader::GetBits, is compared against its bit-at-a-time
// reference in strategies::bitloop on the same inputs: return values,
// cursor positions and overflow() latching must match bit-for-bit — on
// clean streams, truncated streams, structurally invalid codes, buffers
// whose final partial byte carries garbage padding, and the real time
// streams the encoder writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bitstream.h"
#include "common/exp_golomb.h"
#include "common/pddp.h"
#include "common/rng.h"
#include "common/varint.h"
#include "core/utcq.h"
#include "network/grid_index.h"
#include "strategies/kernels.h"
#include "test_fixtures.h"
#include "traj/generator.h"
#include "traj/interpolate.h"
#include "traj/profiles.h"

namespace utcq {
namespace {

using common::BitReader;
using common::BitWriter;
using common::Rng;
namespace bitloop = strategies::bitloop;

/// A random byte buffer viewed as `size_bits` bits. The bytes beyond the
/// last valid bit stay random on purpose: PeekBits64-based kernels must
/// mask that padding to the phantom zeros the bit loop reads.
struct RandomStream {
  std::vector<uint8_t> bytes;
  size_t size_bits = 0;

  BitReader reader() const { return BitReader(bytes.data(), size_bits); }
};

RandomStream MakeRandomStream(Rng& rng, size_t max_bytes) {
  RandomStream s;
  const size_t n = static_cast<size_t>(rng.UniformInt(1, max_bytes));
  s.bytes.resize(n);
  for (auto& b : s.bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  s.size_bits = n * 8 - static_cast<size_t>(rng.UniformInt(0, 7));
  return s;
}

void ExpectSameState(const BitReader& got, const BitReader& want,
                     const char* what) {
  EXPECT_EQ(got.position(), want.position()) << what;
  EXPECT_EQ(got.overflow(), want.overflow()) << what;
}

using ScanFn = int (*)(BitReader&, int);

ScanFn WordScan(bool zeros) {
  return zeros ? &strategies::ScanZeroRun : &strategies::ScanOneRun;
}

ScanFn ReferenceScan(bool zeros) {
  return zeros ? &bitloop::ScanZeroRun : &bitloop::ScanOneRun;
}

TEST(StrategyKernels, GetBitsMatchesReference) {
  const uint64_t seed = test::BaseSeed(1001);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomStream s = MakeRandomStream(rng, 40);
    BitReader got = s.reader();
    BitReader want = s.reader();
    // Read width sequences that cross word boundaries, hit the end and
    // keep reading past it (phantom zeros + latched overflow).
    while (!want.overflow()) {
      const int width = static_cast<int>(rng.UniformInt(0, 64));
      EXPECT_EQ(got.GetBits(width), bitloop::GetBits(want, width))
          << "seed=" << seed << " pos=" << want.position();
      ExpectSameState(got, want, "get_bits");
    }
    // A read after the latch behaves identically too.
    EXPECT_EQ(got.GetBits(17), bitloop::GetBits(want, 17));
    ExpectSameState(got, want, "post-latch");
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceOnRandomStreams) {
  const uint64_t seed = test::BaseSeed(1002);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    // Biased bits make long runs (including overlong ones) likely.
    const double p_one = rng.Uniform(0.02, 0.98);
    BitWriter w;
    const int nbits = static_cast<int>(rng.UniformInt(1, 400));
    for (int i = 0; i < nbits; ++i) w.PutBit(rng.Bernoulli(p_one));
    const bool zeros = rng.Bernoulli(0.5);
    const int max_run = static_cast<int>(rng.UniformInt(0, 80));

    BitReader got(w);
    BitReader want(w);
    while (true) {
      const int a = WordScan(zeros)(got, max_run);
      const int b = ReferenceScan(zeros)(want, max_run);
      EXPECT_EQ(a, b) << "seed=" << seed << " zeros=" << zeros
                      << " max_run=" << max_run
                      << " pos=" << want.position();
      ExpectSameState(got, want, "scan");
      if (a != b || a < 0) break;
    }
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceOnCraftedStreams) {
  // Runs straddling the crafted edges: exactly max_run, one over, truncated
  // by the stream end, empty stream, and a run ending in garbage padding.
  struct Case {
    size_t run;        // leading non-terminator bits
    bool terminated;   // whether a terminator bit follows
    size_t trailing;   // extra random-ish bits after the terminator
    int max_run;
  };
  const Case cases[] = {
      {0, true, 10, 63},   {1, true, 0, 63},    {63, true, 5, 63},
      {64, true, 5, 63},   {62, true, 0, 62},   {63, true, 0, 62},
      {10, false, 0, 63},  {0, false, 0, 63},   {70, false, 0, 63},
      {5, true, 3, 5},     {6, true, 3, 5},     {64, false, 0, 63},
      {65, false, 0, 63},  {128, true, 1, 200}, {130, false, 0, 200},
  };
  for (const bool zeros : {true, false}) {
    for (const Case& c : cases) {
      BitWriter w;
      w.PutRun(!zeros, c.run);
      if (c.terminated) w.PutBit(zeros);
      for (size_t i = 0; i < c.trailing; ++i) w.PutBit((i & 1) != 0);

      // Garbage padding: view one bit fewer than written so the byte's
      // tail carries stale bits past size_bits.
      for (const size_t shrink : {size_t{0}, size_t{1}}) {
        if (shrink > w.size_bits()) continue;
        const size_t bits = w.size_bits() - shrink;
        BitReader got(w.bytes().data(), bits);
        BitReader want(w.bytes().data(), bits);
        EXPECT_EQ(WordScan(zeros)(got, c.max_run),
                  ReferenceScan(zeros)(want, c.max_run))
            << "zeros=" << zeros << " run=" << c.run
            << " max_run=" << c.max_run << " shrink=" << shrink;
        ExpectSameState(got, want, "crafted");
      }
    }
  }
}

TEST(StrategyKernels, UnaryScansMatchReferenceWithPreLatchedOverflow) {
  BitWriter w;
  w.PutRun(false, 20);
  BitReader got(w);
  BitReader want(w);
  got.MarkOverflow();
  want.MarkOverflow();
  EXPECT_EQ(strategies::ScanZeroRun(got, 63), bitloop::ScanZeroRun(want, 63));
  ExpectSameState(got, want, "pre-latched");
  EXPECT_EQ(strategies::ScanOneRun(got, 62), bitloop::ScanOneRun(want, 62));
  ExpectSameState(got, want, "pre-latched");
}

TEST(StrategyKernels, FieldRunsAndUnpackBitsMatchReference) {
  const uint64_t seed = test::BaseSeed(1003);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomStream s = MakeRandomStream(rng, 64);
    // A run of same-width fields (the reference entry-stream walk), with
    // degenerate width 0 and counts that overrun the stream to exercise
    // the tail/overflow path.
    const int width = static_cast<int>(rng.UniformInt(0, 20));
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 80));

    BitReader got = s.reader();
    BitReader want = s.reader();
    std::vector<uint32_t> out_got(n);
    std::vector<uint32_t> out_want(n);
    for (size_t i = 0; i < n; ++i) {
      out_got[i] = static_cast<uint32_t>(got.GetBits(width));
      out_want[i] = static_cast<uint32_t>(bitloop::GetBits(want, width));
    }
    EXPECT_EQ(out_got, out_want)
        << "seed=" << seed << " width=" << width << " n=" << n;
    ExpectSameState(got, want, "fields");

    BitReader bgot = s.reader();
    BitReader bwant = s.reader();
    const size_t skip = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(s.size_bits)));
    bgot.Advance(skip);
    bwant.Advance(skip);
    std::vector<uint8_t> bits_got(n + 1, 0xEE);
    std::vector<uint8_t> bits_want(n + 1, 0xEE);
    strategies::UnpackBits(bgot, bits_got.data(), n);
    bitloop::UnpackBits(bwant, bits_want.data(), n);
    EXPECT_EQ(bits_got, bits_want)
        << "seed=" << seed << " n=" << n << " skip=" << skip;
    ExpectSameState(bgot, bwant, "unpack_bits");
  }
}

TEST(StrategyKernels, CodecsMatchReference) {
  // The integration-shaped differential: the real codec entry points
  // (GetExpGolomb / GetImprovedExpGolomb / PddpCodec::Decode) against the
  // same codes decoded by the bit-at-a-time reference — identical values,
  // cursor positions and overflow state, on clean and truncated streams.
  const uint64_t seed = test::BaseSeed(1004);
  Rng rng(seed);
  const common::PddpCodec pddp(0.001);

  auto ref_exp_golomb = [](BitReader& r, int k) -> uint64_t {
    const int n = bitloop::ScanZeroRun(r, 63);
    if (n < 0) return 0;
    const uint64_t shifted = (uint64_t{1} << n) | bitloop::GetBits(r, n);
    return ((shifted - 1) << k) | bitloop::GetBits(r, k);
  };
  auto ref_improved = [](BitReader& r) -> int64_t {
    const int j = bitloop::ScanOneRun(r, 62);
    if (j <= 0) return 0;
    const bool negative = bitloop::GetBits(r, 1) != 0;
    const int64_t magnitude = static_cast<int64_t>(
        bitloop::GetBits(r, j) + ((uint64_t{1} << j) - 1));
    return negative ? -magnitude : magnitude;
  };

  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<int> ops;      // 0: eg(k), 1: improved, 2: pddp
    std::vector<int> ks_ord;   // order k per eg op
    const int n_ops = static_cast<int>(rng.UniformInt(1, 120));
    for (int i = 0; i < n_ops; ++i) {
      const int op = static_cast<int>(rng.UniformInt(0, 2));
      ops.push_back(op);
      int k = 0;
      switch (op) {
        case 0: {
          k = static_cast<int>(rng.UniformInt(0, 8));
          const uint64_t v = static_cast<uint64_t>(
              rng.UniformInt(0, rng.Bernoulli(0.2) ? 2000000 : 200));
          common::PutExpGolomb(w, v, k);
          break;
        }
        case 1:
          common::PutImprovedExpGolomb(w, rng.UniformInt(-5000, 5000));
          break;
        default:
          pddp.Encode(w, rng.Uniform(0.0, 1.0));
          break;
      }
      ks_ord.push_back(k);
    }
    // Half the trials truncate the stream mid-code to pin the overflow
    // paths through the real codecs.
    size_t bits = w.size_bits();
    if (rng.Bernoulli(0.5)) {
      bits = static_cast<size_t>(rng.UniformInt(0, bits));
    }

    BitReader got(w.bytes().data(), bits);
    BitReader want(w.bytes().data(), bits);
    for (int i = 0; i < n_ops; ++i) {
      switch (ops[i]) {
        case 0:
          EXPECT_EQ(common::GetExpGolomb(got, ks_ord[i]),
                    ref_exp_golomb(want, ks_ord[i]))
              << "seed=" << seed << " op=" << i;
          break;
        case 1:
          EXPECT_EQ(common::GetImprovedExpGolomb(got), ref_improved(want))
              << "seed=" << seed << " op=" << i;
          break;
        default: {
          const double a = pddp.Decode(got);
          const double b = bitloop::PddpDecode(
              want, pddp.length_field_bits(), pddp.max_code_bits());
          // Bitwise double equality, not approximate.
          EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
              << "seed=" << seed << " op=" << i;
          break;
        }
      }
      ExpectSameState(got, want, "codec");
    }
  }
}

TEST(StrategyKernels, PddpDecodeRejectsOversizedLengthLikeReference) {
  // A length field beyond max_bits: structurally invalid (no real codec
  // writes one), must latch overflow after consuming exactly the length
  // field. Driven with raw kernel parameters because a real PddpCodec's
  // field width cannot represent an out-of-range length.
  constexpr int kLengthBits = 4;
  constexpr int kMaxBits = 7;
  BitWriter w;
  w.PutBits(kMaxBits + 2, kLengthBits);
  w.PutBits(0x5A5A5A5A5A5A5Aull, 56);  // bits a buggy kernel might consume
  w.PutBits(0xFF, 8);                  // pad past one peek window
  BitReader got(w);
  BitReader want(w);
  const double a = strategies::PddpDecode(got, kLengthBits, kMaxBits);
  const double b = bitloop::PddpDecode(want, kLengthBits, kMaxBits);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
  EXPECT_TRUE(got.overflow());
  EXPECT_EQ(got.position(), static_cast<size_t>(kLengthBits));
  ExpectSameState(got, want, "pddp oversize");
}

TEST(StrategyKernels, BatchedDeltaDecodeMatchesReference) {
  const uint64_t seed = test::BaseSeed(1006);
  Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    // A run of improved Exp-Golomb deltas biased toward the group-0 codes
    // real time streams are made of, with occasional large outliers.
    const int count = static_cast<int>(rng.UniformInt(0, 80));
    BitWriter w;
    std::vector<int64_t> want_vals;
    for (int i = 0; i < count; ++i) {
      int64_t delta = 0;
      const int shape = static_cast<int>(rng.UniformInt(0, 9));
      if (shape >= 7) {
        delta = rng.UniformInt(-5000, 5000);
      } else if (shape >= 4) {
        delta = rng.UniformInt(-3, 3);
      }
      common::PutImprovedExpGolomb(w, delta);
      want_vals.push_back(delta);
    }
    // Half the trials truncate the stream mid-code; the batch must stop at
    // the same symbol with the same cursor and overflow state.
    size_t bits = w.size_bits();
    if (trial % 2 == 1 && bits > 0) {
      bits -= static_cast<size_t>(rng.UniformInt(1, bits));
    }
    const BitReader base(w.bytes().data(), bits);
    // Ask for more symbols than were written sometimes: the short-count
    // return path must agree too.
    const size_t ask =
        static_cast<size_t>(count) + static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<int64_t> want(ask, -777), got(ask, -777);
    BitReader want_r = base;
    BitReader got_r = base;
    const size_t want_n = bitloop::DecodeIeg(want_r, want.data(), ask);
    const size_t got_n = strategies::DecodeIeg(got_r, got.data(), ask);
    EXPECT_EQ(got_n, want_n) << "seed=" << seed;
    EXPECT_EQ(got, want) << "seed=" << seed;
    ExpectSameState(got_r, want_r, "decode_ieg");
    // On clean full-length streams the decoded deltas are the encoder's.
    if (trial % 2 == 0) {
      ASSERT_EQ(want_n, static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) EXPECT_EQ(want[i], want_vals[i]);
    }
  }
}

TEST(StrategyKernels, BatchedPddpRunMatchesReference) {
  const uint64_t seed = test::BaseSeed(1007);
  Rng rng(seed);
  const common::PddpCodec codec(0.001);
  for (int trial = 0; trial < 200; ++trial) {
    const int count = static_cast<int>(rng.UniformInt(0, 60));
    BitWriter w;
    for (int i = 0; i < count; ++i) {
      codec.Encode(w, rng.Uniform(0.0, 1.0));
    }
    size_t bits = w.size_bits();
    if (trial % 2 == 1 && bits > 0) {
      bits -= static_cast<size_t>(rng.UniformInt(1, bits));
    }
    const BitReader base(w.bytes().data(), bits);
    std::vector<double> want(static_cast<size_t>(count), -1.0);
    std::vector<double> got(static_cast<size_t>(count), -1.0);
    BitReader want_r = base;
    BitReader got_r = base;
    bitloop::PddpRun(want_r, codec.length_field_bits(), codec.max_code_bits(),
                     want.data(), want.size());
    strategies::PddpRun(got_r, codec.length_field_bits(),
                        codec.max_code_bits(), got.data(), got.size());
    // Bitwise double equality; memcmp may not see an empty vector's null
    // data().
    EXPECT_TRUE(want.empty() || std::memcmp(got.data(), want.data(),
                                            want.size() * sizeof(double)) == 0)
        << "seed=" << seed;
    ExpectSameState(got_r, want_r, "pddp_run");
  }
}

/// A small compressed corpus: real encoder output for the stream tests.
struct SmallSystem {
  traj::DatasetProfile profile = traj::ChengduProfile();
  network::RoadNetwork net = test::MakeSmallCity(profile, 14);
  traj::UncertainCorpus corpus = test::MakeSmallCorpus(net, profile, 2024, 40);
  network::GridIndex grid{net, 8};
  core::UtcqSystem sys{net, grid, corpus, Params(profile), {8, 900}};

  static core::UtcqParams Params(const traj::DatasetProfile& p) {
    core::UtcqParams params;
    params.default_interval_s = p.default_interval_s;
    return params;
  }
};

/// One walk of a T block: the varint count, the 17-bit t0 and count - 1
/// improved Exp-Golomb deltas.
struct TimeBlockWalk {
  uint64_t n = 0;
  uint64_t t0 = 0;
  std::vector<int64_t> deltas;
  size_t clean = 0;  // deltas that decoded before overflow latched
  size_t pos = 0;
  bool overflow = false;
};

TimeBlockWalk WalkWithKernels(BitReader r) {
  TimeBlockWalk walk;
  walk.n = common::GetVarint(r);
  walk.t0 = r.GetBits(17);
  // Real counts are small; a corrupt one (truncated block) is capped so the
  // walk stays bounded. Both walks apply the same cap.
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(walk.n > 0 ? walk.n - 1 : 0, 4096));
  walk.deltas.assign(want, -777);
  walk.clean = strategies::DecodeIeg(r, walk.deltas.data(), want);
  walk.pos = r.position();
  walk.overflow = r.overflow();
  return walk;
}

TimeBlockWalk WalkWithReference(BitReader r) {
  TimeBlockWalk walk;
  // The varint framing spelled out bit by bit: a continuation bit and a
  // 7-bit group per byte, least significant group first.
  for (int shift = 0;; shift += 7) {
    const uint64_t byte = bitloop::GetBits(r, 8);
    walk.n |= (byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0 || shift >= 63) break;
  }
  walk.t0 = bitloop::GetBits(r, 17);
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(walk.n > 0 ? walk.n - 1 : 0, 4096));
  walk.deltas.assign(want, -777);
  walk.clean = bitloop::DecodeIeg(r, walk.deltas.data(), want);
  walk.pos = r.position();
  walk.overflow = r.overflow();
  return walk;
}

void ExpectSameWalk(const TimeBlockWalk& got, const TimeBlockWalk& want,
                    size_t j, const char* what) {
  EXPECT_EQ(got.n, want.n) << what << " traj " << j;
  EXPECT_EQ(got.t0, want.t0) << what << " traj " << j;
  EXPECT_EQ(got.deltas, want.deltas) << what << " traj " << j;
  EXPECT_EQ(got.clean, want.clean) << what << " traj " << j;
  EXPECT_EQ(got.pos, want.pos) << what << " traj " << j;
  EXPECT_EQ(got.overflow, want.overflow) << what << " traj " << j;
}

TEST(StrategyStreams, EncoderTimeBlocksMatchReference) {
  // The kernels on encoder output, not only random bits: every
  // trajectory's real T block, walked by both implementations from
  // meta.t_pos, whole and truncated.
  const SmallSystem s;
  const core::CorpusView cc = s.sys.compressed().view();
  const common::BitSpan span = cc.t_span();
  ASSERT_GT(cc.num_trajectories(), 0u);
  Rng rng(test::BaseSeed(1008));
  for (size_t j = 0; j < cc.num_trajectories(); ++j) {
    const core::TrajMeta& meta = cc.meta(j);
    BitReader r(span);
    r.Seek(meta.t_pos);
    const TimeBlockWalk want = WalkWithReference(r);
    const TimeBlockWalk got = WalkWithKernels(r);
    ExpectSameWalk(got, want, j, "whole");
    // A clean walk decodes every sample of the trajectory.
    EXPECT_FALSE(want.overflow) << "traj " << j;
    EXPECT_EQ(want.n, meta.n_points) << "traj " << j;
    EXPECT_EQ(want.clean, want.deltas.size()) << "traj " << j;

    // The same block cut short at a random bit inside it (header included):
    // both must stop on the same symbol with the same cursor and latch.
    const size_t block_bits = want.pos - meta.t_pos;
    const size_t cut = meta.t_pos + static_cast<size_t>(rng.UniformInt(
                                        0, static_cast<int64_t>(block_bits) - 1));
    std::vector<uint8_t> copy(span.data, span.data + span.size_bytes());
    BitReader tr(copy.data(), cut);
    tr.Seek(meta.t_pos);
    const TimeBlockWalk want_cut = WalkWithReference(tr);
    const TimeBlockWalk got_cut = WalkWithKernels(tr);
    ExpectSameWalk(got_cut, want_cut, j, "truncated");
    EXPECT_TRUE(want_cut.overflow) << "traj " << j << " cut=" << cut;
  }
}

TEST(StrategyStreams, BracketInterpolationIsBitExact) {
  // PositionsInBracket shares one fraction and one path walk per instance;
  // each answer must be the exact double PositionInBracket computes alone.
  const SmallSystem s;
  Rng rng(test::BaseSeed(1009));
  for (const traj::UncertainTrajectory& tu : s.corpus) {
    std::vector<const traj::TrajectoryInstance*> insts;
    for (const auto& inst : tu.instances) insts.push_back(&inst);
    for (int q = 0; q < 5; ++q) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(tu.times.size()) - 1));
      const traj::Timestamp t0 = tu.times[i];
      const traj::Timestamp t1 =
          i + 1 < tu.times.size() ? tu.times[i + 1] : t0;
      const traj::Timestamp t = t0 + rng.UniformInt(0, std::max<int64_t>(
                                                           t1 - t0, 0));
      const auto batch = traj::PositionsInBracket(s.net, insts, i, t0, t1, t);
      ASSERT_EQ(batch.size(), insts.size());
      for (size_t k = 0; k < insts.size(); ++k) {
        const traj::NetworkPosition one =
            traj::PositionInBracket(s.net, *insts[k], i, t0, t1, t);
        EXPECT_EQ(batch[k].edge, one.edge);
        EXPECT_EQ(std::memcmp(&batch[k].ndist, &one.ndist, sizeof(double)),
                  0)
            << "traj " << tu.id << " i=" << i << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace utcq
