#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitstream.h"
#include "common/exp_golomb.h"
#include "common/pddp.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "common/wah_bitmap.h"

namespace utcq::common {
namespace {

// ---------------------------------------------------------------- bitstream

TEST(BitStream, SingleBits) {
  BitWriter w;
  w.PutBit(true);
  w.PutBit(false);
  w.PutBit(true);
  EXPECT_EQ(w.size_bits(), 3u);
  BitReader r(w);
  EXPECT_TRUE(r.GetBit());
  EXPECT_FALSE(r.GetBit());
  EXPECT_TRUE(r.GetBit());
  EXPECT_FALSE(r.overflow());
}

TEST(BitStream, MultiBitRoundTrip) {
  BitWriter w;
  w.PutBits(0b101101, 6);
  w.PutBits(0xDEADBEEF, 32);
  w.PutBits(0, 0);  // zero width writes nothing
  w.PutBits(1, 1);
  BitReader r(w);
  EXPECT_EQ(r.GetBits(6), 0b101101u);
  EXPECT_EQ(r.GetBits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.GetBits(1), 1u);
}

TEST(BitStream, SeekReadsAtArbitraryPositions) {
  BitWriter w;
  for (int i = 0; i < 100; ++i) w.PutBits(static_cast<uint64_t>(i), 7);
  BitReader r(w);
  r.Seek(7 * 42);
  EXPECT_EQ(r.GetBits(7), 42u);
  r.Seek(7 * 99);
  EXPECT_EQ(r.GetBits(7), 99u);
  r.Seek(0);
  EXPECT_EQ(r.GetBits(7), 0u);
}

TEST(BitStream, OverflowSetsFlag) {
  BitWriter w;
  w.PutBits(3, 2);
  BitReader r(w);
  r.GetBits(2);
  EXPECT_FALSE(r.overflow());
  r.GetBit();
  EXPECT_TRUE(r.overflow());
}

TEST(BitStream, AppendConcatenates) {
  BitWriter a;
  a.PutBits(0b1011, 4);
  BitWriter b;
  b.PutBits(0b001, 3);
  a.Append(b);
  BitReader r(a);
  EXPECT_EQ(r.GetBits(7), 0b1011001u);
}

TEST(BitStream, BitAt) {
  BitWriter w;
  w.PutBits(0b10110, 5);
  EXPECT_TRUE(w.BitAt(0));
  EXPECT_FALSE(w.BitAt(1));
  EXPECT_TRUE(w.BitAt(2));
  EXPECT_TRUE(w.BitAt(3));
  EXPECT_FALSE(w.BitAt(4));
}

TEST(BitsFor, Values) {
  EXPECT_EQ(BitsFor(0), 0);
  EXPECT_EQ(BitsFor(1), 1);
  EXPECT_EQ(BitsFor(2), 2);
  EXPECT_EQ(BitsFor(3), 2);
  EXPECT_EQ(BitsFor(4), 3);
  EXPECT_EQ(BitsFor(7), 3);
  EXPECT_EQ(BitsFor(8), 4);
  EXPECT_EQ(BitsFor(255), 8);
  EXPECT_EQ(BitsFor(256), 9);
}

// ------------------------------------------------------------------- varint

TEST(Varint, RoundTripSmallAndLarge) {
  BitWriter w;
  const std::vector<uint64_t> values = {0,    1,       127,        128,
                                        300,  16383,   16384,      1u << 20,
                                        ~0ull >> 1, 0xFFFFFFFFFFFFFFFFull};
  for (const auto v : values) PutVarint(w, v);
  BitReader r(w);
  for (const auto v : values) EXPECT_EQ(GetVarint(r), v);
}

TEST(Varint, SignedZigZag) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(-123456)), -123456);
  BitWriter w;
  for (int64_t v = -70; v <= 70; v += 7) PutSignedVarint(w, v);
  BitReader r(w);
  for (int64_t v = -70; v <= 70; v += 7) EXPECT_EQ(GetSignedVarint(r), v);
}

// ---------------------------------------------------- byte serialization

/// The container's byte layout spelled out one byte at a time:
/// little-endian fixed widths and LEB128 varints.
struct ByteAtATimeEncoder {
  std::vector<uint8_t> out;

  void Fixed(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Varint(uint64_t v) {
    do {
      uint8_t b = v & 0x7F;
      v >>= 7;
      if (v != 0) b |= 0x80;
      out.push_back(b);
    } while (v != 0);
  }
  void SignedVarint(int64_t v) {
    Varint((static_cast<uint64_t>(v) << 1) ^ (v < 0 ? ~uint64_t{0} : 0));
  }
};

TEST(ByteWriter, MatchesByteAtATimeEncoding) {
  const std::vector<uint64_t> varints = {
      0,           1,           127,          128,
      16383,       16384,       0xFFFFFFFFu,  uint64_t{1} << 32,
      uint64_t{1} << 63,        std::numeric_limits<uint64_t>::max()};
  const std::vector<int64_t> signed_varints = {
      0, -1, 1, -64, 63, -65, 64,
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max()};
  const uint8_t raw[] = {9, 8, 7};

  const auto put_all = [&](auto& out) {
    for (const uint64_t v : varints) out.PutVarint(v);
    for (const int64_t v : signed_varints) out.PutSignedVarint(v);
    out.PutU8(0xAB);
    out.PutU16(0xBEEF);
    out.PutU32(0xDEADBEEFu);
    out.PutU64(0x0123456789ABCDEFull);
    out.PutF32(1.5f);
    out.PutF32(-0.0f);
    out.PutF64(0.1);
    out.PutBytes(raw, sizeof(raw));
    out.PutBytes(nullptr, 0);
    out.PutBlob(raw, sizeof(raw));
  };
  ByteAtATimeEncoder ref;
  for (const uint64_t v : varints) ref.Varint(v);
  for (const int64_t v : signed_varints) ref.SignedVarint(v);
  ref.Fixed(0xAB, 1);
  ref.Fixed(0xBEEF, 2);
  ref.Fixed(0xDEADBEEFu, 4);
  ref.Fixed(0x0123456789ABCDEFull, 8);
  ref.Fixed(0x3FC00000u, 4);             // 1.5f
  ref.Fixed(0x80000000u, 4);             // -0.0f
  ref.Fixed(0x3FB999999999999Aull, 8);   // 0.1
  ref.out.insert(ref.out.end(), raw, raw + sizeof(raw));
  ref.Varint(sizeof(raw));
  ref.out.insert(ref.out.end(), raw, raw + sizeof(raw));

  ByteWriter w;
  put_all(w);
  EXPECT_TRUE(std::ranges::equal(w.bytes(), ref.out));
  ByteCounter counter;
  put_all(counter);
  EXPECT_EQ(counter.size(), ref.out.size());
  EXPECT_EQ(w.Release(), ref.out);
  EXPECT_EQ(w.size(), 0u);

  for (const uint64_t v : varints) {
    ByteAtATimeEncoder one;
    one.Varint(v);
    EXPECT_EQ(ByteWriter::VarintLength(v), one.out.size()) << v;
  }
}

TEST(ByteWriter, GrowsAcrossReallocationsAndReservesExactly) {
  ByteWriter grown;
  ByteAtATimeEncoder ref;
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t v = i * i * i * 0x9E3779B97F4A7C15ull >> (i % 64);
    grown.PutVarint(v);
    ref.Varint(v);
    grown.PutU32(static_cast<uint32_t>(i));
    ref.Fixed(i, 4);
  }
  EXPECT_EQ(grown.Release(), ref.out);

  ByteWriter exact;
  exact.Reserve(ref.out.size());
  exact.PutBytes(ref.out.data(), ref.out.size());
  const std::vector<uint8_t> image = exact.Release();
  EXPECT_EQ(image, ref.out);
  EXPECT_EQ(image.capacity(), image.size());
}

/// CRC-32 register update one bit at a time, straight from the reflected
/// polynomial: the reference the table-driven Crc32 must match.
uint32_t BitwiseCrcStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

TEST(Crc32, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  const uint8_t none[1] = {0};
  EXPECT_EQ(Crc32(none, 0), 0u);
  EXPECT_EQ(Crc32(none, 0, 0xCBF43926u), 0xCBF43926u);  // seed passes through
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAlignmentAndSeed) {
  constexpr size_t kMaxLen = 4096;
  Rng rng(20241017);
  std::vector<uint8_t> data(kMaxLen + 8);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = data.data() + align;
    for (const uint32_t seed : {0u, 0x5EED1234u}) {
      uint32_t reg = seed ^ 0xFFFFFFFFu;
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const uint32_t want = reg ^ 0xFFFFFFFFu;
        ASSERT_EQ(Crc32(p, len, seed), want)
            << "align " << align << " len " << len << " seed " << seed;
        // Chaining: the CRC of a prefix seeds the CRC of the rest.
        const size_t cut = len / 3;
        ASSERT_EQ(Crc32(p + cut, len - cut, Crc32(p, cut, seed)), want)
            << "align " << align << " len " << len << " cut " << cut;
        if (len < kMaxLen) reg = BitwiseCrcStep(reg, p[len]);
      }
    }
  }
}

// --------------------------------------------------------------- exp-golomb

TEST(ExpGolomb, Order0KnownCodewords) {
  BitWriter w;
  PutExpGolomb(w, 0);  // "1"
  EXPECT_EQ(w.size_bits(), 1u);
  w.Clear();
  PutExpGolomb(w, 1);  // "010"
  EXPECT_EQ(w.size_bits(), 3u);
  w.Clear();
  PutExpGolomb(w, 6);  // "00111"
  EXPECT_EQ(w.size_bits(), 5u);
  EXPECT_EQ(ExpGolombLength(0), 1);
  EXPECT_EQ(ExpGolombLength(1), 3);
  EXPECT_EQ(ExpGolombLength(6), 5);
}

class ExpGolombRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ExpGolombRoundTrip, Sweep) {
  const int k = GetParam();
  BitWriter w;
  for (uint64_t v = 0; v < 600; ++v) PutExpGolomb(w, v, k);
  PutExpGolomb(w, 1'000'000'007ull, k);
  BitReader r(w);
  for (uint64_t v = 0; v < 600; ++v) EXPECT_EQ(GetExpGolomb(r, k), v);
  EXPECT_EQ(GetExpGolomb(r, k), 1'000'000'007ull);
  EXPECT_FALSE(r.overflow());
}

INSTANTIATE_TEST_SUITE_P(Orders, ExpGolombRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST(ImprovedExpGolomb, PaperWorkedExample) {
  // Section 4.4: <..., 0, 1, 0, -1, 0, 0> encodes as
  // <..., 0, 1000, 0, 1010, 0, 0> — 12 bits total for the six deltas.
  BitWriter w;
  const std::vector<int64_t> deltas = {0, 1, 0, -1, 0, 0};
  for (const auto d : deltas) PutImprovedExpGolomb(w, d);
  EXPECT_EQ(w.size_bits(), 12u);
  // Spot-check the exact codewords.
  BitWriter one;
  PutImprovedExpGolomb(one, 1);
  ASSERT_EQ(one.size_bits(), 4u);
  EXPECT_TRUE(one.BitAt(0));   // 1
  EXPECT_FALSE(one.BitAt(1));  // 0
  EXPECT_FALSE(one.BitAt(2));  // sign +
  EXPECT_FALSE(one.BitAt(3));  // offset 0
  BitWriter neg;
  PutImprovedExpGolomb(neg, -1);
  ASSERT_EQ(neg.size_bits(), 4u);
  EXPECT_TRUE(neg.BitAt(0));
  EXPECT_FALSE(neg.BitAt(1));
  EXPECT_TRUE(neg.BitAt(2));  // sign -
  EXPECT_FALSE(neg.BitAt(3));
  BitReader r(w);
  for (const auto d : deltas) EXPECT_EQ(GetImprovedExpGolomb(r), d);
}

TEST(ImprovedExpGolomb, GroupBoundaries) {
  // Group j covers [2^j - 1, 2^{j+1} - 2]: 0 | 1,2 | 3..6 | 7..14 | ...
  EXPECT_EQ(ImprovedExpGolombLength(0), 1);
  EXPECT_EQ(ImprovedExpGolombLength(1), 4);
  EXPECT_EQ(ImprovedExpGolombLength(2), 4);
  EXPECT_EQ(ImprovedExpGolombLength(3), 6);
  EXPECT_EQ(ImprovedExpGolombLength(6), 6);
  EXPECT_EQ(ImprovedExpGolombLength(7), 8);
  EXPECT_EQ(ImprovedExpGolombLength(-1), 4);
  EXPECT_EQ(ImprovedExpGolombLength(-6), 6);
}

TEST(ImprovedExpGolomb, RoundTripSweep) {
  BitWriter w;
  for (int64_t d = -300; d <= 300; ++d) PutImprovedExpGolomb(w, d);
  BitReader r(w);
  for (int64_t d = -300; d <= 300; ++d) EXPECT_EQ(GetImprovedExpGolomb(r), d);
}

// ------------------------------------------------- adversarial bit streams
//
// Decoders face archive bytes that passed the container CRC but can still
// hold arbitrary bit patterns (crafted or miscompressed). Structurally
// invalid codes must latch overflow() and return a harmless value instead
// of shifting out of range or decoding out-of-contract values.

TEST(ExpGolomb, OverlongZeroRunIsRejected) {
  // 100 zeros then a 1: a "unary prefix" no encoder produces (the shifted
  // value would need 101 bits). Must not reach the 1 << n shift.
  BitWriter w;
  w.PutRun(false, 100);
  w.PutBit(true);
  w.PutBits(0xFFFFFFFF, 32);
  BitReader r(w);
  EXPECT_EQ(GetExpGolomb(r), 0u);
  EXPECT_TRUE(r.overflow());
}

TEST(ExpGolomb, LongestValidPrefixStillDecodes) {
  // 63 zeros is the longest prefix a valid order-0 code can have; the cap
  // must not cut into the valid range.
  BitWriter w;
  w.PutRun(false, 63);
  w.PutBits(uint64_t{1} << 63, 64);  // terminator + 63 payload bits
  BitReader r(w);
  EXPECT_EQ(GetExpGolomb(r), (uint64_t{1} << 63) - 1);
  EXPECT_FALSE(r.overflow());
}

TEST(ExpGolomb, TruncatedPrefixSetsOverflow) {
  BitWriter w;
  w.PutRun(false, 5);  // stream ends inside the unary prefix
  BitReader r(w);
  EXPECT_EQ(GetExpGolomb(r), 0u);
  EXPECT_TRUE(r.overflow());
}

TEST(ImprovedExpGolomb, OverlongOneRunIsRejected) {
  BitWriter w;
  w.PutRun(true, 80);
  w.PutBit(false);
  w.PutBits(0, 32);
  BitReader r(w);
  EXPECT_EQ(GetImprovedExpGolomb(r), 0);
  EXPECT_TRUE(r.overflow());
}

TEST(ImprovedExpGolomb, TruncatedGroupSetsOverflow) {
  BitWriter w;
  w.PutRun(true, 3);  // stream ends inside the unary group id
  BitReader r(w);
  EXPECT_EQ(GetImprovedExpGolomb(r), 0);
  EXPECT_TRUE(r.overflow());
}

TEST(Pddp, OversizedLengthFieldIsRejected) {
  // eta = 1/512: I_max = 9, so the 4-bit length field can express 10..15,
  // which no encoder emits. Decoding one must fail loudly, not produce a
  // 15-bit "code".
  const PddpCodec codec(1.0 / 512);
  ASSERT_EQ(codec.max_code_bits(), 9);
  ASSERT_EQ(codec.length_field_bits(), 4);
  BitWriter w;
  w.PutBits(15, 4);  // length field > max_bits_
  w.PutBits(0x7FFF, 15);
  BitReader r(w);
  EXPECT_EQ(codec.Decode(r), 0.0);
  EXPECT_TRUE(r.overflow());
}

TEST(Pddp, MaxLengthCodeStillDecodes) {
  const PddpCodec codec(1.0 / 512);
  BitWriter w;
  w.PutBits(static_cast<uint64_t>(codec.max_code_bits()),
            codec.length_field_bits());
  w.PutBits((uint64_t{1} << codec.max_code_bits()) - 1,
            codec.max_code_bits());
  BitReader r(w);
  const double v = codec.Decode(r);
  EXPECT_FALSE(r.overflow());
  EXPECT_GT(v, 0.99);
  EXPECT_LT(v, 1.0);
}

TEST(Pddp, TruncatedPayloadSetsOverflow) {
  const PddpCodec codec(1.0 / 512);
  BitWriter w;
  w.PutBits(9, 4);  // declares 9 code bits...
  w.PutBits(0, 3);  // ...but only 3 follow
  BitReader r(w);
  codec.Decode(r);
  EXPECT_TRUE(r.overflow());
}

// --------------------------------------------------------------------- pddp

class PddpErrorBound : public ::testing::TestWithParam<double> {};

TEST_P(PddpErrorBound, BoundHoldsAcrossUnitInterval) {
  // Table 7's eta ranges: 1/8 .. 1/128 for D, 1/128 .. 1/2048 for p.
  const double eta = GetParam();
  const PddpCodec codec(eta);
  Rng rng(42);
  BitWriter w;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(rng.Uniform(0.0, 1.0));
  values.push_back(0.0);
  values.push_back(1.0);
  values.push_back(0.5);
  values.push_back(0.875);
  for (const double v : values) codec.Encode(w, v);
  BitReader r(w);
  for (const double v : values) {
    const double decoded = codec.Decode(r);
    EXPECT_LE(std::abs(decoded - v), eta + 1e-12) << "value " << v;
    EXPECT_EQ(decoded, codec.Quantize(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Etas, PddpErrorBound,
                         ::testing::Values(1.0 / 8, 1.0 / 16, 1.0 / 32,
                                           1.0 / 64, 1.0 / 128, 1.0 / 256,
                                           1.0 / 512, 1.0 / 1024, 1.0 / 2048));

TEST(Pddp, ShortValuesGetShortCodes) {
  const PddpCodec codec(1.0 / 128);
  // 0.875 = 0.111b: 3 code bits (+3 length bits); an irrational-ish value
  // needs the full 7.
  EXPECT_LE(codec.CodeLength(0.875), codec.length_field_bits() + 3);
  EXPECT_LE(codec.CodeLength(0.0), codec.length_field_bits());
  EXPECT_GE(codec.CodeLength(0.3333), codec.length_field_bits() + 6);
}

TEST(Pddp, CodeLengthMatchesStream) {
  const PddpCodec codec(1.0 / 64);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 1.0);
    BitWriter w;
    codec.Encode(w, v);
    EXPECT_EQ(static_cast<int>(w.size_bits()), codec.CodeLength(v));
  }
}

TEST(PddpTree, DeduplicatesAndIndexes) {
  const PddpCodec codec(1.0 / 128);
  PddpTree tree(codec);
  tree.Insert(0.5);
  tree.Insert(0.5);
  tree.Insert(0.875);
  tree.Insert(0.25);
  EXPECT_EQ(tree.total_values(), 4u);
  EXPECT_EQ(tree.distinct_codes(), 3u);
  EXPECT_GE(tree.trie_nodes(), tree.distinct_codes());
  const auto idx = tree.IndexOf(0.875);
  ASSERT_GE(idx, 0);
  EXPECT_DOUBLE_EQ(tree.ValueAt(static_cast<size_t>(idx)), 0.875);
  EXPECT_EQ(tree.IndexOf(0.12345), -1);
}

// ---------------------------------------------------------------------- wah

TEST(WahBitmap, RoundTripPatterns) {
  const std::vector<std::vector<uint8_t>> patterns = {
      {},
      {1},
      {0, 1, 0, 1, 1, 1, 0},
      std::vector<uint8_t>(200, 0),
      std::vector<uint8_t>(200, 1),
  };
  for (const auto& bits : patterns) {
    const WahBitmap bm = WahBitmap::Compress(bits);
    EXPECT_EQ(bm.Decompress(), bits);
  }
}

TEST(WahBitmap, LongRunsCompress) {
  std::vector<uint8_t> bits(31 * 100, 0);  // 100 all-zero groups
  const WahBitmap bm = WahBitmap::Compress(bits);
  EXPECT_LT(bm.size_bits(), bits.size() / 10);
  EXPECT_EQ(bm.Decompress(), bits);
}

TEST(WahBitmap, MixedRunsAndLiterals) {
  Rng rng(5);
  std::vector<uint8_t> bits;
  for (int block = 0; block < 40; ++block) {
    const uint8_t fill = rng.Bernoulli(0.5) ? 1 : 0;
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 120));
    for (size_t i = 0; i < len; ++i) bits.push_back(fill);
    for (int i = 0; i < 5; ++i) bits.push_back(rng.Bernoulli(0.5) ? 1 : 0);
  }
  const WahBitmap bm = WahBitmap::Compress(bits);
  EXPECT_EQ(bm.Decompress(), bits);
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(9);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Weighted(weights), 1u);
}

TEST(EffectiveThreads, ClampsToHardwareAndTaskCount) {
  const unsigned hw = DefaultThreads();
  // Requesting more threads than the hardware offers must not report (or
  // spawn) phantom parallelism — the BENCH_shard.json "threads: 8 on a
  // 1-core box" bug. (The clamp only applies when the hardware width is
  // determinable; DefaultThreads() == hardware_concurrency() then.)
  if (std::thread::hardware_concurrency() != 0) {
    EXPECT_EQ(EffectiveThreads(8, 8 * hw), std::min(hw, 8u));
  }
  EXPECT_LE(EffectiveThreads(1000, 0), hw);
  EXPECT_EQ(EffectiveThreads(1, 16), 1u);   // one task, one worker
  EXPECT_EQ(EffectiveThreads(0, 16), 1u);   // degenerate n stays sane
  EXPECT_GE(EffectiveThreads(4, 2), 1u);
  EXPECT_LE(EffectiveThreads(4, 2), 2u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> counts(257);
  for (auto& c : counts) c = 0;
  ParallelFor(counts.size(), 8, [&](size_t i) { ++counts[i]; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

}  // namespace
}  // namespace utcq::common
