#include "common/exp_golomb.h"

#include <cstdlib>

#include "strategies/kernels.h"

namespace utcq::common {

void PutExpGolomb(BitWriter& w, uint64_t value, int k) {
  const uint64_t shifted = (value >> k) + 1;
  const int n = BitsFor(shifted) - 1;  // floor(log2(shifted))
  w.PutRun(false, static_cast<size_t>(n));
  w.PutBits(shifted, n + 1);
  if (k > 0) w.PutBits(value & ((uint64_t{1} << k) - 1), k);
}

uint64_t GetExpGolomb(BitReader& r, int k) {
  // No valid codeword has a unary prefix longer than 63 zeros (shifted
  // would not fit in 64 bits); the scan rejects longer runs — and runs
  // truncated by the end of the stream — by latching overflow.
  const int n = strategies::ScanZeroRun(r, 63);
  if (n < 0) return 0;
  uint64_t shifted = uint64_t{1} << n;
  shifted |= r.GetBits(n);
  uint64_t value = (shifted - 1) << k;
  if (k > 0) value |= r.GetBits(k);
  return value;
}

int ExpGolombLength(uint64_t value, int k) {
  const uint64_t shifted = (value >> k) + 1;
  const int n = BitsFor(shifted) - 1;
  return 2 * n + 1 + k;
}

namespace {

// Group j covers |delta| in [2^j - 1, 2^{j+1} - 2]; group of 0 is 0.
int GroupOf(uint64_t magnitude) {
  int j = 0;
  while (magnitude > (uint64_t{2} << j) - 2) ++j;
  return j;
}

}  // namespace

void PutImprovedExpGolomb(BitWriter& w, int64_t delta) {
  const uint64_t magnitude =
      delta < 0 ? static_cast<uint64_t>(-delta) : static_cast<uint64_t>(delta);
  const int j = GroupOf(magnitude);
  w.PutRun(true, static_cast<size_t>(j));
  w.PutBit(false);
  if (j == 0) return;  // group 0 holds only delta == 0
  w.PutBit(delta < 0);
  w.PutBits(magnitude - ((uint64_t{1} << j) - 1), j);
}

int64_t GetImprovedExpGolomb(BitReader& r) {
  // Groups past 62 decode to magnitudes >= 2^63 - 1 that do not fit a
  // positive int64_t; the scan rejects such runs — and runs a truncated
  // stream ends with a phantom 0 bit — by latching overflow.
  const int j = strategies::ScanOneRun(r, 62);
  if (j <= 0) return 0;  // group 0 holds only delta == 0
  const bool negative = r.GetBits(1) != 0;
  const uint64_t offset = r.GetBits(j);
  const int64_t magnitude =
      static_cast<int64_t>(offset + ((uint64_t{1} << j) - 1));
  return negative ? -magnitude : magnitude;
}

int ImprovedExpGolombLength(int64_t delta) {
  const uint64_t magnitude =
      delta < 0 ? static_cast<uint64_t>(-delta) : static_cast<uint64_t>(delta);
  const int j = GroupOf(magnitude);
  return j == 0 ? 1 : 2 * j + 2;
}

}  // namespace utcq::common
