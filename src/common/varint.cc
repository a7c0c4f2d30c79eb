#include "common/varint.h"

namespace utcq::common {

void PutVarint(BitWriter& w, uint64_t value) {
  while (true) {
    const uint64_t group = value & 0x7Fu;
    value >>= 7;
    w.PutBit(value != 0);  // continuation bit first, MSB-style framing
    w.PutBits(group, 7);
    if (value == 0) break;
  }
}

uint64_t GetVarint(BitReader& r) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    const uint64_t byte = r.GetBits(8);
    value |= (byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0 || shift >= 63) break;
    shift += 7;
  }
  return value;
}

void PutSignedVarint(BitWriter& w, int64_t value) {
  PutVarint(w, ZigZagEncode(value));
}

int64_t GetSignedVarint(BitReader& r) { return ZigZagDecode(GetVarint(r)); }

}  // namespace utcq::common
