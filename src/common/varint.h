#ifndef UTCQ_COMMON_VARINT_H_
#define UTCQ_COMMON_VARINT_H_

#include <cstdint>

#include "common/bitstream.h"

namespace utcq::common {

/// LEB128-style variable-length unsigned integers on a bit stream
/// (7 payload bits + 1 continuation bit per group). Used for framing
/// metadata (sequence lengths, counts) where values are usually small.
void PutVarint(BitWriter& w, uint64_t value);
uint64_t GetVarint(BitReader& r);

/// ZigZag mapping so small negative values stay small when varint-coded.
inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

void PutSignedVarint(BitWriter& w, int64_t value);
int64_t GetSignedVarint(BitReader& r);

}  // namespace utcq::common

#endif  // UTCQ_COMMON_VARINT_H_
