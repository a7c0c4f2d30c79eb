#ifndef UTCQ_COMMON_EXP_GOLOMB_H_
#define UTCQ_COMMON_EXP_GOLOMB_H_

#include <cstdint>

#include "common/bitstream.h"

namespace utcq::common {

/// Standard order-k Exp-Golomb codes for unsigned integers [32].
///
/// Order 0 examples: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
void PutExpGolomb(BitWriter& w, uint64_t value, int k = 0);
uint64_t GetExpGolomb(BitReader& r, int k = 0);

/// Length in bits of the order-k Exp-Golomb code of `value`.
int ExpGolombLength(uint64_t value, int k = 0);

/// The paper's *improved* Exp-Golomb code for signed sample-interval
/// deviations (Section 4.4).
///
/// Deviations delta = (t_{i+1} - t_i) - Ts are grouped so that group j >= 0
/// covers |delta| in [2^j - 1, 2^{j+1} - 2]. The codeword is
///   j ones, one zero                 (unary group id)
///   [sign bit: 1 if delta < 0]       (omitted for group 0, which is {0})
///   [j-bit offset |delta| - (2^j-1)] (omitted for group 0)
/// reproducing the paper's worked example: 0 -> "0", +1 -> "1000",
/// -1 -> "1010".
void PutImprovedExpGolomb(BitWriter& w, int64_t delta);
int64_t GetImprovedExpGolomb(BitReader& r);

/// Length in bits of the improved code of `delta`.
int ImprovedExpGolombLength(int64_t delta);

}  // namespace utcq::common

#endif  // UTCQ_COMMON_EXP_GOLOMB_H_
