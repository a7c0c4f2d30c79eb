#ifndef UTCQ_STRATEGIES_KERNELS_H_
#define UTCQ_STRATEGIES_KERNELS_H_

// Bitstream decode kernels (DESIGN.md §12): the word-at-a-time loops the
// codecs call directly, and the bit-at-a-time reference they are pinned
// against. Every kernel matches its reference on the return value, the
// cursor position and the overflow() latch, including which bits are
// consumed before the latch on truncated or structurally invalid input.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/bitstream.h"

namespace utcq::strategies {

// ---------------------------------------------------------------------------
// Bit-at-a-time reference. tests/strategy_test.cc pins every word kernel
// below against these loops; production calls only the run scans, for a
// reader whose overflow has already latched.
// ---------------------------------------------------------------------------
namespace bitloop {

inline uint64_t GetBits(common::BitReader& r, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v = (v << 1) | static_cast<uint64_t>(r.GetBit());
  }
  return v;
}

/// Counts 0s up to the terminating 1, consuming run + terminator. Returns
/// the run length, or -1 with overflow() latched when the run is truncated
/// by the end of the stream or exceeds `max_run`.
inline int ScanZeroRun(common::BitReader& r, int max_run) {
  int n = 0;
  while (!r.GetBit()) {
    ++n;
    if (r.overflow()) return -1;
    if (n > max_run) {
      r.MarkOverflow();
      return -1;
    }
  }
  return n;
}

/// ScanZeroRun with the roles of 0 and 1 swapped.
inline int ScanOneRun(common::BitReader& r, int max_run) {
  int j = 0;
  while (r.GetBit()) {
    ++j;
    if (r.overflow()) return -1;
    if (j > max_run) {
      r.MarkOverflow();
      return -1;
    }
  }
  // A truncated stream ends the run with a phantom 0 bit; report the
  // failure instead of letting the caller decode the garbage that follows.
  if (r.overflow()) return -1;
  return j;
}

/// `n` single bits into 0/1 bytes.
inline void UnpackBits(common::BitReader& r, uint8_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = r.GetBit() ? 1 : 0;
  }
}

/// One PDDP code: a `length_bits`-wide length field followed by that many
/// code bits. A length beyond `max_bits` latches overflow() and decodes to
/// 0.0 after consuming only the length field.
inline double PddpDecode(common::BitReader& r, int length_bits,
                         int max_bits) {
  const int length = static_cast<int>(GetBits(r, length_bits));
  if (length > max_bits) {
    r.MarkOverflow();
    return 0.0;
  }
  const uint64_t code = GetBits(r, length);
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

/// Up to `n` improved Exp-Golomb deltas into out. Returns how many decoded
/// cleanly; a short count means overflow() latched on the next symbol,
/// whose bits are consumed but not stored.
inline size_t DecodeIeg(common::BitReader& r, int64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int j = ScanOneRun(r, 62);
    int64_t delta = 0;
    if (j > 0) {
      const bool negative = GetBits(r, 1) != 0;
      const uint64_t offset = GetBits(r, j);
      const int64_t magnitude =
          static_cast<int64_t>(offset + ((uint64_t{1} << j) - 1));
      delta = negative ? -magnitude : magnitude;
    }
    if (r.overflow()) return i;
    out[i] = delta;
  }
  return n;
}

/// `n` PDDP codes into out[0..n).
inline void PddpRun(common::BitReader& r, int length_bits, int max_bits,
                    double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = PddpDecode(r, length_bits, max_bits);
  }
}

}  // namespace bitloop

// ---------------------------------------------------------------------------
// Word-at-a-time kernels, each with the contract of its bitloop namesake.
// Built on BitReader::PeekBits64, whose phantom-zero masking of the stream
// tail makes run scans safe on untrusted archives. Fixed-width fields need
// no kernel of their own: BitReader::GetBits is already word-at-a-time.
// ---------------------------------------------------------------------------

// Shared body of the two run scans, 64 bits per peek (`ones` complements
// the window, turning a one-run into a leading-zero count either way).
// Replicates the bitloop consumption exactly: a run longer than max_run
// consumes max_run + 1 run bits then latches overflow; a run truncated by
// the end of the stream consumes every remaining bit then latches
// overflow. Codec callers cap runs below 64, but the contract takes any
// max_run >= 0, so a window full of run bits loops to the next one.
inline int ScanRunWindows(common::BitReader& r, bool ones, int max_run) {
  int run = 0;  // run bits consumed by earlier windows (always <= max_run)
  while (true) {
    const size_t rem = r.remaining();
    const uint64_t w = ones ? ~r.PeekBits64() : r.PeekBits64();
    const int lead = w == 0 ? 64 : __builtin_clzll(w);  // clzll(0) is UB
    if (lead < 64 && static_cast<size_t>(lead) < rem) {
      // Terminator found, inside both the window and the stream.
      if (run + lead > max_run) {
        r.Advance(static_cast<size_t>(max_run - run) + 1);
        r.MarkOverflow();
        return -1;
      }
      r.Advance(static_cast<size_t>(lead) + 1);
      return run + lead;
    }
    if (rem < 64) {
      // Every remaining bit is a run bit (phantom bits past the end never
      // count as stream content): truncated run.
      if (run + static_cast<int64_t>(rem) > max_run) {
        r.Advance(static_cast<size_t>(max_run - run) + 1);
      } else {
        r.Advance(rem);
      }
      r.MarkOverflow();
      return -1;
    }
    // A full window of run bits; consume it and keep scanning.
    if (run + 64 > max_run) {
      r.Advance(static_cast<size_t>(max_run - run) + 1);
      r.MarkOverflow();
      return -1;
    }
    r.Advance(64);
    run += 64;
  }
}

inline int ScanZeroRun(common::BitReader& r, int max_run) {
  // A reader whose overflow already latched takes the bitloop path: the
  // reference checks overflow() mid-run and bails after one bit, and the
  // poisoned-stream case is not worth a second semantics.
  if (r.overflow()) return bitloop::ScanZeroRun(r, max_run);
  return ScanRunWindows(r, /*ones=*/false, max_run);
}

inline int ScanOneRun(common::BitReader& r, int max_run) {
  if (r.overflow()) return bitloop::ScanOneRun(r, max_run);
  return ScanRunWindows(r, /*ones=*/true, max_run);
}

inline void UnpackBits(common::BitReader& r, uint8_t* out, size_t n) {
  size_t i = 0;
  while (i < n && r.remaining() >= 64) {
    const uint64_t w = r.PeekBits64();
    const size_t take = std::min<size_t>(n - i, 64);
    for (size_t b = 0; b < take; ++b) {
      out[i + b] = static_cast<uint8_t>((w >> (63 - b)) & 1u);
    }
    r.Advance(take);
    i += take;
  }
  for (; i < n; ++i) {
    out[i] = r.GetBit() ? 1 : 0;
  }
}

// The sign bit and the j-bit offset are one (j + 1)-bit read: same
// consumed bits, and the sign lands in the extracted word's MSB.
inline size_t DecodeIeg(common::BitReader& r, int64_t* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const int j = ScanOneRun(r, 62);
    int64_t delta = 0;
    if (j > 0) {
      const uint64_t bits = r.GetBits(j + 1);
      const uint64_t offset = bits & ((uint64_t{1} << j) - 1);
      const int64_t magnitude =
          static_cast<int64_t>(offset + ((uint64_t{1} << j) - 1));
      delta = (bits >> j) & 1 ? -magnitude : magnitude;
    }
    if (r.overflow()) return i;
    out[i] = delta;
  }
  return n;
}

inline double PddpDecode(common::BitReader& r, int length_bits,
                         int max_bits) {
  if (length_bits > 0 && r.remaining() >= 64) {
    const uint64_t w = r.PeekBits64();
    const int length = static_cast<int>(w >> (64 - length_bits));
    if (length > max_bits) {
      // Reject after consuming only the length field, as the codec does.
      r.Advance(static_cast<size_t>(length_bits));
      r.MarkOverflow();
      return 0.0;
    }
    if (length_bits + length <= 64) {
      if (length == 0) {
        r.Advance(static_cast<size_t>(length_bits));
        return 0.0;
      }
      const uint64_t code = (w >> (64 - length_bits - length)) &
                            ((uint64_t{1} << length) - 1);
      r.Advance(static_cast<size_t>(length_bits + length));
      return static_cast<double>(code) / std::ldexp(1.0, length);
    }
    r.Advance(static_cast<size_t>(length_bits));
    const uint64_t code = r.GetBits(length);
    return static_cast<double>(code) / std::ldexp(1.0, length);
  }
  // Stream tail (or degenerate zero-width length field): the plain reads
  // already carry the phantom-zero / overflow-latch semantics.
  const int length = static_cast<int>(r.GetBits(length_bits));
  if (length > max_bits) {
    r.MarkOverflow();
    return 0.0;
  }
  const uint64_t code = r.GetBits(length);
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

inline void PddpRun(common::BitReader& r, int length_bits, int max_bits,
                    double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = PddpDecode(r, length_bits, max_bits);
  }
}

}  // namespace utcq::strategies

#endif  // UTCQ_STRATEGIES_KERNELS_H_
