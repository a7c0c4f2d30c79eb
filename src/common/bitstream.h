#ifndef UTCQ_COMMON_BITSTREAM_H_
#define UTCQ_COMMON_BITSTREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace utcq::common {

/// A borrowed, immutable view of a bit stream: a pointer into bytes owned by
/// someone else (a live BitWriter or a loaded archive buffer) plus a bit
/// count. This is the currency of the read path — decoders and query
/// processors hold BitSpans and never know whether the bits came from an
/// in-memory compression run or from disk.
struct BitSpan {
  const uint8_t* data = nullptr;
  size_t size_bits = 0;

  size_t size_bytes() const { return (size_bits + 7) / 8; }
  bool empty() const { return size_bits == 0; }
};

/// Append-only MSB-first bit buffer.
///
/// All compressed artifacts in this project (TED and UTCQ alike) are built on
/// this writer: fixed-width fields, Exp-Golomb codes, PDDP codes and raw
/// bit-strings are appended in sequence and later consumed by a BitReader
/// positioned at an arbitrary bit offset (partial decompression relies on
/// that random positioning).
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the single bit `bit` (0 or 1).
  void PutBit(bool bit);

  /// Appends the lowest `width` bits of `value`, most significant bit first.
  /// `width` must be <= 64. A width of 0 appends nothing.
  void PutBits(uint64_t value, int width);

  /// Appends `count` copies of `bit`.
  void PutRun(bool bit, size_t count);

  /// Appends the contents of another writer.
  void Append(const BitWriter& other);

  /// Number of bits written so far.
  size_t size_bits() const { return size_bits_; }

  /// Number of bytes needed to hold the written bits.
  size_t size_bytes() const { return (size_bits_ + 7) / 8; }

  /// Read access to bit `pos` (0-based from the start of the stream).
  bool BitAt(size_t pos) const;

  /// Backing bytes; the final partial byte (if any) is zero-padded.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  /// Borrowed view of the written bits; invalidated by further writes.
  BitSpan span() const { return {bytes_.data(), size_bits_}; }

  void Clear();

 private:
  std::vector<uint8_t> bytes_;
  size_t size_bits_ = 0;
};

/// MSB-first reader over a byte buffer, seekable to any bit position.
class BitReader {
 public:
  /// The reader does not own the buffer; it must outlive the reader.
  BitReader(const uint8_t* data, size_t size_bits)
      : data_(data), size_bits_(size_bits) {}

  explicit BitReader(const BitWriter& w)
      : BitReader(w.bytes().data(), w.size_bits()) {}

  explicit BitReader(const BitSpan& span)
      : BitReader(span.data, span.size_bits) {}

  // The four read primitives are defined in-class and force-inlined: they
  // are the innermost ops of every decode kernel, and a call per bit/field
  // would dominate at these sizes.
#define UTCQ_BITSTREAM_INLINE inline __attribute__((always_inline))

  /// Reads one bit. Reading past the end returns 0 and sets overflow().
  UTCQ_BITSTREAM_INLINE bool GetBit() {
    if (pos_ >= size_bits_) {
      overflow_ = true;
      return false;
    }
    const bool bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1u;
    ++pos_;
    return bit;
  }

  /// Reads `width` (<= 64) bits MSB-first into the low bits of the result.
  /// Word-at-a-time: the field's bytes are loaded in one shot and
  /// shifted/masked into place (a read that crosses the end of the stream
  /// falls back to the bit loop so past-the-end bits stay phantom zeros and
  /// overflow() latches, exactly as repeated GetBit() would behave).
  UTCQ_BITSTREAM_INLINE uint64_t GetBits(int width) {
    if (width <= 0) return 0;
    const size_t uw = static_cast<size_t>(width);
    if (pos_ + uw > size_bits_) {
      // Crosses the end: keep the bit-loop semantics (in-range bits
      // followed by phantom zeros, overflow latched, cursor saturated).
      uint64_t v = 0;
      for (int i = 0; i < width; ++i) {
        v = (v << 1) | static_cast<uint64_t>(GetBit());
      }
      return v;
    }
    const size_t first = pos_ >> 3;
    const int lead = static_cast<int>(pos_ & 7);
    const int need = lead + width;  // bits spanned from the first byte; <= 71
    pos_ += uw;
    const uint64_t mask =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    const size_t total_bytes = (size_bits_ + 7) >> 3;
    if (first + 8 <= total_bytes) {
      uint64_t word;
      std::memcpy(&word, data_ + first, 8);
      word = __builtin_bswap64(word);
      if (need <= 64) return (word >> (64 - need)) & mask;
      // The field runs into a ninth byte (lead > 0 and width near 64); that
      // byte exists because pos_ + width <= size_bits_.
      const int rem = need - 64;  // 1..7
      return ((word << rem) | (data_[first + 8] >> (8 - rem))) & mask;
    }
    // Tail of the buffer: assemble exactly the spanned bytes.
    uint64_t word = 0;
    int loaded = 0;
    const uint8_t* p = data_ + first;
    while (loaded < need) {
      word = (word << 8) | *p++;
      loaded += 8;
    }
    return (word >> (loaded - need)) & mask;
  }

  /// The next 64 bits MSB-first without advancing. Bits past the end of the
  /// stream read as zero *even when the backing buffer's final partial byte
  /// carries garbage padding* (archives are untrusted), and overflow() is
  /// not touched. Strategy kernels build unary-run scans on this.
  UTCQ_BITSTREAM_INLINE uint64_t PeekBits64() const {
    if (pos_ >= size_bits_) return 0;
    const size_t avail = size_bits_ - pos_;
    const size_t total_bytes = (size_bits_ + 7) >> 3;
    const size_t first = pos_ >> 3;
    const int lead = static_cast<int>(pos_ & 7);
    uint64_t word;
    if (first + 8 <= total_bytes) {
      std::memcpy(&word, data_ + first, 8);
      word = __builtin_bswap64(word);
      word <<= lead;
      if (lead != 0 && first + 8 < total_bytes) {
        word |= static_cast<uint64_t>(data_[first + 8]) >> (8 - lead);
      }
    } else {
      word = 0;
      int loaded = 0;
      for (size_t b = first; b < total_bytes; ++b) {
        word = (word << 8) | data_[b];
        loaded += 8;
      }
      word <<= 64 - loaded;  // left-justify (loaded is in [8, 56] here)
      word <<= lead;         // drop the already-consumed bits
    }
    if (avail < 64) {
      // Bits past size_bits() read as zero regardless of what the buffer's
      // padding holds — an untrusted archive's final byte is not trusted
      // to be canonically zero-padded.
      word &= ~uint64_t{0} << (64 - avail);
    }
    return word;
  }

  /// Advances the cursor by `count` bits. Advancing past the end saturates
  /// at size_bits() and latches overflow(), mirroring GetBit's behaviour.
  UTCQ_BITSTREAM_INLINE void Advance(size_t count) {
    const size_t rem = pos_ < size_bits_ ? size_bits_ - pos_ : 0;
    if (count > rem) {
      pos_ = size_bits_;
      overflow_ = true;
    } else {
      pos_ += count;
    }
  }

#undef UTCQ_BITSTREAM_INLINE

  /// Repositions the cursor to absolute bit `pos`.
  void Seek(size_t pos) { pos_ = pos; }

  /// Backing bytes (for strategy kernels that assemble words themselves;
  /// (size_bits() + 7) / 8 bytes are readable).
  const uint8_t* data() const { return data_; }

  size_t position() const { return pos_; }
  size_t size_bits() const { return size_bits_; }
  size_t remaining() const { return pos_ < size_bits_ ? size_bits_ - pos_ : 0; }
  bool overflow() const { return overflow_; }

  /// Latches overflow() true. Codecs layered on the reader use this to
  /// reject structurally invalid codes (run lengths or length fields no
  /// valid encoder produces) through the same channel as reading past the
  /// end, so callers have one failure signal to check.
  void MarkOverflow() { overflow_ = true; }

 private:
  const uint8_t* data_;
  size_t size_bits_;
  size_t pos_ = 0;
  bool overflow_ = false;
};

/// Number of bits needed to represent values in [0, n]; BitsFor(0) == 0.
/// This is the ceil(log2(n + 1)) convention the paper uses for field widths.
int BitsFor(uint64_t n);

}  // namespace utcq::common

#endif  // UTCQ_COMMON_BITSTREAM_H_
