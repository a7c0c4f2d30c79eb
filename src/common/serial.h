#ifndef UTCQ_COMMON_SERIAL_H_
#define UTCQ_COMMON_SERIAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/varint.h"  // ZigZagEncode

namespace utcq::common {

/// Byte-oriented serialization for the on-disk archive container
/// (DESIGN.md §6). Unlike BitWriter/BitReader — which carry the *compressed
/// payloads* at bit granularity — these carry the container framing:
/// little-endian fixed-width fields, LEB128 varints, and length-prefixed
/// blobs. Every section of the archive is a (tag, length, payload) record
/// written through a ByteWriter and re-read through a bounds-checked
/// ByteReader.
class ByteWriter {
 public:
  /// Makes room for `n` more bytes: a writer reserved to its exact final
  /// size allocates once and Release() hands back a buffer with no slack.
  void Reserve(size_t n);

  void PutU8(uint8_t v) { *Extend(1) = v; }
  void PutU16(uint16_t v) { PutLittleEndian(v); }
  void PutU32(uint32_t v) { PutLittleEndian(v); }
  void PutU64(uint64_t v) { PutLittleEndian(v); }
  /// IEEE-754 bit pattern, little-endian.
  void PutF32(float v) { PutU32(std::bit_cast<uint32_t>(v)); }
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  /// LEB128: 7 payload bits per byte, high bit marks continuation.
  void PutVarint(uint64_t v) {
    uint8_t* p = Extend(VarintLength(v));
    while (v >= 0x80) {
      *p++ = static_cast<uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p = static_cast<uint8_t>(v);
  }
  void PutSignedVarint(int64_t v) { PutVarint(ZigZagEncode(v)); }
  void PutBytes(const void* data, size_t size) {
    // memcpy with a null pointer is UB even at size 0 (empty vectors).
    if (size != 0) std::memcpy(Extend(size), data, size);
  }
  /// Varint length followed by the raw bytes.
  void PutBlob(const void* data, size_t size) {
    PutVarint(size);
    PutBytes(data, size);
  }

  /// Bytes written so far.
  std::span<const uint8_t> bytes() const { return {buf_.data(), size_}; }
  size_t size() const { return size_; }
  std::vector<uint8_t> Release();

  /// Encoded length of `v` as a LEB128 varint (1..10 bytes).
  static size_t VarintLength(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
  }

 private:
  /// Claims `n` bytes at the end, growing the buffer when they do not fit.
  uint8_t* Extend(size_t n) {
    if (buf_.size() - size_ < n) Grow(n);
    uint8_t* p = buf_.data() + size_;
    size_ += n;
    return p;
  }
  void Grow(size_t n);

  template <typename T>
  void PutLittleEndian(T v) {
    uint8_t* p = Extend(sizeof(T));
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  /// [0, size_) is written; the rest of the vector is room to grow into.
  std::vector<uint8_t> buf_;
  size_t size_ = 0;
};

/// Counts the bytes the same Put* calls would append to a ByteWriter, so a
/// serializer written against either can size its output exactly before
/// writing it (the archive writer's one-allocation image, DESIGN.md §6).
class ByteCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutU16(uint16_t) { size_ += 2; }
  void PutU32(uint32_t) { size_ += 4; }
  void PutU64(uint64_t) { size_ += 8; }
  void PutF32(float) { size_ += 4; }
  void PutF64(double) { size_ += 8; }
  void PutVarint(uint64_t v) { size_ += ByteWriter::VarintLength(v); }
  void PutSignedVarint(int64_t v) { PutVarint(ZigZagEncode(v)); }
  void PutBytes(const void*, size_t size) { size_ += size; }
  void PutBlob(const void*, size_t size) {
    PutVarint(size);
    size_ += size;
  }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// Bounds-checked reader over a borrowed byte buffer. Reading past the end
/// returns zeros and latches ok() to false — callers validate once at the
/// end of a section rather than after every field, mirroring how
/// BitReader::overflow() is used on the bit streams.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  float GetF32();
  double GetF64();
  uint64_t GetVarint();
  int64_t GetSignedVarint();
  bool GetBytes(void* out, size_t size);
  /// Borrows `size` bytes from the buffer (no copy); nullptr on overrun.
  const uint8_t* BorrowBytes(size_t size);
  void Skip(size_t size);

  size_t position() const { return pos_; }
  size_t remaining() const { return pos_ < size_ ? size_ - pos_ : 0; }
  /// False once any read overran the buffer or a varint was malformed.
  bool ok() const { return ok_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). The archive footer
/// stores the checksum of every preceding byte so truncation and bit rot are
/// rejected before any section is parsed. `seed` chains calls:
/// Crc32(b, n, Crc32(a, m)) equals the CRC of a followed by b. Computed
/// eight bytes per step (slicing-by-8) in portable C++.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

}  // namespace utcq::common

#endif  // UTCQ_COMMON_SERIAL_H_
