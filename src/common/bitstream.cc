#include "common/bitstream.h"

#include <cstring>

namespace utcq::common {

void BitWriter::PutBit(bool bit) {
  const size_t byte = size_bits_ / 8;
  if (byte == bytes_.size()) bytes_.push_back(0);
  if (bit) bytes_[byte] |= static_cast<uint8_t>(0x80u >> (size_bits_ % 8));
  ++size_bits_;
}

void BitWriter::PutBits(uint64_t value, int width) {
  if (width <= 0) return;
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  const size_t end = size_bits_ + static_cast<size_t>(width);
  // New bytes arrive zeroed; the bits past size_bits_ in the last byte are
  // zero too (the padding invariant), so every write below is an OR or a
  // store.
  bytes_.resize((end + 7) / 8);
  uint8_t* p = bytes_.data() + size_bits_ / 8;
  int left = width;  // bits of `value` still to write, MSB first
  const int used = static_cast<int>(size_bits_ % 8);
  if (used != 0) {
    const int room = 8 - used;
    if (left <= room) {
      *p |= static_cast<uint8_t>(value << (room - left));
      size_bits_ = end;
      return;
    }
    left -= room;
    *p++ |= static_cast<uint8_t>(value >> left);
  }
  while (left >= 8) {
    left -= 8;
    *p++ = static_cast<uint8_t>(value >> left);
  }
  if (left > 0) *p = static_cast<uint8_t>(value << (8 - left));
  size_bits_ = end;
}

void BitWriter::PutRun(bool bit, size_t count) {
  const uint64_t word = bit ? ~uint64_t{0} : 0;
  for (; count >= 64; count -= 64) PutBits(word, 64);
  PutBits(word, static_cast<int>(count));
}

void BitWriter::Append(const BitWriter& other) {
  const size_t whole = other.size_bits_ / 8;
  const int tail = static_cast<int>(other.size_bits_ % 8);
  if (size_bits_ % 8 == 0 && this != &other) {
    // Byte-aligned: the other writer's bytes, padding included, are ours.
    bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
    size_bits_ += other.size_bits_;
    return;
  }
  for (size_t b = 0; b < whole; ++b) PutBits(other.bytes_[b], 8);
  if (tail > 0) PutBits(other.bytes_[whole] >> (8 - tail), tail);
}

bool BitWriter::BitAt(size_t pos) const {
  return (bytes_[pos / 8] >> (7 - pos % 8)) & 1u;
}

void BitWriter::Clear() {
  bytes_.clear();
  size_bits_ = 0;
}

int BitsFor(uint64_t n) {
  int bits = 0;
  while (n > 0) {
    ++bits;
    n >>= 1;
  }
  return bits;
}

}  // namespace utcq::common
