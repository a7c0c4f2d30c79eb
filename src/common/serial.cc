#include "common/serial.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace utcq::common {

void ByteWriter::Reserve(size_t n) {
  if (buf_.size() - size_ >= n) return;
  // reserve() before resize(): resize alone may round the capacity up.
  buf_.reserve(size_ + n);
  buf_.resize(size_ + n);
}

void ByteWriter::Grow(size_t n) {
  Reserve(std::max(n, buf_.size()));  // at least doubles: amortized O(1)
}

std::vector<uint8_t> ByteWriter::Release() {
  buf_.resize(size_);
  size_ = 0;
  return std::exchange(buf_, {});
}

uint8_t ByteReader::GetU8() {
  if (pos_ >= size_) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

uint16_t ByteReader::GetU16() {
  const uint16_t lo = GetU8();
  const uint16_t hi = GetU8();
  return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t ByteReader::GetU32() {
  const uint32_t lo = GetU16();
  const uint32_t hi = GetU16();
  return lo | (hi << 16);
}

uint64_t ByteReader::GetU64() {
  const uint64_t lo = GetU32();
  const uint64_t hi = GetU32();
  return lo | (hi << 32);
}

float ByteReader::GetF32() {
  const uint32_t bits = GetU32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::GetF64() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ByteReader::GetVarint() {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const uint8_t byte = GetU8();
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  ok_ = false;  // > 10 continuation groups: malformed
  return value;
}

int64_t ByteReader::GetSignedVarint() { return ZigZagDecode(GetVarint()); }

bool ByteReader::GetBytes(void* out, size_t size) {
  // Zero-length reads succeed without touching `out`: empty vectors hand in
  // data() == nullptr, and memcpy/memset with a null pointer is UB even at
  // size 0 (an empty-corpus archive's stream sections hit exactly this).
  if (size == 0) return true;
  const uint8_t* p = BorrowBytes(size);
  if (p == nullptr) {
    std::memset(out, 0, size);
    return false;
  }
  std::memcpy(out, p, size);
  return true;
}

const uint8_t* ByteReader::BorrowBytes(size_t size) {
  if (size > remaining()) {
    ok_ = false;
    pos_ = size_;
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += size;
  return p;
}

void ByteReader::Skip(size_t size) {
  if (size > remaining()) {
    ok_ = false;
    pos_ = size_;
    return;
  }
  pos_ += size;
}

namespace {

/// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table;
/// entries[k][b] is the CRC register after byte b followed by k zero bytes,
/// so eight table lookups fold eight input bytes into the register at once.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

uint32_t LoadLittleEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLittleEndian32(data);
    const uint32_t hi = LoadLittleEndian32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace utcq::common
