#include "common/pddp.h"

#include <algorithm>
#include <cmath>

#include "strategies/kernels.h"

namespace utcq::common {

PddpCodec::PddpCodec(double eta) : eta_(eta) {
  max_bits_ = 0;
  // Smallest I with 2^-I <= eta; the clamped rounding below then always
  // meets the bound at I_max, including at v == 1.
  while (std::ldexp(1.0, -max_bits_) > eta && max_bits_ < 62) ++max_bits_;
  length_bits_ = BitsFor(static_cast<uint64_t>(max_bits_));
}

void PddpCodec::ShortestCode(double value, int* length, uint64_t* code) const {
  const double v = std::clamp(value, 0.0, 1.0);
  for (int i = 0; i <= max_bits_; ++i) {
    const double scale = std::ldexp(1.0, i);  // 2^i
    uint64_t c = static_cast<uint64_t>(std::llround(v * scale));
    const uint64_t limit = (uint64_t{1} << i) - 1;
    c = std::min(c, limit);
    const double decoded = static_cast<double>(c) / scale;
    if (std::abs(decoded - v) <= eta_) {
      *length = i;
      *code = c;
      return;
    }
  }
  // Unreachable by construction of max_bits_, but keep a safe fallback.
  *length = max_bits_;
  const double scale = std::ldexp(1.0, max_bits_);
  *code = std::min(static_cast<uint64_t>(std::llround(v * scale)),
                   (uint64_t{1} << max_bits_) - 1);
}

void PddpCodec::Encode(BitWriter& w, double value) const {
  int length = 0;
  uint64_t code = 0;
  ShortestCode(value, &length, &code);
  w.PutBits(static_cast<uint64_t>(length), length_bits_);
  w.PutBits(code, length);
}

double PddpCodec::Decode(BitReader& r) const {
  // The kernel reads the BitsFor(max_bits_)-wide length field and the
  // length code bits in one windowed extraction. Length fields above
  // max_bits_ — which the encoder never emits, but the field is wide
  // enough to hold — are rejected via MarkOverflow after consuming only
  // the length field.
  return strategies::PddpDecode(r, length_bits_, max_bits_);
}

int PddpCodec::CodeLength(double value) const {
  int length = 0;
  uint64_t code = 0;
  ShortestCode(value, &length, &code);
  return length_bits_ + length;
}

double PddpCodec::Quantize(double value) const {
  int length = 0;
  uint64_t code = 0;
  ShortestCode(value, &length, &code);
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

void PddpTree::Insert(double value) {
  int length = 0;
  uint64_t code = 0;
  // Reuse the codec's shortest-code search via CodeLength/Quantize
  // equivalents; recompute directly to get both fields.
  const double q = codec_.Quantize(value);
  length = codec_.CodeLength(value) - codec_.length_field_bits();
  code = length == 0
             ? 0
             : static_cast<uint64_t>(std::llround(q * std::ldexp(1.0, length)));
  ++codes_[{length, code}];
  ++total_;
}

size_t PddpTree::trie_nodes() const {
  // Each code contributes its prefixes; count distinct (depth, prefix) pairs.
  std::map<Key, bool> seen;
  for (const auto& [key, freq] : codes_) {
    (void)freq;
    for (int d = 1; d <= key.first; ++d) {
      seen[{d, key.second >> (key.first - d)}] = true;
    }
  }
  return seen.size();
}

int PddpTree::index_bits() const {
  if (codes_.size() <= 1) return 1;
  return BitsFor(codes_.size() - 1);
}

int64_t PddpTree::IndexOf(double value) const {
  const double q = codec_.Quantize(value);
  const int length = codec_.CodeLength(value) - codec_.length_field_bits();
  const uint64_t code =
      length == 0
          ? 0
          : static_cast<uint64_t>(std::llround(q * std::ldexp(1.0, length)));
  const auto it = codes_.find({length, code});
  if (it == codes_.end()) return -1;
  return static_cast<int64_t>(std::distance(codes_.begin(), it));
}

double PddpTree::ValueAt(size_t index) const {
  auto it = codes_.begin();
  std::advance(it, static_cast<long>(index));
  const auto [length, code] = it->first;
  if (length == 0) return 0.0;
  return static_cast<double>(code) / std::ldexp(1.0, length);
}

}  // namespace utcq::common
