#include "core/referential.h"

#include <algorithm>

#include "common/bitstream.h"

namespace utcq::core {

SymbolIndex::SymbolIndex(std::span<const uint32_t> seq) : seq_(seq) {
  occurrences_.reserve(seq.size());
  for (uint32_t s = 0; s < seq.size(); ++s) {
    occurrences_.emplace_back(seq[s], s);
  }
  std::sort(occurrences_.begin(), occurrences_.end());
}

std::pair<uint32_t, uint32_t> SymbolIndex::LongestMatch(
    std::span<const uint32_t> target, size_t i) const {
  const uint32_t symbol = target[i];
  const size_t m = seq_.size();
  const size_t rest = target.size() - i;
  uint32_t best_s = 0;
  size_t best_l = 0;
  for (auto it = std::lower_bound(occurrences_.begin(), occurrences_.end(),
                                  std::pair<uint32_t, uint32_t>{symbol, 0});
       it != occurrences_.end() && it->first == symbol; ++it) {
    const uint32_t s = it->second;
    const size_t limit = std::min(m - s, rest);
    size_t l = 1;  // seq[s] == target[i] by construction
    while (l < limit && seq_[s + l] == target[i + l]) ++l;
    if (l > best_l) {
      best_l = l;
      best_s = s;
      if (l == rest) break;  // no later candidate can be strictly longer
    }
  }
  return {best_s, static_cast<uint32_t>(best_l)};
}

std::vector<EFactor> FactorizeE(const SymbolIndex& ref,
                                std::span<const uint32_t> target) {
  std::vector<EFactor> factors;
  const size_t n = target.size();
  const auto m = static_cast<uint32_t>(ref.size());
  size_t i = 0;
  while (i < n) {
    const auto [best_s, best_l] = ref.LongestMatch(target, i);
    if (best_l == 0) {
      // Case B: the symbol does not occur in the reference at all.
      factors.push_back({m, 0, target[i], /*case_b=*/true});
      ++i;
      continue;
    }
    if (i + best_l == n) {
      // Case A: complete final match, M omitted.
      factors.push_back({best_s, best_l, std::nullopt, false});
      break;
    }
    factors.push_back({best_s, best_l, target[i + best_l], false});
    i += best_l + 1;
  }
  return factors;
}

std::vector<EFactor> FactorizeE(const std::vector<uint32_t>& ref,
                                const std::vector<uint32_t>& target) {
  return FactorizeE(SymbolIndex(ref), target);
}

std::vector<uint32_t> ExpandE(const std::vector<uint32_t>& ref,
                              const std::vector<EFactor>& factors) {
  std::vector<uint32_t> out;
  for (const EFactor& f : factors) {
    if (f.case_b) {
      out.push_back(*f.m);
      continue;
    }
    out.insert(out.end(), ref.begin() + f.s, ref.begin() + f.s + f.l);
    if (f.m.has_value()) out.push_back(*f.m);
  }
  return out;
}

namespace {

/// Bits a factor list costs once encoded (count framing included); used to
/// fall back to literal coding when factors do not pay off.
size_t TflagFactorsCostBits(const std::vector<TFactor>& factors,
                            bool last_has_m, size_t ref_len) {
  const int s_bits =
      common::BitsFor(ref_len > 0 ? static_cast<uint64_t>(ref_len - 1) : 0);
  const int l_bits = common::BitsFor(static_cast<uint64_t>(ref_len));
  size_t varint_bits = 8;  // count framing, 8 bits per 7-bit group
  for (size_t h = factors.size() >> 7; h > 0; h >>= 7) varint_bits += 8;
  return factors.size() * static_cast<size_t>(s_bits + l_bits) +
         (last_has_m ? 1 : 0) + varint_bits;
}

}  // namespace

bool FactorizeTflagFactors(const std::vector<uint8_t>& ref,
                           const std::vector<uint8_t>& target,
                           std::vector<TFactor>* factors, bool* last_has_m,
                           uint8_t* last_m) {
  factors->clear();
  *last_has_m = false;
  *last_m = 0;
  if (ref.empty() || target.empty()) return false;

  const size_t n = target.size();
  const size_t m = ref.size();
  size_t i = 0;
  while (i < n) {
    // Longest match over all reference start positions; for intermediate
    // factors only matches ending strictly inside the reference are usable
    // (the inferred mismatch is NOT ref[S+L], see DESIGN.md §2).
    size_t best_full_l = 0;
    uint32_t best_full_s = 0;
    size_t best_int_l = 0;
    uint32_t best_int_s = 0;
    bool has_int = false;
    for (uint32_t s = 0; s < m; ++s) {
      size_t l = 0;
      while (s + l < m && i + l < n && ref[s + l] == target[i + l]) ++l;
      if (l > best_full_l) {
        best_full_l = l;
        best_full_s = s;
      }
      // Usable as an intermediate factor iff the match ends strictly inside
      // the reference: the inferred bit is then NOT ref[s+l] == target[i+l].
      // A zero-length match (ref[s] != target[i]) qualifies too: it copies
      // nothing and infers exactly target[i].
      if (s + l < m && (!has_int || l > best_int_l)) {
        has_int = true;
        best_int_l = l;
        best_int_s = s;
      }
    }

    if (i + best_full_l == n && best_full_l > 0) {
      factors->push_back({best_full_s, static_cast<uint32_t>(best_full_l)});
      return true;  // complete final match, no M
    }
    if (!has_int) {
      return false;  // every match runs into the reference end: no inference
    }
    const size_t use_l = best_int_l;
    const uint32_t use_s = best_int_s;
    if (i + use_l + 1 == n) {
      // This is the last factor; keep the explicit (S, L, M) form.
      factors->push_back({use_s, static_cast<uint32_t>(use_l)});
      *last_has_m = true;
      *last_m = target[n - 1];
      return true;
    }
    factors->push_back({use_s, static_cast<uint32_t>(use_l)});
    i += use_l + 1;
  }
  return true;
}

TflagCom FactorizeTflag(const std::vector<uint8_t>& ref,
                        const std::vector<uint8_t>& target) {
  TflagCom com;
  if (ref == target) {
    com.mode = TflagMode::kIdentical;
    return com;
  }
  com.mode = TflagMode::kLiteral;
  std::vector<TFactor> factors;
  bool last_has_m = false;
  uint8_t last_m = 0;
  if (FactorizeTflagFactors(ref, target, &factors, &last_has_m, &last_m) &&
      TflagFactorsCostBits(factors, last_has_m, ref.size()) <=
          target.size()) {
    com.mode = TflagMode::kFactors;
    com.factors = std::move(factors);
    com.last_has_m = last_has_m;
    com.last_m = last_m;
  }
  return com;
}

std::vector<uint8_t> ExpandTflag(const std::vector<uint8_t>& ref,
                                 const TflagCom& com, size_t target_len,
                                 const std::vector<uint8_t>& literal) {
  switch (com.mode) {
    case TflagMode::kIdentical:
      return ref;
    case TflagMode::kLiteral:
      return literal;
    case TflagMode::kFactors:
      break;
  }
  std::vector<uint8_t> out;
  out.reserve(target_len);
  for (size_t h = 0; h < com.factors.size(); ++h) {
    const TFactor& f = com.factors[h];
    out.insert(out.end(), ref.begin() + f.s, ref.begin() + f.s + f.l);
    const bool last = h + 1 == com.factors.size();
    if (!last) {
      out.push_back(ref[f.s + f.l] ? 0 : 1);  // inferred mismatch
    } else if (com.last_has_m) {
      out.push_back(com.last_m);
    }
  }
  return out;
}

std::vector<double> ApplyD(const std::vector<double>& ref,
                           const std::vector<DFactor>& diff) {
  std::vector<double> out = ref;
  for (const DFactor& f : diff) out[f.pos] = f.rd;
  return out;
}

}  // namespace utcq::core
