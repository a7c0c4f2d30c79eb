#include "core/pivot.h"

#include <algorithm>

namespace utcq::core {

PivotCom FactorizeAgainstPivot(const SymbolIndex& pivot,
                               std::span<const uint32_t> target) {
  PivotCom com;
  size_t i = 0;
  while (i < target.size()) {
    const auto [best_s, best_l] = pivot.LongestMatch(target, i);
    ++com.total_factors;
    if (best_l == 0) {
      // Symbol absent from the pivot: factor omitted but counted.
      ++i;
      continue;
    }
    com.factors.emplace_back(best_s, best_l);
    i += best_l;
  }
  return com;
}

PivotCom FactorizeAgainstPivot(const std::vector<uint32_t>& pivot,
                               const std::vector<uint32_t>& target) {
  return FactorizeAgainstPivot(SymbolIndex(pivot), target);
}

std::vector<uint32_t> SelectPivots(
    const std::vector<std::vector<uint32_t>>& entry_seqs, int num_pivots,
    uint32_t seed_instance) {
  std::vector<uint32_t> pivots;
  const size_t n = entry_seqs.size();
  if (n == 0 || num_pivots <= 0) return pivots;
  uint32_t current = std::min<uint32_t>(seed_instance, n - 1);

  std::vector<bool> chosen(n, false);
  for (int round = 0; round < num_pivots && pivots.size() < n; ++round) {
    // Represent everything against `current`; the instance with the most
    // factors is farthest away and becomes the next pivot.
    const SymbolIndex index(entry_seqs[current]);
    uint32_t farthest = current;
    uint32_t max_factors = 0;
    for (uint32_t w = 0; w < n; ++w) {
      if (chosen[w]) continue;
      const PivotCom com = FactorizeAgainstPivot(index, entry_seqs[w]);
      if (com.total_factors > max_factors) {
        max_factors = com.total_factors;
        farthest = w;
      }
    }
    if (chosen[farthest]) break;
    chosen[farthest] = true;
    pivots.push_back(farthest);
    current = farthest;
  }
  return pivots;
}

std::vector<std::vector<PivotCom>> RepresentAgainstPivots(
    const std::vector<std::vector<uint32_t>>& entry_seqs,
    const std::vector<uint32_t>& pivots) {
  std::vector<std::vector<PivotCom>> result(pivots.size());
  for (size_t i = 0; i < pivots.size(); ++i) {
    const SymbolIndex index(entry_seqs[pivots[i]]);
    result[i].reserve(entry_seqs.size());
    for (const auto& seq : entry_seqs) {
      result[i].push_back(FactorizeAgainstPivot(index, seq));
    }
  }
  return result;
}

}  // namespace utcq::core
