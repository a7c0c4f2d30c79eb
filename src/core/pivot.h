#ifndef UTCQ_CORE_PIVOT_H_
#define UTCQ_CORE_PIVOT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/referential.h"

namespace utcq::core {

/// The (S, L) referential representation of one instance's E(.) against a
/// pivot [10] (Section 4.3): only factors whose symbols occur in the pivot
/// are materialized; absent symbols are dropped but still counted, so
/// `total_factors` >= factors.size().
struct PivotCom {
  std::vector<std::pair<uint32_t, uint32_t>> factors;  // (S, L)
  uint32_t total_factors = 0;

  bool operator==(const PivotCom&) const = default;
};

/// Greedy longest-match (S, L) factorization used for pivot representation,
/// against an indexed pivot.
PivotCom FactorizeAgainstPivot(const SymbolIndex& pivot,
                               std::span<const uint32_t> target);

/// As above, indexing `pivot` for this one call.
PivotCom FactorizeAgainstPivot(const std::vector<uint32_t>& pivot,
                               const std::vector<uint32_t>& target);

/// Pivot selection for one uncertain trajectory (Section 4.3): start from
/// `seed_instance`, then repeatedly pick the instance whose representation
/// against the most recent pivot has the most factors (i.e., is farthest
/// from it), re-representing everything after each pick.
///
/// Returns the chosen pivot instance indexes (size min(num_pivots, N)).
std::vector<uint32_t> SelectPivots(
    const std::vector<std::vector<uint32_t>>& entry_seqs, int num_pivots,
    uint32_t seed_instance = 0);

/// Representations of every instance against every pivot:
/// result[i][w] = Com_E(instance w, pivot i).
std::vector<std::vector<PivotCom>> RepresentAgainstPivots(
    const std::vector<std::vector<uint32_t>>& entry_seqs,
    const std::vector<uint32_t>& pivots);

}  // namespace utcq::core

#endif  // UTCQ_CORE_PIVOT_H_
