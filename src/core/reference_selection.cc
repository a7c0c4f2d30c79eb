#include "core/reference_selection.h"

#include <algorithm>
#include <functional>
#include <queue>

namespace utcq::core {

ReferencePlan SelectReferences(const std::vector<std::vector<double>>& sm) {
  const size_t n = sm.size();
  ReferencePlan plan;
  plan.ref_of.assign(n, -1);
  if (n == 0) return plan;

  // Pre-sort all positive cells (the paper's pre-sorting optimization) and
  // pop them in decreasing score order; staleness is checked against the
  // row/column liveness masks, which realize the constraint deletions.
  // Equal scores are frequent, so the heap's own tie order picks among
  // them: the push and pop sequence must stay exactly this one.
  struct Cell {
    double score;
    uint32_t w;
    uint32_t v;
    bool operator<(const Cell& o) const { return score < o.score; }
  };
  std::vector<Cell> storage;
  storage.reserve(n * (n - 1));
  std::priority_queue<Cell> heap(std::less<Cell>(), std::move(storage));
  std::vector<bool> is_target(n, false);  // v of some positive cell
  for (uint32_t w = 0; w < n; ++w) {
    for (uint32_t v = 0; v < n; ++v) {
      if (w != v && sm[w][v] > 0.0) {
        heap.push({sm[w][v], w, v});
        is_target[v] = true;
      }
    }
  }
  const auto targets =
      static_cast<size_t>(std::count(is_target.begin(), is_target.end(), true));

  std::vector<bool> is_reference(n, false);
  std::vector<bool> is_represented(n, false);
  std::vector<int32_t> position(n, -1);  // of a reference in plan.references
  // A cell applies only to a target that is neither a reference nor
  // represented. Once every target is settled so, no remaining cell can
  // apply and the rest of the heap would only be popped and skipped. (A
  // target whose every representer got represented first is never
  // settled; the heap then runs out as before.)
  size_t settled = 0;

  while (settled < targets && !heap.empty()) {
    const Cell cell = heap.top();
    heap.pop();
    // Constraint liveness: w may not be represented itself; v may not be a
    // reference or already represented.
    if (is_represented[cell.w]) continue;            // row w removed
    if (is_reference[cell.v] || is_represented[cell.v]) continue;
    if (!is_reference[cell.w]) {
      is_reference[cell.w] = true;  // line 6: new reference, create Rrs
      // Column w removal (line 7) is implied by is_reference[w].
      if (is_target[cell.w]) ++settled;
      position[cell.w] = static_cast<int32_t>(plan.references.size());
      plan.references.push_back(cell.w);
    }
    is_represented[cell.v] = true;  // lines 8-9
    ++settled;
    plan.ref_of[cell.v] = position[cell.w];
  }

  // Lines 11-13: instances that are neither references nor represented
  // become standalone references (empty Rrs).
  for (uint32_t w = 0; w < n; ++w) {
    if (!is_reference[w] && !is_represented[w]) {
      plan.references.push_back(w);
    }
  }
  return plan;
}

}  // namespace utcq::core
