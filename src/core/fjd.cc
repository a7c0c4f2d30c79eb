#include "core/fjd.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace utcq::core {

double Fjd(const PivotCom& com_w, const PivotCom& com_v) {
  const uint32_t h_w = com_w.total_factors;
  const uint32_t h_v = com_v.total_factors;
  if (h_w == 0 || h_v == 0) return 0.0;

  double sum = 0.0;
  for (const auto& [s_v, l_v] : com_v.factors) {
    // Equation (2): the factor of w with the largest interval overlap; on
    // overlap ties the smallest L_w wins (the paper's min-on-ties rule).
    long best_overlap = 0;
    uint32_t best_l_w = 0;
    for (const auto& [s_w, l_w] : com_w.factors) {
      const long lo = std::max<long>(s_w, s_v);
      const long hi = std::min<long>(s_w + l_w, s_v + l_v);
      const long overlap = std::max<long>(hi - lo, 0);
      if (overlap > best_overlap ||
          (overlap == best_overlap && overlap > 0 && l_w < best_l_w)) {
        best_overlap = overlap;
        best_l_w = l_w;
      }
    }
    if (best_overlap > 0) {
      const double denom = static_cast<double>(std::max(best_l_w, l_v));
      sum += static_cast<double>(best_overlap) / denom;
    }
  }
  return sum / static_cast<double>(std::max(h_w, h_v));
}

namespace {

/// One PivotCom as parallel start/end/length arrays plus H, so the FJD inner
/// loop reads three contiguous arrays instead of (S, L) pairs.
struct FlatCom {
  std::vector<uint32_t> start;
  std::vector<uint32_t> end;
  std::vector<uint32_t> len;
  uint32_t total = 0;

  explicit FlatCom(const PivotCom& com) : total(com.total_factors) {
    start.reserve(com.factors.size());
    end.reserve(com.factors.size());
    len.reserve(com.factors.size());
    for (const auto& [s, l] : com.factors) {
      start.push_back(s);
      end.push_back(s + l);
      len.push_back(l);
    }
  }
};

/// Eq. 2's term of one target factor of length `l_target` whose best
/// source factor has key `best`: its overlap over max{L, L'}, or nothing
/// when no source factor overlaps it.
void AddTerm(uint64_t best, uint32_t l_target, double* sum) {
  const auto overlap = static_cast<uint32_t>(best >> 32);
  if (overlap > 0) {
    const uint32_t l_source = UINT32_MAX - static_cast<uint32_t>(best);
    *sum += static_cast<double>(overlap) /
            static_cast<double>(std::max(l_source, l_target));
  }
}

/// FJD(w -> v) and FJD(v -> w) against one pivot, each bit-for-bit Fjd():
/// one pass over the factor pairs computes each overlap once. Eq. 2's rule
/// (largest overlap, then smallest source L) is the maximum of the key
/// (overlap << 32) | (UINT32_MAX - L), taken without a branch: with L_w for
/// each factor of v (row maxima, w -> v) and with L_v for each factor of w
/// (column maxima in `*col_best`, v -> w). Each direction then sums over
/// its target's factors in order, as Fjd() does.
std::pair<double, double> FjdBothWays(const FlatCom& w, const FlatCom& v,
                                      std::vector<uint64_t>* col_best) {
  if (w.total == 0 || v.total == 0) return {0.0, 0.0};
  const size_t n_w = w.len.size();
  col_best->assign(n_w, 0);
  uint64_t* const col = col_best->data();
  double sum_wv = 0.0;
  for (size_t b = 0; b < v.len.size(); ++b) {
    const uint32_t s_v = v.start[b];
    const uint32_t e_v = v.end[b];
    const uint32_t key_v = UINT32_MAX - v.len[b];
    uint64_t row = 0;
    for (size_t a = 0; a < n_w; ++a) {
      const uint32_t lo = std::max(w.start[a], s_v);
      const uint32_t hi = std::min(w.end[a], e_v);
      const uint64_t high = uint64_t{hi > lo ? hi - lo : 0u} << 32;
      row = std::max(row, high | (UINT32_MAX - w.len[a]));
      col[a] = std::max(col[a], high | key_v);
    }
    AddTerm(row, v.len[b], &sum_wv);
  }
  double sum_vw = 0.0;
  for (size_t a = 0; a < n_w; ++a) AddTerm(col[a], w.len[a], &sum_vw);
  const auto h = static_cast<double>(std::max(w.total, v.total));
  return {sum_wv / h, sum_vw / h};
}

}  // namespace

std::vector<std::vector<double>> BuildScoreMatrix(
    const std::vector<std::vector<PivotCom>>& pivot_reprs,
    const std::vector<double>& probabilities,
    const std::vector<uint32_t>& start_vertices) {
  const size_t n = probabilities.size();
  std::vector<std::vector<double>> sm(n, std::vector<double>(n, 0.0));

  // Representation classes: instances whose representations agree against
  // every pivot have equal FJDs to and from everyone, so max_i FJD is
  // computed once per pair of classes, both directions in one kernel call.
  // The start vertex gate is symmetric, so the reverse cell is always read.
  auto same_class = [&](uint32_t a, uint32_t b) {
    for (const auto& reprs : pivot_reprs) {
      if (!(reprs[a] == reprs[b])) return false;
    }
    return true;
  };
  std::vector<uint32_t> class_of(n);
  std::vector<uint32_t> members;  // one instance per class
  for (uint32_t w = 0; w < n; ++w) {
    uint32_t c = 0;
    while (c < members.size() && !same_class(members[c], w)) ++c;
    if (c == members.size()) members.push_back(w);
    class_of[w] = c;
  }
  const size_t classes = members.size();

  // flat[i * classes + c]: class c's representation against pivot i.
  std::vector<FlatCom> flat;
  flat.reserve(pivot_reprs.size() * classes);
  for (const auto& reprs : pivot_reprs) {
    for (const uint32_t w : members) flat.emplace_back(reprs[w]);
  }

  constexpr double kUnset = -1.0;  // FJD is never negative
  std::vector<double> memo(classes * classes, kUnset);
  std::vector<uint64_t> col_best;
  for (size_t w = 0; w < n; ++w) {
    for (size_t v = 0; v < n; ++v) {
      if (w == v) continue;  // SF(w, w) = 0
      if (start_vertices[w] != start_vertices[v]) continue;
      const uint32_t cw = class_of[w];
      const uint32_t cv = class_of[v];
      if (memo[cw * classes + cv] == kUnset) {
        double best_wv = 0.0;
        double best_vw = 0.0;
        for (size_t i = 0; i < pivot_reprs.size(); ++i) {
          const auto [wv, vw] = FjdBothWays(
              flat[i * classes + cw], flat[i * classes + cv], &col_best);
          best_wv = std::max(best_wv, wv);
          best_vw = std::max(best_vw, vw);
        }
        memo[cv * classes + cw] = best_vw;
        memo[cw * classes + cv] = best_wv;
      }
      sm[w][v] = probabilities[w] * memo[cw * classes + cv];
    }
  }
  return sm;
}

}  // namespace utcq::core
