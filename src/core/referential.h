#ifndef UTCQ_CORE_REFERENTIAL_H_
#define UTCQ_CORE_REFERENTIAL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace utcq::core {

/// One factor of Com_E(Nref, Ref) (Definition 8, Section 4.2).
///
/// Three shapes, exactly as the paper rewrites (S, L, M):
///  * (S, L, M): copy ref[S, S+L), then emit the mismatch M  (general case)
///  * (S, L):    copy ref[S, S+L); only legal as the final factor (case A)
///  * (S=|ref|, M): "append to reference end" for a symbol absent from the
///                  reference; L is implicit 1 (case B)
struct EFactor {
  uint32_t s = 0;
  uint32_t l = 0;                 // 0 only for case-B factors
  std::optional<uint32_t> m;      // absent only for the final case-A factor
  bool case_b = false;

  bool operator==(const EFactor&) const = default;
};

/// Occurrence index of one sequence: its (symbol, position) pairs as one
/// flat sorted array, so each symbol's positions are a contiguous ascending
/// run. Built once per pivot or reference and shared by every factorization
/// against it. Borrows the sequence, which must outlive the index.
class SymbolIndex {
 public:
  explicit SymbolIndex(std::span<const uint32_t> seq);
  explicit SymbolIndex(const std::vector<uint32_t>&& seq) = delete;

  /// Longest common prefix of target[i, ...) with seq[s, ...) over every
  /// occurrence s of target[i], as (S, L). Candidates are tried in ascending
  /// S and only a strictly longer match replaces the best, so ties go to
  /// the smallest S. L is 0 when target[i] does not occur in the sequence.
  std::pair<uint32_t, uint32_t> LongestMatch(std::span<const uint32_t> target,
                                             size_t i) const;

  size_t size() const { return seq_.size(); }

 private:
  std::span<const uint32_t> seq_;
  std::vector<std::pair<uint32_t, uint32_t>> occurrences_;  // (symbol, S)
};

/// Greedy longest-match factorization of `target` against the indexed
/// reference (ties broken toward the smallest S for determinism). The result
/// decodes back to `target` via ExpandE for any inputs.
std::vector<EFactor> FactorizeE(const SymbolIndex& ref,
                                std::span<const uint32_t> target);

/// As above, indexing `ref` for this one call.
std::vector<EFactor> FactorizeE(const std::vector<uint32_t>& ref,
                                const std::vector<uint32_t>& target);

/// Inverse of FactorizeE.
std::vector<uint32_t> ExpandE(const std::vector<uint32_t>& ref,
                              const std::vector<EFactor>& factors);

/// One (S, L) factor of the time-flag referential representation. For all
/// non-final factors the mismatched bit after the copy is *inferred* as
/// NOT ref[S+L] (Section 4.2); the final factor may carry an explicit M.
struct TFactor {
  uint32_t s = 0;
  uint32_t l = 0;

  bool operator==(const TFactor&) const = default;
};

/// How a non-reference time-flag bit-string is represented (the 2-bit mode
/// header documented in DESIGN.md §2).
enum class TflagMode : uint8_t {
  kIdentical = 0,  // Com = empty: equal to the reference
  kFactors = 1,    // (S, L) list, M inferred; final factor may carry M
  kLiteral = 2,    // raw bits (degenerate references, or factors not paying)
};

struct TflagCom {
  TflagMode mode = TflagMode::kIdentical;
  std::vector<TFactor> factors;
  bool last_has_m = false;
  uint8_t last_m = 0;

  bool operator==(const TflagCom&) const = default;
};

/// Pure (S, L) factorization of `target` against `ref` with inferable
/// intermediate mismatches (the paper's Section 4.2 construction). Returns
/// false when the inference invariant cannot be satisfied (degenerate
/// references — see DESIGN.md §2), in which case the caller must fall back
/// to literal coding.
bool FactorizeTflagFactors(const std::vector<uint8_t>& ref,
                           const std::vector<uint8_t>& target,
                           std::vector<TFactor>* factors, bool* last_has_m,
                           uint8_t* last_m);

/// Chooses the cheapest valid representation of `target` against `ref`:
/// kIdentical when equal, otherwise the factor list or a literal, whichever
/// encodes smaller.
TflagCom FactorizeTflag(const std::vector<uint8_t>& ref,
                        const std::vector<uint8_t>& target);

/// Expands a factor representation back to the target bit-string.
/// `target_len` frames the expansion; for kLiteral the caller supplies the
/// literal bits (they live in the encoded stream) via `literal`.
std::vector<uint8_t> ExpandTflag(const std::vector<uint8_t>& ref,
                                 const TflagCom& com, size_t target_len,
                                 const std::vector<uint8_t>& literal = {});

/// One factor of Com_D: position `pos` holds `rd` instead of the
/// reference's value (Section 4.2: D lengths agree across the instances of
/// one uncertain trajectory, so positional diffs are well-defined).
struct DFactor {
  uint32_t pos = 0;
  double rd = 0.0;
};

/// Positions where the *quantized* relative distances differ. Comparing
/// quantized values keeps the diff faithful to what decompression yields.
template <typename Quantizer>
std::vector<DFactor> DiffD(const std::vector<double>& ref,
                           const std::vector<double>& target,
                           const Quantizer& quantize) {
  std::vector<DFactor> diff;
  for (size_t i = 0; i < target.size(); ++i) {
    if (quantize(ref[i]) != quantize(target[i])) {
      diff.push_back({static_cast<uint32_t>(i), target[i]});
    }
  }
  return diff;
}

/// Applies D factors on top of the reference values.
std::vector<double> ApplyD(const std::vector<double>& ref,
                           const std::vector<DFactor>& diff);

}  // namespace utcq::core

#endif  // UTCQ_CORE_REFERENTIAL_H_
