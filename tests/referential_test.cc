#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/improved_ted.h"
#include "core/pivot.h"
#include "core/referential.h"
#include "paper_example.h"
#include "traj/types.h"

namespace utcq::core {
namespace {

// --------------------------------------------------- improved TED & SIAR

TEST(ImprovedTed, PaperTable3Representation) {
  const auto ex = test::MakePaperExample();
  const auto r1 = BuildInstanceRepr(ex.net, ex.tu.instances[0]);
  const auto r2 = BuildInstanceRepr(ex.net, ex.tu.instances[1]);
  const auto r3 = BuildInstanceRepr(ex.net, ex.tu.instances[2]);
  EXPECT_EQ(r1.entries, (std::vector<uint32_t>{1, 2, 1, 2, 2, 0, 4, 1, 0}));
  // Trimmed time flags (Table 3 drops the always-1 first/last bits).
  EXPECT_EQ(r1.tflag_trimmed, (std::vector<uint8_t>{0, 1, 0, 1, 1, 1, 1}));
  EXPECT_EQ(r2.tflag_trimmed, (std::vector<uint8_t>{1, 0, 0, 1, 1, 1, 1}));
  EXPECT_EQ(r3.tflag_trimmed, (std::vector<uint8_t>{0, 1, 0, 1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(r1.p, 0.75);
  EXPECT_EQ(r1.sv, ex.v[1]);
  EXPECT_EQ(r2.sv, ex.v[1]);
}

TEST(ImprovedTed, UntrimRestoresSentinelBits) {
  // The output buffer starts non-empty: it is cleared, not appended to.
  const auto untrim = [](const std::vector<uint8_t>& trimmed, size_t n) {
    std::vector<uint8_t> full = {7, 7};
    UntrimTimeFlags(trimmed, n, &full);
    return full;
  };
  EXPECT_EQ(untrim({0, 1, 0}, 5), (std::vector<uint8_t>{1, 0, 1, 0, 1}));
  EXPECT_EQ(untrim({}, 2), (std::vector<uint8_t>{1, 1}));
  EXPECT_EQ(untrim({}, 1), (std::vector<uint8_t>{1}));
  EXPECT_TRUE(untrim({}, 0).empty());
}

TEST(Siar, PaperExampleDeltas) {
  // <5:03:25, 0, 1, 0, -1, 0, 0> with Ts = 240 (Section 4.1).
  const std::vector<traj::Timestamp> times = {18205, 18445, 18686, 18926,
                                              19165, 19405, 19645};
  const auto deltas = SiarDeltas(times, 240);
  EXPECT_EQ(deltas, (std::vector<int64_t>{0, 1, 0, -1, 0, 0}));
  EXPECT_EQ(SiarExpand(18205, deltas, 240), times);
}

TEST(Siar, RoundTripRandom) {
  common::Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<traj::Timestamp> times{rng.UniformInt(0, 1000)};
    const int64_t ts = rng.UniformInt(1, 30);
    for (int i = 0; i < 30; ++i) {
      times.push_back(times.back() + std::max<int64_t>(1, ts + rng.UniformInt(-5, 60)));
    }
    const auto deltas = SiarDeltas(times, ts);
    EXPECT_EQ(SiarExpand(times[0], deltas, ts), times);
  }
}

// ------------------------------------------------------------- E factors

TEST(FactorizeE, PaperTable4ComE) {
  const auto ex = test::MakePaperExample();
  const auto ref = traj::BuildEdgeSequence(ex.net, ex.tu.instances[0]);
  const auto nref1 = traj::BuildEdgeSequence(ex.net, ex.tu.instances[1]);
  const auto nref2 = traj::BuildEdgeSequence(ex.net, ex.tu.instances[2]);

  // Com_E(Nref_11, Ref_1) = <(0,1,1), (2,7)>.
  const auto f1 = FactorizeE(ref, nref1);
  ASSERT_EQ(f1.size(), 2u);
  EXPECT_EQ(f1[0], (EFactor{0, 1, 1, false}));
  EXPECT_EQ(f1[1], (EFactor{2, 7, std::nullopt, false}));

  // Com_E(Nref_12, Ref_1) = <(0,8,2)>.
  const auto f2 = FactorizeE(ref, nref2);
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_EQ(f2[0], (EFactor{0, 8, 2, false}));

  EXPECT_EQ(ExpandE(ref, f1), nref1);
  EXPECT_EQ(ExpandE(ref, f2), nref2);
}

TEST(FactorizeE, CaseBForAbsentSymbol) {
  // Section 4.2's example: E(Tu^1_4) = <3,2,1,2,2> against Ref_1: the
  // leading 3 does not occur in the reference -> factor (9, 3).
  const auto ex = test::MakePaperExample();
  const auto ref = traj::BuildEdgeSequence(ex.net, ex.tu.instances[0]);
  const std::vector<uint32_t> target = {3, 2, 1, 2, 2};
  const auto factors = FactorizeE(ref, target);
  ASSERT_GE(factors.size(), 2u);
  EXPECT_TRUE(factors[0].case_b);
  EXPECT_EQ(factors[0].s, ref.size());
  EXPECT_EQ(*factors[0].m, 3u);
  EXPECT_EQ(ExpandE(ref, factors), target);
}

TEST(FactorizeE, IdenticalSequencesYieldOneCompleteFactor) {
  const std::vector<uint32_t> seq = {1, 2, 3, 2, 1};
  const auto factors = FactorizeE(seq, seq);
  ASSERT_EQ(factors.size(), 1u);
  EXPECT_EQ(factors[0], (EFactor{0, 5, std::nullopt, false}));
}

TEST(FactorizeE, RandomRoundTrip) {
  common::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t ref_len = static_cast<size_t>(rng.UniformInt(1, 40));
    const size_t tgt_len = static_cast<size_t>(rng.UniformInt(1, 40));
    std::vector<uint32_t> ref(ref_len), target(tgt_len);
    for (auto& v : ref) v = static_cast<uint32_t>(rng.UniformInt(0, 5));
    for (auto& v : target) v = static_cast<uint32_t>(rng.UniformInt(0, 7));
    const auto factors = FactorizeE(ref, target);
    EXPECT_EQ(ExpandE(ref, factors), target);
  }
}

// The greedy scans as they were written before SymbolIndex: a per-call
// unordered_map of occurrence lists. The index must reproduce them factor
// for factor, since the archive bytes are built from these factors.
namespace oracle {

std::pair<uint32_t, size_t> MapLongestMatch(
    const std::unordered_map<uint32_t, std::vector<uint32_t>>& occurrences,
    const std::vector<uint32_t>& ref, const std::vector<uint32_t>& target,
    size_t i) {
  uint32_t best_s = 0;
  size_t best_l = 0;
  const auto it = occurrences.find(target[i]);
  if (it != occurrences.end()) {
    for (const uint32_t s : it->second) {
      size_t l = 0;
      while (s + l < ref.size() && i + l < target.size() &&
             ref[s + l] == target[i + l]) {
        ++l;
      }
      if (l > best_l) {
        best_l = l;
        best_s = s;
      }
    }
  }
  return {best_s, best_l};
}

std::unordered_map<uint32_t, std::vector<uint32_t>> Occurrences(
    const std::vector<uint32_t>& ref) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> occurrences;
  for (uint32_t s = 0; s < ref.size(); ++s) occurrences[ref[s]].push_back(s);
  return occurrences;
}

std::vector<EFactor> FactorizeE(const std::vector<uint32_t>& ref,
                                const std::vector<uint32_t>& target) {
  const auto occurrences = Occurrences(ref);
  std::vector<EFactor> factors;
  const size_t n = target.size();
  const auto m = static_cast<uint32_t>(ref.size());
  size_t i = 0;
  while (i < n) {
    const auto [best_s, best_l] = MapLongestMatch(occurrences, ref, target, i);
    if (best_l == 0) {
      factors.push_back({m, 0, target[i], true});
      ++i;
      continue;
    }
    if (i + best_l == n) {
      factors.push_back(
          {best_s, static_cast<uint32_t>(best_l), std::nullopt, false});
      break;
    }
    factors.push_back(
        {best_s, static_cast<uint32_t>(best_l), target[i + best_l], false});
    i += best_l + 1;
  }
  return factors;
}

PivotCom FactorizeAgainstPivot(const std::vector<uint32_t>& pivot,
                               const std::vector<uint32_t>& target) {
  const auto occurrences = Occurrences(pivot);
  PivotCom com;
  size_t i = 0;
  while (i < target.size()) {
    const auto [best_s, best_l] =
        MapLongestMatch(occurrences, pivot, target, i);
    ++com.total_factors;
    if (best_l == 0) {
      ++i;
      continue;
    }
    com.factors.emplace_back(best_s, static_cast<uint32_t>(best_l));
    i += best_l;
  }
  return com;
}

}  // namespace oracle

TEST(SymbolIndex, FactorizersMatchTheOccurrenceMapScan) {
  common::Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    // Small alphabets make long runs of equal candidates, so the first-
    // longest tie rule decides many factors.
    const auto alphabet = static_cast<uint32_t>(rng.UniformInt(1, 6));
    std::vector<uint32_t> ref(static_cast<size_t>(rng.UniformInt(0, 40)));
    for (auto& v : ref) v = static_cast<uint32_t>(rng.UniformInt(0, alphabet));
    const SymbolIndex index(ref);  // shared by every target below
    for (int t = 0; t < 8; ++t) {
      std::vector<uint32_t> target;
      if (t % 2 == 0 || ref.empty()) {
        target.resize(static_cast<size_t>(rng.UniformInt(0, 40)));
        for (auto& v : target) {
          v = static_cast<uint32_t>(rng.UniformInt(0, alphabet + 1));
        }
      } else {
        target = ref;  // a mutated copy: long matches, a few mismatches
        for (int k = static_cast<int>(rng.UniformInt(0, 4)); k > 0; --k) {
          const auto at = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(target.size()) - 1));
          target[at] = static_cast<uint32_t>(rng.UniformInt(0, alphabet + 1));
        }
      }
      const auto want_e = oracle::FactorizeE(ref, target);
      ASSERT_EQ(FactorizeE(index, target), want_e) << "trial " << trial;
      ASSERT_EQ(FactorizeE(ref, target), want_e) << "trial " << trial;
      const PivotCom want_p = oracle::FactorizeAgainstPivot(ref, target);
      const PivotCom got_p = FactorizeAgainstPivot(index, target);
      ASSERT_EQ(got_p.factors, want_p.factors) << "trial " << trial;
      ASSERT_EQ(got_p.total_factors, want_p.total_factors)
          << "trial " << trial;
      ASSERT_EQ(FactorizeAgainstPivot(ref, target).factors, want_p.factors)
          << "trial " << trial;
    }
  }
}

TEST(FactorizeE, MutatedCopiesProduceFewFactors) {
  common::Rng rng(78);
  std::vector<uint32_t> ref(60);
  for (auto& v : ref) v = static_cast<uint32_t>(rng.UniformInt(1, 4));
  auto target = ref;
  target[20] = 5;
  target[40] = 6;
  const auto factors = FactorizeE(ref, target);
  EXPECT_LE(factors.size(), 3u);
  EXPECT_EQ(ExpandE(ref, factors), target);
}

// ------------------------------------------------------------ T' factors

TEST(FactorizeTflag, PaperTable4ComTflag) {
  const auto ex = test::MakePaperExample();
  const auto r1 = BuildInstanceRepr(ex.net, ex.tu.instances[0]);
  const auto r2 = BuildInstanceRepr(ex.net, ex.tu.instances[1]);
  const auto r3 = BuildInstanceRepr(ex.net, ex.tu.instances[2]);

  // Com_T'(Nref_11, Ref_1) = <(1,2), (3,4)> (pure factorization; mode
  // selection may still prefer a literal when the strings are this short).
  TflagCom com1;
  com1.mode = TflagMode::kFactors;
  ASSERT_TRUE(FactorizeTflagFactors(r1.tflag_trimmed, r2.tflag_trimmed,
                                    &com1.factors, &com1.last_has_m,
                                    &com1.last_m));
  ASSERT_EQ(com1.factors.size(), 2u);
  EXPECT_EQ(com1.factors[0], (TFactor{1, 2}));
  EXPECT_EQ(com1.factors[1], (TFactor{3, 4}));
  EXPECT_FALSE(com1.last_has_m);
  EXPECT_EQ(ExpandTflag(r1.tflag_trimmed, com1, r2.tflag_trimmed.size()),
            r2.tflag_trimmed);
  // Whatever mode FactorizeTflag selects must round-trip as well.
  const auto chosen = FactorizeTflag(r1.tflag_trimmed, r2.tflag_trimmed);
  EXPECT_EQ(ExpandTflag(r1.tflag_trimmed, chosen, r2.tflag_trimmed.size(),
                        r2.tflag_trimmed),
            r2.tflag_trimmed);

  // Com_T'(Nref_12, Ref_1) = empty set (identical).
  const auto com2 = FactorizeTflag(r1.tflag_trimmed, r3.tflag_trimmed);
  EXPECT_EQ(com2.mode, TflagMode::kIdentical);
}

TEST(FactorizeTflag, LiteralFallbackOnDegenerateReference) {
  // A constant reference cannot express the opposite bit via inference.
  const std::vector<uint8_t> ref = {1, 1, 1, 1};
  const std::vector<uint8_t> target = {0, 0, 1, 0};
  const auto com = FactorizeTflag(ref, target);
  // Whatever mode was chosen must round-trip.
  EXPECT_EQ(ExpandTflag(ref, com, target.size(), target), target);
}

TEST(FactorizeTflag, RandomRoundTrip) {
  common::Rng rng(91);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t ref_len = static_cast<size_t>(rng.UniformInt(1, 30));
    const size_t tgt_len = static_cast<size_t>(rng.UniformInt(1, 30));
    std::vector<uint8_t> ref(ref_len), target(tgt_len);
    for (auto& b : ref) b = rng.Bernoulli(0.7) ? 1 : 0;
    for (auto& b : target) b = rng.Bernoulli(0.7) ? 1 : 0;
    const auto com = FactorizeTflag(ref, target);
    EXPECT_EQ(ExpandTflag(ref, com, target.size(), target), target)
        << "trial " << trial;
  }
}

TEST(FactorizeTflag, SimilarStringsBeatLiteral) {
  // Realistic case: long mostly-1 flag strings differing in two bits.
  std::vector<uint8_t> ref(50, 1);
  ref[10] = 0;
  ref[30] = 0;
  auto target = ref;
  target[20] = 0;
  const auto com = FactorizeTflag(ref, target);
  EXPECT_EQ(com.mode, TflagMode::kFactors);
  EXPECT_LE(com.factors.size(), 3u);
  EXPECT_EQ(ExpandTflag(ref, com, target.size()), target);
}

// ------------------------------------------------------------- D factors

TEST(DiffD, PaperTable4ComD) {
  const auto ex = test::MakePaperExample();
  const auto r1 = BuildInstanceRepr(ex.net, ex.tu.instances[0]);
  const auto r2 = BuildInstanceRepr(ex.net, ex.tu.instances[1]);
  const auto r3 = BuildInstanceRepr(ex.net, ex.tu.instances[2]);
  const auto identity = [](double v) { return v; };

  // Com_D(Nref_11, Ref_1) = empty set; Com_D(Nref_12, Ref_1) = <(6, 0.5)>.
  EXPECT_TRUE(DiffD(r1.rds, r2.rds, identity).empty());
  const auto diff = DiffD(r1.rds, r3.rds, identity);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].pos, 6u);
  EXPECT_DOUBLE_EQ(diff[0].rd, 0.5);
  EXPECT_EQ(ApplyD(r1.rds, diff), r3.rds);
}

TEST(DiffD, QuantizerSuppressesSubThresholdDifferences) {
  const auto quantize = [](double v) { return std::round(v * 8) / 8; };
  const std::vector<double> ref = {0.5, 0.25};
  // 0.51 ~ 0.5 on the 1/8 grid (no factor); 0.40 -> 0.375 != 0.25 (factor).
  const std::vector<double> target = {0.51, 0.40};
  const auto diff = DiffD(ref, target, quantize);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].pos, 1u);
}

}  // namespace
}  // namespace utcq::core
