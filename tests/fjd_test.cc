#include <algorithm>
#include <queue>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fjd.h"
#include "core/pivot.h"
#include "core/reference_selection.h"
#include "paper_example.h"
#include "traj/types.h"

namespace utcq::core {
namespace {

std::vector<std::vector<uint32_t>> PaperEntrySequences() {
  const auto ex = test::MakePaperExample();
  std::vector<std::vector<uint32_t>> seqs;
  for (const auto& inst : ex.tu.instances) {
    seqs.push_back(traj::BuildEdgeSequence(ex.net, inst));
  }
  return seqs;
}

// ---------------------------------------------------------------- pivots

TEST(Pivot, PaperPivotRepresentations) {
  const auto seqs = PaperEntrySequences();
  // piv_1 = Tu^1_3 (Section 4.3): Com_E(Tu^1_1, piv_1) = <(0,8), (5,1)>.
  const auto com1 = FactorizeAgainstPivot(seqs[2], seqs[0]);
  ASSERT_EQ(com1.factors.size(), 2u);
  EXPECT_EQ(com1.factors[0], (std::pair<uint32_t, uint32_t>{0, 8}));
  EXPECT_EQ(com1.factors[1], (std::pair<uint32_t, uint32_t>{5, 1}));
  EXPECT_EQ(com1.total_factors, 2u);

  // Com_E(Tu^1_2, piv_1) = <(0,1), (0,1), (2,6), (5,1)> (Example 1).
  const auto com2 = FactorizeAgainstPivot(seqs[2], seqs[1]);
  ASSERT_EQ(com2.factors.size(), 4u);
  EXPECT_EQ(com2.factors[0], (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_EQ(com2.factors[1], (std::pair<uint32_t, uint32_t>{0, 1}));
  EXPECT_EQ(com2.factors[2], (std::pair<uint32_t, uint32_t>{2, 6}));
  EXPECT_EQ(com2.factors[3], (std::pair<uint32_t, uint32_t>{5, 1}));
}

TEST(Pivot, AbsentSymbolsCountedButOmitted) {
  const std::vector<uint32_t> pivot = {1, 2, 1};
  const std::vector<uint32_t> target = {1, 9, 2};  // 9 absent
  const auto com = FactorizeAgainstPivot(pivot, target);
  EXPECT_EQ(com.total_factors, 3u);
  EXPECT_EQ(com.factors.size(), 2u);
}

TEST(Pivot, SelectPivotsPicksFarthestInstance) {
  const auto seqs = PaperEntrySequences();
  // Seeded at instance 0, the farthest instance (most factors against
  // Tu^1_1) is Tu^1_2 (the detour): it becomes the first pivot.
  const auto pivots = SelectPivots(seqs, 1, 0);
  ASSERT_EQ(pivots.size(), 1u);
  EXPECT_EQ(pivots[0], 1u);
  // Two pivots never repeat.
  const auto two = SelectPivots(seqs, 2, 0);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_NE(two[0], two[1]);
}

TEST(Pivot, RepresentAgainstPivotsShapes) {
  const auto seqs = PaperEntrySequences();
  const auto reprs = RepresentAgainstPivots(seqs, {2u, 0u});
  ASSERT_EQ(reprs.size(), 2u);
  ASSERT_EQ(reprs[0].size(), 3u);
  // Every sequence representable against itself with one factor.
  EXPECT_EQ(reprs[0][2].factors.size(), 1u);
  EXPECT_EQ(reprs[1][0].factors.size(), 1u);
}

// ------------------------------------------------------------------ FJD

TEST(Fjd, PaperExample1ExactValue) {
  const auto seqs = PaperEntrySequences();
  const auto com_w = FactorizeAgainstPivot(seqs[2], seqs[0]);  // Tu^1_1
  const auto com_v = FactorizeAgainstPivot(seqs[2], seqs[1]);  // Tu^1_2
  // FJD(Tu^1_1 -> Tu^1_2, piv_1) = (1/8 + 1/8 + 3/4 + 1) / 4 = 1/2.
  EXPECT_DOUBLE_EQ(Fjd(com_w, com_v), 0.5);
}

TEST(Fjd, IdenticalRepresentationsScoreOne) {
  const auto seqs = PaperEntrySequences();
  const auto com = FactorizeAgainstPivot(seqs[2], seqs[0]);
  EXPECT_DOUBLE_EQ(Fjd(com, com), 1.0);
}

TEST(Fjd, DisjointFactorsScoreZero) {
  PivotCom a;
  a.factors = {{0, 3}};
  a.total_factors = 1;
  PivotCom b;
  b.factors = {{10, 3}};
  b.total_factors = 1;
  EXPECT_DOUBLE_EQ(Fjd(a, b), 0.0);
}

TEST(Fjd, ScoreMatrixZeroDiagonalAndSvGate) {
  const auto ex = test::MakePaperExample();
  const auto seqs = PaperEntrySequences();
  const auto reprs = RepresentAgainstPivots(seqs, {2u});
  std::vector<double> probs = {0.75, 0.2, 0.05};
  std::vector<uint32_t> svs = {1, 1, 2};  // pretend Tu^1_3 starts elsewhere
  const auto sm = BuildScoreMatrix(reprs, probs, svs);
  EXPECT_DOUBLE_EQ(sm[0][0], 0.0);
  EXPECT_DOUBLE_EQ(sm[1][1], 0.0);
  EXPECT_GT(sm[0][1], 0.0);
  EXPECT_DOUBLE_EQ(sm[0][2], 0.0);  // different SV
  EXPECT_DOUBLE_EQ(sm[2][0], 0.0);
  // Probability weighting: representing by Tu^1_1 scores higher than the
  // reverse direction (p = 0.75 vs 0.2) given symmetric FJD inputs.
  EXPECT_GT(sm[0][1], sm[1][0]);
}

/// A random PivotCom: factors inside a short pivot, H at least the factor
/// count (absent symbols add to H only), sometimes empty.
PivotCom RandomPivotCom(common::Rng& rng) {
  PivotCom com;
  for (int k = static_cast<int>(rng.UniformInt(0, 6)); k > 0; --k) {
    com.factors.emplace_back(static_cast<uint32_t>(rng.UniformInt(0, 20)),
                             static_cast<uint32_t>(rng.UniformInt(1, 8)));
  }
  com.total_factors = static_cast<uint32_t>(com.factors.size()) +
                      static_cast<uint32_t>(rng.UniformInt(0, 2));
  return com;
}

TEST(Fjd, ScoreMatrixEqualsPairwiseFjd) {
  common::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<size_t>(rng.UniformInt(0, 14));
    const auto num_pivots = static_cast<size_t>(rng.UniformInt(1, 3));
    // Each instance draws its representation against each pivot from a
    // small pool independently, so instances agree against one pivot and
    // differ against another: the class memo must key on all pivots.
    std::vector<std::vector<PivotCom>> reprs(num_pivots);
    for (auto& per_pivot : reprs) {
      std::vector<PivotCom> pool(static_cast<size_t>(rng.UniformInt(1, 3)));
      for (auto& com : pool) com = RandomPivotCom(rng);
      for (size_t w = 0; w < n; ++w) {
        per_pivot.push_back(pool[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))]);
      }
    }
    std::vector<double> probs(n);
    std::vector<uint32_t> svs(n);
    for (size_t w = 0; w < n; ++w) {
      probs[w] = rng.Uniform(0.01, 1.0);
      svs[w] = static_cast<uint32_t>(rng.UniformInt(0, 1));
    }
    const auto sm = BuildScoreMatrix(reprs, probs, svs);
    ASSERT_EQ(sm.size(), n);
    for (size_t w = 0; w < n; ++w) {
      for (size_t v = 0; v < n; ++v) {
        double want = 0.0;
        if (w != v && svs[w] == svs[v]) {
          double best = 0.0;
          for (const auto& per_pivot : reprs) {
            best = std::max(best, Fjd(per_pivot[w], per_pivot[v]));
          }
          want = probs[w] * best;
        }
        // Bitwise: Algorithm 1 orders cells by these doubles.
        ASSERT_TRUE(sm[w][v] == want)
            << "trial " << trial << " cell " << w << "," << v << ": "
            << sm[w][v] << " vs " << want;
      }
    }
  }
}

TEST(Fjd, ScoreMatrixScoresAnAsymmetricPairBothWays) {
  // Both cells of one class pair come from one pass over the factor pairs,
  // so the pair is asymmetric: different factor counts, H above the factor
  // count on one side, and an overlap tie broken by L in one direction only.
  // w: [0,4) L 4, [0,6) L 6.  v: [0,2) L 2, [4,5) L 1, H = 3.
  PivotCom w;
  w.factors = {{0, 4}, {0, 6}};
  w.total_factors = 2;
  PivotCom v;
  v.factors = {{0, 2}, {4, 1}};
  v.total_factors = 3;
  // w -> v: v's [0,2) overlaps both of w's factors by 2, and the smaller
  // L_w = 4 wins (2/4); [4,5) meets only [0,6) (1/6).
  const double want_wv = (0.5 + 1.0 / 6.0) / 3.0;
  // v -> w: [0,4) is best met by [0,2) (2/4), [0,6) by [0,2) (2/6); no
  // ties. A kernel that broke the w -> v tie by L_v, or swapped the two
  // directions' maxima, reads other values.
  const double want_vw = (0.5 + 1.0 / 3.0) / 3.0;
  ASSERT_TRUE(Fjd(w, v) == want_wv);
  ASSERT_TRUE(Fjd(v, w) == want_vw);
  const auto sm = BuildScoreMatrix({{w, v}}, {1.0, 1.0}, {7, 7});
  EXPECT_TRUE(sm[0][1] == want_wv) << sm[0][1] << " vs " << want_wv;
  EXPECT_TRUE(sm[1][0] == want_vw) << sm[1][0] << " vs " << want_vw;
}

TEST(Fjd, PaperScoreMatrixPrefersHighProbabilityReference) {
  const auto ex = test::MakePaperExample();
  const auto seqs = PaperEntrySequences();
  const auto reprs = RepresentAgainstPivots(seqs, {2u});
  std::vector<double> probs(3);
  std::vector<uint32_t> svs(3);
  for (size_t w = 0; w < 3; ++w) {
    probs[w] = ex.tu.instances[w].probability;
    svs[w] = traj::StartVertex(ex.net, ex.tu.instances[w]);
  }
  const auto sm = BuildScoreMatrix(reprs, probs, svs);
  const auto plan = SelectReferences(sm);
  // Tu^1_1 (p = 0.75) becomes the reference; both others join its Rrs
  // (Example 2's outcome).
  ASSERT_EQ(plan.references.size(), 1u);
  EXPECT_EQ(plan.references[0], 0u);
  EXPECT_EQ(plan.Rrs(0), (std::vector<uint32_t>{1, 2}));
}

// ------------------------------------------------------ Algorithm 1 greedy

TEST(ReferenceSelection, EmptyAndSingleton) {
  EXPECT_TRUE(SelectReferences({}).references.empty());
  const auto plan = SelectReferences({{0.0}});
  ASSERT_EQ(plan.references.size(), 1u);
  EXPECT_EQ(plan.references[0], 0u);
  EXPECT_TRUE(plan.IsReference(0));
}

TEST(ReferenceSelection, AllZeroScoresMakeEveryoneStandalone) {
  const std::vector<std::vector<double>> sm(4, std::vector<double>(4, 0.0));
  const auto plan = SelectReferences(sm);
  EXPECT_EQ(plan.references.size(), 4u);
  for (uint32_t w = 0; w < 4; ++w) EXPECT_TRUE(plan.IsReference(w));
}

TEST(ReferenceSelection, GreedyPicksMaxAndEnforcesConstraints) {
  // 0 represents 1 (0.9, global max); after that 1 may not represent 2
  // even though 0.8 would be next — 1 is already represented. 2 ends up
  // standalone unless someone else can take it (0 can: 0.3).
  std::vector<std::vector<double>> sm = {
      {0.0, 0.9, 0.3},
      {0.0, 0.0, 0.8},
      {0.0, 0.0, 0.0},
  };
  const auto plan = SelectReferences(sm);
  ASSERT_GE(plan.references.size(), 1u);
  EXPECT_EQ(plan.references[0], 0u);
  EXPECT_EQ(plan.ref_of[1], 0);
  EXPECT_EQ(plan.ref_of[2], 0);  // 0 also takes 2 via SM[0][2] = 0.3
}

TEST(ReferenceSelection, ReferenceCannotBeRepresented) {
  // Global max makes 0 a reference; the tempting SM[1][0] = 0.85 must then
  // be discarded (column-0 removal, line 7 of Algorithm 1).
  std::vector<std::vector<double>> sm = {
      {0.0, 0.9, 0.0},
      {0.85, 0.0, 0.0},
      {0.0, 0.0, 0.0},
  };
  const auto plan = SelectReferences(sm);
  EXPECT_TRUE(plan.IsReference(0));
  EXPECT_EQ(plan.ref_of[1], 0);
  EXPECT_TRUE(plan.IsReference(2));  // standalone leftover
  // 0 must still be a reference, never represented.
  EXPECT_LT(plan.ref_of[0], 0);
}

TEST(ReferenceSelection, SingleOrderOnly) {
  // Chain temptation 0->1 (0.9), 1->2 (0.89): single-order compression
  // forbids 1 (now represented) from representing 2; 0->2 (0.5) wins.
  std::vector<std::vector<double>> sm = {
      {0.0, 0.9, 0.5},
      {0.0, 0.0, 0.89},
      {0.0, 0.0, 0.0},
  };
  const auto plan = SelectReferences(sm);
  EXPECT_EQ(plan.ref_of[1], 0);
  EXPECT_EQ(plan.ref_of[2], 0);
  EXPECT_EQ(plan.references.size(), 1u);
}

TEST(ReferenceSelection, RrsMembership) {
  std::vector<std::vector<double>> sm = {
      {0.0, 0.9, 0.8, 0.0},
      {0.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
      {0.0, 0.0, 0.0, 0.0},
  };
  const auto plan = SelectReferences(sm);
  EXPECT_EQ(plan.Rrs(0), (std::vector<uint32_t>{1, 2}));
  // Instance 3 is standalone with empty Rrs.
  ASSERT_EQ(plan.references.size(), 2u);
  EXPECT_EQ(plan.references[1], 3u);
  EXPECT_TRUE(plan.Rrs(1).empty());
}

/// Algorithm 1 as it was written before the early exit: every positive cell
/// is popped, applied or skipped, and references are found by linear
/// search.
ReferencePlan ExhaustiveSelectReferences(
    const std::vector<std::vector<double>>& sm) {
  const size_t n = sm.size();
  ReferencePlan plan;
  plan.ref_of.assign(n, -1);
  struct Cell {
    double score;
    uint32_t w;
    uint32_t v;
    bool operator<(const Cell& o) const { return score < o.score; }
  };
  std::priority_queue<Cell> heap;
  for (uint32_t w = 0; w < n; ++w) {
    for (uint32_t v = 0; v < n; ++v) {
      if (w != v && sm[w][v] > 0.0) heap.push({sm[w][v], w, v});
    }
  }
  std::vector<bool> is_reference(n, false);
  std::vector<bool> is_represented(n, false);
  while (!heap.empty()) {
    const Cell cell = heap.top();
    heap.pop();
    if (is_represented[cell.w]) continue;
    if (is_reference[cell.v] || is_represented[cell.v]) continue;
    is_reference[cell.w] = true;
    is_represented[cell.v] = true;
    const auto it =
        std::find(plan.references.begin(), plan.references.end(), cell.w);
    const auto pos = static_cast<int32_t>(it - plan.references.begin());
    if (it == plan.references.end()) plan.references.push_back(cell.w);
    plan.ref_of[cell.v] = pos;
  }
  for (uint32_t w = 0; w < n; ++w) {
    if (!is_reference[w] && !is_represented[w]) plan.references.push_back(w);
  }
  return plan;
}

TEST(ReferenceSelection, EarlyExitMatchesExhaustiveLoop) {
  common::Rng rng(90210);
  const double levels[] = {0.25, 0.5, 0.75};
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<size_t>(rng.UniformInt(0, 16));
    std::vector<std::vector<double>> sm(n, std::vector<double>(n, 0.0));
    // Three score levels make ties the rule, so the heap's tie order
    // decides references; dead rows and columns leave instances that
    // represent nobody or that nobody can represent.
    const double density = rng.Uniform(0.1, 0.9);
    std::vector<bool> dead_row(n), dead_col(n);
    for (size_t w = 0; w < n; ++w) {
      dead_row[w] = rng.Bernoulli(0.2);
      dead_col[w] = rng.Bernoulli(0.2);
    }
    for (size_t w = 0; w < n; ++w) {
      for (size_t v = 0; v < n; ++v) {
        if (w == v || dead_row[w] || dead_col[v]) continue;
        if (rng.Bernoulli(density)) sm[w][v] = levels[rng.UniformInt(0, 2)];
      }
    }
    const ReferencePlan want = ExhaustiveSelectReferences(sm);
    const ReferencePlan got = SelectReferences(sm);
    ASSERT_EQ(got.references, want.references) << "trial " << trial;
    ASSERT_EQ(got.ref_of, want.ref_of) << "trial " << trial;
  }
}

}  // namespace
}  // namespace utcq::core
