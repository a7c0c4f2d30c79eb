#ifndef UTCQ_TESTS_ANSWER_CHECKS_H_
#define UTCQ_TESTS_ANSWER_CHECKS_H_

// Order-free comparison of Where and When answers, shared by the suites
// that check an engine against verify::Oracle (differential_test,
// archive_test).

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "network/road_network.h"
#include "traj/query_types.h"

namespace utcq::test {

/// Positions are compared as points on the map: partial T decompression may
/// start its bracket scan mid-sequence, which can move an interpolated
/// offset by a floating-point ulp and, exactly at a vertex, name the
/// adjacent edge instead. Identical answers, different coordinates frames —
/// so compare the planar point, to sub-micrometre tolerance.
inline testing::AssertionResult SamePosition(
    const network::RoadNetwork& net, const traj::NetworkPosition& a,
    const traj::NetworkPosition& b) {
  const network::Vertex pa = net.PointOnEdge(a.edge, a.ndist);
  const network::Vertex pb = net.PointOnEdge(b.edge, b.ndist);
  const double d = std::hypot(pa.x - pb.x, pa.y - pb.y);
  if (d <= 1e-6) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "positions differ by " << d << " m: (edge " << a.edge << ", nd "
         << a.ndist << ") vs (edge " << b.edge << ", nd " << b.ndist << ")";
}

inline void ExpectWhereEqual(const network::RoadNetwork& net,
                             std::vector<traj::WhereHit> got,
                             std::vector<traj::WhereHit> want) {
  const auto by_instance = [](const traj::WhereHit& a,
                              const traj::WhereHit& b) {
    return a.instance < b.instance;
  };
  std::sort(got.begin(), got.end(), by_instance);
  std::sort(want.begin(), want.end(), by_instance);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].instance, want[i].instance);
    EXPECT_DOUBLE_EQ(got[i].probability, want[i].probability);
    EXPECT_TRUE(SamePosition(net, got[i].position, want[i].position));
  }
}

inline void ExpectWhenEqual(std::vector<traj::WhenHit> got,
                            std::vector<traj::WhenHit> want) {
  const auto order = [](const traj::WhenHit& a, const traj::WhenHit& b) {
    return std::tie(a.instance, a.t) < std::tie(b.instance, b.t);
  };
  std::sort(got.begin(), got.end(), order);
  std::sort(want.begin(), want.end(), order);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].instance, want[i].instance);
    EXPECT_EQ(got[i].t, want[i].t);
    EXPECT_DOUBLE_EQ(got[i].probability, want[i].probability);
  }
}

}  // namespace utcq::test

#endif  // UTCQ_TESTS_ANSWER_CHECKS_H_
