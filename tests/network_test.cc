#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "network/csv_io.h"
#include "network/generator.h"
#include "network/geometry.h"
#include "network/grid_index.h"
#include "network/road_network.h"
#include "test_fixtures.h"

namespace utcq::network {
namespace {

TEST(RoadNetwork, OutgoingEdgeNumbersAreOneBasedInsertionOrder) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  const auto b = net.AddVertex(1, 0);
  const auto c = net.AddVertex(0, 1);
  const auto e1 = net.AddEdge(a, b);
  const auto e2 = net.AddEdge(a, c);
  EXPECT_EQ(net.edge(e1).out_number, 1u);
  EXPECT_EQ(net.edge(e2).out_number, 2u);
  EXPECT_EQ(net.OutEdge(a, 1), e1);
  EXPECT_EQ(net.OutEdge(a, 2), e2);
  EXPECT_EQ(net.OutEdge(a, 3), kInvalidEdge);
  EXPECT_EQ(net.OutEdge(a, 0), kInvalidEdge);
  EXPECT_EQ(net.max_out_degree(), 2u);
}

TEST(RoadNetwork, EdgeNumberBitsCoverRepeatMarkerAndMaxDegree) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  std::vector<VertexId> outs;
  for (int i = 0; i < 8; ++i) outs.push_back(net.AddVertex(i + 1.0, 0));
  for (const auto v : outs) net.AddEdge(a, v);
  // Entries take values 0..8 (0 is the repeat marker): 4 bits are needed.
  EXPECT_EQ(net.max_out_degree(), 8u);
  EXPECT_GE(net.edge_number_bits(), 4);
}

TEST(RoadNetwork, EuclideanLengthDefault) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  const auto b = net.AddVertex(3, 4);
  const auto e = net.AddEdge(a, b);
  EXPECT_DOUBLE_EQ(net.edge(e).length, 5.0);
  const auto f = net.AddEdge(b, a, 42.0);
  EXPECT_DOUBLE_EQ(net.edge(f).length, 42.0);
}

TEST(RoadNetwork, ShortestPathOnChain) {
  RoadNetwork net;
  std::vector<VertexId> vs;
  for (int i = 0; i < 5; ++i) vs.push_back(net.AddVertex(i * 10.0, 0));
  std::vector<EdgeId> chain;
  for (int i = 0; i < 4; ++i) chain.push_back(net.AddEdge(vs[i], vs[i + 1]));
  const auto path = net.ShortestPath(vs[0], vs[4], 1000.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, chain);
  EXPECT_DOUBLE_EQ(net.ShortestPathCost(vs[0], vs[4], 1000.0), 40.0);
}

TEST(RoadNetwork, ShortestPathRespectsBudget) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  const auto b = net.AddVertex(100, 0);
  net.AddEdge(a, b);
  EXPECT_FALSE(net.ShortestPath(a, b, 50.0).has_value());
  EXPECT_TRUE(net.ShortestPath(a, b, 150.0).has_value());
}

TEST(RoadNetwork, ShortestPathPicksCheaperRoute) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  const auto b = net.AddVertex(10, 0);
  const auto c = net.AddVertex(5, 5);
  net.AddEdge(a, b, 100.0);           // direct but expensive
  const auto e1 = net.AddEdge(a, c, 10.0);
  const auto e2 = net.AddEdge(c, b, 10.0);
  const auto path = net.ShortestPath(a, b, 1000.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<EdgeId>{e1, e2}));
}

TEST(RoadNetwork, PointOnEdgeInterpolates) {
  RoadNetwork net;
  const auto a = net.AddVertex(0, 0);
  const auto b = net.AddVertex(100, 0);
  const auto e = net.AddEdge(a, b);
  const Vertex mid = net.PointOnEdge(e, 50.0);
  EXPECT_DOUBLE_EQ(mid.x, 50.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
}

TEST(Generator, CityHasExpectedOutDegreeRange) {
  common::Rng rng(11);
  CityParams params;
  params.rows = 20;
  params.cols = 20;
  const RoadNetwork net = GenerateCity(rng, params);
  EXPECT_GT(net.num_vertices(), 300u);
  EXPECT_GT(net.average_out_degree(), 1.8);
  EXPECT_LT(net.average_out_degree(), 3.6);
}

TEST(Generator, RingRadialConnected) {
  common::Rng rng(3);
  const RoadNetwork net = GenerateRingRadial(rng, 3, 8, 100.0);
  EXPECT_EQ(net.num_vertices(), 1u + 3 * 8);
  // Center reaches an outer-ring vertex.
  EXPECT_TRUE(net.ShortestPath(0, net.num_vertices() - 1, 5000.0).has_value());
}

TEST(GridIndex, RegionOfCornersAndCenter) {
  RoadNetwork net;
  net.AddVertex(0, 0);
  net.AddVertex(100, 100);
  net.AddEdge(0, 1);
  const GridIndex grid(net, 4);
  EXPECT_EQ(grid.num_regions(), 16u);
  EXPECT_EQ(grid.RegionOf(1, 1), 0u);
  EXPECT_EQ(grid.RegionOf(99, 99), 15u);
  // Points outside clamp to border cells.
  EXPECT_EQ(grid.RegionOf(-50, -50), 0u);
  EXPECT_EQ(grid.RegionOf(500, 500), 15u);
}

TEST(GridIndex, EdgeSpansMultipleRegions) {
  RoadNetwork net;
  net.AddVertex(5, 5);
  net.AddVertex(95, 5);
  const auto e = net.AddEdge(0, 1);
  net.AddVertex(5, 95);  // stretch the bbox to 2D
  net.AddVertex(95, 95);
  net.AddEdge(2, 3);
  const GridIndex grid(net, 4);
  const auto& regions = grid.RegionsOfEdge(e);
  EXPECT_EQ(regions.size(), 4u);  // bottom row, left to right
  for (const auto re : regions) {
    const auto& edges = grid.EdgesInRegion(re);
    EXPECT_NE(std::find(edges.begin(), edges.end(), e), edges.end());
  }
}

TEST(GridIndex, EdgeClippingACellCornerIsListedThere) {
  // The segment x + y = 51 clips cell (1, 1) = [25, 50]^2 over one unit
  // near its corner, between points sampled a cell apart.
  RoadNetwork net;
  net.AddVertex(0, 0);
  net.AddVertex(100, 100);
  net.AddEdge(0, 1);
  net.AddVertex(0, 51);
  net.AddVertex(40, 11);
  const auto e = net.AddEdge(2, 3);
  const GridIndex grid(net, 4);
  const auto& regions = grid.RegionsOfEdge(e);
  EXPECT_NE(std::find(regions.begin(), regions.end(), 5u), regions.end());
  const auto& edges = grid.EdgesInRegion(5);
  EXPECT_NE(std::find(edges.begin(), edges.end(), e), edges.end());
}

TEST(GridIndex, EveryCellAnEdgeMeetsListsIt) {
  // Brute force over every (edge, cell) pair of both test cities: an edge
  // is listed in exactly the cells whose rectangle its segment meets, plus
  // its endpoints' cells.
  for (const auto& profile :
       {traj::ChengduProfile(), traj::HangzhouProfile()}) {
    SCOPED_TRACE(profile.name);
    const RoadNetwork net = test::MakeSmallCity(profile, 14);
    for (const uint32_t cells : {8u, 16u, 32u}) {
      SCOPED_TRACE("cells " + std::to_string(cells));
      const GridIndex grid(net, cells);
      for (EdgeId e = 0; e < net.num_edges(); ++e) {
        const Vertex& a = net.vertex(net.edge(e).from);
        const Vertex& b = net.vertex(net.edge(e).to);
        std::vector<RegionId> want;
        for (RegionId re = 0; re < grid.num_regions(); ++re) {
          if (SegmentIntersectsRect(a.x, a.y, b.x, b.y, grid.RegionRect(re)) ||
              re == grid.RegionOf(a.x, a.y) || re == grid.RegionOf(b.x, b.y)) {
            want.push_back(re);
          }
        }
        std::vector<RegionId> got = grid.RegionsOfEdge(e);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "edge " << e;
        for (const RegionId re : want) {
          const auto& edges = grid.EdgesInRegion(re);
          ASSERT_NE(std::find(edges.begin(), edges.end(), e), edges.end());
        }
      }
    }
  }
}

TEST(GridIndex, EdgesNearFindsProjection) {
  RoadNetwork net;
  net.AddVertex(0, 0);
  net.AddVertex(100, 0);
  net.AddVertex(0, 80);
  net.AddVertex(100, 80);
  const auto low = net.AddEdge(0, 1);
  const auto high = net.AddEdge(2, 3);
  const GridIndex grid(net, 8);
  const auto near_low = grid.EdgesNear(50, 5, 10.0);
  ASSERT_EQ(near_low.size(), 1u);
  EXPECT_EQ(near_low[0], low);
  const auto near_both = grid.EdgesNear(50, 40, 45.0);
  EXPECT_EQ(near_both.size(), 2u);
  double offset = 0.0;
  EXPECT_NEAR(grid.DistanceToEdge(50, 5, low, &offset), 5.0, 1e-9);
  EXPECT_NEAR(offset, 50.0, 1e-9);
  EXPECT_NEAR(grid.DistanceToEdge(50, 40, high, &offset), 40.0, 1e-9);
}

TEST(GridIndex, RegionsInRect) {
  RoadNetwork net;
  net.AddVertex(0, 0);
  net.AddVertex(100, 100);
  net.AddEdge(0, 1);
  const GridIndex grid(net, 4);
  const auto regions = grid.RegionsInRect({10, 10, 40, 40});
  EXPECT_EQ(regions.size(), 4u);  // cells (0,0),(1,0),(0,1),(1,1)
  const auto all = grid.RegionsInRect({-10, -10, 200, 200});
  EXPECT_EQ(all.size(), 16u);
}

TEST(Geometry, SegmentInsideRect) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(SegmentInsideRect(1, 1, 9, 9, r));
  EXPECT_FALSE(SegmentInsideRect(1, 1, 11, 9, r));
}

TEST(Geometry, SegmentIntersectsRect) {
  const Rect r{0, 0, 10, 10};
  // Crossing without endpoints inside.
  EXPECT_TRUE(SegmentIntersectsRect(-5, 5, 15, 5, r));
  // Corner clip.
  EXPECT_TRUE(SegmentIntersectsRect(-1, 5, 5, 11, r));
  // Fully outside.
  EXPECT_FALSE(SegmentIntersectsRect(-5, -5, -1, 20, r));
  EXPECT_FALSE(SegmentIntersectsRect(11, 0, 20, 10, r));
  // Endpoint inside.
  EXPECT_TRUE(SegmentIntersectsRect(5, 5, 50, 50, r));
}

TEST(Geometry, SegmentsIntersectCollinearAndCrossing) {
  EXPECT_TRUE(SegmentsIntersect(0, 0, 10, 10, 0, 10, 10, 0));
  EXPECT_FALSE(SegmentsIntersect(0, 0, 1, 1, 5, 5, 6, 6));
  EXPECT_TRUE(SegmentsIntersect(0, 0, 10, 0, 5, 0, 15, 0));  // collinear touch
}

TEST(CsvIo, SaveLoadRoundTrip) {
  common::Rng rng(17);
  CityParams params;
  params.rows = 6;
  params.cols = 6;
  const RoadNetwork net = GenerateCity(rng, params);
  const std::string prefix = ::testing::TempDir() + "/utcq_net";
  ASSERT_TRUE(SaveCsv(net, prefix));
  const auto loaded = LoadCsv(prefix);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_vertices(), net.num_vertices());
  ASSERT_EQ(loaded->num_edges(), net.num_edges());
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).from, net.edge(e).from);
    EXPECT_EQ(loaded->edge(e).to, net.edge(e).to);
    EXPECT_DOUBLE_EQ(loaded->edge(e).length, net.edge(e).length);
    EXPECT_EQ(loaded->edge(e).out_number, net.edge(e).out_number);
  }
}

TEST(CsvIo, LoadMissingFilesFails) {
  EXPECT_FALSE(LoadCsv("/nonexistent/path/prefix").has_value());
}

}  // namespace
}  // namespace utcq::network
