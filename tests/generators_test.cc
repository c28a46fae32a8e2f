// Tests for the synthetic graph generators and samplers: structural
// guarantees, determinism, and scale handling.

#include "graph/generators.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/power_graph.h"
#include "graph/sampling.h"
#include "traversal/distances.h"

namespace hcore {
namespace {

TEST(Generators, PathCycleStarCompleteShapes) {
  EXPECT_EQ(gen::Path(5).num_edges(), 4u);
  EXPECT_EQ(gen::Cycle(5).num_edges(), 5u);
  EXPECT_EQ(gen::Star(5).num_edges(), 4u);
  EXPECT_EQ(gen::Complete(5).num_edges(), 10u);
  EXPECT_EQ(gen::CompleteBipartite(3, 4).num_edges(), 12u);
  EXPECT_EQ(gen::BinaryTree(7).num_edges(), 6u);
}

TEST(Generators, GridShape) {
  Graph g = gen::Grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  // 3 rows x 3 horizontal edges + 2 x 4 vertical edges
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2 * 4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 4));
  EXPECT_FALSE(g.HasEdge(3, 4));  // row wrap must not exist
}

TEST(Generators, PaperFigure1Shape) {
  Graph g = gen::PaperFigure1();
  EXPECT_EQ(g.num_vertices(), 13u);
  EXPECT_EQ(g.num_edges(), 16u);
  // Degrees stated or implied by the paper's Examples 3 and 5.
  EXPECT_EQ(g.degree(0), 2u);  // v1
  EXPECT_EQ(g.degree(1), 2u);  // v2
  EXPECT_EQ(g.degree(3), 5u);  // v4 (LB1(v4) = 5 in Example 3)
  EXPECT_EQ(g.degree(8), 5u);  // v9 by symmetry
}

TEST(Generators, ErdosRenyiGnmExactEdgeCount) {
  Rng rng(1);
  Graph g = gen::ErdosRenyiGnm(50, 100, &rng);
  EXPECT_EQ(g.num_vertices(), 50u);
  EXPECT_EQ(g.num_edges(), 100u);
  // Clamps dense requests to the complete graph.
  Rng rng2(2);
  Graph k = gen::ErdosRenyiGnm(5, 1000, &rng2);
  EXPECT_EQ(k.num_edges(), 10u);
}

TEST(Generators, ErdosRenyiGnpEdgeCountConcentrates) {
  Rng rng(3);
  Graph g = gen::ErdosRenyiGnp(400, 0.05, &rng);
  const double expected = 0.05 * 400 * 399 / 2;
  EXPECT_GT(g.num_edges(), expected * 0.8);
  EXPECT_LT(g.num_edges(), expected * 1.2);
  // Degenerate probabilities.
  Rng rng2(4);
  EXPECT_EQ(gen::ErdosRenyiGnp(10, 0.0, &rng2).num_edges(), 0u);
  EXPECT_EQ(gen::ErdosRenyiGnp(5, 1.0, &rng2).num_edges(), 10u);
}

TEST(Generators, BarabasiAlbertDegreeFloorAndEdgeCount) {
  Rng rng(5);
  const uint32_t attach = 3;
  Graph g = gen::BarabasiAlbert(200, attach, &rng);
  EXPECT_EQ(g.num_vertices(), 200u);
  // Every non-seed vertex contributes exactly `attach` edges.
  const uint64_t seed_edges = attach * (attach + 1) / 2;
  EXPECT_EQ(g.num_edges(), seed_edges + (200 - attach - 1) * attach);
  for (VertexId v = 0; v < 200; ++v) EXPECT_GE(g.degree(v), attach);
  // Heavy tail: some vertex should be far above the attach degree.
  EXPECT_GT(g.MaxDegree(), 4 * attach);
}

TEST(Generators, WattsStrogatzKeepsEdgeBudget) {
  Rng rng(6);
  Graph g = gen::WattsStrogatz(100, 3, 0.1, &rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  // n*k candidate edges minus collisions from rewiring.
  EXPECT_LE(g.num_edges(), 300u);
  EXPECT_GT(g.num_edges(), 270u);
}

TEST(Generators, ChungLuHitsTargetEdgesApproximately) {
  Rng rng(7);
  Graph g = gen::ChungLuPowerLaw(2000, 6000, 2.5, &rng);
  EXPECT_EQ(g.num_vertices(), 2000u);
  EXPECT_GT(g.num_edges(), 3500u);
  EXPECT_LT(g.num_edges(), 8500u);
  // Power-law-ish: max degree far above average.
  EXPECT_GT(g.MaxDegree(), 10 * g.AverageDegree());
}

TEST(Generators, RoadLatticeIsConnectedAndSparse) {
  Rng rng(8);
  Graph g = gen::RoadLattice(40, 40, 0.7, &rng);
  EXPECT_EQ(g.num_vertices(), 1600u);
  EXPECT_EQ(ComputeConnectedComponents(g).num_components, 1u);
  EXPECT_LE(g.MaxDegree(), 8u);
  // Road networks have large diameter relative to size.
  Rng rng2(9);
  EXPECT_GT(EstimateDiameter(g, 2, &rng2), 30u);
}

TEST(Generators, PlantedPartitionIsDenserInsideBlocks) {
  Rng rng(10);
  Graph g = gen::PlantedPartition(4, 25, 0.5, 0.02, &rng);
  EXPECT_EQ(g.num_vertices(), 100u);
  uint64_t intra = 0, inter = 0;
  for (const auto& [u, v] : g.Edges()) {
    if (u / 25 == v / 25) {
      ++intra;
    } else {
      ++inter;
    }
  }
  EXPECT_GT(intra, inter);
}

TEST(Generators, StarHeavySocialHasSpikes) {
  Rng rng(11);
  Graph g = gen::StarHeavySocial(2000, 5000, 3, 0.05, &rng);
  // Hubs connect to ~5% of the graph: max degree near 100.
  EXPECT_GT(g.MaxDegree(), 60u);
}

TEST(Generators, RandomTreeIsAcyclicAndConnected) {
  Rng rng(12);
  Graph g = gen::RandomTree(100, &rng);
  EXPECT_EQ(g.num_edges(), 99u);
  EXPECT_EQ(ComputeConnectedComponents(g).num_components, 1u);
}

TEST(Generators, ConnectifyJoinsComponents) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  b.AddEdge(4, 5);
  Rng rng(13);
  Graph g = gen::Connectify(b.Build(), &rng);
  EXPECT_EQ(ComputeConnectedComponents(g).num_components, 1u);
  EXPECT_EQ(g.num_edges(), 5u);  // 3 original + 2 joins
}

TEST(Generators, ClusteredCommunitiesAndDeterminism) {
  Rng a(42), b(42), c(43);
  std::vector<VertexId> sizes;
  Graph ga = gen::Clustered(2000, &a, &sizes);
  EXPECT_EQ(ga.num_vertices(), 2000u);
  // Pinned against the generator as the benches drew it before it moved
  // here: a change to the RNG draw order changes every bench graph.
  EXPECT_EQ(ga.num_edges(), 6968u);
  EXPECT_EQ(ga.Edges(), gen::Clustered(2000, &b).Edges());
  EXPECT_NE(ga.Edges(), gen::Clustered(2000, &c).Edges());

  ASSERT_FALSE(sizes.empty());
  VertexId total = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], 72u);
    if (i + 1 < sizes.size()) {
      EXPECT_GE(sizes[i], 8u);  // the last one is clipped to fit n
    }
    total += sizes[i];
  }
  EXPECT_EQ(total, 2000u);
}

TEST(Generators, DeterministicForEqualSeeds) {
  Rng a(42), b(42), c(43);
  Graph ga = gen::BarabasiAlbert(100, 2, &a);
  Graph gb = gen::BarabasiAlbert(100, 2, &b);
  Graph gc = gen::BarabasiAlbert(100, 2, &c);
  EXPECT_EQ(ga.Edges(), gb.Edges());
  EXPECT_NE(ga.Edges(), gc.Edges());
}

TEST(PowerGraphModule, SquareOfPathAddsDistanceTwoEdges) {
  Graph g2 = PowerGraph(gen::Path(5), 2);
  EXPECT_TRUE(g2.HasEdge(0, 2));
  EXPECT_FALSE(g2.HasEdge(0, 3));
  EXPECT_EQ(g2.num_edges(), 4u + 3u);
}

TEST(PowerGraphModule, HighPowerIsCompleteOnConnectedGraph) {
  Graph g = gen::Path(6);
  Graph gh = PowerGraph(g, 5);
  EXPECT_EQ(gh.num_edges(), 15u);  // K6
}

TEST(Sampling, SnowballReturnsRequestedSize) {
  Rng rng(14);
  Graph g = gen::BarabasiAlbert(500, 3, &rng);
  for (VertexId target : {1u, 10u, 100u, 500u}) {
    Rng sample_rng(target);
    Graph s = SnowballSample(g, target, &sample_rng);
    EXPECT_EQ(s.num_vertices(), target);
  }
  // Requests beyond n clamp to n.
  Rng big(15);
  EXPECT_EQ(SnowballSample(g, 10000, &big).num_vertices(), 500u);
}

TEST(Sampling, SnowballCrossesComponentsWhenNeeded) {
  GraphBuilder b(10);
  b.AddEdge(0, 1);  // tiny component; rest isolated
  Graph g = b.Build();
  Rng rng(16);
  Graph s = SnowballSample(g, 7, &rng);
  EXPECT_EQ(s.num_vertices(), 7u);
}

TEST(Sampling, RandomVertexSampleSize) {
  Rng rng(17);
  Graph g = gen::Cycle(50);
  Graph s = RandomVertexSample(g, 20, &rng);
  EXPECT_EQ(s.num_vertices(), 20u);
}

}  // namespace
}  // namespace hcore
