// Tests for the LB1/LB2/UB/LB3 bounds (Observations 1-2, Algorithm 5,
// Algorithm 6 / Property 3), including the concrete values the paper derives
// for the Figure-1 graph in Examples 3 and 5.

#include "core/bounds.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

// The h-LB+UB partition carry: grows a candidate set top-down by a random
// key, in steps that add a third, nothing, one vertex and all the rest.
// After every step the carried degrees must equal a fresh computation over
// the grown set. Returns the largest number of non-added vertices one step
// recomputed.
uint64_t ExpectCarryMatchesFresh(const Graph& g, int h, int threads,
                                 uint64_t seed) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  Rng rng(seed);
  rng.Shuffle(&order);  // order[i] is the vertex with the i-th highest key
  HDegreeComputer degrees(n, threads);
  degrees.coordinator().Assume();  // test body is the sole driver
  VertexMask alive(n, false);
  std::vector<uint32_t> carried(n, 0);
  size_t grown = 0;
  uint64_t max_recomputed = 0;
  for (size_t step : {size_t{n / 3}, size_t{0}, size_t{1}, size_t{n}}) {
    const size_t end = std::min<size_t>(n, grown + step);
    std::vector<VertexId> added(order.begin() + grown, order.begin() + end);
    for (VertexId a : added) alive.Revive(a);
    grown = end;
    const uint64_t bfs_runs =
        CarryHDegrees(g, h, alive, added, &carried, &degrees);
    EXPECT_GE(bfs_runs, added.size());
    EXPECT_LE(bfs_runs, grown);
    max_recomputed = std::max<uint64_t>(max_recomputed,
                                        bfs_runs - added.size());
    std::vector<uint32_t> fresh(n, 0);
    degrees.ComputeAllAlive(g, alive, h, &fresh);
    for (VertexId v = 0; v < n; ++v) {
      if (!alive.IsAlive(v)) continue;
      EXPECT_EQ(carried[v], fresh[v])
          << "v=" << v << " h=" << h << " after growing to " << grown
          << " vertices";
    }
  }
  EXPECT_EQ(grown, n);
  return max_recomputed;
}

TEST(BoundsPaperExample, Example3Lb1Lb2Values) {
  // Example 3 (h = 2): LB1(v1) = LB1(v2) = 2, LB1(v4) = 5, and
  // LB2(v2) = max(LB1(v2), LB1(v4)) = 5 = core(v2).
  Graph g = gen::PaperFigure1();
  HDegreeComputer degrees(g.num_vertices(), 1);
  std::vector<uint32_t> lb1 = ComputeLB1(g, 2, &degrees);
  EXPECT_EQ(lb1[0], 2u);  // v1
  EXPECT_EQ(lb1[1], 2u);  // v2
  EXPECT_EQ(lb1[3], 5u);  // v4
  std::vector<uint32_t> lb2 = ComputeLB2(g, 2, lb1, &degrees);
  EXPECT_EQ(lb2[1], 5u);  // v2
  EXPECT_EQ(lb2[0], 2u);  // v1 stays at 2 (its neighbors have LB1 = 2)
  // Example 5: B[5] holds v2..v13 after LB2 bucketing.
  for (VertexId v = 1; v < 13; ++v) EXPECT_EQ(lb2[v], 5u) << "v" << v + 1;
}

TEST(BoundsPaperExample, Example5UpperBoundValues) {
  // Example 5 (h = 2): UB(v1) = 4 and UB(vi) = 6 for i >= 2.
  Graph g = gen::PaperFigure1();
  HDegreeComputer degrees(g.num_vertices(), 1);
  degrees.coordinator().Assume();  // test body is the sole driver
  VertexMask alive(g.num_vertices(), true);
  std::vector<uint32_t> hdeg;
  degrees.ComputeAllAlive(g, alive, 2, &hdeg);
  std::vector<uint32_t> ub = ComputePowerGraphUpperBound(g, 2, hdeg, &degrees);
  EXPECT_EQ(ub[0], 4u);
  for (VertexId v = 1; v < 13; ++v) EXPECT_EQ(ub[v], 6u) << "v" << v + 1;
}

TEST(BoundsPaperExample, ImproveLbCleansV6Partition) {
  // Example 5: running ImproveLB on the k_min = 6 partition (vertices
  // v2..v13) removes v2 and v3 because their 2-degree in that subgraph is 5.
  Graph g = gen::PaperFigure1();
  HDegreeComputer degrees(g.num_vertices(), 1);
  VertexMask alive(g.num_vertices(), true);
  alive.Kill(0);  // v1 has UB 4 < 6
  std::vector<uint32_t> hdeg;
  degrees.coordinator().Assume();  // test body is the sole driver
  degrees.ComputeAllAlive(g, alive, 2, &hdeg);
  EXPECT_EQ(hdeg[1], 5u);  // v2
  EXPECT_EQ(hdeg[2], 5u);  // v3
  std::vector<uint32_t> lb2(g.num_vertices(), 5);
  ImproveLbResult r = ImproveLB(g, 2, 6, &alive, hdeg, lb2, &degrees);
  EXPECT_EQ(r.removed, 2u);
  EXPECT_FALSE(alive.IsAlive(1));  // v2 cleaned
  EXPECT_FALSE(alive.IsAlive(2));  // v3 cleaned
  for (VertexId v = 3; v < 13; ++v) {
    EXPECT_TRUE(alive.IsAlive(v)) << "v" << v + 1;
  }
}

class BoundsProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(BoundsProperty, SandwichLb1Lb2CoreUbHdeg) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  HDegreeComputer degrees(n, 1);
  degrees.coordinator().Assume();  // test body is the sole driver
  VertexMask alive(n, true);
  std::vector<uint32_t> hdeg;
  degrees.ComputeAllAlive(g, alive, h, &hdeg);
  std::vector<uint32_t> lb1 = ComputeLB1(g, h, &degrees);
  std::vector<uint32_t> lb2 = ComputeLB2(g, h, lb1, &degrees);
  std::vector<uint32_t> ub = ComputePowerGraphUpperBound(g, h, hdeg, &degrees);
  std::vector<uint32_t> core = BruteForceKhCore(g, h);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_LE(lb1[v], lb2[v]) << "v=" << v;
    EXPECT_LE(lb2[v], core[v]) << "v=" << v;
    EXPECT_LE(core[v], ub[v]) << "v=" << v;
    EXPECT_LE(ub[v], hdeg[v]) << "v=" << v;
  }
}

TEST_P(BoundsProperty, UpperBoundPeelOrderDominatesFullDistanceConflicts) {
  // Algorithm 5 peels with *induced* h-neighborhood enumeration, so it can
  // be slightly looser than the classic core index of a materialized G^h —
  // but its optimistic degree always dominates the count of alive
  // full-distance-h neighbors, which is what the coloring application
  // relies on. Verify by replaying the peel: when vertex v is removed from
  // bucket k, the number of not-yet-removed vertices within full-graph
  // distance h of v must be <= k... equivalently, the suffix of the peel
  // order starting at v must contain <= ub[v] full-distance-h neighbors.
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  HDegreeComputer degrees(n, 1);
  degrees.coordinator().Assume();  // test body is the sole driver
  VertexMask alive(n, true);
  std::vector<uint32_t> hdeg;
  degrees.ComputeAllAlive(g, alive, h, &hdeg);
  std::vector<VertexId> peel;
  std::vector<uint32_t> ub =
      ComputePowerGraphUpperBound(g, h, hdeg, &degrees, &peel);
  ASSERT_EQ(peel.size(), n);
  uint32_t max_ub = 0;
  for (uint32_t x : ub) max_ub = std::max(max_ub, x);

  Graph gh = PowerGraph(g, h);  // full-distance-h adjacency
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[peel[i]] = i;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t later_neighbors = 0;
    for (VertexId u : gh.neighbors(v)) {
      if (position[u] > position[v]) ++later_neighbors;
    }
    EXPECT_LE(later_neighbors, max_ub) << "v=" << v;
  }
}

TEST_P(BoundsProperty, ImproveLbNeverRemovesTrueCoreMembers) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> core = BruteForceKhCore(g, h);
  uint32_t degeneracy = 0;
  for (uint32_t c : core) degeneracy = std::max(degeneracy, c);
  HDegreeComputer degrees(n, 1);
  degrees.coordinator().Assume();  // test body is the sole driver
  std::vector<uint32_t> zeros(n, 0);
  for (uint32_t k : {degeneracy, degeneracy / 2}) {
    if (k == 0) continue;
    VertexMask alive(n, true);
    std::vector<uint32_t> hdeg;
    degrees.ComputeAllAlive(g, alive, h, &hdeg);
    ImproveLbResult r = ImproveLB(g, h, k, &alive, hdeg, zeros, &degrees);
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] >= k) {
        EXPECT_TRUE(alive.IsAlive(v))
            << "cleaning dropped a (k,h)-core member, v=" << v << " k=" << k;
      }
    }
    // LB3 must stay below the true core index for surviving vertices.
    for (VertexId v = 0; v < n; ++v) {
      if (alive.IsAlive(v) && core[v] >= k) {
        EXPECT_LE(r.lb3[v], core[v]);
      }
    }
  }
}

TEST_P(BoundsProperty, CarriedHDegreesMatchFreshOnNestedSets) {
  const auto& [spec, h] = GetParam();
  ExpectCarryMatchesFresh(MakeRandomGraph(spec), h, /*threads=*/1,
                          spec.seed * 31 + static_cast<uint64_t>(h));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BoundsProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(40, 2)),
                       ::testing::Values(2, 3, 4)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BoundsCarry, AddingOneVertexRecomputesOnlyItsBall) {
  // Locality guard: on a 32x32 lattice at h = 3, adding one interior vertex
  // to a set that holds all the others runs one BFS per member of its
  // radius-3 ball (1 + 4 + 8 + 12 = 25), not one per candidate (1024).
  constexpr int kH = 3;
  Graph g = gen::Grid(32, 32);
  const VertexId n = g.num_vertices();
  const VertexId center = 16 * 32 + 16;
  HDegreeComputer degrees(n, 1);
  degrees.coordinator().Assume();  // test body is the sole driver
  VertexMask alive(n, true);
  alive.Kill(center);
  std::vector<uint32_t> carried;
  degrees.ComputeAllAlive(g, alive, kH, &carried);
  alive.Revive(center);
  degrees.ResetStats();
  const VertexId added[] = {center};
  const uint64_t bfs_runs =
      CarryHDegrees(g, kH, alive, added, &carried, &degrees);
  EXPECT_EQ(bfs_runs, 25u);
  // Each of those BFSs sees at most the 24 other members of a radius-3
  // ball.
  EXPECT_LE(degrees.total_visited(), 25u * 24u);
  std::vector<uint32_t> fresh;
  degrees.ComputeAllAlive(g, alive, kH, &fresh);
  EXPECT_EQ(carried, fresh);
}

TEST(BoundsCarry, PooledRecomputeMatchesFresh) {
  // Same check on a 4-thread computer, with balls large enough that the
  // recomputation batch reaches the pool (batches under 32 run inline).
  Rng rng(5);
  Graph g = gen::BarabasiAlbert(400, 3, &rng);
  for (int h : {2, 3}) {
    EXPECT_GE(ExpectCarryMatchesFresh(g, h, /*threads=*/4, 17 + h), 32u)
        << "h=" << h;
  }
}

TEST(BoundsQuality, Lb2TighterThanLb1OnSocialGraph) {
  Rng rng(11);
  Graph g = gen::BarabasiAlbert(300, 4, &rng);
  HDegreeComputer degrees(g.num_vertices(), 1);
  std::vector<uint32_t> lb1 = ComputeLB1(g, 2, &degrees);
  std::vector<uint32_t> lb2 = ComputeLB2(g, 2, lb1, &degrees);
  uint64_t sum1 = 0, sum2 = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    sum1 += lb1[v];
    sum2 += lb2[v];
  }
  EXPECT_GT(sum2, sum1);  // strictly tighter in aggregate
}

}  // namespace
}  // namespace hcore
