// Correctness tests for the (k,h)-core decomposition: the paper's Figure-1
// example, deterministic toy graphs with hand-derived decompositions, and a
// property sweep comparing every algorithm variant against the definition-
// level brute force across a corpus of random graphs.

#include "core/kh_core.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "engine/vertex_mask.h"
#include "graph/generators.h"
#include "graph/power_graph.h"
#include "test_util.h"
#include "traversal/bounded_bfs.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

KhCoreResult Decompose(const Graph& g, int h, KhCoreAlgorithm alg,
                       int threads = 1, int partition = 0) {
  KhCoreOptions opts;
  opts.h = h;
  opts.algorithm = alg;
  opts.num_threads = threads;
  opts.partition_size = partition;
  return KhCoreDecomposition(g, opts);
}

// ---------------------------------------------------------------------------
// Paper Figure 1 / Examples 1, 3, 5.
// ---------------------------------------------------------------------------

TEST(KhCorePaperExample, ClassicDecompositionPutsAllVerticesInCore2) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 1, KhCoreAlgorithm::kAuto);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.core[v], 2u) << "vertex " << v + 1;
  }
  EXPECT_EQ(r.degeneracy, 2u);
}

TEST(KhCorePaperExample, H2DecompositionMatchesFigure1) {
  Graph g = gen::PaperFigure1();
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 2, alg);
    SCOPED_TRACE(ToString(alg));
    EXPECT_EQ(r.core[0], 4u);  // v1
    EXPECT_EQ(r.core[1], 5u);  // v2
    EXPECT_EQ(r.core[2], 5u);  // v3
    for (VertexId v = 3; v < 13; ++v) {
      EXPECT_EQ(r.core[v], 6u) << "vertex " << v + 1;
    }
    EXPECT_EQ(r.degeneracy, 6u);
  }
}

TEST(KhCorePaperExample, PowerGraphDecompositionOverestimates) {
  // Example 2: the classic core decomposition of G^2 gives vertices 2 and 3
  // core index 6, while their true (k,2)-core index is 5.
  Graph g = gen::PaperFigure1();
  Graph g2 = PowerGraph(g, 2);
  ClassicCoreResult power = ClassicCoreDecomposition(g2);
  EXPECT_EQ(power.core[1], 6u);
  EXPECT_EQ(power.core[2], 6u);
  KhCoreResult truth = Decompose(g, 2, KhCoreAlgorithm::kLb);
  EXPECT_EQ(truth.core[1], 5u);
  EXPECT_EQ(truth.core[2], 5u);
  // And the power-graph index upper-bounds the true index everywhere.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(power.core[v], truth.core[v]);
  }
}

TEST(KhCorePaperExample, BruteForceAgreesOnFigure1) {
  Graph g = gen::PaperFigure1();
  std::vector<uint32_t> expect = BruteForceKhCore(g, 2);
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_EQ(r.core, expect);
}

// ---------------------------------------------------------------------------
// Deterministic toy graphs.
// ---------------------------------------------------------------------------

TEST(KhCoreToyGraphs, EmptyGraph) {
  Graph g;
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 2, alg);
    EXPECT_TRUE(r.core.empty());
    EXPECT_EQ(r.degeneracy, 0u);
  }
}

TEST(KhCoreToyGraphs, SingletonAndIsolatedVertices) {
  GraphBuilder b(3);  // three isolated vertices
  Graph g = b.Build();
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, 3, alg);
    EXPECT_EQ(r.core, (std::vector<uint32_t>{0, 0, 0})) << ToString(alg);
  }
}

TEST(KhCoreToyGraphs, CompleteGraphEveryHIsNMinus1) {
  Graph g = gen::Complete(7);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLbUb);
    for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(r.core[v], 6u);
  }
}

TEST(KhCoreToyGraphs, PathHCore) {
  // On a long path, every vertex sees at most 2h others within distance h;
  // interior vertices see exactly 2h but peeling the ends erodes the path,
  // so the (k,h)-core index is h for every vertex: the whole path survives
  // at k = h (end vertices have h neighbors), and nothing survives at h+1.
  Graph g = gen::Path(30);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);
    std::vector<uint32_t> expect = BruteForceKhCore(g, h);
    EXPECT_EQ(r.core, expect) << "h=" << h;
    EXPECT_EQ(r.degeneracy, static_cast<uint32_t>(h)) << "h=" << h;
  }
}

TEST(KhCoreToyGraphs, CycleHCoreIsUniform2h) {
  // On a cycle of length > 2h+1 every vertex has exactly 2h vertices within
  // distance h and symmetry keeps that true under peeling.
  Graph g = gen::Cycle(20);
  for (int h = 1; h <= 4; ++h) {
    KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLbUb);
    for (VertexId v = 0; v < 20; ++v) {
      EXPECT_EQ(r.core[v], static_cast<uint32_t>(2 * h)) << "h=" << h;
    }
  }
}

TEST(KhCoreToyGraphs, StarH2IsComplete) {
  // In a star, every leaf reaches every other leaf within 2 hops, so the
  // (k,2)-core of a star on n vertices is the whole star with index n-1.
  Graph g = gen::Star(9);
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLb);
  for (VertexId v = 0; v < 9; ++v) EXPECT_EQ(r.core[v], 8u);
}

TEST(KhCoreToyGraphs, H1MatchesClassicOnCorpus) {
  for (const auto& spec : Corpus(60, 2)) {
    Graph g = MakeRandomGraph(spec);
    KhCoreResult kh = Decompose(g, 1, KhCoreAlgorithm::kAuto);
    ClassicCoreResult classic = ClassicCoreDecomposition(g);
    EXPECT_EQ(kh.core, classic.core) << spec.Name();
  }
}

// ---------------------------------------------------------------------------
// Result helpers.
// ---------------------------------------------------------------------------

TEST(KhCoreResult, CoreSizesAreNonIncreasingAndAnchored) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLb);
  std::vector<uint32_t> sizes = r.CoreSizes();
  ASSERT_EQ(sizes.size(), r.degeneracy + 1);
  EXPECT_EQ(sizes[0], g.num_vertices());
  for (size_t k = 1; k < sizes.size(); ++k) EXPECT_LE(sizes[k], sizes[k - 1]);
  EXPECT_EQ(sizes[6], 10u);  // the (6,2)-core of Figure 1
  EXPECT_EQ(sizes[5], 12u);
  EXPECT_EQ(sizes[4], 13u);
}

TEST(KhCoreResult, DistinctCoresAndVertices) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_EQ(r.NumDistinctCores(), 3u);  // {4, 5, 6}
  EXPECT_EQ(r.MaxCoreVertices().size(), 10u);
  EXPECT_EQ(r.CoreVertices(0).size(), 13u);
  EXPECT_EQ(r.CoreVertices(5).size(), 12u);
}

// ---------------------------------------------------------------------------
// Property sweep: all algorithms x corpus x h agree with brute force.
// ---------------------------------------------------------------------------

class KhCoreProperty
    : public ::testing::TestWithParam<std::tuple<RandomGraphSpec, int>> {};

TEST_P(KhCoreProperty, AllAlgorithmsMatchBruteForce) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  std::vector<uint32_t> expect = BruteForceKhCore(g, h);
  for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                              KhCoreAlgorithm::kLbUb}) {
    KhCoreResult r = Decompose(g, h, alg);
    EXPECT_EQ(r.core, expect) << ToString(alg);
  }
}

TEST_P(KhCoreProperty, ContainmentAndUniquenessInvariants) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);

  // Property 2 (containment) is implied by core indexes; verify that each
  // core satisfies the definition: every member of C_k has h-degree >= k
  // inside G[C_k].
  BoundedBfs bfs(g.num_vertices());
  for (uint32_t k = 1; k <= r.degeneracy; ++k) {
    std::vector<VertexId> members = r.CoreVertices(k);
    VertexMask alive(g.num_vertices(), members);
    for (VertexId v : members) {
      EXPECT_GE(bfs.HDegree(g, alive, v, h), k)
          << "vertex " << v << " in C_" << k;
    }
  }

  // Maximality: the set {v : core(v) = k-1} must not extend C_k, i.e. each
  // such vertex has h-degree < k in G[C_k ∪ {v}].
  for (uint32_t k = 1; k <= r.degeneracy; ++k) {
    VertexMask alive(g.num_vertices(), r.CoreVertices(k));
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (r.core[v] != k - 1) continue;
      alive.Revive(v);
      EXPECT_LT(bfs.HDegree(g, alive, v, h), k) << "vertex " << v;
      alive.Kill(v);
    }
  }
}

TEST_P(KhCoreProperty, PowerGraphCoreIsUpperBound) {
  const auto& [spec, h] = GetParam();
  Graph g = MakeRandomGraph(spec);
  KhCoreResult r = Decompose(g, h, KhCoreAlgorithm::kLb);
  ClassicCoreResult power = ClassicCoreDecomposition(PowerGraph(g, h));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(power.core[v], r.core[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, KhCoreProperty,
    ::testing::Combine(::testing::ValuesIn(Corpus(48, 2)),
                       ::testing::Values(2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<std::tuple<RandomGraphSpec, int>>& info) {
      return std::get<0>(info.param).Name() + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Option handling: threads, partition sizes, ablated bounds — all must
// produce identical decompositions.
// ---------------------------------------------------------------------------

class KhCoreOptionsProperty : public ::testing::TestWithParam<RandomGraphSpec> {
};

TEST_P(KhCoreOptionsProperty, ThreadCountDoesNotChangeResult) {
  // Parallel determinism: for each algorithm, 4 worker threads must produce
  // core indexes identical to the sequential run (the HDegreeComputer batch
  // paths only parallelize pure h-degree reads).
  Graph g = MakeRandomGraph(GetParam());
  for (int h : {2, 3}) {
    for (KhCoreAlgorithm alg : {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
                                KhCoreAlgorithm::kLbUb}) {
      KhCoreResult seq = Decompose(g, h, alg, 1);
      KhCoreResult par = Decompose(g, h, alg, 4);
      EXPECT_EQ(seq.core, par.core) << ToString(alg) << " h=" << h;
      EXPECT_EQ(seq.degeneracy, par.degeneracy) << ToString(alg) << " h=" << h;
    }
  }
}

TEST_P(KhCoreOptionsProperty, PartitionSizeDoesNotChangeResult) {
  // Every width S grows the candidate sets in different steps, so the
  // h-degrees carried across partitions see different additions.
  Graph g = MakeRandomGraph(GetParam());
  for (int h : {2, 3, 4}) {
    KhCoreResult base = Decompose(g, h, KhCoreAlgorithm::kLb);
    for (int s : {1, 2, 5, 1000}) {
      KhCoreResult part = Decompose(g, h, KhCoreAlgorithm::kLbUb, 1, s);
      EXPECT_EQ(base.core, part.core) << "h=" << h << " S=" << s;
    }
  }
}

TEST_P(KhCoreOptionsProperty, ExtraUpperBoundDoesNotChangeResult) {
  // The index's warm-fallback shape: h-LB+UB with a caller's upper bound.
  // Cores of G plus a few extra edges bound G's cores from above (adding
  // edges never lowers a core index), and give a partition schedule other
  // than Algorithm 5's.
  const RandomGraphSpec& spec = GetParam();
  Graph g = MakeRandomGraph(spec);
  const VertexId n = g.num_vertices();
  GraphBuilder builder(n);
  for (const auto& [u, v] : g.Edges()) builder.AddEdge(u, v);
  Rng rng(spec.seed * 101 + 7);
  for (int i = 0; i < 4; ++i) {
    builder.AddEdge(rng.NextIndex(n), rng.NextIndex(n));
  }
  const Graph denser = builder.Build();
  for (int h : {2, 3}) {
    const KhCoreResult base = Decompose(g, h, KhCoreAlgorithm::kLb);
    const std::vector<uint32_t> upper =
        Decompose(denser, h, KhCoreAlgorithm::kLb).core;
    for (int s : {1, 0}) {
      for (int threads : {1, 4}) {
        KhCoreOptions opts;
        opts.h = h;
        opts.algorithm = KhCoreAlgorithm::kLbUb;
        opts.partition_size = s;
        opts.num_threads = threads;
        opts.extra_upper_bound = &upper;
        EXPECT_EQ(base.core, KhCoreDecomposition(g, opts).core)
            << "h=" << h << " S=" << s << " threads=" << threads;
      }
    }
  }
}

TEST_P(KhCoreOptionsProperty, AblatedBoundsDoNotChangeResult) {
  Graph g = MakeRandomGraph(GetParam());
  KhCoreResult base = Decompose(g, 3, KhCoreAlgorithm::kBz);
  for (LowerBoundMode lb :
       {LowerBoundMode::kNone, LowerBoundMode::kLb1, LowerBoundMode::kLb2}) {
    for (UpperBoundMode ub :
         {UpperBoundMode::kHDegree, UpperBoundMode::kPowerGraph}) {
      KhCoreOptions opts;
      opts.h = 3;
      opts.algorithm = KhCoreAlgorithm::kLbUb;
      opts.lower_bound = lb;
      opts.upper_bound = ub;
      KhCoreResult r = KhCoreDecomposition(g, opts);
      EXPECT_EQ(base.core, r.core)
          << "lb=" << static_cast<int>(lb) << " ub=" << static_cast<int>(ub);
    }
    KhCoreOptions opts;
    opts.h = 3;
    opts.algorithm = KhCoreAlgorithm::kLb;
    opts.lower_bound = lb;
    KhCoreResult r = KhCoreDecomposition(g, opts);
    EXPECT_EQ(base.core, r.core) << "h-LB lb=" << static_cast<int>(lb);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, KhCoreOptionsProperty,
                         ::testing::ValuesIn(Corpus(48, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

// ---------------------------------------------------------------------------
// Stats: the bounds must pay off in traversal volume.
// ---------------------------------------------------------------------------

TEST(KhCoreStats, LowerBoundReducesVisitsOnDenseGraph) {
  Rng rng(7);
  Graph g = gen::BarabasiAlbert(400, 6, &rng);
  KhCoreResult bz = Decompose(g, 2, KhCoreAlgorithm::kBz);
  KhCoreResult lb = Decompose(g, 2, KhCoreAlgorithm::kLb);
  EXPECT_LT(lb.stats.visited_vertices, bz.stats.visited_vertices);
  EXPECT_GT(bz.stats.visited_vertices, 0u);
}

TEST(KhCoreStats, CountersArePopulated) {
  Graph g = gen::PaperFigure1();
  KhCoreResult r = Decompose(g, 2, KhCoreAlgorithm::kLbUb);
  EXPECT_GT(r.stats.visited_vertices, 0u);
  EXPECT_GT(r.stats.hdegree_computations, 0u);
  EXPECT_GE(r.stats.partitions, 1u);
  EXPECT_GE(r.stats.seconds, 0.0);
}

}  // namespace
}  // namespace hcore
