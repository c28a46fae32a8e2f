// Differential tests for the round-synchronous parallel peel
// (engine/parallel_peel.h): exact core equality against the sequential
// bucket loop for every algorithm × h ∈ {1,2,3} × thread counts {1,2,4,8}
// over BA, clustered, disconnected, and star graphs; counter-parity where
// the algorithms guarantee it (pops of the eager peels); and unit coverage
// of the shared gate, stat merging, and neighborhood marking. The TSan CI
// leg runs this suite.

#include "engine/parallel_peel.h"

#include <atomic>
#include <utility>

#include <gtest/gtest.h>

#include "core/classic_core.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "test_util.h"
#include "traversal/h_degree.h"

namespace hcore {
namespace {

/// The satellite matrix's graph families: BA (hubs), clustered (planted
/// partition), disconnected (planted partition with zero inter-community
/// probability), star (one hub, extreme degree skew).
Graph FamilyGraph(const std::string& family, uint32_t n, uint64_t seed) {
  Rng rng(seed * 7717 + 5);
  if (family == "ba") return gen::BarabasiAlbert(n, 3, &rng);
  if (family == "clustered") {
    return gen::PlantedPartition(4, n / 4, 0.4, 0.05, &rng);
  }
  if (family == "disconnected") {
    return gen::PlantedPartition(4, n / 4, 0.4, 0.0, &rng);
  }
  if (family == "star") return gen::Star(n);
  return Graph();
}

const std::vector<const char*> kFamilies = {"ba", "clustered", "disconnected",
                                            "star"};

Graph FromEdges(VertexId n,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b(n);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return b.Build();
}

TEST(UseParallelPeel, GateHonorsModeThreadsAndSize) {
  // kOff and single-threaded never parallelize, kOn always does (given
  // threads), kAuto needs the scaled size floor.
  EXPECT_FALSE(UseParallelPeel(ParallelPeelMode::kOff, 8, 1 << 30));
  EXPECT_FALSE(UseParallelPeel(ParallelPeelMode::kOn, 1, 1 << 30));
  EXPECT_TRUE(UseParallelPeel(ParallelPeelMode::kOn, 2, 1));
  EXPECT_FALSE(UseParallelPeel(ParallelPeelMode::kAuto, 8, 100));
  EXPECT_TRUE(
      UseParallelPeel(ParallelPeelMode::kAuto, 8, kParallelPeelAutoMinVertices));
  // At 2 threads the kAuto floor doubles (size * threads >= 4 * floor).
  EXPECT_FALSE(
      UseParallelPeel(ParallelPeelMode::kAuto, 2, kParallelPeelAutoMinVertices));
  EXPECT_TRUE(UseParallelPeel(ParallelPeelMode::kAuto, 2,
                              2 * kParallelPeelAutoMinVertices));
  // Average-degree floor: with a known edge count, kAuto declines sparse
  // thin-frontier shapes (2m/n below kParallelPeelAutoMinAvgDegree);
  // unknown edges leave the gate size-only, and kOn overrides it.
  const uint64_t n = 2 * kParallelPeelAutoMinVertices;
  EXPECT_FALSE(UseParallelPeel(ParallelPeelMode::kAuto, 8, n,
                               kParallelPeelAutoMinVertices, 2 * n));
  EXPECT_TRUE(UseParallelPeel(ParallelPeelMode::kAuto, 8, n,
                              kParallelPeelAutoMinVertices, 4 * n));
  EXPECT_TRUE(UseParallelPeel(ParallelPeelMode::kAuto, 8, n,
                              kParallelPeelAutoMinVertices,
                              kUnknownPeelEdges));
  EXPECT_TRUE(UseParallelPeel(ParallelPeelMode::kOn, 8, n,
                              kParallelPeelAutoMinVertices, 2 * n));

  // h-aware gate: h = 2 under kAuto needs >= 2 hardware threads (the
  // classified repair only reaches work parity with the sequential unit
  // decrement, so timesharing one core cannot win); h = 1 and h = 3 run
  // regardless of hardware (they do strictly less work than the bucket
  // loop), and kOn overrides the hardware rule for tests.
  for (int h : {1, 2, 3}) {
    EXPECT_EQ(UseParallelPeelForH(ParallelPeelMode::kAuto, 8, h, n,
                                  kParallelPeelAutoMinVertices,
                                  kUnknownPeelEdges, /*hardware_threads=*/1),
              h != 2);
    EXPECT_TRUE(UseParallelPeelForH(ParallelPeelMode::kAuto, 8, h, n,
                                    kParallelPeelAutoMinVertices,
                                    kUnknownPeelEdges,
                                    /*hardware_threads=*/4));
  }
  EXPECT_TRUE(UseParallelPeelForH(ParallelPeelMode::kOn, 8, 2, n,
                                  kParallelPeelAutoMinVertices,
                                  kUnknownPeelEdges, /*hardware_threads=*/1));
}

TEST(PeelingStats, AddFoldsEveryCounter) {
  PeelingStats a;
  a.hdegree_computations = 3;
  a.decrement_updates = 5;
  a.pops = 7;
  PeelingStats b;
  b.hdegree_computations = 11;
  b.decrement_updates = 13;
  b.pops = 17;
  a.Add(b);
  EXPECT_EQ(a.hdegree_computations, 14u);
  EXPECT_EQ(a.decrement_updates, 18u);
  EXPECT_EQ(a.pops, 24u);
}

TEST(MarkNeighborhoods, ClassifiesDistanceExactlyHVersusCloser) {
  // Path 0-1-2-3-4-5; kill 2 and mark from it at h = 2: the dead source is
  // still expanded (alive: 0,1,3,4 reachable within 2 hops; 5 is 3 away).
  // Direct neighbors 1 and 3 sit at distance 1 < h, so they carry the
  // recompute flag; 0 and 4 sit at distance exactly h and carry a loss
  // count of 1 (they lost exactly the source from their 2-ball).
  Graph g = FromEdges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  VertexMask alive(6, true);
  alive.Kill(2);
  HDegreeComputer degrees(6, 2);
  degrees.coordinator().Assume();  // test body is the sole driver
  std::unique_ptr<std::atomic<uint8_t>[]> marks(new std::atomic<uint8_t>[6]());
  std::vector<std::vector<VertexId>> lists;
  const VertexId src = 2;
  degrees.MarkNeighborhoods(g, alive, 2, {&src, 1}, marks.get(), &lists);
  std::vector<VertexId> marked;
  for (const auto& list : lists) {
    marked.insert(marked.end(), list.begin(), list.end());
  }
  std::sort(marked.begin(), marked.end());
  EXPECT_EQ(marked, (std::vector<VertexId>{0, 1, 3, 4}));
  EXPECT_EQ(marks[0].load(), 1);
  EXPECT_EQ(marks[1].load(), kMarkNeedsRecompute);
  EXPECT_EQ(marks[3].load(), kMarkNeedsRecompute);
  EXPECT_EQ(marks[4].load(), 1);
  EXPECT_EQ(marks[2].load(), 0);
  EXPECT_EQ(marks[5].load(), 0);
}

TEST(MarkNeighborhoods, CountsSourcesReachingAtExactlyH) {
  // 0-1 with leaves 2,3 off vertex 1: killing both leaves puts vertex 0 at
  // distance exactly 2 from each (count 2, exact double loss) while the
  // shared neighbor 1 is adjacent to both kills (recompute flag).
  Graph g = FromEdges(4, {{0, 1}, {1, 2}, {1, 3}});
  VertexMask alive(4, true);
  alive.Kill(2);
  alive.Kill(3);
  HDegreeComputer degrees(4, 2);
  degrees.coordinator().Assume();  // test body is the sole driver
  std::unique_ptr<std::atomic<uint8_t>[]> marks(new std::atomic<uint8_t>[4]());
  std::vector<std::vector<VertexId>> lists;
  const std::vector<VertexId> sources = {2, 3};
  degrees.MarkNeighborhoods(g, alive, 2, sources, marks.get(), &lists);
  EXPECT_EQ(marks[0].load(), 2);
  EXPECT_EQ(marks[1].load(), kMarkNeedsRecompute);
  EXPECT_EQ(marks[2].load(), 0);
  EXPECT_EQ(marks[3].load(), 0);
}

TEST(ParallelClassicCore, MatchesSequentialAcrossFamiliesAndThreads) {
  for (const char* family : kFamilies) {
    const Graph g = FamilyGraph(family, 400, 3);
    const ClassicCoreResult seq = ClassicCoreDecomposition(g);
    for (int threads : {1, 2, 4, 8}) {
      std::vector<uint32_t> core;
      PeelingStats stats;
      const uint32_t degeneracy =
          ParallelClassicCore(g, threads, &core, &stats);
      ASSERT_EQ(core, seq.core) << family << " threads=" << threads;
      EXPECT_EQ(degeneracy, seq.degeneracy);
      // Eager peel: every vertex is claimed exactly once, at any thread
      // count — the counter-parity guarantee of the satellite.
      EXPECT_EQ(stats.pops, g.num_vertices());
    }
  }
}

TEST(ParallelPeel, MatchesSequentialForAllAlgorithmsThreadsFamilies) {
  // The satellite matrix: algorithms × h ∈ {1,2,3} × threads {1,2,4,8} ×
  // families, parallel forced on (kOn + floor 1) so even these small
  // graphs take the round-synchronous engine. Every point must be
  // byte-identical to the sequential peel.
  for (const char* family : kFamilies) {
    const Graph g = FamilyGraph(family, 240, 7);
    for (int h : {1, 2, 3}) {
      KhCoreOptions seq_opts;
      seq_opts.h = h;
      seq_opts.parallel = ParallelPeelMode::kOff;
      const KhCoreResult seq = KhCoreDecomposition(g, seq_opts);
      for (KhCoreAlgorithm algo :
           {KhCoreAlgorithm::kBz, KhCoreAlgorithm::kLb,
            KhCoreAlgorithm::kLbUb}) {
        for (int threads : {1, 2, 4, 8}) {
          KhCoreOptions par_opts;
          par_opts.h = h;
          par_opts.algorithm = algo;
          par_opts.num_threads = threads;
          par_opts.parallel = ParallelPeelMode::kOn;
          par_opts.parallel_min_vertices = 1;
          const KhCoreResult par = KhCoreDecomposition(g, par_opts);
          ASSERT_EQ(par.core, seq.core)
              << family << " h=" << h << " algo=" << ToString(algo)
              << " threads=" << threads;
          ASSERT_EQ(par.degeneracy, seq.degeneracy);
        }
      }
    }
  }
}

TEST(ParallelPeel, BzPopsEqualSequentialPops) {
  // h-BZ is eager: sequential and parallel both pop every vertex exactly
  // once. (h-LB legitimately diverges — lazy re-queues are counted by the
  // sequential loop only; see PeelingStats.)
  const Graph g = FamilyGraph("clustered", 240, 11);
  KhCoreOptions seq_opts;
  seq_opts.h = 2;
  seq_opts.algorithm = KhCoreAlgorithm::kBz;
  seq_opts.parallel = ParallelPeelMode::kOff;
  const KhCoreResult seq = KhCoreDecomposition(g, seq_opts);

  KhCoreOptions par_opts = seq_opts;
  par_opts.num_threads = 4;
  par_opts.parallel = ParallelPeelMode::kOn;
  par_opts.parallel_min_vertices = 1;
  const KhCoreResult par = KhCoreDecomposition(g, par_opts);

  EXPECT_EQ(seq.stats.pops, g.num_vertices());
  EXPECT_EQ(par.stats.pops, seq.stats.pops);
  EXPECT_EQ(par.core, seq.core);
}

TEST(ParallelPeel, AutoModePicksParallelOnlyPastTheFloor) {
  // Below the floor kAuto must run the sequential loop (and still be
  // exact); forcing the floor down flips it to the parallel engine. Both
  // agree with each other, so this doubles as a kAuto differential test.
  // (Clustered: dense enough to clear kAuto's average-degree floor. h = 3,
  // not 2: the h = 2 work-parity rule would keep kAuto sequential on
  // single-core runners and make the flip vacuous there.)
  const Graph g = FamilyGraph("clustered", 300, 13);
  KhCoreOptions auto_opts;
  auto_opts.h = 3;
  auto_opts.num_threads = 4;
  auto_opts.parallel = ParallelPeelMode::kAuto;  // floor: 32768 — sequential
  const KhCoreResult seq = KhCoreDecomposition(g, auto_opts);
  auto_opts.parallel_min_vertices = 1;  // now parallel
  const KhCoreResult par = KhCoreDecomposition(g, auto_opts);
  EXPECT_EQ(par.core, seq.core);
}

TEST(ParallelPeel, EmptyAndTinyGraphs) {
  Graph empty;
  std::vector<uint32_t> core;
  EXPECT_EQ(ParallelClassicCore(empty, 4, &core, nullptr), 0u);
  EXPECT_TRUE(core.empty());

  Graph one = FromEdges(1, {});
  EXPECT_EQ(ParallelClassicCore(one, 4, &core, nullptr), 0u);
  EXPECT_EQ(core, (std::vector<uint32_t>{0}));

  // Isolated vertices + one triangle.
  Graph tri = FromEdges(5, {{0, 1}, {1, 2}, {0, 2}});
  KhCoreOptions opts;
  opts.h = 2;
  opts.num_threads = 4;
  opts.parallel = ParallelPeelMode::kOn;
  opts.parallel_min_vertices = 1;
  const KhCoreResult par = KhCoreDecomposition(tri, opts);
  EXPECT_EQ(par.core, BruteForceKhCore(tri, 2));
}

}  // namespace
}  // namespace hcore
