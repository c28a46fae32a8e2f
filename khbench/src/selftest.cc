// The benchmark's own tests: input determinism, percentile selection,
// normalisation arithmetic, the host-reference checksum, the BFS oracle and
// the repeatability of the decomposition work counters. Exits nonzero on
// the first failed check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "bench_util.h"
#include "core/kh_core.h"
#include "host_ref.h"
#include "inputs.h"
#include "oracle.h"

namespace {

using namespace khb;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: FAILED: %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

uint64_t Digest(const EdgeList& edges) { return GraphDigest(BuildGraph(edges)); }

void TestSeedDeterminism() {
  EXPECT(Digest(MakeSocial(7)) == Digest(MakeSocial(7)));
  EXPECT(Digest(MakeSocial(7)) != Digest(MakeSocial(8)));
  EXPECT(Digest(MakeRoad(7)) == Digest(MakeRoad(7)));
  EXPECT(Digest(MakeRoad(7)) != Digest(MakeRoad(8)));
  EXPECT(Digest(MakeClustered(5000, 7)) == Digest(MakeClustered(5000, 7)));
  EXPECT(Digest(MakeClustered(5000, 7)) != Digest(MakeClustered(5000, 8)));
  EXPECT(ReadStreamDigest(MakeReadStream(5000, 2, 4096, 7)) ==
         ReadStreamDigest(MakeReadStream(5000, 2, 4096, 7)));
  EXPECT(ReadStreamDigest(MakeReadStream(5000, 2, 4096, 7)) !=
         ReadStreamDigest(MakeReadStream(5000, 2, 4096, 8)));
  EXPECT(EditStreamDigest(MakeEditStream(5000, 64, 7)) ==
         EditStreamDigest(MakeEditStream(5000, 64, 7)));
  EXPECT(EditStreamDigest(MakeEditStream(5000, 64, 7)) !=
         EditStreamDigest(MakeEditStream(5000, 64, 8)));
  // The hot set moves between phases: the most read key of the first
  // phase is not that of the second.
  const std::vector<ReadOp> ops = MakeReadStream(5000, 2, 2 * kHotPhaseOps, 7);
  auto hottest = [&](size_t first) {
    std::vector<uint32_t> hits(5000, 0);
    for (size_t i = first; i < first + kHotPhaseOps; ++i) ++hits[ops[i].v];
    return std::max_element(hits.begin(), hits.end()) - hits.begin();
  };
  EXPECT(hottest(0) != hottest(kHotPhaseOps));
  // The road stand-in is one connected component.
  const hcore::Graph road = BuildGraph(MakeRoad(7));
  const std::vector<uint32_t> zeros(road.num_vertices(), 0);
  EXPECT(CoreComponentBfs(road, zeros, 0, 0).size() == road.num_vertices());
}

void TestChurnReturnsToOriginal() {
  // Every insert is deleted kChurnWindow batches later, so after the stream
  // stops (empty specs) the graph is the original again.
  const hcore::Graph original = BuildGraph(MakeClustered(2000, 5));
  const std::vector<BatchSpec> specs = MakeEditStream(2000, 3 * kChurnWindow, 5);
  ChurnWindow churn;
  hcore::Graph g = original;
  size_t edits = 0;
  for (const BatchSpec& spec : specs) {
    const std::vector<hcore::EdgeEdit> batch = churn.Next(g, spec);
    EXPECT(batch.size() <= 2 * kInsertsPerBatch);
    edits += batch.size();
    g = g.WithEdits(batch);
  }
  EXPECT(edits > kChurnWindow * kInsertsPerBatch);
  EXPECT(GraphDigest(g) != GraphDigest(original));
  for (size_t i = 0; i < kChurnWindow; ++i) g = g.WithEdits(churn.Next(g, {}));
  EXPECT(GraphDigest(g) == GraphDigest(original));
}

void TestNearestRank() {
  EXPECT(NearestRankIndex(0.5, 100) == 49);
  EXPECT(NearestRankIndex(0.99, 100) == 98);
  EXPECT(NearestRankIndex(1.0, 100) == 99);
  EXPECT(NearestRankIndex(0.0, 100) == 0);
  EXPECT(NearestRankIndex(0.5, 1) == 0);
  EXPECT(NearestRankIndex(0.5, 3) == 1);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Summary s = Summarize(hundred);
  EXPECT(s.count == 100);
  EXPECT(s.p50 == 50.0);
  // Ten samples (91..100) lie beyond the tail: the 90th value, p90.
  EXPECT(s.tail == 90.0);
  EXPECT(s.tail_percentile == 90.0);
  const Summary few = Summarize({3.0, 1.0, 2.0});
  EXPECT(few.p50 == 2.0 && few.tail == 2.0);
  // 14 samples: the rank with 10 beyond it lies below the median, so the
  // tail is the median.
  std::vector<double> fourteen;
  for (int i = 1; i <= 14; ++i) fourteen.push_back(i);
  EXPECT(Summarize(fourteen).tail == 7.0);
  EXPECT(Median({5.0, 1.0, 4.0, 2.0}) == 2.0);

  // Two clients of 300 samples, windows of 100: six windows, each 1..100
  // in some order, so each window's tail is its 90th value (p90). Stalls in
  // two windows of client a raise those windows' tails; the upper median
  // of the six tails {90, 90, 90, 90, 91, 91} is still 90.
  std::vector<double> a, b;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 1; i <= 100; ++i) {
      a.push_back(i);
      b.push_back(i);
    }
  }
  a[7] = 1000.0;
  a[107] = 1000.0;
  const Summary w = SummarizeWindowed({&a, &b}, 100);
  EXPECT(w.count == 600);
  EXPECT(w.tail == 90.0);
  EXPECT(w.tail_percentile == 90.0);
  // A third stalled window makes the upper median of an even count 91.
  a[207] = 1000.0;
  EXPECT(SummarizeWindowed({&a, &b}, 100).tail == 91.0);
  // Fewer than kMinTailWindows windows: the tail of all 600 samples
  // together, the 11th-largest (three stalls, six 100s, then the 99s).
  const Summary whole = SummarizeWindowed({&a, &b}, 200);
  EXPECT(whole.tail == 99.0);
  EXPECT(whole.tail_percentile == 100.0 * 590 / 600);
}

void TestNormalisation() {
  EXPECT(NormalizeTime(100.0, 2.0, 4.0, 1.0) == 200.0);
  EXPECT(NormalizeTime(100.0, 8.0, 4.0, 1.0) == 50.0);
  EXPECT(NormalizeRate(100.0, 2.0, 4.0, 1.0) == 50.0);
  EXPECT(NormalizeRate(100.0, 8.0, 4.0, 1.0) == 200.0);
  EXPECT(NormalizeTime(3.5, 4.0, 4.0, 1.0) == 3.5);
  EXPECT(NormalizeTime(3.5, 2.0, 4.0, 0.0) == 3.5);
  // Elasticity 1/2: a reference 4x slower than nominal halves a time and
  // doubles a rate.
  EXPECT(NormalizeTime(100.0, 16.0, 4.0, 0.5) == 50.0);
  EXPECT(NormalizeRate(100.0, 16.0, 4.0, 0.5) == 200.0);
  // With elasticity 1, a host twice as slow doubles both the raw time and
  // the reference, so the normalised time is unchanged; with 1/2 a host
  // where the time grows as the root of the reference is corrected.
  EXPECT(NormalizeTime(2 * 10.0, 2 * 4.0, 4.0, 1.0) == NormalizeTime(10.0, 4.0, 4.0, 1.0));
  EXPECT(std::abs(NormalizeTime(2 * 10.0, 4 * 4.0, 4.0, 0.5) -
                  NormalizeTime(10.0, 4.0, 4.0, 0.5)) < 1e-12);
}

uint64_t BruteForceTwoHop(const HostRef& ref, uint32_t first, uint32_t count) {
  uint64_t total = 0;
  const uint32_t n = ref.num_vertices();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t s = (first + i) % n;
    std::set<uint32_t> ball;
    for (uint64_t a = ref.offsets()[s]; a < ref.offsets()[s + 1]; ++a) {
      const uint32_t u = ref.targets()[a];
      ball.insert(u);
      for (uint64_t b = ref.offsets()[u]; b < ref.offsets()[u + 1]; ++b) {
        ball.insert(ref.targets()[b]);
      }
    }
    ball.erase(s);
    total += ball.size();
  }
  return total;
}

void TestHostRefChecksum() {
  HostRef small(200, 3);
  EXPECT(small.Sweep(0, 200) == BruteForceTwoHop(small, 0, 200));
  EXPECT(small.Sweep(150, 100) == BruteForceTwoHop(small, 150, 100));
  // The kernel and its graph are fixed: a changed checksum means the
  // reference (and with it every normalised number) changed meaning.
  HostRef ref;
  const uint64_t first_slice = ref.Sweep(0, 1536);
  EXPECT(first_slice == BruteForceTwoHop(ref, 0, 1536));
  EXPECT(first_slice == kHostRefFirstSliceChecksum);
  HostRef again;
  EXPECT(again.Slice() == first_slice);
  EXPECT(again.slice_ms().size() == 1 && again.MedianMs() > 0.0);
}

void TestOracle() {
  // Path 0-1-2-3-4 with cores {1, 2, 2, 1, 2}: the k = 2 component of 1 is
  // {1, 2}; vertex 4 is cut off from them at k = 2.
  hcore::GraphBuilder b(5);
  for (uint32_t v = 0; v + 1 < 5; ++v) b.AddEdge(v, v + 1);
  const hcore::Graph g = b.Build();
  const std::vector<uint32_t> core = {1, 2, 2, 1, 2};
  EXPECT((CoreComponentBfs(g, core, 1, 2) == std::vector<hcore::VertexId>{1, 2}));
  EXPECT(CoreComponentBfs(g, core, 0, 2).empty());
  EXPECT(CoreComponentBfs(g, core, 4, 1).size() == 5);
  const CommunityAnswer a = CommunityBfs(g, core, {1, 2});
  EXPECT(a.feasible && a.k == 2 && a.vertices.size() == 2);
  const CommunityAnswer c = CommunityBfs(g, core, {2, 4});
  EXPECT(c.feasible && c.k == 1 && c.vertices.size() == 5);
}

void TestCountersRepeat() {
  const hcore::Graph g = BuildGraph(MakeSocial(3));
  hcore::KhCoreOptions o;
  o.h = 2;
  o.num_threads = 1;
  const hcore::KhCoreResult a = hcore::KhCoreDecomposition(g, o);
  const hcore::KhCoreResult b = hcore::KhCoreDecomposition(g, o);
  EXPECT(a.core == b.core);
  EXPECT(a.stats.visited_vertices == b.stats.visited_vertices);
  EXPECT(a.stats.hdegree_computations == b.stats.hdegree_computations);
  EXPECT(a.stats.decrement_updates == b.stats.decrement_updates);
  EXPECT(a.stats.pops == b.stats.pops);
  EXPECT(a.stats.partitions == b.stats.partitions);
}

void TestResultJson() {
  EXPECT(ResultJson(true, 3, 0, {{"x_ms", 1.5, "ms"}}) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
}

}  // namespace

int main() {
  TestSeedDeterminism();
  TestChurnReturnsToOriginal();
  TestNearestRank();
  TestNormalisation();
  TestHostRefChecksum();
  TestOracle();
  TestCountersRepeat();
  TestResultJson();
  if (g_failures > 0) {
    std::fprintf(stderr, "khbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("khbench_selftest: all checks passed\n");
  return 0;
}
