// Randomized equivalence fuzzing for localized dynamic (k,h)-core
// maintenance through HCoreIndex, the one write path: 200+
// insert/delete/mixed single-edit sequences (InsertEdge/DeleteEdge on an
// index with max_h = h) and batched sequences (ApplyBatch), asserting exact
// equality of every level with a fresh decomposition after EVERY step and
// that the localized/fallback counters account for every dirty level of
// every applied update. Region and batch caps are swept so the localized
// path, the overflow fallback, and the all-fallback configuration
// (max_batch = 0) are all exercised. The service leg repeats the game
// through the serving tier: edit sequences where every
// ShardedHCoreService::ApplyBatch step is compared against a fresh
// decomposition, plus writer-vs-concurrent-readers view consistency. The
// TSan CI leg runs this suite (the concurrency tests at the bottom are its
// target).

#include <atomic>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "graph/generators.h"
#include "index/hcore_index.h"
#include "serve/sharded_service.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;
using ::hcore::testing::ReferenceComponent;

std::vector<uint32_t> FreshCores(const Graph& g, int h) {
  KhCoreOptions opts;
  opts.h = h;
  return KhCoreDecomposition(g, opts).core;
}

enum class EditMode { kInsertOnly, kDeleteOnly, kMixed };

/// Totals over the single-edit sequences of one test.
struct DynamicTally {
  uint64_t applied = 0;    // edits that had an effect
  uint64_t localized = 0;  // level repairs served by the localized path
  uint64_t fallback = 0;   // level repairs served by the warm fallback
};

/// One fuzz sequence: random single edits against an HCoreIndex with
/// max_h = h, every level 1..h cross-checked against a fresh decomposition
/// at every step. Adds to `*tally` (void return: gtest ASSERTs live here).
void RunDynamicSequence(const RandomGraphSpec& spec, int h, EditMode mode,
                        const LocalizedUpdateOptions& localized, int steps,
                        DynamicTally* tally = nullptr,
                        const KhCoreOptions& base = {}) {
  HCoreIndexOptions iopts;
  iopts.max_h = h;
  iopts.base = base;
  iopts.localized = localized;
  HCoreIndex index(MakeRandomGraph(spec), iopts);
  Rng rng(spec.seed * 9176 + static_cast<uint64_t>(h) * 131 +
          static_cast<uint64_t>(mode));
  uint64_t applied = 0;
  for (int step = 0; step < steps; ++step) {
    const std::shared_ptr<const HCoreSnapshot> before = index.snapshot();
    const VertexId n = before->graph().num_vertices();
    const bool insert = mode == EditMode::kInsertOnly ||
                        (mode == EditMode::kMixed && rng.NextBool(0.5));
    bool ok = false;
    if (insert) {
      // +2 occasionally grows the vertex set through an update.
      ok = index.InsertEdge(rng.NextIndex(n + 2), rng.NextIndex(n + 2));
    } else {
      auto edges = before->graph().Edges();
      if (edges.empty()) continue;
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      ok = index.DeleteEdge(u, v);
    }
    if (ok) ++applied;
    const std::shared_ptr<const HCoreSnapshot> after = index.snapshot();
    for (int level = 1; level <= h; ++level) {
      const std::vector<uint32_t> fresh = FreshCores(after->graph(), level);
      ASSERT_EQ(after->Cores(level), fresh)
          << spec.Name() << " h=" << h << " level=" << level
          << " mode=" << static_cast<int>(mode) << " step=" << step;
      uint32_t degeneracy = 0;
      for (uint32_t c : fresh) degeneracy = std::max(degeneracy, c);
      ASSERT_EQ(after->Degeneracy(level), degeneracy);
    }
    // Every level of every applied update was served by exactly one of the
    // two paths.
    const HCoreIndexStats stats = index.stats();
    ASSERT_EQ(stats.localized_updates + stats.fallback_repeels,
              static_cast<uint64_t>(h) * applied);
  }
  if (tally != nullptr) {
    const HCoreIndexStats stats = index.stats();
    tally->applied += applied;
    tally->localized += stats.localized_updates;
    tally->fallback += stats.fallback_repeels;
  }
}

TEST(DynamicFuzz, LocalizedPathMatchesFreshRunsAcrossEditModes) {
  // 162 sequences; graphs are small enough (region always under the
  // default cap) that every update must take the localized path.
  DynamicTally tally;
  for (const RandomGraphSpec& spec : Corpus(36, 3)) {
    for (int h : {1, 2, 3}) {
      for (EditMode mode :
           {EditMode::kInsertOnly, EditMode::kDeleteOnly, EditMode::kMixed}) {
        LocalizedUpdateOptions localized_opts;  // defaults
        RunDynamicSequence(spec, h, mode, localized_opts, 8, &tally);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.applied, 500u);
  EXPECT_EQ(tally.fallback, 0u);
}

TEST(DynamicFuzz, ParallelPeelMatchesFreshAcrossEditModes) {
  // Mixed edit sequences on a 4-thread index whose warm whole-graph
  // fallback runs the round-synchronous parallel engine
  // (KhCoreOptions::parallel), forced on with a floor of 1 so these small
  // graphs exercise it; the localized repair stays single-threaded. Every
  // step must match a fresh (sequential) decomposition. The TSan CI leg
  // runs this suite.
  KhCoreOptions par;
  par.num_threads = 4;
  par.parallel = ParallelPeelMode::kOn;
  par.parallel_min_vertices = 1;
  DynamicTally tally;
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    for (int h : {1, 2, 3}) {
      // Default caps: fully localized on these graphs.
      LocalizedUpdateOptions localized;
      RunDynamicSequence(spec, h, EditMode::kMixed, localized, 8, &tally,
                         par);
      if (HasFatalFailure()) return;
      // Tiny cap: overflow pushes updates onto the parallel warm fallback.
      LocalizedUpdateOptions tiny = localized;
      tiny.max_region_fraction = 0.0;
      tiny.min_region_cap = 4;
      RunDynamicSequence(spec, h, EditMode::kMixed, tiny, 6, &tally, par);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.applied, 300u);
  EXPECT_GT(tally.fallback, 0u);
}

TEST(DynamicFuzz, TinyRegionCapForcesFallbackMixture) {
  // 36 sequences under a 4-vertex region cap: overflow is common, so both
  // the localized path and the warm fallback serve updates — and both must
  // stay exact. (The counter-sum assertion runs inside the sequence.)
  DynamicTally tally;
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    for (int h : {1, 2, 3}) {
      LocalizedUpdateOptions tiny;
      tiny.max_region_fraction = 0.0;
      tiny.min_region_cap = 4;
      RunDynamicSequence(spec, h, EditMode::kMixed, tiny, 8, &tally);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(tally.localized, 0u);
  EXPECT_GT(tally.fallback, 0u);
}

TEST(DynamicFuzz, DisabledLocalizedPathStillExactAndCounted) {
  // 12 sequences with max_batch = 0: no batch fits the localized cap, so
  // every level of every update takes the warm fallback.
  DynamicTally tally;
  for (const RandomGraphSpec& spec : Corpus(36, 2)) {
    LocalizedUpdateOptions off;
    off.max_batch = 0;
    RunDynamicSequence(spec, 2, EditMode::kMixed, off, 6, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.applied, 0u);
  EXPECT_EQ(tally.localized, 0u);
  EXPECT_EQ(tally.fallback, 2 * tally.applied);
}

TEST(DynamicFuzz, DefaultCapKeepsSmallGraphUpdatesFullyLocalized) {
  // On a 36-vertex graph the default cap (min_region_cap = 64) can never
  // overflow: every level of every applied update must report localized,
  // none fallback.
  RandomGraphSpec spec{"ba", 36, 5};
  HCoreIndexOptions iopts;
  iopts.max_h = 2;
  HCoreIndex index(MakeRandomGraph(spec), iopts);
  Rng rng(77);
  uint64_t applied = 0;
  for (int step = 0; step < 16; ++step) {
    const std::shared_ptr<const HCoreSnapshot> snap = index.snapshot();
    const VertexId n = snap->graph().num_vertices();
    if (rng.NextBool(0.5)) {
      applied += index.InsertEdge(rng.NextIndex(n), rng.NextIndex(n)) ? 1 : 0;
    } else {
      auto edges = snap->graph().Edges();
      auto [u, v] = edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      applied += index.DeleteEdge(u, v) ? 1 : 0;
    }
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(index.stats().localized_updates, 2 * applied);
  EXPECT_EQ(index.stats().fallback_repeels, 0u);
  for (int h = 1; h <= 2; ++h) {
    EXPECT_EQ(index.snapshot()->Cores(h),
              FreshCores(index.snapshot()->graph(), h));
  }
}

/// A deterministic random edit batch against the current graph.
std::vector<EdgeEdit> RandomBatch(const Graph& g, Rng* rng, int inserts,
                                  int deletes) {
  std::vector<EdgeEdit> batch;
  const VertexId n = g.num_vertices();
  for (int i = 0; i < inserts; ++i) {
    batch.push_back(EdgeEdit::Insert(rng->NextIndex(n), rng->NextIndex(n)));
  }
  auto edges = g.Edges();
  for (int i = 0; i < deletes && !edges.empty(); ++i) {
    auto [u, v] = edges[rng->NextIndex(static_cast<uint32_t>(edges.size()))];
    batch.push_back(EdgeEdit::Delete(u, v));
  }
  return batch;
}

TEST(IndexFuzz, PagedSpliceMatchesMonolithicRebuildEveryStep) {
  // The paged-vs-monolithic differential: the index maintains its graph by
  // COW page splices; a reference edge set replayed with the same
  // last-edit-wins semantics and rebuilt from scratch through GraphBuilder
  // must produce byte-equal flattened CSR arrays — and equal cores — after
  // EVERY batch.
  for (const RandomGraphSpec& spec : Corpus(90, 2)) {
    Graph g = MakeRandomGraph(spec);
    HCoreIndexOptions iopts;
    iopts.max_h = 2;
    HCoreIndex index(Graph(g), iopts);
    std::set<std::pair<VertexId, VertexId>> edge_set;
    for (const auto& e : g.Edges()) edge_set.insert(e);
    VertexId n = g.num_vertices();
    Rng rng(spec.seed * 517 + 3);
    for (int step = 0; step < 6; ++step) {
      auto batch = RandomBatch(index.snapshot()->graph(), &rng, 5, 5);
      index.ApplyBatch(batch);
      for (const EdgeEdit& e : batch) {
        if (e.u == e.v) continue;
        auto key = std::minmax(e.u, e.v);
        if (e.insert) {
          edge_set.insert({key.first, key.second});
          n = std::max(n, key.second + 1);
        } else {
          edge_set.erase({key.first, key.second});
        }
      }
      GraphBuilder b(n);
      for (const auto& [u, v] : edge_set) b.AddEdge(u, v);
      Graph reference = b.Build();
      const Graph& paged = index.snapshot()->graph();
      ASSERT_EQ(paged.FlattenedOffsets(), reference.FlattenedOffsets())
          << spec.Name() << " step=" << step;
      ASSERT_EQ(paged.FlattenedNeighbors(), reference.FlattenedNeighbors())
          << spec.Name() << " step=" << step;
      for (int h = 1; h <= 2; ++h) {
        ASSERT_EQ(index.snapshot()->Cores(h), FreshCores(reference, h))
            << spec.Name() << " step=" << step << " h=" << h;
      }
    }
  }
}

TEST(IndexFuzz, ApplyBatchMatchesFreshAndLevelCountersBalance) {
  constexpr int kMaxH = 3;
  uint64_t total_localized = 0;
  uint64_t total_fallback = 0;
  for (const RandomGraphSpec& spec : Corpus(40, 2)) {
    HCoreIndexOptions iopts;
    iopts.max_h = kMaxH;
    // Small caps so overflow fallback and the batch-size gate both fire on
    // these graphs, alongside genuinely localized levels.
    iopts.localized.max_region_fraction = 0.3;
    iopts.localized.min_region_cap = 8;
    iopts.localized.max_batch = 4;
    HCoreIndex index(MakeRandomGraph(spec), iopts);
    Rng rng(spec.seed * 523 + 11);
    for (int round = 0; round < 6; ++round) {
      // Cycle pure-insert, pure-delete, mixed; sizes sometimes exceed the
      // localized batch cap.
      const int size = 1 + static_cast<int>(rng.NextIndex(6));
      const int kind = round % 3;
      const int inserts = kind == 1 ? 0 : size;
      const int deletes = kind == 0 ? 0 : size;
      const HCoreIndexStats before = index.stats();
      auto batch = RandomBatch(index.snapshot()->graph(), &rng, inserts,
                               deletes);
      const size_t applied = index.ApplyBatch(batch);
      const HCoreIndexStats after = index.stats();
      const uint64_t loc = after.localized_updates - before.localized_updates;
      const uint64_t fb = after.fallback_repeels - before.fallback_repeels;
      if (applied > 0) {
        // Every dirty level was served by exactly one of the two paths.
        ASSERT_EQ(loc + fb, static_cast<uint64_t>(kMaxH))
            << spec.Name() << " round=" << round;
      } else {
        ASSERT_EQ(loc + fb, 0u);
      }
      total_localized += loc;
      total_fallback += fb;
      auto snap = index.snapshot();
      for (int h = 1; h <= kMaxH; ++h) {
        ASSERT_EQ(snap->Cores(h), FreshCores(snap->graph(), h))
            << spec.Name() << " round=" << round << " h=" << h;
        uint32_t degeneracy = 0;
        for (uint32_t c : snap->Cores(h)) {
          degeneracy = std::max(degeneracy, c);
        }
        ASSERT_EQ(snap->Degeneracy(h), degeneracy);
      }
    }
  }
  // The sweep genuinely exercised both paths.
  EXPECT_GT(total_localized, 0u);
  EXPECT_GT(total_fallback, 0u);
}

TEST(IndexFuzz, ThreadedIndexMatchesFreshAndCountersBalance) {
  // A 4-thread index under small caps: levels alternate between the
  // single-threaded localized repair and the threaded warm fallback, and
  // every batch must match fresh runs with each level counted exactly once.
  constexpr int kMaxH = 3;
  uint64_t total_localized = 0;
  uint64_t total_fallback = 0;
  for (const RandomGraphSpec& spec : Corpus(40, 3)) {
    HCoreIndexOptions iopts;
    iopts.max_h = kMaxH;
    iopts.base.num_threads = 4;
    iopts.localized.max_region_fraction = 0.3;
    iopts.localized.min_region_cap = 8;
    iopts.localized.max_batch = 4;
    HCoreIndex index(MakeRandomGraph(spec), iopts);
    Rng rng(spec.seed * 1171 + 29);
    for (int round = 0; round < 6; ++round) {
      const int size = 1 + static_cast<int>(rng.NextIndex(6));
      const int kind = round % 3;
      const HCoreIndexStats before = index.stats();
      auto batch = RandomBatch(index.snapshot()->graph(), &rng,
                               kind == 1 ? 0 : size, kind == 0 ? 0 : size);
      const size_t applied = index.ApplyBatch(batch);
      const HCoreIndexStats after = index.stats();
      const uint64_t loc = after.localized_updates - before.localized_updates;
      const uint64_t fb = after.fallback_repeels - before.fallback_repeels;
      ASSERT_EQ(loc + fb, applied > 0 ? static_cast<uint64_t>(kMaxH) : 0u)
          << spec.Name() << " round=" << round;
      total_localized += loc;
      total_fallback += fb;
      auto snap = index.snapshot();
      for (int h = 1; h <= kMaxH; ++h) {
        ASSERT_EQ(snap->Cores(h), FreshCores(snap->graph(), h))
            << spec.Name() << " round=" << round << " h=" << h;
      }
    }
  }
  EXPECT_GT(total_localized, 0u);
  EXPECT_GT(total_fallback, 0u);
}

/// One service fuzz sequence: random batches through the serving tier,
/// exact equality of cores and sampled components against a fresh
/// decomposition of the served graph after every step.
void RunServiceSequence(const RandomGraphSpec& spec, EditMode mode,
                        int steps) {
  constexpr int kMaxH = 3;
  ShardedServiceOptions opts;
  opts.index.max_h = kMaxH;
  // Small caps so both maintenance paths serve levels inside the fuzz.
  opts.index.localized.max_region_fraction = 0.3;
  opts.index.localized.min_region_cap = 8;
  opts.index.localized.max_batch = 4;
  ShardedHCoreService service(MakeRandomGraph(spec), opts);
  Rng rng(spec.seed * 6271 + static_cast<uint64_t>(mode));
  for (int step = 0; step < steps; ++step) {
    auto view = service.view();
    const int size = 1 + static_cast<int>(rng.NextIndex(5));
    const bool insert_only = mode == EditMode::kInsertOnly;
    const bool delete_only = mode == EditMode::kDeleteOnly;
    auto batch = RandomBatch(view->graph(), &rng, delete_only ? 0 : size,
                             insert_only ? 0 : size);
    service.ApplyBatch(batch);
    view = service.view();
    for (int h = 1; h <= kMaxH; ++h) {
      const std::vector<uint32_t> fresh = FreshCores(view->graph(), h);
      const VertexId n = view->graph().num_vertices();
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(view->CoreOf(v, h), fresh[v])
            << spec.Name() << " step=" << step << " h=" << h << " v=" << v;
      }
      for (VertexId v : {VertexId{0}, n / 2, n - 1}) {
        for (uint32_t k : {0u, fresh[v]}) {
          ASSERT_EQ(view->CoreComponentOf(v, k, h),
                    ReferenceComponent(view->graph(), fresh, v, k))
              << spec.Name() << " step=" << step << " h=" << h
              << " v=" << v << " k=" << k;
        }
      }
    }
  }
}

TEST(ServiceFuzz, ApplyBatchMatchesFreshAcrossEditModes) {
  // 6 models x 2 seeds x 3 edit modes = 36 sequences, every step checked
  // against a fresh decomposition at every level.
  for (const RandomGraphSpec& spec : Corpus(32, 2)) {
    for (EditMode mode :
         {EditMode::kInsertOnly, EditMode::kDeleteOnly, EditMode::kMixed}) {
      RunServiceSequence(spec, mode, 4);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(ServiceFuzz, WriterVsConcurrentReadersSeeConsistentViews) {
  // The all-or-none guarantee under fire: a writer advances the service
  // while readers repeatedly pin views and check that each view's graph,
  // cores, and components describe one epoch — i.e. no view ever mixes
  // state from different batches. (TSan leg target.)
  Rng rng(29);
  Graph g = gen::PlantedPartition(4, 25, 0.4, 0.05, &rng);
  ShardedServiceOptions opts;
  opts.index.max_h = 2;
  ShardedHCoreService service(std::move(g), opts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      auto view = service.view();
      const uint64_t epoch = view->service_epoch();
      const VertexId n = view->graph().num_vertices();
      for (int h = 1; h <= 2; ++h) {
        if (view->shard_snapshot(0).Cores(h).size() != n) failed.store(true);
      }
      const uint32_t k = view->CoreOf(0, 2);
      const std::vector<VertexId> component = view->CoreComponentOf(0, k, 2);
      for (VertexId v : component) {
        if (v >= n || view->CoreOf(v, 2) < k) failed.store(true);
      }
      if (view->service_epoch() != epoch) failed.store(true);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  Rng update_rng(31);
  size_t applied = 0;
  for (int step = 0; step < 30; ++step) {
    auto batch = RandomBatch(service.view()->graph(), &update_rng,
                             update_rng.NextBool(0.5) ? 2 : 0, 1);
    applied += service.ApplyBatch(batch);
  }
  while (reads.load(std::memory_order_relaxed) < 50) {
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(applied, 0u);
  auto view = service.view();
  for (int h = 1; h <= 2; ++h) {
    const std::vector<uint32_t> fresh = FreshCores(view->graph(), h);
    for (VertexId v = 0; v < view->graph().num_vertices(); ++v) {
      ASSERT_EQ(view->CoreOf(v, h), fresh[v]) << "h=" << h << " v=" << v;
    }
  }
}

TEST(IndexFuzz, ConcurrentSnapshotReadersDuringLocalizedUpdates) {
  Rng rng(19);
  Graph g = gen::PlantedPartition(4, 30, 0.4, 0.03, &rng);
  HCoreIndexOptions iopts;
  iopts.max_h = 3;  // default localized caps: single edits stay localized
  HCoreIndex index(g, iopts);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  auto reader = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      auto snap = index.snapshot();
      const uint64_t epoch = snap->epoch();
      const VertexId n = snap->graph().num_vertices();
      for (VertexId v = 0; v < n; v += 5) {
        std::vector<uint32_t> s = snap->Spectrum(v);
        for (size_t i = 1; i < s.size(); ++i) {
          if (s[i - 1] > s[i]) failed.store(true);
        }
      }
      for (int h = 1; h <= 3; ++h) {
        if (snap->Cores(h).size() != n) failed.store(true);
      }
      (void)snap->Hierarchy(2);
      if (snap->epoch() != epoch) failed.store(true);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  Rng update_rng(23);
  uint64_t applied = 0;
  for (int step = 0; step < 40; ++step) {
    auto snap = index.snapshot();
    const VertexId n = snap->graph().num_vertices();
    if (update_rng.NextBool(0.5)) {
      applied += index.InsertEdge(update_rng.NextIndex(n),
                                  update_rng.NextIndex(n))
                     ? 1
                     : 0;
    } else {
      auto edges = snap->graph().Edges();
      if (edges.empty()) continue;
      auto [u, v] =
          edges[update_rng.NextIndex(static_cast<uint32_t>(edges.size()))];
      applied += index.DeleteEdge(u, v) ? 1 : 0;
    }
  }
  while (reads.load(std::memory_order_relaxed) < 50) {
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(applied, 0u);
  // Single-edge updates on a graph this size are served localized.
  EXPECT_GT(index.stats().localized_updates, 0u);
  auto snap = index.snapshot();
  for (int h = 1; h <= 3; ++h) {
    EXPECT_EQ(snap->Cores(h), FreshCores(snap->graph(), h));
  }
}

}  // namespace
}  // namespace hcore
