// Differential suite for the serving tier: every query type on
// ShardedHCoreService — cores, spectra, degeneracies, densest-level tables,
// components, and communities — must equal answers computed from a
// from-scratch decomposition of the same graph (CompareToScratchOracle plus
// direct checks below), on four graph families (BA, clustered,
// disconnected, star-heavy), both on the initial build and after mixed
// ApplyBatch sequences, and after concurrent writers group-commit. Also
// checks the oracle itself (it must flag a graph one edit off), the
// counters, page-sharing accounting, and stats reset.

#include "serve/sharded_service.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/community.h"
#include "core/kh_core.h"
#include "graph/generators.h"
#include "serve/workload.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::ReferenceComponent;

constexpr int kMaxH = 3;

struct Family {
  std::string name;
  std::function<Graph()> make;
};

std::vector<Family> Families() {
  return {
      {"ba",
       [] {
         Rng rng(11);
         return gen::BarabasiAlbert(120, 3, &rng);
       }},
      {"clustered",
       [] {
         Rng rng(12);
         return gen::CliqueOverlay(150, 70, 3, 12, 2.0, &rng);
       }},
      // p_out = 0: three components that only edits can connect.
      {"disconnected",
       [] {
         Rng rng(13);
         return gen::PlantedPartition(3, 40, 0.4, 0.0, &rng);
       }},
      {"star",
       [] {
         Rng rng(14);
         return gen::StarHeavySocial(140, 400, 3, 0.5, &rng);
       }},
  };
}

ShardedServiceOptions ServiceOptions() {
  ShardedServiceOptions opts;
  opts.index.max_h = kMaxH;
  return opts;
}

std::vector<uint32_t> ScratchCores(const Graph& g, int h) {
  KhCoreOptions opts;
  opts.h = h;
  return KhCoreDecomposition(g, opts).core;
}

/// Every query type of the current view against answers derived from a
/// from-scratch decomposition of `truth`: the oracle (every spectrum, its
/// sampled components and communities), then exhaustive checks — the
/// degeneracy, the densest-level rows recounted from the scratch cores,
/// components of every third vertex across the whole level range (k = 0
/// is v's component of G; k = core + 1 is empty), and multi-vertex
/// community queries, including far pairs that exercise the infeasible
/// path on disconnected inputs.
void AssertMatchesScratch(const ShardedHCoreService& service,
                          const Graph& truth, uint64_t seed,
                          const std::string& label) {
  auto view = service.view();
  OracleCheckOptions check;
  check.seed = seed;
  const OracleMismatches mismatches =
      CompareToScratchOracle(truth, *view, check);
  ASSERT_EQ(mismatches.total(), 0u)
      << label << ": graph=" << mismatches.graph
      << " spectra=" << mismatches.spectra
      << " components=" << mismatches.components
      << " communities=" << mismatches.communities;

  const VertexId n = truth.num_vertices();
  const auto edges = truth.Edges();
  Rng rng(seed);
  for (int h = 1; h <= kMaxH; ++h) {
    const std::vector<uint32_t> core = ScratchCores(truth, h);
    const uint32_t degeneracy =
        core.empty() ? 0 : *std::max_element(core.begin(), core.end());
    ASSERT_EQ(view->Degeneracy(h), degeneracy) << label << " h=" << h;
    for (const auto& row : view->TopDensestLevels(h, 5)) {
      uint32_t vertices = 0;
      for (uint32_t c : core) vertices += c >= row.k ? 1 : 0;
      uint64_t induced = 0;
      for (const auto& [u, v] : edges) {
        induced += std::min(core[u], core[v]) >= row.k ? 1 : 0;
      }
      EXPECT_EQ(row.vertices, vertices) << label << " h=" << h << " k="
                                        << row.k;
      EXPECT_EQ(row.edges, induced) << label << " h=" << h << " k=" << row.k;
    }
    for (VertexId v = 0; v < n; v += 3) {
      for (uint32_t k : {0u, 1u, core[v] / 2, core[v], core[v] + 1}) {
        ASSERT_EQ(view->CoreComponentOf(v, k, h),
                  ReferenceComponent(truth, core, v, k))
            << label << " h=" << h << " v=" << v << " k=" << k;
      }
    }
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<VertexId> query{rng.NextIndex(n)};
      if (trial % 2 == 0) query.push_back(rng.NextIndex(n));
      if (trial % 3 == 0) query.push_back(rng.NextIndex(n));
      const CommunityResult got = view->Community(query, h);
      const CommunityResult want =
          DistanceCocktailPartyFromCores(truth, query, h, core);
      ASSERT_EQ(got.feasible, want.feasible) << label << " h=" << h;
      ASSERT_EQ(got.vertices, want.vertices) << label << " h=" << h;
      ASSERT_EQ(got.min_h_degree, want.min_h_degree) << label << " h=" << h;
      ASSERT_EQ(got.core_level, want.core_level) << label << " h=" << h;
    }
  }
}

/// A deterministic mixed batch against the current graph (same helper shape
/// as the index fuzz suite; includes a growth insert now and then).
std::vector<EdgeEdit> MixedBatch(const Graph& g, Rng* rng, int size) {
  std::vector<EdgeEdit> batch;
  const VertexId n = g.num_vertices();
  auto edges = g.Edges();
  for (int i = 0; i < size; ++i) {
    if (rng->NextBool(0.55) || edges.empty()) {
      batch.push_back(
          EdgeEdit::Insert(rng->NextIndex(n + 1), rng->NextIndex(n + 1)));
    } else {
      auto [u, v] = edges[rng->NextIndex(static_cast<uint32_t>(edges.size()))];
      batch.push_back(EdgeEdit::Delete(u, v));
    }
  }
  return batch;
}

TEST(ServeDifferential, AllQueryTypesMatchScratchOracleAcrossFamilies) {
  for (const Family& family : Families()) {
    ShardedHCoreService service(family.make(), ServiceOptions());
    AssertMatchesScratch(service, family.make(), 101, family.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ServeDifferential, ScratchOracleHoldsAfterMixedApplyBatchSequences) {
  for (const Family& family : Families()) {
    Graph truth = family.make();
    ShardedHCoreService service(family.make(), ServiceOptions());
    Rng rng(31);
    for (int round = 0; round < 4; ++round) {
      auto batch = MixedBatch(truth, &rng, 2 + round * 2);
      EdgeEditSummary summary;
      truth = truth.WithEdits(batch, &summary);
      ASSERT_EQ(service.ApplyBatch(batch), summary.applied())
          << family.name << " round=" << round;
      AssertMatchesScratch(service, truth, 500 + round,
                           family.name + "/round" + std::to_string(round));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ServeDifferential, DisconnectedComponentsMergeExactlyWhenEditsBridge) {
  // Start from three disjoint blocks; insert bridges one at a time and
  // check the component of a vertex in each block against a BFS of the
  // whole graph as the global component grows.
  Graph truth = Families()[2].make();
  ShardedHCoreService service(Graph(truth), ServiceOptions());
  const std::vector<EdgeEdit> bridges[] = {
      {EdgeEdit::Insert(0, 45)},   // block 0 <-> block 1
      {EdgeEdit::Insert(50, 85)},  // block 1 <-> block 2
  };
  for (const auto& batch : bridges) {
    ASSERT_EQ(service.ApplyBatch(batch), 1u);
    truth = truth.WithEdits(batch);
    auto view = service.view();
    const std::vector<uint32_t> zero(truth.num_vertices(), 0);
    for (int h = 1; h <= kMaxH; ++h) {
      for (VertexId v : {0u, 45u, 85u}) {
        ASSERT_EQ(view->CoreComponentOf(v, 0, h),
                  ReferenceComponent(truth, zero, v, 0))
            << "h=" << h << " v=" << v;
      }
    }
  }
}

TEST(ServeOracle, FlagsAnswersServedFromAGraphOneEditOff) {
  // The oracle must not be vacuous: handed the truth graph with one edit
  // the service never saw, it has to report a mismatch — and one in the
  // answers, not only in the edge count. The edit is the first edge
  // deletion that changes some h=1 core.
  Rng rng(5);
  const Graph g = gen::CliqueOverlay(60, 30, 2, 10, 2.0, &rng);
  ShardedHCoreService service(Graph(g), ServiceOptions());
  const std::vector<uint32_t> core = ScratchCores(g, 1);
  Graph off_by_one;
  for (const auto& [u, v] : g.Edges()) {
    const EdgeEdit edit = EdgeEdit::Delete(u, v);
    off_by_one = g.WithEdits({&edit, 1});
    if (ScratchCores(off_by_one, 1) != core) break;
  }
  ASSERT_NE(ScratchCores(off_by_one, 1), core);

  const OracleMismatches on_truth = CompareToScratchOracle(g, *service.view());
  EXPECT_EQ(on_truth.total(), 0u);
  const OracleMismatches off =
      CompareToScratchOracle(off_by_one, *service.view());
  EXPECT_GE(off.total(), 1u);
  EXPECT_EQ(off.graph, 1u);
  EXPECT_GE(off.spectra, 1u);
}

TEST(ServeTier, CountersTrackBatchesAndStatsResetZeroes) {
  Rng rng(17);
  Graph g = gen::BarabasiAlbert(90, 3, &rng);
  ShardedHCoreService service(Graph(g), ServiceOptions());

  Rng edit_rng(3);
  size_t effective_batches = 0;
  size_t effective_edits = 0;
  for (int round = 0; round < 4; ++round) {
    auto batch = MixedBatch(service.view()->graph(), &edit_rng, 3);
    size_t applied = service.ApplyBatch(batch);
    if (applied > 0) {
      ++effective_batches;
      effective_edits += applied;
    }
  }
  ASSERT_GT(effective_batches, 0u);
  EXPECT_EQ(service.view()->service_epoch(), effective_batches);

  const ShardedServiceStats stats = service.stats();
  // One page splice and one per-level repair per effective batch.
  EXPECT_EQ(stats.index.batches_applied, effective_batches);
  EXPECT_EQ(stats.index.csr_rebuilds, effective_batches);
  EXPECT_EQ(stats.index.edits_applied, effective_edits);
  EXPECT_EQ(stats.index.localized_updates + stats.index.fallback_repeels,
            effective_batches * kMaxH);
  // COW accounting ran each epoch. This 90-vertex graph fits in a single
  // page, so every effective batch copies it; sharing across epochs is
  // exercised on multi-page graphs in PageSharingAcrossEpochs.
  EXPECT_EQ(stats.memory.pages_copied, effective_batches);
  EXPECT_GT(stats.memory.resident_bytes, 0u);
  EXPECT_GT(stats.memory.graph_pages, 0u);

  const uint64_t epoch_before = service.view()->service_epoch();
  service.ResetStats();
  const ShardedServiceStats zeroed = service.stats();
  EXPECT_EQ(zeroed.index.batches_applied, 0u);
  EXPECT_EQ(zeroed.index.edits_applied, 0u);
  EXPECT_EQ(zeroed.index.decomposition.visited_vertices, 0u);
  // Epoch page-sharing counters reset; resident bytes are a gauge of the
  // currently published graph and stay live.
  EXPECT_EQ(zeroed.memory.pages_shared, 0u);
  EXPECT_EQ(zeroed.memory.pages_copied, 0u);
  EXPECT_GT(zeroed.memory.resident_bytes, 0u);
  // Reset is a counter operation only: the published view is untouched.
  EXPECT_EQ(service.view()->service_epoch(), epoch_before);
}

TEST(ServeTier, PageSharingAcrossEpochs) {
  // On a multi-page substrate every published epoch shares its untouched
  // pages with the previous one: a 1-edit batch copies at most the two
  // pages holding the endpoints (plus growth tail pages, absent here).
  // Page sharing does not depend on h, so one level keeps the per-epoch
  // decompositions of this 5000-vertex graph cheap.
  Rng rng(31);
  Graph g = gen::BarabasiAlbert(5000, 3, &rng);
  ShardedServiceOptions opts = ServiceOptions();
  opts.index.max_h = 1;
  ShardedHCoreService service(Graph(g), opts);
  const size_t pages = service.view()->graph().num_pages();
  ASSERT_GT(pages, 3u);

  const int kBatches = 5;
  for (int i = 0; i < kBatches; ++i) {
    VertexId u = static_cast<VertexId>(10 + i), v = 3000;
    while (service.view()->graph().HasEdge(u, v)) ++v;
    const EdgeEdit edit = EdgeEdit::Insert(u, v);
    ASSERT_EQ(service.ApplyBatch({&edit, 1}), 1u);
  }

  const ShardedServiceStats stats = service.stats();
  // Each epoch shared all but <= 2 pages and copied the rest.
  EXPECT_GE(stats.memory.pages_shared, kBatches * (pages - 2));
  EXPECT_LE(stats.memory.pages_copied, kBatches * 2u);
  EXPECT_EQ(stats.memory.graph_pages, pages);
  EXPECT_EQ(stats.memory.resident_bytes,
            service.view()->graph().MemoryBytes());
}

TEST(ServeTier, GroupCommitCoalescesConcurrentWritersExactly) {
  // Concurrent writers under group commit: a leader drains the queue and
  // applies one concatenated batch per group. Edits are disjoint absent
  // edges, so every writer's attributed count must come back exactly, and
  // the final state must equal a control service that applied the same
  // edits in one sequential batch, and the from-scratch oracle.
  Rng rng(33);
  Graph g = gen::CliqueOverlay(150, 70, 3, 12, 2.0, &rng);
  const VertexId n = g.num_vertices();

  // Carve disjoint absent edges into per-writer batches.
  std::set<std::pair<VertexId, VertexId>> used;
  for (const auto& e : g.Edges()) used.insert(e);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 6;
  Rng pick(34);
  std::vector<std::vector<EdgeEdit>> batches(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    while (batches[w].size() < kPerWriter) {
      VertexId u = pick.NextIndex(n), v = pick.NextIndex(n);
      if (u == v) continue;
      auto key = std::minmax(u, v);
      if (!used.insert({key.first, key.second}).second) continue;
      batches[w].push_back(EdgeEdit::Insert(u, v));
    }
  }

  ShardedServiceOptions grouped_opts = ServiceOptions();
  grouped_opts.group_commit = true;
  ShardedHCoreService grouped(Graph(g), grouped_opts);

  std::vector<size_t> applied(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(
        [&, w] { applied[w] = grouped.ApplyBatch(batches[w]); });
  }
  for (auto& t : writers) t.join();
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(applied[w], static_cast<size_t>(kPerWriter)) << "writer " << w;
  }
  // Groups coalesce: the epoch advanced once per commit group, never more
  // than once per writer.
  const uint64_t epoch = grouped.view()->service_epoch();
  EXPECT_GE(epoch, 1u);
  EXPECT_LE(epoch, static_cast<uint64_t>(kWriters));

  // Control: the same edits in one sequential batch, group commit off.
  std::vector<EdgeEdit> all;
  for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
  ShardedHCoreService control(Graph(g), ServiceOptions());
  ASSERT_EQ(control.ApplyBatch(all), all.size());

  EXPECT_EQ(grouped.view()->graph().FlattenedNeighbors(),
            control.view()->graph().FlattenedNeighbors());
  AssertMatchesScratch(grouped, g.WithEdits(all), 77, "group-commit");
}

TEST(ServeTierDeathTest, RejectsMoreThanOneShard) {
  Rng rng(5);
  ShardedServiceOptions opts = ServiceOptions();
  opts.num_shards = 2;
  EXPECT_DEATH(
      { ShardedHCoreService service(gen::BarabasiAlbert(50, 2, &rng), opts); },
      "num_shards");
}

}  // namespace
}  // namespace hcore
