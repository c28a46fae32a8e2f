// Batched index maintenance vs per-edge warm restarts.
//
// The acceptance experiment for the HCoreIndex batch API: apply B edge
// insertions to a 100k-vertex graph (a) one at a time through
// HCoreIndex::InsertEdge — one page splice + one localized repair or warm
// re-decomposition per h level per edge — and (b) in one
// HCoreIndex::ApplyBatch on a second index — ONE page splice + one warm
// re-decomposition per h level for the whole batch (B exceeds the
// localized batch cap). Both must produce identical core indexes; the
// batch path must be >= 5x faster at B = 64.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "index/hcore_index.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader(
      "HCoreIndex::ApplyBatch vs sequential HCoreIndex::InsertEdge");

  const VertexId n = args.full ? 300'000u : 100'000u;
  const int kBatch = 64;
  const int h = 2;
  Rng rng(17);
  Graph g = gen::BarabasiAlbert(n, 4, &rng);
  std::printf("graph: BA n=%u m=%llu, h=%d, B=%d\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), h, kBatch);

  // One shared set of brand-new edges.
  std::vector<EdgeEdit> batch;
  {
    Graph probe = g;
    while (batch.size() < kBatch) {
      VertexId u = rng.NextIndex(n);
      VertexId v = rng.NextIndex(n);
      if (u == v || probe.HasEdge(u, v)) continue;
      batch.push_back(EdgeEdit::Insert(u, v));
      probe = probe.WithEdits({&batch.back(), 1});
    }
  }

  HCoreIndexOptions index_opts;
  index_opts.max_h = h;

  // (a) Sequential: B single-edge updates.
  HCoreIndex sequential(g, index_opts);
  WallTimer seq_timer;
  for (const EdgeEdit& e : batch) {
    bool ok = sequential.InsertEdge(e.u, e.v);
    HCORE_CHECK(ok);
  }
  const double seq_seconds = seq_timer.ElapsedSeconds();

  // (b) Batched: one page splice + one warm re-decomposition per level.
  HCoreIndex index(g, index_opts);
  WallTimer batch_timer;
  const size_t applied = index.ApplyBatch(batch);
  const double batch_seconds = batch_timer.ElapsedSeconds();
  HCORE_CHECK(applied == batch.size());
  const HCoreIndexStats stats = index.stats();

  bool identical = true;
  for (int level = 1; level <= h; ++level) {
    identical &= index.snapshot()->Cores(level) ==
                 sequential.snapshot()->Cores(level);
  }
  const double speedup =
      batch_seconds > 0 ? seq_seconds / batch_seconds : 0.0;
  const bool fast_enough = speedup >= 5.0;  // the acceptance threshold
  const HCoreIndexStats seq_stats = sequential.stats();
  std::printf("sequential: %8.3fs  (%d single-edit batches: %llu localized, "
              "%llu fallback level repairs)\n",
              seq_seconds, kBatch,
              static_cast<unsigned long long>(seq_stats.localized_updates),
              static_cast<unsigned long long>(seq_stats.fallback_repeels));
  std::printf("batched:    %8.3fs  (%llu CSR rebuild, %llu level runs)\n",
              batch_seconds,
              static_cast<unsigned long long>(stats.csr_rebuilds),
              static_cast<unsigned long long>(stats.level_decompositions));
  std::printf("speedup:    %8.2fx (>= 5x required: %s)   identical cores: %s\n",
              speedup, fast_enough ? "ok" : "FAIL",
              identical ? "yes" : "NO (BUG)");
  return identical && fast_enough ? 0 : 1;
}
