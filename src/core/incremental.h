// Dynamic maintenance of a (k,h)-core decomposition under edge updates.
//
// Two exact strategies, tried in order:
//
//  1. LOCALIZED MAINTENANCE (LocalizedUpdater), two exact sub-strategies:
//
//     * DELETION — violation cascade, output-sensitive. Core indexes only
//       drop, so maintain a working vector `cur` (starting at the old
//       cores, an upper bound) and repeatedly fix violations: v is violated
//       when its h-degree inside {u : cur(u) >= cur(v)} falls below
//       cur(v); each violation decrements cur(v) and re-queues the
//       level-mates within distance h. At the fixpoint every level set
//       {cur >= k} is (k,h)-cohesive (so cur <= true core) and a vertex at
//       its true core is never violated (its true core's members all keep
//       cur >= true core, an induction), so cur never drops past the truth:
//       cur == new core exactly. Only vertices that actually change — plus
//       one h-bounded BFS per recheck — are ever touched.
//
//     * INSERTION — candidate-region re-peel. Region discovery
//       (traversal/region.h) over-approximates the set of vertices whose
//       core index can rise at any level below a TRIAL bound; the region is
//       re-peeled through the shared PeelingEngine on a VertexMask holding
//       region ∪ boundary alive, boundary vertices pinned at their old
//       index so their pops replay the surrounding true peel bucket by
//       bucket. The peel is provably exact on every level below the bound,
//       so a trial is accepted exactly when the computed min endpoint core
//       of every edit stays below it (no deeper level can then have
//       changed); otherwise the bound escalates geometrically and the peel
//       reruns, degenerating into the warm fallback once the region
//       overflows the cap.
//
//  2. WHOLE-GRAPH WARM START (the fallback, run per level by HCoreIndex —
//     index/hcore_index.h): re-decompose from scratch reusing the previous
//     indexes as bounds — after an insertion distances only shrink, so old
//     indexes lower-bound the new ones; after a deletion they upper-bound
//     them.
//
// The localized path falls back when the discovered region exceeds
// LocalizedUpdateOptions::MaxRegion (edits that restructure a large part of
// the graph). Both paths return exactly the decomposition a fresh run would
// produce; the fuzz suite (tests/incremental_fuzz_test.cc) checks that at
// every step, for single edits and batches alike.
//
// Threads: the localized path runs on the calling thread, one level after
// another. Its regions are capped small, and the h = max_h level dominates
// a batch's repair cost, so neither a parallel region peel nor running
// levels concurrently measured faster (README "Parallel peeling"). Threads
// act on the whole-graph fallback only (KhCoreOptions::num_threads).

#ifndef HCORE_CORE_INCREMENTAL_H_
#define HCORE_CORE_INCREMENTAL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/h_degree.h"
#include "traversal/region.h"

namespace hcore {

/// Tuning for the localized update path.
struct LocalizedUpdateOptions {
  /// Fallback threshold: discovery aborts (and the caller re-peels the
  /// whole graph warm-started) once the candidate region exceeds
  /// max(min_region_cap, max_region_fraction * n) vertices — past that the
  /// localized peel stops being cheaper than the warm start it replaces.
  double max_region_fraction = 0.25;
  size_t min_region_cap = 64;
  /// Batch cap (HCoreIndex): batches with more effective edits than this
  /// skip discovery entirely (their joint region is rarely local); 0 sends
  /// every batch to the warm fallback.
  size_t max_batch = 8;

  size_t MaxRegion(VertexId n) const {
    return std::max(min_region_cap,
                    static_cast<size_t>(max_region_fraction * n));
  }
};

/// Outcome of one localized level-update attempt.
struct LocalizedUpdateStats {
  /// Inserts: candidate vertices re-peeled (final trial). Deletes:
  /// vertices the cascade demoted.
  size_t region = 0;
  size_t boundary = 0;  ///< Pinned vertices replayed around them (inserts).
  size_t changed = 0;   ///< Region vertices whose core index moved.
  /// Insert-side trial-bound escalations (see LocalizedUpdater): 0 means
  /// the classic-subcore bound was certified on the first try.
  size_t escalations = 0;
  /// Table-3-style counters covering discovery + the region peel.
  uint64_t visited = 0;
  uint64_t hdegree_computations = 0;
  uint64_t decrement_updates = 0;

  /// Field-wise accumulation (the mixed chain merges its two phases).
  void Add(const LocalizedUpdateStats& other);
};

/// Localized re-peel machinery with scratch reused across updates (BFS
/// buffers, masks, the region finder). Single-threaded (see the header
/// comment); not thread-safe, callers serialize.
class LocalizedUpdater {
 public:
  /// Advances `core` — the exact (k,h)-core indexes of `g_before` at
  /// threshold `h` — across a pure batch of edits, in place. `g_after` must
  /// be `g_before.WithEdits(...)` and `effective` the edits it actually
  /// applied (all insertions when `inserts`, all deletions otherwise; see
  /// Graph::WithEdits' `effective` out-parameter). On success `core` holds
  /// the exact post-edit indexes (resized when the batch grew the graph)
  /// and true is returned. Returns false — leaving `core` untouched — when
  /// the region overflows the cap.
  bool UpdateLevel(const Graph& g_before, const Graph& g_after,
                   std::span<const EdgeEdit> effective, bool inserts, int h,
                   std::vector<uint32_t>* core,
                   const LocalizedUpdateOptions& options,
                   LocalizedUpdateStats* stats = nullptr);

 private:
  bool InsertUpdate(const Graph& g_after,
                    std::span<const EdgeEdit> effective, int h,
                    const std::vector<uint32_t>& old_core,
                    const LocalizedUpdateOptions& options,
                    LocalizedUpdateStats* local);
  bool DeleteCascade(const Graph& g_before, const Graph& g_after,
                     std::span<const EdgeEdit> effective, int h,
                     const LocalizedUpdateOptions& options,
                     LocalizedUpdateStats* local);

  HDegreeComputer degrees_{0, /*num_threads=*/1};
  RegionFinder finder_;
  BoundedBfs cascade_bfs_;
  VertexMask mask_;
  std::vector<uint8_t> pinned_;
  std::vector<uint32_t> base_core_;
  std::vector<uint32_t> next_core_;
  std::vector<VertexId> worklist_;
};

}  // namespace hcore

#endif  // HCORE_CORE_INCREMENTAL_H_
