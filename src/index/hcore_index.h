// Queryable (k,h)-core index: one object that owns every decomposition
// artifact for a graph and serves point queries from immutable snapshots
// while batched edge updates rebuild the next epoch.
//
// The paper's §7 future work treats the per-vertex core spectrum
// (core_1(v), ..., core_H(v)) as the queryable artifact of a graph; this
// layer is the serving side of that idea. It unifies three previously
// separate consumers' machinery:
//
//   * the multi-h warm-start sweep of core/spectrum.* (level h seeds level
//     h+1 as a lower bound) builds the initial per-level core vectors;
//   * the core-component dendrogram of core/hierarchy.* is built lazily,
//     per level, on first query — never eagerly at update time;
//   * the dynamic maintenance of core/incremental.* drives ApplyBatch, the
//     one write path (single edits are batches of one): ONE copy-on-write
//     page splice for the whole batch, then per h level a localized repair
//     or, past its caps, a warm-started whole-graph re-decomposition (old
//     cores lower-bound after inserts, upper-bound after deletes).
//
// Concurrency model: readers call snapshot() and query the returned
// HCoreSnapshot for as long as they like; snapshots are immutable (lazy
// artifacts are built under an internal mutex, which is the only point of
// reader-reader contention) and epoch-stamped. A writer running ApplyBatch
// never blocks readers: it prepares the next snapshot off to the side and
// publishes it with a pointer swap. Writers serialize among themselves.
//
// Dirty flags: after a batch, levels whose core vector came out identical
// to the previous epoch share the old vector (pointer equality, see
// LevelReused) and their derived artifacts are simply not rebuilt unless
// queried — the hierarchy and density tables are per-snapshot lazy caches.

#ifndef HCORE_INDEX_HCORE_INDEX_H_
#define HCORE_INDEX_HCORE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/hierarchy.h"
#include "core/incremental.h"
#include "core/kh_core.h"
#include "graph/graph.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// Configuration for an HCoreIndex.
struct HCoreIndexOptions {
  /// Indexed distance thresholds: h in [1, max_h].
  int max_h = 2;
  /// Per-level decomposition configuration (its `h` and bound pointers are
  /// managed by the index).
  KhCoreOptions base;
  /// Localized maintenance tuning (core/incremental.h): small batches
  /// re-peel only the candidate region per level, falling back to the warm
  /// whole-graph re-decomposition past the region/batch caps
  /// (`localized.max_batch = 0` sends every level to the fallback).
  LocalizedUpdateOptions localized;
};

/// Cumulative cost counters for one index (Table-3-style: serving queries
/// must leave `decomposition` flat; only Build/ApplyBatch may move it).
struct HCoreIndexStats {
  /// CSR rebuilds performed — exactly one per effective ApplyBatch or
  /// ApplyPrepared.
  uint64_t csr_rebuilds = 0;
  /// Batches that applied at least one edit.
  uint64_t batches_applied = 0;
  /// Individual edge edits that had an effect.
  uint64_t edits_applied = 0;
  /// Whole-graph per-level decompositions run (initial build and fallback
  /// levels of ApplyBatch).
  uint64_t level_decompositions = 0;
  /// Levels whose core vector was unchanged by a batch (artifact reuse).
  uint64_t levels_unchanged = 0;
  /// ApplyBatch levels served by the localized region re-peel vs by the
  /// warm whole-graph fallback. Per effective batch the two deltas sum to
  /// max_h: every dirty level is exactly one or the other.
  uint64_t localized_updates = 0;
  uint64_t fallback_repeels = 0;
  /// Aggregate engine counters over every decomposition the index ran.
  KhCoreStats decomposition;

  /// Field-wise accumulation — the ONE place that knows every counter
  /// (used by the index's per-batch delta merge; a new field only needs
  /// adding here).
  void Add(const HCoreIndexStats& other);
};

/// One immutable epoch of the index. Thread-safe for concurrent readers;
/// obtained from HCoreIndex::snapshot() and valid for as long as the
/// shared_ptr is held, across any number of concurrent updates.
class HCoreSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  const Graph& graph() const { return *graph_; }
  int max_h() const { return static_cast<int>(levels_.size()); }

  /// Core index of `v` at distance threshold `h` (1-based, h <= max_h).
  uint32_t CoreOf(VertexId v, int h) const;

  /// The spectrum (core_1(v), ..., core_H(v)).
  std::vector<uint32_t> Spectrum(VertexId v) const;

  /// Full core vector at level h (index by vertex id).
  const std::vector<uint32_t>& Cores(int h) const;

  /// h-degeneracy Ĉ_h at level h.
  uint32_t Degeneracy(int h) const;

  /// True if this epoch reused the previous epoch's core vector for level h
  /// (the batch left it unchanged; the vectors are physically shared).
  bool LevelReused(int h) const;

  /// Core-component dendrogram at level h. Built lazily on first call and
  /// cached for the lifetime of the snapshot.
  const CoreHierarchy& Hierarchy(int h) const;

  /// Vertices of the connected component of the (k,h)-core containing `v`
  /// (sorted). Empty when core_h(v) < k. k = 0 yields v's component of G.
  std::vector<VertexId> CoreComponentOf(VertexId v, uint32_t k, int h) const;

  /// One row of the densest-level table: the (k,h)-core C_k with its size,
  /// induced edge count, and edge density |E(G[C_k])| / |C_k|.
  struct LevelDensity {
    uint32_t k = 0;
    uint32_t vertices = 0;
    uint64_t edges = 0;
    double density = 0.0;
  };

  /// The `top_k` core levels of threshold h with the highest edge density,
  /// densest first (ties: deeper level first). Per-level edge counts are
  /// computed lazily once per snapshot (one O(m) pass) and cached.
  std::vector<LevelDensity> TopDensestLevels(int h, size_t top_k) const;

  /// Lazy artifacts materialized so far (for tests and serving telemetry).
  uint64_t lazy_builds() const {
    return lazy_builds_.load(std::memory_order_relaxed);
  }

 private:
  friend class HCoreIndex;

  struct Level {
    std::shared_ptr<const std::vector<uint32_t>> core;
    uint32_t degeneracy = 0;
    bool reused = false;
  };

  /// Cached per-level aggregates: suffix counts over k in [0, degeneracy].
  struct DensityTable {
    std::vector<uint32_t> vertices_in_core;
    std::vector<uint64_t> edges_in_core;
  };

  HCoreSnapshot(std::shared_ptr<const Graph> graph, std::vector<Level> levels,
                uint64_t epoch);

  std::shared_ptr<const Graph> graph_;
  std::vector<Level> levels_;
  uint64_t epoch_ = 0;

  // Lazily built, logically-const artifacts (guarded: snapshots are shared
  // by concurrent readers).
  mutable Mutex lazy_mu_;
  mutable std::vector<std::unique_ptr<CoreHierarchy>> hierarchy_
      GUARDED_BY(lazy_mu_);
  mutable std::vector<std::unique_ptr<DensityTable>> density_
      GUARDED_BY(lazy_mu_);
  mutable std::atomic<uint64_t> lazy_builds_{0};
};

/// The index: owns the graph and its decomposition artifacts, serves
/// immutable snapshots, and advances epochs under batched edge updates.
class HCoreIndex {
 public:
  /// Decomposes `g` for every h in [1, options.max_h] (warm-start sweep)
  /// and publishes epoch 0.
  explicit HCoreIndex(Graph g, const HCoreIndexOptions& options = {});

  int max_h() const { return options_.max_h; }

  /// The current epoch. Cheap (one pointer copy under a mutex); the caller
  /// keeps the snapshot alive independently of future updates.
  std::shared_ptr<const HCoreSnapshot> snapshot() const EXCLUDES(mu_);

  /// Applies a batch of edge edits: ONE copy-on-write page splice via
  /// Graph::WithEdits (O(touched pages)), then per level either a LOCALIZED
  /// repair (batches up to options.localized.max_batch effective edits
  /// whose candidate region fits the cap — see core/incremental.h; pure
  /// batches run one region pass, mixed batches chain the delete cascade
  /// and the insert region re-peel through the intermediate graph) or a
  /// warm-started whole-graph re-decomposition — pure-insert batches reuse
  /// old cores as lower bounds, pure-delete batches as upper bounds, mixed
  /// batches fall back to the spectrum chain only. The localized_updates /
  /// fallback_repeels stats record which path served each level. Publishes
  /// a new epoch unless every edit was a no-op. Returns the number of edits
  /// that had an effect. Thread-safe; concurrent readers are never blocked.
  size_t ApplyBatch(std::span<const EdgeEdit> edits)
      EXCLUDES(update_mu_, mu_);

  /// The apply half of ApplyBatch for callers that canonicalized once:
  /// `effective` MUST be the exact CanonicalEffectiveEdits output against
  /// this index's current graph, with `summary` its per-kind counts, and
  /// must be non-empty. Skips re-canonicalization, applies the page splice
  /// and per-level repair, publishes, and returns the new snapshot — the
  /// serving tier canonicalizes once to attribute group-committed edits.
  std::shared_ptr<const HCoreSnapshot> ApplyPrepared(
      std::span<const EdgeEdit> effective, const EdgeEditSummary& summary)
      EXCLUDES(update_mu_, mu_);

  /// Single-edit conveniences: each is a batch of one, so it returns false
  /// for the no-ops of Graph::WithEdits (self-loop, present insert, absent
  /// or out-of-range delete) and an insert past the vertex count grows it.
  bool InsertEdge(VertexId u, VertexId v) EXCLUDES(update_mu_, mu_);
  bool DeleteEdge(VertexId u, VertexId v) EXCLUDES(update_mu_, mu_);

  /// Cumulative cost counters (serving queries never moves them).
  HCoreIndexStats stats() const EXCLUDES(mu_);

  /// Zeroes the cumulative counters (the published snapshot and its epoch
  /// are untouched). Lets a long-lived serving process start a fresh
  /// measurement window — `stats reset` in the serve REPL.
  void ResetStats() EXCLUDES(mu_);

 private:
  std::shared_ptr<const HCoreSnapshot> ApplyPreparedLocked(
      const std::shared_ptr<const HCoreSnapshot>& prev,
      std::span<const EdgeEdit> effective, const EdgeEditSummary& summary)
      REQUIRES(update_mu_) EXCLUDES(mu_);

  std::vector<HCoreSnapshot::Level> DecomposeAll(
      const Graph& g, const HCoreSnapshot* prev, bool pure_insert,
      bool pure_delete, std::span<const EdgeEdit> effective,
      HCoreIndexStats* stats) REQUIRES(update_mu_);

  HCoreIndexOptions options_;
  Mutex update_mu_;        // serializes writers
  mutable Mutex mu_;       // guards snap_ swap and stats_
  std::shared_ptr<const HCoreSnapshot> snap_ GUARDED_BY(mu_);
  HCoreIndexStats stats_ GUARDED_BY(mu_);
  // Writer-only scratch (under update_mu_).
  LocalizedUpdater updater_ GUARDED_BY(update_mu_);
};

}  // namespace hcore

#endif  // HCORE_INDEX_HCORE_INDEX_H_
