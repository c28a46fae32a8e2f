// Serving tier: one HCoreIndex behind an atomically published read view.
//
// Exact (k,h)-cores are a global fixpoint — a vertex's core index can
// depend on edges arbitrarily far away — so the index is not split: one
// HCoreIndex owns the paged copy-on-write graph (graph/graph.h) and every
// per-level core vector, and this layer adds what a serving front end
// needs on top of it:
//
//   * ATOMIC VIEW PUBLICATION. view() hands out an immutable
//     ShardedServiceView pinned to one index snapshot. Readers keep a view
//     for as long as they like; a writer prepares the next epoch off to the
//     side and publishes it with a pointer swap, so a reader sees either
//     every edit of a batch or none of them.
//   * QUERIES. Point queries (core, spectrum, degeneracy, densest levels)
//     read the snapshot's core vectors and lazy density tables; component
//     queries walk the snapshot's lazily cached core hierarchy; community
//     queries run DistanceCocktailPartyFromCores on the snapshot's cores.
//   * GROUP COMMIT (ShardedServiceOptions::group_commit). Concurrent
//     writers coalesce into one epoch: while a leader runs the write path,
//     later ApplyBatch callers enqueue their edits and block; the next
//     leader drains the queue, applies the concatenated batch (arrival
//     order preserved, so last-edit-wins semantics hold across writers)
//     under update_mu_, and wakes every coalesced writer with its own
//     attributed effective-edit count.
//   * MEMORY ACCOUNTING. stats().memory reports the current graph's page
//     footprint and, cumulatively, how many pages each published epoch
//     shared with or copied from its predecessor.
//
// The type names keep the "Sharded" prefix of the earlier multi-shard tier
// because callers compiled against them (khbench/src/workload_serve.cc
// among them) still use them; ShardedServiceOptions::num_shards must be 1.

#ifndef HCORE_SERVE_SHARDED_SERVICE_H_
#define HCORE_SERVE_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "apps/community.h"
#include "index/hcore_index.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// Configuration for a ShardedHCoreService.
struct ShardedServiceOptions {
  /// Must be 1 (checked at construction): the service serves one index.
  int num_shards = 1;
  /// Index configuration.
  HCoreIndexOptions index;
  /// Coalesce concurrent ApplyBatch callers into one epoch (see the group
  /// commit note above). Off, writers simply serialize on update_mu_, one
  /// epoch each — the right setting for single-writer deployments and for
  /// tests that count epochs per batch.
  bool group_commit = false;
};

/// Cumulative service counters.
struct ShardedServiceStats {
  HCoreIndexStats index;
  /// Graph storage accounting: resident_bytes/graph_pages describe the
  /// CURRENT epoch's paged CSR; pages_shared/pages_copied accumulate what
  /// each published epoch reused vs rebuilt of its predecessor's pages.
  GraphMemoryStats memory;

  /// The index counters (the name predates the single-index service).
  HCoreIndexStats AggregateShards() const { return index; }
};

/// One consistent read view: the index snapshot of one published epoch.
/// Immutable and thread-safe; obtained from ShardedHCoreService::view() and
/// valid for as long as the shared_ptr is held, across any number of
/// updates.
class ShardedServiceView {
 public:
  /// The index snapshot this view pins (the name is from the multi-shard
  /// tier); `s` must be 0.
  const HCoreSnapshot& shard_snapshot(int s) const {
    HCORE_CHECK(s == 0);
    return *snap_;
  }

  /// Number of effective batches applied before this view.
  uint64_t service_epoch() const { return snap_->epoch(); }
  int max_h() const { return snap_->max_h(); }
  const Graph& graph() const { return snap_->graph(); }

  uint32_t CoreOf(VertexId v, int h) const { return snap_->CoreOf(v, h); }
  std::vector<uint32_t> Spectrum(VertexId v) const {
    return snap_->Spectrum(v);
  }
  uint32_t Degeneracy(int h) const { return snap_->Degeneracy(h); }
  std::vector<HCoreSnapshot::LevelDensity> TopDensestLevels(
      int h, size_t top_k) const {
    return snap_->TopDensestLevels(h, top_k);
  }

  /// Vertices of the connected component of the (k,h)-core containing `v`
  /// (sorted; empty when core_h(v) < k or v is out of range).
  std::vector<VertexId> CoreComponentOf(VertexId v, uint32_t k, int h) const {
    return snap_->CoreComponentOf(v, k, h);
  }

  /// Distance-generalized cocktail-party community of `query` (every query
  /// vertex must be in range), computed from this epoch's cores.
  CommunityResult Community(const std::vector<VertexId>& query, int h) const;

 private:
  friend class ShardedHCoreService;

  explicit ShardedServiceView(std::shared_ptr<const HCoreSnapshot> snap)
      : snap_(std::move(snap)) {}

  std::shared_ptr<const HCoreSnapshot> snap_;
};

/// The serving tier. Thread-safe: any number of concurrent readers (view()
/// plus queries on the returned view, or the convenience wrappers below);
/// writers serialize among themselves and never block readers.
class ShardedHCoreService {
 public:
  /// Decomposes `g` at every level and publishes epoch 0.
  explicit ShardedHCoreService(Graph g,
                               const ShardedServiceOptions& options = {});

  int max_h() const { return options_.index.max_h; }

  /// The current view (one pointer copy).
  std::shared_ptr<const ShardedServiceView> view() const EXCLUDES(mu_);

  /// Applies one edit batch: canonicalizes it against the current epoch,
  /// hands the effective edits to HCoreIndex::ApplyPrepared (copy-on-write
  /// page splice plus per-level repair), and atomically publishes the next
  /// view. Returns the number of effective edits from THIS call's batch (0
  /// publishes nothing); under group_commit the call may block while a
  /// leader applies a coalesced epoch containing it. Readers holding older
  /// views are never blocked and never see a partial batch.
  size_t ApplyBatch(std::span<const EdgeEdit> edits)
      EXCLUDES(commit_mu_, update_mu_, mu_);

  /// Convenience wrappers over the current view.
  uint32_t CoreOf(VertexId v, int h) const { return view()->CoreOf(v, h); }
  std::vector<VertexId> CoreComponentOf(VertexId v, uint32_t k, int h) const {
    return view()->CoreComponentOf(v, k, h);
  }
  CommunityResult Community(const std::vector<VertexId>& query, int h) const {
    return view()->Community(query, h);
  }

  /// Cumulative index counters plus the graph memory accounting.
  ShardedServiceStats stats() const EXCLUDES(mu_);

  /// Zeroes the cumulative counters (epochs and published views are
  /// untouched) — `stats reset` in the serve REPL.
  void ResetStats() EXCLUDES(mu_);

 private:
  /// One queued write under group commit. `applied`/`edits` are owned by
  /// the enqueuing writer and touched by the leader only between enqueue
  /// and the done handoff under commit_mu_, which orders the accesses.
  struct PendingWrite {
    std::span<const EdgeEdit> edits;
    size_t applied = 0;
    bool done = false;
  };

  /// Canonicalizes `edits` against the current epoch, applies and
  /// publishes the effective ones (if any), and returns them.
  std::vector<EdgeEdit> ApplyLocked(std::span<const EdgeEdit> edits)
      REQUIRES(update_mu_) EXCLUDES(mu_);

  /// Group-commit front door: enqueue, elect a leader, leader drains the
  /// queue and applies the concatenated batch, everyone returns its own
  /// attributed effective count.
  size_t GroupCommit(std::span<const EdgeEdit> edits)
      EXCLUDES(commit_mu_, update_mu_, mu_);

  /// Applies one drained group as a single epoch and writes each member's
  /// attributed effective-edit count into its PendingWrite.
  void CommitGroup(std::span<PendingWrite* const> group)
      EXCLUDES(update_mu_, mu_);

  ShardedServiceOptions options_;
  HCoreIndex index_;
  Mutex update_mu_;   // serializes writers
  mutable Mutex mu_;  // guards view_ and memory_
  std::shared_ptr<const ShardedServiceView> view_ GUARDED_BY(mu_);
  GraphMemoryStats memory_ GUARDED_BY(mu_);  // cumulative shared/copied
  // Group-commit state: queued writers and the leader-election flag.
  Mutex commit_mu_;
  CondVar commit_cv_;
  std::vector<PendingWrite*> commit_queue_ GUARDED_BY(commit_mu_);
  bool commit_leader_ GUARDED_BY(commit_mu_) = false;
};

}  // namespace hcore

#endif  // HCORE_SERVE_SHARDED_SERVICE_H_
