#include "index/hcore_index.h"

#include <algorithm>
#include <utility>

#include "graph/ordering.h"

namespace hcore {

void HCoreIndexStats::Add(const HCoreIndexStats& other) {
  csr_rebuilds += other.csr_rebuilds;
  batches_applied += other.batches_applied;
  edits_applied += other.edits_applied;
  level_decompositions += other.level_decompositions;
  levels_unchanged += other.levels_unchanged;
  localized_updates += other.localized_updates;
  fallback_repeels += other.fallback_repeels;
  decomposition.visited_vertices += other.decomposition.visited_vertices;
  decomposition.hdegree_computations +=
      other.decomposition.hdegree_computations;
  decomposition.decrement_updates += other.decomposition.decrement_updates;
  decomposition.pops += other.decomposition.pops;
  decomposition.partitions += other.decomposition.partitions;
  decomposition.seconds += other.decomposition.seconds;
  decomposition.bound_seconds += other.decomposition.bound_seconds;
}

// ---------------------------------------------------------------------------
// HCoreSnapshot
// ---------------------------------------------------------------------------

HCoreSnapshot::HCoreSnapshot(std::shared_ptr<const Graph> graph,
                             std::vector<Level> levels, uint64_t epoch)
    : graph_(std::move(graph)),
      levels_(std::move(levels)),
      epoch_(epoch),
      hierarchy_(levels_.size()),
      density_(levels_.size()) {}

const std::vector<uint32_t>& HCoreSnapshot::Cores(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  return *levels_[h - 1].core;
}

uint32_t HCoreSnapshot::CoreOf(VertexId v, int h) const {
  const std::vector<uint32_t>& core = Cores(h);
  HCORE_CHECK(v < core.size());
  return core[v];
}

std::vector<uint32_t> HCoreSnapshot::Spectrum(VertexId v) const {
  std::vector<uint32_t> out;
  out.reserve(levels_.size());
  for (const Level& level : levels_) {
    HCORE_CHECK(v < level.core->size());
    out.push_back((*level.core)[v]);
  }
  return out;
}

uint32_t HCoreSnapshot::Degeneracy(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  return levels_[h - 1].degeneracy;
}

bool HCoreSnapshot::LevelReused(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  return levels_[h - 1].reused;
}

const CoreHierarchy& HCoreSnapshot::Hierarchy(int h) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  MutexLock lock(lazy_mu_);
  std::unique_ptr<CoreHierarchy>& slot = hierarchy_[h - 1];
  if (slot == nullptr) {
    slot = std::make_unique<CoreHierarchy>(
        BuildCoreHierarchy(*graph_, *levels_[h - 1].core));
    lazy_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot;
}

std::vector<VertexId> HCoreSnapshot::CoreComponentOf(VertexId v, uint32_t k,
                                                     int h) const {
  if (v >= graph_->num_vertices() || CoreOf(v, h) < k) return {};
  const CoreHierarchy& tree = Hierarchy(h);
  // node_of[v] sits at level core_h(v) >= k; the component of v in C_k is
  // the subtree of the shallowest ancestor still at level >= k (components
  // only change at levels where the hierarchy has a node).
  uint32_t node = tree.node_of[v];
  while (tree.nodes[node].parent != CoreHierarchyNode::kNoParentSentinel &&
         tree.nodes[tree.nodes[node].parent].level >= k) {
    node = tree.nodes[node].parent;
  }
  return tree.ComponentVertices(node);
}

std::vector<HCoreSnapshot::LevelDensity> HCoreSnapshot::TopDensestLevels(
    int h, size_t top_k) const {
  HCORE_CHECK(h >= 1 && h <= max_h());
  const uint32_t degeneracy = levels_[h - 1].degeneracy;
  const DensityTable* table = nullptr;
  {
    MutexLock lock(lazy_mu_);
    std::unique_ptr<DensityTable>& slot = density_[h - 1];
    if (slot == nullptr) {
      slot = std::make_unique<DensityTable>();
      const std::vector<uint32_t>& core = *levels_[h - 1].core;
      slot->vertices_in_core.assign(degeneracy + 1, 0);
      slot->edges_in_core.assign(degeneracy + 1, 0);
      for (VertexId v = 0; v < core.size(); ++v) {
        ++slot->vertices_in_core[core[v]];
      }
      // An edge {u, v} lives in C_k for every k <= min(core(u), core(v)):
      // bucket by the min, then suffix-sum.
      const Graph& g = *graph_;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
          if (v < u) ++slot->edges_in_core[std::min(core[v], core[u])];
        }
      }
      for (uint32_t k = degeneracy; k > 0; --k) {
        slot->vertices_in_core[k - 1] += slot->vertices_in_core[k];
        slot->edges_in_core[k - 1] += slot->edges_in_core[k];
      }
      lazy_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    table = slot.get();
  }
  // `table` is immutable once built; safe to read outside the lock.
  std::vector<LevelDensity> out;
  out.reserve(degeneracy);
  for (uint32_t k = 1; k <= degeneracy; ++k) {
    LevelDensity d;
    d.k = k;
    d.vertices = table->vertices_in_core[k];
    d.edges = table->edges_in_core[k];
    d.density = d.vertices > 0 ? static_cast<double>(d.edges) / d.vertices : 0;
    out.push_back(d);
  }
  std::sort(out.begin(), out.end(),
            [](const LevelDensity& a, const LevelDensity& b) {
              if (a.density != b.density) return a.density > b.density;
              return a.k > b.k;
            });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

// ---------------------------------------------------------------------------
// HCoreIndex
// ---------------------------------------------------------------------------

HCoreIndex::HCoreIndex(Graph g, const HCoreIndexOptions& options)
    : options_(options) {
  HCORE_CHECK(options_.max_h >= 1);
  // Bound pointers are managed per level by the index; caller-supplied ones
  // would dangle across epochs.
  HCORE_CHECK(options_.base.extra_lower_bound == nullptr);
  HCORE_CHECK(options_.base.extra_upper_bound == nullptr);
  auto graph = std::make_shared<const Graph>(std::move(g));
  // The object is not shared yet, but the analysis (rightly) has no notion
  // of "not shared yet" — hold the locks the accessed members name.
  std::vector<HCoreSnapshot::Level> levels;
  HCoreIndexStats boot;
  {
    MutexLock writer(update_mu_);
    levels = DecomposeAll(*graph, /*prev=*/nullptr, /*pure_insert=*/false,
                          /*pure_delete=*/false, /*effective=*/{}, &boot);
  }
  MutexLock lock(mu_);
  stats_.Add(boot);
  snap_.reset(new HCoreSnapshot(std::move(graph), std::move(levels),
                                /*epoch=*/0));
}

std::shared_ptr<const HCoreSnapshot> HCoreIndex::snapshot() const {
  MutexLock lock(mu_);
  return snap_;
}

std::vector<HCoreSnapshot::Level> HCoreIndex::DecomposeAll(
    const Graph& g, const HCoreSnapshot* prev, bool pure_insert,
    bool pure_delete, std::span<const EdgeEdit> effective,
    HCoreIndexStats* stats) {
  const VertexId n = g.num_vertices();
  // Localized maintenance applies to batches small enough for a joint
  // candidate region (core/incremental.h); each level falls back to the
  // whole-graph warm start independently when its region overflows. Pure
  // batches run the matching single pass; MIXED batches chain the delete
  // cascade and the insert region re-peel through the intermediate graph
  // (prev + deletes) — canonical effective edits are per-edge disjoint, so
  // the sequential composition equals the joint batch.
  const bool try_localized =
      prev != nullptr && !effective.empty() &&
      effective.size() <= options_.localized.max_batch;
  const bool mixed = !pure_insert && !pure_delete;
  Graph g_mid;  // mixed-chain intermediate: prev graph with deletes applied
  std::vector<EdgeEdit> chain_deletes, chain_inserts;
  if (try_localized && mixed) {
    for (const EdgeEdit& e : effective) {
      (e.insert ? chain_inserts : chain_deletes).push_back(e);
    }
    g_mid = prev->graph().ApplyCanonicalEdits(chain_deletes);
  }
  // Resolve the cache-locality relabeling ONCE per epoch — and lazily, on
  // the first level that actually re-peels the whole graph: every level
  // peels the same graph, so per-level resolution (and for kAuto, per-level
  // gap sampling) inside KhCoreDecomposition would redo identical work
  // max_h times, and when every level is served by the localized path the
  // sampling and the O(n + m) relabel never run at all. When a relabel
  // applies, the id round-trip for bounds and results is handled here and
  // the per-level runs peel with kNone. The localized path always works in
  // original ids (its regions are too small for locality to matter).
  bool order_resolved = false;
  std::vector<VertexId> order;
  Graph relabeled;
  const Graph* peel = &g;
  auto resolve_order = [&]() {
    if (order_resolved) return;
    order_resolved = true;
    order = ResolveVertexOrdering(g, options_.base.ordering);
    if (!order.empty()) {
      relabeled = g.Relabeled(order);
      peel = &relabeled;
    }
  };
  std::vector<HCoreSnapshot::Level> levels(options_.max_h);
  const std::vector<uint32_t>* prev_level = nullptr;  // this epoch, h - 1
  std::vector<uint32_t> lower, upper;
  for (int h = 1; h <= options_.max_h; ++h) {
    const std::vector<uint32_t>* old_core =
        prev != nullptr ? prev->levels_[h - 1].core.get() : nullptr;
    std::vector<uint32_t> core;
    uint32_t degeneracy = 0;
    // False only when a localized repair reports no changed vertex, which
    // lets the dirty-flag check below skip the vector comparison.
    bool maybe_changed = true;
    bool localized = false;
    if (try_localized) {
      core = *old_core;
      LocalizedUpdateStats ls;
      if (!mixed) {
        localized = updater_.UpdateLevel(prev->graph(), g, effective,
                                         pure_insert, h, &core,
                                         options_.localized, &ls);
      } else {
        // Mixed chain: deletes against prev -> g_mid, then inserts against
        // g_mid -> g; either phase overflowing rejects the whole attempt
        // and the level falls back warm. Stats accumulate across both
        // phases.
        localized = updater_.UpdateLevel(prev->graph(), g_mid, chain_deletes,
                                         /*inserts=*/false, h, &core,
                                         options_.localized, &ls);
        if (localized) {
          LocalizedUpdateStats insert_ls;
          localized = updater_.UpdateLevel(g_mid, g, chain_inserts,
                                           /*inserts=*/true, h, &core,
                                           options_.localized, &insert_ls);
          ls.Add(insert_ls);
        }
      }
      if (localized) {
        if (stats != nullptr) {
          ++stats->localized_updates;
          stats->decomposition.visited_vertices += ls.visited;
          stats->decomposition.hdegree_computations += ls.hdegree_computations;
          stats->decomposition.decrement_updates += ls.decrement_updates;
        }
        for (const uint32_t c : core) degeneracy = std::max(degeneracy, c);
        // The mixed chain can report phase-local changes that cancel out
        // (demoted by the deletes, restored by the inserts), so a nonzero
        // counter is confirmed by comparing the vectors.
        maybe_changed = ls.changed != 0;
      }
    }
    if (!localized) {
      if (stats != nullptr && prev != nullptr) ++stats->fallback_repeels;
      resolve_order();
      KhCoreOptions opts = options_.base;
      opts.h = h;
      opts.ordering = VertexOrdering::kNone;
      if (h > 1) {
        // Warm start, two sources combined (both in original ids):
        //  * spectrum chain: core_{h-1} of THIS epoch lower-bounds core_h
        //    (monotone in h);
        //  * incremental bounds vs the previous epoch: after a pure-insert
        //    batch old cores are lower bounds, after a pure-delete batch
        //    they are upper bounds (mixed batches get neither).
        lower.assign(n, 0);
        if (prev_level != nullptr) {
          std::copy(prev_level->begin(), prev_level->end(), lower.begin());
        }
        if (pure_insert && old_core != nullptr) {
          const size_t limit = std::min<size_t>(old_core->size(), n);
          for (size_t v = 0; v < limit; ++v) {
            lower[v] = std::max(lower[v], (*old_core)[v]);
          }
        }
        if (!order.empty()) lower = GatherByPermutation(lower, order);
        opts.extra_lower_bound = &lower;
        if (pure_delete && old_core != nullptr) {
          upper = *old_core;  // deletes never grow the vertex set
          if (!order.empty()) upper = GatherByPermutation(upper, order);
          opts.extra_upper_bound = &upper;
          // Only h-LB+UB consumes an upper bound.
          opts.algorithm = KhCoreAlgorithm::kLbUb;
        }
      }
      KhCoreResult r = KhCoreDecomposition(*peel, opts);
      if (!order.empty()) r.core = ScatterByPermutation(r.core, order);
      if (stats != nullptr) {
        ++stats->level_decompositions;
        stats->decomposition.visited_vertices += r.stats.visited_vertices;
        stats->decomposition.hdegree_computations +=
            r.stats.hdegree_computations;
        stats->decomposition.decrement_updates += r.stats.decrement_updates;
        stats->decomposition.pops += r.stats.pops;
        stats->decomposition.partitions += r.stats.partitions;
        stats->decomposition.seconds += r.stats.seconds;
        stats->decomposition.bound_seconds += r.stats.bound_seconds;
      }
      core = std::move(r.core);
      degeneracy = r.degeneracy;
    }
    HCoreSnapshot::Level& level = levels[h - 1];
    level.degeneracy = degeneracy;
    if (old_core != nullptr && core.size() == old_core->size() &&
        (!maybe_changed || core == *old_core)) {
      // Dirty flag stayed clean: share the previous epoch's vector.
      level.core = prev->levels_[h - 1].core;
      level.reused = true;
      if (stats != nullptr) ++stats->levels_unchanged;
    } else {
      level.core =
          std::make_shared<const std::vector<uint32_t>>(std::move(core));
    }
    prev_level = level.core.get();
  }
  return levels;
}

size_t HCoreIndex::ApplyBatch(std::span<const EdgeEdit> edits) {
  MutexLock writer(update_mu_);
  std::shared_ptr<const HCoreSnapshot> prev = snapshot();
  EdgeEditSummary summary;
  std::vector<EdgeEdit> effective =
      prev->graph().CanonicalEffectiveEdits(edits, &summary);
  if (effective.empty()) return 0;
  ApplyPreparedLocked(prev, effective, summary);
  return summary.applied();
}

std::shared_ptr<const HCoreSnapshot> HCoreIndex::ApplyPrepared(
    std::span<const EdgeEdit> effective, const EdgeEditSummary& summary) {
  MutexLock writer(update_mu_);
  return ApplyPreparedLocked(snapshot(), effective, summary);
}

std::shared_ptr<const HCoreSnapshot> HCoreIndex::ApplyPreparedLocked(
    const std::shared_ptr<const HCoreSnapshot>& prev,
    std::span<const EdgeEdit> effective, const EdgeEditSummary& summary) {
  HCORE_CHECK(!effective.empty());
  HCORE_CHECK(summary.applied() == effective.size());

  // The ONE copy-on-write page splice for the whole batch: untouched pages
  // are shared with the previous epoch's graph, touched ones rebuilt.
  Graph next = prev->graph().ApplyCanonicalEdits(effective);

  // Purity is judged on the EFFECTIVE edits: a no-op edit of the opposite
  // kind (e.g. deleting an absent edge) must not disable the warm start.
  const bool pure_insert = summary.deletes == 0;
  const bool pure_delete = summary.inserts == 0;

  HCoreIndexStats delta;
  delta.csr_rebuilds = 1;
  delta.batches_applied = 1;
  delta.edits_applied = summary.applied();
  auto graph = std::make_shared<const Graph>(std::move(next));
  std::vector<HCoreSnapshot::Level> levels = DecomposeAll(
      *graph, prev.get(), pure_insert, pure_delete, effective, &delta);
  std::shared_ptr<const HCoreSnapshot> snap(new HCoreSnapshot(
      std::move(graph), std::move(levels), prev->epoch() + 1));

  MutexLock lock(mu_);
  snap_ = snap;
  stats_.Add(delta);
  return snap;
}

bool HCoreIndex::InsertEdge(VertexId u, VertexId v) {
  const EdgeEdit edit = EdgeEdit::Insert(u, v);
  return ApplyBatch({&edit, 1}) > 0;
}

bool HCoreIndex::DeleteEdge(VertexId u, VertexId v) {
  const EdgeEdit edit = EdgeEdit::Delete(u, v);
  return ApplyBatch({&edit, 1}) > 0;
}

HCoreIndexStats HCoreIndex::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void HCoreIndex::ResetStats() {
  MutexLock lock(mu_);
  stats_ = HCoreIndexStats{};
}

}  // namespace hcore
