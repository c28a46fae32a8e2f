#include "core/incremental.h"

#include <algorithm>
#include <utility>

#include "engine/peeling_engine.h"

namespace hcore {
namespace {

/// Engine policy for the localized region peel. Region vertices behave like
/// a plain eager peel (assign the bucket on pop; neighbors at full distance
/// h take the exact unit decrement, closer ones a batched recomputation).
/// Pinned boundary vertices are scheduled removals: popped at their old
/// core index, never reassigned, never updated as neighbors.
struct LocalizedPolicy : PeelPolicyBase {
  LocalizedPolicy(const std::vector<uint8_t>& pinned,
                  std::vector<uint32_t>* core, int h)
      : pinned(pinned), core(core), h(h) {}

  bool OnPop(VertexId v, uint32_t k) {
    if (pinned[v]) {
      // Region soundness: a pinned vertex keeps its old index, so its
      // seeded bucket is exactly where the true peel removes it.
      HCORE_DCHECK(k == (*core)[v]);
      return true;
    }
    (*core)[v] = k;
    return true;
  }

  PeelAction OnNeighbor(VertexId u, int dist, uint32_t) {
    if (pinned[u]) return PeelAction::kSkip;
    return dist < h ? PeelAction::kRecompute : PeelAction::kDecrement;
  }

  const std::vector<uint8_t>& pinned;
  std::vector<uint32_t>* core;
  int h;
};

}  // namespace

void LocalizedUpdateStats::Add(const LocalizedUpdateStats& other) {
  region += other.region;
  boundary += other.boundary;
  changed += other.changed;
  escalations += other.escalations;
  visited += other.visited;
  hdegree_computations += other.hdegree_computations;
  decrement_updates += other.decrement_updates;
}

/// Subgraph view for the delete cascade's violation test: the level set
/// {u : cur(u) >= level} (see the strategy comment in incremental.h).
struct LevelMask {
  const std::vector<uint32_t>* cur;
  uint32_t level;

  VertexId size() const { return static_cast<VertexId>(cur->size()); }
  bool IsAlive(VertexId v) const { return (*cur)[v] >= level; }
};

bool LocalizedUpdater::UpdateLevel(const Graph& g_before, const Graph& g_after,
                                   std::span<const EdgeEdit> effective,
                                   bool inserts, int h,
                                   std::vector<uint32_t>* core,
                                   const LocalizedUpdateOptions& options,
                                   LocalizedUpdateStats* stats) {
  HCORE_CHECK(h >= 1);
  HCORE_CHECK(core->size() == g_before.num_vertices());
  LocalizedUpdateStats local;
  bool ok = false;
  if (!effective.empty()) {
    // Deletions never shrink the vertex set; insertions may grow it, and
    // the newcomers' pre-edit core index is 0 (they did not exist).
    // `base_core_` keeps the pristine resized old cores; `next_core_`
    // receives the result.
    base_core_ = *core;
    base_core_.resize(g_after.num_vertices(), 0);
    ok = inserts ? InsertUpdate(g_after, effective, h, base_core_, options,
                                &local)
                 : DeleteCascade(g_before, g_after, effective, h, options,
                                 &local);
    if (ok) {
      for (VertexId v = 0; v < next_core_.size(); ++v) {
        const uint32_t old = v < core->size() ? (*core)[v] : 0;
        if (next_core_[v] != old) ++local.changed;
      }
      *core = std::move(next_core_);
    }
  }
  if (stats != nullptr) *stats = local;
  return ok;
}

bool LocalizedUpdater::InsertUpdate(const Graph& g_after,
                                    std::span<const EdgeEdit> effective,
                                    int h,
                                    const std::vector<uint32_t>& old_core,
                                    const LocalizedUpdateOptions& options,
                                    LocalizedUpdateStats* local) {
  const VertexId n = g_after.num_vertices();
  // TRIAL bound, starting one above the classic-subcore level K0 =
  // min(old_core(u), old_core(v)): the region covers every possible change
  // below the bound, and the peel is exact there (pinned vertices, old core
  // >= bound <= their true core, stay alive through every sub-bound bucket
  // exactly like the true peel). The trial is certified when the computed
  // min endpoint core of every edit stays below the bound — no deeper level
  // can then have changed — and escalates geometrically otherwise.
  uint32_t bound = 0;
  for (const EdgeEdit& e : effective) {
    bound = std::max(bound, std::min(old_core[e.u], old_core[e.v]));
  }
  bound += 1;

  // The updater processes one batch at a time, driven end-to-end by the
  // calling thread — it coordinates the computer.
  degrees_.coordinator().Assume();
  degrees_.EnsureCapacity(n);
  if (pinned_.size() < n) pinned_.resize(n, 0);

  // Escalated trials gate admissions on h-degree: the failed trial was
  // exact below its bound, so the only new changes live at levels >= it,
  // and a vertex reaching such a level needs an h-degree that high.
  uint32_t hdeg_gate = 0;
  for (;;) {
    // Insertions shrink distances, so the post-edit graph hosts the chains.
    CandidateRegion cr =
        finder_.Find(g_after, effective, h, old_core, bound,
                     /*strict=*/true, hdeg_gate, options.MaxRegion(n));
    local->visited += cr.visited;
    local->region = cr.region.size();
    local->boundary = cr.boundary.size();
    if (cr.overflow) return false;
    if (cr.region.empty()) {
      // No seed passed the filter: nothing can change at any covered level
      // and no endpoint core can rise. Accept.
      next_core_ = old_core;
      return true;
    }

    next_core_ = old_core;
    const uint64_t degree_visits_before = degrees_.total_visited();
    mask_.Assign(n, false);
    for (const VertexId v : cr.region) mask_.Revive(v);
    for (const VertexId v : cr.boundary) mask_.Revive(v);
    for (const VertexId v : cr.boundary) pinned_[v] = 1;

    PeelingEngine engine(g_after, h, &mask_, &degrees_, n);
    LocalizedPolicy policy(pinned_, &next_core_, h);
    engine.PeelRegion(cr.region, cr.boundary, next_core_, policy);

    for (const VertexId v : cr.boundary) pinned_[v] = 0;
    local->visited += degrees_.total_visited() - degree_visits_before;
    local->hdegree_computations += engine.stats().hdegree_computations;
    local->decrement_updates += engine.stats().decrement_updates;

    // Certificate check (pinned endpoints report their old core, which is
    // exactly what the min compares against).
    uint32_t reached = 0;
    for (const EdgeEdit& e : effective) {
      reached = std::max(reached, std::min(next_core_[e.u], next_core_[e.v]));
    }
    if (reached < bound) return true;
    ++local->escalations;
    hdeg_gate = bound;
    bound = std::max(bound + 1, 2 * reached);
  }
}

bool LocalizedUpdater::DeleteCascade(const Graph& g_before,
                                     const Graph& g_after,
                                     std::span<const EdgeEdit> effective,
                                     int h,
                                     const LocalizedUpdateOptions& options,
                                     LocalizedUpdateStats* local) {
  const VertexId n = g_after.num_vertices();
  next_core_ = base_core_;
  if (pinned_.size() < n) pinned_.resize(n, 0);  // doubles as in-worklist
  mask_.Assign(n, true);

  // Work caps: the cascade degenerates to the warm fallback rather than
  // grinding through a graph-wide demotion wave.
  const size_t max_changed = options.MaxRegion(n);
  const size_t max_rechecks = 256 + 8 * max_changed;
  size_t rechecks = 0;
  size_t changed = 0;
  const uint64_t visited_before = cascade_bfs_.total_visited();

  worklist_.clear();
  auto enqueue = [&](VertexId v) {
    if (pinned_[v] || next_core_[v] == 0) return;
    pinned_[v] = 1;
    worklist_.push_back(v);
  };

  // Seeds: only vertices within distance h-1 of a deleted endpoint (in the
  // PRE-edit graph) can have lost h-neighbors or h-paths.
  for (const EdgeEdit& e : effective) {
    HCORE_DCHECK(!e.insert);
    for (const VertexId s : {e.u, e.v}) {
      enqueue(s);
      cascade_bfs_.Run(g_before, mask_, s, h - 1,
                       [&](VertexId x, int) { enqueue(x); });
    }
  }

  bool capped = false;
  while (!worklist_.empty() && !capped) {
    const VertexId v = worklist_.back();
    worklist_.pop_back();
    pinned_[v] = 0;
    const uint32_t level = next_core_[v];
    if (level == 0) continue;
    if (++rechecks > max_rechecks) {
      capped = true;
      break;
    }
    const LevelMask support{&next_core_, level};
    ++local->hdegree_computations;
    if (cascade_bfs_.HDegree(g_after, support, v, h) >= level) continue;

    // Violated: v drops one level. Level-mates within distance h may have
    // lost v (or a path through it) from their support — recheck them, and
    // v itself at its looser mask.
    if (next_core_[v] == base_core_[v]) {
      if (++changed > max_changed) {
        capped = true;
        break;
      }
    }
    next_core_[v] = level - 1;
    enqueue(v);
    cascade_bfs_.Run(g_after, mask_, v, h, [&](VertexId x, int) {
      if (next_core_[x] == level) enqueue(x);
    });
  }
  local->visited += cascade_bfs_.total_visited() - visited_before;
  local->region = changed;
  for (const VertexId v : worklist_) pinned_[v] = 0;
  worklist_.clear();
  return !capped;
}

}  // namespace hcore
