#include "core/kh_core.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/bounds.h"
#include "core/classic_core.h"
#include "engine/peeling_engine.h"
#include "engine/vertex_mask.h"
#include "graph/ordering.h"
#include "traversal/bounded_bfs.h"
#include "traversal/h_degree.h"
#include "util/timer.h"

namespace hcore {
namespace {

/// Shared state for the three peeling algorithms, all driven through one
/// PeelingEngine. One Decomposer instance performs one decomposition.
class Decomposer {
 public:
  Decomposer(const Graph& g, const KhCoreOptions& opts)
      : g_(g),
        n_(g.num_vertices()),
        h_(opts.h),
        opts_(opts),
        degrees_(n_, opts.num_threads),
        alive_(n_, true),
        set_lb_(n_, 0),
        assigned_(n_, 0),
        engine_(g, opts.h, &alive_, &degrees_, n_ > 0 ? n_ : 1),
        peeler_(&degrees_),
        // h > 1 rounds recompute h-degrees by BFS — orders of magnitude
        // more work per vertex than the h = 1 counter rounds the kAuto
        // floor was calibrated on — so the fan-out amortizes much sooner.
        // The h-aware gate also applies the h = 2 work-parity rule (see
        // UseParallelPeelForH).
        use_parallel_(UseParallelPeelForH(
            opts.parallel, opts.num_threads, opts.h, n_,
            std::max<uint64_t>(1, opts.parallel_min_vertices / 8),
            g.num_edges())) {
    result_.core.assign(n_, 0);
    result_.h = h_;
  }

  KhCoreResult Run(KhCoreAlgorithm algorithm) {
    // One Decomposer performs one decomposition, driven end-to-end by the
    // calling thread — it coordinates the computer and the peeler.
    degrees_.coordinator().Assume();
    peeler_.coordinator().Assume();
    WallTimer timer;
    switch (algorithm) {
      case KhCoreAlgorithm::kBz:
        RunBz();
        break;
      case KhCoreAlgorithm::kLb:
        if (opts_.lower_bound == LowerBoundMode::kNone &&
            opts_.extra_lower_bound == nullptr) {
          // "No lower bound" degenerates to the baseline (Table 5).
          RunBz();
        } else {
          RunLb();
        }
        break;
      case KhCoreAlgorithm::kLbUb:
        RunLbUb();
        break;
      case KhCoreAlgorithm::kAuto:
        HCORE_CHECK(false);  // resolved by the caller
    }
    result_.stats.visited_vertices = degrees_.total_visited();
    result_.stats.hdegree_computations = engine_.stats().hdegree_computations;
    result_.stats.decrement_updates = engine_.stats().decrement_updates;
    result_.stats.pops = engine_.stats().pops;
    result_.stats.seconds = timer.ElapsedSeconds();
    uint32_t degeneracy = 0;
    for (uint32_t c : result_.core) degeneracy = std::max(degeneracy, c);
    result_.degeneracy = degeneracy;
    return std::move(result_);
  }

 private:
  // -------------------------------------------------------------------
  // Algorithm 1: h-BZ. Peel in h-degree order; every surviving vertex of a
  // removed vertex's h-neighborhood gets a full h-degree recomputation.
  // -------------------------------------------------------------------
  struct BzPolicy : PeelPolicyBase {
    explicit BzPolicy(Decomposer* d) : d(d) {}

    bool OnPop(VertexId v, uint32_t k) {
      d->result_.core[v] = k;
      d->assigned_[v] = 1;
      return true;
    }
    // OnNeighbor: default kRecompute for every surviving neighbor. The
    // engine's pinned-bucket skip reproduces the correctness argument of
    // Algorithm 1 ("future removals maintain u in B[k]").

    Decomposer* d;
  };

  void RunBz() {
    if (use_parallel_) {
      // Round-synchronous peel with eager exact keys: the parallel twin of
      // Algorithm 1 (the pinned-bucket skip becomes the queued-claim skip).
      degrees_.coordinator().Assume();  // Run()'s driver thread
      peeler_.coordinator().Assume();
      degrees_.ComputeAllAlive(g_, alive_, h_, &engine_.keys());
      engine_.stats().hdegree_computations += n_;
      peeler_.Peel(g_, h_, &alive_, AllVertices(), &engine_.keys(),
                   /*lazy=*/nullptr, 0, n_, &engine_.stats(),
                   [this](VertexId v, uint32_t k) {
                     result_.core[v] = k;
                     assigned_[v] = 1;
                   });
      return;
    }
    engine_.SeedAliveWithHDegrees();
    BzPolicy policy(this);
    engine_.Peel(0, n_, policy);
  }

  // -------------------------------------------------------------------
  // Algorithm 3: the shared peeling loop of h-LB and h-LB+UB. Bucket keys
  // start as lower bounds (set_lb_ marks them lazy); the true h-degree is
  // materialized on first pop. Neighbors at full distance h take an exact
  // unit decrement; closer ones are recomputed in (parallel) batches.
  // -------------------------------------------------------------------
  struct LazyLbPolicy : PeelPolicyBase {
    LazyLbPolicy(Decomposer* d, uint32_t k_min) : d(d), k_min(k_min) {}

    bool OnPop(VertexId v, uint32_t k) {
      if (d->set_lb_[v]) {
        // First pop: the bucket held only a lower bound. Compute the true
        // h-degree w.r.t. the current alive set and re-queue. The policy
        // runs inline in the engine's single-threaded loop, so the popping
        // thread is the computer's coordinator.
        d->degrees_.coordinator().Assume();
        const uint32_t hd = d->degrees_.Compute(d->g_, d->alive_, v, d->h_);
        ++d->engine_.stats().hdegree_computations;
        d->engine_.Requeue(v, hd, k);
        d->set_lb_[v] = 0;
        return false;
      }
      if (k >= k_min && !d->assigned_[v]) {
        d->result_.core[v] = k;
        d->assigned_[v] = 1;
      }
      d->set_lb_[v] = 1;  // any stored h-degree becomes stale once v dies
      return true;
    }

    PeelAction OnNeighbor(VertexId u, int dist, uint32_t) {
      if (d->set_lb_[u]) return PeelAction::kSkip;  // key is a lower bound
      // dist == h: removing the popped vertex eliminates exactly itself
      // from u's h-neighborhood (any path through it now exceeds h), so a
      // unit decrement is exact (Algorithm 3, line 17).
      return dist < d->h_ ? PeelAction::kRecompute : PeelAction::kDecrement;
    }

    Decomposer* d;
    uint32_t k_min;
  };

  void CoreDecomp(uint32_t k_min, uint32_t k_max) {
    LazyLbPolicy policy(this, k_min);
    engine_.Peel(k_min, k_max, policy);
  }

  // -------------------------------------------------------------------
  // Algorithms 2+3: h-LB. Vertices start at their lower bound with lazy
  // h-degrees.
  // -------------------------------------------------------------------
  void RunLb() {
    WallTimer bound_timer;
    std::vector<uint32_t> lb = ComputeLowerBound();
    result_.stats.bound_seconds += bound_timer.ElapsedSeconds();
    if (use_parallel_) {
      // Every key starts as a lazy lower bound; the parallel peel
      // materializes them in per-round batches instead of pop-requeue.
      std::vector<uint32_t>& keys = engine_.keys();
      for (VertexId v = 0; v < n_; ++v) {
        set_lb_[v] = 1;
        keys[v] = lb[v];
      }
      peeler_.coordinator().Assume();  // Run()'s driver thread
      peeler_.Peel(g_, h_, &alive_, AllVertices(), &keys, &set_lb_, 0, n_,
                   &engine_.stats(), [this](VertexId v, uint32_t k) {
                     if (!assigned_[v]) {
                       result_.core[v] = k;
                       assigned_[v] = 1;
                     }
                   });
      return;
    }
    for (VertexId v = 0; v < n_; ++v) {
      set_lb_[v] = 1;
      engine_.Seed(v, lb[v]);
    }
    CoreDecomp(/*k_min=*/0, /*k_max=*/n_);
  }

  // -------------------------------------------------------------------
  // Algorithms 4+5+6: h-LB+UB. Partition the upper-bound codomain and peel
  // top-down; each partition is cleaned by ImproveLB first.
  // -------------------------------------------------------------------
  void RunLbUb() {
    if (n_ == 0) return;
    WallTimer bound_timer;
    // Lines 3-5 of Algorithm 4: full h-degrees and lower bounds.
    degrees_.coordinator().Assume();  // Run()'s driver thread
    std::vector<uint32_t> hdeg(n_, 0);
    degrees_.ComputeAllAlive(g_, alive_, h_, &hdeg);
    engine_.stats().hdegree_computations += n_;
    std::vector<uint32_t> lb = ComputeLowerBound();
    std::vector<uint32_t> ub;
    if (opts_.extra_upper_bound != nullptr) {
      HCORE_CHECK(opts_.extra_upper_bound->size() == n_);
      ub = *opts_.extra_upper_bound;
      // The h-degree is always a valid upper bound too; take the tighter.
      for (VertexId v = 0; v < n_; ++v) ub[v] = std::min(ub[v], hdeg[v]);
    } else if (opts_.upper_bound == UpperBoundMode::kPowerGraph) {
      ub = ComputePowerGraphUpperBound(g_, h_, hdeg, &degrees_);
    } else {
      ub = hdeg;
    }
    result_.stats.bound_seconds += bound_timer.ElapsedSeconds();

    // Ordered codomain of UB, descending (line 8-10).
    std::vector<uint32_t> codomain(ub.begin(), ub.end());
    std::sort(codomain.begin(), codomain.end(), std::greater<uint32_t>());
    codomain.erase(std::unique(codomain.begin(), codomain.end()),
                   codomain.end());

    uint32_t lb0 = lb[0];
    for (uint32_t x : lb) lb0 = std::min(lb0, x);

    uint32_t step = static_cast<uint32_t>(opts_.partition_size);
    if (step == 0) {
      step = std::max<uint32_t>(
          1, static_cast<uint32_t>(codomain.size()) / 16);
    }

    // Line 11: intervals of `step` contiguous upper-bound values, visited
    // top-down. The floor of the last interval is the global minimum lower
    // bound lb0 (the paper appends min LB2 - 1 to U; equivalent). k_min
    // strictly decreases, so the candidate sets V[k_min] only grow, and
    // cand_hdeg carries every candidate's exact h-degree in G[V[k_min]]
    // from one partition to the next.
    std::vector<uint32_t> cand_hdeg(n_, 0);
    uint32_t k_prev = std::numeric_limits<uint32_t>::max();  // V[k_prev] = {}
    for (size_t i = 0; i < codomain.size(); i += step) {
      const uint32_t k_max = codomain[i];
      const uint32_t k_min = (i + step < codomain.size())
                                 ? codomain[i + step] + 1
                                 : std::min(lb0, codomain.back());
      ProcessPartition(k_min, k_max, k_prev, lb, ub, &cand_hdeg);
      k_prev = k_min;
      if (k_min == 0) break;  // everything is assigned
    }
  }

  void ProcessPartition(uint32_t k_min, uint32_t k_max, uint32_t k_prev,
                        const std::vector<uint32_t>& lb,
                        const std::vector<uint32_t>& ub,
                        std::vector<uint32_t>* cand_hdeg) {
    ++result_.stats.partitions;
    // Line 12: V[k_min] = {v : UB(v) >= k_min}. This resurrects vertices
    // peeled by earlier (higher) partitions. The O(1) epoch reset makes the
    // per-partition view swap free of buffer refills.
    alive_.ResetAllDead();
    std::vector<VertexId> added;  // V[k_min] \ V[k_prev]
    for (VertexId v = 0; v < n_; ++v) {
      if (ub[v] < k_min) continue;
      alive_.Revive(v);
      if (ub[v] < k_prev) added.push_back(v);
    }
    if (alive_.num_alive() == 0) return;

    // Exact h-degrees in G[V[k_min]]: BFS only around the added vertices.
    engine_.stats().hdegree_computations +=
        CarryHDegrees(g_, h_, alive_, added, cand_hdeg, &degrees_);

    // Line 13-14: ImproveLB cleans V[k_min] and lifts the lower bound
    // (Property 3). Vertices already assigned in higher partitions are
    // never cleaned: their true h-degree in V[k_min] is >= their core
    // index >= k_min (Observation 3).
    ImproveLbResult improved =
        ImproveLB(g_, h_, k_min, &alive_, *cand_hdeg, lb, &degrees_);

    // Lines 15-17: re-bucket every surviving candidate lazily.
    const uint32_t floor_key = (k_min == 0) ? 0 : k_min - 1;
    if (use_parallel_) {
      // Same lazy seeding, but into the key array alone — the parallel
      // window peel never touches the bucket queue (the per-run decision in
      // the constructor keeps the two loop kinds from ever mixing; a
      // partition switching modes would inherit stale queue entries).
      std::vector<uint32_t>& keys = engine_.keys();
      alive_.ForEachAlive([&](VertexId v) {
        uint32_t key = std::max(improved.lb3[v], floor_key);
        if (assigned_[v]) key = std::max(key, result_.core[v]);
        set_lb_[v] = 1;
        keys[v] = key;
      });
      const std::vector<VertexId> window = alive_.AliveVertices();
      peeler_.coordinator().Assume();  // Run()'s driver thread
      peeler_.Peel(g_, h_, &alive_, window, &keys, &set_lb_, k_min, k_max,
                   &engine_.stats(), [this, k_min](VertexId v, uint32_t k) {
                     if (k >= k_min && !assigned_[v]) {
                       result_.core[v] = k;
                       assigned_[v] = 1;
                     }
                     set_lb_[v] = 1;  // stored degree is stale once v dies
                   });
      return;
    }
    alive_.ForEachAlive([&](VertexId v) {
      uint32_t key = std::max(improved.lb3[v], floor_key);
      if (assigned_[v]) key = std::max(key, result_.core[v]);
      set_lb_[v] = 1;
      engine_.SeedOrMove(v, key);
    });
    CoreDecomp(k_min, k_max);
  }

  /// Identity vertex list for full-graph parallel peels (built once).
  const std::vector<VertexId>& AllVertices() {
    if (all_vertices_.size() != n_) {
      all_vertices_.resize(n_);
      for (VertexId v = 0; v < n_; ++v) all_vertices_[v] = v;
    }
    return all_vertices_;
  }

  /// LB1 or LB2 per options (h-LB/h-LB+UB precomputation), combined with
  /// any caller-provided external lower bound.
  std::vector<uint32_t> ComputeLowerBound() {
    std::vector<uint32_t> lb;
    switch (opts_.lower_bound) {
      case LowerBoundMode::kNone:
        lb.assign(n_, 0);
        break;
      case LowerBoundMode::kLb1:
        lb = ComputeLB1(g_, h_, &degrees_);
        break;
      case LowerBoundMode::kLb2: {
        std::vector<uint32_t> lb1 = ComputeLB1(g_, h_, &degrees_);
        lb = ComputeLB2(g_, h_, lb1, &degrees_);
        break;
      }
    }
    if (opts_.extra_lower_bound != nullptr) {
      const auto& extra = *opts_.extra_lower_bound;
      HCORE_CHECK(extra.size() == n_);
      for (VertexId v = 0; v < n_; ++v) lb[v] = std::max(lb[v], extra[v]);
    }
    return lb;
  }

  const Graph& g_;
  const VertexId n_;
  const int h_;
  const KhCoreOptions& opts_;
  HDegreeComputer degrees_;
  VertexMask alive_;
  std::vector<uint8_t> set_lb_;
  std::vector<uint8_t> assigned_;
  PeelingEngine engine_;
  ParallelPeeler peeler_;
  const bool use_parallel_;  // decided once per run; loop kinds never mix
  std::vector<VertexId> all_vertices_;
  KhCoreResult result_;
};

KhCoreAlgorithm ResolveAlgorithm(const KhCoreOptions& opts) {
  if (opts.algorithm != KhCoreAlgorithm::kAuto) return opts.algorithm;
  // §6.2: h-LB tends to win for h = 2 and on sparse graphs; h-LB+UB wins
  // for h >= 3 where inner-core vertices have huge h-neighborhoods.
  return opts.h >= 3 ? KhCoreAlgorithm::kLbUb : KhCoreAlgorithm::kLb;
}

}  // namespace

std::vector<VertexId> ResolveVertexOrdering(const Graph& g,
                                            VertexOrdering ordering) {
  switch (ordering) {
    case VertexOrdering::kNone:
      return {};
    case VertexOrdering::kAuto:
      // The per-component mean |v - u| id gap over ~1k sampled vertices
      // separates the two regimes cleanly (see VertexOrdering and
      // MeanNeighborGapFraction for the measured numbers and why the score
      // is per component): locality-preserving orders score well under 0.1,
      // scrambled ids ~1/3. Relabel only when scrambled.
      return MeanNeighborGapFraction(g) > 0.15 ? BfsOrder(g)
                                               : std::vector<VertexId>{};
    case VertexOrdering::kDegreeDescending:
      return DegreeDescendingOrder(g);
    case VertexOrdering::kBfs:
      return BfsOrder(g);
  }
  return {};
}

uint32_t KhCoreResult::NumDistinctCores() const {
  std::unordered_set<uint32_t> values(core.begin(), core.end());
  return static_cast<uint32_t>(values.size());
}

std::vector<VertexId> CoreVerticesAtLevel(const std::vector<uint32_t>& core,
                                          uint32_t k) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < core.size(); ++v) {
    if (core[v] >= k) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> KhCoreResult::CoreVertices(uint32_t k) const {
  return CoreVerticesAtLevel(core, k);
}

std::vector<uint32_t> KhCoreResult::CoreSizes() const {
  std::vector<uint32_t> sizes(degeneracy + 1, 0);
  for (uint32_t c : core) ++sizes[std::min(c, degeneracy)];
  // Suffix-sum: sizes[k] = |{v : core(v) >= k}|.
  for (uint32_t k = degeneracy; k > 0; --k) sizes[k - 1] += sizes[k];
  return sizes;
}

KhCoreResult KhCoreDecomposition(const Graph& g, const KhCoreOptions& options) {
  HCORE_CHECK(options.h >= 1);
  HCORE_CHECK(options.partition_size >= 0);
  HCORE_CHECK(options.num_threads >= 0);
  if (options.h == 1) {
    // Classic core decomposition: the (k,1)-core is the k-core. Large
    // graphs with threads take the atomic-counter parallel peel; both
    // paths produce byte-identical cores.
    WallTimer timer;
    KhCoreResult out;
    out.h = 1;
    if (UseParallelPeel(options.parallel, options.num_threads,
                        g.num_vertices(), options.parallel_min_vertices,
                        g.num_edges())) {
      out.degeneracy =
          ParallelClassicCore(g, options.num_threads, &out.core, nullptr);
    } else {
      ClassicCoreResult classic = ClassicCoreDecomposition(g);
      out.core = std::move(classic.core);
      out.degeneracy = classic.degeneracy;
    }
    out.stats.seconds = timer.ElapsedSeconds();
    return out;
  }

  // Cache-locality pass: peel a relabeled copy so the hot h-bounded BFS
  // walks near-sequential memory; the id round-trip happens here, once,
  // instead of in every caller.
  WallTimer timer;
  const std::vector<VertexId> order =
      ResolveVertexOrdering(g, options.ordering);
  if (order.empty()) {
    Decomposer decomposer(g, options);
    return decomposer.Run(ResolveAlgorithm(options));
  }

  const Graph relabeled = g.Relabeled(order);
  KhCoreOptions relabeled_opts = options;
  // Caller-provided per-vertex bounds are in old ids; permute copies.
  std::vector<uint32_t> lb_perm, ub_perm;
  if (options.extra_lower_bound != nullptr) {
    HCORE_CHECK(options.extra_lower_bound->size() == g.num_vertices());
    lb_perm = GatherByPermutation(*options.extra_lower_bound, order);
    relabeled_opts.extra_lower_bound = &lb_perm;
  }
  if (options.extra_upper_bound != nullptr) {
    HCORE_CHECK(options.extra_upper_bound->size() == g.num_vertices());
    ub_perm = GatherByPermutation(*options.extra_upper_bound, order);
    relabeled_opts.extra_upper_bound = &ub_perm;
  }

  Decomposer decomposer(relabeled, relabeled_opts);
  KhCoreResult result = decomposer.Run(ResolveAlgorithm(relabeled_opts));
  result.core = ScatterByPermutation(result.core, order);
  result.stats.seconds = timer.ElapsedSeconds();  // include ordering cost
  return result;
}

std::vector<uint32_t> BruteForceKhCore(const Graph& g, int h) {
  HCORE_CHECK(h >= 1);
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> core(n, 0);
  VertexMask alive(n, true);
  BoundedBfs bfs(n);
  for (uint32_t k = 1; alive.num_alive() > 0; ++k) {
    // Shrink to the (k,h)-core: repeatedly delete every vertex whose
    // h-degree (recomputed from scratch) is < k.
    bool changed = true;
    while (changed && alive.num_alive() > 0) {
      changed = false;
      std::vector<VertexId> to_remove;
      alive.ForEachAlive([&](VertexId v) {
        if (bfs.HDegree(g, alive, v, h) < k) to_remove.push_back(v);
      });
      for (VertexId v : to_remove) {
        alive.Kill(v);
        changed = true;
      }
    }
    alive.ForEachAlive([&](VertexId v) { core[v] = k; });
  }
  return core;
}

std::string ToString(KhCoreAlgorithm algorithm) {
  switch (algorithm) {
    case KhCoreAlgorithm::kAuto:
      return "auto";
    case KhCoreAlgorithm::kBz:
      return "h-BZ";
    case KhCoreAlgorithm::kLb:
      return "h-LB";
    case KhCoreAlgorithm::kLbUb:
      return "h-LB+UB";
  }
  return "?";
}

}  // namespace hcore
