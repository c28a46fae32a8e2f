// Distance-generalized (k,h)-core decomposition (the paper's §4).
//
// Three exact algorithms are provided:
//   * h-BZ     (Algorithm 1)  — generalized Batagelj–Zaveršnik peeling;
//   * h-LB     (Algorithms 2+3) — peeling with lazy h-degrees seeded by the
//                LB2 lower bound;
//   * h-LB+UB  (Algorithms 4+5+6) — partitioned top-down peeling driven by
//                the power-graph upper bound, with ImproveLB cleaning. The
//                candidate sets V[k_min] only grow from one partition to
//                the next, so their exact h-degrees are carried across
//                partitions and re-run by BFS only within distance h of the
//                vertices each partition adds (CarryHDegrees, core/bounds.h).
//
// All three produce identical core indexes; they differ only in how many
// h-bounded BFS traversals they perform (Table 3 of the paper). All three
// are driven through the shared PeelingEngine (engine/peeling_engine.h);
// this module contributes only the policies (what a pop assigns, when a
// neighbor takes a unit decrement vs a recomputation) and the h-LB+UB
// partition schedule.

#ifndef HCORE_CORE_KH_CORE_H_
#define HCORE_CORE_KH_CORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/parallel_peel.h"
#include "graph/graph.h"

namespace hcore {

/// Which decomposition algorithm to run.
enum class KhCoreAlgorithm {
  /// h-LB+UB for h >= 3 or dense graphs, h-LB otherwise (mirrors the
  /// paper's empirical guidance in §6.2).
  kAuto,
  kBz,    ///< Algorithm 1 (baseline).
  kLb,    ///< Algorithms 2+3.
  kLbUb,  ///< Algorithms 4+5+6.
};

/// Lower-bound ablation (Table 5, left). kLb2 is the paper's default.
enum class LowerBoundMode {
  kNone,  ///< No lower bound: h-LB degenerates to h-BZ behaviour.
  kLb1,   ///< Observation 1 only.
  kLb2,   ///< Observations 1+2 (default).
};

/// Upper-bound ablation for h-LB+UB (Table 5, right). kPowerGraph is the
/// paper's default.
enum class UpperBoundMode {
  kHDegree,     ///< Plain h-degree as the upper bound.
  kPowerGraph,  ///< Algorithm 5 (implicit power-graph peeling).
};

/// Vertex relabeling applied before peeling (cache-locality pass). The
/// decomposition runs on a relabeled copy whose hot h-bounded BFS walks
/// near-sequential memory, and core indexes are mapped back to the caller's
/// ids by the engine — results are identical for every mode.
enum class VertexOrdering {
  kNone,              ///< Peel the graph as given.
  /// Locality heuristic: relabel by kBfs iff the mean |v - neighbor| id gap
  /// over ~1k sampled vertices exceeds 0.15 * n. Measured at h = 2 on
  /// 300k-500k vertex graphs: locality-preserving inputs score a gap
  /// fraction <= 0.034 and BFS relabeling there costs 24-53% (road 1.24x,
  /// Watts-Strogatz 1.53x slower) — kAuto keeps them unrelabeled; scrambled
  /// ids score ~0.33 and relabeling saves 11-49% (scrambled road 0.51x,
  /// WS 0.82x, BA 0.89x total time incl. the relabel) — kAuto relabels. The
  /// one high-gap case that does not benefit (BA generator order, hubs
  /// first) loses only ~1%.
  kAuto,
  kDegreeDescending,  ///< Hubs first: the inner cores become id-contiguous.
  kBfs,               ///< BFS order: neighborhoods become index-local.
                      ///< ~30% faster peels when input ids are scrambled.
};

/// Options for KhCoreDecomposition.
struct KhCoreOptions {
  /// Distance threshold h >= 1. h = 1 routes to the classic linear-time
  /// algorithm regardless of `algorithm`.
  int h = 2;
  KhCoreAlgorithm algorithm = KhCoreAlgorithm::kAuto;
  /// Partition width S for h-LB+UB (number of distinct upper-bound values
  /// per partition, paper §4.3). 0 selects an automatic width that targets
  /// roughly 16 partitions; otherwise must be >= 1.
  int partition_size = 0;
  /// Worker threads for h-degree batches (§4.6). 1 = sequential.
  int num_threads = 1;
  /// Round-synchronous parallel peel (engine/parallel_peel.h). kAuto runs
  /// it when num_threads >= 2 and the graph clears `parallel_min_vertices`
  /// (scaled by the thread count); kOff keeps the sequential bucket loop.
  /// The decision is made once per decomposition — the parallel peel
  /// bypasses the bucket queue, so runs never mix loop kinds mid-way.
  /// Cores are identical in every mode.
  ParallelPeelMode parallel = ParallelPeelMode::kAuto;
  /// kAuto size floor for `parallel` (vertices in the peel). For h > 1
  /// the effective floor is this value / 8: those rounds recompute
  /// h-degrees by BFS, so the fan-out amortizes at much smaller peels.
  /// kAuto also declines sparse graphs (average degree below
  /// kParallelPeelAutoMinAvgDegree) whose thin frontiers lose to the
  /// per-round barrier, and h = 2 peels on machines without at least two
  /// hardware threads (work parity with the sequential engine — see
  /// UseParallelPeelForH).
  uint64_t parallel_min_vertices = kParallelPeelAutoMinVertices;
  LowerBoundMode lower_bound = LowerBoundMode::kLb2;
  UpperBoundMode upper_bound = UpperBoundMode::kPowerGraph;
  /// Cache-locality relabeling (see VertexOrdering). Does not change the
  /// result, only the memory-access order of the peel.
  VertexOrdering ordering = VertexOrdering::kAuto;
  /// Optional externally-known per-vertex lower bound on the core index
  /// (e.g. the core index at a smaller h — see core/spectrum.h). Must have
  /// one entry per vertex and satisfy extra[v] <= core_h(v); combined with
  /// the configured LowerBoundMode by taking the maximum. Not owned.
  const std::vector<uint32_t>* extra_lower_bound = nullptr;
  /// Optional externally-known per-vertex upper bound on the core index
  /// (e.g. the pre-deletion core index — see index/hcore_index.h). Must
  /// satisfy extra[v] >= core_h(v). When set, h-LB+UB uses it instead of
  /// running Algorithm 5 (the caller's bound is assumed tighter/cheaper);
  /// other algorithms ignore it. Not owned.
  const std::vector<uint32_t>* extra_upper_bound = nullptr;
};

/// Cost counters for one decomposition run.
struct KhCoreStats {
  /// Total vertices visited over all h-bounded BFS traversals — the paper's
  /// "number of computed point-to-point distances" (Table 3).
  uint64_t visited_vertices = 0;
  /// Number of full h-degree recomputations (BFS runs). For h-LB+UB this
  /// includes the BFSs each partition's h-degree carry runs: one per added
  /// candidate and one per recomputed member of their h-balls.
  uint64_t hdegree_computations = 0;
  /// Number of O(1) decrement updates taken instead of a BFS.
  uint64_t decrement_updates = 0;
  /// Vertices popped/claimed by the peel. Equal between sequential and
  /// parallel runs for the eager algorithms (h-BZ peels each vertex exactly
  /// once); h-LB's sequential loop additionally counts lazy re-queues, so
  /// its pops legitimately exceed the parallel engine's (which materializes
  /// lazy keys in batches without popping). 0 for h = 1 (the classic path
  /// reports no engine counters).
  uint64_t pops = 0;
  /// Partitions processed (h-LB+UB only).
  uint32_t partitions = 0;
  /// Wall-clock seconds, total and for the bound-precomputation phase.
  double seconds = 0.0;
  double bound_seconds = 0.0;
};

/// Result of a (k,h)-core decomposition.
struct KhCoreResult {
  /// core[v]: largest k such that v belongs to the (k,h)-core.
  std::vector<uint32_t> core;
  /// h-degeneracy Ĉ_h(G): largest k with a non-empty (k,h)-core.
  uint32_t degeneracy = 0;
  int h = 1;
  KhCoreStats stats;

  /// Number of distinct non-empty cores (distinct values of core[v]),
  /// the right-hand number of the paper's Table 2.
  uint32_t NumDistinctCores() const;

  /// Vertices of the (k,h)-core, i.e. {v : core[v] >= k}.
  std::vector<VertexId> CoreVertices(uint32_t k) const;

  /// Vertices of the innermost core (k = degeneracy).
  std::vector<VertexId> MaxCoreVertices() const { return CoreVertices(degeneracy); }

  /// sizes[k] = |C_k| for k in [0, degeneracy] (cumulative, non-increasing).
  std::vector<uint32_t> CoreSizes() const;
};

/// Computes the (k,h)-core decomposition of `g`.
///
/// All algorithm choices return identical `core` values; pick via
/// `options.algorithm` for performance experiments. Invalid options
/// (h < 1, partition_size < 1) abort via HCORE_CHECK.
KhCoreResult KhCoreDecomposition(const Graph& g, const KhCoreOptions& options = {});

/// Definition-level reference implementation used by the test suite: for
/// each k, repeatedly deletes vertices with h-degree < k (recomputing every
/// h-degree from scratch each pass) until a fixpoint. Exponentially slower
/// than the real algorithms; small graphs only.
std::vector<uint32_t> BruteForceKhCore(const Graph& g, int h);

/// Resolves a VertexOrdering for `g` to a concrete permutation
/// (new-id -> old-id), or empty for "peel the graph as given". kAuto applies
/// the locality heuristic here (one gap-sampling pass). Exposed so callers
/// that decompose the same graph repeatedly (e.g. the multi-level
/// HCoreIndex) can resolve and relabel once instead of once per run.
std::vector<VertexId> ResolveVertexOrdering(const Graph& g,
                                            VertexOrdering ordering);

/// Vertices of the (k,h)-core {v : core[v] >= k} from a raw core vector
/// (free-function form of KhCoreResult::CoreVertices, for precomputed or
/// snapshot-served vectors).
std::vector<VertexId> CoreVerticesAtLevel(const std::vector<uint32_t>& core,
                                          uint32_t k);

/// Human-readable name of an algorithm ("h-BZ", "h-LB", "h-LB+UB", "auto").
std::string ToString(KhCoreAlgorithm algorithm);

}  // namespace hcore

#endif  // HCORE_CORE_KH_CORE_H_
