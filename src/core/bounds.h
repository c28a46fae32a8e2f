// Lower and upper bounds on (k,h)-core indexes (paper §4.2, §4.4, §4.5).
//
//   LB1(v) = deg^{⌊h/2⌋}(v)                                  (Observation 1)
//   LB2(v) = max{LB1(u) : d(u,v) ≤ ⌈h/2⌉} ∪ {LB1(v)}         (Observation 2)
//   UB(v)  = classic core index of v in the (implicit) power graph G^h,
//            computed by peeling with unit decrements only    (Algorithm 5)
//   LB3    = max(LB2, min h-degree within a candidate set)    (Algorithm 6,
//            Property 3), together with optimistic cleaning of the set.
//            The candidates' exact h-degrees come from CarryHDegrees, which
//            grows them along h-LB+UB's nested candidate sets.
//
// All functions run their BFS workloads through an HDegreeComputer so the
// caller controls threading and visit accounting; the UB peel itself is a
// unit-decrement policy over the shared PeelingEngine.

#ifndef HCORE_CORE_BOUNDS_H_
#define HCORE_CORE_BOUNDS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/h_degree.h"

namespace hcore {

/// LB1(v) = deg^{⌊h/2⌋}(v) over the full graph. Requires h >= 2 (for h = 1
/// the radius would be 0; callers use the classic fast path instead).
std::vector<uint32_t> ComputeLB1(const Graph& g, int h,
                                 HDegreeComputer* degrees);

/// LB2 from a precomputed LB1: max of LB1 over the closed ⌈h/2⌉-neighborhood.
std::vector<uint32_t> ComputeLB2(const Graph& g, int h,
                                 const std::vector<uint32_t>& lb1,
                                 HDegreeComputer* degrees);

/// Algorithm 5: upper bound via implicit power-graph peeling. `hdeg` must be
/// the h-degrees of all vertices in the full graph. Each removal performs
/// one h-BFS to enumerate the removed vertex's neighborhood and decrements
/// each alive neighbor's optimistic degree by exactly 1.
///
/// Note: because the enumeration uses *induced* h-neighborhoods of the
/// surviving subgraph, the result can be slightly looser than the classic
/// core index of a materialized G^h — but it is always a sound upper bound
/// on the (k,h)-core index, and the optimistic degree of a vertex always
/// dominates its count of alive full-distance-h neighbors (every removed
/// induced neighbor is also a full-distance neighbor). The latter property
/// is what makes the peel order usable for distance-h coloring.
///
/// If `peel_order` is non-null it receives the removal order (used by
/// DistanceHColoring as a smallest-last ordering of the implicit G^h).
std::vector<uint32_t> ComputePowerGraphUpperBound(
    const Graph& g, int h, const std::vector<uint32_t>& hdeg,
    HDegreeComputer* degrees, std::vector<VertexId>* peel_order = nullptr);

/// Grows exact h-degrees by one batch of candidates (the h-LB+UB partition
/// carry). On entry `alive` is the grown set, every vertex of `added` is
/// alive, and (*hdeg)[v] is v's exact h-degree in G[alive \ added] for every
/// other alive v. On return (*hdeg)[v] is exact in G[alive] for every alive
/// v; dead entries are untouched. Each added vertex gets one BFS in
/// G[alive], which yields its h-degree and its h-ball; the other members of
/// those balls are recomputed with one ComputeBatch (pooled when the
/// computer has threads). Every other degree is kept: a vertex whose h-ball
/// changed has a path of length <= h through an added vertex, so it lies in
/// that vertex's ball. Returns the number of BFSs run.
uint64_t CarryHDegrees(const Graph& g, int h, const VertexMask& alive,
                       std::span<const VertexId> added,
                       std::vector<uint32_t>* hdeg, HDegreeComputer* degrees);

/// Output of ImproveLB (Algorithm 6).
struct ImproveLbResult {
  /// Optimistic h-degrees of surviving vertices w.r.t. the cleaned set
  /// (exact for vertices untouched by the cascade, upper bound otherwise).
  std::vector<uint32_t> hdeg;
  /// LB3 lower bound for surviving vertices (max of lb2 and the minimum
  /// h-degree of the original candidate set — Property 3).
  std::vector<uint32_t> lb3;
  /// Number of vertices removed by the cleaning cascade.
  uint32_t removed = 0;
};

/// Algorithm 6: cleans the candidate set (the alive vertices of `alive`) by
/// cascade-removing every vertex whose optimistic h-degree drops below
/// `k_min`, and computes LB3. `hdeg` must hold every candidate's exact
/// h-degree in G[alive] (e.g. maintained by CarryHDegrees); ImproveLB runs
/// no h-degree BFS of its own, only one neighborhood enumeration per
/// cleaned vertex. `alive` is updated in place; removed vertices are killed
/// in the mask.
ImproveLbResult ImproveLB(const Graph& g, int h, uint32_t k_min,
                          VertexMask* alive, const std::vector<uint32_t>& hdeg,
                          const std::vector<uint32_t>& lb2,
                          HDegreeComputer* degrees);

}  // namespace hcore

#endif  // HCORE_CORE_BOUNDS_H_
