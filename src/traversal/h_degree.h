// Sequential and multi-threaded h-degree computation (paper §4.6).
//
// The paper parallelizes two blocks: the initial h-degree pass over all
// vertices, and the recomputation of h-degrees across the h-neighborhood of
// each removed vertex, assigning vertices to threads dynamically.
// HDegreeComputer owns one BoundedBfs scratch per worker plus a shared
// thread pool, and exposes batch APIs that implement exactly that scheme.
// Alive subsets are expressed as VertexMask views (engine/vertex_mask.h).

#ifndef HCORE_TRAVERSAL_H_DEGREE_H_
#define HCORE_TRAVERSAL_H_DEGREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/vertex_mask.h"
#include "graph/graph.h"
#include "traversal/bounded_bfs.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hcore {

/// MarkNeighborhoods classification flag: the marked vertex needs a full
/// h-degree recomputation (some source reached it at distance < h, or more
/// than 127 sources reached it at distance exactly h). When clear, the low
/// bits are an exact member-loss count — see MarkNeighborhoods.
inline constexpr uint8_t kMarkNeedsRecompute = 0x80;

/// Computes h-degrees over alive-masked subgraphs, optionally in parallel.
///
/// The per-worker BoundedBfs scratch (two O(n) arrays each) is allocated
/// lazily, on the first traversal a worker actually runs: callers that only
/// construct a computer — the classic h = 1 decomposition, whose engine
/// fast path walks adjacency directly — pay nothing.
///
/// Ownership contract (machine-checked): ONE coordinator thread drives the
/// computer at a time. The batch APIs fan work out on the internal pool but
/// materialize and hand out scratch from the coordinator, and every
/// traversal/stats method REQUIRES the `coordinator()` role — callers claim
/// it with `computer.coordinator().Assume()` at the point where their
/// protocol (a single-threaded driver, a ThreadPool::Wait barrier) makes
/// them the sole driver.
class HDegreeComputer {
 public:
  /// `num_threads` <= 1 selects the sequential path (no pool is created).
  /// `n` only sizes scratch when it is eventually materialized.
  HDegreeComputer(VertexId n, int num_threads);

  /// The single-coordinator capability (see the class comment).
  const ThreadRole& coordinator() const RETURN_CAPABILITY(coordinator_) {
    return coordinator_;
  }

  int num_threads() const { return num_threads_; }

  /// Raises the vertex capacity used to size lazily-created scratch.
  /// Existing scratch grows on its next traversal (BoundedBfs::Run ensures
  /// capacity per call); this only keeps future allocations right-sized.
  void EnsureCapacity(VertexId n) REQUIRES(coordinator_) {
    capacity_ = std::max(capacity_, n);
  }

  /// Process-wide count of BoundedBfs scratch materializations, for tests
  /// and telemetry asserting that h = 1 fast paths never allocate scratch.
  static uint64_t total_scratch_allocations();

  /// h-degree of one vertex (runs on the calling thread).
  uint32_t Compute(const Graph& g, const VertexMask& alive, VertexId v, int h)
      REQUIRES(coordinator_);

  /// h-degrees for every vertex in `batch`; out[i] receives the h-degree of
  /// batch[i]. Parallel when the computer has threads and the batch is
  /// large enough to amortize dispatch.
  void ComputeBatch(const Graph& g, const VertexMask& alive, int h,
                    std::span<const VertexId> batch, uint32_t* out)
      REQUIRES(coordinator_);

  /// h-degrees for all alive vertices into out (size n; dead entries are
  /// left untouched).
  void ComputeAllAlive(const Graph& g, const VertexMask& alive, int h,
                       std::vector<uint32_t>* out) REQUIRES(coordinator_);

  /// Enumerates the h-neighborhood of `v` with distances (sequential).
  uint32_t CollectNeighborhood(const Graph& g, const VertexMask& alive,
                               VertexId v, int h,
                               std::vector<std::pair<VertexId, int>>* out)
      REQUIRES(coordinator_);

  /// Marks every alive vertex within distance h of any source and appends
  /// it (exactly once across all workers) to one of the `out_per_worker`
  /// lists. Sources are expanded whether or not they are alive themselves —
  /// the round-synchronous peel calls this with the just-killed frontier
  /// after flipping it dead, and a killed vertex still anchors the paths
  /// its removal invalidates.
  ///
  /// `marks[u]` classifies how the sources reached u, so the caller can
  /// repair cheaply (the batched form of the sequential peel's unit
  /// decrement): the low 7 bits count sources whose (post-kill) distance to
  /// u is exactly h; kMarkNeedsRecompute is set when any source reached u
  /// at distance < h, or the count saturated. When the flag is clear, u
  /// lost exactly `marks[u]` members of its h-ball — each counted source s
  /// satisfies d_old(u,s) <= d_post(u,s) = h so it was a member, and any
  /// OTHER lost member x would put the first killed vertex w of u's old
  /// path to x within post-kill distance < h of u (w precedes x on a path
  /// of length <= h) unless w == x at distance exactly h, i.e. x is itself
  /// a counted source — so a clear flag accounts for every loss.
  ///
  /// Entries of `marks` touched here must be 0 on entry (the caller resets
  /// them from the returned lists). Parallel over sources when the computer
  /// has threads.
  void MarkNeighborhoods(const Graph& g, const VertexMask& alive, int h,
                         std::span<const VertexId> sources,
                         std::atomic<uint8_t>* marks,
                         std::vector<std::vector<VertexId>>* out_per_worker)
      REQUIRES(coordinator_);

  /// Pool backing the batch APIs (null when single-threaded). The parallel
  /// peeler borrows it for its own per-round fan-outs; the computer itself
  /// must be idle while the caller does.
  ThreadPool* pool() { return pool_.get(); }

  /// Total vertices visited by all BFS runs (the paper's Table-3 "visits").
  uint64_t total_visited() const REQUIRES(coordinator_);
  void ResetStats() REQUIRES(coordinator_);

 private:
  /// Materializes (on the calling thread) and returns worker `t`'s scratch.
  BoundedBfs& Scratch(int t) REQUIRES(coordinator_);

  ThreadRole coordinator_;
  VertexId capacity_ GUARDED_BY(coordinator_);
  int num_threads_;
  // One per worker, lazy. Materialized by the coordinator; during a batch,
  // slot t is lent to exactly one pool worker via a raw pointer until the
  // dispatch-side Wait() barrier.
  std::vector<std::unique_ptr<BoundedBfs>> scratch_ GUARDED_BY(coordinator_);
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hcore

#endif  // HCORE_TRAVERSAL_H_DEGREE_H_
