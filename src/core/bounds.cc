#include "core/bounds.h"

#include <algorithm>

#include "engine/peeling_engine.h"

namespace hcore {

std::vector<uint32_t> ComputeLB1(const Graph& g, int h,
                                 HDegreeComputer* degrees) {
  HCORE_CHECK(h >= 2);
  // Bound helpers run on the caller's thread, which drives the borrowed
  // computer for the duration of the call.
  degrees->coordinator().Assume();
  const VertexId n = g.num_vertices();
  const int radius = h / 2;  // ⌊h/2⌋ >= 1 for h >= 2.
  VertexMask alive(n, true);
  std::vector<uint32_t> lb1(n, 0);
  degrees->ComputeAllAlive(g, alive, radius, &lb1);
  return lb1;
}

std::vector<uint32_t> ComputeLB2(const Graph& g, int h,
                                 const std::vector<uint32_t>& lb1,
                                 HDegreeComputer* degrees) {
  HCORE_CHECK(h >= 2);
  degrees->coordinator().Assume();  // caller's thread drives the computer
  const VertexId n = g.num_vertices();
  const int radius = (h + 1) / 2;  // ⌈h/2⌉
  VertexMask alive(n, true);
  std::vector<uint32_t> lb2 = lb1;
  // For every v, take the maximum LB1 over its closed ⌈h/2⌉-neighborhood.
  // Each vertex's neighborhood is enumerated on the calling thread; the
  // traversal volume matches LB1's and is charged to the same stats.
  std::vector<std::pair<VertexId, int>> nbhd;
  for (VertexId v = 0; v < n; ++v) {
    degrees->CollectNeighborhood(g, alive, v, radius, &nbhd);
    for ([[maybe_unused]] const auto& [u, d] : nbhd) {
      lb2[v] = std::max(lb2[v], lb1[u]);
    }
  }
  return lb2;
}

namespace {

/// Algorithm 5 as an engine policy: unit decrements only (peeling the
/// implicit power graph G^h), recording the peel level and removal order.
struct PowerGraphUbPolicy : PeelPolicyBase {
  PowerGraphUbPolicy(std::vector<uint32_t>* ub, std::vector<VertexId>* order)
      : ub(ub), order(order) {}

  PeelAction OnNeighbor(VertexId, int, uint32_t) {
    return PeelAction::kDecrement;
  }

  void OnPeeled(VertexId v, uint32_t k) {
    (*ub)[v] = k;  // k is the running maximum bucket = classic core index
    if (order != nullptr) order->push_back(v);
  }

  std::vector<uint32_t>* ub;
  std::vector<VertexId>* order;
};

}  // namespace

std::vector<uint32_t> ComputePowerGraphUpperBound(
    const Graph& g, int h, const std::vector<uint32_t>& hdeg,
    HDegreeComputer* degrees, std::vector<VertexId>* peel_order) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> ub(n, 0);
  if (peel_order != nullptr) {
    peel_order->clear();
    peel_order->reserve(n);
  }
  if (n == 0) return ub;
  uint32_t max_key = 0;
  for (uint32_t d : hdeg) max_key = std::max(max_key, d);

  VertexMask alive(n, true);
  PeelingEngine engine(g, h, &alive, degrees, max_key);
  for (VertexId v = 0; v < n; ++v) engine.Seed(v, hdeg[v]);
  PowerGraphUbPolicy policy(&ub, peel_order);
  engine.Peel(0, max_key, policy);
  return ub;
}

uint64_t CarryHDegrees(const Graph& g, int h, const VertexMask& alive,
                       std::span<const VertexId> added,
                       std::vector<uint32_t>* hdeg, HDegreeComputer* degrees) {
  HCORE_CHECK(hdeg->size() == g.num_vertices());
  degrees->coordinator().Assume();  // caller's thread drives the computer
  // seen[v]: v is added (its own BFS sets its degree) or already queued.
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  for (VertexId a : added) seen[a] = 1;
  std::vector<VertexId> touched;
  std::vector<std::pair<VertexId, int>> ball;
  for (VertexId a : added) {
    (*hdeg)[a] = degrees->CollectNeighborhood(g, alive, a, h, &ball);
    for ([[maybe_unused]] const auto& [u, dist] : ball) {
      if (!seen[u]) {
        seen[u] = 1;
        touched.push_back(u);
      }
    }
  }
  std::vector<uint32_t> fresh(touched.size());
  degrees->ComputeBatch(g, alive, h, touched, fresh.data());
  for (size_t i = 0; i < touched.size(); ++i) (*hdeg)[touched[i]] = fresh[i];
  return added.size() + touched.size();
}

ImproveLbResult ImproveLB(const Graph& g, int h, uint32_t k_min,
                          VertexMask* alive, const std::vector<uint32_t>& hdeg,
                          const std::vector<uint32_t>& lb2,
                          HDegreeComputer* degrees) {
  const VertexId n = g.num_vertices();
  HCORE_CHECK(hdeg.size() == n);
  degrees->coordinator().Assume();  // caller's thread drives the computer
  ImproveLbResult out;
  out.hdeg = hdeg;
  out.lb3.assign(n, 0);

  // Minimum h-degree over the candidate set, before cleaning (Property 3).
  uint32_t min_hdeg = 0;
  bool any = false;
  alive->ForEachAlive([&](VertexId v) {
    min_hdeg = any ? std::min(min_hdeg, out.hdeg[v]) : out.hdeg[v];
    any = true;
  });
  if (!any) return out;

  // Cascade-remove vertices whose optimistic h-degree sinks below k_min.
  // As in Algorithm 5, each removal only decrements neighbors by 1 (an
  // upper bound on the true h-degree), which is sound for exclusion.
  std::vector<VertexId> stack;
  std::vector<uint8_t> queued(n, 0);
  alive->ForEachAlive([&](VertexId v) {
    if (out.hdeg[v] < k_min) {
      stack.push_back(v);
      queued[v] = 1;
    }
  });
  std::vector<std::pair<VertexId, int>> nbhd;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    if (!alive->IsAlive(v)) continue;
    degrees->CollectNeighborhood(g, *alive, v, h, &nbhd);
    alive->Kill(v);
    ++out.removed;
    for ([[maybe_unused]] const auto& [u, dist] : nbhd) {
      if (!alive->IsAlive(u)) continue;
      if (out.hdeg[u] > 0) --out.hdeg[u];
      if (out.hdeg[u] < k_min && !queued[u]) {
        stack.push_back(u);
        queued[u] = 1;
      }
    }
  }

  alive->ForEachAlive(
      [&](VertexId v) { out.lb3[v] = std::max(lb2[v], min_hdeg); });
  return out;
}

}  // namespace hcore
