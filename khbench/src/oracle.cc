#include "oracle.h"

#include <algorithm>

namespace khb {

using hcore::VertexId;

std::vector<VertexId> CoreComponentBfs(const hcore::Graph& g,
                                       const std::vector<uint32_t>& core,
                                       VertexId v, uint32_t k) {
  std::vector<VertexId> out;
  if (v >= g.num_vertices() || core[v] < k) return out;
  std::vector<bool> seen(g.num_vertices(), false);
  seen[v] = true;
  out.push_back(v);
  for (size_t head = 0; head < out.size(); ++head) {
    for (VertexId u : g.neighbors(out[head])) {
      if (!seen[u] && core[u] >= k) {
        seen[u] = true;
        out.push_back(u);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

CommunityAnswer CommunityBfs(const hcore::Graph& g,
                             const std::vector<uint32_t>& core,
                             const std::vector<VertexId>& query) {
  CommunityAnswer answer;
  if (query.empty()) return answer;
  uint32_t k_hi = core[query.front()];
  for (VertexId q : query) k_hi = std::min(k_hi, core[q]);
  for (uint32_t k = k_hi;; --k) {
    std::vector<VertexId> comp = CoreComponentBfs(g, core, query.front(), k);
    const bool together = std::all_of(query.begin(), query.end(), [&](VertexId q) {
      return std::binary_search(comp.begin(), comp.end(), q);
    });
    if (together) {
      answer.feasible = true;
      answer.k = k;
      answer.vertices = std::move(comp);
      return answer;
    }
    if (k == 0) return answer;
  }
}

}  // namespace khb
