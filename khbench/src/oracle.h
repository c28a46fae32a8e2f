// Benchmark-owned reference answers, computed with plain BFS over a pinned
// graph and core vector — no library query code — so the benchmark can tell
// a fast wrong answer from a fast right one.
#ifndef KHBENCH_ORACLE_H_
#define KHBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace khb {

/// Sorted vertices of the connected component of `v` in the subgraph
/// induced by {u : core[u] >= k}; empty when core[v] < k.
std::vector<hcore::VertexId> CoreComponentBfs(const hcore::Graph& g,
                                              const std::vector<uint32_t>& core,
                                              hcore::VertexId v, uint32_t k);

/// Reference cocktail-party answer: the largest k <= min core over `query`
/// whose core holds the whole query in one component, and that component.
struct CommunityAnswer {
  bool feasible = false;
  uint32_t k = 0;
  std::vector<hcore::VertexId> vertices;  // sorted
};
CommunityAnswer CommunityBfs(const hcore::Graph& g,
                             const std::vector<uint32_t>& core,
                             const std::vector<hcore::VertexId>& query);

}  // namespace khb

#endif  // KHBENCH_ORACLE_H_
