// Shared helpers for the hcore test suites: a small corpus of random graphs
// spanning the structural classes the algorithms care about, and slow
// definition-level reference implementations.

#ifndef HCORE_TESTS_TEST_UTIL_H_
#define HCORE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace hcore::testing {

/// Identifies one random graph in the shared corpus.
struct RandomGraphSpec {
  std::string model;  // "gnp-sparse", "gnp-dense", "ba", "ws", "tree", "pp"
  uint32_t n;
  uint64_t seed;

  std::string Name() const {
    std::string sanitized = model;
    for (char& c : sanitized) {
      if (c == '-') c = '_';  // gtest param names must be [A-Za-z0-9_]
    }
    return sanitized + "_n" + std::to_string(n) + "_s" + std::to_string(seed);
  }
};

/// Materializes the graph for a spec (deterministic).
inline Graph MakeRandomGraph(const RandomGraphSpec& spec) {
  Rng rng(spec.seed * 7919 + 13);
  if (spec.model == "gnp-sparse") {
    return gen::ErdosRenyiGnp(spec.n, 2.5 / spec.n, &rng);
  }
  if (spec.model == "gnp-dense") {
    return gen::ErdosRenyiGnp(spec.n, 8.0 / spec.n, &rng);
  }
  if (spec.model == "ba") {
    return gen::BarabasiAlbert(spec.n, 3, &rng);
  }
  if (spec.model == "ws") {
    return gen::WattsStrogatz(spec.n, 2, 0.2, &rng);
  }
  if (spec.model == "tree") {
    return gen::RandomTree(spec.n, &rng);
  }
  if (spec.model == "pp") {
    return gen::PlantedPartition(4, spec.n / 4, 0.5, 0.05, &rng);
  }
  return Graph();
}

/// Standard corpus: every model at a given size over a few seeds.
inline std::vector<RandomGraphSpec> Corpus(uint32_t n, int seeds) {
  std::vector<RandomGraphSpec> out;
  for (const char* model :
       {"gnp-sparse", "gnp-dense", "ba", "ws", "tree", "pp"}) {
    for (int s = 1; s <= seeds; ++s) {
      out.push_back({model, n, static_cast<uint64_t>(s)});
    }
  }
  return out;
}

/// Reference component: BFS from `v` restricted to vertices whose core
/// reaches `k`, sorted (empty when core[v] < k). With all-zero cores and
/// k = 0 this is v's connected component of G.
inline std::vector<VertexId> ReferenceComponent(
    const Graph& g, const std::vector<uint32_t>& core, VertexId v,
    uint32_t k) {
  if (core[v] < k) return {};
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{v};
  std::vector<VertexId> out;
  seen[v] = true;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    out.push_back(u);
    for (VertexId w : g.neighbors(u)) {
      if (!seen[w] && core[w] >= k) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hcore::testing

#endif  // HCORE_TESTS_TEST_UTIL_H_
