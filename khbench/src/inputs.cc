#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench_util.h"

namespace khb {

using hcore::Graph;
using hcore::GraphBuilder;
using hcore::VertexId;

namespace {

enum StreamLabel : uint64_t {
  kSocialStream = 1,
  kRoadStream,
  kClusteredStream,
  kReadStream,
  kEditStream,
  kReadKeys,
  kEditKeys,
};

// Miller-Hagberg Chung-Lu sampling over descending power-law weights.
void AddChungLu(uint32_t n, uint64_t target_edges, double gamma, Rng* rng,
                EdgeList* out) {
  const double alpha = 1.0 / (gamma - 1.0);
  std::vector<double> w(n);
  double total = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i) + 1.0, -alpha);
    total += w[i];
  }
  const double scale = 2.0 * static_cast<double>(target_edges) / total;
  for (double& x : w) x *= scale;
  const double big_w = 2.0 * static_cast<double>(target_edges);
  for (uint32_t i = 0; i + 1 < n; ++i) {
    uint32_t j = i + 1;
    double p = std::min(1.0, w[i] * w[j] / big_w);
    while (j < n && p > 0.0) {
      if (p < 1.0) {
        const double skip =
            std::floor(std::log(1.0 - rng->Double()) / std::log(1.0 - p));
        if (skip >= static_cast<double>(n - j)) break;
        j += static_cast<uint32_t>(skip);
      }
      if (j >= n) break;
      const double q = std::min(1.0, w[i] * w[j] / big_w);
      if (rng->Double() < q / p) out->edges.push_back({i, j});
      p = q;
      ++j;
    }
  }
}

uint32_t Find(std::vector<uint32_t>* parent, uint32_t x) {
  while ((*parent)[x] != x) {
    (*parent)[x] = (*parent)[(*parent)[x]];
    x = (*parent)[x];
  }
  return x;
}

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0x100000001B3ull;
}

// Zipf ranks name keys through a seeded permutation of the vertex ids, so
// the hottest keys sit in many different communities rather than all in
// the first one the generator laid out: a run then averages over many hot
// neighbourhoods instead of being decided by one. Readers and the writer
// rank through independent permutations: the writer's hot pairs grow a
// cluster whose size varies from seed to seed, and reads aimed at that
// cluster made the component median swing by a factor of three.
class HotKeys {
 public:
  HotKeys(uint32_t n, uint64_t seed) : zipf_(n, kZipfSkew), vertex_(n) { Shuffle(seed); }
  /// Draws a new rank-to-vertex permutation: a new hot set, same skew.
  void Shuffle(uint64_t seed) {
    std::iota(vertex_.begin(), vertex_.end(), 0u);
    Rng rng(seed);
    const uint32_t n = static_cast<uint32_t>(vertex_.size());
    for (uint32_t i = n; i > 1; --i) std::swap(vertex_[i - 1], vertex_[rng.Index(i)]);
  }
  uint32_t Sample(Rng* rng) const { return vertex_[zipf_.Sample(rng)]; }

 private:
  Zipf zipf_;
  std::vector<uint32_t> vertex_;
};

}  // namespace

Graph BuildGraph(const EdgeList& edges) {
  Span span("graph.load");
  GraphBuilder b(edges.num_vertices);
  for (const EdgePair& e : edges.edges) b.AddEdge(e.u, e.w);
  return b.Build();
}

EdgeList MakeSocial(uint64_t seed) {
  constexpr uint32_t kN = 45000;
  Rng rng(SubSeed(seed, kSocialStream));
  EdgeList b{kN, {}};
  AddChungLu(kN, 110000, 2.5, &rng, &b);
  const uint32_t fanout = static_cast<uint32_t>(0.025 * kN);
  for (int i = 0; i < 5; ++i) {
    const uint32_t hub = rng.Index(kN);
    for (uint32_t j = 0; j < fanout; ++j) {
      const uint32_t v = rng.Index(kN);
      if (v != hub) b.edges.push_back({hub, v});
    }
  }
  return b;
}

EdgeList MakeRoad(uint64_t seed) {
  constexpr uint32_t kSide = 224;
  constexpr uint32_t kN = kSide * kSide;
  Rng rng(SubSeed(seed, kRoadStream));
  EdgeList b{kN, {}};
  std::vector<uint32_t> parent(kN);
  std::iota(parent.begin(), parent.end(), 0u);
  auto add = [&](uint32_t u, uint32_t v) {
    b.edges.push_back({u, v});
    const uint32_t ru = Find(&parent, u);
    parent[ru] = Find(&parent, v);
  };
  for (uint32_t r = 0; r < kSide; ++r) {
    for (uint32_t c = 0; c < kSide; ++c) {
      const uint32_t v = r * kSide + c;
      if (c + 1 < kSide && rng.Bernoulli(0.72)) add(v, v + 1);
      if (r + 1 < kSide && rng.Bernoulli(0.72)) add(v, v + kSide);
      if (r + 1 < kSide && c + 1 < kSide && rng.Bernoulli(0.02)) {
        add(v, v + kSide + 1);
      }
    }
  }
  // Join the components into one, like a real road network: a random tree
  // over one representative per component.
  std::vector<uint32_t> reps;
  for (uint32_t v = 0; v < kN; ++v) {
    if (Find(&parent, v) == v) reps.push_back(v);
  }
  for (size_t i = 1; i < reps.size(); ++i) {
    b.edges.push_back({reps[i], reps[rng.Index(static_cast<uint32_t>(i))]});
  }
  return b;
}

EdgeList MakeClustered(uint32_t n, uint64_t seed) {
  Rng rng(SubSeed(seed, kClusteredStream));
  EdgeList b{n, {}};
  uint32_t v = 0;
  while (v < n) {
    uint32_t size = 8 + rng.Index(65);
    if (v + size > n) size = n - v;
    const double p = std::min(1.0, (4.0 + 8.0 * rng.Double()) / size);
    for (uint32_t i = 0; i < size; ++i) {
      for (uint32_t j = i + 1; j < size; ++j) {
        if (rng.Bernoulli(p)) b.edges.push_back({v + i, v + j});
      }
    }
    v += size;
  }
  for (uint32_t e = 0; e < n / 128; ++e) b.edges.push_back({rng.Index(n), rng.Index(n)});
  return b;
}

uint64_t GraphDigest(const Graph& g) {
  uint64_t h = Mix(0xCBF29CE484222325ull, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    h = Mix(h, g.degree(v));
    for (VertexId u : g.neighbors(v)) h = Mix(h, u);
  }
  return h;
}

const char* ReadKindName(ReadKind kind) {
  switch (kind) {
    case ReadKind::kCore:
      return "core";
    case ReadKind::kSpectrum:
      return "spectrum";
    case ReadKind::kDensest:
      return "densest";
    case ReadKind::kComponent:
      return "component";
    case ReadKind::kCommunity:
      return "community";
  }
  return "?";
}

std::vector<ReadOp> MakeReadStream(uint32_t n, int max_h, size_t count,
                                   uint64_t seed, uint64_t stream) {
  // The read share of the LDBC-style interactive mix (writes excluded):
  // mostly point lookups, a sixth innermost-core components, a few
  // community and densest queries.
  static constexpr double kCumulative[kNumReadKinds] = {0.556, 0.722, 0.778,
                                                        0.967, 1.0};
  Rng rng(SubSeed(SubSeed(seed, kReadStream), stream));
  const uint64_t keys_seed = SubSeed(seed, kReadKeys);
  HotKeys keys(n, keys_seed);
  std::vector<ReadOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ReadOp& op = ops[i];
    if (i > 0 && i % kHotPhaseOps == 0) keys.Shuffle(SubSeed(keys_seed, i / kHotPhaseOps));
    const double u = rng.Double();
    int kind = 0;
    while (kind + 1 < kNumReadKinds && u >= kCumulative[kind]) ++kind;
    op.kind = static_cast<ReadKind>(kind);
    op.h = static_cast<uint8_t>(1 + rng.Index(static_cast<uint32_t>(max_h)));
    op.v = keys.Sample(&rng);
  }
  return ops;
}

std::vector<BatchSpec> MakeEditStream(uint32_t n, size_t batches, uint64_t seed) {
  Rng rng(SubSeed(seed, kEditStream));
  const HotKeys keys(n, SubSeed(seed, kEditKeys));
  std::vector<BatchSpec> out(batches);
  for (BatchSpec& batch : out) {
    batch.resize(kInsertsPerBatch);
    for (EdgePair& e : batch) {
      e.u = keys.Sample(&rng);
      e.w = keys.Sample(&rng);
    }
  }
  return out;
}

std::vector<hcore::EdgeEdit> ChurnWindow::Next(const Graph& g, const BatchSpec& spec) {
  if (inserted_.empty()) inserted_.resize(kChurnWindow);
  std::vector<EdgePair>& slot = inserted_[next_];
  next_ = (next_ + 1) % kChurnWindow;
  std::vector<hcore::EdgeEdit> batch;
  for (const EdgePair& e : slot) batch.push_back(hcore::EdgeEdit::Delete(e.u, e.w));
  slot.clear();
  for (const EdgePair& e : spec) {
    const bool fresh = e.u != e.w && !g.HasEdge(e.u, e.w) &&
                       std::none_of(slot.begin(), slot.end(), [&](const EdgePair& x) {
                         return (x.u == e.u && x.w == e.w) || (x.u == e.w && x.w == e.u);
                       });
    if (!fresh) continue;
    batch.push_back(hcore::EdgeEdit::Insert(e.u, e.w));
    slot.push_back(e);
  }
  return batch;
}

uint64_t ReadStreamDigest(const std::vector<ReadOp>& ops) {
  uint64_t h = Mix(0, ops.size());
  for (const ReadOp& op : ops) {
    h = Mix(h, (static_cast<uint64_t>(op.kind) << 40) |
                   (static_cast<uint64_t>(op.h) << 32) | op.v);
  }
  return h;
}

uint64_t EditStreamDigest(const std::vector<BatchSpec>& batches) {
  uint64_t h = Mix(0, batches.size());
  for (const BatchSpec& batch : batches) {
    for (const EdgePair& e : batch) h = Mix(h, (static_cast<uint64_t>(e.u) << 32) | e.w);
  }
  return h;
}

}  // namespace khb
