// The benchmark's load generator. Every input — graphs, read-op streams and
// write-edit streams — is drawn here from the run seed with the benchmark's
// own PRNG; the library only ever receives the finished graphs, keys and
// edit batches. A change to the library's generators or to
// serve/workload.* therefore cannot move what is measured.
#ifndef KHBENCH_INPUTS_H_
#define KHBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace khb {

struct EdgePair {
  uint32_t u = 0;
  uint32_t w = 0;
};

// Graph stand-ins. The generators only draw edges; handing them to the
// library (BuildGraph) is a separate step, so a setup timer can cover the
// library's work alone.
struct EdgeList {
  uint32_t num_vertices = 0;
  std::vector<EdgePair> edges;
};

/// GraphBuilder::AddEdge for every drawn edge, then Build: the library call
/// timed as `graph.load`.
hcore::Graph BuildGraph(const EdgeList& edges);

/// `hyves` stand-in (paper Table 1) at full stand-in scale: a Chung-Lu
/// power-law backbone (gamma 2.5, n = 45000, ~110000 edges) plus 5 hubs
/// each joined to 2.5% of the vertices.
EdgeList MakeSocial(uint64_t seed);

/// `rnPA` stand-in at full stand-in scale: a 224 x 224 lattice keeping each
/// edge with probability 0.72, ~2% local diagonals, components joined into
/// one. High diameter, degree <= 8.
EdgeList MakeRoad(uint64_t seed);

/// Clustered serving substrate: communities of 8..72 vertices with 4..12
/// expected intra-community neighbours, plus n/128 random bridges (sparse
/// enough that no giant component forms).
EdgeList MakeClustered(uint32_t n, uint64_t seed);

/// Order-sensitive digest of a graph's vertex count and adjacency.
uint64_t GraphDigest(const hcore::Graph& g);

// Read traffic: Zipf(0.8)-skewed keys (ranked through a seeded permutation
// of the vertex ids) with the interactive mix of point lookups, component
// and community queries. The hot set moves: every kHotPhaseOps ops of a
// stream the ranks map through a new permutation, the same one for every
// stream of the seed, so readers share the hot keys of the moment.
enum class ReadKind : uint8_t {
  kCore,
  kSpectrum,
  kDensest,
  kComponent,
  kCommunity,
};
inline constexpr int kNumReadKinds = 5;
const char* ReadKindName(ReadKind kind);

struct ReadOp {
  ReadKind kind = ReadKind::kCore;
  uint8_t h = 1;
  uint32_t v = 0;
};

inline constexpr double kZipfSkew = 0.8;
/// With one hot set per run, the slowest 1% of component reads was decided
/// by which few keys the seed made hottest (one seed read 0.08-0.10 ms,
/// another 0.057-0.060 ms, each in three runs). A 20 s serve-read run goes
/// through ~8 hot sets per reader, a serve-mixed run through ~50.
inline constexpr size_t kHotPhaseOps = 4096;
/// Size of a community query: the key plus its first neighbours.
inline constexpr size_t kCommunityQuerySize = 3;

/// `count` read ops over vertices [0, n) and thresholds [1, max_h]. Streams
/// of one seed share the hot keys; `stream` tells clients' streams apart.
std::vector<ReadOp> MakeReadStream(uint32_t n, int max_h, size_t count,
                                   uint64_t seed, uint64_t stream = 0);

// Write traffic: sliding-window Zipf churn. Batch i inserts up to
// kInsertsPerBatch edges between Zipf-hot vertices and deletes the edges
// batch i - kChurnWindow inserted, so a batch carries up to 8 edits and the
// graph never drifts more than kChurnWindow batches from the original:
// every run, however long, measures the same steady state.
using BatchSpec = std::vector<EdgePair>;  // the batch's candidate inserts
inline constexpr int kInsertsPerBatch = 4;
inline constexpr size_t kChurnWindow = 64;

/// `batches` batches of kInsertsPerBatch hot vertex pairs over [0, n).
std::vector<BatchSpec> MakeEditStream(uint32_t n, size_t batches, uint64_t seed);

/// Turns batch specs into concrete edits against the current graph. One
/// writer owns one instance and feeds it every batch in order.
class ChurnWindow {
 public:
  /// The edits of the next batch against `g` (the graph every earlier batch
  /// produced): the spec's inserts that are not already edges, plus the
  /// deletes of the batch kChurnWindow back.
  std::vector<hcore::EdgeEdit> Next(const hcore::Graph& g, const BatchSpec& spec);

 private:
  std::vector<std::vector<EdgePair>> inserted_;  // ring of kChurnWindow batches
  size_t next_ = 0;
};

/// Digests of the streams (for the determinism self-test).
uint64_t ReadStreamDigest(const std::vector<ReadOp>& ops);
uint64_t EditStreamDigest(const std::vector<BatchSpec>& batches);

}  // namespace khb

#endif  // KHBENCH_INPUTS_H_
