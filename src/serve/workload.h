// Closed-loop workload driver for the serving tier (serve/sharded_service.h).
//
// A measurement instrument for the serving path: it models a production mix
// the way the LDBC / SIGMOD-2014 contest analysis does (PAPERS.md): a
// configurable ratio of point lookups (core / spectrum / densest),
// traversals (component / community), and sustained ApplyBatch write
// ingestion, with Zipf-skewed key popularity — popular vertices are both
// read and churned more, so writes keep invalidating the lazy artifacts
// the hottest reads depend on.
//
// Pieces:
//
//   * ZipfSampler — deterministic rank-frequency sampler (P(rank r) ∝
//     (r+1)^-s, s = 0 degenerates to uniform). Built once (O(n) CDF
//     table), sampled by binary search; the same Rng stream always yields
//     the same keys. Rank r maps to vertex id r — generators in this tree
//     grow communities in id order, so low ids are ordinary vertices.
//
//   * LatencyHistogram — bounded log-spaced buckets (HDR-style: values
//     below 2^kSubBucketBits nanoseconds get exact buckets, every later
//     octave is split into 2^kSubBucketBits sub-buckets, ~3% relative
//     resolution). Record() is allocation-free and O(1); per-worker
//     histograms are merged by element-wise addition. Percentiles are
//     EXACT-RANK at bucket resolution: PercentileNs(p) returns the lower
//     bound of the bucket containing the nearest-rank sample — the sample
//     at 0-based index NearestRankIndex(p, count) of the sorted sequence —
//     never an interpolated or rank-shifted value. (The ad-hoc floor(p*n)
//     indexing it replaced was one rank high for most n; NearestRankIndex
//     is the shared, tested formula.)
//
//   * RunWorkload — N closed-loop client threads on a util/thread_pool:
//     each client draws an op class from the mix, a key from the sampler,
//     issues the query against the live ShardedHCoreService (write ops are
//     real ApplyBatch calls mutating the service under the readers), and
//     records the op latency in its own per-class histograms; workers are
//     merged under a mutex at the end. Closed-loop means each client
//     issues its next op only after the previous one returns, so QPS is
//     the system's self-limiting throughput at that concurrency.
//
//   * SaturationSearch — doubles the client count until QPS stops
//     improving by more than 5%, reporting the saturation concurrency and
//     peak QPS (total op budget is held roughly constant across steps).
//
//   * CompareToScratchOracle — the differential check: RunWorkload with
//     collect_applied_batches records every effective write batch in
//     publish order; ReplayAppliedBatches applies them to the initial graph,
//     and the oracle decomposes that graph from scratch and compares every
//     spectrum plus sampled components and communities of the service's
//     final view against answers computed from the scratch cores. Any
//     mismatch means the maintained index under concurrent mixed load
//     diverged from a from-scratch decomposition.

#ifndef HCORE_SERVE_WORKLOAD_H_
#define HCORE_SERVE_WORKLOAD_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/sharded_service.h"
#include "util/check.h"
#include "util/rng.h"

namespace hcore {

/// 0-based index of the nearest-rank percentile sample in a sorted sequence
/// of `n` values: the smallest index i with (i + 1) / n >= p, i.e.
/// ceil(p * n) - 1 clamped to [0, n - 1]. This is the ONE percentile-rank
/// formula in the tree — bench latency summaries and the histogram both use
/// it. (floor(p * n) — the formula it replaced — is one rank high for most
/// n: p50 of 100 samples indexed the 51st value, and p99 of fewer than 100
/// samples indexed the maximum even when a true p99 rank existed.)
inline size_t NearestRankIndex(double p, size_t n) {
  HCORE_CHECK(n > 0 && "NearestRankIndex: empty sample");
  double rank = std::ceil(p * static_cast<double>(n));
  if (rank < 1.0) rank = 1.0;
  const size_t r = static_cast<size_t>(rank);
  return (r > n ? n : r) - 1;
}

/// Deterministic Zipf(s) sampler over ranks [0, n): P(r) ∝ (r + 1)^-s.
class ZipfSampler {
 public:
  /// Builds the CDF table: O(n) once, O(log n) per sample. n >= 1, s >= 0.
  ZipfSampler(uint32_t n, double skew);

  uint32_t n() const { return static_cast<uint32_t>(cdf_.size()); }
  double skew() const { return skew_; }

  /// Draws one rank; the same rng stream always yields the same sequence.
  uint32_t Sample(Rng* rng) const;

  /// P(rank r) — the chi-squared tests' expected frequencies.
  double Probability(uint32_t rank) const;

 private:
  double skew_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), cdf_.back() == 1
};

/// Bounded log-spaced latency histogram with exact-rank percentiles.
/// Record/Merge never allocate; the bucket array is fixed at construction.
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: each octave above 2^kSubBucketBits ns is split
  /// into 2^kSubBucketBits log-spaced buckets (~3% relative error).
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  /// One exact sub-2^kSubBucketBits row plus one row per remaining octave
  /// of the 64-bit value range — every uint64 nanosecond value maps in
  /// range, no clamping.
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits + 1) * kSubBuckets;

  LatencyHistogram() : counts_(kNumBuckets, 0) {}

  /// Bucket of `ns`: identity below kSubBuckets, HDR-style mantissa
  /// bucketing above.
  static size_t BucketIndex(uint64_t ns);

  /// Smallest nanosecond value mapping to `bucket` — the value percentiles
  /// report (conservative: never overstates a latency).
  static uint64_t BucketLowerBoundNs(size_t bucket);

  void RecordNs(uint64_t ns);
  void RecordSeconds(double seconds);

  /// Element-wise sum — per-worker histograms fold into one.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t max_ns() const { return max_ns_; }
  double MeanMs() const;

  /// Lower bound of the bucket holding the nearest-rank sample for
  /// percentile p (exact-rank at bucket resolution; see header comment).
  /// 0 for an empty histogram.
  uint64_t PercentileNs(double p) const;
  double PercentileMs(double p) const { return PercentileNs(p) / 1e6; }

 private:
  std::vector<uint64_t> counts_;  // sized kNumBuckets, never reallocated
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

/// The operation classes a workload mixes.
enum class WorkloadOp : int {
  kCore = 0,       // point: core_h(v)
  kSpectrum,       // point: full spectrum of v
  kDensest,        // point: densest-level table at a random h
  kComponent,      // traversal: component of v's own innermost core
  kCommunity,      // traversal: cocktail-party community of v + neighbors
  kWrite,          // ApplyBatch of write_batch_edits churn edits
};
inline constexpr int kNumWorkloadOps = 6;

/// Human-readable op-class names, indexed by WorkloadOp.
const char* WorkloadOpName(WorkloadOp op);

/// Ratio mix over the op classes. Ratios must be non-negative and sum to 1.
struct WorkloadMix {
  std::string name = "mixed";
  double core = 0.50;
  double spectrum = 0.15;
  double densest = 0.05;
  double component = 0.17;
  double community = 0.03;
  double write = 0.10;

  double Ratio(WorkloadOp op) const;

  /// False (with a reason in *error) unless every ratio is >= 0 and they
  /// sum to 1 within 1e-6.
  bool Validate(std::string* error) const;
};

struct WorkloadOptions {
  WorkloadMix mix;
  /// Closed-loop client threads (>= 1).
  int clients = 4;
  /// Ops each client issues (>= 1); total ops = clients * ops_per_client.
  int ops_per_client = 1000;
  /// Zipf skew for key popularity (0 = uniform; ~0.8-1.0 is web-like).
  double zipf_skew = 0.8;
  /// Edits per write op (half inserts between sampled vertices, half
  /// deletes of existing edges of sampled vertices).
  int write_batch_edits = 8;
  /// Query vertices per community op (the sampled vertex plus up to
  /// community_size - 1 of its neighbors).
  int community_size = 3;
  uint64_t seed = 1;
  /// Record every effective write batch (publish order + epoch) in the
  /// report, for ReplayAppliedBatches. Serializes write ops through
  /// a driver mutex so the recorded order is exact.
  bool collect_applied_batches = false;
};

/// False (with a reason) unless the options are runnable: valid mix,
/// clients >= 1, ops_per_client >= 1, zipf_skew >= 0, write_batch_edits
/// >= 1, community_size >= 1.
bool ValidateWorkloadOptions(const WorkloadOptions& options,
                             std::string* error);

/// Per-op-class outcome: ops issued and their latency distribution.
struct OpClassReport {
  uint64_t count = 0;
  LatencyHistogram latency;
};

/// One effective write batch as applied, with the service epoch it
/// published (epochs are unique and ordered: batch replay order).
struct AppliedBatch {
  uint64_t epoch = 0;
  std::vector<EdgeEdit> edits;
};

struct WorkloadReport {
  double seconds = 0.0;
  uint64_t total_ops = 0;
  double qps = 0.0;  // total_ops / seconds, closed-loop
  std::array<OpClassReport, kNumWorkloadOps> per_op;
  /// Filled when collect_applied_batches was set; ascending by epoch.
  std::vector<AppliedBatch> applied_batches;

  const OpClassReport& Of(WorkloadOp op) const {
    return per_op[static_cast<int>(op)];
  }
};

/// Runs the closed-loop workload against `service` (which it mutates via
/// write ops). Aborts via HCORE_CHECK on invalid options — callers with
/// user-supplied options should ValidateWorkloadOptions first.
WorkloadReport RunWorkload(ShardedHCoreService* service,
                           const WorkloadOptions& options);

/// One saturation-search step: QPS measured at a client count.
struct SaturationStep {
  int clients = 0;
  double qps = 0.0;
};

struct SaturationResult {
  int saturation_clients = 1;  // client count of the best step
  double peak_qps = 0.0;
  std::vector<SaturationStep> steps;
};

/// Doubles the client count (1, 2, 4, ... up to max_clients), holding the
/// total op budget of `base` roughly constant per step, until QPS stops
/// improving by > 5% over the best step. Mutates the service like
/// RunWorkload does.
SaturationResult SaturationSearch(ShardedHCoreService* service,
                                  const WorkloadOptions& base,
                                  int max_clients);

/// Sampling knobs for the oracle differential.
struct OracleCheckOptions {
  size_t component_samples = 48;
  size_t community_samples = 12;
  uint64_t seed = 12345;
};

/// Mismatches found by one oracle comparison, by answer class.
struct OracleMismatches {
  size_t graph = 0;        // vertex or edge count differs
  size_t spectra = 0;      // vertices whose spectrum differs
  size_t components = 0;   // sampled core components that differ
  size_t communities = 0;  // sampled communities that differ

  size_t total() const { return graph + spectra + components + communities; }
};

/// The from-scratch answer oracle. Decomposes `truth` afresh at every level
/// h in [1, view.max_h()] (KhCoreDecomposition) and checks `view` against
/// it: the spectrum of every vertex; sampled core components (k = the
/// vertex's own scratch core or half of it) against a BFS over G[C_k] of
/// the scratch cores; and sampled communities against
/// DistanceCocktailPartyFromCores on the scratch cores. No index state is
/// consulted on the oracle side. A vertex-count mismatch stops the
/// comparison (the id ranges differ). The first few mismatches are
/// described on stderr.
OracleMismatches CompareToScratchOracle(const Graph& truth,
                                        const ShardedServiceView& view,
                                        const OracleCheckOptions& check = {});

/// `initial` with every batch of `report.applied_batches` applied in epoch
/// order — the graph a service built over `initial` must hold after one
/// collecting RunWorkload with no other writers.
Graph ReplayAppliedBatches(Graph initial, const WorkloadReport& report);

}  // namespace hcore

#endif  // HCORE_SERVE_WORKLOAD_H_
