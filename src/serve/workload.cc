#include "serve/workload.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>

#include "core/kh_core.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hcore {

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

ZipfSampler::ZipfSampler(uint32_t n, double skew) : skew_(skew) {
  HCORE_CHECK(n >= 1 && "ZipfSampler: n must be >= 1");
  HCORE_CHECK(skew >= 0.0 && "ZipfSampler: skew must be >= 0");
  cdf_.resize(n);
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -skew);
    cdf_[r] = total;
  }
  for (uint32_t r = 0; r < n; ++r) cdf_[r] /= total;
  cdf_.back() = 1.0;  // guard against rounding shortfall
}

uint32_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  // First rank whose CDF exceeds u; NextDouble() < 1 so this always finds
  // one (cdf_.back() == 1).
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

double ZipfSampler::Probability(uint32_t rank) const {
  HCORE_CHECK(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

size_t LatencyHistogram::BucketIndex(uint64_t ns) {
  if (ns < kSubBuckets) return static_cast<size_t>(ns);
  const int exp = 63 - std::countl_zero(ns);  // >= kSubBucketBits
  const size_t row = static_cast<size_t>(exp - kSubBucketBits + 1);
  const uint64_t mantissa = (ns >> (exp - kSubBucketBits)) - kSubBuckets;
  return row * kSubBuckets + static_cast<size_t>(mantissa);
}

uint64_t LatencyHistogram::BucketLowerBoundNs(size_t bucket) {
  HCORE_DCHECK(bucket < kNumBuckets);
  const size_t row = bucket >> kSubBucketBits;
  const uint64_t mantissa = bucket & (kSubBuckets - 1);
  if (row == 0) return mantissa;
  return (kSubBuckets + mantissa) << (row - 1);
}

void LatencyHistogram::RecordNs(uint64_t ns) {
  ++counts_[BucketIndex(ns)];
  ++count_;
  sum_ns_ += ns;
  if (ns > max_ns_) max_ns_ = ns;
}

void LatencyHistogram::RecordSeconds(double seconds) {
  RecordNs(seconds <= 0.0
               ? 0
               : static_cast<uint64_t>(std::llround(seconds * 1e9)));
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  if (other.max_ns_ > max_ns_) max_ns_ = other.max_ns_;
}

double LatencyHistogram::MeanMs() const {
  return count_ == 0
             ? 0.0
             : static_cast<double>(sum_ns_) / static_cast<double>(count_) /
                   1e6;
}

uint64_t LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) return 0;
  // The nearest-rank sample has 0-based index `rank` in the sorted value
  // sequence; cumulative counts walk that sequence bucket by bucket.
  const uint64_t rank = NearestRankIndex(p, static_cast<size_t>(count_));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts_[i];
    if (cumulative > rank) return BucketLowerBoundNs(i);
  }
  return BucketLowerBoundNs(kNumBuckets - 1);  // unreachable
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

const char* WorkloadOpName(WorkloadOp op) {
  switch (op) {
    case WorkloadOp::kCore:
      return "core";
    case WorkloadOp::kSpectrum:
      return "spectrum";
    case WorkloadOp::kDensest:
      return "densest";
    case WorkloadOp::kComponent:
      return "component";
    case WorkloadOp::kCommunity:
      return "community";
    case WorkloadOp::kWrite:
      return "write";
  }
  return "unknown";
}

double WorkloadMix::Ratio(WorkloadOp op) const {
  switch (op) {
    case WorkloadOp::kCore:
      return core;
    case WorkloadOp::kSpectrum:
      return spectrum;
    case WorkloadOp::kDensest:
      return densest;
    case WorkloadOp::kComponent:
      return component;
    case WorkloadOp::kCommunity:
      return community;
    case WorkloadOp::kWrite:
      return write;
  }
  return 0.0;
}

bool WorkloadMix::Validate(std::string* error) const {
  double sum = 0.0;
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    const WorkloadOp op = static_cast<WorkloadOp>(i);
    const double r = Ratio(op);
    if (r < 0.0) {
      if (error != nullptr) {
        *error = std::string("mix ratio for '") + WorkloadOpName(op) +
                 "' is negative";
      }
      return false;
    }
    sum += r;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    if (error != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "mix ratios must sum to 1 (got %.6f)", sum);
      *error = buf;
    }
    return false;
  }
  return true;
}

bool ValidateWorkloadOptions(const WorkloadOptions& options,
                             std::string* error) {
  if (!options.mix.Validate(error)) return false;
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (options.clients < 1) return fail("clients must be >= 1");
  if (options.ops_per_client < 1) return fail("ops-per-client must be >= 1");
  if (options.zipf_skew < 0.0) return fail("zipf skew must be >= 0");
  if (options.write_batch_edits < 1) {
    return fail("write-batch edits must be >= 1");
  }
  if (options.community_size < 1) return fail("community size must be >= 1");
  return true;
}

// ---------------------------------------------------------------------------
// RunWorkload
// ---------------------------------------------------------------------------

namespace {

/// Shared driver state the closed-loop clients fold into. Workers own
/// purely local per-class reports during the run; everything cross-thread
/// is guarded here.
struct DriverShared {
  Mutex mu;
  std::array<OpClassReport, kNumWorkloadOps> merged GUARDED_BY(mu);
  /// Serializes write ops when collecting, so the (ApplyBatch, epoch read)
  /// pair is atomic and the recorded epochs give the exact replay order.
  Mutex collect_mu;
  std::vector<AppliedBatch> applied GUARDED_BY(collect_mu);
};

/// Draws an op class from the mix's cumulative distribution.
WorkloadOp DrawOp(const std::array<double, kNumWorkloadOps>& cumulative,
                  Rng* rng) {
  const double u = rng->NextDouble();
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    if (u < cumulative[i]) return static_cast<WorkloadOp>(i);
  }
  return static_cast<WorkloadOp>(kNumWorkloadOps - 1);
}

/// Churn batch for one write op: inserts between sampled vertices, deletes
/// of existing edges of sampled vertices — popular keys mutate more, the
/// graph stays roughly the same size.
std::vector<EdgeEdit> MakeWriteBatch(const ShardedServiceView& view,
                                     const ZipfSampler& zipf, int edits,
                                     Rng* rng) {
  const Graph& graph = view.graph();
  const VertexId n = graph.num_vertices();
  std::vector<EdgeEdit> batch;
  batch.reserve(static_cast<size_t>(edits));
  for (int e = 0; e < edits; ++e) {
    const VertexId u = std::min<VertexId>(zipf.Sample(rng), n - 1);
    const auto neighbors = graph.neighbors(u);
    if (e % 2 == 1 && !neighbors.empty()) {
      batch.push_back(EdgeEdit::Delete(
          u, neighbors[rng->NextIndex(
                 static_cast<uint32_t>(neighbors.size()))]));
    } else {
      VertexId w = std::min<VertexId>(zipf.Sample(rng), n - 1);
      if (w == u) w = (w + 1) % n;  // self-loops would be dropped anyway
      if (w != u) batch.push_back(EdgeEdit::Insert(u, w));
    }
  }
  return batch;
}

}  // namespace

WorkloadReport RunWorkload(ShardedHCoreService* service,
                           const WorkloadOptions& options) {
  std::string error;
  if (!ValidateWorkloadOptions(options, &error)) {
    std::fprintf(stderr, "RunWorkload: %s\n", error.c_str());
    HCORE_CHECK(false && "RunWorkload: invalid WorkloadOptions");
  }
  const VertexId n = service->view()->graph().num_vertices();
  HCORE_CHECK(n > 0 && "RunWorkload: empty graph");
  const int max_h = service->max_h();

  std::array<double, kNumWorkloadOps> cumulative{};
  double acc = 0.0;
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    acc += options.mix.Ratio(static_cast<WorkloadOp>(i));
    cumulative[i] = acc;
  }
  cumulative[kNumWorkloadOps - 1] = 1.0;

  const ZipfSampler zipf(n, options.zipf_skew);
  DriverShared shared;
  ThreadPool pool(options.clients);

  WallTimer wall;
  pool.ForEachWorker(options.clients, [&](int worker) {
    // Per-client deterministic stream: the op/key sequence depends only on
    // (seed, worker), never on timing.
    Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x243F6A8885A308D3ull +
            static_cast<uint64_t>(worker) * 7919);
    std::array<OpClassReport, kNumWorkloadOps> local;
    for (int i = 0; i < options.ops_per_client; ++i) {
      const WorkloadOp op = DrawOp(cumulative, &rng);
      const VertexId v = std::min<VertexId>(zipf.Sample(&rng), n - 1);
      const int h = 1 + static_cast<int>(rng.NextIndex(
                            static_cast<uint32_t>(max_h)));
      WallTimer op_timer;
      switch (op) {
        case WorkloadOp::kCore:
          (void)service->CoreOf(v, h);
          break;
        case WorkloadOp::kSpectrum:
          (void)service->view()->Spectrum(v);
          break;
        case WorkloadOp::kDensest:
          (void)service->view()->TopDensestLevels(h, 4);
          break;
        case WorkloadOp::kComponent: {
          // "My community" shape: the component of v's own innermost core.
          const uint32_t k = std::max(1u, service->CoreOf(v, h));
          (void)service->CoreComponentOf(v, k, h);
          break;
        }
        case WorkloadOp::kCommunity: {
          auto view = service->view();
          const auto neighbors = view->graph().neighbors(v);
          std::vector<VertexId> query = {v};
          for (size_t j = 0;
               j < neighbors.size() &&
               query.size() < static_cast<size_t>(options.community_size);
               ++j) {
            query.push_back(neighbors[j]);
          }
          (void)service->Community(query, h);
          break;
        }
        case WorkloadOp::kWrite: {
          std::vector<EdgeEdit> batch = MakeWriteBatch(
              *service->view(), zipf, options.write_batch_edits, &rng);
          if (options.collect_applied_batches) {
            MutexLock lock(shared.collect_mu);
            const size_t applied = service->ApplyBatch(batch);
            if (applied > 0) {
              shared.applied.push_back(
                  {service->view()->service_epoch(), std::move(batch)});
            }
          } else {
            (void)service->ApplyBatch(batch);
          }
          break;
        }
      }
      const int op_index = static_cast<int>(op);
      local[op_index].latency.RecordSeconds(op_timer.ElapsedSeconds());
      ++local[op_index].count;
    }
    MutexLock lock(shared.mu);
    for (int c = 0; c < kNumWorkloadOps; ++c) {
      shared.merged[c].count += local[c].count;
      shared.merged[c].latency.Merge(local[c].latency);
    }
  });

  WorkloadReport report;
  report.seconds = wall.ElapsedSeconds();
  report.total_ops = static_cast<uint64_t>(options.clients) *
                     static_cast<uint64_t>(options.ops_per_client);
  report.qps = report.seconds > 0
                   ? static_cast<double>(report.total_ops) / report.seconds
                   : 0.0;
  {
    MutexLock lock(shared.mu);
    report.per_op = std::move(shared.merged);
  }
  {
    MutexLock lock(shared.collect_mu);
    report.applied_batches = std::move(shared.applied);
  }
  std::sort(report.applied_batches.begin(), report.applied_batches.end(),
            [](const AppliedBatch& a, const AppliedBatch& b) {
              return a.epoch < b.epoch;
            });
  return report;
}

// ---------------------------------------------------------------------------
// SaturationSearch
// ---------------------------------------------------------------------------

SaturationResult SaturationSearch(ShardedHCoreService* service,
                                  const WorkloadOptions& base,
                                  int max_clients) {
  HCORE_CHECK(max_clients >= 1 && "SaturationSearch: max_clients >= 1");
  const uint64_t total_ops = static_cast<uint64_t>(base.clients) *
                             static_cast<uint64_t>(base.ops_per_client);
  SaturationResult out;
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    WorkloadOptions step = base;
    step.clients = clients;
    step.ops_per_client = static_cast<int>(
        std::max<uint64_t>(1, total_ops / static_cast<uint64_t>(clients)));
    step.seed = base.seed + static_cast<uint64_t>(clients);
    step.collect_applied_batches = false;
    const WorkloadReport report = RunWorkload(service, step);
    out.steps.push_back({clients, report.qps});
    if (report.qps > out.peak_qps * 1.05) {
      out.peak_qps = report.qps;
      out.saturation_clients = clients;
    } else {
      break;  // QPS plateaued (or regressed): saturation reached
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// CompareToScratchOracle
// ---------------------------------------------------------------------------

namespace {

template <typename T>
void LogMismatch(const OracleMismatches& so_far, const char* what, VertexId v,
                 int h, const T& served, const T& scratch) {
  if (so_far.total() < 5) {
    std::fprintf(stderr,
                 "oracle mismatch: %s(v=%u, h=%d): served=%llu scratch=%llu\n",
                 what, v, h, static_cast<unsigned long long>(served),
                 static_cast<unsigned long long>(scratch));
  }
}

/// v's component of G[C_k] by BFS over the vertices with core >= k, sorted;
/// empty when core[v] < k.
std::vector<VertexId> ScratchComponent(const Graph& g,
                                       const std::vector<uint32_t>& core,
                                       VertexId v, uint32_t k) {
  if (core[v] < k) return {};
  std::vector<uint8_t> seen(g.num_vertices(), 0);
  std::vector<VertexId> out = {v};
  seen[v] = 1;
  for (size_t i = 0; i < out.size(); ++i) {
    for (VertexId w : g.neighbors(out[i])) {
      if (seen[w] == 0 && core[w] >= k) {
        seen[w] = 1;
        out.push_back(w);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

OracleMismatches CompareToScratchOracle(const Graph& truth,
                                        const ShardedServiceView& view,
                                        const OracleCheckOptions& check) {
  OracleMismatches out;
  const Graph& served = view.graph();
  if (served.num_vertices() != truth.num_vertices() ||
      served.num_edges() != truth.num_edges()) {
    std::fprintf(stderr, "oracle mismatch: graph n=%u m=%llu vs n=%u m=%llu\n",
                 served.num_vertices(),
                 static_cast<unsigned long long>(served.num_edges()),
                 truth.num_vertices(),
                 static_cast<unsigned long long>(truth.num_edges()));
    ++out.graph;
    // Different id ranges make every per-vertex comparison meaningless.
    if (served.num_vertices() != truth.num_vertices()) return out;
  }

  const VertexId n = truth.num_vertices();
  const int max_h = view.max_h();
  std::vector<std::vector<uint32_t>> scratch(max_h);
  for (int h = 1; h <= max_h; ++h) {
    KhCoreOptions options;
    options.h = h;
    scratch[h - 1] = KhCoreDecomposition(truth, options).core;
  }

  for (VertexId v = 0; v < n; ++v) {
    const std::vector<uint32_t> spectrum = view.Spectrum(v);
    for (int h = 1; h <= max_h; ++h) {
      if (spectrum[h - 1] != scratch[h - 1][v]) {
        LogMismatch(out, "core", v, h, spectrum[h - 1], scratch[h - 1][v]);
        ++out.spectra;
        break;
      }
    }
  }
  if (n == 0) return out;

  Rng rng(check.seed);
  for (size_t i = 0; i < check.component_samples; ++i) {
    const VertexId v = rng.NextIndex(n);
    const int h = 1 + static_cast<int>(rng.NextIndex(
                          static_cast<uint32_t>(max_h)));
    const std::vector<uint32_t>& core = scratch[h - 1];
    const uint32_t k = i % 2 == 0 ? std::max(1u, core[v]) : core[v] / 2;
    const std::vector<VertexId> got = view.CoreComponentOf(v, k, h);
    const std::vector<VertexId> want = ScratchComponent(truth, core, v, k);
    if (got != want) {
      LogMismatch(out, "component-size", v, h, got.size(), want.size());
      ++out.components;
    }
  }

  for (size_t i = 0; i < check.community_samples; ++i) {
    const VertexId v = rng.NextIndex(n);
    const int h = 1 + static_cast<int>(rng.NextIndex(
                          static_cast<uint32_t>(max_h)));
    const auto neighbors = truth.neighbors(v);
    std::vector<VertexId> query = {v};
    if (!neighbors.empty()) query.push_back(neighbors[0]);
    const CommunityResult got = view.Community(query, h);
    const CommunityResult want =
        DistanceCocktailPartyFromCores(truth, query, h, scratch[h - 1]);
    if (got.feasible != want.feasible || got.vertices != want.vertices ||
        got.min_h_degree != want.min_h_degree ||
        got.core_level != want.core_level) {
      LogMismatch(out, "community-size", v, h, got.vertices.size(),
                  want.vertices.size());
      ++out.communities;
    }
  }
  return out;
}

Graph ReplayAppliedBatches(Graph initial, const WorkloadReport& report) {
  for (const AppliedBatch& batch : report.applied_batches) {
    initial = initial.WithEdits(batch.edits);
  }
  return initial;
}

}  // namespace hcore
