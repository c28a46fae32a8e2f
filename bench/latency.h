// Shared latency summarization for the bench binaries.
//
// One percentile implementation for every bench that collects raw per-query
// latencies: sort once, index by hcore::NearestRankIndex (serve/workload.h)
// — the exact nearest-rank formula ceil(p*n)-1, 0-based. The tempting
// floor(p*n) index is one rank HIGH for most n (p50 of 100 samples returns
// the 51st value; p99 of fewer than 100 samples returns the max even when a
// true p99 rank exists), inflating every percentile. The workload driver's
// LatencyHistogram uses the same rank formula, so histogram and
// sorted-vector summaries agree at bucket resolution (locked by
// tests/workload_test.cc).

#ifndef HCORE_BENCH_LATENCY_H_
#define HCORE_BENCH_LATENCY_H_

#include <algorithm>
#include <vector>

#include "serve/workload.h"

namespace hcore::bench {

/// Mean and exact nearest-rank percentiles over one measurement phase.
struct LatencySummary {
  double qps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Sorts `latencies_ms` in place and folds it into a LatencySummary.
/// Percentiles are the exact nearest-rank samples (never interpolated).
inline LatencySummary SummarizeLatencies(double qps,
                                         std::vector<double>* latencies_ms) {
  LatencySummary out;
  out.qps = qps;
  if (latencies_ms->empty()) return out;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  double sum = 0.0;
  for (double ms : *latencies_ms) sum += ms;
  const size_t n = latencies_ms->size();
  out.mean_ms = sum / static_cast<double>(n);
  out.p50_ms = (*latencies_ms)[NearestRankIndex(0.50, n)];
  out.p99_ms = (*latencies_ms)[NearestRankIndex(0.99, n)];
  out.p999_ms = (*latencies_ms)[NearestRankIndex(0.999, n)];
  return out;
}

}  // namespace hcore::bench

#endif  // HCORE_BENCH_LATENCY_H_
