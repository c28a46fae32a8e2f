// The three workloads and the per-layer census. See README.md for why each
// workload exists and which end-to-end metric each layer metric should move.
#ifndef KHBENCH_WORKLOADS_H_
#define KHBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "host_ref.h"

namespace khb {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Each workload builds its inputs at least kMinSetups times per run, and
/// keeps rebuilding (up to kMaxSetups) until kSetupBudgetS has been spent;
/// setup_s is the median, so neither one slow build nor timer granularity
/// on a cheap build decides it.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 25;
inline constexpr double kSetupBudgetS = 1.0;
inline bool MoreSetups(const std::vector<double>& setups) {
  double spent = 0.0;
  for (double s : setups) spent += s;
  return setups.size() < kMinSetups ||
         (spent < kSetupBudgetS && setups.size() < kMaxSetups);
}

/// Workloads reset the peak resident set right before their timed loop, so
/// peak_rss_mb is the peak while the measured operations run (everything
/// still resident from setup included). Where the kernel has no reset, the
/// report says so and the peak covers the whole process.
inline constexpr char kPeakRssNotReset[] =
    "peak RSS could not be reset: peak_rss_mb includes setup";

/// What one workload run measured. The end-to-end values are raw; main.cc
/// applies the host normalisation.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Wrong answers, count drift, or an unkept schedule; each entry is one
  /// human-readable reason. Non-empty means the run is not valid.
  std::vector<std::string> problems;

  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double ops_per_s = 0.0;
  Summary primary;    // ms
  Summary secondary;  // ms
  /// With tracing on, the primary op's median with spans recorded and
  /// without (windows alternate through the run), in ms.
  double traced_primary_p50_ms = 0.0;
  double untraced_primary_p50_ms = 0.0;

  /// Extra lines for the human-readable report.
  std::vector<std::string> notes;
};

Outcome RunDecompose(const RunConfig& config, HostRef* ref);
Outcome RunServeRead(const RunConfig& config, HostRef* ref);
Outcome RunServeMixed(const RunConfig& config, HostRef* ref);

/// Per-layer census: calls each layer's public functions a fixed number of
/// times under spans, on the inputs of the workload the layer belongs to.
/// Every traced run runs all three so it reports every per-layer metric.
void DecomposeCensus(uint64_t seed, std::vector<Metric>* layers,
                     std::vector<std::string>* problems);
void ServeReadCensus(uint64_t seed, std::vector<Metric>* layers,
                     std::vector<std::string>* problems);
void ServeMixedCensus(uint64_t seed, std::vector<Metric>* layers,
                      std::vector<std::string>* problems);

}  // namespace khb

#endif  // KHBENCH_WORKLOADS_H_
