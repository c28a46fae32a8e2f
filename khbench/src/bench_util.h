// Shared plumbing of the benchmark: its own PRNG (so the load it generates
// never depends on library code), run-time statistics, host-drift
// normalisation, peak-memory probe, and the span tracer that times calls
// into the library from the outside.
#ifndef KHBENCH_BENCH_UTIL_H_
#define KHBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace khb {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

/// xoshiro256** seeded through SplitMix64. The benchmark's inputs (graphs,
/// op streams, edit streams) are drawn only from this generator.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Bounded(uint64_t bound);
  uint32_t Index(uint32_t bound) { return static_cast<uint32_t>(Bounded(bound)); }
  /// Uniform in [0, 1).
  double Double();
  bool Bernoulli(double p) { return Double() < p; }

 private:
  uint64_t s_[4];
};

/// Derives an independent stream seed from the run seed and a label.
uint64_t SubSeed(uint64_t seed, uint64_t label);

/// Zipf(s) over ranks [0, n): P(r) proportional to (r + 1)^-s.
class Zipf {
 public:
  Zipf(uint32_t n, double skew);
  uint32_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// 0-based nearest-rank index of percentile p in n sorted samples: the
/// smallest i with (i + 1) / n >= p, clamped to [0, n - 1].
size_t NearestRankIndex(double p, size_t n);

/// Median and tail of a latency sample. The tail is the highest
/// nearest-rank percentile that still has at least kTailBeyond samples
/// above it, so it is never decided by a handful of outliers.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // in (0, 100]; which percentile `tail` is
};
inline constexpr size_t kTailBeyond = 10;
Summary Summarize(std::vector<double> samples);
double Median(std::vector<double> samples);

/// Tail of latencies that several clients recorded, each list in time
/// order, for streams whose whole-run tail is decided by a few host stalls.
/// Each client's list is cut into windows of at least `window` consecutive
/// samples; `tail` and `tail_percentile` are the upper medians of the
/// windows' tails and percentiles. With fewer than kMinTailWindows windows
/// in all, the tail is that of all samples together. The p50 is always over
/// all samples.
inline constexpr size_t kMinTailWindows = 5;
Summary SummarizeWindowed(const std::vector<const std::vector<double>*>& clients,
                          size_t window);

/// Host-drift normalisation. `ref_ms` is the benchmark-owned reference
/// kernel's time in this run, `nominal_ms` its fixed nominal time. A
/// lower-is-better timing scales by (nominal / ref)^elasticity (a slow host
/// window is discounted); a rate scales by (ref / nominal)^elasticity.
/// Elasticity 1 assumes the workload slows exactly as much as the kernel,
/// 0 leaves the value raw.
double NormalizeTime(double raw, double ref_ms, double nominal_ms, double elasticity);
double NormalizeRate(double raw, double ref_ms, double nominal_ms, double elasticity);

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
double PeakRssMb();
/// Resets the peak to the current resident set (Linux clear_refs), so that
/// PeakRssMb() then reports the peak of what runs afterwards. Returns false
/// if the kernel does not offer the reset.
bool ResetPeakRss();

// ---------------------------------------------------------------------------
// Tracing. Spans (name and duration) are recorded only while tracing is
// enabled; a disabled Span costs one relaxed load. Each thread appends to its
// own buffer; TakeSpans() merges them once the workload threads have joined.
// ---------------------------------------------------------------------------

void SetTracing(bool on);
bool TracingEnabled();

struct SpanRecord {
  const char* name = nullptr;  // string literal
  double seconds = 0.0;
};

/// RAII span around one call into the library.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
  Clock::time_point start_;
};

/// Removes and returns every span recorded since the last call (all
/// threads' buffers, in thread order). Call only while no workload thread
/// is running.
std::vector<SpanRecord> TakeSpans();
/// Durations (seconds) of every recorded span with this name, their sum,
/// and their median (0 when there is none).
std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name);
double SpanTotal(const std::vector<SpanRecord>& spans, const std::string& name);
double SpanMedian(const std::vector<SpanRecord>& spans, const std::string& name);

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The single JSON object the benchmark prints as its last stdout line.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace khb

#endif  // KHBENCH_BENCH_UTIL_H_
