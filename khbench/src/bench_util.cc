#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace khb {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix64(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Bounded(uint64_t bound) {
  // Lemire's multiply-shift; the slight bias is irrelevant for load shaping
  // and keeps the stream one draw per value (so it is easy to reason about).
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Rng::Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t SubSeed(uint64_t seed, uint64_t label) {
  uint64_t x = seed ^ (label * 0xD1B54A32D192ED03ull);
  SplitMix64(&x);
  return SplitMix64(&x);
}

Zipf::Zipf(uint32_t n, double skew) : cdf_(n) {
  double acc = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r) + 1.0, -skew);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;
}

uint32_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Double();
  return static_cast<uint32_t>(
      std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
}

size_t NearestRankIndex(double p, size_t n) {
  double rank = std::ceil(p * static_cast<double>(n));
  if (rank < 1.0) rank = 1.0;
  const size_t r = static_cast<size_t>(rank);
  return (r > n ? n : r) - 1;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  s.p50 = samples[NearestRankIndex(0.5, n)];
  // Highest rank i with n - 1 - i >= kTailBeyond; with too few samples the
  // tail degenerates to the median rather than to the maximum.
  const size_t median = NearestRankIndex(0.5, n);
  const size_t i = n > kTailBeyond ? std::max(median, n - 1 - kTailBeyond) : median;
  s.tail = samples[i];
  s.tail_percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return s;
}

double Median(std::vector<double> samples) { return Summarize(std::move(samples)).p50; }

Summary SummarizeWindowed(const std::vector<const std::vector<double>*>& clients,
                          size_t window) {
  std::vector<double> all;
  std::vector<double> tails;
  std::vector<double> percentiles;
  for (const std::vector<double>* samples : clients) {
    all.insert(all.end(), samples->begin(), samples->end());
    const size_t n = samples->size();
    const size_t windows = n / window;
    for (size_t w = 0; w < windows; ++w) {
      const Summary s = Summarize(std::vector<double>(
          samples->begin() + static_cast<std::ptrdiff_t>(n * w / windows),
          samples->begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows)));
      tails.push_back(s.tail);
      percentiles.push_back(s.tail_percentile);
    }
  }
  Summary out = Summarize(std::move(all));
  if (tails.size() >= kMinTailWindows) {
    std::sort(tails.begin(), tails.end());
    std::sort(percentiles.begin(), percentiles.end());
    out.tail = tails[tails.size() / 2];
    out.tail_percentile = percentiles[percentiles.size() / 2];
  }
  return out;
}

double NormalizeTime(double raw, double ref_ms, double nominal_ms, double elasticity) {
  return raw * std::pow(nominal_ms / ref_ms, elasticity);
}

double NormalizeRate(double raw, double ref_ms, double nominal_ms, double elasticity) {
  return raw * std::pow(ref_ms / nominal_ms, elasticity);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024.0 / 1e6;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_tracing{false};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};
Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

thread_local std::vector<SpanRecord>* t_buffer = nullptr;

std::vector<SpanRecord>* ThreadBuffer() {
  if (t_buffer == nullptr) {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    t_buffer = r.buffers.back().get();
    t_buffer->reserve(1 << 16);
  }
  return t_buffer;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name)
    : name_(name), on_(g_tracing.load(std::memory_order_relaxed)) {
  if (on_) start_ = Clock::now();
}

Span::~Span() {
  if (on_) ThreadBuffer()->push_back({name_, SecondsSince(start_)});
}

std::vector<SpanRecord> TakeSpans() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> out;
  for (const auto& b : r.buffers) {
    out.insert(out.end(), b->begin(), b->end());
    b->clear();
  }
  return out;
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s.seconds);
  }
  return out;
}

double SpanTotal(const std::vector<SpanRecord>& spans, const std::string& name) {
  double total = 0.0;
  for (double s : SpanSeconds(spans, name)) total += s;
  return total;
}

double SpanMedian(const std::vector<SpanRecord>& spans, const std::string& name) {
  const std::vector<double> s = SpanSeconds(spans, name);
  return s.empty() ? 0.0 : Median(s);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace khb
