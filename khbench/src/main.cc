// khbench: one command that runs a named workload, checks every answer it
// checks against an oracle, and prints its metrics. See README.md.
//
//   khbench --workload decompose|serve-read|serve-mixed --seed N
//           --seconds S --trace 0|1
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Lines before it, prefixed '#', are the human-readable
// report (raw and normalised values, sample counts, tail percentiles).
// Exits 1 when any answer is wrong or the run is otherwise invalid.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "host_ref.h"
#include "workloads.h"

namespace {

using namespace khb;

struct Args {
  std::string workload;
  RunConfig config;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      args->config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->config.seconds > 0.0 &&
                     args->config.seconds <= 600.0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args->config.trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace;
}

// The end-to-end metrics every workload reports, in BENCHMARK.json order.
// What each slot means per workload is in README.md. Every slot but memory
// is host-normalised: raw * (kHostRefNominalMs / host_ref_ms)^kHostRefElasticity
// (a rate inversely). Every run prints the raw value as raw.<name>, and the
// fully normalised one (elasticity 1), so the elasticity can be re-measured
// from any set of runs.
struct Slot {
  const char* name;
  const char* unit;
  bool normalised;
};
constexpr int kNumSlots = 7;
constexpr Slot kSlots[kNumSlots] = {
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", false},
    {"ops_per_s", "1/s", true},
    {"primary_p50_ms", "ms", true},
    {"primary_tail_ms", "ms", true},
    {"secondary_p50_ms", "ms", true},
    {"secondary_tail_ms", "ms", true},
};

std::vector<double> RawSlots(const Outcome& o) {
  return {o.setup_s,      o.peak_rss_mb,    o.ops_per_s,     o.primary.p50,
          o.primary.tail, o.secondary.p50, o.secondary.tail};
}

double Normalise(const Slot& slot, double raw, double ref_ms, double elasticity) {
  return std::strcmp(slot.unit, "1/s") == 0
             ? NormalizeRate(raw, ref_ms, kHostRefNominalMs, elasticity)
             : NormalizeTime(raw, ref_ms, kHostRefNominalMs, elasticity);
}

struct WorkloadSpec {
  const char* name;
  Outcome (*run)(const RunConfig&, HostRef*);
};
constexpr WorkloadSpec kWorkloads[] = {
    {"decompose", RunDecompose},
    {"serve-read", RunServeRead},
    {"serve-mixed", RunServeMixed},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const WorkloadSpec* spec = nullptr;
  if (!ParseArgs(argc, argv, &args) ||
      (spec = FindWorkload(args.workload)) == nullptr) {
    std::fprintf(stderr,
                 "usage: khbench --workload decompose|serve-read|serve-mixed "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  HostRef ref;
  (void)ref.Sweep(0, 2048);  // fault the reference graph in before timing

  Outcome outcome = spec->run(args.config, &ref);
  const double host_ref_ms = ref.MedianMs();

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.config.seed),
              args.config.seconds, args.config.trace ? 1 : 0);
  for (const std::string& note : outcome.notes) std::printf("# %s\n", note.c_str());
  std::printf("# host_ref_ms=%.6f (nominal %.3f, %zu slices)\n", host_ref_ms,
              kHostRefNominalMs, ref.slice_ms().size());
  std::printf("# primary: n=%zu tail=p%.2f; secondary: n=%zu tail=p%.2f\n",
              outcome.primary.count, outcome.primary.tail_percentile,
              outcome.secondary.count, outcome.secondary.tail_percentile);

  std::vector<Metric> e2e;
  const std::vector<double> raw = RawSlots(outcome);
  for (int i = 0; i < kNumSlots; ++i) {
    const Slot& slot = kSlots[i];
    const double value =
        slot.normalised ? Normalise(slot, raw[i], host_ref_ms, kHostRefElasticity) : raw[i];
    e2e.push_back({slot.name, value, slot.unit});
    std::printf("# %-18s %14.6f %-4s raw.%s=%.6f normalised=%.6f\n", slot.name,
                value, slot.unit, slot.name, raw[i],
                Normalise(slot, raw[i], host_ref_ms, 1.0));
  }

  std::vector<Metric> metrics = e2e;
  if (args.config.trace) {
    metrics.clear();
    DecomposeCensus(args.config.seed, &metrics, &outcome.problems);
    ServeReadCensus(args.config.seed, &metrics, &outcome.problems);
    ServeMixedCensus(args.config.seed, &metrics, &outcome.problems);
    metrics.push_back({"host.ref_ms", host_ref_ms, "ms"});
    const double overhead = 100.0 *
                            (outcome.traced_primary_p50_ms -
                             outcome.untraced_primary_p50_ms) /
                            outcome.untraced_primary_p50_ms;
    metrics.push_back({"tracing.overhead_pct", overhead, "%"});
    std::printf("# tracing overhead: primary p50 %.6f ms traced vs %.6f ms untraced\n",
                outcome.traced_primary_p50_ms, outcome.untraced_primary_p50_ms);
    for (const Metric& m : metrics) {
      std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) outcome.problems.push_back(m.name + " is not finite");
  }
  for (const std::string& p : outcome.problems) {
    std::printf("# PROBLEM: %s\n", p.c_str());
  }
  const bool correct = outcome.problems.empty();
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) m.value = -1.0;
  }
  std::printf("%s\n", ResultJson(correct, outcome.attempted, outcome.failed,
                                 metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
