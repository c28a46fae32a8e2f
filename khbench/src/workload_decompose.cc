// `decompose`: single-threaded KhCoreDecomposition (kAuto) repeated on two
// Table-1 stand-ins. Nearly all of its time is traversal, engine and core;
// it never touches index or serve.

#include <cstdio>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/classic_core.h"
#include "core/kh_core.h"
#include "engine/vertex_mask.h"
#include "graph/ordering.h"
#include "inputs.h"
#include "traversal/h_degree.h"
#include "workloads.h"

namespace khb {

namespace {

using hcore::Graph;
using hcore::KhCoreAlgorithm;
using hcore::KhCoreResult;

struct DecomposeInput {
  const char* label;
  int h;
  Graph graph;
};

// The benchmark draws both stand-ins' edges; BuildInputs hands them to the
// library. Only the second step is setup work of the program.
std::vector<EdgeList> DrawInputs(uint64_t seed) {
  std::vector<EdgeList> drawn;
  drawn.push_back(MakeSocial(seed));
  drawn.push_back(MakeRoad(seed));
  return drawn;
}

std::vector<DecomposeInput> BuildInputs(const std::vector<EdgeList>& drawn) {
  std::vector<DecomposeInput> inputs;
  inputs.push_back({"social_h2", 2, BuildGraph(drawn[0])});
  inputs.push_back({"road_h3", 3, BuildGraph(drawn[1])});
  return inputs;
}

hcore::KhCoreOptions Options(int h, KhCoreAlgorithm algorithm, int threads = 1) {
  hcore::KhCoreOptions o;
  o.h = h;
  o.algorithm = algorithm;
  o.num_threads = threads;
  return o;
}

KhCoreResult Decompose(const DecomposeInput& in, KhCoreAlgorithm algorithm,
                       int threads = 1) {
  Span span("core.decompose");
  return hcore::KhCoreDecomposition(in.graph, Options(in.h, algorithm, threads));
}

// The Table-3 work counters of one single-threaded run. They depend only on
// the graph and the algorithm, so they must repeat exactly.
struct Counters {
  uint64_t visited = 0;
  uint64_t hdegree = 0;
  uint64_t decrements = 0;
  uint64_t pops = 0;
  uint32_t partitions = 0;
  bool operator==(const Counters&) const = default;
};

Counters CountersOf(const hcore::KhCoreStats& s) {
  return {s.visited_vertices, s.hdegree_computations, s.decrement_updates,
          s.pops, s.partitions};
}

std::string Describe(const Counters& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "visited=%llu hdegree=%llu decrements=%llu pops=%llu "
                "partitions=%u",
                static_cast<unsigned long long>(c.visited),
                static_cast<unsigned long long>(c.hdegree),
                static_cast<unsigned long long>(c.decrements),
                static_cast<unsigned long long>(c.pops), c.partitions);
  return buf;
}

}  // namespace

Outcome RunDecompose(const RunConfig& config, HostRef* ref) {
  Outcome out;
  std::vector<DecomposeInput> inputs;
  std::vector<double> setups;
  {
    const std::vector<EdgeList> drawn = DrawInputs(config.seed);
    while (MoreSetups(setups)) {
      inputs.clear();
      const Clock::time_point t0 = Clock::now();
      inputs = BuildInputs(drawn);
      setups.push_back(SecondsSince(t0));
    }
  }
  out.setup_s = Median(setups);
  for (const DecomposeInput& in : inputs) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: n=%u m=%llu digest=%016llx", in.label,
                  in.graph.num_vertices(),
                  static_cast<unsigned long long>(in.graph.num_edges()),
                  static_cast<unsigned long long>(GraphDigest(in.graph)));
    out.notes.push_back(buf);
  }

  // Oracle: the other exact algorithm, run untimed after the first timed
  // run shows which one kAuto picked (h-LB+UB iff it ran partitions).
  std::vector<std::vector<uint32_t>> oracle(inputs.size());
  std::vector<Counters> first(inputs.size());
  std::vector<std::vector<double>> ms(inputs.size());
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  double busy_s = 0.0;
  if (!ResetPeakRss()) out.notes.push_back(kPeakRssNotReset);
  const Clock::time_point start = Clock::now();
  for (uint64_t rep = 0; rep < 2 || SecondsSince(start) < config.seconds; ++rep) {
    // Traced runs alternate traced and untraced repetitions, so both halves
    // see the same host drift and their difference is the tracing overhead.
    const bool traced = config.trace && rep % 2 == 1;
    for (size_t i = 0; i < inputs.size(); ++i) {
      ref->Slice();
      SetTracing(traced);
      const Clock::time_point t0 = Clock::now();
      const KhCoreResult r = Decompose(inputs[i], KhCoreAlgorithm::kAuto);
      const double seconds = SecondsSince(t0);
      SetTracing(false);
      busy_s += seconds;
      ms[i].push_back(seconds * 1e3);
      if (i == 0 && config.trace) {
        (traced ? traced_ms : untraced_ms).push_back(seconds * 1e3);
      }
      ++out.attempted;

      const Counters counters = CountersOf(r.stats);
      if (rep == 0) {
        const KhCoreAlgorithm other = r.stats.partitions > 0
                                          ? KhCoreAlgorithm::kLb
                                          : KhCoreAlgorithm::kLbUb;
        oracle[i] = hcore::KhCoreDecomposition(inputs[i].graph,
                                               Options(inputs[i].h, other))
                        .core;
        first[i] = counters;
        out.notes.push_back(std::string(inputs[i].label) + ": kAuto ran " +
                            (r.stats.partitions > 0 ? "h-LB+UB" : "h-LB") +
                            ", oracle " + hcore::ToString(other) + "; " +
                            Describe(counters));
      }
      bool ok = true;
      if (r.core != oracle[i]) {
        out.problems.push_back(std::string(inputs[i].label) +
                               ": cores differ from the other exact algorithm");
        ok = false;
      }
      if (!(counters == first[i])) {
        out.problems.push_back(std::string(inputs[i].label) +
                               ": work counters drifted: " + Describe(counters) +
                               " vs " + Describe(first[i]));
        ok = false;
      }
      if (!ok) ++out.failed;
    }
  }
  out.peak_rss_mb = PeakRssMb();
  out.ops_per_s = static_cast<double>(out.attempted) / busy_s;
  out.primary = Summarize(ms[0]);
  out.secondary = Summarize(ms[1]);
  if (config.trace) {
    out.traced_primary_p50_ms = Median(traced_ms);
    out.untraced_primary_p50_ms = Median(untraced_ms);
  }
  return out;
}

void DecomposeCensus(uint64_t seed, std::vector<Metric>* layers,
                     std::vector<std::string>* problems) {
  TakeSpans();
  SetTracing(true);
  const std::vector<DecomposeInput> inputs = BuildInputs(DrawInputs(seed));
  constexpr int kReps = 3;
  constexpr uint32_t kSample = 2000;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const DecomposeInput& in : inputs) {
      const Graph& g = in.graph;
      {
        Span span("graph.relabel");
        const std::vector<hcore::VertexId> perm =
            hcore::ResolveVertexOrdering(g, hcore::VertexOrdering::kAuto);
        if (!perm.empty()) (void)g.Relabeled(perm);
      }
      hcore::HDegreeComputer degrees(g.num_vertices(), 1);
      degrees.coordinator().Assume();
      {
        Span span("core.bound_lb");
        const std::vector<uint32_t> lb1 = hcore::ComputeLB1(g, in.h, &degrees);
        (void)hcore::ComputeLB2(g, in.h, lb1, &degrees);
      }
      const hcore::VertexMask alive(g.num_vertices(), true);
      Rng rng(SubSeed(seed, 77));
      {
        Span span(in.h == 2 ? "traversal.hdeg_h2" : "traversal.hdeg_h3");
        for (uint32_t s = 0; s < kSample; ++s) {
          (void)degrees.Compute(g, alive, rng.Index(g.num_vertices()), in.h);
        }
      }
      if (in.h == 3) {
        std::vector<uint32_t> hdeg(g.num_vertices(), 0);
        degrees.ComputeAllAlive(g, alive, in.h, &hdeg);
        Span span("core.bound_ub");
        (void)hcore::ComputePowerGraphUpperBound(g, in.h, hdeg, &degrees);
      }
      {
        Span span("engine.classic_peel");
        (void)hcore::ClassicCoreDecomposition(g);
      }
    }
  }
  std::vector<KhCoreResult> results;
  for (const DecomposeInput& in : inputs) {
    results.push_back(Decompose(in, KhCoreAlgorithm::kAuto));
  }
  const KhCoreResult parallel = Decompose(inputs[0], KhCoreAlgorithm::kAuto, 2);
  SetTracing(false);
  const std::vector<SpanRecord> spans = TakeSpans();

  auto add = [&](const std::string& name, double value, const char* unit) {
    layers->push_back({name, value, unit});
  };
  add("graph.load_s", SpanTotal(spans, "graph.load"), "s");
  add("graph.relabel_s", SpanTotal(spans, "graph.relabel") / kReps, "s");
  add("core.bound_lb_s", SpanTotal(spans, "core.bound_lb") / kReps, "s");
  add("core.bound_ub_s", SpanTotal(spans, "core.bound_ub") / kReps, "s");
  add("traversal.hdeg_h2_us",
      SpanTotal(spans, "traversal.hdeg_h2") / kReps / kSample * 1e6, "us");
  add("traversal.hdeg_h3_us",
      SpanTotal(spans, "traversal.hdeg_h3") / kReps / kSample * 1e6, "us");
  add("engine.classic_peel_s", SpanTotal(spans, "engine.classic_peel") / kReps,
      "s");
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::string suffix = std::string(".") + inputs[i].label;
    const hcore::KhCoreStats& s = results[i].stats;
    add("core.visited_vertices" + suffix, static_cast<double>(s.visited_vertices),
        "count");
    add("core.hdegree_computations" + suffix,
        static_cast<double>(s.hdegree_computations), "count");
    add("core.decrement_updates" + suffix,
        static_cast<double>(s.decrement_updates), "count");
    add("engine.pops" + suffix, static_cast<double>(s.pops), "count");
  }
  add("core.partitions.road_h3", static_cast<double>(results[1].stats.partitions),
      "count");
  const std::vector<double> decompose_s = SpanSeconds(spans, "core.decompose");
  // decompose_s = {social 1t, road 1t, social 2t}.
  add("engine.parallel_speedup_2t", decompose_s[0] / decompose_s[2], "x");
  if (parallel.core != results[0].core) {
    problems->push_back("census: 2-thread cores differ from 1-thread cores");
  }
}

}  // namespace khb
