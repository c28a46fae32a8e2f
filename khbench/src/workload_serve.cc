// `serve-read` and `serve-mixed`: closed-loop readers (and, for serve-mixed,
// one open-loop writer) against the serving tier at its default single
// shard. Reads go through the public view API; every component and
// community answer in a fixed sample is re-derived afterwards by the
// benchmark's own BFS over the exact view the reader used, and the final
// core vectors are compared with a from-scratch decomposition.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/community.h"
#include "core/kh_core.h"
#include "index/hcore_index.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/sharded_service.h"
#include "workloads.h"

namespace khb {

namespace {

using hcore::Graph;
using hcore::ShardedHCoreService;
using hcore::ShardedServiceView;
using hcore::VertexId;
using ViewPtr = std::shared_ptr<const ShardedServiceView>;

// serve-read: big enough that adjacency plus core vectors overflow a 2 MiB
// L2 several times. serve-mixed: small enough to sit in L2, so writes are
// repair-bound rather than miss-bound.
constexpr uint32_t kReadVertices = 400000;
constexpr uint32_t kMixedVertices = 10000;
constexpr int kMaxH = 2;
constexpr int kReaders = 2;
// One write every 100 ms: about a third of what one writer sustains alone
// on the mixed substrate, so the epoch rate does not depend on write speed
// and a slower write shows as latency, not as fewer epochs.
constexpr double kWriteIntervalS = 0.1;
// A write starting more than this after its due time counts as failed; a
// run where over 1% of writes fail so is invalid.
constexpr double kLateLimitS = 1.0;
constexpr size_t kOpsPerReader = 1 << 18;
constexpr size_t kEditBatches = 4096;
// Every kCheckEvery[kind]-th answer of a kind is re-derived by the oracle
// right after it is timed, while the reader still holds its view. Checking
// in place keeps no old epochs alive (holding sampled views across a
// serve-mixed run tripled its peak RSS) and covers the whole run.
constexpr uint64_t kCheckEvery[kNumReadKinds] = {0, 0, 0, 64, 16};
// Traced runs flip tracing on and off in windows this long.
constexpr double kTraceWindowS = 0.5;
// The read whose traced and untraced medians give serve-read's tracing
// overhead (serve-mixed uses its writes).
constexpr ReadKind kPrimaryRead = ReadKind::kComponent;
// serve-read's component reads take ~5 us, so their whole-run tail (the
// 11th-largest of ~12k) is whichever host stall hit a read: over five seeds
// it moved between 0.11 and 0.33 ms. Their tail is taken per window of 500
// reads of one reader instead (each window's p98), upper median over the
// ~25 windows of a 20 s run. Per 1000 reads (p99) it still spread 0.21
// over ten seeds, against 0.08 per 500.
constexpr size_t kComponentTailWindow = 500;

hcore::ShardedServiceOptions ServiceOptions() {
  hcore::ShardedServiceOptions o;
  o.num_shards = 1;
  o.index.max_h = kMaxH;
  return o;
}

std::unique_ptr<ShardedHCoreService> BuildService(Graph g) {
  Span span("serve.build");
  auto service = std::make_unique<ShardedHCoreService>(std::move(g), ServiceOptions());
  // Warm the lazy per-level hierarchies and densest tables: the timed reads
  // measure serving, not first-touch construction.
  const ViewPtr view = service->view();
  for (int h = 1; h <= kMaxH; ++h) {
    (void)view->shard_snapshot(0).Hierarchy(h);
    (void)view->TopDensestLevels(h, 4);
  }
  return service;
}

std::vector<VertexId> CommunityQuery(const Graph& g, VertexId v) {
  std::vector<VertexId> query = {v};
  for (VertexId u : g.neighbors(v)) {
    if (query.size() >= kCommunityQuerySize) break;
    query.push_back(u);
  }
  return query;
}

struct CheckSample {
  ViewPtr view;
  ReadKind kind = ReadKind::kComponent;
  int h = 1;
  VertexId v = 0;
  uint32_t k = 0;
  std::vector<VertexId> query;
  hcore::CommunityResult community;
  std::vector<VertexId> component;
};

struct ReaderResult {
  std::vector<double> ms[kNumReadKinds];
  std::vector<double> traced_ms;    // primary read kind, traced windows
  std::vector<double> untraced_ms;  // primary read kind, untraced windows
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t sink = 0;
  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::vector<std::string> problems;     // the first few wrong answers
  std::vector<double> component_sizes;   // of the checked component answers
};

struct WriterResult {
  std::vector<double> latency_ms;  // completion minus due time
  std::vector<double> late_ms;     // start minus due time
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> lazy_builds;  // per superseded epoch
  uint64_t writes = 0;
  uint64_t errors = 0;
  uint64_t late_failures = 0;
  // Carried across segments (and in from the setup's warm-up).
  ChurnWindow churn;
  size_t next_spec = 0;
};

// Re-derives a kept answer with the benchmark's BFS over the view the reader
// used. Returns false, with a description, when the answer is wrong.
bool CheckAnswer(const CheckSample& c, std::string* problem) {
  const Graph& g = c.view->graph();
  const std::vector<uint32_t>& core = c.view->shard_snapshot(0).Cores(c.h);
  bool ok = true;
  if (c.kind == ReadKind::kComponent) {
    ok = CoreComponentBfs(g, core, c.v, c.k) == c.component;
  } else {
    const CommunityAnswer want = CommunityBfs(g, core, c.query);
    std::vector<VertexId> got = c.community.vertices;
    std::sort(got.begin(), got.end());
    ok = want.feasible == c.community.feasible &&
         (!want.feasible ||
          (want.k == c.community.core_level && want.vertices == got));
  }
  if (!ok) {
    *problem = std::string("wrong ") + ReadKindName(c.kind) + " answer for vertex " +
               std::to_string(c.v) + " at h=" + std::to_string(c.h);
  }
  return ok;
}

void ReaderLoop(ShardedHCoreService* service, const std::vector<ReadOp>& ops,
                const std::atomic<bool>* stop, ReaderResult* out) {
  // Resumes the stream where the previous segment stopped.
  uint64_t seen[kNumReadKinds] = {};
  for (size_t i = out->ops; !stop->load(std::memory_order_relaxed); ++i) {
    const ReadOp& op = ops[i % ops.size()];
    const int kind = static_cast<int>(op.kind);
    const bool traced = TracingEnabled();
    const bool keep = kCheckEvery[kind] > 0 && ++seen[kind] % kCheckEvery[kind] == 0;
    CheckSample sample;  // filled only for a kept answer
    const Clock::time_point t0 = Clock::now();
    try {
      ViewPtr view;
      {
        Span span("serve.view");
        view = service->view();
      }
      switch (op.kind) {
        case ReadKind::kCore: {
          Span span("serve.core");
          out->sink += view->CoreOf(op.v, op.h);
          break;
        }
        case ReadKind::kSpectrum: {
          Span span("serve.spectrum");
          out->sink += view->Spectrum(op.v).back();
          break;
        }
        case ReadKind::kDensest: {
          Span span("serve.densest");
          out->sink += view->TopDensestLevels(op.h, 4).size();
          break;
        }
        case ReadKind::kComponent: {
          const uint32_t k = std::max(1u, view->CoreOf(op.v, op.h));
          std::vector<VertexId> component;
          {
            Span span("serve.component");
            component = view->CoreComponentOf(op.v, k, op.h);
          }
          out->sink += component.size();
          if (keep) sample = {view, op.kind, op.h, op.v, k, {}, {}, std::move(component)};
          break;
        }
        case ReadKind::kCommunity: {
          std::vector<VertexId> query = CommunityQuery(view->graph(), op.v);
          hcore::CommunityResult result;
          {
            Span span("serve.community");
            result = view->Community(query, op.h);
          }
          out->sink += result.vertices.size();
          if (keep) {
            sample = {view, op.kind, op.h, op.v, 0, std::move(query), std::move(result), {}};
          }
          break;
        }
      }
    } catch (const std::exception&) {
      ++out->errors;
    }
    const double ms = SecondsSince(t0) * 1e3;
    out->ms[kind].push_back(ms);
    if (op.kind == kPrimaryRead) {
      (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
    }
    ++out->ops;
    if (sample.view != nullptr) {
      ++out->checked;
      if (sample.kind == ReadKind::kComponent) {
        out->component_sizes.push_back(static_cast<double>(sample.component.size()));
      }
      std::string problem;
      if (!CheckAnswer(sample, &problem)) {
        ++out->wrong;
        if (out->problems.size() < 10) out->problems.push_back(problem);
      }
    }
  }
}

void WriterLoop(ShardedHCoreService* service, const std::vector<BatchSpec>& specs,
                Clock::time_point begin, Clock::time_point end,
                WriterResult* out) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWriteIntervalS));
  const uint64_t first = out->writes;
  for (size_t i = 0;; ++i) {
    const Clock::time_point due = begin + interval * static_cast<int64_t>(i);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point start = Clock::now();
    const bool traced = TracingEnabled();
    const ViewPtr before = service->view();
    const std::vector<hcore::EdgeEdit> batch =
        out->churn.Next(before->graph(), specs[out->next_spec++ % specs.size()]);
    try {
      Span span("serve.apply_batch");
      (void)service->ApplyBatch(batch);
    } catch (const std::exception&) {
      ++out->errors;
    }
    const Clock::time_point done = Clock::now();
    const double late_s = SecondsBetween(due, start);
    const double ms = SecondsBetween(due, done) * 1e3;
    ++out->writes;
    out->late_ms.push_back(late_s * 1e3);
    out->latency_ms.push_back(ms);
    (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
    if (late_s > kLateLimitS) ++out->late_failures;
    // Lazy artifacts the superseded epoch built while it was current (the
    // setup epoch was warmed on purpose, so it is left out).
    if (first + i > 0) {
      out->lazy_builds.push_back(
          static_cast<double>(before->shard_snapshot(0).lazy_builds()));
    }
  }
}

struct LoopResult {
  std::vector<ReaderResult> readers = std::vector<ReaderResult>(kReaders);
  WriterResult writer;
  double seconds = 0.0;
};

// Runs kReaders closed-loop readers (and the open-loop writer when `specs`
// is non-null) for `seconds`, appending to `result`; streams resume where
// an earlier call stopped. With `trace` set, the calling thread flips
// tracing in windows so traced and untraced ops see the same host.
void RunLoop(ShardedHCoreService* service,
             const std::vector<std::vector<ReadOp>>& streams,
             const std::vector<BatchSpec>* specs, double seconds, bool trace,
             LoopResult* result) {
  std::atomic<bool> stop{false};
  const Clock::time_point begin = Clock::now();
  const Clock::time_point end =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, service, std::cref(streams[r]), &stop,
                         &result->readers[r]);
  }
  if (specs != nullptr) {
    threads.emplace_back(WriterLoop, service, std::cref(*specs), begin, end,
                         &result->writer);
  }
  bool traced = false;
  for (Clock::time_point now = Clock::now(); now < end; now = Clock::now()) {
    if (trace) {
      traced = !traced;
      SetTracing(traced);
    }
    std::this_thread::sleep_until(std::min(
        end, now + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(kTraceWindowS))));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  SetTracing(false);
  result->seconds += SecondsSince(begin);
}

// The timed loop runs in segments with host-reference slices between them,
// so the reference sees the same host as the workload but never competes
// with it for cores or memory bandwidth.
void RunSegments(ShardedHCoreService* service,
                 const std::vector<std::vector<ReadOp>>& streams,
                 const std::vector<BatchSpec>* specs,
                 double seconds, bool trace, HostRef* ref, LoopResult* result) {
  constexpr int kSegments = 10;
  constexpr int kSlicesBetween = 2;
  for (int s = 0; s < kSegments; ++s) {
    for (int i = 0; i < kSlicesBetween; ++i) ref->Slice();
    RunLoop(service, streams, specs, seconds / kSegments, trace, result);
  }
  for (int i = 0; i < kSlicesBetween; ++i) ref->Slice();
}

std::string Format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// Compares every level's served core vector with a from-scratch
// decomposition of the served graph. Returns the number of wrong levels.
uint64_t VerifyFinalCores(const ShardedServiceView& view,
                          std::vector<std::string>* problems) {
  uint64_t wrong = 0;
  for (int h = 1; h <= view.max_h(); ++h) {
    hcore::KhCoreOptions options;
    options.h = h;
    options.num_threads = 1;
    const std::vector<uint32_t> want =
        hcore::KhCoreDecomposition(view.graph(), options).core;
    if (want != view.shard_snapshot(0).Cores(h)) {
      ++wrong;
      problems->push_back("final core vector at h=" + std::to_string(h) +
                          " differs from a from-scratch decomposition");
    }
  }
  return wrong;
}

// Applies the first kChurnWindow batches (to `replay` too, when given) and
// points the writer at the next spec, so that timing starts in the churn's
// steady state, where every batch deletes what the batch kChurnWindow back
// inserted and inserts fresh pairs.
void WarmChurn(ShardedHCoreService* service, hcore::HCoreIndex* replay,
               const std::vector<BatchSpec>& specs, WriterResult* writer) {
  writer->churn = ChurnWindow();
  for (size_t b = 0; b < kChurnWindow; ++b) {
    const std::vector<hcore::EdgeEdit> batch =
        writer->churn.Next(service->view()->graph(), specs[b]);
    (void)service->ApplyBatch(batch);
    if (replay != nullptr) (void)replay->ApplyBatch(batch);
  }
  writer->next_spec = kChurnWindow;
}

std::vector<std::vector<ReadOp>> ReadStreams(uint32_t n, uint64_t seed) {
  std::vector<std::vector<ReadOp>> streams;
  for (int r = 0; r < kReaders; ++r) {
    streams.push_back(
        MakeReadStream(n, kMaxH, kOpsPerReader, seed, static_cast<uint64_t>(r) + 1));
  }
  return streams;
}

Outcome RunServe(const RunConfig& config, HostRef* ref, bool mixed) {
  Outcome out;
  const uint32_t n = mixed ? kMixedVertices : kReadVertices;
  const std::vector<BatchSpec> specs =
      mixed ? MakeEditStream(n, kEditBatches, config.seed)
            : std::vector<BatchSpec>{};
  std::unique_ptr<ShardedHCoreService> service;
  LoopResult loop;
  std::vector<double> setups;
  {
    // The benchmark draws the substrate once; each timed setup is the
    // library's work on it.
    const EdgeList drawn = MakeClustered(n, config.seed);
    while (MoreSetups(setups)) {
      service.reset();
      ref->Slice();
      const Clock::time_point t0 = Clock::now();
      service = BuildService(BuildGraph(drawn));
      if (mixed) WarmChurn(service.get(), nullptr, specs, &loop.writer);
      setups.push_back(SecondsSince(t0));
    }
  }
  out.setup_s = Median(setups);
  const std::vector<std::vector<ReadOp>> streams = ReadStreams(n, config.seed);
  {
    const Graph& g = service->view()->graph();
    char buf[128];
    std::snprintf(buf, sizeof buf, "substrate: n=%u m=%llu digest=%016llx",
                  g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
                  static_cast<unsigned long long>(GraphDigest(g)));
    out.notes.push_back(buf);
  }

  if (!ResetPeakRss()) out.notes.push_back(kPeakRssNotReset);
  RunSegments(service.get(), streams, mixed ? &specs : nullptr,
              config.seconds, config.trace, ref, &loop);
  out.peak_rss_mb = PeakRssMb();

  std::vector<double> by_kind[kNumReadKinds];  // ms, all readers
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  uint64_t reads = 0;
  uint64_t read_errors = 0;
  uint64_t checked = 0;
  uint64_t wrong = 0;
  for (const ReaderResult& r : loop.readers) {
    for (int k = 0; k < kNumReadKinds; ++k) {
      by_kind[k].insert(by_kind[k].end(), r.ms[k].begin(), r.ms[k].end());
    }
    traced_ms.insert(traced_ms.end(), r.traced_ms.begin(), r.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), r.untraced_ms.begin(),
                       r.untraced_ms.end());
    reads += r.ops;
    read_errors += r.errors;
    checked += r.checked;
    wrong += r.wrong;
    out.problems.insert(out.problems.end(), r.problems.begin(), r.problems.end());
  }
  const WriterResult& w = loop.writer;
  if (mixed) {
    traced_ms = w.traced_ms;
    untraced_ms = w.untraced_ms;
  }
  const uint64_t final_wrong = VerifyFinalCores(*service->view(), &out.problems);
  if (read_errors + w.errors > 0) {
    out.problems.push_back(std::to_string(read_errors + w.errors) +
                           " operations raised an error");
  }
  if (w.late_failures * 100 > w.writes) {
    out.problems.push_back(
        "writer could not keep its schedule: " + std::to_string(w.late_failures) +
        " of " + std::to_string(w.writes) + " writes started over 1 s late");
  }
  out.attempted = reads + w.writes;
  out.failed = read_errors + wrong + w.errors + w.late_failures + final_wrong;
  if (mixed) {
    out.ops_per_s = static_cast<double>(reads) / loop.seconds;
  } else {
    // serve-read's closed loop spends most of its time in the few community
    // reads, so its throughput is taken over the point reads alone (core,
    // spectrum, densest): point reads per second of the time readers spent
    // in them, times the number of readers.
    double point_ops = 0.0;
    double point_ms = 0.0;
    for (ReadKind kind : {ReadKind::kCore, ReadKind::kSpectrum, ReadKind::kDensest}) {
      for (double ms : by_kind[static_cast<int>(kind)]) point_ms += ms;
      point_ops += static_cast<double>(by_kind[static_cast<int>(kind)].size());
    }
    out.ops_per_s = kReaders * point_ops / (point_ms / 1e3);
    out.notes.push_back(Format("all reads: %.1f /s; point reads: %.0f in %.3f s of reader time",
                               static_cast<double>(reads) / loop.seconds, point_ops,
                               point_ms / 1e3));
  }

  std::vector<const std::vector<double>*> component_lists;
  for (const ReaderResult& r : loop.readers) {
    component_lists.push_back(&r.ms[static_cast<int>(ReadKind::kComponent)]);
  }
  const Summary component =
      mixed ? Summarize(by_kind[static_cast<int>(ReadKind::kComponent)])
            : SummarizeWindowed(component_lists, kComponentTailWindow);
  const Summary community = Summarize(by_kind[static_cast<int>(ReadKind::kCommunity)]);
  out.primary = mixed ? Summarize(w.latency_ms) : component;
  out.secondary = community;
  if (mixed) {
    // The component median rides on answers that the writer's hot cluster
    // keeps resizing (it moved 6-60 us between seeds), so serve-mixed keeps
    // the community median and takes the component tail: the reads that
    // waited for a lazy rebuild of a new epoch.
    out.secondary.tail = component.tail;
    out.secondary.tail_percentile = component.tail_percentile;
  }
  if (config.trace) {
    out.traced_primary_p50_ms = Median(traced_ms);
    out.untraced_primary_p50_ms = Median(untraced_ms);
  }
  for (int k = 0; k < kNumReadKinds; ++k) {
    const Summary s = Summarize(by_kind[k]);
    out.notes.push_back(std::string("read ") + ReadKindName(static_cast<ReadKind>(k)) +
                        Format(": n=%.0f p50=%.4f ms", static_cast<double>(s.count), s.p50) +
                        Format(" tail=%.4f ms (p%.2f)", s.tail, s.tail_percentile));
  }
  {
    std::vector<double> sizes;
    for (const ReaderResult& r : loop.readers) {
      sizes.insert(sizes.end(), r.component_sizes.begin(), r.component_sizes.end());
    }
    const Summary s = Summarize(sizes);
    out.notes.push_back(Format("oracle-checked answers: %.0f; component sizes p50=%.0f tail=%.0f",
                               static_cast<double>(checked), s.p50, s.tail));
  }
  if (mixed) {
    std::vector<double> sorted = w.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    std::string deciles = "write latency deciles (ms):";
    for (int d = 1; d <= 9; ++d) {
      deciles += Format(" %.3f", sorted[NearestRankIndex(d / 10.0, sorted.size())]);
    }
    out.notes.push_back(deciles);
    const hcore::HCoreIndexStats stats = service->stats().AggregateShards();
    out.notes.push_back(Format("level repairs since setup: localized=%.0f fallback=%.0f",
                               static_cast<double>(stats.localized_updates),
                               static_cast<double>(stats.fallback_repeels)));
    const Summary late = Summarize(w.late_ms);
    out.notes.push_back(Format("writes: n=%.0f late p50=%.4f ms", static_cast<double>(w.writes),
                               late.p50) +
                        Format(" late max=%.4f ms", w.late_ms.empty() ? 0.0
                               : *std::max_element(w.late_ms.begin(), w.late_ms.end())));
  }
  return out;
}

}  // namespace

Outcome RunServeRead(const RunConfig& config, HostRef* ref) {
  return RunServe(config, ref, /*mixed=*/false);
}

Outcome RunServeMixed(const RunConfig& config, HostRef* ref) {
  return RunServe(config, ref, /*mixed=*/true);
}


void ServeReadCensus(uint64_t seed, std::vector<Metric>* layers,
                     std::vector<std::string>* problems) {
  constexpr size_t kPointProbes = 2000;
  constexpr size_t kComponentProbes = 300;
  constexpr size_t kCommunityProbes = 60;
  constexpr size_t kDensestProbes = 200;
  const Graph g = BuildGraph(MakeClustered(kReadVertices, seed));
  TakeSpans();
  SetTracing(true);
  std::unique_ptr<hcore::HCoreIndex> index;
  {
    Span span("index.build");
    index = std::make_unique<hcore::HCoreIndex>(Graph(g), ServiceOptions().index);
  }
  {
    const auto fresh = index->snapshot();
    for (int h = 1; h <= kMaxH; ++h) {
      Span span("index.hierarchy_build");
      (void)fresh->Hierarchy(h);
    }
  }
  SetTracing(false);
  const std::unique_ptr<ShardedHCoreService> service = BuildService(Graph(g));
  const ViewPtr pinned_view = service->view();
  const hcore::HCoreSnapshot& pinned = pinned_view->shard_snapshot(0);
  const std::vector<ReadOp> ops =
      MakeReadStream(kReadVertices, kMaxH, 1 << 16, seed, kReaders + 1);
  SetTracing(true);
  size_t points = 0, components = 0, communities = 0, densest = 0;
  for (const ReadOp& op : ops) {
    if (points < kPointProbes) {
      ++points;
      ViewPtr view;
      {
        Span span("serve.view");
        view = service->view();
      }
      std::shared_ptr<const hcore::HCoreSnapshot> snap;
      {
        Span span("index.snapshot");
        snap = index->snapshot();
      }
      Span span("index.point");
      (void)snap->CoreOf(op.v, op.h);
      (void)snap->Spectrum(op.v);
    }
    if (op.kind == ReadKind::kComponent && components < kComponentProbes) {
      ++components;
      const uint32_t k = std::max(1u, pinned.CoreOf(op.v, op.h));
      std::vector<VertexId> a, b;
      // Alternate which layer goes first so neither always finds the
      // hierarchy already in cache.
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn + components) % 2 == 0) {
          Span span("index.component");
          a = pinned.CoreComponentOf(op.v, k, op.h);
        } else {
          Span span("serve.component");
          b = pinned_view->CoreComponentOf(op.v, k, op.h);
        }
      }
      if (a != b) problems->push_back("census: index and serve components differ");
    }
    if (op.kind == ReadKind::kCommunity && communities < kCommunityProbes) {
      ++communities;
      const std::vector<VertexId> query = CommunityQuery(pinned.graph(), op.v);
      hcore::CommunityResult a, b;
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn + communities) % 2 == 0) {
          Span span("apps.community");
          a = hcore::DistanceCocktailPartyFromCores(pinned.graph(), query, op.h,
                                                    pinned.Cores(op.h));
        } else {
          Span span("serve.community");
          b = pinned_view->Community(query, op.h);
        }
      }
      if (a.core_level != b.core_level) {
        problems->push_back("census: apps and serve communities differ");
      }
    }
    if (op.kind == ReadKind::kDensest && densest < kDensestProbes) {
      ++densest;
      Span span("index.densest");
      (void)pinned.TopDensestLevels(op.h, 4);
    }
  }
  SetTracing(false);
  const std::vector<SpanRecord> spans = TakeSpans();
  layers->push_back({"index.build_s", SpanTotal(spans, "index.build"), "s"});
  layers->push_back({"index.hierarchy_build_ms",
                     SpanTotal(spans, "index.hierarchy_build") * 1e3, "ms"});
  layers->push_back({"serve.view_us", SpanMedian(spans, "serve.view") * 1e6, "us"});
  layers->push_back(
      {"index.snapshot_us", SpanMedian(spans, "index.snapshot") * 1e6, "us"});
  layers->push_back({"index.point_us", SpanMedian(spans, "index.point") * 1e6, "us"});
  layers->push_back(
      {"index.component_ms", SpanMedian(spans, "index.component") * 1e3, "ms"});
  layers->push_back(
      {"serve.component_ms", SpanMedian(spans, "serve.component") * 1e3, "ms"});
  layers->push_back(
      {"apps.community_ms", SpanMedian(spans, "apps.community") * 1e3, "ms"});
  layers->push_back(
      {"serve.community_ms", SpanMedian(spans, "serve.community") * 1e3, "ms"});
  layers->push_back({"index.densest_ms", SpanMedian(spans, "index.densest") * 1e3, "ms"});
}

void ServeMixedCensus(uint64_t seed, std::vector<Metric>* layers,
                      std::vector<std::string>* problems) {
  constexpr size_t kBatches = 40;
  constexpr double kLoopSeconds = 2.0;
  const Graph g = BuildGraph(MakeClustered(kMixedVertices, seed));
  const std::vector<BatchSpec> specs =
      MakeEditStream(kMixedVertices, kEditBatches, seed);
  const std::unique_ptr<ShardedHCoreService> service = BuildService(Graph(g));
  hcore::HCoreIndex replay(Graph(g), ServiceOptions().index);
  LoopResult loop;
  WarmChurn(service.get(), &replay, specs, &loop.writer);
  const hcore::HCoreIndexStats stats0 = replay.stats();
  std::vector<double> pages_copied;
  TakeSpans();
  SetTracing(true);
  for (size_t b = 0; b < kBatches; ++b) {
    const std::vector<hcore::EdgeEdit> batch = loop.writer.churn.Next(
        service->view()->graph(), specs[loop.writer.next_spec++]);
    const auto before = replay.snapshot();
    const Graph& current = before->graph();
    hcore::EdgeEditSummary summary;
    std::vector<hcore::EdgeEdit> canonical;
    {
      Span span("graph.canonicalize");
      canonical = current.CanonicalEffectiveEdits(batch, &summary);
    }
    if (canonical.empty()) continue;
    {
      Graph next;
      {
        Span span("graph.splice");
        next = current.ApplyCanonicalEdits(canonical);
      }
      pages_copied.push_back(static_cast<double>(
          next.num_pages() - hcore::CountSharedPages(current, next)));
    }
    {
      Span span("index.apply_prepared");
      (void)replay.ApplyPrepared(canonical, summary);
    }
    {
      Span span("serve.apply_batch");
      (void)service->ApplyBatch(batch);
    }
    const ViewPtr view = service->view();
    for (int h = 1; h <= kMaxH; ++h) {
      if (replay.snapshot()->Cores(h) != view->shard_snapshot(0).Cores(h)) {
        problems->push_back("census: replay index and service cores differ");
      }
    }
  }
  SetTracing(false);
  const hcore::HCoreIndexStats stats1 = replay.stats();
  const std::vector<SpanRecord> spans = TakeSpans();
  const double localized =
      static_cast<double>(stats1.localized_updates - stats0.localized_updates);
  const double fallback =
      static_cast<double>(stats1.fallback_repeels - stats0.fallback_repeels);
  const double apply_prepared_ms = SpanMedian(spans, "index.apply_prepared") * 1e3;

  // A short open-loop run with readers gives the generator's lateness and
  // the lazy rebuilds each epoch pays on first reads.
  RunLoop(service.get(), ReadStreams(kMixedVertices, seed), &specs, kLoopSeconds,
          /*trace=*/false, &loop);
  layers->push_back({"graph.canonicalize_ms",
                     SpanMedian(spans, "graph.canonicalize") * 1e3, "ms"});
  layers->push_back({"graph.splice_ms", SpanMedian(spans, "graph.splice") * 1e3, "ms"});
  layers->push_back({"graph.pages_copied",
                     pages_copied.empty() ? 0.0 : Median(pages_copied), "count"});
  layers->push_back({"index.apply_prepared_ms", apply_prepared_ms, "ms"});
  layers->push_back({"serve.write_overhead_ms",
                     SpanMedian(spans, "serve.apply_batch") * 1e3 - apply_prepared_ms,
                     "ms"});
  layers->push_back({"index.localized_share",
                     localized + fallback > 0 ? localized / (localized + fallback)
                                              : 0.0,
                     "ratio"});
  double lazy = 0.0;
  for (double x : loop.writer.lazy_builds) lazy += x;
  layers->push_back({"index.lazy_builds_per_epoch",
                     loop.writer.lazy_builds.empty()
                         ? 0.0
                         : lazy / static_cast<double>(loop.writer.lazy_builds.size()),
                     "count"});
  layers->push_back({"graph.memory_mb",
                     static_cast<double>(service->stats().memory.resident_bytes) / 1e6,
                     "MB"});
  layers->push_back({"serve.writer_late_ms",
                     loop.writer.late_ms.empty() ? 0.0 : Median(loop.writer.late_ms),
                     "ms"});
}

}  // namespace khb
