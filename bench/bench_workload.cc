// Closed-loop serve workload driver.
//
// Runs the LDBC-contest-style mixed workloads of serve/workload.h against
// the serving tier over a clustered serving substrate: per mix, a fixed
// closed-loop run reporting QPS and exact-rank p50/p99/p999 per op class
// (log-bucket histogram resolution, see LatencyHistogram), then a
// saturation search that doubles the client count until QPS plateaus.
//
//   --json=PATH      write BENCH_workload.json (CI artifact)
//   --check          enforcing mode: (1) a collecting run's write batches
//                    are replayed onto the initial graph, which is
//                    decomposed from scratch, and every spectrum plus the
//                    sampled component/community answers must match
//                    (CompareToScratchOracle == 0), and (2) every op
//                    class's p99 must stay under --max-p99-ms.
//   --max-p99-ms=N   sanity bound for --check (default 5000 — generous:
//                    it exists to catch pathological stalls, not to gate
//                    performance tuning).
//   --check-writes   enforcing mode for the write path: (1) ApplyBatch
//                    mean latency must grow with the batch size (512 > 1),
//                    and (2) cost must track the TOUCHED REGION, not the
//                    graph: a page-local batch (inserts among fresh tail
//                    vertices — repair region is the new component, only
//                    tail pages are rebuilt) must be >= 10x cheaper than
//                    zipf hub churn on the same substrate, whose repair
//                    regions overflow the localized cap onto the O(n + m)
//                    warm repeel. Under the pre-paging design both cost
//                    the same (every batch rebuilt the full CSR), so a
//                    ratio near 1 means that rebuild crept back in.
//   --clients=N      clients for the fixed-mix runs (default 4)
//   --ops=N          override ops per client (default 75 quick / 2000 full)
//   --full           1M-vertex substrate and a deeper op budget
//
// Quick mode is sized for the CI smoke: ApplyBatch dominates wall time
// (hub-churn writes fall back to whole-level repeels), so the quick
// substrate stays small enough that the write-heavy mix finishes in tens
// of seconds on a small runner. --full is the real measurement.
//
// The recorded `hardware_threads` makes flat saturation curves on small CI
// runners legible as runner artifacts rather than scaling defects.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "latency.h"
#include "serve/workload.h"
#include "util/rng.h"

namespace {

using namespace hcore;

std::vector<WorkloadMix> Mixes() {
  WorkloadMix read_heavy;
  read_heavy.name = "read-heavy";
  read_heavy.core = 0.60;
  read_heavy.spectrum = 0.25;
  read_heavy.densest = 0.05;
  read_heavy.component = 0.08;
  read_heavy.community = 0.02;
  read_heavy.write = 0.0;

  WorkloadMix mixed;  // the defaults: LDBC-ish interactive mix
  mixed.name = "mixed";

  WorkloadMix write_heavy;
  write_heavy.name = "write-heavy";
  write_heavy.core = 0.30;
  write_heavy.spectrum = 0.10;
  write_heavy.densest = 0.02;
  write_heavy.component = 0.12;
  write_heavy.community = 0.01;
  write_heavy.write = 0.45;

  return {read_heavy, mixed, write_heavy};
}

struct MixRow {
  std::string name;
  int clients = 0;
  WorkloadReport report;
  SaturationResult saturation;
};

// ---------------------------------------------------------------------------
// Write path: ApplyBatch latency as a function of batch size.
//
// The paged-COW contract is that a batch costs O(touched pages + repair
// region), NOT O(n + m): latency must grow with the batch size and must
// NOT grow with the substrate size. Each row runs a fresh service on
// the same substrate and times `batches` zipf-churn batches (same edit
// shape as the workload driver's write op: alternating inserts between
// sampled vertices and deletes of sampled existing edges).
// ---------------------------------------------------------------------------

struct WritePathRow {
  int batch_size = 0;
  int batches = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

std::vector<EdgeEdit> ChurnBatch(const ShardedServiceView& view,
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
      if (w == u) w = (w + 1) % n;
      if (w != u) batch.push_back(EdgeEdit::Insert(u, w));
    }
  }
  return batch;
}

WritePathRow MeasureWritePath(const Graph& g,
                              const ShardedServiceOptions& options,
                              int batch_size, int batches, double zipf_skew,
                              uint64_t seed,
                              GraphMemoryStats* memory_out = nullptr) {
  ShardedHCoreService service(Graph(g), options);
  ZipfSampler zipf(g.num_vertices(), zipf_skew);
  Rng rng(seed);
  LatencyHistogram latency;
  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeEdit> batch =
        ChurnBatch(*service.view(), zipf, batch_size, &rng);
    const auto start = std::chrono::steady_clock::now();
    (void)service.ApplyBatch(batch);
    const auto stop = std::chrono::steady_clock::now();
    latency.RecordNs(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
  }
  if (memory_out != nullptr) *memory_out = service.stats().memory;
  WritePathRow row;
  row.batch_size = batch_size;
  row.batches = batches;
  row.mean_ms = latency.MeanMs();
  row.p50_ms = latency.PercentileMs(0.50);
  row.p99_ms = latency.PercentileMs(0.99);
  return row;
}

void PrintReport(const MixRow& row) {
  std::printf("mix %-11s clients=%d qps=%.0f (%.2fs)\n", row.name.c_str(),
              row.clients, row.report.qps, row.report.seconds);
  std::printf("  %-10s %10s %10s %10s %10s %10s\n", "op", "count", "mean_ms",
              "p50_ms", "p99_ms", "p999_ms");
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    const OpClassReport& c = row.report.per_op[i];
    if (c.count == 0) continue;
    std::printf("  %-10s %10llu %10.3f %10.3f %10.3f %10.3f\n",
                WorkloadOpName(static_cast<WorkloadOp>(i)),
                static_cast<unsigned long long>(c.count), c.latency.MeanMs(),
                c.latency.PercentileMs(0.50), c.latency.PercentileMs(0.99),
                c.latency.PercentileMs(0.999));
  }
  std::printf("  saturation: clients=%d peak_qps=%.0f (steps:",
              row.saturation.saturation_clients, row.saturation.peak_qps);
  for (const SaturationStep& s : row.saturation.steps) {
    std::printf(" %d->%.0f", s.clients, s.qps);
  }
  std::printf(")\n");
  std::fflush(stdout);
}

void WriteJson(const char* path, VertexId n, uint64_t m, double zipf,
               const std::vector<MixRow>& rows,
               const std::vector<WritePathRow>& write_rows,
               const WritePathRow& page_local,
               const GraphMemoryStats& memory) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"workload\",\n  \"n\": %u,\n  \"m\": %llu,\n"
               "  \"zipf_skew\": %.2f,\n"
               "  \"hardware_threads\": %u,\n  \"mixes\": [\n",
               n, static_cast<unsigned long long>(m), zipf,
               std::thread::hardware_concurrency());
  for (size_t r = 0; r < rows.size(); ++r) {
    const MixRow& row = rows[r];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"clients\": %d, \"qps\": %.1f, "
                 "\"seconds\": %.3f, \"saturation_clients\": %d, "
                 "\"saturation_qps\": %.1f, \"classes\": [\n",
                 row.name.c_str(), row.clients, row.report.qps,
                 row.report.seconds, row.saturation.saturation_clients,
                 row.saturation.peak_qps);
    bool first = true;
    for (int i = 0; i < kNumWorkloadOps; ++i) {
      const OpClassReport& c = row.report.per_op[i];
      if (c.count == 0) continue;
      std::fprintf(
          f,
          "      %s{\"op\": \"%s\", \"count\": %llu, \"mean_ms\": %.3f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f}",
          first ? "" : ",",
          WorkloadOpName(static_cast<WorkloadOp>(i)),
          static_cast<unsigned long long>(c.count), c.latency.MeanMs(),
          c.latency.PercentileMs(0.50), c.latency.PercentileMs(0.99),
          c.latency.PercentileMs(0.999));
      std::fprintf(f, "\n");
      first = false;
    }
    std::fprintf(f, "    ]}%s\n", r + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"write_path\": [\n");
  for (size_t r = 0; r < write_rows.size(); ++r) {
    const WritePathRow& w = write_rows[r];
    std::fprintf(f,
                 "    {\"batch_size\": %d, \"batches\": %d, "
                 "\"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 w.batch_size, w.batches, w.mean_ms, w.p50_ms, w.p99_ms,
                 r + 1 < write_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"write_path_page_local\": {\"batch_size\": %d, "
               "\"batches\": %d, \"mean_ms\": %.3f, \"p50_ms\": %.3f, "
               "\"p99_ms\": %.3f},\n",
               page_local.batch_size, page_local.batches, page_local.mean_ms,
               page_local.p50_ms, page_local.p99_ms);
  std::fprintf(f,
               "  \"memory\": {\"resident_bytes\": %llu, "
               "\"graph_pages\": %llu, \"pages_shared\": %llu, "
               "\"pages_copied\": %llu}\n",
               static_cast<unsigned long long>(memory.resident_bytes),
               static_cast<unsigned long long>(memory.graph_pages),
               static_cast<unsigned long long>(memory.pages_shared),
               static_cast<unsigned long long>(memory.pages_copied));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const char* json_path = nullptr;
  bool check = false;
  bool check_writes = false;
  double max_p99_ms = 5000.0;
  int clients = 4;
  int ops_override = 0;  // --ops=N overrides ops_per_client
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strcmp(argv[i], "--check-writes") == 0) check_writes = true;
    if (std::strncmp(argv[i], "--max-p99-ms=", 13) == 0) {
      max_p99_ms = std::atof(argv[i] + 13);
    }
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    }
    if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      ops_override = std::atoi(argv[i] + 6);
    }
  }
  if (clients < 1) {
    std::fprintf(stderr, "--clients must be >= 1\n");
    return 1;
  }
  bench::PrintHeader("Closed-loop serve workload driver (mix x latency)");

  VertexId n = args.full ? 1000000 : 10000;
  if (args.scale_override > 0.0) {
    n = static_cast<VertexId>(1000000 * args.scale_override);
  }
  Rng gen_rng(47);
  Graph g = gen::Clustered(n, &gen_rng);
  std::printf("graph: n=%u m=%llu hardware_threads=%u (%s)\n",
              g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
              std::thread::hardware_concurrency(),
              args.full ? "full scale" : "quick scale");

  ShardedServiceOptions service_options;
  service_options.index.max_h = 2;

  const int ops_per_client =
      ops_override > 0 ? ops_override : (args.full ? 2000 : 75);
  const int max_clients = args.full ? 32 : 8;
  const double zipf_skew = 0.8;
  bool ok = true;

  // Differential leg first, on its OWN fresh service (the replay needs
  // every batch since construction): a collecting mixed run, then the
  // replayed graph decomposed from scratch against the final answers.
  if (check) {
    std::printf("differential: mixed run vs from-scratch oracle ...\n");
    ShardedHCoreService service(Graph(g), service_options);
    WorkloadOptions options;
    options.mix = Mixes()[1];  // mixed
    options.clients = clients;
    options.ops_per_client = std::max(50, ops_per_client / 4);
    options.zipf_skew = zipf_skew;
    options.seed = 97;
    options.collect_applied_batches = true;
    const WorkloadReport report = RunWorkload(&service, options);
    const size_t mismatches =
        CompareToScratchOracle(ReplayAppliedBatches(Graph(g), report),
                               *service.view())
            .total();
    std::printf("differential: %zu write batches, %zu mismatches\n",
                report.applied_batches.size(), mismatches);
    if (mismatches != 0) {
      std::fprintf(stderr,
                   "FAIL: workload answers diverged from the from-scratch "
                   "oracle\n");
      ok = false;
    }
  }

  ShardedServiceOptions measured_options = service_options;
  measured_options.group_commit = true;
  ShardedHCoreService service(Graph(g), measured_options);
  std::vector<MixRow> rows;
  for (const WorkloadMix& mix : Mixes()) {
    WorkloadOptions options;
    options.mix = mix;
    options.clients = clients;
    options.ops_per_client = ops_per_client;
    options.zipf_skew = zipf_skew;
    options.seed = 11;
    MixRow row;
    row.name = mix.name;
    row.clients = clients;
    row.report = RunWorkload(&service, options);
    // Saturation steps replay the full mix once per client count; halve the
    // op budget so the search costs about one extra fixed run per step.
    WorkloadOptions sat_options = options;
    sat_options.ops_per_client = std::max(25, options.ops_per_client / 2);
    row.saturation = SaturationSearch(&service, sat_options, max_clients);
    PrintReport(row);
    if (check) {
      for (int i = 0; i < kNumWorkloadOps; ++i) {
        const OpClassReport& c = row.report.per_op[i];
        if (c.count == 0) continue;
        const double p99 = c.latency.PercentileMs(0.99);
        if (p99 > max_p99_ms) {
          std::fprintf(stderr,
                       "FAIL: mix %s op %s p99 %.1f ms exceeds the sanity "
                       "bound %.1f ms\n",
                       mix.name.c_str(),
                       WorkloadOpName(static_cast<WorkloadOp>(i)), p99,
                       max_p99_ms);
          ok = false;
        }
      }
    }
    rows.push_back(std::move(row));
  }

  // Write path: ApplyBatch latency vs batch size on a fresh service per row
  // (group commit off — this measures the raw write path).
  const int write_batches = args.full ? 32 : 12;
  std::vector<WritePathRow> write_rows;
  GraphMemoryStats write_memory;
  for (int batch_size : {1, 8, 64, 512}) {
    GraphMemoryStats mem;
    WritePathRow row = MeasureWritePath(g, service_options, batch_size,
                                        write_batches, zipf_skew, 131, &mem);
    if (batch_size == 8) write_memory = mem;
    std::printf(
        "write-path batch=%-3d batches=%d mean=%.3fms p50=%.3fms "
        "p99=%.3fms (pages shared=%llu copied=%llu)\n",
        row.batch_size, row.batches, row.mean_ms, row.p50_ms, row.p99_ms,
        static_cast<unsigned long long>(mem.pages_shared),
        static_cast<unsigned long long>(mem.pages_copied));
    write_rows.push_back(row);
  }
  std::fflush(stdout);

  // Locality row: 8 inserts forming a clique among fresh tail vertices.
  // The repair region is the new component and only tail pages are
  // rebuilt, so this is the pure write-path floor: canonicalize + page
  // splice + localized repair + publish, no region-cap overflow.
  WritePathRow local_row;
  {
    ShardedHCoreService local(Graph(g), service_options);
    LatencyHistogram latency;
    for (int b = 0; b < write_batches; ++b) {
      const VertexId base = local.view()->graph().num_vertices();
      std::vector<EdgeEdit> batch;
      for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
          batch.push_back(EdgeEdit::Insert(base + i, base + j));
        }
      }
      batch.resize(8);
      const auto start = std::chrono::steady_clock::now();
      (void)local.ApplyBatch(batch);
      const auto stop = std::chrono::steady_clock::now();
      latency.RecordNs(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count()));
    }
    local_row.batch_size = 8;
    local_row.batches = write_batches;
    local_row.mean_ms = latency.MeanMs();
    local_row.p50_ms = latency.PercentileMs(0.50);
    local_row.p99_ms = latency.PercentileMs(0.99);
    std::printf(
        "write-path page-local 8-edit batches: mean=%.3fms p50=%.3fms\n",
        local_row.mean_ms, local_row.p50_ms);
  }

  if (check_writes) {
    // (1) Cost grows with the batch size...
    if (write_rows.back().mean_ms <= write_rows.front().mean_ms) {
      std::fprintf(stderr,
                   "FAIL: 512-edit batches (%.3f ms) are not costlier than "
                   "1-edit batches (%.3f ms)\n",
                   write_rows.back().mean_ms, write_rows.front().mean_ms);
      ok = false;
    }
    // (2) ... and tracks the touched region, not the graph: page-local
    // batches must be >= 10x cheaper than same-size hub churn on the same
    // substrate. The pre-paging design rebuilt the full CSR for both, so
    // this ratio was ~1 there.
    const WritePathRow& churn = write_rows[1];  // batch_size == 8
    if (10.0 * local_row.p50_ms > churn.mean_ms) {
      std::fprintf(stderr,
                   "FAIL: page-local 8-edit batches (p50 %.3f ms) are not "
                   ">= 10x cheaper than 8-edit hub churn (mean %.3f ms) — "
                   "write cost no longer tracks the touched region\n",
                   local_row.p50_ms, churn.mean_ms);
      ok = false;
    }
    if (ok) std::printf("check-writes: write-path cost gates passed\n");
  }

  if (json_path != nullptr) {
    WriteJson(json_path, n, g.num_edges(), zipf_skew, rows,
              write_rows, local_row, write_memory);
  }
  if (check && ok) {
    std::printf("check: differential + p99 sanity bounds passed\n");
  }
  return ok ? 0 : 1;
}
