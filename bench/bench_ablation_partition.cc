// Ablation: the partition width S of h-LB+UB (paper §4.3, Example 4).
//
// S controls how many distinct upper-bound values each top-down partition
// covers. Small S means more partitions: tighter LB3 bounds and smaller
// candidate sets per partition, but more window peels, each seeding and
// cleaning all of V[k_min]. The candidates' h-degrees are carried across
// partitions (BFS only near each partition's added vertices), so more
// partitions add no whole-set h-degree sweeps. Large S
// degenerates towards a single h-LB-style pass seeded with UB-filtered
// candidates. The paper leaves S as an input parameter;
// this bench sweeps it (0 = the library's auto heuristic, ~16 partitions).

#include <cstdio>

#include "bench_common.h"
#include "core/kh_core.h"

int main(int argc, char** argv) {
  using namespace hcore;
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Ablation: h-LB+UB partition width S");
  std::printf("%-7s %-4s %10s %8s %14s %11s\n", "data", "h", "S", "time(s)",
              "visits", "partitions");

  for (const char* name : {"caAs", "sytb"}) {
    Dataset d = bench::Load(args, name, /*quick=*/0.06, /*full=*/0.25);
    for (int h : {2, 3}) {
      for (int s : {0, 1, 4, 16, 64, 1 << 20}) {
        KhCoreOptions opts;
        opts.h = h;
        opts.algorithm = KhCoreAlgorithm::kLbUb;
        opts.partition_size = s;
        KhCoreResult r = KhCoreDecomposition(d.graph, opts);
        char s_label[16];
        if (s == 0) {
          std::snprintf(s_label, sizeof(s_label), "auto");
        } else if (s == (1 << 20)) {
          std::snprintf(s_label, sizeof(s_label), "inf");
        } else {
          std::snprintf(s_label, sizeof(s_label), "%d", s);
        }
        std::printf("%-7s h=%-2d %10s %8.3f %14llu %11u\n", name, h, s_label,
                    r.stats.seconds,
                    static_cast<unsigned long long>(r.stats.visited_vertices),
                    r.stats.partitions);
      }
    }
  }
  return 0;
}
