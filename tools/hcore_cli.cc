// hcore command-line tool.
//
//   hcore_cli decompose  --input=G.txt --h=2 [--algo=bz|lb|lbub]
//                        [--threads=N] [--partition=S]
//                        [--ordering=none|auto|degree|bfs]
//                        [--parallel=auto|on|off]
//                        [--output=cores.txt]
//   hcore_cli stats      --input=G.txt
//   hcore_cli spectrum   --input=G.txt --max-h=4 [--output=spectrum.txt]
//   hcore_cli hclub      --input=G.txt --h=2 [--solver=bb|it] [--no-core]
//   hcore_cli hclique    --input=G.txt --h=2
//   hcore_cli coloring   --input=G.txt --h=2 [--output=colors.txt]
//   hcore_cli community  --input=G.txt --h=2 --query=1,5,9
//   hcore_cli densest    --input=G.txt --h=2
//   hcore_cli generate   --model=ba|gnp|ws|road|cliques --n=1000 [--seed=S]
//                        --output=G.txt
//   hcore_cli serve      --input=G.txt [--h-max=4] [--threads=N] [--algo=..]
//   hcore_cli workload   --input=G.txt [--h-max=2] [--clients=4]
//                        [--ops=200] [--zipf=0.8] [--seed=1]
//                        [--batch-edits=8]
//                        [--mix=read-heavy|mixed|write-heavy|
//                              c,s,d,comp,comm,w]
//                        [--saturation=MAX_CLIENTS] [--check]
//
// `workload` runs the closed-loop mixed workload driver (serve/workload.h)
// against a service built over --input: --clients closed-loop threads each
// issue --ops operations drawn from the mix (point core / spectrum /
// densest lookups, component / community traversals, ApplyBatch writes)
// with Zipf(--zipf) key popularity, then
// print QPS and exact-rank p50/p99/p999 per op class. --mix takes a named
// preset or six comma-separated ratios (core,spectrum,densest,component,
// community,write) that must be non-negative and sum to 1. --saturation
// additionally doubles the client count until QPS plateaus; --check
// compares the final answers against a from-scratch decomposition of the
// replayed graph (CompareToScratchOracle) and fails on any divergence
// (exit 1).
//
// `serve` builds the serving tier (serve/sharded_service.h: one HCoreIndex
// behind an atomically published view), then answers query/update commands
// from stdin (REPL or piped batch), one per line:
//
//   core <v> <h>             core index of v at threshold h
//   spectrum <v>             core_1(v) .. core_H(v)
//   component <v> <k> <h>    connected component of v in the (k,h)-core
//   community <h> v1,v2,..   cocktail-party community
//   densest <h> <top-k>      densest core levels of threshold h
//   insert <u> <v>           stage an edge insertion into the pending batch
//   delete <u> <v>           stage an edge deletion into the pending batch
//   apply                    apply the pending batch (one epoch)
//   stats                    epoch, graph size, cumulative counters
//   stats reset              zero the cumulative counters (epochs stay)
//   quit                     exit
//
// Queries are answered from the warm snapshot — the Table-3-style BFS
// counters shown by `stats` stay flat however many queries run; only
// `apply` (and the initial build) moves them. tests/golden/serve_shards1.*
// locks the output of a scripted session byte for byte.
//
// The core-decomposition flags (--h, --algo/--algorithm, --threads,
// --partition, --ordering, --parallel) map 1:1 onto KhCoreOptions and
// apply to every command that runs a decomposition (decompose, hierarchy,
// spectrum, hclub, community, densest, serve, workload). `spectrum`,
// `serve` and `workload` sweep every h up to --h-max (alias: --max-h)
// instead of reading --h. For `serve`, --threads speeds up the initial
// build and the whole-graph fallback re-peels of `apply`; localized repair
// of small batches always runs on one thread, so answers and counters do
// not depend on it.
//
// Every command accepts only the flags it reads: an unknown flag, a stray
// positional argument, a numeric value that does not parse completely or
// lies outside its range (--h and --h-max in [1, 64], --threads and
// --clients in [1, 256], ...), and an unknown enum value (--algo, --ordering,
// --parallel, --solver, --model) are each rejected with one `error:` line
// and exit status 1 before any work starts.
//
// Graphs are SNAP-format edge lists ('#'-comments, one "u v" per line).
// Vertex ids printed by the tool refer to the relabeled ids (dense,
// first-appearance order).

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/coloring.h"
#include "apps/community.h"
#include "core/hierarchy.h"
#include "apps/densest.h"
#include "apps/hclique.h"
#include "apps/hclub.h"
#include "core/kh_core.h"
#include "core/spectrum.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "index/hcore_index.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"
#include "traversal/distances.h"
#include "util/rng.h"

namespace {

using namespace hcore;

/// One flag a command reads. Numeric values must parse completely and lie
/// in [min, max]; an enum value must be one of `choices` ('|'-separated); a
/// switch takes no value.
struct FlagSpec {
  enum Kind { kString, kSwitch, kInt, kReal, kEnum };
  std::string name;
  Kind kind = kString;
  double min = 0.0;
  double max = 0.0;
  std::string choices;
};

FlagSpec Str(const std::string& name) {
  return {name, FlagSpec::kString, 0.0, 0.0, ""};
}
FlagSpec Switch(const std::string& name) {
  return {name, FlagSpec::kSwitch, 0.0, 0.0, ""};
}
FlagSpec Int(const std::string& name, long long min, long long max) {
  return {name, FlagSpec::kInt, static_cast<double>(min),
          static_cast<double>(max), ""};
}
FlagSpec Real(const std::string& name, double min, double max) {
  return {name, FlagSpec::kReal, min, max, ""};
}
FlagSpec Enum(const std::string& name, const std::string& choices) {
  return {name, FlagSpec::kEnum, 0.0, 0.0, choices};
}

constexpr long long kMaxInt = std::numeric_limits<int>::max();
/// Distance thresholds and sweep depths: far beyond any h the paper's
/// measurements use, and a bound on the per-level memory of spectrum/serve.
constexpr long long kMaxH = 64;
/// Worker threads and workload clients (each client is a thread).
constexpr long long kMaxThreads = 256;

/// The decomposition flags CoreOptions reads (every command that runs a
/// decomposition; --h is listed per command, since spectrum/serve/workload
/// sweep every h up to --h-max instead).
std::vector<FlagSpec> CoreFlags() {
  return {Int("threads", 1, kMaxThreads), Int("partition", 0, kMaxInt),
          Enum("algo", "auto|bz|lb|lbub"), Enum("algorithm", "auto|bz|lb|lbub"),
          Enum("ordering", "auto|none|degree|bfs"),
          Enum("parallel", "auto|on|off")};
}

/// Parses a whole decimal integer (leading whitespace and trailing junk
/// rejected).
bool ParseInteger(const std::string& text, long long* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

bool ParseReal(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && *end == '\0' && std::isfinite(*out);
}

/// Checks `value` against `spec`; on failure returns false with a message.
bool ValidateFlag(const FlagSpec& spec, const std::string& value,
                  bool has_value, std::string* error) {
  const std::string flag = "--" + spec.name;
  if (spec.kind == FlagSpec::kSwitch) {
    if (has_value) *error = flag + " takes no value";
    return !has_value;
  }
  if (!has_value) {
    *error = flag + " needs a value (" + flag + "=...)";
    return false;
  }
  switch (spec.kind) {
    case FlagSpec::kInt: {
      long long parsed = 0;
      if (!ParseInteger(value, &parsed)) {
        *error = flag + ": '" + value + "' is not an integer";
        return false;
      }
      if (parsed < spec.min || parsed > spec.max) {
        *error = flag + ": " + value + " is out of range [" +
                 std::to_string(static_cast<long long>(spec.min)) + ", " +
                 std::to_string(static_cast<long long>(spec.max)) + "]";
        return false;
      }
      return true;
    }
    case FlagSpec::kReal: {
      double parsed = 0.0;
      if (!ParseReal(value, &parsed)) {
        *error = flag + ": '" + value + "' is not a number";
        return false;
      }
      if (parsed < spec.min || parsed > spec.max) {
        std::ostringstream range;
        range << flag << ": " << value << " is out of range [" << spec.min
              << ", " << spec.max << "]";
        *error = range.str();
        return false;
      }
      return true;
    }
    case FlagSpec::kEnum: {
      std::istringstream choices(spec.choices);
      std::string choice;
      while (std::getline(choices, choice, '|')) {
        if (choice == value) return true;
      }
      *error = flag + ": unknown value '" + value + "' (expected " +
               spec.choices + ")";
      return false;
    }
    default:
      return true;
  }
}

/// Flag values of one command line, validated against the command's specs
/// by ParseFlags — so the getters below never see a malformed value.
struct Flags {
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  long long GetInt(const std::string& key, long long def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::strtoll(it->second.c_str(),
                                                   nullptr, 10);
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = values.find(key);
    return it == values.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }
  bool Has(const std::string& key) const { return values.count(key) > 0; }
};

/// Parses argv[2..] as --name[=value] flags, rejecting anything that is not
/// one of `specs` or whose value does not validate.
bool ParseFlags(int argc, char** argv, const std::vector<FlagSpec>& specs,
                Flags* flags, std::string* error) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "' (flags are --name=value)";
      return false;
    }
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string name =
        arg.substr(2, has_value ? eq - 2 : std::string::npos);
    const std::string value = has_value ? arg.substr(eq + 1) : "1";
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (candidate.name == name) spec = &candidate;
    }
    if (spec == nullptr) {
      *error = "unknown flag --" + name + " for '" + argv[1] + "'";
      return false;
    }
    if (!ValidateFlag(*spec, value, has_value, error)) return false;
    flags->values.insert_or_assign(name, value);
  }
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Result<Graph> LoadInput(const Flags& flags) {
  std::string path = flags.Get("input");
  if (path.empty()) return Status::InvalidArgument("--input=<file> required");
  return io::ReadEdgeList(path);
}

KhCoreOptions CoreOptions(const Flags& flags) {
  KhCoreOptions opts;
  opts.h = flags.GetInt("h", 2);
  opts.num_threads = flags.GetInt("threads", 1);
  opts.partition_size = flags.GetInt("partition", 0);
  // --algo is the short alias for --algorithm; the explicit form wins.
  std::string alg = flags.Get("algorithm", flags.Get("algo", "auto"));
  if (alg == "bz") {
    opts.algorithm = KhCoreAlgorithm::kBz;
  } else if (alg == "lb") {
    opts.algorithm = KhCoreAlgorithm::kLb;
  } else if (alg == "lbub") {
    opts.algorithm = KhCoreAlgorithm::kLbUb;
  }
  std::string ordering = flags.Get("ordering", "auto");
  if (ordering == "none") {
    opts.ordering = VertexOrdering::kNone;
  } else if (ordering == "degree") {
    opts.ordering = VertexOrdering::kDegreeDescending;
  } else if (ordering == "bfs") {
    opts.ordering = VertexOrdering::kBfs;
  }
  // Round-synchronous parallel peel; auto gates on --threads and size.
  std::string parallel = flags.Get("parallel", "auto");
  if (parallel == "on") {
    opts.parallel = ParallelPeelMode::kOn;
  } else if (parallel == "off") {
    opts.parallel = ParallelPeelMode::kOff;
  }
  return opts;
}

/// Sweep depth for spectrum/serve: --h-max with --max-h as the legacy alias.
int HMax(const Flags& flags, int def = 4) {
  return flags.GetInt("h-max", flags.GetInt("max-h", def));
}

/// Parses a comma-separated vertex id list; false on an empty or
/// non-numeric entry or an id outside the VertexId range.
bool ParseIdList(const std::string& s, std::vector<VertexId>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    long long id = 0;
    if (!ParseInteger(s.substr(pos, comma - pos), &id) || id < 0 ||
        id >= kInvalidVertex) {
      return false;
    }
    out->push_back(static_cast<VertexId>(id));
    pos = comma + 1;
  }
  return true;
}

int CmdDecompose(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  KhCoreOptions opts = CoreOptions(flags);
  KhCoreResult r = KhCoreDecomposition(g.value(), opts);
  std::printf("n=%u m=%llu h=%d degeneracy=%u distinct_cores=%u\n",
              g.value().num_vertices(),
              static_cast<unsigned long long>(g.value().num_edges()), opts.h,
              r.degeneracy, r.NumDistinctCores());
  std::printf("time=%.3fs visits=%llu hdeg_computations=%llu\n",
              r.stats.seconds,
              static_cast<unsigned long long>(r.stats.visited_vertices),
              static_cast<unsigned long long>(r.stats.hdegree_computations));
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex core_index (h=" << opts.h << ")\n";
    for (VertexId v = 0; v < r.core.size(); ++v) {
      out << v << ' ' << r.core[v] << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdHierarchy(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  KhCoreOptions opts = CoreOptions(flags);
  KhCoreResult r = KhCoreDecomposition(g.value(), opts);
  CoreHierarchy tree = BuildCoreHierarchy(g.value(), r.core);
  std::printf("core-component hierarchy (h=%d): %zu nodes, %zu roots\n",
              opts.h, tree.nodes.size(), tree.roots.size());
  // Print the forest, depth-first, sizes and levels only.
  struct Frame {
    uint32_t node;
    int depth;
  };
  std::vector<Frame> stack;
  for (auto it = tree.roots.rbegin(); it != tree.roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  int printed = 0;
  const int limit = flags.GetInt("limit", 60);
  while (!stack.empty() && printed < limit) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    const CoreHierarchyNode& n = tree.nodes[node];
    std::printf("%*sk=%u |component|=%u (+%zu new)\n", 2 * depth, "", n.level,
                n.subtree_size, n.new_vertices.size());
    ++printed;
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  if (!stack.empty()) std::printf("... (raise --limit to see more)\n");
  std::string dot_path = flags.Get("dot");
  if (!dot_path.empty()) {
    Status s = io::WriteDot(g.value(), dot_path, &r.core);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("wrote %s (vertices annotated with core indexes)\n",
                dot_path.c_str());
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const Graph& graph = g.value();
  Rng rng(1);
  std::printf("vertices: %u\nedges: %llu\navg degree: %.2f\nmax degree: %u\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.AverageDegree(), graph.MaxDegree());
  std::printf("diameter (double-sweep estimate): %u\n",
              EstimateDiameter(graph, 4, &rng));
  return 0;
}

int CmdSpectrum(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  SpectrumOptions opts;
  opts.max_h = HMax(flags);
  opts.base = CoreOptions(flags);
  SpectrumResult r = KhCoreSpectrum(g.value(), opts);
  std::printf("h:          ");
  for (int h = 1; h <= opts.max_h; ++h) std::printf(" %8d", h);
  std::printf("\ndegeneracy: ");
  for (uint32_t d : r.degeneracy) std::printf(" %8u", d);
  std::printf("\n");
  for (int h = 2; h <= opts.max_h; ++h) {
    std::printf("corr(core_1, core_%d) = %.3f\n", h, r.LevelCorrelation(1, h));
  }
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex core_1 .. core_" << opts.max_h << "\n";
    for (VertexId v = 0; v < g.value().num_vertices(); ++v) {
      out << v;
      for (const auto& level : r.core) out << ' ' << level[v];
      out << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdHClub(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  HClubOptions opts;
  opts.h = flags.GetInt("h", 2);
  opts.solver = flags.Get("solver", "bb") == "it" ? HClubSolver::kIterative
                                                  : HClubSolver::kBranchAndBound;
  opts.max_nodes = static_cast<uint64_t>(flags.GetInt("max-nodes", 0));
  HClubResult r = flags.Has("no-core")
                      ? MaxHClub(g.value(), opts)
                      : MaxHClubWithCorePrefilter(g.value(), opts,
                                                  CoreOptions(flags));
  std::printf("max %d-club size: %u%s  (%.3fs, %llu nodes)\nmembers:",
              opts.h, r.size(), r.optimal ? "" : " (budget hit, lower bound)",
              r.seconds, static_cast<unsigned long long>(r.nodes_explored));
  for (VertexId v : r.members) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdHClique(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  HCliqueOptions opts;
  opts.h = flags.GetInt("h", 2);
  HCliqueResult r = MaxHClique(g.value(), opts);
  std::printf("max %d-clique size: %u  (%.3fs, %llu nodes)\nmembers:", opts.h,
              r.size(), r.seconds,
              static_cast<unsigned long long>(r.nodes_explored));
  for (VertexId v : r.members) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdColoring(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const int h = flags.GetInt("h", 2);
  ColoringResult r = DistanceHColoring(g.value(), h);
  std::printf("distance-%d coloring: %u colors (guarantee <= %u)\n", h,
              r.num_colors, r.bound);
  std::string out_path = flags.Get("output");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) return Fail("cannot write " + out_path);
    out << "# vertex color (h=" << h << ")\n";
    for (VertexId v = 0; v < r.color.size(); ++v) {
      out << v << ' ' << r.color[v] << '\n';
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdCommunity(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  std::string q = flags.Get("query");
  if (q.empty()) return Fail("--query=v1,v2,... required");
  std::vector<VertexId> query;
  if (!ParseIdList(q, &query)) {
    return Fail("--query: '" + q + "' is not a list of vertex ids");
  }
  for (VertexId v : query) {
    if (v >= g.value().num_vertices()) return Fail("query vertex out of range");
  }
  const int h = flags.GetInt("h", 2);
  CommunityResult r = DistanceCocktailParty(g.value(), query, h,
                                            CoreOptions(flags));
  if (!r.feasible) {
    std::printf("infeasible: query vertices span multiple components\n");
    return 0;
  }
  std::printf("community: |S|=%zu min_h_degree=%u core_level=%u\nmembers:",
              r.vertices.size(), r.min_h_degree, r.core_level);
  for (VertexId v : r.vertices) std::printf(" %u", v);
  std::printf("\n");
  return 0;
}

int CmdDensest(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  const int h = flags.GetInt("h", 2);
  DensestResult core = DensestByCoreDecomposition(g.value(), h,
                                                  CoreOptions(flags));
  DensestResult greedy = DensestByGreedyPeeling(g.value(), h);
  std::printf("core-approx: f_%d=%.3f |S|=%zu\n", h, core.density,
              core.vertices.size());
  std::printf("greedy-peel: f_%d=%.3f |S|=%zu\n", h, greedy.density,
              greedy.vertices.size());
  return 0;
}

void PrintServeStats(const ShardedHCoreService& service) {
  auto view = service.view();
  const HCoreIndexStats s = service.stats().index;
  std::printf("epoch=%llu n=%u m=%llu h_max=%d\n",
              static_cast<unsigned long long>(view->service_epoch()),
              view->graph().num_vertices(),
              static_cast<unsigned long long>(view->graph().num_edges()),
              service.max_h());
  std::printf(
      "csr_rebuilds=%llu batches=%llu edits=%llu level_runs=%llu "
      "levels_unchanged=%llu localized=%llu fallback_repeels=%llu\n"
      "bfs_visits=%llu hdeg_computations=%llu decrements=%llu "
      "decomposition_seconds=%.3f\n",
      static_cast<unsigned long long>(s.csr_rebuilds),
      static_cast<unsigned long long>(s.batches_applied),
      static_cast<unsigned long long>(s.edits_applied),
      static_cast<unsigned long long>(s.level_decompositions),
      static_cast<unsigned long long>(s.levels_unchanged),
      static_cast<unsigned long long>(s.localized_updates),
      static_cast<unsigned long long>(s.fallback_repeels),
      static_cast<unsigned long long>(s.decomposition.visited_vertices),
      static_cast<unsigned long long>(s.decomposition.hdegree_computations),
      static_cast<unsigned long long>(s.decomposition.decrement_updates),
      s.decomposition.seconds);
}

void PrintVertexList(const std::vector<VertexId>& vertices, size_t limit) {
  const size_t shown = std::min(vertices.size(), limit);
  for (size_t i = 0; i < shown; ++i) std::printf(" %u", vertices[i]);
  if (shown < vertices.size()) {
    std::printf(" ... (%zu more)", vertices.size() - shown);
  }
  std::printf("\n");
}

int CmdServe(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());
  ShardedServiceOptions opts;
  opts.index.max_h = HMax(flags);
  opts.index.base = CoreOptions(flags);

  std::printf("building index: n=%u m=%llu h_max=%d threads=%d ...\n",
              g.value().num_vertices(),
              static_cast<unsigned long long>(g.value().num_edges()),
              opts.index.max_h, opts.index.base.num_threads);
  ShardedHCoreService service(std::move(g.value()), opts);
  std::printf("ready (%.3fs); try 'help'\n",
              service.stats().index.decomposition.seconds);

  const size_t print_limit =
      static_cast<size_t>(flags.GetInt("print-limit", 32));
  std::vector<EdgeEdit> pending;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    auto view = service.view();
    const VertexId n = view->graph().num_vertices();
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "core <v> <h> | spectrum <v> | component <v> <k> <h> |\n"
          "community <h> <v1,v2,...> | densest <h> <top-k> |\n"
          "insert <u> <v> | delete <u> <v> | apply | stats | stats reset |\n"
          "quit\n");
    } else if (cmd == "core") {
      VertexId v;
      int h;
      if (!(in >> v >> h) || v >= n || h < 1 || h > service.max_h()) {
        std::printf("error: usage core <v> <h>\n");
        continue;
      }
      std::printf("core_%d(%u) = %u\n", h, v, view->CoreOf(v, h));
    } else if (cmd == "spectrum") {
      VertexId v;
      if (!(in >> v) || v >= n) {
        std::printf("error: usage spectrum <v>\n");
        continue;
      }
      std::printf("spectrum(%u) =", v);
      for (uint32_t c : view->Spectrum(v)) std::printf(" %u", c);
      std::printf("\n");
    } else if (cmd == "component") {
      VertexId v;
      uint32_t k;
      int h;
      if (!(in >> v >> k >> h) || v >= n || h < 1 || h > service.max_h()) {
        std::printf("error: usage component <v> <k> <h>\n");
        continue;
      }
      std::vector<VertexId> component = service.CoreComponentOf(v, k, h);
      std::printf("component(v=%u, k=%u, h=%d): |C|=%zu\n", v, k, h,
                  component.size());
      if (!component.empty()) PrintVertexList(component, print_limit);
    } else if (cmd == "community") {
      int h;
      std::string ids;
      if (!(in >> h >> ids) || h < 1 || h > service.max_h()) {
        std::printf("error: usage community <h> <v1,v2,...>\n");
        continue;
      }
      std::vector<VertexId> query;
      if (!ParseIdList(ids, &query)) {
        std::printf("error: usage community <h> <v1,v2,...>\n");
        continue;
      }
      bool valid = true;
      for (VertexId v : query) valid &= (v < n);
      if (!valid) {
        std::printf("error: query vertex out of range\n");
        continue;
      }
      CommunityResult r = service.Community(query, h);
      if (!r.feasible) {
        std::printf("infeasible: query spans components\n");
        continue;
      }
      std::printf("community: |S|=%zu min_h_degree=%u core_level=%u\n",
                  r.vertices.size(), r.min_h_degree, r.core_level);
      PrintVertexList(r.vertices, print_limit);
    } else if (cmd == "densest") {
      int h;
      int top_k;
      if (!(in >> h >> top_k) || h < 1 || h > service.max_h() || top_k < 1) {
        std::printf("error: usage densest <h> <top-k>\n");
        continue;
      }
      auto rows = view->TopDensestLevels(h, static_cast<size_t>(top_k));
      for (const auto& row : rows) {
        std::printf("k=%u |C_k|=%u |E(C_k)|=%llu density=%.3f\n", row.k,
                    row.vertices, static_cast<unsigned long long>(row.edges),
                    row.density);
      }
      if (rows.empty()) std::printf("(no non-empty core levels)\n");
    } else if (cmd == "insert" || cmd == "delete") {
      VertexId u, v;
      if (!(in >> u >> v)) {
        std::printf("error: usage %s <u> <v>\n", cmd.c_str());
        continue;
      }
      // Inserts may grow the graph, but a typo'd id must not make the CSR
      // rebuild allocate gigabytes: cap growth per staged edit.
      constexpr VertexId kMaxGrowth = 1u << 20;
      if (u >= n + kMaxGrowth || v >= n + kMaxGrowth) {
        std::printf("error: vertex id beyond n + %u (n = %u)\n", kMaxGrowth,
                    n);
        continue;
      }
      pending.push_back(cmd == "insert" ? EdgeEdit::Insert(u, v)
                                        : EdgeEdit::Delete(u, v));
      std::printf("staged (%zu pending; 'apply' to commit)\n",
                  pending.size());
    } else if (cmd == "apply") {
      const size_t applied = service.ApplyBatch(pending);
      std::printf(
          "applied %zu/%zu edits -> epoch %llu\n", applied, pending.size(),
          static_cast<unsigned long long>(service.view()->service_epoch()));
      pending.clear();
    } else if (cmd == "stats") {
      std::string sub;
      if (!(in >> sub)) {
        PrintServeStats(service);
      } else if (sub == "reset") {
        service.ResetStats();
        std::printf("stats reset\n");
      } else {
        std::printf("error: usage stats [reset]\n");
      }
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}

/// Parses --mix: a named preset or six comma-separated ratios in op order
/// (core,spectrum,densest,component,community,write). Returns false with a
/// message for anything else; ratio validation happens later via
/// ValidateWorkloadOptions.
bool ParseMix(const std::string& spec, WorkloadMix* mix, std::string* error) {
  if (spec.empty() || spec == "mixed") {
    mix->name = "mixed";  // the WorkloadMix defaults
    return true;
  }
  if (spec == "read-heavy") {
    *mix = WorkloadMix{"read-heavy", 0.60, 0.25, 0.05, 0.08, 0.02, 0.0};
    return true;
  }
  if (spec == "write-heavy") {
    *mix = WorkloadMix{"write-heavy", 0.30, 0.10, 0.02, 0.12, 0.01, 0.45};
    return true;
  }
  std::vector<double> ratios;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (field.empty() || end == field.c_str() || *end != '\0') {
      *error = "--mix: '" + field + "' is not a number (expected a preset " +
               "name or core,spectrum,densest,component,community,write)";
      return false;
    }
    ratios.push_back(value);
    pos = comma + 1;
  }
  if (ratios.size() != static_cast<size_t>(kNumWorkloadOps)) {
    *error = "--mix: expected " + std::to_string(kNumWorkloadOps) +
             " comma-separated ratios, got " + std::to_string(ratios.size());
    return false;
  }
  *mix = WorkloadMix{"custom",    ratios[0], ratios[1],
                     ratios[2],   ratios[3], ratios[4],
                     ratios[5]};
  return true;
}

int CmdWorkload(const Flags& flags) {
  Result<Graph> g = LoadInput(flags);
  if (!g.ok()) return Fail(g.status().ToString());

  WorkloadOptions options;
  std::string error;
  if (!ParseMix(flags.Get("mix"), &options.mix, &error)) return Fail(error);
  options.clients = flags.GetInt("clients", 4);
  options.ops_per_client = flags.GetInt("ops", 200);
  options.zipf_skew = flags.GetDouble("zipf", 0.8);
  options.write_batch_edits = flags.GetInt("batch-edits", 8);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool check = flags.Has("check");
  options.collect_applied_batches = check;
  // Validate everything user-supplied BEFORE building the service: a bad
  // mix or client count must be a one-line error, not an abort mid-run.
  if (!ValidateWorkloadOptions(options, &error)) return Fail(error);
  ShardedServiceOptions service_options;
  service_options.index.max_h = HMax(flags, 2);
  service_options.index.base = CoreOptions(flags);
  const int max_clients = flags.GetInt("saturation", 0);

  const Graph& graph = g.value();
  if (graph.num_vertices() == 0) {
    return Fail("the workload needs a non-empty graph");
  }
  std::printf("building index: n=%u m=%llu h_max=%d ...\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              service_options.index.max_h);
  // --check replays against the initial graph, so keep a copy.
  Graph initial = check ? Graph(graph) : Graph();
  ShardedHCoreService service(Graph(graph), service_options);

  std::printf("mix %s: clients=%d ops/client=%d zipf=%.2f seed=%llu\n",
              options.mix.name.c_str(), options.clients,
              options.ops_per_client, options.zipf_skew,
              static_cast<unsigned long long>(options.seed));
  const WorkloadReport report = RunWorkload(&service, options);
  std::printf("qps=%.0f (%.2fs, %llu ops)\n", report.qps, report.seconds,
              static_cast<unsigned long long>(report.total_ops));
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "op", "count", "mean_ms",
              "p50_ms", "p99_ms", "p999_ms");
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    const OpClassReport& c = report.per_op[i];
    if (c.count == 0) continue;
    std::printf("%-10s %10llu %10.3f %10.3f %10.3f %10.3f\n",
                WorkloadOpName(static_cast<WorkloadOp>(i)),
                static_cast<unsigned long long>(c.count), c.latency.MeanMs(),
                c.latency.PercentileMs(0.50), c.latency.PercentileMs(0.99),
                c.latency.PercentileMs(0.999));
  }

  // The oracle replay must see EVERY batch the service has applied, so the
  // differential runs before the saturation search mutates the graph further.
  if (check) {
    const size_t mismatches =
        CompareToScratchOracle(ReplayAppliedBatches(std::move(initial), report),
                               *service.view())
            .total();
    std::printf("differential: %zu write batches, %zu mismatches\n",
                report.applied_batches.size(), mismatches);
    if (mismatches != 0) {
      return Fail("served answers diverged from the from-scratch oracle");
    }
  }

  if (max_clients >= 1) {
    const SaturationResult sat =
        SaturationSearch(&service, options, max_clients);
    std::printf("saturation: clients=%d peak_qps=%.0f (steps:",
                sat.saturation_clients, sat.peak_qps);
    for (const SaturationStep& s : sat.steps) {
      std::printf(" %d->%.0f", s.clients, s.qps);
    }
    std::printf(")\n");
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  std::string model = flags.Get("model", "ba");
  std::string out_path = flags.Get("output");
  if (out_path.empty()) return Fail("--output=<file> required");
  const VertexId n = static_cast<VertexId>(flags.GetInt("n", 1000));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  Graph g;
  if (model == "ba") {
    g = gen::BarabasiAlbert(n, static_cast<uint32_t>(flags.GetInt("attach", 3)),
                            &rng);
  } else if (model == "gnp") {
    g = gen::ErdosRenyiGnp(n, flags.GetDouble("p", 0.01), &rng);
  } else if (model == "ws") {
    const long long k = flags.GetInt("k", 3);
    if (n <= 2 * k) return Fail("--model=ws needs --n > 2 * --k");
    g = gen::WattsStrogatz(n, static_cast<uint32_t>(k),
                           flags.GetDouble("beta", 0.1), &rng);
  } else if (model == "road") {
    VertexId side = static_cast<VertexId>(std::max(2.0, std::sqrt(double(n))));
    g = gen::RoadLattice(side, side, 0.72, &rng);
  } else if (model == "cliques") {
    g = gen::CliqueOverlay(n, n / 2, 2, std::max<uint32_t>(8, n / 50), 2.0,
                           &rng);
  } else {
    return Fail("unknown model: " + model);
  }
  Status s = io::WriteEdgeList(g, out_path);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("wrote %s: n=%u m=%llu\n", out_path.c_str(), g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: hcore_cli <command> [--flags]\n"
               "commands: decompose hierarchy stats spectrum hclub hclique\n"
               "          coloring community densest generate serve workload\n"
               "see the header comment of tools/hcore_cli.cc for details\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::vector<FlagSpec> core = CoreFlags();
  auto with_core = [&core](std::vector<FlagSpec> specs) {
    specs.insert(specs.end(), core.begin(), core.end());
    return specs;
  };
  const FlagSpec input = Str("input");
  const FlagSpec output = Str("output");
  const FlagSpec h = Int("h", 1, kMaxH);
  const FlagSpec h_max = Int("h-max", 1, kMaxH);
  const FlagSpec max_h = Int("max-h", 1, kMaxH);  // legacy alias of --h-max
  struct Command {
    const char* name;
    int (*run)(const Flags&);
    std::vector<FlagSpec> flags;
  };
  const std::vector<Command> commands = {
      {"decompose", CmdDecompose, with_core({input, output, h})},
      {"hierarchy", CmdHierarchy,
       with_core({input, h, Int("limit", 0, kMaxInt), Str("dot")})},
      {"stats", CmdStats, {input}},
      {"spectrum", CmdSpectrum, with_core({input, output, h_max, max_h})},
      {"hclub", CmdHClub,
       with_core({input, h, Enum("solver", "bb|it"), Switch("no-core"),
                  Int("max-nodes", 0, kMaxInt)})},
      {"hclique", CmdHClique, {input, h}},
      {"coloring", CmdColoring, {input, h, output}},
      {"community", CmdCommunity, with_core({input, h, Str("query")})},
      {"densest", CmdDensest, with_core({input, h})},
      {"generate", CmdGenerate,
       {Enum("model", "ba|gnp|ws|road|cliques"), output,
        Int("n", 1, kMaxInt), Int("seed", 0, kMaxInt),
        Int("attach", 1, kMaxInt), Real("p", 0.0, 1.0), Int("k", 1, kMaxInt),
        Real("beta", 0.0, 1.0)}},
      {"serve", CmdServe,
       with_core({input, h_max, max_h, Int("print-limit", 0, kMaxInt)})},
      {"workload", CmdWorkload,
       with_core({input, h_max, max_h, Str("mix"),
                  Int("clients", 1, kMaxThreads), Int("ops", 1, kMaxInt),
                  Real("zipf", 0.0, 100.0), Int("batch-edits", 1, 1 << 20),
                  Int("seed", 0, kMaxInt), Switch("check"),
                  Int("saturation", 1, kMaxThreads)})},
  };
  const std::string cmd = argv[1];
  for (const Command& command : commands) {
    if (cmd != command.name) continue;
    Flags flags;
    std::string error;
    if (!ParseFlags(argc, argv, command.flags, &flags, &error)) {
      return Fail(error);
    }
    return command.run(flags);
  }
  Usage();
  return 1;
}
