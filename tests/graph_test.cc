// Tests for the CSR Graph, GraphBuilder normalization, induced subgraphs,
// and edge-list I/O.

#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "test_util.h"

namespace hcore {
namespace {

using ::hcore::testing::Corpus;
using ::hcore::testing::MakeRandomGraph;
using ::hcore::testing::RandomGraphSpec;

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate in reverse
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self-loop
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphBuilder, GrowsVertexCountFromEdges) {
  GraphBuilder b;
  b.AddEdge(5, 9);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilder, EmptyBuild) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(2, 1);
  Graph g = b.Build();
  auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 4u);
  for (size_t i = 1; i < nb.size(); ++i) EXPECT_LT(nb[i - 1], nb[i]);
}

TEST(Graph, DegreeStatistics) {
  Graph g = gen::Star(5);
  EXPECT_EQ(g.MaxDegree(), 4u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0 * 4 / 5);
  EXPECT_EQ(Graph().MaxDegree(), 0u);
  EXPECT_DOUBLE_EQ(Graph().AverageDegree(), 0.0);
}

TEST(Graph, EdgesListsEachEdgeOnce) {
  Graph g = gen::Cycle(5);
  auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 5u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, InducedSubgraphKeepsInternalEdges) {
  Graph g = gen::Cycle(6);  // 0-1-2-3-4-5-0
  auto [sub, map] = g.InducedSubgraph({0, 1, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 4u);
  EXPECT_EQ(sub.num_edges(), 3u);  // path 0-1-2-3; the wrap edge is cut
  EXPECT_EQ(map[5], kInvalidVertex);
  EXPECT_TRUE(sub.HasEdge(map[0], map[1]));
  EXPECT_FALSE(sub.HasEdge(map[0], map[3]));
}

TEST(Graph, InducedSubgraphDedupsInput) {
  Graph g = gen::Complete(4);
  auto [sub, map] = g.InducedSubgraph({2, 2, 0, 0});
  (void)map;
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);
}

class GraphRoundTrip : public ::testing::TestWithParam<RandomGraphSpec> {};

TEST_P(GraphRoundTrip, WriteParseRoundTripPreservesStructure) {
  Graph g = MakeRandomGraph(GetParam());
  std::string path =
      ::testing::TempDir() + "/hcore_roundtrip_" + GetParam().Name() + ".txt";
  ASSERT_TRUE(io::WriteEdgeList(g, path).ok());
  Result<Graph> r = io::ReadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g2 = r.value();
  // Vertex ids are relabeled in first-appearance order, so compare
  // degree multisets and edge counts (isolated vertices are not written).
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Corpus, GraphRoundTrip,
                         ::testing::ValuesIn(Corpus(40, 1)),
                         [](const ::testing::TestParamInfo<RandomGraphSpec>& i) {
                           return i.param.Name();
                         });

TEST(GraphIo, ParsesSnapFormatWithCommentsAndRelabeling) {
  const std::string text =
      "# comment line\n"
      "% another comment\n"
      "10 20\n"
      "20 30\n"
      "\n"
      "10 30\n";
  Result<Graph> r = io::ParseEdgeList(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_vertices(), 3u);  // 10, 20, 30 -> 0, 1, 2
  EXPECT_EQ(r.value().num_edges(), 3u);
}

TEST(GraphIo, RejectsMalformedLines) {
  EXPECT_FALSE(io::ParseEdgeList("1 x\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("abc def\n").ok());
  EXPECT_FALSE(io::ParseEdgeList("42\n").ok());
}

TEST(GraphIo, RejectsIdsAboveUint64Max) {
  // 2^64 used to wrap to 0 and silently merge vertex 7's neighbor into
  // vertex 0, loading this 6-id file with n = 5.
  Result<Graph> r = io::ParseEdgeList("5 6\n7 18446744073709551616\n0 9\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "edge list: target id exceeds 2^64-1 at line 2");
  EXPECT_FALSE(io::ParseEdgeList("99999999999999999999999 1\n").ok());
  // The largest representable id still parses.
  Result<Graph> max = io::ParseEdgeList("18446744073709551615 0\n");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value().num_vertices(), 2u);
  EXPECT_EQ(max.value().num_edges(), 1u);
}

TEST(GraphIo, RejectsTrailingGarbageAfterAnId) {
  Result<Graph> r = io::ParseEdgeList("2 3\n0 1x\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "edge list: target id has trailing characters at line 2");
  EXPECT_EQ(io::ParseEdgeList("0x1 2\n").status().message(),
            "edge list: source id has trailing characters at line 1");
  EXPECT_FALSE(io::ParseEdgeList("0,1\n").ok());
  EXPECT_EQ(io::ParseEdgeList("1 x\n").status().message(),
            "edge list: target id is missing or not a number at line 1");
}

TEST(GraphIo, AcceptsExtraWhitespaceSeparatedColumns) {
  // KONECT-style weight and timestamp columns, tabs, and CRLF endings.
  Result<Graph> r = io::ParseEdgeList("0 1 0.5 1234\n1\t2\t1\r\n2 0\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_vertices(), 3u);
  EXPECT_EQ(r.value().num_edges(), 3u);
}

TEST(GraphIo, WriteDotProducesValidDotText) {
  Graph g = gen::Path(3);
  std::string path = ::testing::TempDir() + "/hcore_dot_test.dot";
  std::vector<uint32_t> labels{7, 8, 9};
  ASSERT_TRUE(io::WriteDot(g, path, &labels).ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("graph hcore {"), std::string::npos);
  EXPECT_NE(text.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(text.find("1 -- 2;"), std::string::npos);
  EXPECT_NE(text.find("[label=\"0\\n7\"]"), std::string::npos);
  std::remove(path.c_str());
  // Size mismatch is rejected.
  std::vector<uint32_t> bad{1};
  EXPECT_FALSE(io::WriteDot(g, path, &bad).ok());
}

TEST(GraphIo, MissingFileIsNotFound) {
  Result<Graph> r = io::ReadEdgeList("/nonexistent/hcore-missing.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GraphWithEdits, SplicesInsertsAndDeletes) {
  Graph g = gen::Cycle(5);
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(0, 2),
      EdgeEdit::Delete(3, 4),
      EdgeEdit::Insert(1, 1),  // self-loop: ignored
      EdgeEdit::Insert(0, 1),  // already present: no-op
      EdgeEdit::Delete(1, 3),  // absent: no-op
  };
  EdgeEditSummary summary;
  Graph next = g.WithEdits(edits, &summary);
  EXPECT_EQ(summary.inserts, 1u);
  EXPECT_EQ(summary.deletes, 1u);
  EXPECT_EQ(next.num_vertices(), 5u);
  EXPECT_EQ(next.num_edges(), 5u);
  EXPECT_TRUE(next.HasEdge(0, 2));
  EXPECT_FALSE(next.HasEdge(3, 4));
  EXPECT_TRUE(next.HasEdge(0, 1));
  // The input graph is untouched.
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(3, 4));
}

TEST(GraphWithEdits, LaterEditOfTheSameEdgeWins) {
  Graph g = gen::Path(4);
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(0, 3),
      EdgeEdit::Delete(0, 3),  // cancels the insert above
      EdgeEdit::Delete(1, 2),
      EdgeEdit::Insert(2, 1),  // re-inserts (canonical order is normalized)
      EdgeEdit::Insert(1, 9),
      EdgeEdit::Delete(9, 1),  // cancelled out-of-range insert: no growth
  };
  EdgeEditSummary summary;
  Graph next = g.WithEdits(edits, &summary);
  EXPECT_EQ(summary.applied(), 0u);
  EXPECT_EQ(next.num_vertices(), g.num_vertices());
  EXPECT_EQ(next.Edges(), g.Edges());
}

TEST(GraphWithEdits, InsertGrowsTheVertexSet) {
  Graph g = gen::Path(3);
  std::vector<EdgeEdit> edits = {EdgeEdit::Insert(2, 6)};
  Graph next = g.WithEdits(edits);
  EXPECT_EQ(next.num_vertices(), 7u);
  EXPECT_TRUE(next.HasEdge(2, 6));
  EXPECT_EQ(next.degree(5), 0u);
}

TEST(GraphWithEdits, OutOfRangeAndSentinelIdsAreSafeNoOps) {
  // Regression: growing inserts mixed with deletes naming vertices the
  // graph does not have (yet), plus the kInvalidVertex sentinel whose +1
  // wraps to 0, must all be clean no-ops — ids are guarded against old_n
  // before the edge set is consulted.
  Graph g = gen::Path(5);  // vertices 0..4
  std::vector<EdgeEdit> edits = {
      EdgeEdit::Insert(4, 9),                // grows the graph to 10
      EdgeEdit::Delete(7, 8),                // out of range: deletes nothing
      EdgeEdit::Delete(2, 9),                // 9 exists only after the batch
      EdgeEdit::Delete(11, 3),               // out of range either way
      EdgeEdit::Insert(3, kInvalidVertex),   // sentinel id: dropped
      EdgeEdit::Delete(kInvalidVertex, 0),   // sentinel id: dropped
      EdgeEdit::Insert(6, 12),               // superseded by ...
      EdgeEdit::Delete(6, 12),               // ... this delete: no growth
  };
  EdgeEditSummary summary;
  std::vector<EdgeEdit> effective;
  Graph next = g.WithEdits(edits, &summary, &effective);
  EXPECT_EQ(summary.inserts, 1u);
  EXPECT_EQ(summary.deletes, 0u);
  ASSERT_EQ(effective.size(), 1u);
  EXPECT_TRUE(effective[0].insert);
  EXPECT_EQ(effective[0].u, 4u);
  EXPECT_EQ(effective[0].v, 9u);
  EXPECT_EQ(next.num_vertices(), 10u);
  EXPECT_EQ(next.num_edges(), g.num_edges() + 1);
  EXPECT_TRUE(next.HasEdge(4, 9));
}

TEST(GraphWithEdits, RandomBatchesMatchBuilderReference) {
  for (const RandomGraphSpec& spec : Corpus(60, 2)) {
    Graph g = MakeRandomGraph(spec);
    Rng rng(spec.seed * 389 + 7);
    for (int round = 0; round < 3; ++round) {
      const VertexId n = g.num_vertices();
      std::vector<EdgeEdit> edits;
      for (int i = 0; i < 12; ++i) {
        edits.push_back(EdgeEdit::Insert(rng.NextIndex(n), rng.NextIndex(n)));
      }
      auto edges = g.Edges();
      for (int i = 0; i < 12 && !edges.empty(); ++i) {
        auto [u, v] =
            edges[rng.NextIndex(static_cast<uint32_t>(edges.size()))];
        edits.push_back(EdgeEdit::Delete(u, v));
      }
      Graph spliced = g.WithEdits(edits);

      // Reference: replay the edit semantics (later edit wins) on an edge
      // set, then rebuild from scratch.
      std::set<std::pair<VertexId, VertexId>> edge_set(edges.begin(),
                                                       edges.end());
      VertexId new_n = n;
      for (const EdgeEdit& e : edits) {
        if (e.u == e.v) continue;
        auto key = std::minmax(e.u, e.v);
        if (e.insert) {
          edge_set.insert({key.first, key.second});
          new_n = std::max(new_n, key.second + 1);
        } else {
          edge_set.erase({key.first, key.second});
        }
      }
      GraphBuilder b(new_n);
      for (const auto& [u, v] : edge_set) b.AddEdge(u, v);
      Graph reference = b.Build();

      ASSERT_EQ(spliced.num_vertices(), reference.num_vertices())
          << spec.Name() << " round=" << round;
      ASSERT_EQ(spliced.FlattenedOffsets(), reference.FlattenedOffsets());
      ASSERT_EQ(spliced.FlattenedNeighbors(), reference.FlattenedNeighbors());
      g = std::move(spliced);
    }
  }
}

TEST(GraphPaging, SingleEditCopiesOnlyTouchedPages) {
  Rng rng(11);
  Graph g = gen::BarabasiAlbert(5000, 3, &rng);
  const size_t pages = g.num_pages();
  ASSERT_EQ(pages, (5000 + Graph::kPageVertices - 1) / Graph::kPageVertices);
  ASSERT_GT(pages, 3u);

  // One in-range edit touches at most the two pages holding its endpoints;
  // every other page of the new epoch is the same heap object.
  const VertexId u = 100, v = 4000;
  ASSERT_FALSE(g.HasEdge(u, v));
  const std::vector<EdgeEdit> one = {EdgeEdit::Insert(u, v)};
  Graph next = g.WithEdits(one);
  EXPECT_EQ(next.num_pages(), pages);
  EXPECT_GE(CountSharedPages(g, next), pages - 2);
  const size_t pu = u >> Graph::kPageVertexBits;
  const size_t pv = v >> Graph::kPageVertexBits;
  for (size_t p = 0; p < pages; ++p) {
    if (p == pu || p == pv) {
      EXPECT_NE(g.PageIdentity(p), next.PageIdentity(p)) << "page " << p;
    } else {
      EXPECT_EQ(g.PageIdentity(p), next.PageIdentity(p)) << "page " << p;
    }
  }
  EXPECT_TRUE(next.HasEdge(u, v));

  // Deleting it again restores the adjacency (fresh pages, equal bytes).
  const std::vector<EdgeEdit> undo = {EdgeEdit::Delete(u, v)};
  Graph back = next.WithEdits(undo);
  EXPECT_EQ(back.FlattenedOffsets(), g.FlattenedOffsets());
  EXPECT_EQ(back.FlattenedNeighbors(), g.FlattenedNeighbors());
  EXPECT_GE(CountSharedPages(next, back), pages - 2);
}

TEST(GraphPaging, NoOpBatchSharesEveryPageAndMemoryIsAccounted) {
  Rng rng(12);
  Graph g = gen::BarabasiAlbert(3000, 3, &rng);
  // Resident bytes cover at least every page's target buffer (2 slots per
  // undirected edge) plus the per-vertex offset entries.
  EXPECT_GT(g.MemoryBytes(), g.num_edges() * 2 * sizeof(VertexId));
  // A batch that inserts then deletes the same absent edge canonicalizes to
  // nothing: the new epoch shares every page by pointer.
  VertexId a = 7, b = 2500;
  while (g.HasEdge(a, b)) ++b;
  const std::vector<EdgeEdit> nop = {EdgeEdit::Insert(a, b),
                                     EdgeEdit::Delete(a, b)};
  Graph same = g.WithEdits(nop);
  EXPECT_EQ(CountSharedPages(g, same), g.num_pages());
  EXPECT_EQ(same.FlattenedNeighbors(), g.FlattenedNeighbors());
}

TEST(Connectivity, ComponentsOfDisjointPieces) {
  GraphBuilder b(7);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  // 5, 6 isolated
  Graph g = b.Build();
  ConnectedComponents cc = ComputeConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 4u);
  EXPECT_EQ(cc.component[0], cc.component[2]);
  EXPECT_NE(cc.component[0], cc.component[3]);
  EXPECT_EQ(LargestComponent(g).size(), 3u);
}

TEST(Connectivity, MaskedComponents) {
  Graph g = gen::Path(5);
  VertexMask alive(5, true);
  alive.Kill(2);
  ConnectedComponents cc = ComputeConnectedComponents(g, alive);
  EXPECT_EQ(cc.num_components, 2u);
  EXPECT_EQ(cc.component[2], kInvalidComponent);
  EXPECT_TRUE(InSameComponent(g, alive, {0, 1}));
  EXPECT_FALSE(InSameComponent(g, alive, {0, 3}));
  EXPECT_FALSE(InSameComponent(g, alive, {2}));  // dead query vertex
}

}  // namespace
}  // namespace hcore
