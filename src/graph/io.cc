#include "graph/io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

namespace hcore::io {
namespace {

// Parses one vertex id starting at text[*pos], which must end at `eol` or
// at whitespace; advances *pos past it. Returns nullptr on success, else
// what is wrong with the id.
const char* ParseId(const std::string& text, size_t eol, size_t* pos,
                    uint64_t* out) {
  size_t i = *pos;
  if (i >= eol || !std::isdigit(static_cast<unsigned char>(text[i]))) {
    return "is missing or not a number";
  }
  uint64_t value = 0;
  while (i < eol && std::isdigit(static_cast<unsigned char>(text[i]))) {
    const uint64_t digit = static_cast<uint64_t>(text[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return "exceeds 2^64-1";
    value = value * 10 + digit;
    ++i;
  }
  if (i < eol && !std::isspace(static_cast<unsigned char>(text[i]))) {
    return "has trailing characters";
  }
  *pos = i;
  *out = value;
  return nullptr;
}

}  // namespace

Result<Graph> ParseEdgeList(const std::string& text) {
  GraphBuilder builder;
  std::unordered_map<uint64_t, VertexId> relabel;
  auto intern = [&](uint64_t raw) {
    return relabel.try_emplace(raw, static_cast<VertexId>(relabel.size()))
        .first->second;
  };

  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    ++line_no;
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    size_t i = pos;
    while (i < eol && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i < eol && text[i] != '#' && text[i] != '%') {
      auto bad_id = [line_no](const char* which, const char* error) {
        return Status::InvalidArgument("edge list: " + std::string(which) +
                                       " id " + error + " at line " +
                                       std::to_string(line_no));
      };
      uint64_t u = 0, v = 0;
      if (const char* error = ParseId(text, eol, &i, &u)) {
        return bad_id("source", error);
      }
      while (i < eol && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
      if (const char* error = ParseId(text, eol, &i, &v)) {
        return bad_id("target", error);
      }
      // Further whitespace-separated columns (e.g. KONECT weights and
      // timestamps) are ignored.
      builder.AddEdge(intern(u), intern(v));
    }
    pos = eol + 1;
  }
  builder.EnsureVertices(static_cast<VertexId>(relabel.size()));
  return builder.Build();
}

Result<Graph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseEdgeList(buffer.str());
}

Status WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open file for writing: " + path);
  out << "# hcore edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (const auto& [u, v] : g.Edges()) {
    out << u << ' ' << v << '\n';
  }
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Status WriteDot(const Graph& g, const std::string& path,
                const std::vector<uint32_t>* vertex_label) {
  if (vertex_label != nullptr && vertex_label->size() != g.num_vertices()) {
    return Status::InvalidArgument("vertex_label size mismatch");
  }
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open file for writing: " + path);
  out << "graph hcore {\n  node [shape=circle];\n";
  if (vertex_label != nullptr) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      out << "  " << v << " [label=\"" << v << "\\n" << (*vertex_label)[v]
          << "\"];\n";
    }
  }
  for (const auto& [u, v] : g.Edges()) {
    out << "  " << u << " -- " << v << ";\n";
  }
  out << "}\n";
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace hcore::io
