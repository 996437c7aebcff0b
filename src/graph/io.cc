// Copyright 2026 The QPGC Authors.

#include "graph/io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/builder.h"

namespace qpgc {

namespace {

// The largest id sizes the graph, so it must stay below 2^20 + 16 per edge
// line (io.h): one line "0 4000000000" would otherwise exhaust memory.
constexpr uint64_t kIdSlack = uint64_t{1} << 20;
constexpr uint64_t kIdsPerEdgeLine = 16;

// Parses "u v" pairs from a stream. Every error message starts with
// `where` (a path and ": ", or nothing).
Result<Graph> ParseEdges(std::istream& in, const std::string& where) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  size_t num_nodes = 0;  // largest id + 1
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size() || line[i] == '#') continue;
    unsigned long long u = 0, v = 0;
    if (std::sscanf(line.c_str() + i, "%llu %llu", &u, &v) != 2 ||
        u > kInvalidNode - 1 || v > kInvalidNode - 1) {
      return Status::CorruptData(where + "bad edge at line " +
                                 std::to_string(lineno));
    }
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
    num_nodes = std::max<size_t>(num_nodes, std::max(u, v) + 1);
  }
  const uint64_t id_limit = kIdSlack + kIdsPerEdgeLine * edges.size();
  if (num_nodes > id_limit) {
    return Status::CorruptData(
        where + "node id " + std::to_string(num_nodes - 1) + " is not below " +
        std::to_string(id_limit) + " (2^20 + 16 per edge line)");
  }
  GraphBuilder builder(num_nodes);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

}  // namespace

Result<Graph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return ParseEdges(in, path + ": ");
}

Result<Graph> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseEdges(in, "");
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << "# qpgc edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  g.ForEachEdge([&](NodeId u, NodeId v) { out << u << ' ' << v << '\n'; });
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status LoadLabels(Graph& g, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    unsigned long long u = 0, l = 0;
    if (std::sscanf(line.c_str(), "%llu %llu", &u, &l) != 2) {
      return Status::CorruptData(path + ": bad label at line " +
                                 std::to_string(lineno));
    }
    if (u >= g.num_nodes()) {
      return Status::CorruptData(path + ": node out of range at line " +
                                 std::to_string(lineno));
    }
    g.set_label(static_cast<NodeId>(u), static_cast<Label>(l));
  }
  return Status::Ok();
}

Status SaveLabels(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out << u << ' ' << g.label(u) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace qpgc
