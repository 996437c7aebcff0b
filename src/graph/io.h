// Copyright 2026 The QPGC Authors.
//
// Plain-text graph I/O:
//  * Edge-list format (SNAP-compatible): one "u v" pair per line; lines
//    starting with '#' are comments.
//  * Label format: one "u label" pair per line.
// These are the formats the paper's datasets ship in, so a user with the
// real SNAP files can load them directly.

#ifndef QPGC_GRAPH_IO_H_
#define QPGC_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "util/status.h"

namespace qpgc {

/// Loads a graph from a SNAP-style edge list file. Fails with CORRUPT_DATA
/// on a malformed line, or, before allocating per-node storage, when the
/// largest node id is at least 2^20 + 16 x (number of edge lines).
Result<Graph> LoadEdgeList(const std::string& path);

/// Writes a graph as an edge list (with a header comment).
Status SaveEdgeList(const Graph& g, const std::string& path);

/// Loads node labels ("u label" per line) into an existing graph.
Status LoadLabels(Graph& g, const std::string& path);

/// Writes node labels ("u label" per line).
Status SaveLabels(const Graph& g, const std::string& path);

/// Parses an edge list from a string (for tests), as LoadEdgeList does.
Result<Graph> ParseEdgeList(const std::string& text);

}  // namespace qpgc

#endif  // QPGC_GRAPH_IO_H_
