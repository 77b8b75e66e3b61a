/**
 * @file
 * Plain-text edge-list persistence, so users can bring their own graphs.
 *
 * Format: one `src dst` pair per line; `#`-prefixed lines are comments
 * and fields after the second are ignored. Ids are unsigned decimal
 * integers below 2^32 - 1, so |V| = max id + 1 fits a VertexId. Vertex
 * count is max id + 1 unless given explicitly.
 */

#pragma once

#include <string>

#include "graph/csr_graph.h"

namespace graphite {

/**
 * Load a graph from an edge-list text file.
 *
 * @param path file to read; fatal() on open failure, a malformed or
 *        signed id, an id beyond the VertexId range or one not below
 *        @p numVertices, naming the offending `file:line`.
 * @param numVertices vertex count, or 0 to infer max id + 1.
 * @param undirected if true each listed edge is added in both directions.
 */
CsrGraph loadEdgeList(const std::string &path, VertexId numVertices = 0,
                      bool undirected = false);

/** Write @p graph as an edge-list text file. */
void saveEdgeList(const CsrGraph &graph, const std::string &path);

} // namespace graphite
