/**
 * @file
 * Edge-list accumulation and CSR finalisation.
 */

#pragma once

#include <utility>
#include <vector>

#include "graph/csr_graph.h"

namespace graphite {

/**
 * Mutable edge-list builder that finalises into an immutable CsrGraph.
 *
 * Duplicate edges and self-loops are removed at build time (the GNN
 * formulation adds the self term explicitly via N(v) ∪ {v}, so storing
 * self-loops in the adjacency would double-count it).
 *
 * build() costs O(E + Σ_v d_v log d_v) for E pending pairs and
 * pre-dedup row lengths d_v: one counting scatter buckets the pairs by
 * source, then each row is sorted, deduplicated and compacted on its
 * own, over the global pool from kGraphSerialItems pairs up. The result
 * does not depend on the pool size.
 */
class GraphBuilder
{
  public:
    /** @param numVertices fixed vertex count of the graph under build. */
    explicit GraphBuilder(VertexId numVertices);

    /** Append a directed edge src → dst. Out-of-range ids are fatal. */
    void addEdge(VertexId src, VertexId dst);

    /** Append both directions of an undirected edge. */
    void addUndirectedEdge(VertexId u, VertexId v);

    /** Number of (pre-dedup) edges accumulated so far. */
    EdgeId numPendingEdges() const { return edges_.size(); }

    /**
     * Produce the CSR graph: rows sorted ascending, duplicates and
     * self-loops dropped. The builder is left empty afterwards. Enters
     * the global pool for large inputs, so never call it from a pool
     * worker or a serving thread.
     */
    CsrGraph build();

  private:
    VertexId numVertices_;
    std::vector<std::pair<VertexId, VertexId>> edges_;
};

} // namespace graphite
