/**
 * @file
 * Compressed-sparse-row graph: the adjacency substrate every Graphite
 * kernel consumes.
 *
 * The adjacency matrix of a real-world graph is typically >99% sparse
 * (paper Section 2.2), so we store it in CSR: a row-pointer array of
 * |V|+1 edge offsets and a column-index array of |E| neighbor ids. The
 * structure is immutable after construction — aggregation treats it as
 * read-only, which is also what makes the DMA offload coherence-safe
 * (Section 5.2).
 */

#pragma once

#include <span>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace graphite {

/** Immutable CSR adjacency structure. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Construct from prebuilt CSR arrays.
     *
     * @param rowPtr |V|+1 monotonically non-decreasing edge offsets.
     * @param colIdx |E| neighbor ids, each < |V|; rows need not be sorted.
     */
    CsrGraph(std::vector<EdgeId> rowPtr, std::vector<VertexId> colIdx);

    /** Number of vertices. */
    VertexId numVertices() const
    {
        return rowPtr_.empty() ? 0
                               : static_cast<VertexId>(rowPtr_.size() - 1);
    }

    /** Number of (directed) edges. */
    EdgeId numEdges() const { return colIdx_.size(); }

    /**
     * Out-degree of @p v. EdgeId-typed: a row of a multigraph can hold
     * duplicate edges, so its length is bounded by |E|, not |V|, and
     * narrowing the rowPtr difference to VertexId would truncate.
     */
    EdgeId
    degree(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(), "degree: vertex out of range");
        return rowPtr_[v + 1] - rowPtr_[v];
    }

    /** Neighbor list of @p v. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(),
                        "neighbors: vertex out of range");
        return {colIdx_.data() + rowPtr_[v],
                colIdx_.data() + rowPtr_[v + 1]};
    }

    /** Raw row-pointer array (|V|+1 entries). */
    std::span<const EdgeId> rowPtr() const { return rowPtr_; }

    /** Raw column-index array (|E| entries). */
    std::span<const VertexId> colIdx() const { return colIdx_; }

    /** Start offset of @p v's row in colIdx(). */
    EdgeId
    rowBegin(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(), "rowBegin: vertex out of range");
        return rowPtr_[v];
    }

    /** One-past-the-end offset of @p v's row in colIdx(). */
    EdgeId
    rowEnd(VertexId v) const
    {
        GRAPHITE_DCHECK(v < numVertices(), "rowEnd: vertex out of range");
        return rowPtr_[v + 1];
    }

    /**
     * Transposed graph (in-edges become out-edges). Needed by the
     * backward pass of GNN training, which aggregates along reversed
     * edges. Row u lists the sources of u's in-edges in ascending
     * (source, edge) order. One counting scatter (counting_scatter.h):
     * O(V + E), over the global pool from kGraphSerialItems edges up,
     * so never call it on a large graph from a pool worker or a
     * serving thread.
     */
    CsrGraph transposed() const;

    /** True if every row's neighbor list is sorted ascending. */
    bool rowsSorted() const;

    /**
     * Check the CSR invariants of prebuilt arrays: non-empty rowPtr
     * starting at 0, monotone non-decreasing, ending at |E|, and every
     * colIdx entry < |V|.
     *
     * @return nullptr when valid, else a static message naming the
     * violated invariant (the validateDescriptor() convention).
     */
    static const char *validate(std::span<const EdgeId> rowPtr,
                                std::span<const VertexId> colIdx);

    /**
     * Re-check this graph's own invariants (they are enforced at
     * construction; this re-verifies after suspected memory corruption).
     */
    const char *validate() const { return validate(rowPtr_, colIdx_); }

  private:
    std::vector<EdgeId> rowPtr_;
    std::vector<VertexId> colIdx_;
};

} // namespace graphite
