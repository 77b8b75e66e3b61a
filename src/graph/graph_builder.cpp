#include "graph/graph_builder.h"

#include <algorithm>

#include "common/assert.h"
#include "graph/counting_scatter.h"
#include "obs/trace.h"

namespace graphite {

GraphBuilder::GraphBuilder(VertexId numVertices)
    : numVertices_(numVertices)
{
}

void
GraphBuilder::addEdge(VertexId src, VertexId dst)
{
    GRAPHITE_ASSERT(src < numVertices_ && dst < numVertices_,
                    "edge endpoint out of range");
    edges_.emplace_back(src, dst);
}

void
GraphBuilder::addUndirectedEdge(VertexId u, VertexId v)
{
    addEdge(u, v);
    addEdge(v, u);
}

CsrGraph
GraphBuilder::build()
{
    GRAPHITE_TRACE_SPAN("graph.build");
    const std::size_t n = numVertices_;
    const std::size_t numPairs = edges_.size();

    // Bucket the pairs by source: row v holds v's destinations in
    // insertion order.
    std::vector<VertexId> bucketed(numPairs);
    const std::vector<EdgeId> bucketPtr = countingScatter(
        numPairs, n,
        [this](std::size_t begin, std::size_t end, const auto &sink) {
            for (std::size_t i = begin; i < end; ++i)
                sink(edges_[i].first, edges_[i].second);
        },
        bucketed.data());
    edges_.clear();
    edges_.shrink_to_fit();

    // Sort each row, drop its duplicates and its self-loop in place, and
    // record the surviving degree in rowPtr[v + 1].
    std::vector<EdgeId> rowPtr(n + 1, 0);
    forEachRowChunk(n, numPairs, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            VertexId *first = bucketed.data() + bucketPtr[v];
            VertexId *last = bucketed.data() + bucketPtr[v + 1];
            std::sort(first, last);
            last = std::unique(first, last);
            last = std::remove(first, last, static_cast<VertexId>(v));
            rowPtr[v + 1] = static_cast<EdgeId>(last - first);
        }
    });
    for (std::size_t v = 0; v < n; ++v)
        rowPtr[v + 1] += rowPtr[v];

    std::vector<VertexId> colIdx(rowPtr[n]);
    forEachRowChunk(n, numPairs, [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            const VertexId *row = bucketed.data() + bucketPtr[v];
            std::copy(row, row + (rowPtr[v + 1] - rowPtr[v]),
                      colIdx.data() + rowPtr[v]);
        }
    });
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

} // namespace graphite
