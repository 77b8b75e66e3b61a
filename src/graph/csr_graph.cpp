#include "graph/csr_graph.h"

#include <algorithm>

#include "graph/counting_scatter.h"
#include "obs/trace.h"

namespace graphite {

CsrGraph::CsrGraph(std::vector<EdgeId> rowPtr, std::vector<VertexId> colIdx)
    : rowPtr_(std::move(rowPtr)), colIdx_(std::move(colIdx))
{
    const char *error = validate();
    if (error != nullptr)
        panic("CsrGraph construction: %s", error);
}

const char *
CsrGraph::validate(std::span<const EdgeId> rowPtr,
                   std::span<const VertexId> colIdx)
{
    if (rowPtr.empty()) {
        // A default-constructed graph (no vertices, no edges) keeps
        // both arrays empty and is valid.
        return colIdx.empty() ? nullptr
                              : "rowPtr must have |V|+1 entries";
    }
    if (rowPtr.front() != 0)
        return "rowPtr must start at 0";
    if (rowPtr.back() != colIdx.size())
        return "rowPtr must end at |E|";
    for (std::size_t v = 0; v + 1 < rowPtr.size(); ++v) {
        if (rowPtr[v] > rowPtr[v + 1])
            return "rowPtr must be non-decreasing";
    }
    const auto n = static_cast<VertexId>(rowPtr.size() - 1);
    for (VertexId u : colIdx) {
        if (u >= n)
            return "neighbor id out of range";
    }
    return nullptr;
}

CsrGraph
CsrGraph::transposed() const
{
    GRAPHITE_TRACE_SPAN("graph.transpose");
    // Edge v->u becomes u->v: bucket the edges by target, carrying their
    // source row. A block may start mid-row, so look its first row up.
    std::vector<VertexId> tColIdx(colIdx_.size());
    std::vector<EdgeId> tRowPtr = countingScatter(
        colIdx_.size(), numVertices(),
        [this](std::size_t begin, std::size_t end, const auto &sink) {
            auto v = static_cast<VertexId>(
                std::upper_bound(rowPtr_.begin(), rowPtr_.end(), begin) -
                rowPtr_.begin() - 1);
            for (std::size_t e = begin; e < end; ++e) {
                while (rowPtr_[v + 1] <= e)
                    ++v;
                sink(colIdx_[e], v);
            }
        },
        tColIdx.data());
    return CsrGraph(std::move(tRowPtr), std::move(tColIdx));
}

bool
CsrGraph::rowsSorted() const
{
    const VertexId n = numVertices();
    for (VertexId v = 0; v < n; ++v) {
        auto row = neighbors(v);
        if (!std::is_sorted(row.begin(), row.end()))
            return false;
    }
    return true;
}

} // namespace graphite
