#include "graph/delta_csr.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace graphite {

DeltaCsr::DeltaCsr(CsrGraph base, EdgeId maxDeltaEdges)
    : base_(std::move(base)), maxDeltaEdges_(maxDeltaEdges),
      baseRowsSorted_(base_.rowsSorted()),
      deltaEdgeCounter_(
          obs::MetricsRegistry::global().counter("graph.delta_edges")),
      compactionCounter_(
          obs::MetricsRegistry::global().counter("graph.compactions"))
{
    GRAPHITE_ASSERT(base_.numVertices() > 0,
                    "DeltaCsr: base graph must have vertices");
    vertices_ =
        std::make_unique<VertexDelta[]>(base_.numVertices());
    // Worst case every vertex's chain wastes a partially filled tail
    // segment, so the pool must cover maxDeltaEdges spread one edge per
    // vertex. Sized once here; addEdge never allocates.
    poolSize_ = static_cast<std::size_t>(maxDeltaEdges_ + kSegmentEdges -
                                         1) /
                kSegmentEdges;
    poolSize_ += base_.numVertices();
    pool_ = std::make_unique<Segment[]>(poolSize_);
}

bool
DeltaCsr::edgeExists(VertexId src, VertexId dst) const
{
    const std::span<const VertexId> row = base_.neighbors(src);
    if (baseRowsSorted_) {
        if (std::binary_search(row.begin(), row.end(), dst))
            return true;
    } else {
        if (std::find(row.begin(), row.end(), dst) != row.end())
            return true;
    }
    bool found = false;
    forEachDeltaNeighbor(src, [&](VertexId neighbor) {
        found = found || neighbor == dst;
    });
    return found;
}

DeltaCsr::AddEdge
DeltaCsr::addEdge(VertexId src, VertexId dst)
{
    GRAPHITE_ASSERT(src < numVertices() && dst < numVertices(),
                    "addEdge: vertex out of range");
    if (src == dst)
        return AddEdge::SelfLoop;

    MutexLock lock(writerMutex_);
    if (deltaEdges_.load(std::memory_order_relaxed) >= maxDeltaEdges_)
        return AddEdge::PoolFull;
    if (edgeExists(src, dst))
        return AddEdge::Duplicate;

    VertexDelta &delta = vertices_[src];
    const EdgeId count = delta.count.load(std::memory_order_relaxed);
    const std::size_t slot =
        static_cast<std::size_t>(count) % kSegmentEdges;
    if (slot == 0) {
        // Chain needs a fresh segment. The pool is sized so this cannot
        // run dry before the delta budget trips above.
        GRAPHITE_ASSERT(poolCursor_ < poolSize_,
                        "addEdge: segment pool exhausted");
        const auto seg = static_cast<std::uint32_t>(poolCursor_++);
        pool_[seg].next.store(kNullSegment, std::memory_order_relaxed);
        pool_[seg].edges[0] = dst;
        if (count == 0) {
            // First delta edge: link the head before publishing.
            delta.head.store(seg, std::memory_order_relaxed);
        } else {
            pool_[delta.tail].next.store(seg,
                                         std::memory_order_release);
        }
        delta.tail = seg;
    } else {
        pool_[delta.tail].edges[slot] = dst;
    }
    // Publish: readers acquire-load count, so the edge value and chain
    // links above happen-before any reader that observes count+1.
    delta.count.store(count + 1, std::memory_order_release);
    deltaEdges_.fetch_add(1, std::memory_order_release);
    deltaEdgeCounter_.add(1);
    return AddEdge::Added;
}

DeltaCsr::RowView
DeltaCsr::neighborsView(VertexId v) const
{
    GRAPHITE_DCHECK(v < numVertices(),
                    "neighborsView: vertex out of range");
    const VertexDelta &delta = vertices_[v];
    RowView view;
    view.graph_ = this;
    const std::span<const VertexId> row = base_.neighbors(v);
    view.base_ = row.data();
    view.baseSize_ = row.size();
    view.deltaCount_ = static_cast<std::size_t>(
        delta.count.load(std::memory_order_acquire));
    view.head_ = delta.head.load(std::memory_order_relaxed);
    view.cursorSeg_ = view.head_;
    view.cursorBase_ = 0;
    return view;
}

CsrGraph
DeltaCsr::compacted() const
{
    const VertexId n = numVertices();
    std::vector<EdgeId> rowPtr(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        rowPtr[v + 1] = rowPtr[v] + degree(v);
    std::vector<VertexId> colIdx(static_cast<std::size_t>(rowPtr[n]));
    for (VertexId v = 0; v < n; ++v) {
        auto *out = colIdx.data() + rowPtr[v];
        const std::span<const VertexId> row = base_.neighbors(v);
        std::copy(row.begin(), row.end(), out);
        auto *cursor = out + row.size();
        forEachDeltaNeighbor(v, [&](VertexId neighbor) {
            *cursor++ = neighbor;
        });
        // GraphBuilder emits sorted rows; match it so compaction is
        // bitwise-identical to a from-scratch build of the edge set.
        std::sort(out, out + degree(v));
    }
    CsrGraph graph(std::move(rowPtr), std::move(colIdx));
    GRAPHITE_ASSERT(graph.validate() == nullptr,
                    "compacted: merged CSR failed validation");
    return graph;
}

void
DeltaCsr::compact()
{
    MutexLock lock(writerMutex_);
    if (deltaEdges_.load(std::memory_order_relaxed) == 0)
        return;
    base_ = compacted();
    baseRowsSorted_ = true;
    for (VertexId v = 0; v < numVertices(); ++v) {
        VertexDelta &delta = vertices_[v];
        delta.count.store(0, std::memory_order_relaxed);
        delta.head.store(kNullSegment, std::memory_order_relaxed);
        delta.tail = kNullSegment;
    }
    poolCursor_ = 0;
    deltaEdges_.store(0, std::memory_order_release);
    compactionCounter_.add(1);
}

const char *
DeltaCsr::validate() const
{
    const char *baseError = base_.validate();
    if (baseError != nullptr)
        return baseError;
    EdgeId total = 0;
    std::vector<VertexId> seen;
    for (VertexId v = 0; v < numVertices(); ++v) {
        const EdgeId count = deltaDegree(v);
        total += count;
        seen.clear();
        bool chainOk = true;
        forEachDeltaNeighbor(v, [&](VertexId neighbor) {
            if (neighbor >= numVertices())
                chainOk = false;
            // graphite-lint: allow(alloc) validation is a cold
            // diagnostic; the vector is reused across vertices.
            seen.push_back(neighbor);
        });
        if (!chainOk)
            return "delta neighbor id out of range";
        if (seen.size() != count)
            return "delta chain length disagrees with published count";
        for (const VertexId neighbor : seen) {
            if (neighbor == v)
                return "delta chain contains a self-loop";
        }
        std::sort(seen.begin(), seen.end());
        if (std::adjacent_find(seen.begin(), seen.end()) != seen.end())
            return "duplicate neighbor within a delta chain";
        const std::span<const VertexId> row = base_.neighbors(v);
        for (const VertexId neighbor : seen) {
            const bool inBase =
                baseRowsSorted_
                    ? std::binary_search(row.begin(), row.end(),
                                         neighbor)
                    : std::find(row.begin(), row.end(), neighbor) !=
                          row.end();
            if (inBase)
                return "delta neighbor duplicates a base edge";
        }
    }
    if (total != deltaEdges_.load(std::memory_order_acquire))
        return "per-vertex delta counts disagree with the total";
    return nullptr;
}

} // namespace graphite
