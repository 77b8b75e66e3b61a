#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/assert.h"
#include "graph/delta_csr.h"

namespace graphite {

namespace {

/**
 * Indexable neighbor row of @p v for the shared sampling core: a span
 * for CsrGraph, a snapshot RowView (base row then delta chain) for
 * DeltaCsr. Both offer size() and O(1)-amortized sequential
 * operator[], which is all sampleNeighbors touches.
 * @{
 */
inline std::span<const VertexId>
neighborRowOf(const CsrGraph &graph, VertexId v)
{
    return graph.neighbors(v);
}

inline DeltaCsr::RowView
neighborRowOf(const DeltaCsr &graph, VertexId v)
{
    return graph.neighborsView(v);
}
/** @} */

/**
 * Draw min(@p fanout, |row|) distinct neighbors of @p row uniformly at
 * random into picked[0, n) and return n. A row no longer than the
 * fanout is taken whole without touching @p rng. Otherwise Floyd's
 * algorithm draws a uniform fanout-subset of row positions with
 * exactly @p fanout uniformInt calls — O(fanout), not O(|row|) as a
 * reservoir pass would be. The positions are sorted before the row is
 * read, so neighbors come out in row order and a DeltaCsr::RowView
 * walks its delta chain on the sequential cursor. @p picked must hold
 * at least @p fanout entries.
 */
template <typename Row>
std::size_t
sampleNeighbors(const Row &row, VertexId fanout, Rng &rng,
                VertexId *picked)
{
    const std::size_t degree = row.size();
    if (degree <= fanout) {
        for (std::size_t j = 0; j < degree; ++j)
            picked[j] = row[j];
        return degree;
    }
    // Floyd: position j joins as itself when the draw from [0, j] hit
    // a position already taken (which j cannot be), else as the draw.
    for (std::size_t j = degree - fanout, n = 0; j < degree; ++j, ++n) {
        const auto draw = static_cast<VertexId>(rng.uniformInt(j + 1));
        const bool taken = std::find(picked, picked + n, draw) !=
                           picked + n;
        picked[n] = taken ? static_cast<VertexId>(j) : draw;
    }
    std::sort(picked, picked + fanout);
    for (std::size_t j = 0; j < fanout; ++j)
        picked[j] = row[picked[j]];
    return fanout;
}

/**
 * Sample one bipartite block: destinations @p dst, per-destination up to
 * @p fanout sampled neighbors, compact source indexing.
 */
SampledBlock
sampleBlock(const CsrGraph &graph, std::vector<VertexId> dst,
            VertexId fanout, Rng &rng)
{
    SampledBlock out;
    // Local source index map: destinations occupy [0, |dst|) so the
    // self term needs no extra lookup.
    std::unordered_map<VertexId, VertexId> localIndex;
    localIndex.reserve(dst.size() * (fanout + 1));
    out.srcVertices.reserve(dst.size() * (fanout + 1));
    for (VertexId v : dst) {
        // graphite-lint: allow(alloc) mini-batch block build, off the
        // serving path; reserved above.
        localIndex.emplace(v, static_cast<VertexId>(
            out.srcVertices.size()));
        // graphite-lint: allow(alloc) reserved above.
        out.srcVertices.push_back(v);
    }

    std::vector<EdgeId> rowPtr(dst.size() + 1, 0);
    std::vector<VertexId> colIdx;
    colIdx.reserve(dst.size() * fanout);
    std::vector<VertexId> picked(fanout);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        const std::size_t sampled = sampleNeighbors(
            graph.neighbors(dst[i]), fanout, rng, picked.data());
        for (std::size_t j = 0; j < sampled; ++j) {
            const VertexId u = picked[j];
            // graphite-lint: allow(alloc) mini-batch block build, off
            // the serving path; reserved above.
            auto [it, inserted] = localIndex.emplace(
                u, static_cast<VertexId>(out.srcVertices.size()));
            if (inserted) {
                // graphite-lint: allow(alloc) reserved above.
                out.srcVertices.push_back(u);
            }
            // graphite-lint: allow(alloc) reserved above.
            colIdx.push_back(it->second);
        }
        rowPtr[i + 1] = colIdx.size();
    }
    // The block is bipartite: columns index the (larger) source set, so
    // pad the row pointers with empty rows for source-only vertices to
    // make the CSR well-formed over |src| vertices.
    rowPtr.resize(out.srcVertices.size() + 1, colIdx.size());
    out.dstVertices = std::move(dst);
    out.block = CsrGraph(std::move(rowPtr), std::move(colIdx));
    return out;
}

} // namespace

MiniBatch
sampleMiniBatch(const CsrGraph &graph, std::vector<VertexId> seeds,
                const std::vector<VertexId> &fanouts, Rng &rng)
{
    GRAPHITE_ASSERT(!fanouts.empty(), "need at least one layer fanout");
    MiniBatch batch;
    batch.blocks.resize(fanouts.size());
    // Build outermost-first: layer K's destinations are the seeds, each
    // inner layer's destinations are the outer layer's sources.
    std::vector<VertexId> dst = std::move(seeds);
    for (std::size_t k = fanouts.size(); k-- > 0;) {
        batch.blocks[k] = sampleBlock(graph, std::move(dst), fanouts[k],
                                      rng);
        dst = batch.blocks[k].srcVertices;
    }
    return batch;
}

DenseMatrix
gatherBatchFeatures(const DenseMatrix &features,
                    const std::vector<VertexId> &vertices)
{
    DenseMatrix out(vertices.size(), features.cols());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        std::memcpy(out.row(i), features.row(vertices[i]),
                    features.rowStride() * sizeof(Feature));
    }
    return out;
}

std::uint64_t
requestSeed(std::uint64_t requestId)
{
    // splitmix64 finalizer: a bijective avalanche so consecutive request
    // ids yield statistically independent sampling streams.
    return splitmix64(requestId);
}

template <typename GraphT>
void
SamplerScratch::sampleTreeImpl(const GraphT &graph, VertexId seed,
                               std::span<const VertexId> fanouts,
                               Rng &rng, SamplerScratch &scratch,
                               SampledTree &tree)
{
    GRAPHITE_ASSERT(!fanouts.empty(), "need at least one layer fanout");
    GRAPHITE_ASSERT(seed < graph.numVertices(),
                    "sampleTree: seed out of range");
    if (tree.blocks.size() != fanouts.size())
        tree.blocks.resize(fanouts.size());

    // Build outermost-first, as sampleMiniBatch does: layer K's
    // destination set is {seed}; each inner layer's destinations are
    // the outer layer's sources.
    for (std::size_t k = fanouts.size(); k-- > 0;) {
        FlatBlock &block = tree.blocks[k];
        block.rowPtr.clear();
        block.colIdx.clear();
        block.srcVertices.clear();
        // Every vector below only grows into capacity it keeps: the
        // server reserves worst-case sizes up front (makeScratch), so
        // the waived calls never allocate after warm-up.
        if (k + 1 == fanouts.size()) {
            block.dstVertices.clear();
            // graphite-lint: allow(alloc) grow-only, reserved by caller.
            block.dstVertices.push_back(seed);
        } else {
            const std::vector<VertexId> &outerSrc =
                tree.blocks[k + 1].srcVertices;
            // graphite-lint: allow(alloc) grow-only, reserved by caller.
            block.dstVertices.assign(outerSrc.begin(), outerSrc.end());
        }

        // Destinations occupy local source indices [0, |dst|).
        scratch.beginBlock();
        for (const VertexId v : block.dstVertices) {
            scratch.stamp_[v] = scratch.epoch_;
            scratch.local_[v] =
                static_cast<VertexId>(block.srcVertices.size());
            // graphite-lint: allow(alloc) grow-only, reserved by caller.
            block.srcVertices.push_back(v);
        }

        const VertexId fanout = fanouts[k];
        if (scratch.picked_.size() < fanout) {
            // graphite-lint: allow(alloc) grows to the largest fanout
            // once, on the first request.
            scratch.picked_.resize(fanout);
        }
        VertexId *const picked = scratch.picked_.data();

        // graphite-lint: allow(alloc) grow-only, reserved by caller.
        block.rowPtr.push_back(0);
        for (const VertexId v : block.dstVertices) {
            const std::size_t sampled =
                sampleNeighbors(neighborRowOf(graph, v), fanout, rng, picked);
            for (std::size_t j = 0; j < sampled; ++j) {
                const VertexId u = picked[j];
                if (scratch.stamp_[u] != scratch.epoch_) {
                    scratch.stamp_[u] = scratch.epoch_;
                    scratch.local_[u] =
                        static_cast<VertexId>(block.srcVertices.size());
                    // graphite-lint: allow(alloc) grow-only, reserved
                    // by caller.
                    block.srcVertices.push_back(u);
                }
                // graphite-lint: allow(alloc) grow-only, reserved by
                // caller.
                block.colIdx.push_back(scratch.local_[u]);
            }
            // graphite-lint: allow(alloc) grow-only, reserved by caller.
            block.rowPtr.push_back(
                static_cast<EdgeId>(block.colIdx.size()));
        }
    }
}

void
sampleTree(const CsrGraph &graph, VertexId seed,
           std::span<const VertexId> fanouts, Rng &rng,
           SamplerScratch &scratch, SampledTree &tree)
{
    SamplerScratch::sampleTreeImpl(graph, seed, fanouts, rng, scratch,
                                   tree);
}

void
sampleTree(const DeltaCsr &graph, VertexId seed,
           std::span<const VertexId> fanouts, Rng &rng,
           SamplerScratch &scratch, SampledTree &tree)
{
    SamplerScratch::sampleTreeImpl(graph, seed, fanouts, rng, scratch,
                                   tree);
}

std::vector<std::vector<VertexId>>
makeEpochBatches(const CsrGraph &graph, std::size_t batchSize, Rng &rng)
{
    GRAPHITE_ASSERT(batchSize > 0, "batch size must be positive");
    std::vector<VertexId> all(graph.numVertices());
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        all[v] = v;
    for (std::size_t i = all.size(); i > 1; --i)
        std::swap(all[i - 1], all[rng.uniformInt(i)]);
    std::vector<std::vector<VertexId>> batches;
    for (std::size_t begin = 0; begin < all.size(); begin += batchSize) {
        const std::size_t end = std::min(begin + batchSize, all.size());
        // graphite-lint: allow(alloc) mini-batch epoch setup, once per
        // epoch, off the serving path.
        batches.emplace_back(all.begin() + begin, all.begin() + end);
    }
    return batches;
}

} // namespace graphite
