/**
 * @file
 * Neighborhood sampling and mini-batch block construction (paper
 * Section 2.1, Eq. 3) — the GPU-era workaround whose CPU-side overhead
 * motivates full-batch CPU execution (paper Figure 2).
 *
 * For a mini-batch of seed vertices and per-layer fan-outs, we build the
 * K-hop sampled neighborhood bottom-up the way DGL does: layer K's
 * destination set is the seeds; each layer's source set is its
 * destination set plus up-to-fanout sampled neighbors per destination;
 * the per-layer bipartite block stores the sampled edges re-indexed into
 * the compact source set. Finally the input features of the innermost
 * source set are gathered into a dense batch matrix (the
 * "mini-batching" copy cost).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "tensor/dense_matrix.h"

namespace graphite {

class DeltaCsr;

/** One sampled bipartite layer block. */
struct SampledBlock
{
    /**
     * Edges of the block in CSR over local destination indices; column
     * ids are local *source* indices.
     */
    CsrGraph block;
    /** Global vertex id of each local destination. */
    std::vector<VertexId> dstVertices;
    /** Global vertex id of each local source (dst set comes first). */
    std::vector<VertexId> srcVertices;
};

/** A K-layer mini-batch: blocks[0] is the input-most layer. */
struct MiniBatch
{
    std::vector<SampledBlock> blocks;
    /** Global ids whose input features the batch needs (innermost srcs). */
    const std::vector<VertexId> &inputVertices() const
    {
        return blocks.front().srcVertices;
    }
};

/**
 * SAMPLE_k over all K layers for one mini-batch.
 *
 * @param seeds    destination vertices of the outermost layer.
 * @param fanouts  per-layer sample sizes, innermost first; a vertex with
 *                 degree <= fanout keeps all neighbors.
 */
MiniBatch sampleMiniBatch(const CsrGraph &graph,
                          std::vector<VertexId> seeds,
                          const std::vector<VertexId> &fanouts, Rng &rng);

/**
 * Gather the batch's input feature rows into a dense contiguous matrix
 * (the host-to-device staging copy in a CPU-GPU pipeline).
 */
DenseMatrix gatherBatchFeatures(const DenseMatrix &features,
                                const std::vector<VertexId> &vertices);

/**
 * Partition [0, |V|) into shuffled mini-batches of @p batchSize seeds.
 */
std::vector<std::vector<VertexId>> makeEpochBatches(const CsrGraph &graph,
                                                    std::size_t batchSize,
                                                    Rng &rng);

/**
 * Deterministic per-request RNG seed: splitmix64 of the request id.
 * Serving samples each request's neighborhood with Rng(requestSeed(id)),
 * so an offline replay of the same request id reproduces the sampled
 * tree bit-for-bit regardless of which batch the request landed in.
 */
std::uint64_t requestSeed(std::uint64_t requestId);

/**
 * One sampled bipartite layer held as flat arrays — the allocation-free
 * serving counterpart of SampledBlock. No CsrGraph is constructed; the
 * vectors reuse their capacity across requests once warmed up.
 *
 * Invariants match SampledBlock: dstVertices is a prefix of srcVertices
 * (local source index i < |dst| is destination i), rowPtr has |dst|+1
 * entries, and colIdx holds local source indices.
 */
struct FlatBlock
{
    std::vector<EdgeId> rowPtr;
    std::vector<VertexId> colIdx;
    std::vector<VertexId> dstVertices;
    std::vector<VertexId> srcVertices;
};

/** A K-layer sampled neighborhood of one seed; blocks[0] is input-most. */
struct SampledTree
{
    std::vector<FlatBlock> blocks;
    /** Global ids whose input features the tree needs (innermost srcs). */
    const std::vector<VertexId> &inputVertices() const
    {
        return blocks.front().srcVertices;
    }
};

/**
 * Reusable working state for sampleTree: a stamped global→local index
 * map sized |V| (no per-call hashing or node allocation). One scratch
 * serves one sampling thread; it may be reused across graphs only if
 * re-constructed for the larger vertex count.
 */
class SamplerScratch
{
  public:
    explicit SamplerScratch(VertexId numVertices)
        : local_(numVertices, 0), stamp_(numVertices, 0)
    {
    }

  private:
    friend void sampleTree(const CsrGraph &graph, VertexId seed,
                           std::span<const VertexId> fanouts, Rng &rng,
                           SamplerScratch &scratch, SampledTree &tree);
    friend void sampleTree(const DeltaCsr &graph, VertexId seed,
                           std::span<const VertexId> fanouts, Rng &rng,
                           SamplerScratch &scratch, SampledTree &tree);

    /**
     * Shared sampling core; instantiated for CsrGraph and DeltaCsr in
     * the implementation file (both overloads live there, so the
     * definition need not be visible here).
     */
    template <typename GraphT>
    static void sampleTreeImpl(const GraphT &graph, VertexId seed,
                               std::span<const VertexId> fanouts,
                               Rng &rng, SamplerScratch &scratch,
                               SampledTree &tree);

    /** Start a new dedup domain; O(1) except on 32-bit epoch wrap. */
    void
    beginBlock()
    {
        if (++epoch_ == 0) {
            std::fill(stamp_.begin(), stamp_.end(), 0U);
            epoch_ = 1;
        }
    }

    std::vector<VertexId> local_;      ///< local index, valid iff stamped
    std::vector<std::uint32_t> stamp_; ///< epoch that wrote local_[v]
    std::uint32_t epoch_ = 0;
    std::vector<VertexId> picked_;     ///< per-destination sample buffer
};

/**
 * SAMPLE_k for a single seed vertex into reusable flat blocks: the
 * serving-path analogue of sampleMiniBatch. Layer K's destination set
 * is {seed}; each layer's source set is its destination set plus up to
 * fanouts[k] neighbors per destination, a uniform random subset drawn
 * with one RNG call per sampled neighbor (Floyd's algorithm) and kept
 * in row order. @p tree's vectors are clear()ed and refilled, retaining
 * capacity, so a warmed tree+scratch pair samples with zero heap
 * allocations.
 */
void sampleTree(const CsrGraph &graph, VertexId seed,
                std::span<const VertexId> fanouts, Rng &rng,
                SamplerScratch &scratch, SampledTree &tree);

/**
 * sampleTree over a delta-CSR overlay: neighbor lists are the base row
 * followed by published delta edges. Both overloads share one draw
 * routine over row positions, so given the same neighbor sequence they
 * make the same draws and sample the same tree: a vertex with no delta
 * edges samples exactly what it would on the base graph, which is what
 * makes an overlay holding zero deltas bitwise-interchangeable with its
 * base.
 */
void sampleTree(const DeltaCsr &graph, VertexId seed,
                std::span<const VertexId> fanouts, Rng &rng,
                SamplerScratch &scratch, SampledTree &tree);

} // namespace graphite
