/**
 * @file
 * Parallel vectorised aggregation — paper Algorithm 1.
 *
 * Each vertex v gathers the feature vectors of N(v) ∪ {v}, applies the
 * feature-processing function ψ (realised as a per-edge multiplicative
 * factor, which covers both GCN's symmetric normalisation and
 * GraphSAGE-mean's averaging — see Table 2), and reduces element-wise.
 * Output parallelism over vertex chunks needs no synchronisation; chunks
 * are scheduled dynamically to absorb power-law degree skew. The kernel
 * software-prefetches the first two cache lines of feature vectors a
 * configurable distance ahead, and the inner loop is specialised per
 * feature length the way the paper's JIT-assembled kernels are.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/compressed_matrix.h"
#include "graph/csr_graph.h"
#include "graph/partition/partition_plan.h"
#include "graph/reorder.h"
#include "tensor/bf16_matrix.h"
#include "tensor/dense_matrix.h"

namespace graphite {

class DeltaCsr;

/**
 * The element-wise reduction operator ⊕ of Algorithm 1. Sum covers GCN
 * and GraphSAGE-mean (Table 2); Max covers pooling-style aggregators.
 * Both initialise the accumulator with the (ψ-processed) self term and
 * fold neighbors in, so no explicit identity element is needed.
 */
enum class ReduceOp : std::uint8_t
{
    Sum,
    Max,
};

/**
 * The feature-processing function ψ as multiplicative factors: one per
 * edge (aligned with the CSR colIdx array) and one per vertex for the
 * self term, plus the reduction operator.
 */
struct AggregationSpec
{
    /** Per-edge factor, or empty for 1.0. */
    std::vector<Feature> edgeFactors;
    /** Per-vertex self-term factor, or empty for 1.0. */
    std::vector<Feature> selfFactors;
    /** Element-wise reduction combining the processed inputs. */
    ReduceOp reduce = ReduceOp::Sum;

    Feature
    edgeFactor(EdgeId e) const
    {
        return edgeFactors.empty() ? 1.0f : edgeFactors[e];
    }

    Feature
    selfFactor(VertexId v) const
    {
        return selfFactors.empty() ? 1.0f : selfFactors[v];
    }
};

/**
 * GCN symmetric normalisation (Table 2): factor(v,u) = 1/sqrt(Dv'·Du')
 * with D' = degree + 1 (the +1 accounts for the self edge).
 */
AggregationSpec gcnSpec(const CsrGraph &graph);

/** GraphSAGE-mean (Table 2): every term weighted by 1/(Dv + 1). */
AggregationSpec sageSpec(const CsrGraph &graph);

/**
 * GIN (Graph Isomorphism Network) aggregation: sum of neighbors plus a
 * (1 + ε)-weighted self term — the maximally-expressive sum aggregator.
 * Fits the ψ formalism with unit edge factors and a constant self
 * factor.
 */
AggregationSpec ginSpec(const CsrGraph &graph, Feature epsilon = 0.0f);

/**
 * Kernel-entry precondition on a spec's factor arrays: a non-empty
 * edge-factor array must have exactly |E| entries (aligned with colIdx)
 * and a non-empty self-factor array exactly |V| — a silently short array
 * would index out of bounds inside the gather loop.
 *
 * @return nullptr when consistent, else a static message.
 */
const char *validateSpec(const AggregationSpec &spec, const CsrGraph &graph);

/** Unweighted sum aggregation (all factors 1). */
AggregationSpec sumSpec();

/** Unweighted element-wise max over N(v) ∪ {v} (pooling aggregator). */
AggregationSpec maxSpec();

/**
 * Gather knobs of every aggregation and fused kernel; the fused kernels
 * size their tasks from FusedConfig instead of @c taskSize.
 */
struct AggregationConfig
{
    /** Vertices per dynamically-scheduled task (T in Algorithm 1). */
    std::size_t taskSize = 64;
    /** Prefetch distance in vertices (D in Algorithm 1); 0 disables. */
    std::size_t prefetchDistance = 4;
    /**
     * Cache lines prefetched from each upcoming fp32 feature vector
     * (bf16 and compressed rows prefetch their first line). The paper
     * empirically uses 2 to avoid saturating the L1 fill buffers.
     */
    std::size_t prefetchLines = 2;
};

/**
 * The feature rows a gather reads, in one of the three stored forms:
 * fp32 rows, bf16 rows (widened to fp32 in registers) or mask-compressed
 * rows (expanded on the fly, Section 4.3). Exactly one pointer is set;
 * the implicit constructors let every kernel entry take any of them.
 * Accumulation is fp32 for all three.
 */
struct FeatureRows
{
    FeatureRows(const DenseMatrix &rows) : fp32(&rows) {}
    FeatureRows(const Bf16Matrix &rows) : bf16(&rows) {}
    FeatureRows(const CompressedMatrix &rows) : packed(&rows) {}

    std::size_t
    rows() const
    {
        return packed ? packed->rows() : bf16 ? bf16->rows() : fp32->rows();
    }

    std::size_t
    cols() const
    {
        return packed ? packed->cols() : bf16 ? bf16->cols() : fp32->cols();
    }

    const DenseMatrix *fp32 = nullptr;
    const Bf16Matrix *bf16 = nullptr;
    const CompressedMatrix *packed = nullptr;
};

/**
 * The order vertices are processed in, split into segments that no
 * thread-pool task straddles. Flat execution is one segment over
 * @c order (Section 4.4's locality order, or identity when empty).
 * Shard-major execution follows a PartitionPlan's shardMajorOrder with
 * one segment per shard, so while a shard is in flight its slice of
 * the feature matrix stays cache-resident. Every gather reads the
 * global CSR, so results are bit-identical for any schedule; only the
 * processing order and task boundaries change.
 */
struct Schedule
{
    Schedule() = default;
    Schedule(std::span<const VertexId> order) : order(order) {}
    Schedule(const ProcessingOrder &order) : order(order) {}

    /**
     * Shard-major execution of @p plan. @p delayed selects
     * DistGNN-style aggregation instead of the exact gather: each shard
     * folds its self and intra-shard terms first, then gathers every
     * halo row once into a shard-local replica and folds the cut edges
     * from it. Hub rows are pulled once per shard instead of once per
     * cut edge, so gathered bytes drop; the changed summation order
     * makes sums fp-tolerant rather than bit-equal (max stays exact).
     * Aggregation only: the fused kernels have no replica phase.
     */
    explicit Schedule(const PartitionPlan &plan, bool delayed = false)
        : order(plan.shardMajorOrder), segments(plan.ownedStart),
          delayedHalo(delayed ? &plan : nullptr)
    {
    }

    /** Processing order over all vertices, or empty for identity. */
    std::span<const VertexId> order;
    /**
     * Segment bounds into @c order (0 = b_0 <= ... <= b_S = |V|), or
     * empty for one segment over everything.
     */
    std::span<const std::size_t> segments;
    /** The plan to run delayed-halo aggregation over, or null. */
    const PartitionPlan *delayedHalo = nullptr;

    VertexId
    vertex(std::size_t position) const
    {
        return order.empty() ? static_cast<VertexId>(position)
                             : order[position];
    }
};

/**
 * Algorithm 1: out[v, :] = selfFactor(v)·in[v, :] ⊕
 * ⊕_{u ∈ N(v)} edgeFactor(v,u)·in[u, :], for every vertex, tasks carved
 * from @p schedule. Compressed rows support sum reduction only.
 *
 * Counters: agg.flops; for fp32 and bf16 rows also agg.bytes_gathered
 * at the stored row size, plus partition.bytes_gathered under a shard
 * schedule (compressed gathers feed no byte counter). Delayed-halo runs
 * feed only the partition.* counters.
 */
void aggregate(const CsrGraph &graph, FeatureRows in, DenseMatrix &out,
               const AggregationSpec &spec, const Schedule &schedule = {},
               const AggregationConfig &config = {});

/** aggregate() over fp32 rows in @p order (empty for identity). */
void aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
                    DenseMatrix &out, const AggregationSpec &spec,
                    std::span<const VertexId> order = {},
                    const AggregationConfig &config = {});

/** aggregate() over mask-compressed rows in @p order. */
void aggregateCompressed(const CsrGraph &graph, const CompressedMatrix &in,
                         DenseMatrix &out, const AggregationSpec &spec,
                         std::span<const VertexId> order = {},
                         const AggregationConfig &config = {});

/**
 * Serial single-vertex aggregation into @p dst (rowStride-padded):
 * the AGGREGATE building block of the kernel driver and the DMA
 * functional model.
 */
void aggregateVertex(const CsrGraph &graph, const DenseMatrix &in,
                     VertexId v, const AggregationSpec &spec, Feature *dst);

/**
 * Serial single-vertex aggregation from bf16 features: gathered rows
 * are widened to fp32 in registers and accumulated into @p dst[0,
 * @p width) — the bf16 counterpart of aggregateVertex, used for every
 * bf16 gather. @p width must be a
 * multiple of the fp32 row padding (it is never wider than the bf16
 * row stride, so over-reading the source padding is safe).
 */
void aggregateVertexBf16(const CsrGraph &graph, const Bf16Matrix &in,
                         VertexId v, const AggregationSpec &spec,
                         Feature *dst, std::size_t width);

/**
 * A bipartite block as flat spans — DGL's message-flow-graph layout.
 * Destination i's neighbours are the local source indices
 * colIdx[rowPtr[i], rowPtr[i+1]); destinations prefix the sources, so
 * destination i's self term is local source i. Local source j reads
 * input row rowBase + srcRows[j], or rowBase + j when srcRows is empty.
 * A whole CsrGraph is the block with identity rows and rowBase 0.
 */
struct BlockView
{
    std::span<const EdgeId> rowPtr;
    std::span<const VertexId> colIdx;
    /** Input row of each local source index, or empty for identity. */
    std::span<const VertexId> srcRows;
    /** Offset added to every input row. */
    std::size_t rowBase = 0;

    /** Input row of local source @p j. */
    std::size_t
    srcRow(std::size_t j) const
    {
        return rowBase + (srcRows.empty() ? j : srcRows[j]);
    }
};

/**
 * Serial, pool-free sampled-mean row over @p block:
 *
 *   dst = (in[self(i)] + Σ_e in[src(colIdx[e])]) · 1/(n + 1)
 *
 * with n the row's neighbour count. Neighbours are added in row order
 * and the sum is scaled last, in plain fp32, so the result is bitwise
 * equal to that scalar loop. On AVX-512 builds the accumulator stays in
 * zmm registers for rows up to 256 floats; wider rows and other builds
 * run a vectorisable loop in the same order. Writes exactly in.cols()
 * floats of @p dst.
 */
void blockMeanRow(const BlockView &block, const DenseMatrix &in,
                  std::size_t i, Feature *dst);

/**
 * blockMeanRow over @p v's full neighbourhood in @p graph: the exact
 * SAGE-mean the hot-vertex cache stores for a hub (DESIGN.md §13).
 */
void fullMeanRow(const CsrGraph &graph, const DenseMatrix &features,
                 VertexId v, Feature *dst);

/**
 * fullMeanRow over a DeltaCsr overlay: the base row, then the delta
 * chain in insertion order, through the same kernel — so an overlay
 * holding zero deltas gives bitwise the row of its base. Wait-free
 * against concurrent addEdge(): the delta count is snapshotted once.
 */
void fullMeanRow(const DeltaCsr &graph, const DenseMatrix &features,
                 VertexId v, Feature *dst);

/** Reference scalar implementation used as the test oracle. */
void aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec);

/**
 * Push-style transposed aggregation (scatter form), serial:
 * out[u, :] = selfFactor(u)·in[u, :] + Σ_{v : u ∈ N(v)}
 * edgeFactor(v,u)·in[v, :] — i.e. out = Aggᵀ(in) computed by walking
 * the *forward* CSR and scattering each source row to its
 * destinations. This is the natural consumer of a source-blocked input
 * (the backward fusion direction, GEMM→aggregate), but scatter needs
 * write synchronisation to parallelise on a CPU, so the production
 * fused backward commutes the GEMM past the aggregation and stays
 * pull-based instead (see kernels/fused_layer.h); this entry is the
 * oracle the fused path is validated against. Sum reduction only — the
 * backward of a linear aggregation is linear.
 */
void aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                             DenseMatrix &out, const AggregationSpec &spec);

} // namespace graphite
