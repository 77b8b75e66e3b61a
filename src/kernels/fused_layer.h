/**
 * @file
 * Layer fusion — paper Algorithm 2 and Figure 5.
 *
 * A GNN layer's aggregation is memory-bound and its update (an FC layer)
 * is compute-bound. Running them back-to-back over the whole graph makes
 * the phases alternate between starving the FPUs and starving the memory
 * system, and round-trips the full aggregation matrix a^k through DRAM.
 * The fused kernel instead alternates per *block* of B vertices:
 * aggregate B vertices into a cache-resident block buffer, immediately
 * update that block, move on. Threads drift out of phase naturally (no
 * barrier), so one core's aggregation overlaps another's update
 * (Figure 4), and in inference a^k is never materialised at all
 * (Figure 5c) — a single reusable buffer per thread suffices.
 */

#pragma once

#include <span>

#include "compress/compressed_matrix.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/** The update phase: h = act(W·a + b) (paper Table 2's FC + ReLU). */
struct UpdateOp
{
    /** F_in x F_out weight matrix (may be null when packedWeights is set). */
    const DenseMatrix *weights = nullptr;
    /** Optional bias of length F_out. */
    std::span<const Feature> bias = {};
    /** Apply ReLU after the affine transform. */
    bool relu = true;
    /**
     * Optional NN-mode pack of @c weights (GnnLayer's epoch-cached
     * plan). When null, the kernel packs @c weights once per call. A
     * supplied plan must have been packed at @c precision.
     */
    const GemmPlan *packedWeights = nullptr;
    /**
     * Precision of the per-block micro-GEMM: Bf16 rounds the weights
     * (at pack time) and the aggregated block rows (at the A pack) to
     * bf16 and accumulates in fp32.
     */
    Precision precision = Precision::Fp32;
};

/** Block shape of the fused kernels (Algorithm 2's constants). */
struct FusedConfig
{
    /** Vertices per block (B): sized so B aggregation rows fit in L2. */
    std::size_t blockSize = 16;
    /** Blocks per dynamically-scheduled task (T). */
    std::size_t blocksPerTask = 4;
};

/**
 * Optional extra outputs of a fused layer, each written from the
 * cache-resident block and indexed by vertex.
 */
struct FusedOutputs
{
    /**
     * Training (Figure 5b): the full |V| x F_in aggregation matrix a^k,
     * kept for back-propagation. Null for inference (Figure 5c), where
     * a^k lives only in a per-thread block buffer.
     */
    DenseMatrix *aggOut = nullptr;
    /**
     * Packed copy of h^k for the next layer's compressed gathers — where
     * training's ReLU/dropout sparsity pays off. Must be |V| x F_out.
     */
    CompressedMatrix *outCompressed = nullptr;
    /** Bf16 copy of h^k for the next layer's half-width gathers. */
    Bf16Matrix *outBf16 = nullptr;
};

/**
 * Algorithm 2: per block of B vertices from @p schedule, gather the
 * block's aggregation rows from @p in (fp32, bf16 or compressed) into
 * a cache-resident buffer, then run the update micro-GEMM (at
 * update.precision) from that buffer straight into @p out.
 *
 * Counters: fused.bytes_gathered (at the stored row size; the mean
 * packed size for compressed rows), fused.flops and fused.block_us;
 * shard-major schedules also feed partition.bytes_gathered.
 */
void fusedLayer(const CsrGraph &graph, FeatureRows in,
                const AggregationSpec &spec, const UpdateOp &update,
                DenseMatrix &out, const FusedOutputs &outputs = {},
                const Schedule &schedule = {},
                const FusedConfig &config = {},
                const AggregationConfig &gather = {});

/** fusedLayer() for training over fp32 rows in @p order. */
void fusedLayerTraining(const CsrGraph &graph, const DenseMatrix &in,
                        const AggregationSpec &spec, const UpdateOp &update,
                        DenseMatrix &aggOut, DenseMatrix &out,
                        std::span<const VertexId> order = {},
                        const FusedConfig &config = {});

/** fusedLayer() for training over compressed rows in @p order. */
void fusedLayerTrainingCompressed(const CsrGraph &graph,
                                  const CompressedMatrix &in,
                                  const AggregationSpec &spec,
                                  const UpdateOp &update,
                                  DenseMatrix &aggOut, DenseMatrix &out,
                                  CompressedMatrix *outCompressed = nullptr,
                                  std::span<const VertexId> order = {},
                                  const FusedConfig &config = {});

/**
 * Fused backward kernel — Algorithm 2's counterpart for training's
 * second half. The backward of a layer needs dh_prev = Aggᵀ(dz·Wᵀ):
 * naively a full dAgg = dz·Wᵀ matrix is materialised in DRAM and then
 * aggregated over the transposed graph. The fusion direction is
 * reversed relative to the forward (GEMM feeds the aggregation), whose
 * literal blocked form would scatter GEMM output blocks to arbitrary
 * destination rows — parallel scatter needs atomics or striped locks
 * on a CPU (see aggregateTransposedPush, the serial scatter oracle).
 * Instead this kernel exploits that the two operators commute —
 * aggregation is a row-mixing (sparse-left) multiply, the weight GEMM a
 * column-mixing (dense-right) multiply, so Aggᵀ(dz·Wᵀ) = (Aggᵀ dz)·Wᵀ
 * — which restores the forward kernel's pull-shape: the same driver as
 * fusedLayer(), gathering dz rows (fp32 or bf16) over the transposed
 * CSR and multiplying each block by the prepacked NT @p weightsNT
 * plan, with no bias or ReLU. dAgg is never materialised.
 *
 * @param transposed     transposed graph.
 * @param dz             dL/d(pre-activation), |V| x F_out.
 * @param transposedSpec factors remapped by transposeSpec(); Sum only.
 * @param weightsNT      W packed in NT mode (K=F_out, N=F_in).
 * @param gradIn         dL/dh_prev output, |V| x F_in.
 * @param schedule       processing schedule of the transposed graph.
 */
void fusedLayerBackward(const CsrGraph &transposed, FeatureRows dz,
                        const AggregationSpec &transposedSpec,
                        const GemmPlan &weightsNT, DenseMatrix &gradIn,
                        const Schedule &schedule = {},
                        const FusedConfig &config = {},
                        const AggregationConfig &gather = {});

/**
 * Unfused reference layer: aggregateBasic over the full graph, then a
 * whole-matrix GEMM update. The `basic` configuration of Figure 11.
 */
void unfusedLayer(const CsrGraph &graph, const DenseMatrix &in,
                  const AggregationSpec &spec, const UpdateOp &update,
                  DenseMatrix &aggOut, DenseMatrix &out,
                  std::span<const VertexId> order = {},
                  const AggregationConfig &config = {});

} // namespace graphite
