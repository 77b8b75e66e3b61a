/**
 * @file
 * One GNN layer: aggregation (Table 2's AGGREGATE) + FC/ReLU update,
 * with forward paths for every technique combination and a full backward
 * pass for training.
 *
 * Layer order. For h = ReLU(Agg(h_prev)·W + b) with a sum (linear)
 * aggregation, Agg(H)·W = Agg(H·W): the aggregation mixes rows and the
 * GEMM mixes columns, so they commute. The layer gathers whichever side
 * is narrower (updatesFirst()):
 *   aggregate-first  a = Agg(h_prev), z = a·W             (F_in-wide gathers)
 *   update-first     Z = h_prev·W,    z = Agg(Z)          (F_out-wide gathers)
 * and h = ReLU(z + b) either way.
 *
 * Backward math, with dz = dh ⊙ ReLU'(h) and db = colsum(dz):
 *   aggregate-first  dW = aᵀ·dz,      dh_prev = Aggᵀ(dz·Wᵀ) = (Aggᵀ dz)·Wᵀ
 *   update-first     G  = Aggᵀ(dz),   dW = h_prevᵀ·G,   dh_prev = G·Wᵀ
 * where Aggᵀ is aggregation along the transposed graph with the
 * transposed factor map. Both orders gather dz (F_out wide) in the
 * backward; update-first keeps G, which stands in for the F_in-wide a.
 */

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "compress/compressed_matrix.h"
#include "gnn/technique_config.h"
#include "graph/csr_graph.h"
#include "kernels/aggregation.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/**
 * Map @p spec's per-edge factors onto @p transposed's edge order, so that
 * Aggᵀ can run as a plain aggregation over the transposed graph.
 */
AggregationSpec transposeSpec(const CsrGraph &graph,
                              const AggregationSpec &spec,
                              const CsrGraph &transposed);

/** Saved forward state one layer needs for its backward pass. */
struct LayerContext
{
    /**
     * Aggregate-first: the aggregation output a^k (pre-update), the
     * left operand of dW = aᵀ·dz. Left empty by update-first layers.
     */
    DenseMatrix agg;
    /**
     * Update-first: the layer input h^{k-1} (as handed to
     * forwardTraining; it must outlive backward()), the left operand of
     * dW = h^{k-1}ᵀ·G. Null for aggregate-first layers.
     */
    const DenseMatrix *input = nullptr;
    /**
     * Update-first: the F_out-wide rows the layer gathers, |V| x F_out.
     * The forward leaves Z = h^{k-1}·W here; the backward overwrites it
     * with G = Aggᵀ(dz). Left empty by aggregate-first layers.
     */
    DenseMatrix narrow;
    /** Layer output h^k (post-activation). */
    DenseMatrix output;
    /** Compressed copy of output, maintained when compression is on. */
    CompressedMatrix outputCompressed;
    bool hasCompressed = false;
    /**
     * Bf16 copy of output (post-dropout), maintained by GnnModel when
     * the precision technique is on and the next layer gathers it, so
     * that layer gathers at half width.
     */
    Bf16Matrix outputBf16;
    bool hasBf16 = false;
};

/** A single aggregation+update GNN layer with trainable W and b. */
class GnnLayer
{
  public:
    /**
     * @param inFeatures  input feature width F_{k-1}.
     * @param outFeatures output feature width F_k.
     * @param relu        apply ReLU (disabled on the final logits layer).
     */
    GnnLayer(std::size_t inFeatures, std::size_t outFeatures, bool relu);

    std::size_t inFeatures() const { return inFeatures_; }
    std::size_t outFeatures() const { return outFeatures_; }
    bool hasRelu() const { return relu_; }

    /**
     * The layer-order rule: true when this layer runs update-first,
     * Agg(h·W), which holds exactly when @p spec's reduction is Sum
     * (linear, so the GEMM commutes past it) and F_out pads to fewer
     * cache-line floats than F_in (so the gathered rows shrink). A
     * pure function of the layer's shape and spec: widening, equal
     * padded widths and Max reductions stay aggregate-first.
     */
    bool updatesFirst(const AggregationSpec &spec) const;

    /** Glorot-uniform weight init, zero bias. */
    void initWeights(std::uint64_t seed);

    const DenseMatrix &weights() const { return weights_; }
    const std::vector<Feature> &bias() const { return bias_; }

    /**
     * The one way to write W and b from outside the layer (optimizers,
     * checkpoint loading, tests): @p edit receives (DenseMatrix &W,
     * std::vector<Feature> &b) and the packed-plan caches are
     * invalidated when it returns, so every write is seen by the next
     * packedWeights(). Like sgdStep, not safe concurrently with a
     * forward or a packedWeights() call.
     */
    template <typename Edit>
    void
    editParameters(Edit &&edit)
    {
        edit(weights_, bias_);
        ++weightsVersion_;
    }

    /**
     * W packed for the forward/update GEMM (NN mode) at @p precision,
     * repacked lazily after any weight mutation and otherwise reused
     * across blocks, layer calls and epochs — the amortisation the
     * packed micro-kernel design exists for. Each precision has its own
     * cache slot, so concurrent callers may mix precisions freely. Not
     * safe to call concurrently with weight updates (no forward is).
     */
    const GemmPlan &
    packedWeights(Precision precision = Precision::Fp32) const;

    /** W packed for the dX backward GEMM (NT mode), cached likewise. */
    const GemmPlan &
    packedWeightsTransposed(Precision precision = Precision::Fp32) const;

    /**
     * Inference forward: writes h^k into @p out. Aggregate-first layers
     * gather the packed rows @p inCompressed when compression is on and
     * they are supplied, else the bf16 rows @p inBf16 under the Bf16
     * precision technique, else @p in; a^k is only materialised when
     * fusion is off (the unfused path needs it as a GEMM input).
     * Update-first layers multiply @p in by W into the caller-owned
     * workspace @p narrow (reshaped to |V| x F_out; untouched by
     * aggregate-first layers), gather those rows and ignore
     * @p inCompressed / @p inBf16. Non-null @p outCompressed / @p outBf16
     * receive packed / bf16 copies of h^k for the next layer.
     *
     * A non-null @p plan with >= 2 shards switches to shard-major
     * execution (bit-identical to flat execution); tech.delayedHalo
     * selects delayed-halo aggregation for fp32 and bf16 rows, which
     * has no fused form, so it runs unfused aggregation + one GEMM.
     */
    void forwardInference(const CsrGraph &graph, const AggregationSpec &spec,
                          const DenseMatrix &in,
                          const CompressedMatrix *inCompressed,
                          const Bf16Matrix *inBf16, DenseMatrix &out,
                          DenseMatrix &narrow,
                          CompressedMatrix *outCompressed,
                          Bf16Matrix *outBf16,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech) const;

    /**
     * Training forward: fills @p ctx with h^k and what the backward
     * needs — a^k aggregate-first; the address of @p in (which must
     * outlive backward()) and Z in ctx.narrow update-first. Inputs and
     * @p plan as in forwardInference. With compression on,
     * @p packOutput packs h^k into ctx.outputCompressed (sized here;
     * sets ctx.hasCompressed). GnnModel passes false where
     * no layer reads the packed rows (the logits, or an update-first
     * consumer) or where they would be stale (inter-layer dropout
     * follows; the model packs once after it). ctx.outputBf16 is the
     * *model's* responsibility for the same reason.
     */
    void forwardTraining(const CsrGraph &graph, const AggregationSpec &spec,
                         const DenseMatrix &in,
                         const CompressedMatrix *inCompressed,
                         const Bf16Matrix *inBf16, LayerContext &ctx,
                         std::span<const VertexId> order,
                         const PartitionPlan *plan,
                         const TechniqueConfig &tech,
                         bool packOutput = true) const;

    /**
     * Backward pass. Consumes dL/dh^k in @p gradOut (clobbered), fills
     * weight/bias gradients, and when @p gradIn is non-null computes
     * dL/dh^{k-1} (see the file comment for both orders).
     * Aggregate-first layers fuse the transposed aggregation with the
     * dz·Wᵀ GEMM when tech.fusion is on (fusedLayerBackward), so dAgg
     * is only materialised on the unfused path (into a persistent
     * per-layer scratch). Update-first layers aggregate G = Aggᵀ(dz)
     * into ctx.narrow and run both GEMMs from it. The bias gradient
     * uses the parallel deterministic columnSum.
     * Allocation-free once scratch has grown to the steady-state shape.
     *
     * @param transposed     transposed graph.
     * @param transposedSpec factors remapped by transposeSpec().
     * @param ctx            this layer's forwardTraining() state;
     *                       update-first layers overwrite ctx.narrow.
     * @param order          processing order for the *transposed* graph
     *                       (GnnModel::transposedLocalityOrderFor), or
     *                       empty for identity.
     * @param transposedPlan partition plan of the *transposed* graph for
     *                       shard-major execution, or null for flat.
     */
    void backward(const CsrGraph &transposed,
                  const AggregationSpec &transposedSpec, LayerContext &ctx,
                  DenseMatrix &gradOut, DenseMatrix *gradIn,
                  std::span<const VertexId> order,
                  const PartitionPlan *transposedPlan,
                  const TechniqueConfig &tech);

    /** SGD parameter update from the last backward()'s gradients. */
    void sgdStep(float learningRate);

    const DenseMatrix &weightGrad() const { return weightGrad_; }
    std::span<const Feature> biasGrad() const { return biasGrad_; }

  private:
    /**
     * The forward both entries share. Update-first: @p narrow = in·W,
     * then out = act(Agg(narrow) + b). Aggregate-first: fused unless
     * delayed-halo aggregation is selected, else aggregate into @p agg
     * (a temporary when null) and run one GEMM.
     */
    void forward(const CsrGraph &graph, const AggregationSpec &spec,
                 const DenseMatrix &in, const CompressedMatrix *inCompressed,
                 const Bf16Matrix *inBf16, DenseMatrix *agg,
                 DenseMatrix &narrow, DenseMatrix &out,
                 CompressedMatrix *outCompressed, Bf16Matrix *outBf16,
                 std::span<const VertexId> order, const PartitionPlan *plan,
                 const TechniqueConfig &tech) const;

    /** Bias, ReLU and the optional packed / bf16 copies of h^k. */
    void finishOutput(DenseMatrix &out, CompressedMatrix *outCompressed,
                      Bf16Matrix *outBf16) const;

    std::size_t inFeatures_;
    std::size_t outFeatures_;
    bool relu_;
    DenseMatrix weights_;
    std::vector<Feature> bias_;
    DenseMatrix weightGrad_;
    std::vector<Feature> biasGrad_;

    /** Bumped by every weight mutator; the plan caches key on it. */
    std::uint64_t weightsVersion_ = 0;
    /** Plan-cache slots, one per Precision enumerator. */
    static constexpr std::size_t kNumPrecisions = 2;
    /**
     * Guards the lazy plan cache below, so concurrent forwards (e.g. a
     * future serving layer evaluating one model from several request
     * threads) fill each slot exactly once. Each precision has its own
     * slot: a fill for one precision never overwrites a plan another
     * thread may still be reading at the other precision. The returned
     * plan is then read unlocked, which is safe while no weight
     * mutation is in flight — the documented packedWeights() contract.
     */
    mutable Mutex planMutex_;
    mutable std::array<GemmPlan, kNumPrecisions> packedNN_
        GRAPHITE_GUARDED_BY(planMutex_);
    mutable std::array<GemmPlan, kNumPrecisions> packedNT_
        GRAPHITE_GUARDED_BY(planMutex_);
    /** weightsVersion_ each cached plan was packed at (~0 = never). */
    mutable std::array<std::uint64_t, kNumPrecisions> packedNNVersion_
        GRAPHITE_GUARDED_BY(planMutex_) = {~std::uint64_t{0},
                                           ~std::uint64_t{0}};
    mutable std::array<std::uint64_t, kNumPrecisions> packedNTVersion_
        GRAPHITE_GUARDED_BY(planMutex_) = {~std::uint64_t{0},
                                           ~std::uint64_t{0}};

    /**
     * Packed dz operand of the dW GEMM, reused across epochs: dz
     * changes every step so the pack cannot be cached like the weight
     * plans, but repacking into persistent storage keeps the
     * steady-state epoch allocation-free (pack() reuses its buffers
     * when the operand shape and precision are unchanged).
     */
    GemmPlan dwPlanScratch_;
    /**
     * dAgg workspace of the unfused aggregate-first backward, reused
     * across epochs.
     */
    DenseMatrix dAggScratch_;
    /** columnSum partials workspace, reused across epochs. */
    std::vector<Feature> colSumScratch_;
    /** dz rounded to bf16 for the fused bf16 backward, reused. */
    Bf16Matrix dzBf16Scratch_;
};

} // namespace graphite
