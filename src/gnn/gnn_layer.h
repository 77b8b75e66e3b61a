/**
 * @file
 * One GNN layer: aggregation (Table 2's AGGREGATE) + FC/ReLU update,
 * with forward paths for every technique combination and a full backward
 * pass for training.
 *
 * Backward math for h = ReLU(a W + b), a = Agg(h_prev):
 *   dz      = dh ⊙ ReLU'(h)
 *   dW      = aᵀ · dz          db = colsum(dz)
 *   da      = dz · Wᵀ
 *   dh_prev = Aggᵀ(da)   — aggregation along the transposed graph with
 *                          the transposed factor map.
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
    /** Aggregation output a^k (pre-update). */
    DenseMatrix agg;
    /** Layer output h^k (post-activation). */
    DenseMatrix output;
    /** Compressed copy of output, maintained when compression is on. */
    CompressedMatrix outputCompressed;
    bool hasCompressed = false;
    /**
     * Bf16 copy of output (post-dropout), maintained by GnnModel when
     * the precision technique is on so the next layer gathers at half
     * width.
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
     * Inference forward: writes h^k into @p out; a^k is only
     * materialised when fusion is off (the unfused path needs it as a
     * GEMM input). Gathers read the packed rows @p inCompressed when
     * compression is on and they are supplied, else the bf16 rows
     * @p inBf16 under the Bf16 precision technique, else @p in. Non-null
     * @p outCompressed / @p outBf16 receive packed / bf16 copies of h^k
     * for the next layer.
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
                          CompressedMatrix *outCompressed,
                          Bf16Matrix *outBf16,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech) const;

    /**
     * Training forward: fills @p ctx with a^k and h^k; inputs and
     * @p plan as in forwardInference. With compression on,
     * ctx.outputCompressed is sized to h^k, and @p packOutput packs h^k
     * into it in the fused sink (setting ctx.hasCompressed). GnnModel
     * passes false where no layer reads the packed rows (the logits) or
     * where they would be stale (inter-layer dropout follows; the model
     * packs once after it). ctx.outputBf16 is the *model's*
     * responsibility for the same reason.
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
     * dL/dh^{k-1} via the transposed aggregation — fused with the
     * da = dz·Wᵀ GEMM when tech.fusion is on (fusedLayerBackward), so
     * dAgg is only materialised on the unfused path (into a persistent
     * per-layer scratch). The bias gradient uses the parallel
     * deterministic columnSum. Allocation-free once scratch has grown
     * to the steady-state shape.
     *
     * @param transposed     transposed graph.
     * @param transposedSpec factors remapped by transposeSpec().
     * @param order          processing order for the *transposed* graph
     *                       (GnnModel::transposedLocalityOrderFor), or
     *                       empty for identity.
     * @param transposedPlan partition plan of the *transposed* graph for
     *                       shard-major execution, or null for flat.
     */
    void backward(const CsrGraph &transposed,
                  const AggregationSpec &transposedSpec,
                  const LayerContext &ctx, DenseMatrix &gradOut,
                  DenseMatrix *gradIn, std::span<const VertexId> order,
                  const PartitionPlan *transposedPlan,
                  const TechniqueConfig &tech);

    /** SGD parameter update from the last backward()'s gradients. */
    void sgdStep(float learningRate);

    const DenseMatrix &weightGrad() const { return weightGrad_; }
    std::span<const Feature> biasGrad() const { return biasGrad_; }

  private:
    /**
     * The forward both entries share: fused unless delayed-halo
     * aggregation is selected, else aggregate into @p agg (a temporary
     * when null) and run one GEMM.
     */
    void forward(const CsrGraph &graph, const AggregationSpec &spec,
                 FeatureRows in, DenseMatrix *agg, DenseMatrix &out,
                 CompressedMatrix *outCompressed, Bf16Matrix *outBf16,
                 const Schedule &schedule,
                 const TechniqueConfig &tech) const;

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
    /** dAgg workspace of the unfused backward, reused across epochs. */
    DenseMatrix dAggScratch_;
    /** columnSum partials workspace, reused across epochs. */
    std::vector<Feature> colSumScratch_;
    /** dz rounded to bf16 for the fused bf16 backward, reused. */
    Bf16Matrix dzBf16Scratch_;
};

} // namespace graphite
