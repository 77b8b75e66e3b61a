#include "gnn/gnn_layer.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "graph/counting_scatter.h"
#include "obs/trace.h"
#include "kernels/fused_layer.h"
#include "parallel/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

AggregationSpec
transposeSpec(const CsrGraph &graph, const AggregationSpec &spec,
              const CsrGraph &transposed)
{
    AggregationSpec out;
    out.selfFactors = spec.selfFactors;
    if (spec.edgeFactors.empty())
        return out;
    GRAPHITE_ASSERT(spec.edgeFactors.size() == graph.numEdges(),
                    "edge factor count mismatch");
    out.edgeFactors.resize(graph.numEdges());
    // The scatter CsrGraph::transposed() runs, carrying the factor of
    // each edge instead of its source, so positions line up with the
    // transposed CSR.
    const std::span<const VertexId> targets = graph.colIdx();
    const std::vector<EdgeId> rowPtr = countingScatter(
        targets.size(), graph.numVertices(),
        [&](std::size_t begin, std::size_t end, const auto &sink) {
            for (std::size_t e = begin; e < end; ++e)
                sink(targets[e], spec.edgeFactors[e]);
        },
        out.edgeFactors.data());
    GRAPHITE_ASSERT(std::equal(rowPtr.begin(), rowPtr.end(),
                               transposed.rowPtr().begin(),
                               transposed.rowPtr().end()),
                    "transposeSpec: graph and transposed disagree");
    return out;
}

GnnLayer::GnnLayer(std::size_t inFeatures, std::size_t outFeatures,
                   bool relu)
    : inFeatures_(inFeatures), outFeatures_(outFeatures), relu_(relu),
      weights_(inFeatures, outFeatures), bias_(outFeatures, 0.0f),
      weightGrad_(inFeatures, outFeatures), biasGrad_(outFeatures, 0.0f)
{
}

void
GnnLayer::initWeights(std::uint64_t seed)
{
    const float limit = std::sqrt(
        6.0f / static_cast<float>(inFeatures_ + outFeatures_));
    weights_.fillUniform(-limit, limit, seed);
    std::fill(bias_.begin(), bias_.end(), 0.0f);
    ++weightsVersion_;
}

const GemmPlan &
GnnLayer::packedWeights(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (packedNNVersion_[slot] != weightsVersion_) {
        packedNN_[slot].pack(GemmMode::NN, weights_, precision);
        packedNNVersion_[slot] = weightsVersion_;
    }
    return packedNN_[slot];
}

const GemmPlan &
GnnLayer::packedWeightsTransposed(Precision precision) const
{
    const auto slot = static_cast<std::size_t>(precision);
    GRAPHITE_ASSERT(slot < kNumPrecisions, "unknown precision");
    MutexLock lock(planMutex_);
    if (packedNTVersion_[slot] != weightsVersion_) {
        packedNT_[slot].pack(GemmMode::NT, weights_, precision);
        packedNTVersion_[slot] = weightsVersion_;
    }
    return packedNT_[slot];
}

bool
GnnLayer::updatesFirst(const AggregationSpec &spec) const
{
    const auto lines = [](std::size_t cols) {
        return (cols + kFloatsPerLine - 1) / kFloatsPerLine;
    };
    return spec.reduce == ReduceOp::Sum &&
           lines(outFeatures_) < lines(inFeatures_);
}

namespace {

/**
 * The rows an aggregate-first layer gathers: packed rows win when
 * compression is on, then bf16 rows under the Bf16 precision technique,
 * else fp32.
 */
FeatureRows
gatherRows(const DenseMatrix &in, const CompressedMatrix *inCompressed,
           const Bf16Matrix *inBf16, const TechniqueConfig &tech)
{
    if (tech.compression && inCompressed != nullptr)
        return *inCompressed;
    if (tech.precision == Precision::Bf16 && inBf16 != nullptr)
        return *inBf16;
    return in;
}

/** Flat over @p order, or shard-major over a plan of >= 2 shards. */
Schedule
layerSchedule(const CsrGraph &graph, const FeatureRows &in,
              std::span<const VertexId> order, const PartitionPlan *plan,
              const TechniqueConfig &tech)
{
    if (plan == nullptr || plan->numShards() < 2)
        return order;
    GRAPHITE_ASSERT(plan->graph == &graph,
                    "partition plan built for another graph");
    // Packed rows have no halo replica, so they always gather exactly.
    return Schedule(*plan, tech.delayedHalo && in.packed == nullptr);
}

} // namespace

void
GnnLayer::finishOutput(DenseMatrix &out, CompressedMatrix *outCompressed,
                       Bf16Matrix *outBf16) const
{
    if (!bias_.empty())
        addBias(out, bias_);
    if (relu_)
        reluForward(out);
    if (outCompressed)
        outCompressed->compressFrom(out);
    if (outBf16)
        outBf16->fromDense(out);
}

void
GnnLayer::forward(const CsrGraph &graph, const AggregationSpec &spec,
                  const DenseMatrix &in,
                  const CompressedMatrix *inCompressed,
                  const Bf16Matrix *inBf16, DenseMatrix *agg,
                  DenseMatrix &narrow, DenseMatrix &out,
                  CompressedMatrix *outCompressed, Bf16Matrix *outBf16,
                  std::span<const VertexId> order, const PartitionPlan *plan,
                  const TechniqueConfig &tech) const
{
    const GemmPlan &weights = packedWeights(tech.precision);
    if (updatesFirst(spec)) {
        // Z = h·W, then gather the narrow Z rows. Z stays fp32 at every
        // precision: its rows are already a few lines wide, and a bf16
        // copy would cost one more pass over it.
        narrow.reshape(graph.numVertices(), outFeatures_);
        gemm(GemmMode::NN, in, weights, narrow);
        aggregate(graph, narrow, out, spec,
                  layerSchedule(graph, narrow, order, plan, tech),
                  tech.agg);
        finishOutput(out, outCompressed, outBf16);
        return;
    }
    const FeatureRows rows = gatherRows(in, inCompressed, inBf16, tech);
    const Schedule schedule = layerSchedule(graph, rows, order, plan, tech);
    // Fusion has no delayed-halo variant (the replica phase breaks the
    // per-block pipeline); delayed runs take the unfused path below.
    if (tech.fusion && schedule.delayedHalo == nullptr) {
        const UpdateOp update{&weights_, bias_, relu_, &weights,
                              tech.precision};
        fusedLayer(graph, rows, spec, update, out,
                   {agg, outCompressed, outBf16}, schedule, tech.fused,
                   tech.agg);
        return;
    }
    // Unfused path: aggregation materialises a^k, then one big GEMM.
    DenseMatrix scratch;
    if (agg == nullptr) {
        scratch.resize(graph.numVertices(), inFeatures_);
        agg = &scratch;
    }
    aggregate(graph, rows, *agg, spec, schedule, tech.agg);
    gemm(GemmMode::NN, *agg, weights, out);
    finishOutput(out, outCompressed, outBf16);
}

void
GnnLayer::forwardInference(const CsrGraph &graph,
                           const AggregationSpec &spec,
                           const DenseMatrix &in,
                           const CompressedMatrix *inCompressed,
                           const Bf16Matrix *inBf16, DenseMatrix &out,
                           DenseMatrix &narrow,
                           CompressedMatrix *outCompressed,
                           Bf16Matrix *outBf16,
                           std::span<const VertexId> order,
                           const PartitionPlan *plan,
                           const TechniqueConfig &tech) const
{
    GRAPHITE_TRACE_SPAN("layer.forward");
    forward(graph, spec, in, inCompressed, inBf16, nullptr, narrow, out,
            outCompressed, outBf16, order, plan, tech);
}

void
GnnLayer::forwardTraining(const CsrGraph &graph, const AggregationSpec &spec,
                          const DenseMatrix &in,
                          const CompressedMatrix *inCompressed,
                          const Bf16Matrix *inBf16, LayerContext &ctx,
                          std::span<const VertexId> order,
                          const PartitionPlan *plan,
                          const TechniqueConfig &tech,
                          bool packOutput) const
{
    GRAPHITE_TRACE_SPAN("layer.forward");
    const VertexId n = graph.numVertices();
    const bool narrowFirst = updatesFirst(spec);
    // Update-first keeps the input itself for dW = hᵀ·G; a^k is never
    // formed.
    ctx.input = narrowFirst ? &in : nullptr;
    if (!narrowFirst &&
        (ctx.agg.rows() != n || ctx.agg.cols() != inFeatures_))
        ctx.agg.resize(n, inFeatures_);
    if (ctx.output.rows() != n || ctx.output.cols() != outFeatures_)
        ctx.output.resize(n, outFeatures_);
    ctx.hasCompressed = tech.compression && packOutput;
    CompressedMatrix *outCompressed = nullptr;
    if (ctx.hasCompressed) {
        ctx.outputCompressed.reshape(n, outFeatures_);
        outCompressed = &ctx.outputCompressed;
    }
    forward(graph, spec, in, inCompressed, inBf16,
            narrowFirst ? nullptr : &ctx.agg, ctx.narrow, ctx.output,
            outCompressed, nullptr, order, plan, tech);
}

void
GnnLayer::backward(const CsrGraph &transposed,
                   const AggregationSpec &transposedSpec, LayerContext &ctx,
                   DenseMatrix &gradOut, DenseMatrix *gradIn,
                   std::span<const VertexId> order,
                   const PartitionPlan *transposedPlan,
                   const TechniqueConfig &tech)
{
    GRAPHITE_TRACE_SPAN("layer.backward");
    GRAPHITE_ASSERT(gradOut.rows() == ctx.output.rows() &&
                        gradOut.cols() == outFeatures_,
                    "gradOut shape mismatch");
    // dz = dh ⊙ ReLU'(h); ctx.output is post-activation so zeros mark
    // clipped positions.
    if (relu_)
        reluBackward(ctx.output, gradOut);
    columnSum(gradOut, biasGrad_, colSumScratch_);
    const Schedule schedule =
        layerSchedule(transposed, gradOut, order, transposedPlan, tech);

    GRAPHITE_ASSERT((ctx.input != nullptr) == updatesFirst(transposedSpec),
                    "context recorded for the other layer order");
    if (ctx.input != nullptr) {
        // Update-first: G = Aggᵀ(dz), gathering fp32 dz rows as narrow
        // as Z's; then dW = hᵀ·G and dh_prev = G·Wᵀ. There is no fused
        // form: dW needs all of G, and computing it before the |V| x F_in
        // dh_prev store keeps h cache-warm for the dW GEMM.
        GRAPHITE_ASSERT(ctx.input->rows() == gradOut.rows() &&
                            ctx.input->cols() == inFeatures_,
                        "update-first layer input shape mismatch");
        DenseMatrix &g = ctx.narrow;
        g.reshape(gradOut.rows(), outFeatures_);
        aggregate(transposed, gradOut, g, transposedSpec, schedule,
                  tech.agg);
        dwPlanScratch_.pack(GemmMode::TN, g, tech.precision);
        gemm(GemmMode::TN, *ctx.input, dwPlanScratch_, weightGrad_,
             GemmAccumulate::Overwrite);
        if (gradIn) {
            gradIn->reshape(gradOut.rows(), inFeatures_);
            gemm(GemmMode::NT, g, packedWeightsTransposed(tech.precision),
                 *gradIn);
        }
        return;
    }

    // Aggregate-first: dW = aᵀ·dz. At bf16 both GEMM operands are
    // rounded at pack time; accumulation stays fp32.
    dwPlanScratch_.pack(GemmMode::TN, gradOut, tech.precision);
    gemm(GemmMode::TN, ctx.agg, dwPlanScratch_, weightGrad_,
         GemmAccumulate::Overwrite);
    if (!gradIn)
        return;
    // dh_prev = Aggᵀ(dz·Wᵀ) over the transposed graph.
    gradIn->reshape(gradOut.rows(), inFeatures_);
    const GemmPlan &planNT = packedWeightsTransposed(tech.precision);
    if (tech.fusion && schedule.delayedHalo == nullptr) {
        // Fused: per-block (Aggᵀ dz)·Wᵀ, dAgg never materialised (see
        // kernels/fused_layer.h on the commuted fusion direction). At
        // bf16, dz is rounded once and gathered at half width;
        // gradients themselves keep accumulating in fp32.
        FeatureRows dz = gradOut;
        if (tech.precision == Precision::Bf16) {
            dzBf16Scratch_.reshape(gradOut.rows(), outFeatures_);
            dzBf16Scratch_.fromDense(gradOut);
            dz = dzBf16Scratch_;
        }
        fusedLayerBackward(transposed, dz, transposedSpec, planNT, *gradIn,
                           schedule, tech.fused, tech.agg);
        return;
    }
    dAggScratch_.reshape(gradOut.rows(), inFeatures_);
    gemm(GemmMode::NT, gradOut, planNT, dAggScratch_);
    // dAgg rows stay fp32 here: converting a transient scratch to bf16
    // would add a full extra pass for no stored-traffic win.
    aggregate(transposed, dAggScratch_, *gradIn, transposedSpec, schedule,
              tech.agg);
}

void
GnnLayer::sgdStep(float learningRate)
{
    GRAPHITE_TRACE_SPAN("layer.sgd");
    parallelFor(0, weights_.rows(), 64,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *w = weights_.row(r);
            const Feature *g = weightGrad_.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < outFeatures_; ++c)
                w[c] -= learningRate * g[c];
        }
    });
    for (std::size_t c = 0; c < outFeatures_; ++c)
        bias_[c] -= learningRate * biasGrad_[c];
    ++weightsVersion_;
}

} // namespace graphite
