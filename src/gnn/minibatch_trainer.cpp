#include "gnn/minibatch_trainer.h"

#include <cstring>

#include "common/assert.h"
#include "common/timer.h"
#include "kernels/aggregation.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {

MiniBatchTrainer::MiniBatchTrainer(const CsrGraph &graph,
                                   const DenseMatrix &features,
                                   std::vector<std::int32_t> labels,
                                   std::vector<std::size_t> featureWidths,
                                   GnnKind kind, MiniBatchConfig config)
    : graph_(graph), features_(features), labels_(std::move(labels)),
      config_(std::move(config)), kind_(kind), rng_(config_.seed)
{
    GRAPHITE_ASSERT(featureWidths.size() >= 2, "need at least two widths");
    GRAPHITE_ASSERT(featureWidths.size() - 1 == config_.fanouts.size(),
                    "one fanout per layer required");
    GRAPHITE_ASSERT(featureWidths.front() == features.cols(),
                    "input width mismatch");
    GRAPHITE_ASSERT(labels_.size() == graph.numVertices(),
                    "label count mismatch");
    for (std::size_t k = 0; k + 1 < featureWidths.size(); ++k) {
        const bool relu = k + 2 < featureWidths.size();
        layers_.push_back(std::make_unique<GnnLayer>(
            featureWidths[k], featureWidths[k + 1], relu));
        layers_.back()->initWeights(config_.seed + 100 + k);
    }
    contexts_.resize(layers_.size());
}

namespace {

/**
 * GraphSAGE-mean over the sampled neighborhood plus self; GCN-style
 * symmetric norms are ill-defined on sampled bipartite blocks, so both
 * kinds use the mean here (as DGL's sampled SAGE does). This is the
 * factor the forward kernel scales destination @p d's sum by.
 */
Feature
meanFactor(const CsrGraph &block, VertexId d)
{
    return 1.0f / static_cast<Feature>(block.degree(d) + 1);
}

} // namespace

double
MiniBatchTrainer::forwardBatch(const MiniBatch &batch,
                               DenseMatrix &lossGrad)
{
    // Precondition: contexts_[0].input holds the gathered features of
    // batch.inputVertices() (the staging copy whose cost Figure 2
    // attributes to "mini-batching" — callers time it separately).
    GRAPHITE_ASSERT(contexts_[0].input.rows() ==
                        batch.inputVertices().size(),
                    "input features not gathered for this batch");

    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const SampledBlock &block = batch.blocks[k];
        BlockContext &ctx = contexts_[k];
        // Layer k's input is the previous layer's output (kept alive:
        // the backward pass needs every layer's activation).
        const DenseMatrix &input =
            k == 0 ? ctx.input : contexts_[k - 1].output;
        const std::size_t numDst = block.dstVertices.size();
        GnnLayer &layer = *layers_[k];
        // Local source j is row j of the input (dst prefixes src).
        const BlockView view{block.block.rowPtr(), block.block.colIdx(),
                             {}};

        ctx.agg.resize(numDst, layer.inFeatures());
        for (std::size_t d = 0; d < numDst; ++d)
            blockMeanRow(view, input, d, ctx.agg.row(d));
        ctx.output.resize(numDst, layer.outFeatures());
        // Serial packed update over the whole sampled block; the packed
        // weights come from the layer's cache (repacked only after the
        // in-loop SGD update mutates W).
        gemmBlockSerial(ctx.agg.row(0), numDst, ctx.agg.rowStride(),
                        layer.packedWeights(config_.precision),
                        ctx.output.row(0), ctx.output.rowStride(),
                        layer.inFeatures());
        addBias(ctx.output, layer.bias());
        if (layer.hasRelu())
            reluForward(ctx.output);
    }

    const BlockContext &last = contexts_.back();
    const auto &seeds = batch.blocks.back().dstVertices;
    std::vector<std::int32_t> batchLabels(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i)
        batchLabels[i] = labels_[seeds[i]];
    lossGrad.resize(last.output.rows(), last.output.cols());
    return softmaxCrossEntropy(last.output, batchLabels, lossGrad);
}

void
MiniBatchTrainer::backwardBatch(const MiniBatch &batch,
                                DenseMatrix lossGrad)
{
    DenseMatrix gradOut = std::move(lossGrad);
    for (std::size_t k = layers_.size(); k-- > 0;) {
        const SampledBlock &block = batch.blocks[k];
        BlockContext &ctx = contexts_[k];
        GnnLayer &layer = *layers_[k];
        if (layer.hasRelu())
            reluBackward(ctx.output, gradOut);

        // dW = aggᵀ·dz, db = colsum(dz).
        DenseMatrix weightGrad(layer.inFeatures(), layer.outFeatures());
        gemm(GemmMode::TN, ctx.agg, gradOut, weightGrad);
        std::vector<Feature> biasGrad(layer.outFeatures(), 0.0f);
        for (std::size_t r = 0; r < gradOut.rows(); ++r) {
            const Feature *row = gradOut.row(r);
            for (std::size_t c = 0; c < biasGrad.size(); ++c)
                biasGrad[c] += row[c];
        }

        DenseMatrix dAgg(gradOut.rows(), layer.inFeatures());
        gemm(GemmMode::NT, gradOut,
             layer.packedWeightsTransposed(config_.precision), dAgg);

        // Parameter update (plain SGD per mini-batch).
        layer.editParameters([&](DenseMatrix &weights,
                                 std::vector<Feature> &bias) {
            for (std::size_t r = 0; r < weights.rows(); ++r) {
                Feature *w = weights.row(r);
                const Feature *g = weightGrad.row(r);
                for (std::size_t c = 0; c < weights.cols(); ++c)
                    w[c] -= config_.learningRate * g[c];
            }
            for (std::size_t c = 0; c < biasGrad.size(); ++c)
                bias[c] -= config_.learningRate * biasGrad[c];
        });

        if (k == 0)
            break;
        // dx over the block's sources: transposed-block aggregation.
        const CsrGraph transposed = block.block.transposed();
        // Pad dAgg to |src| rows (source-only rows have zero gradient
        // from edges; self terms only exist for dst rows).
        DenseMatrix dSrc(block.srcVertices.size(), layer.inFeatures());
        for (VertexId s = 0; s < block.srcVertices.size(); ++s) {
            Feature *dst = dSrc.row(s);
            // Edge contributions from transposed rows.
            for (EdgeId e = transposed.rowBegin(s);
                 e < transposed.rowEnd(s); ++e) {
                const VertexId d = transposed.colIdx()[e];
                const Feature factor = meanFactor(block.block, d);
                const Feature *src = dAgg.row(d);
                for (std::size_t c = 0; c < layer.inFeatures(); ++c)
                    dst[c] += factor * src[c];
            }
            // Self term: sources that are also destinations.
            if (s < block.dstVertices.size()) {
                const Feature factor = meanFactor(block.block, s);
                const Feature *src = dAgg.row(s);
                for (std::size_t c = 0; c < layer.inFeatures(); ++c)
                    dst[c] += factor * src[c];
            }
        }
        gradOut = std::move(dSrc);
    }
}

MiniBatchEpochStats
MiniBatchTrainer::trainEpoch()
{
    MiniBatchEpochStats stats;
    auto batches = makeEpochBatches(graph_, config_.batchSize, rng_);
    double lossSum = 0.0;
    for (auto &seeds : batches) {
        Timer sampling;
        MiniBatch batch =
            sampleMiniBatch(graph_, std::move(seeds), config_.fanouts,
                            rng_);
        contexts_[0].input =
            gatherBatchFeatures(features_, batch.inputVertices());
        stats.samplingSeconds += sampling.seconds();

        Timer layerTimer;
        DenseMatrix lossGrad;
        lossSum += forwardBatch(batch, lossGrad);
        backwardBatch(batch, std::move(lossGrad));
        stats.layerSeconds += layerTimer.seconds();
    }
    stats.loss = lossSum / static_cast<double>(batches.size());
    return stats;
}

double
MiniBatchTrainer::evaluateLoss()
{
    auto batches = makeEpochBatches(graph_, config_.batchSize, rng_);
    double lossSum = 0.0;
    for (auto &seeds : batches) {
        MiniBatch batch =
            sampleMiniBatch(graph_, std::move(seeds), config_.fanouts,
                            rng_);
        contexts_[0].input =
            gatherBatchFeatures(features_, batch.inputVertices());
        DenseMatrix lossGrad;
        lossSum += forwardBatch(batch, lossGrad);
    }
    return lossSum / static_cast<double>(batches.size());
}

} // namespace graphite
