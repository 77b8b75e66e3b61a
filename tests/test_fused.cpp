/**
 * @file
 * Tests of layer fusion (paper Algorithm 2): fused results must be
 * bit-compatible with the unfused aggregation + GEMM pipeline across
 * block sizes, orders, and compression variants.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.h"
#include "graph/reorder.h"
#include "kernels/fused_layer.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

struct LayerFixture
{
    CsrGraph graph;
    AggregationSpec spec;
    DenseMatrix input;
    DenseMatrix weights;
    std::vector<Feature> bias;

    LayerFixture(std::size_t fIn, std::size_t fOut, double sparsity = 0.0)
    {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 8.0;
        graph = generateRmat(params);
        spec = gcnSpec(graph);
        input = DenseMatrix(graph.numVertices(), fIn);
        input.fillUniform(-1.0f, 1.0f, 31);
        if (sparsity > 0.0)
            input.sparsify(sparsity, 32);
        weights = DenseMatrix(fIn, fOut);
        weights.fillUniform(-0.2f, 0.2f, 33);
        bias.assign(fOut, 0.01f);
    }

    UpdateOp
    update() const
    {
        return UpdateOp{&weights, bias, true};
    }

    /** Ground truth h^k and a^k via the unfused path. */
    std::pair<DenseMatrix, DenseMatrix>
    reference() const
    {
        DenseMatrix agg(graph.numVertices(), input.cols());
        DenseMatrix out(graph.numVertices(), weights.cols());
        unfusedLayer(graph, input, spec, update(), agg, out);
        return {std::move(agg), std::move(out)};
    }
};

class FusedBlockShapes
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FusedBlockShapes, TrainingVariantMatchesUnfused)
{
    const auto [blockSize, blocksPerTask] = GetParam();
    LayerFixture fx(96, 64);
    auto [refAgg, refOut] = fx.reference();

    FusedConfig config;
    config.blockSize = static_cast<std::size_t>(blockSize);
    config.blocksPerTask = static_cast<std::size_t>(blocksPerTask);
    DenseMatrix agg(fx.graph.numVertices(), 96);
    DenseMatrix out(fx.graph.numVertices(), 64);
    fusedLayerTraining(fx.graph, fx.input, fx.spec, fx.update(), agg, out,
                       {}, config);
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Blocks, FusedBlockShapes,
                         testing::Combine(testing::Values(1, 7, 16, 64),
                                          testing::Values(1, 4)));

TEST(FusedLayer, InferenceVariantMatchesUnfused)
{
    LayerFixture fx(128, 128);
    auto [refAgg, refOut] = fx.reference();
    DenseMatrix out(fx.graph.numVertices(), 128);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), out);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, RespectsProcessingOrder)
{
    LayerFixture fx(64, 32);
    auto [refAgg, refOut] = fx.reference();
    ProcessingOrder order = localityOrder(fx.graph);
    DenseMatrix agg(fx.graph.numVertices(), 64);
    DenseMatrix out(fx.graph.numVertices(), 32);
    fusedLayerTraining(fx.graph, fx.input, fx.spec, fx.update(), agg, out,
                       order);
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, CompressedInputMatchesDense)
{
    LayerFixture fx(128, 96, 0.6);
    auto [refAgg, refOut] = fx.reference();
    CompressedMatrix packed(fx.graph.numVertices(), 128);
    packed.compressFrom(fx.input);

    DenseMatrix agg(fx.graph.numVertices(), 128);
    DenseMatrix out(fx.graph.numVertices(), 96);
    fusedLayerTrainingCompressed(fx.graph, packed, fx.spec, fx.update(),
                                 agg, out);
    EXPECT_LT(agg.maxAbsDiff(refAgg), 1e-4);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

TEST(FusedLayer, CompressedOutputRoundTrips)
{
    LayerFixture fx(64, 64, 0.5);
    DenseMatrix out(fx.graph.numVertices(), 64);
    CompressedMatrix outPacked(fx.graph.numVertices(), 64);
    fusedLayer(fx.graph, fx.input, fx.spec, fx.update(), out);

    CompressedMatrix inPacked(fx.graph.numVertices(), 64);
    inPacked.compressFrom(fx.input);
    DenseMatrix out2(fx.graph.numVertices(), 64);
    fusedLayer(fx.graph, inPacked, fx.spec, fx.update(), out2,
               {nullptr, &outPacked});
    EXPECT_LT(out.maxAbsDiff(out2), 1e-4);

    // The packed output must decompress to the dense output (ReLU makes
    // it genuinely sparse, exercising real compression).
    DenseMatrix restored(fx.graph.numVertices(), 64);
    outPacked.decompressTo(restored);
    EXPECT_LT(restored.maxAbsDiff(out2), 1e-6);
    EXPECT_GT(out2.sparsity(), 0.2); // ReLU produced zeros
}

TEST(FusedLayer, NoReluPassesNegativesThrough)
{
    LayerFixture fx(32, 32);
    UpdateOp update = fx.update();
    update.relu = false;
    DenseMatrix agg(fx.graph.numVertices(), 32);
    DenseMatrix out(fx.graph.numVertices(), 32);
    fusedLayerTraining(fx.graph, fx.input, fx.spec, update, agg, out);
    bool sawNegative = false;
    for (VertexId v = 0; v < fx.graph.numVertices() && !sawNegative; ++v) {
        for (std::size_t c = 0; c < 32; ++c) {
            if (out.at(v, c) < 0.0f) {
                sawNegative = true;
                break;
            }
        }
    }
    EXPECT_TRUE(sawNegative);
}

TEST(FusedLayer, BlockLargerThanGraphStillCorrect)
{
    LayerFixture fx(48, 24);
    auto [refAgg, refOut] = fx.reference();
    FusedConfig config;
    config.blockSize = fx.graph.numVertices() * 2;
    DenseMatrix agg(fx.graph.numVertices(), 48);
    DenseMatrix out(fx.graph.numVertices(), 24);
    fusedLayerTraining(fx.graph, fx.input, fx.spec, fx.update(), agg, out,
                       {}, config);
    EXPECT_LT(out.maxAbsDiff(refOut), 1e-4);
}

} // namespace
} // namespace graphite
