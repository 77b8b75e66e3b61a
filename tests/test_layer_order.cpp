/**
 * @file
 * Tests of the layer-order rule: width-shrinking sum layers run
 * update-first, Agg(h·W), and must match the aggregate-first algebra
 * (Agg(h)·W) forward and backward, pass a finite-difference check,
 * keep every technique's logits bitwise equal and keep their Z/G
 * workspace pinned across epochs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

CsrGraph
testGraph()
{
    return generateErdosRenyi(150, 1200, false, 97);
}

AggregationSpec
specFor(GnnKind kind, const CsrGraph &graph)
{
    switch (kind) {
      case GnnKind::Gcn:
        return gcnSpec(graph);
      case GnnKind::Sage:
        return sageSpec(graph);
      case GnnKind::Gin:
        break;
    }
    return ginSpec(graph, 0.25f);
}

/** max |got - ref| <= 1e-5 · max(1, max |ref|) over the logical region. */
void
expectRelClose(const DenseMatrix &got, const DenseMatrix &ref,
               const char *what)
{
    ASSERT_EQ(got.rows(), ref.rows()) << what;
    ASSERT_EQ(got.cols(), ref.cols()) << what;
    double scale = 1.0;
    for (std::size_t r = 0; r < ref.rows(); ++r)
        for (std::size_t c = 0; c < ref.cols(); ++c)
            scale = std::max(scale, std::abs(double{ref.at(r, c)}));
    EXPECT_LE(got.maxAbsDiff(ref), 1e-5 * scale) << what;
}

TEST(LayerOrder, RulePicksUpdateFirstOnlyForNarrowingSumLayers)
{
    const CsrGraph g = testGraph();
    // Narrowing sum layers: GCN, SAGE, GIN and plain sum.
    for (const AggregationSpec &spec :
         {gcnSpec(g), sageSpec(g), ginSpec(g), sumSpec()}) {
        EXPECT_TRUE(GnnLayer(128, 8, false).updatesFirst(spec));
        EXPECT_TRUE(GnnLayer(48, 5, true).updatesFirst(spec));
        EXPECT_TRUE(GnnLayer(20, 16, true).updatesFirst(spec));
    }
    // Max reduction does not commute with the GEMM.
    EXPECT_FALSE(GnnLayer(128, 8, false).updatesFirst(maxSpec()));
    // Widening, equal and equal-after-padding widths gather the input.
    EXPECT_FALSE(GnnLayer(64, 128, true).updatesFirst(gcnSpec(g)));
    EXPECT_FALSE(GnnLayer(16, 16, true).updatesFirst(gcnSpec(g)));
    EXPECT_FALSE(GnnLayer(16, 10, true).updatesFirst(gcnSpec(g)));
    EXPECT_FALSE(GnnLayer(8, 3, true).updatesFirst(gcnSpec(g)));
}

class UpdateFirstParity : public ::testing::TestWithParam<GnnKind>
{
};

/**
 * A 48 -> 5 layer, forward and backward, against the aggregate-first
 * algebra built from the reference kernels: a = Agg(h), z = a·W + b,
 * dW = aᵀ·dz, db = colsum(dz), dh_prev = Aggᵀ(dz·Wᵀ) by scatter.
 * Both the unfused and the fused backward paths are checked.
 */
TEST_P(UpdateFirstParity, MatchesAggregateFirstReference)
{
    const CsrGraph g = testGraph();
    const CsrGraph t = g.transposed();
    const AggregationSpec spec = specFor(GetParam(), g);
    const AggregationSpec tSpec = transposeSpec(g, spec, t);
    const std::size_t fIn = 48;
    const std::size_t fOut = 5;
    const VertexId n = g.numVertices();

    GnnLayer layer(fIn, fOut, true);
    layer.initWeights(3);
    layer.editParameters([](DenseMatrix &, std::vector<Feature> &b) {
        for (std::size_t c = 0; c < b.size(); ++c)
            b[c] = 0.05f * static_cast<Feature>(c) - 0.1f;
    });
    ASSERT_TRUE(layer.updatesFirst(spec));
    DenseMatrix h(n, fIn);
    h.fillUniform(-1.0f, 1.0f, 4);
    DenseMatrix upstream(n, fOut);
    upstream.fillUniform(-1.0f, 1.0f, 5);

    // Aggregate-first reference.
    DenseMatrix a(n, fIn);
    aggregateReference(g, h, a, spec);
    DenseMatrix ref(n, fOut);
    gemmReference(GemmMode::NN, a, layer.weights(), ref);
    addBias(ref, layer.bias());
    reluForward(ref);
    DenseMatrix dz = upstream;
    reluBackward(ref, dz);
    DenseMatrix refDW(fIn, fOut);
    gemmReference(GemmMode::TN, a, dz, refDW);
    DenseMatrix refDB(1, fOut);
    for (VertexId v = 0; v < n; ++v)
        for (std::size_t c = 0; c < fOut; ++c)
            refDB.at(0, c) += dz.at(v, c);
    DenseMatrix dAgg(n, fIn);
    gemmReference(GemmMode::NT, dz, layer.weights(), dAgg);
    DenseMatrix refDH(n, fIn);
    aggregateTransposedPush(g, dAgg, refDH, spec);

    for (const TechniqueConfig &tech :
         {TechniqueConfig::basic(), TechniqueConfig::withFusion()}) {
        SCOPED_TRACE(tech.label());
        LayerContext ctx;
        layer.forwardTraining(g, spec, h, nullptr, nullptr, ctx, {},
                              nullptr, tech);
        EXPECT_EQ(ctx.input, &h);
        EXPECT_EQ(ctx.agg.rows(), 0u) << "a^k must not be materialised";
        expectRelClose(ctx.output, ref, "h");

        DenseMatrix grad = upstream;
        DenseMatrix gradIn;
        layer.backward(t, tSpec, ctx, grad, &gradIn, {}, nullptr, tech);
        expectRelClose(layer.weightGrad(), refDW, "dW");
        DenseMatrix gotDB(1, fOut);
        for (std::size_t c = 0; c < fOut; ++c)
            gotDB.at(0, c) = layer.biasGrad()[c];
        expectRelClose(gotDB, refDB, "db");
        expectRelClose(gradIn, refDH, "dh_prev");
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, UpdateFirstParity,
                         ::testing::Values(GnnKind::Gcn, GnnKind::Sage,
                                           GnnKind::Gin),
                         [](const auto &info) {
                             return gnnKindName(info.param);
                         });

void
setWeight(GnnLayer &layer, std::size_t r, std::size_t c, Feature value)
{
    layer.editParameters([&](DenseMatrix &w, std::vector<Feature> &) {
        w.at(r, c) = value;
    });
}

/**
 * Central differences through the whole model: a single 48 -> 5
 * update-first layer (its dW), and the same layer on top of a 12 -> 48
 * layer (whose dW flows through the update-first dh_prev = G·Wᵀ).
 */
TEST(LayerOrder, UpdateFirstGradientMatchesFiniteDifference)
{
    const CsrGraph g = generateErdosRenyi(40, 240, false, 51);
    for (const std::vector<std::size_t> &widths :
         {std::vector<std::size_t>{48, 5},
          std::vector<std::size_t>{12, 48, 5}}) {
        SCOPED_TRACE(widths.size());
        GnnModelConfig config;
        config.kind = GnnKind::Gcn;
        config.featureWidths = widths;
        config.dropoutRate = 0.0;
        GnnModel model(g, config);
        ASSERT_TRUE(model.layer(model.numLayers() - 1)
                        .updatesFirst(model.spec()));
        DenseMatrix features(g.numVertices(), widths.front());
        features.fillUniform(-1.0f, 1.0f, 52);
        std::vector<std::int32_t> labels(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); ++v)
            labels[v] = static_cast<std::int32_t>(v % 5);

        const TechniqueConfig tech = TechniqueConfig::withFusion();
        const auto lossOf = [&] {
            const DenseMatrix &logits = model.trainForward(features, tech);
            DenseMatrix grad(logits.rows(), logits.cols());
            return softmaxCrossEntropy(logits, labels, grad);
        };
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix lossGrad(logits.rows(), logits.cols());
        softmaxCrossEntropy(logits, labels, lossGrad);
        model.trainBackward(lossGrad, tech);
        GnnLayer &probed = model.layer(0);
        const DenseMatrix analytic = probed.weightGrad();

        const float eps = 1e-3f;
        for (std::size_t r = 0; r < 4; ++r) {
            for (std::size_t c = 0; c < 2; ++c) {
                const Feature orig = probed.weights().at(r, c);
                setWeight(probed, r, c, orig + eps);
                const double lossPlus = lossOf();
                setWeight(probed, r, c, orig - eps);
                const double lossMinus = lossOf();
                setWeight(probed, r, c, orig);
                const double numeric = (lossPlus - lossMinus) / (2.0 * eps);
                EXPECT_NEAR(analytic.at(r, c), numeric,
                            5e-3 * std::max(1.0, std::abs(numeric)))
                    << "weight (" << r << "," << c << ")";
            }
        }
    }
}

/**
 * 32 -> 48 -> 5: layer 0 gathers (fused or not, packed or not), layer
 * 1 runs update-first on every path, so the logits of every technique
 * are bitwise equal to basic's, at fp32 and at bf16.
 */
TEST(LayerOrder, LogitsBitwiseEqualAcrossTechniques)
{
    const CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {32, 48, 5};
    GnnModel model(g, config);
    ASSERT_FALSE(model.layer(0).updatesFirst(model.spec()));
    ASSERT_TRUE(model.layer(1).updatesFirst(model.spec()));
    DenseMatrix features(g.numVertices(), 32);
    features.fillUniform(-1.0f, 1.0f, 48);
    features.sparsify(0.5, 49);

    TechniqueConfig sharded = TechniqueConfig::combined();
    sharded.shards = 4;
    TechniqueConfig shardedBasic;
    shardedBasic.shards = 3;
    for (const Precision precision : {Precision::Fp32, Precision::Bf16}) {
        TechniqueConfig basic = TechniqueConfig::basic();
        basic.precision = precision;
        const DenseMatrix base = model.inference(features, basic);
        for (TechniqueConfig tech :
             {TechniqueConfig::withFusion(),
              TechniqueConfig::withCompression(),
              TechniqueConfig::combined(),
              TechniqueConfig::combinedLocality(), sharded, shardedBasic}) {
            tech.precision = precision;
            const DenseMatrix &out = model.inference(features, tech);
            EXPECT_EQ(base.maxAbsDiff(out), 0.0)
                << tech.label() << " " << precisionName(precision);
        }
    }
}

/**
 * The update-first layer keeps h^{k-1} by address and reuses one
 * |V| x F_out buffer for Z (forward) and G (backward); that buffer is
 * reported by workspacePointers() and stays put across epochs.
 */
TEST(LayerOrder, NarrowWorkspaceIsReportedAndPinned)
{
    const CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {12, 48, 5};
    GnnModel model(g, config);
    DenseMatrix features(g.numVertices(), 12);
    features.fillUniform(-1.0f, 1.0f, 11);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 5);

    for (const TechniqueConfig &tech :
         {TechniqueConfig::basic(), TechniqueConfig::combined()}) {
        SCOPED_TRACE(tech.label());
        TrainerConfig trainerConfig;
        trainerConfig.tech = tech;
        Trainer trainer(model, features, labels, trainerConfig);
        trainer.trainEpoch();
        model.inference(features, tech);

        const LayerContext &top = model.context(1);
        EXPECT_EQ(top.input, &model.context(0).output);
        EXPECT_EQ(top.agg.rows(), 0u);
        EXPECT_EQ(top.narrow.rows(), g.numVertices());
        EXPECT_EQ(top.narrow.cols(), 5u);
        // Layer 1 gathers no packed or bf16 copy of h^0.
        EXPECT_FALSE(model.context(0).hasCompressed);
        EXPECT_FALSE(model.context(0).hasBf16);

        const std::vector<const void *> before = model.workspacePointers();
        EXPECT_NE(std::find(before.begin(), before.end(),
                            static_cast<const void *>(top.narrow.data())),
                  before.end());
        for (int epoch = 0; epoch < 2; ++epoch) {
            trainer.trainEpoch();
            model.inference(features, tech);
        }
        EXPECT_EQ(before, model.workspacePointers());
    }
}

} // namespace
} // namespace graphite
