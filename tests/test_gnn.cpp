/**
 * @file
 * Tests of the GNN layer/model: transposed-spec correctness, numerical
 * gradient checks of the full backward pass, technique-equivalence of
 * the forward pass, and training convergence.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "gnn/gnn_model.h"
#include "gnn/trainer.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "tensor/row_ops.h"

namespace graphite {
namespace {

/** Write one weight through the layer's invalidating mutator. */
void
setWeight(GnnLayer &layer, std::size_t r, std::size_t c, Feature value)
{
    layer.editParameters([&](DenseMatrix &w, std::vector<Feature> &) {
        w.at(r, c) = value;
    });
}

CsrGraph
testGraph()
{
    return generateErdosRenyi(60, 400, false, 41);
}

TEST(TransposeSpec, FactorsFollowEdgesAcrossTransposition)
{
    CsrGraph g = testGraph();
    CsrGraph t = g.transposed();
    AggregationSpec spec = gcnSpec(g);
    AggregationSpec tSpec = transposeSpec(g, spec, t);

    // For every original edge v->u with factor f, the transposed graph
    // must contain edge u->v carrying the same factor.
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e) {
            const VertexId u = g.colIdx()[e];
            bool found = false;
            for (EdgeId te = t.rowBegin(u); te < t.rowEnd(u); ++te) {
                if (t.colIdx()[te] == v &&
                    std::abs(tSpec.edgeFactors[te] -
                             spec.edgeFactors[e]) < 1e-7f) {
                    found = true;
                    break;
                }
            }
            EXPECT_TRUE(found) << "edge " << v << "->" << u;
        }
    }
}

TEST(TransposeSpec, TransposedAggregationIsAdjointOfForward)
{
    // <Agg(x), y> == <x, Aggᵀ(y)> for all x, y — the defining property
    // the backward pass relies on.
    CsrGraph g = testGraph();
    CsrGraph t = g.transposed();
    AggregationSpec spec = gcnSpec(g);
    AggregationSpec tSpec = transposeSpec(g, spec, t);

    DenseMatrix x(g.numVertices(), 8);
    DenseMatrix y(g.numVertices(), 8);
    x.fillUniform(-1.0f, 1.0f, 42);
    y.fillUniform(-1.0f, 1.0f, 43);

    DenseMatrix ax(g.numVertices(), 8);
    DenseMatrix aty(g.numVertices(), 8);
    aggregateBasic(g, x, ax, spec);
    aggregateBasic(t, y, aty, tSpec);

    double lhs = 0.0;
    double rhs = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (std::size_t c = 0; c < 8; ++c) {
            lhs += double{ax.at(v, c)} * y.at(v, c);
            rhs += double{x.at(v, c)} * aty.at(v, c);
        }
    }
    EXPECT_NEAR(lhs, rhs, std::abs(lhs) * 1e-4 + 1e-4);
}

/**
 * Numerical gradient check of a one-layer GCN with softmax loss:
 * perturb a weight, re-run forward, compare the loss delta with the
 * analytic gradient.
 */
TEST(GnnLayer, WeightGradientMatchesFiniteDifference)
{
    CsrGraph g = generateErdosRenyi(20, 100, false, 44);
    GnnModelConfig config;
    config.kind = GnnKind::Gcn;
    config.featureWidths = {6, 4};
    config.dropoutRate = 0.0; // determinism for the check
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 6);
    features.fillUniform(-1.0f, 1.0f, 45);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 4);

    TechniqueConfig tech;
    auto lossOf = [&]() {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        return softmaxCrossEntropy(logits, labels, grad);
    };

    // Analytic gradients.
    const DenseMatrix &logits = model.trainForward(features, tech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    softmaxCrossEntropy(logits, labels, lossGrad);
    model.trainBackward(lossGrad, tech);
    const DenseMatrix &analytic = model.layer(0).weightGrad();

    // Finite differences on a few weights.
    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
            const Feature orig = model.layer(0).weights().at(r, c);
            setWeight(model.layer(0), r, c, orig + eps);
            const double lossPlus = lossOf();
            setWeight(model.layer(0), r, c, orig - eps);
            const double lossMinus = lossOf();
            setWeight(model.layer(0), r, c, orig);
            const double numeric = (lossPlus - lossMinus) / (2.0 * eps);
            EXPECT_NEAR(analytic.at(r, c), numeric,
                        5e-3 * std::max(1.0, std::abs(numeric)))
                << "weight (" << r << "," << c << ")";
        }
    }
}

TEST(GnnLayer, TwoLayerGradientMatchesFiniteDifference)
{
    CsrGraph g = generateErdosRenyi(16, 64, false, 46);
    GnnModelConfig config;
    config.kind = GnnKind::Sage;
    config.featureWidths = {5, 8, 3};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);

    DenseMatrix features(g.numVertices(), 5);
    features.fillUniform(-1.0f, 1.0f, 47);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 3);

    TechniqueConfig tech;
    auto lossOf = [&]() {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        return softmaxCrossEntropy(logits, labels, grad);
    };

    const DenseMatrix &logits = model.trainForward(features, tech);
    DenseMatrix lossGrad(logits.rows(), logits.cols());
    softmaxCrossEntropy(logits, labels, lossGrad);
    model.trainBackward(lossGrad, tech);
    // Check a first-layer weight — its gradient flows through the
    // ReLU, the second aggregation and the transposed aggregation.
    const DenseMatrix analytic = model.layer(0).weightGrad();

    const float eps = 1e-3f;
    for (std::size_t r = 0; r < 2; ++r) {
        const Feature orig = model.layer(0).weights().at(r, 1);
        setWeight(model.layer(0), r, 1, orig + eps);
        const double lossPlus = lossOf();
        setWeight(model.layer(0), r, 1, orig - eps);
        const double lossMinus = lossOf();
        setWeight(model.layer(0), r, 1, orig);
        const double numeric = (lossPlus - lossMinus) / (2.0 * eps);
        EXPECT_NEAR(analytic.at(r, 1), numeric,
                    1e-2 * std::max(1.0, std::abs(numeric)));
    }
}

TEST(GnnModel, AllTechniquePathsProduceSameLogits)
{
    CsrGraph g = testGraph();
    GnnModelConfig config;
    config.featureWidths = {32, 48, 5};
    config.dropoutRate = 0.0;
    GnnModel model(g, config);
    DenseMatrix features(g.numVertices(), 32);
    features.fillUniform(-1.0f, 1.0f, 48);
    features.sparsify(0.5, 49); // give compression real zeros

    const DenseMatrix base =
        model.inference(features, TechniqueConfig::basic());
    for (const TechniqueConfig &tech :
         {TechniqueConfig::withFusion(), TechniqueConfig::withCompression(),
          TechniqueConfig::combined(),
          TechniqueConfig::combinedLocality()}) {
        const DenseMatrix out = model.inference(features, tech);
        EXPECT_LT(base.maxAbsDiff(out), 1e-3)
            << "technique " << tech.label();
    }
}

TEST(GnnModel, SageAndGcnDiffer)
{
    CsrGraph g = testGraph();
    GnnModelConfig gcn;
    gcn.kind = GnnKind::Gcn;
    gcn.featureWidths = {16, 4};
    GnnModelConfig sage = gcn;
    sage.kind = GnnKind::Sage;
    GnnModel a(g, gcn);
    GnnModel b(g, sage);
    DenseMatrix features(g.numVertices(), 16);
    features.fillUniform(0.1f, 1.0f, 50);
    const DenseMatrix outA = a.inference(features,
                                         TechniqueConfig::basic());
    const DenseMatrix outB = b.inference(features,
                                         TechniqueConfig::basic());
    EXPECT_GT(outA.maxAbsDiff(outB), 1e-4);
}

TEST(GnnModel, DeepNetworksTrainEndToEnd)
{
    // The paper motivates full-batch CPUs with "wider and deeper"
    // networks: a 4-layer stack must forward/backward cleanly with all
    // techniques enabled.
    CsrGraph g = generateBarabasiAlbert(200, 4, 57);
    GnnModelConfig config;
    config.featureWidths = {16, 32, 32, 32, 4};
    config.dropoutRate = 0.2;
    GnnModel model(g, config);
    EXPECT_EQ(model.numLayers(), 4u);
    DenseMatrix features(g.numVertices(), 16);
    features.fillUniform(-1.0f, 1.0f, 58);
    std::vector<std::int32_t> labels(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        labels[v] = static_cast<std::int32_t>(v % 4);

    const TechniqueConfig tech = TechniqueConfig::combinedLocality();
    double first = 0.0;
    double last = 0.0;
    for (int epoch = 0; epoch < 8; ++epoch) {
        const DenseMatrix &logits = model.trainForward(features, tech);
        DenseMatrix grad(logits.rows(), logits.cols());
        const double loss = softmaxCrossEntropy(logits, labels, grad);
        if (epoch == 0)
            first = loss;
        last = loss;
        model.trainBackward(grad, tech);
        model.sgdStep(0.2f);
    }
    EXPECT_LT(last, first);
}

TEST(Trainer, LossDecreasesOnLearnableTask)
{
    CsrGraph g = generateBarabasiAlbert(300, 4, 51);
    SyntheticTask task = makeSyntheticTask(g, 4, 16, 0.2, 52);
    GnnModelConfig config;
    config.featureWidths = {16, 32, 4};
    config.dropoutRate = 0.1;
    GnnModel model(g, config);
    TrainerConfig tc;
    tc.epochs = 15;
    tc.learningRate = 0.3f;
    Trainer trainer(model, task.features, task.labels, tc);
    auto history = trainer.train();
    ASSERT_EQ(history.size(), 15u);
    EXPECT_LT(history.back().loss, history.front().loss * 0.8);
    EXPECT_GT(trainer.evaluate(), 0.5);
}

TEST(Trainer, CheckNumericsDetectsPoisonedWeights)
{
    CsrGraph g = generateBarabasiAlbert(120, 3, 61);
    SyntheticTask task = makeSyntheticTask(g, 4, 8, 0.2, 62);
    GnnModelConfig config;
    config.featureWidths = {8, 16, 4};

    // Clean run first: the sweep must not fire on healthy training.
    {
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.checkNumerics = true;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_NO_THROW(trainer.trainEpoch());
    }

    // Poison one weight: the NaN propagates through the update-phase
    // GEMM into the logits, where the post-forward sweep catches it
    // before the epoch's stats are reported as if nothing happened.
    {
        GnnModel model(g, config);
        setWeight(model.layer(0), 0, 0,
                  std::numeric_limits<float>::quiet_NaN());
        TrainerConfig tc;
        tc.checkNumerics = true;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_THROW(trainer.trainEpoch(), std::runtime_error);
    }

    // Off by default: the poisoned run completes (garbage loss, no
    // throw), which is exactly why the opt-in sweep exists.
    {
        GnnModel model(g, config);
        setWeight(model.layer(0), 0, 0,
                  std::numeric_limits<float>::quiet_NaN());
        TrainerConfig tc;
        Trainer trainer(model, task.features, task.labels, tc);
        EXPECT_NO_THROW(trainer.trainEpoch());
    }
}

TEST(Trainer, TechniquesDoNotChangeTrainingTrajectory)
{
    // Training with all techniques must follow the same loss trajectory
    // as the basic path (same math, same seeds) — with dropout on too:
    // masks depend only on (seed, epoch, layer), and the packed rows the
    // next layer gathers must hold the post-dropout activations.
    CsrGraph g = generateErdosRenyi(100, 700, false, 53);
    SyntheticTask task = makeSyntheticTask(g, 3, 8, 0.1, 54);

    auto runLosses = [&](const TechniqueConfig &tech, double dropout) {
        GnnModelConfig config;
        config.featureWidths = {8, 16, 3};
        config.dropoutRate = dropout;
        config.seed = 99;
        GnnModel model(g, config);
        TrainerConfig tc;
        tc.epochs = 5;
        tc.tech = tech;
        Trainer trainer(model, task.features, task.labels, tc);
        std::vector<double> losses;
        for (const auto &epoch : trainer.train())
            losses.push_back(epoch.loss);
        return losses;
    };

    for (const double dropout : {0.0, 0.5}) {
        const auto base = runLosses(TechniqueConfig::basic(), dropout);
        const auto combined =
            runLosses(TechniqueConfig::combinedLocality(), dropout);
        ASSERT_EQ(base.size(), combined.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_NEAR(base[i], combined[i],
                        std::abs(base[i]) * 5e-3 + 5e-4)
                << "dropout " << dropout << ", epoch " << i;
    }
}

TEST(SyntheticTask, LabelsCorrelateWithStructure)
{
    CsrGraph g = generateBarabasiAlbert(400, 3, 55);
    SyntheticTask task = makeSyntheticTask(g, 4, 8, 0.1, 56);
    // After label propagation, neighbors should agree more often than
    // the 25% random baseline.
    std::size_t agree = 0;
    std::size_t total = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        for (VertexId u : g.neighbors(v)) {
            agree += task.labels[v] == task.labels[u];
            ++total;
        }
    }
    EXPECT_GT(static_cast<double>(agree) / total, 0.4);
}

} // namespace
} // namespace graphite
