/**
 * @file
 * Tests of the aggregation kernels (paper Algorithm 1): the vectorised
 * kernel against the scalar reference across graph shapes, feature
 * widths and ψ specs; compressed-input aggregation against dense; and
 * the order-invariance property (a processing order permutes work, not
 * results).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "compress/compressed_matrix.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/reorder.h"
#include "kernels/aggregation.h"

namespace graphite {
namespace {

CsrGraph
graphFor(int kind)
{
    switch (kind) {
      case 0:
        return generateRing(50, 1);
      case 1:
        return generateErdosRenyi(300, 2500, false, 11);
      default: {
        RmatParams params;
        params.scale = 9;
        params.avgDegree = 10.0;
        return generateRmat(params);
      }
    }
}

AggregationSpec
specFor(const CsrGraph &g, int kind)
{
    switch (kind) {
      case 0:
        return sumSpec();
      case 1:
        return gcnSpec(g);
      default:
        return sageSpec(g);
    }
}

class AggregationMatrix
    : public testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(AggregationMatrix, VectorKernelMatchesReference)
{
    const auto [graphKind, specKind, width] = GetParam();
    CsrGraph g = graphFor(graphKind);
    DenseMatrix h(g.numVertices(), static_cast<std::size_t>(width));
    h.fillUniform(-1.0f, 1.0f, 21);
    AggregationSpec spec = specFor(g, specKind);

    DenseMatrix out(g.numVertices(), h.cols());
    DenseMatrix expected(g.numVertices(), h.cols());
    aggregateBasic(g, h, out, spec);
    aggregateReference(g, h, expected, spec);
    EXPECT_LT(out.maxAbsDiff(expected), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AggregationMatrix,
    testing::Combine(testing::Values(0, 1, 2),   // graph shape
                     testing::Values(0, 1, 2),   // spec: sum/gcn/sage
                     testing::Values(16, 100, 256, 300)));

TEST(Aggregation, ProcessingOrderDoesNotChangeResults)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 64);
    h.fillUniform(-1.0f, 1.0f, 22);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix identity(g.numVertices(), 64);
    DenseMatrix locality(g.numVertices(), 64);
    DenseMatrix random(g.numVertices(), 64);
    aggregateBasic(g, h, identity, spec);
    ProcessingOrder loc = localityOrder(g);
    aggregateBasic(g, h, locality, spec, loc);
    ProcessingOrder rnd = randomOrder(g, 33);
    aggregateBasic(g, h, random, spec, rnd);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(locality), 0.0);
    EXPECT_DOUBLE_EQ(identity.maxAbsDiff(random), 0.0);
}

TEST(Aggregation, PrefetchConfigDoesNotChangeResults)
{
    CsrGraph g = graphFor(1);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(-1.0f, 1.0f, 23);
    AggregationSpec spec = sageSpec(g);

    DenseMatrix base(g.numVertices(), 128);
    AggregationConfig noPrefetch;
    noPrefetch.prefetchDistance = 0;
    aggregateBasic(g, h, base, spec, {}, noPrefetch);

    DenseMatrix deep(g.numVertices(), 128);
    AggregationConfig deepPrefetch;
    deepPrefetch.prefetchDistance = 16;
    deepPrefetch.prefetchLines = 4;
    aggregateBasic(g, h, deep, spec, {}, deepPrefetch);
    EXPECT_DOUBLE_EQ(base.maxAbsDiff(deep), 0.0);
}

TEST(Aggregation, IsolatedVertexAggregatesOnlyItself)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1); // vertex 2 isolated
    CsrGraph g = builder.build();
    DenseMatrix h(3, 16);
    h.at(2, 3) = 5.0f;
    DenseMatrix out(3, 16);
    aggregateBasic(g, h, out, sumSpec());
    EXPECT_FLOAT_EQ(out.at(2, 3), 5.0f);
    for (std::size_t c = 0; c < 16; ++c) {
        if (c != 3) {
            EXPECT_FLOAT_EQ(out.at(2, c), 0.0f);
        }
    }
}

TEST(Aggregation, GcnSpecNormalisesByDegreeProducts)
{
    // Two vertices connected by one undirected edge. With the self
    // term, D' = 2 for both: self factor = 1/2, edge factor = 1/2.
    GraphBuilder builder(2);
    builder.addUndirectedEdge(0, 1);
    CsrGraph g = builder.build();
    AggregationSpec spec = gcnSpec(g);
    EXPECT_NEAR(spec.selfFactor(0), 0.5f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 0.5f, 1e-6);
}

TEST(Aggregation, SageSpecAveragesNeighborhood)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    CsrGraph g = builder.build();
    AggregationSpec spec = sageSpec(g);
    // Vertex 0 has degree 2: every term weighted 1/3.
    EXPECT_NEAR(spec.selfFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(0), 1.0f / 3.0f, 1e-6);
    EXPECT_NEAR(spec.edgeFactor(1), 1.0f / 3.0f, 1e-6);

    DenseMatrix h(3, 16);
    h.at(0, 0) = 3.0f;
    h.at(1, 0) = 6.0f;
    h.at(2, 0) = 9.0f;
    DenseMatrix out(3, 16);
    aggregateBasic(g, h, out, spec);
    EXPECT_NEAR(out.at(0, 0), (3.0f + 6.0f + 9.0f) / 3.0f, 1e-5);
}

class CompressedAggregation : public testing::TestWithParam<double>
{
};

TEST_P(CompressedAggregation, MatchesDenseAggregation)
{
    CsrGraph g = graphFor(2);
    DenseMatrix h(g.numVertices(), 128);
    h.fillUniform(0.0f, 2.0f, 24);
    h.sparsify(GetParam(), 25);
    CompressedMatrix packed(g.numVertices(), 128);
    packed.compressFrom(h);
    AggregationSpec spec = gcnSpec(g);

    DenseMatrix dense(g.numVertices(), 128);
    DenseMatrix fromPacked(g.numVertices(), 128);
    aggregateBasic(g, h, dense, spec);
    aggregateCompressed(g, packed, fromPacked, spec);
    EXPECT_LT(dense.maxAbsDiff(fromPacked), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CompressedAggregation,
                         testing::Values(0.0, 0.3, 0.5, 0.8, 0.95));

TEST(Aggregation, SingleVertexKernelMatchesRowOfFullKernel)
{
    CsrGraph g = graphFor(1);
    DenseMatrix h(g.numVertices(), 256);
    h.fillUniform(-1.0f, 1.0f, 26);
    AggregationSpec spec = sageSpec(g);
    DenseMatrix full(g.numVertices(), 256);
    aggregateBasic(g, h, full, spec);

    DenseMatrix single(1, 256);
    aggregateVertex(g, h, 17, spec, single.row(0));
    for (std::size_t c = 0; c < 256; ++c)
        EXPECT_NEAR(single.at(0, c), full.at(17, c), 1e-5);
}

TEST(Aggregation, TransposeOfSymmetricGraphAggregatesIdentically)
{
    // On an undirected (symmetric) graph, transposition is the
    // identity, so the unweighted aggregation over G and Gᵀ must agree
    // exactly — a structural sanity check for the backward pass.
    CsrGraph g = generateErdosRenyi(200, 1200, /*undirected=*/true, 27);
    CsrGraph t = g.transposed();
    DenseMatrix h(g.numVertices(), 32);
    h.fillUniform(0.0f, 1.0f, 27);

    DenseMatrix fwd(g.numVertices(), 32);
    DenseMatrix bwd(g.numVertices(), 32);
    aggregateBasic(g, h, fwd, sumSpec());
    aggregateBasic(t, h, bwd, sumSpec());
    EXPECT_DOUBLE_EQ(fwd.maxAbsDiff(bwd), 0.0);
}

TEST(Aggregation, ValidateSpecCatchesFactorLengthMismatch)
{
    CsrGraph g = generateRing(20, 1);
    // Empty factor arrays mean "all ones" and are always valid.
    EXPECT_EQ(validateSpec(sumSpec(), g), nullptr);
    EXPECT_EQ(validateSpec(gcnSpec(g), g), nullptr);

    // A spec built for one graph applied to another: the factor arrays
    // no longer match |E|/|V| and every kernel entry rejects it before
    // indexing past their ends.
    CsrGraph other = generateRing(24, 1);
    AggregationSpec stale = gcnSpec(g);
    EXPECT_NE(validateSpec(stale, other), nullptr);

    AggregationSpec truncated = gcnSpec(g);
    truncated.edgeFactors.pop_back();
    EXPECT_NE(validateSpec(truncated, g), nullptr);

    AggregationSpec shortSelf = gcnSpec(g);
    shortSelf.selfFactors.pop_back();
    EXPECT_NE(validateSpec(shortSelf, g), nullptr);
}

// ------------------------------------------------------------------
// Block-mean kernel (serving and mini-batch gathers)
// ------------------------------------------------------------------

/** Scalar oracle: self + neighbours in row order, scaled last. */
std::vector<Feature>
referenceMean(const DenseMatrix &in, std::size_t self,
              const std::vector<std::size_t> &rows)
{
    std::vector<Feature> out(in.row(self), in.row(self) + in.cols());
    for (const std::size_t r : rows)
        for (std::size_t c = 0; c < in.cols(); ++c)
            out[c] += in.row(r)[c];
    const Feature scale = 1.0f / (1.0f + static_cast<Feature>(rows.size()));
    for (Feature &value : out)
        value *= scale;
    return out;
}

class BlockMeanWidth : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BlockMeanWidth, BitwiseMatchesScalarSumThenScale)
{
    const std::size_t width = GetParam();
    DenseMatrix in(90, width);
    in.fillUniform(-1.0f, 1.0f, 17 + width);
    // Four destinations over seven local sources; row 2 is empty.
    const std::vector<EdgeId> rowPtr = {0, 3, 9, 9, 12};
    const std::vector<VertexId> colIdx = {4, 1, 6, 0, 5, 5,
                                          2, 3, 6, 6, 4, 0};
    const std::vector<VertexId> srcRows = {7, 81, 3, 40, 12, 66, 29};
    const std::size_t rowBase = 2;
    for (const bool mapped : {true, false}) {
        BlockView view{rowPtr, colIdx, {}, rowBase};
        if (mapped)
            view.srcRows = srcRows;
        const auto rowOf = [&](std::size_t j) {
            return rowBase + (mapped ? srcRows[j] : j);
        };
        for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
            std::vector<std::size_t> rows;
            for (EdgeId e = rowPtr[i]; e < rowPtr[i + 1]; ++e)
                rows.push_back(rowOf(colIdx[e]));
            const std::vector<Feature> expect =
                referenceMean(in, rowOf(i), rows);
            // A sentinel past the row proves exactly width floats land.
            std::vector<Feature> got(width + 1, 42.0f);
            blockMeanRow(view, in, i, got.data());
            EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                                  width * sizeof(Feature)),
                      0)
                << "width " << width << " dst " << i;
            EXPECT_EQ(got[width], 42.0f) << "wrote past the row";
        }
    }
}

// 8/100 take a masked zmm tail, 128/256 full zmm groups, 272 the
// portable fallback (wider than the zmm table).
INSTANTIATE_TEST_SUITE_P(Widths, BlockMeanWidth,
                         ::testing::Values(8, 100, 128, 256, 272));

TEST(BlockMean, FullMeanRowOverZeroDeltaOverlayMatchesBase)
{
    const CsrGraph base = generateBarabasiAlbert(200, 5, 23);
    DeltaCsr overlay(generateBarabasiAlbert(200, 5, 23), 16);
    DenseMatrix features(base.numVertices(), 100);
    features.fillUniform(-1.0f, 1.0f, 24);
    std::vector<Feature> a(features.cols());
    std::vector<Feature> b(features.cols());
    for (VertexId v = 0; v < base.numVertices(); ++v) {
        fullMeanRow(base, features, v, a.data());
        fullMeanRow(overlay, features, v, b.data());
        ASSERT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(Feature)),
                  0)
            << "vertex " << v;
    }
}

TEST(BlockMean, FullMeanRowFoldsDeltaChainAfterBaseRow)
{
    const CsrGraph base = generateBarabasiAlbert(64, 3, 25);
    DeltaCsr overlay(generateBarabasiAlbert(64, 3, 25), 64);
    std::vector<std::size_t> rows(base.neighbors(5).begin(),
                                  base.neighbors(5).end());
    // Twenty inserts span three delta segments.
    for (VertexId u = 63; rows.size() < base.degree(5) + 20; --u) {
        if (overlay.addEdge(5, u) == DeltaCsr::AddEdge::Added)
            rows.push_back(u);
    }
    DenseMatrix features(base.numVertices(), 40);
    features.fillUniform(-1.0f, 1.0f, 26);
    const std::vector<Feature> expect = referenceMean(features, 5, rows);
    std::vector<Feature> got(features.cols());
    fullMeanRow(overlay, features, 5, got.data());
    EXPECT_EQ(std::memcmp(got.data(), expect.data(),
                          got.size() * sizeof(Feature)),
              0);
}

} // namespace
} // namespace graphite
