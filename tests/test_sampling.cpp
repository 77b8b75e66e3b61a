/**
 * @file
 * Tests of neighborhood sampling and mini-batch construction (paper
 * Section 2.1, the Figure 2 workload).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {
namespace {

TEST(Sampler, FanoutBoundsSampledDegree)
{
    CsrGraph g = generateBarabasiAlbert(500, 6, 61);
    Rng rng(1);
    std::vector<VertexId> seeds = {0, 1, 2, 3, 4};
    MiniBatch batch = sampleMiniBatch(g, seeds, {5, 5}, rng);
    ASSERT_EQ(batch.blocks.size(), 2u);
    for (const SampledBlock &block : batch.blocks) {
        for (VertexId d = 0; d < block.block.numVertices(); ++d)
            EXPECT_LE(block.block.degree(d), 5u);
    }
}

TEST(Sampler, LowDegreeVerticesKeepAllNeighbors)
{
    CsrGraph g = generateRing(32); // degree 2 everywhere
    Rng rng(2);
    MiniBatch batch = sampleMiniBatch(g, {7}, {10}, rng);
    const SampledBlock &block = batch.blocks[0];
    ASSERT_EQ(block.dstVertices.size(), 1u);
    EXPECT_EQ(block.block.degree(0), 2u);
}

TEST(Sampler, OutermostDstsAreTheSeeds)
{
    CsrGraph g = generateErdosRenyi(200, 2000, false, 62);
    Rng rng(3);
    std::vector<VertexId> seeds = {10, 20, 30};
    MiniBatch batch = sampleMiniBatch(g, seeds, {4, 4, 4}, rng);
    EXPECT_EQ(batch.blocks.back().dstVertices, seeds);
}

TEST(Sampler, LayersChainSrcToDst)
{
    CsrGraph g = generateErdosRenyi(300, 4000, false, 63);
    Rng rng(4);
    MiniBatch batch = sampleMiniBatch(g, {1, 2}, {3, 3}, rng);
    // Inner layer's destination set == outer layer's source set.
    EXPECT_EQ(batch.blocks[0].dstVertices, batch.blocks[1].srcVertices);
}

TEST(Sampler, LocalIndicesAreConsistent)
{
    CsrGraph g = generateErdosRenyi(100, 1500, false, 64);
    Rng rng(5);
    MiniBatch batch = sampleMiniBatch(g, {5, 6, 7}, {4}, rng);
    const SampledBlock &block = batch.blocks[0];
    // The block CSR has one row per *source* so local ids address it
    // directly, but only the first |dst| rows may carry edges.
    ASSERT_EQ(block.block.numVertices(), block.srcVertices.size());
    for (VertexId v = block.dstVertices.size();
         v < block.block.numVertices(); ++v)
        EXPECT_TRUE(block.block.neighbors(v).empty());
    // Every sampled edge must point at a valid local source, and the
    // global edge (dst -> src) must exist in the original graph.
    for (VertexId d = 0; d < block.dstVertices.size(); ++d) {
        const VertexId globalDst = block.dstVertices[d];
        for (VertexId localSrc : block.block.neighbors(d)) {
            ASSERT_LT(localSrc, block.srcVertices.size());
            const VertexId globalSrc = block.srcVertices[localSrc];
            auto neighbors = g.neighbors(globalDst);
            EXPECT_TRUE(std::find(neighbors.begin(), neighbors.end(),
                                  globalSrc) != neighbors.end());
        }
    }
}

TEST(Sampler, SampledNeighborsAreDistinct)
{
    CsrGraph g = generateBarabasiAlbert(200, 8, 65);
    Rng rng(6);
    MiniBatch batch = sampleMiniBatch(g, {0}, {6}, rng);
    const SampledBlock &block = batch.blocks[0];
    std::set<VertexId> seen(block.block.neighbors(0).begin(),
                            block.block.neighbors(0).end());
    EXPECT_EQ(seen.size(), block.block.neighbors(0).size());
}

TEST(Sampler, GatherBatchFeaturesCopiesRows)
{
    CsrGraph g = generateRing(16);
    DenseMatrix features(16, 32);
    features.fillUniform(-1.0f, 1.0f, 66);
    std::vector<VertexId> vertices = {3, 9, 15};
    DenseMatrix gathered = gatherBatchFeatures(features, vertices);
    ASSERT_EQ(gathered.rows(), 3u);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
        for (std::size_t c = 0; c < 32; ++c)
            EXPECT_EQ(gathered.at(i, c), features.at(vertices[i], c));
    }
}

TEST(Sampler, EpochBatchesPartitionAllVertices)
{
    CsrGraph g = generateErdosRenyi(1000, 5000, false, 67);
    Rng rng(7);
    auto batches = makeEpochBatches(g, 128, rng);
    std::set<VertexId> seen;
    for (const auto &batch : batches) {
        EXPECT_LE(batch.size(), 128u);
        for (VertexId v : batch) {
            EXPECT_TRUE(seen.insert(v).second) << "duplicate " << v;
        }
    }
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Sampler, SamplingIsSeedDeterministic)
{
    CsrGraph g = generateBarabasiAlbert(300, 5, 68);
    Rng rngA(9);
    Rng rngB(9);
    MiniBatch a = sampleMiniBatch(g, {1, 2, 3}, {4, 4}, rngA);
    MiniBatch b = sampleMiniBatch(g, {1, 2, 3}, {4, 4}, rngB);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t k = 0; k < a.blocks.size(); ++k) {
        EXPECT_EQ(a.blocks[k].srcVertices, b.blocks[k].srcVertices);
    }
}

TEST(Sampler, RequestSeedReplayReproducesTrees)
{
    // The serving contract: a request's tree is a pure function of its
    // id — Rng(requestSeed(id)) replays the exact tree later, no matter
    // what the scratch sampled in between or which scratch is used.
    CsrGraph g = generateBarabasiAlbert(400, 6, 91);
    const std::vector<VertexId> fanouts = {4, 3};
    SamplerScratch live(g.numVertices());
    SamplerScratch replay(g.numVertices());
    for (std::uint64_t id = 0; id < 16; ++id) {
        const VertexId seed = static_cast<VertexId>((id * 29) % 400);
        Rng rngLive(requestSeed(id));
        SampledTree treeLive;
        sampleTree(g, seed, fanouts, rngLive, live, treeLive);
        // Pollute the live scratch with unrelated work.
        Rng rngNoise(requestSeed(id ^ 0xabcdef));
        SampledTree noise;
        sampleTree(g, 7, fanouts, rngNoise, live, noise);
        Rng rngReplay(requestSeed(id));
        SampledTree treeReplay;
        sampleTree(g, seed, fanouts, rngReplay, replay, treeReplay);
        ASSERT_EQ(treeLive.blocks.size(), treeReplay.blocks.size());
        for (std::size_t k = 0; k < treeLive.blocks.size(); ++k) {
            EXPECT_EQ(treeLive.blocks[k].rowPtr,
                      treeReplay.blocks[k].rowPtr);
            EXPECT_EQ(treeLive.blocks[k].colIdx,
                      treeReplay.blocks[k].colIdx);
            EXPECT_EQ(treeLive.blocks[k].dstVertices,
                      treeReplay.blocks[k].dstVertices);
            EXPECT_EQ(treeLive.blocks[k].srcVertices,
                      treeReplay.blocks[k].srcVertices);
        }
    }
}

TEST(Sampler, RequestSeedDecorrelatesAdjacentIds)
{
    // Adjacent request ids must not sample correlated trees: check the
    // seeds differ in many bit positions (splitmix64 avalanche).
    int differingBits = 0;
    const std::uint64_t diff = requestSeed(100) ^ requestSeed(101);
    for (int b = 0; b < 64; ++b)
        differingBits += static_cast<int>((diff >> b) & 1u);
    EXPECT_GE(differingBits, 16);
    EXPECT_EQ(requestSeed(100), requestSeed(100));
}

/** Vertex 0 points at vertices 1..leaves; the leaves have no edges. */
CsrGraph
starGraph(VertexId leaves)
{
    std::vector<EdgeId> rowPtr(leaves + 2, leaves);
    rowPtr[0] = 0;
    std::vector<VertexId> colIdx(leaves);
    for (VertexId u = 0; u < leaves; ++u)
        colIdx[u] = u + 1;
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

TEST(Sampler, TreeDrawsOncePerSampledNeighbor)
{
    // Sampling is O(fanout): a 10,000-neighbor hub costs ten draws.
    const CsrGraph g = starGraph(10000);
    const std::vector<VertexId> fanouts = {10};
    SamplerScratch scratch(g.numVertices());
    SampledTree tree;
    Rng rng(123);
    Rng expected(123);
    sampleTree(g, 0, fanouts, rng, scratch, tree);
    for (int i = 0; i < 10; ++i)
        expected.next();
    EXPECT_EQ(rng.next(), expected.next());
    EXPECT_EQ(tree.blocks[0].colIdx.size(), 10u);

    // A row no longer than the fanout is taken whole, drawing nothing.
    const CsrGraph small = starGraph(10);
    SamplerScratch smallScratch(small.numVertices());
    Rng untouched(7);
    sampleTree(small, 0, fanouts, untouched, smallScratch, tree);
    EXPECT_EQ(untouched.next(), Rng(7).next());
}

TEST(Sampler, TreePicksAreUniformAndDistinct)
{
    constexpr VertexId kDegree = 50;
    constexpr VertexId kFanout = 10;
    constexpr int kTrees = 20000;
    const CsrGraph g = starGraph(kDegree);
    const std::vector<VertexId> fanouts = {kFanout};
    SamplerScratch scratch(g.numVertices());
    SampledTree tree;
    Rng rng(2024);
    std::vector<int> picks(kDegree + 1, 0);
    for (int t = 0; t < kTrees; ++t) {
        sampleTree(g, 0, fanouts, rng, scratch, tree);
        const FlatBlock &block = tree.blocks[0];
        ASSERT_EQ(block.colIdx.size(), kFanout);
        std::set<VertexId> seen;
        for (const VertexId col : block.colIdx) {
            const VertexId u = block.srcVertices[col];
            ASSERT_TRUE(seen.insert(u).second) << "repeated pick " << u;
            ++picks[u];
        }
    }
    const double p = static_cast<double>(kFanout) / kDegree;
    const double mean = kTrees * p;
    const double sigma = std::sqrt(kTrees * p * (1.0 - p));
    for (VertexId u = 1; u <= kDegree; ++u)
        EXPECT_NEAR(picks[u], mean, 5.0 * sigma) << "neighbor " << u;
}

TEST(Sampler, OverlayDeltaPicksMatchConcatenatedCsr)
{
    // Vertex 0 has three base neighbors and thirty delta neighbors
    // inserted in descending order, so most drawn positions land in
    // the delta chain. A CSR listing the same row base-then-delta must
    // sample the identical tree.
    constexpr VertexId kN = 64;
    const std::vector<VertexId> baseRow = {1, 2, 3};
    std::vector<EdgeId> baseRowPtr(kN + 1, baseRow.size());
    baseRowPtr[0] = 0;
    DeltaCsr overlay(CsrGraph(baseRowPtr, baseRow), 64);
    std::vector<VertexId> fullRow = baseRow;
    for (VertexId u = kN - 1; u > kN - 31; --u) {
        ASSERT_EQ(overlay.addEdge(0, u), DeltaCsr::AddEdge::Added);
        fullRow.push_back(u);
    }
    std::vector<EdgeId> fullRowPtr(kN + 1, fullRow.size());
    fullRowPtr[0] = 0;
    const CsrGraph flat(fullRowPtr, fullRow);

    const std::vector<VertexId> fanouts = {8};
    SamplerScratch scratchA(kN);
    SamplerScratch scratchB(kN);
    SampledTree fromOverlay;
    SampledTree fromCsr;
    std::size_t deltaPicks = 0;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng rngA(seed);
        Rng rngB(seed);
        sampleTree(overlay, 0, fanouts, rngA, scratchA, fromOverlay);
        sampleTree(flat, 0, fanouts, rngB, scratchB, fromCsr);
        const FlatBlock &a = fromOverlay.blocks[0];
        const FlatBlock &b = fromCsr.blocks[0];
        EXPECT_EQ(a.rowPtr, b.rowPtr);
        EXPECT_EQ(a.colIdx, b.colIdx);
        EXPECT_EQ(a.srcVertices, b.srcVertices);
        for (const VertexId col : a.colIdx)
            deltaPicks += a.srcVertices[col] > 3 ? 1 : 0;
    }
    EXPECT_GT(deltaPicks, 0u) << "no draw reached the delta chain";
}

} // namespace
} // namespace graphite
