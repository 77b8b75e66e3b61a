/**
 * @file
 * Delta-CSR overlay tests (DESIGN.md §14): addEdge outcomes and the
 * simple-graph invariant, the lock-free read protocol (RowView,
 * forEachDeltaNeighbor) against concurrent writers, compact()'s
 * bitwise equivalence with a from-scratch GraphBuilder build of the
 * same edge set, pool-budget exhaustion and recovery, incremental
 * graph-stats maintenance, the staleness-bounded locality-order cache,
 * sampler parity over a zero-delta overlay, and allocation-free
 * steady-state inserts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_guard.h"
#include "common/rng.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/reorder.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {
namespace {

CsrGraph
smallGraph()
{
    // 0 -> {1, 2}; 1 -> {2}; 2 -> {}; 3 -> {0}.
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    builder.addEdge(1, 2);
    builder.addEdge(3, 0);
    return builder.build();
}

/** All (src, dst) pairs of @p graph. */
std::vector<std::pair<VertexId, VertexId>>
edgeList(const CsrGraph &graph)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < graph.numVertices(); ++v)
        for (const VertexId u : graph.neighbors(v))
            edges.emplace_back(v, u);
    return edges;
}

TEST(DeltaCsr, AddEdgeOutcomes)
{
    DeltaCsr overlay(smallGraph(), 16);
    EXPECT_EQ(overlay.addEdge(2, 2), DeltaCsr::AddEdge::SelfLoop);
    EXPECT_EQ(overlay.addEdge(0, 1), DeltaCsr::AddEdge::Duplicate)
        << "base edge must be rejected";
    EXPECT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Duplicate)
        << "delta edge must be rejected";
    EXPECT_EQ(overlay.deltaEdges(), 1u);
    EXPECT_EQ(overlay.numEdges(), smallGraph().numEdges() + 1);
    EXPECT_EQ(overlay.degree(2), 1u);
    EXPECT_EQ(overlay.baseDegree(2), 0u);
    EXPECT_EQ(overlay.deltaDegree(2), 1u);
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, RowViewUnionsBaseAndDeltaInOrder)
{
    DeltaCsr overlay(smallGraph(), 64);
    // Push vertex 0 across multiple segments (kSegmentEdges = 8).
    std::vector<VertexId> inserted;
    DeltaCsr big(generateErdosRenyi(64, 0, false, 1), 64);
    for (VertexId u = 1; u <= 20; ++u) {
        ASSERT_EQ(big.addEdge(0, u), DeltaCsr::AddEdge::Added);
        inserted.push_back(u);
    }
    const DeltaCsr::RowView view = big.neighborsView(0);
    ASSERT_EQ(view.size(), inserted.size());
    // Sequential walk (cursor fast path), then random access.
    for (std::size_t i = 0; i < view.size(); ++i)
        EXPECT_EQ(view[i], inserted[i]);
    EXPECT_EQ(view[19], inserted[19]);
    EXPECT_EQ(view[3], inserted[3]);
    EXPECT_EQ(view[12], inserted[12]);

    // A view with base edges prefixes the base row.
    ASSERT_EQ(overlay.addEdge(0, 3), DeltaCsr::AddEdge::Added);
    const DeltaCsr::RowView mixed = overlay.neighborsView(0);
    ASSERT_EQ(mixed.size(), 3u);
    EXPECT_EQ(mixed[0], 1u);
    EXPECT_EQ(mixed[1], 2u);
    EXPECT_EQ(mixed[2], 3u);
}

TEST(DeltaCsr, ViewSnapshotsPublishedCount)
{
    DeltaCsr overlay(smallGraph(), 16);
    ASSERT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    const DeltaCsr::RowView before = overlay.neighborsView(2);
    ASSERT_EQ(overlay.addEdge(2, 1), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(before.size(), 1u)
        << "a snapshot view must not see later inserts";
    EXPECT_EQ(overlay.neighborsView(2).size(), 2u);
}

TEST(DeltaCsr, PoolFullThenCompactMakesRoom)
{
    DeltaCsr overlay(smallGraph(), 2);
    ASSERT_EQ(overlay.addEdge(2, 0), DeltaCsr::AddEdge::Added);
    ASSERT_EQ(overlay.addEdge(2, 1), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.addEdge(2, 3), DeltaCsr::AddEdge::PoolFull);
    overlay.compact();
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    EXPECT_EQ(overlay.baseDegree(2), 2u) << "compact absorbed the deltas";
    EXPECT_EQ(overlay.addEdge(2, 3), DeltaCsr::AddEdge::Added);
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, CompactedMatchesFromScratchBuild)
{
    const CsrGraph base = generateBarabasiAlbert(300, 4, 5);
    DeltaCsr overlay(generateBarabasiAlbert(300, 4, 5), 2000);
    GraphBuilder builder(300);
    for (const auto &[src, dst] : edgeList(base))
        builder.addEdge(src, dst);

    Rng rng(99);
    EdgeId added = 0;
    while (added < 1000) {
        const auto src = static_cast<VertexId>(rng.next() % 300);
        const auto dst = static_cast<VertexId>(rng.next() % 300);
        if (overlay.addEdge(src, dst) == DeltaCsr::AddEdge::Added) {
            builder.addEdge(src, dst);
            ++added;
        }
    }
    ASSERT_EQ(overlay.validate(), nullptr);

    const CsrGraph compacted = overlay.compacted();
    const CsrGraph fresh = builder.build();
    ASSERT_EQ(compacted.numVertices(), fresh.numVertices());
    ASSERT_EQ(compacted.numEdges(), fresh.numEdges());
    EXPECT_EQ(0, std::memcmp(compacted.rowPtr().data(),
                             fresh.rowPtr().data(),
                             fresh.rowPtr().size() * sizeof(EdgeId)));
    EXPECT_EQ(0, std::memcmp(compacted.colIdx().data(),
                             fresh.colIdx().data(),
                             fresh.colIdx().size() * sizeof(VertexId)));

    // In-place compact agrees with the pure form and resets the delta.
    overlay.compact();
    EXPECT_EQ(overlay.deltaEdges(), 0u);
    EXPECT_EQ(0, std::memcmp(overlay.base().colIdx().data(),
                             fresh.colIdx().data(),
                             fresh.colIdx().size() * sizeof(VertexId)));
}

TEST(DeltaCsr, ConcurrentReadersSeePublishedPrefix)
{
    DeltaCsr overlay(generateErdosRenyi(256, 0, false, 3), 4096);
    std::atomic<bool> stop{false};
    std::atomic<bool> failed{false};
    std::thread reader([&overlay, &stop, &failed] {
        while (!stop.load(std::memory_order_acquire)) {
            for (VertexId v = 0; v < 8; ++v) {
                // Every published neighbor of v must be v + something
                // the writer actually inserted (dst = v + k + 1).
                EdgeId count = 0;
                overlay.forEachDeltaNeighbor(v, [&](VertexId u) {
                    if (u <= v || u > v + 200)
                        failed.store(true, std::memory_order_relaxed);
                    ++count;
                });
                // The chain walk published `count` edges at its start;
                // the count can only have grown since.
                if (count > overlay.deltaDegree(v))
                    failed.store(true, std::memory_order_relaxed);
            }
        }
    });
    for (VertexId k = 0; k < 200; ++k)
        for (VertexId v = 0; v < 8; ++v)
            ASSERT_EQ(overlay.addEdge(v, v + k + 1),
                      DeltaCsr::AddEdge::Added);
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(overlay.validate(), nullptr);
}

TEST(DeltaCsr, SteadyStateInsertsAreAllocFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    DeltaCsr overlay(generateErdosRenyi(128, 0, false, 4), 4096);
    ScopedAllocGuard guard("delta-csr inserts");
    for (VertexId k = 0; k < 30; ++k)
        for (VertexId v = 0; v < 64; ++v)
            ASSERT_EQ(overlay.addEdge(v, 64 + (v + k) % 64),
                      DeltaCsr::AddEdge::Added);
    EXPECT_EQ(guard.allocations(), 0u)
        << "addEdge must not touch the heap after construction";
}

// ------------------------------------------------------------------
// IncrementalGraphStats
// ------------------------------------------------------------------

TEST(IncrementalGraphStats, MatchesRecomputeAfterEveryInsert)
{
    DeltaCsr overlay(generateBarabasiAlbert(120, 3, 7), 512);
    IncrementalGraphStats inc(computeGraphStats(overlay));
    Rng rng(13);
    for (int i = 0; i < 200;) {
        const auto src = static_cast<VertexId>(rng.next() % 120);
        const auto dst = static_cast<VertexId>(rng.next() % 120);
        if (overlay.addEdge(src, dst) != DeltaCsr::AddEdge::Added)
            continue;
        inc.onEdgeInserted(overlay.degree(src));
        ++i;
        if (i % 25 != 0)
            continue;
        const GraphStats expect = computeGraphStats(overlay);
        const GraphStats got = inc.current();
        EXPECT_EQ(got.numVertices, expect.numVertices);
        EXPECT_EQ(got.numEdges, expect.numEdges);
        EXPECT_EQ(got.maxDegree, expect.maxDegree);
        EXPECT_NEAR(got.avgDegree, expect.avgDegree, 1e-9);
        EXPECT_NEAR(got.degreeVariance, expect.degreeVariance, 1e-6);
    }
}

// ------------------------------------------------------------------
// Sampler parity
// ------------------------------------------------------------------

TEST(OverlaySampling, ZeroDeltaOverlaySamplesBitwiseLikeBase)
{
    const CsrGraph base = generateBarabasiAlbert(300, 5, 31);
    DeltaCsr overlay(generateBarabasiAlbert(300, 5, 31), 64);
    const std::vector<VertexId> fanouts = {4, 4};
    SamplerScratch scratchA(base.numVertices());
    SamplerScratch scratchB(base.numVertices());
    SampledTree treeA;
    SampledTree treeB;
    for (std::uint64_t id = 0; id < 25; ++id) {
        const auto seed = static_cast<VertexId>((id * 11) % 300);
        Rng rngA(id * 77 + 1);
        Rng rngB(id * 77 + 1);
        sampleTree(base, seed, fanouts, rngA, scratchA, treeA);
        sampleTree(overlay, seed, fanouts, rngB, scratchB, treeB);
        ASSERT_EQ(treeA.blocks.size(), treeB.blocks.size());
        for (std::size_t k = 0; k < treeA.blocks.size(); ++k) {
            EXPECT_EQ(treeA.blocks[k].rowPtr, treeB.blocks[k].rowPtr);
            EXPECT_EQ(treeA.blocks[k].colIdx, treeB.blocks[k].colIdx);
            EXPECT_EQ(treeA.blocks[k].dstVertices,
                      treeB.blocks[k].dstVertices);
            EXPECT_EQ(treeA.blocks[k].srcVertices,
                      treeB.blocks[k].srcVertices);
        }
    }
}

TEST(OverlaySampling, DeltaEdgesParticipateInSampling)
{
    // A vertex whose neighbors are all delta edges still samples a
    // full tree over them.
    DeltaCsr overlay(generateErdosRenyi(64, 0, false, 8), 64);
    for (VertexId u = 1; u <= 12; ++u)
        ASSERT_EQ(overlay.addEdge(0, u), DeltaCsr::AddEdge::Added);
    const std::vector<VertexId> fanouts = {4};
    SamplerScratch scratch(overlay.numVertices());
    SampledTree tree;
    Rng rng(5);
    sampleTree(overlay, 0, fanouts, rng, scratch, tree);
    ASSERT_EQ(tree.blocks.size(), 1u);
    const FlatBlock &block = tree.blocks[0];
    ASSERT_EQ(block.dstVertices.size(), 1u);
    EXPECT_EQ(block.rowPtr[1] - block.rowPtr[0], 4u)
        << "fanout-limited sample over a pure-delta row";
    for (const VertexId col : block.colIdx) {
        const VertexId u = block.srcVertices[col];
        EXPECT_GE(u, 1u);
        EXPECT_LE(u, 12u);
    }
}

} // namespace
} // namespace graphite
