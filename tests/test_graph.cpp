/**
 * @file
 * Unit tests for the graph substrate: CSR structure, builder semantics,
 * transposition, generators, statistics and edge-list I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "graph/binary_io.h"
#include "graph/csr_graph.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"

namespace graphite {
namespace {

CsrGraph
smallGraph()
{
    // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(0, 2);
    builder.addEdge(1, 2);
    builder.addEdge(3, 0);
    return builder.build();
}

TEST(CsrGraph, BasicAccessors)
{
    CsrGraph g = smallGraph();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(2), 0u);
    auto n0 = g.neighbors(0);
    ASSERT_EQ(n0.size(), 2u);
    EXPECT_EQ(n0[0], 1u);
    EXPECT_EQ(n0[1], 2u);
}

TEST(CsrGraph, RowsSortedAfterBuild)
{
    EXPECT_TRUE(smallGraph().rowsSorted());
}

TEST(CsrGraph, TransposeReversesEdges)
{
    CsrGraph g = smallGraph();
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), g.numVertices());
    EXPECT_EQ(t.numEdges(), g.numEdges());
    // 2 has in-edges from 0 and 1.
    auto n2 = t.neighbors(2);
    std::set<VertexId> in2(n2.begin(), n2.end());
    EXPECT_EQ(in2, (std::set<VertexId>{0, 1}));
    // Double transpose is the identity.
    CsrGraph tt = t.transposed();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto a = g.neighbors(v);
        auto b = tt.neighbors(v);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
}

TEST(GraphBuilder, DeduplicatesAndStripsSelfLoops)
{
    GraphBuilder builder(3);
    builder.addEdge(0, 1);
    builder.addEdge(0, 1); // duplicate
    builder.addEdge(1, 1); // self loop
    builder.addEdge(2, 0);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 0u);
}

TEST(GraphBuilder, UndirectedAddsBothDirections)
{
    GraphBuilder builder(3);
    builder.addUndirectedEdge(0, 2);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(g.neighbors(0)[0], 2u);
    EXPECT_EQ(g.neighbors(2)[0], 0u);
}

TEST(Generators, RmatProducesRequestedScale)
{
    RmatParams params;
    params.scale = 10;
    params.avgDegree = 8.0;
    CsrGraph g = generateRmat(params);
    EXPECT_EQ(g.numVertices(), 1024u);
    // Dedup removes some edges; expect at least half the target.
    EXPECT_GT(g.numEdges(), 1024u * 4);
    EXPECT_LE(g.numEdges(), 1024u * 8);
}

TEST(Generators, RmatIsDeterministicPerSeed)
{
    RmatParams params;
    params.scale = 8;
    params.avgDegree = 4.0;
    params.seed = 42;
    CsrGraph a = generateRmat(params);
    CsrGraph b = generateRmat(params);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_TRUE(std::equal(a.colIdx().begin(), a.colIdx().end(),
                           b.colIdx().begin()));
}

TEST(Generators, RmatSkewExceedsErdosRenyi)
{
    RmatParams params;
    params.scale = 12;
    params.avgDegree = 16.0;
    params.a = 0.6;
    GraphStats rmat = computeGraphStats(generateRmat(params));
    GraphStats er = computeGraphStats(
        generateErdosRenyi(1 << 12, 16ull << 12));
    // Power-law generator should have far higher degree variance.
    EXPECT_GT(rmat.degreeVariance, 4.0 * er.degreeVariance);
}

TEST(Generators, ErdosRenyiDegreesConcentrate)
{
    CsrGraph g = generateErdosRenyi(2000, 20000);
    GraphStats stats = computeGraphStats(g);
    EXPECT_NEAR(stats.avgDegree, 10.0, 1.0);
    EXPECT_LT(stats.maxDegree, 40u);
}

TEST(Generators, BarabasiAlbertConnectedAndSkewed)
{
    CsrGraph g = generateBarabasiAlbert(1000, 3);
    GraphStats stats = computeGraphStats(g);
    EXPECT_EQ(stats.numVertices, 1000u);
    EXPECT_GE(stats.avgDegree, 3.0);
    // Preferential attachment produces hubs.
    EXPECT_GT(stats.maxDegree, 30u);
    // Every vertex attached to something.
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_GT(g.degree(v), 0u);
}

TEST(Generators, RingHasUniformDegree)
{
    CsrGraph g = generateRing(64);
    for (VertexId v = 0; v < 64; ++v)
        EXPECT_EQ(g.degree(v), 2u);
}

TEST(GraphStats, MatchesHandComputedValues)
{
    CsrGraph g = smallGraph();
    GraphStats stats = computeGraphStats(g);
    EXPECT_EQ(stats.numVertices, 4u);
    EXPECT_EQ(stats.numEdges, 4u);
    EXPECT_DOUBLE_EQ(stats.avgDegree, 1.0);
    EXPECT_EQ(stats.maxDegree, 2u);
    // degrees: 2,1,0,1 -> var = (4+1+0+1)/4 - 1 = 0.5
    EXPECT_DOUBLE_EQ(stats.degreeVariance, 0.5);
}

TEST(EdgeListIo, RoundTripPreservesGraph)
{
    CsrGraph g = generateErdosRenyi(100, 500, false, 3);
    const std::string path = testing::TempDir() + "graphite_io_test.el";
    saveEdgeList(g, path);
    CsrGraph loaded = loadEdgeList(path, g.numVertices());
    ASSERT_EQ(loaded.numVertices(), g.numVertices());
    ASSERT_EQ(loaded.numEdges(), g.numEdges());
    EXPECT_TRUE(std::equal(g.colIdx().begin(), g.colIdx().end(),
                           loaded.colIdx().begin()));
    std::remove(path.c_str());
}

TEST(BinaryIo, CsrRoundTripPreservesGraph)
{
    CsrGraph g = generateRmat({.scale = 10, .avgDegree = 8.0});
    const std::string path = testing::TempDir() + "graphite_io_test.gcsr";
    saveCsr(g, path);
    EXPECT_TRUE(isCsrFile(path));
    CsrGraph loaded = loadCsr(path);
    ASSERT_EQ(loaded.numVertices(), g.numVertices());
    ASSERT_EQ(loaded.numEdges(), g.numEdges());
    EXPECT_TRUE(std::equal(g.rowPtr().begin(), g.rowPtr().end(),
                           loaded.rowPtr().begin()));
    EXPECT_TRUE(std::equal(g.colIdx().begin(), g.colIdx().end(),
                           loaded.colIdx().begin()));
    std::remove(path.c_str());
}

TEST(BinaryIo, RejectsForeignFiles)
{
    const std::string path = testing::TempDir() + "not_a_csr.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not CSR", f);
    std::fclose(f);
    EXPECT_FALSE(isCsrFile(path));
    std::remove(path.c_str());
}

/**
 * A CSR file whose header claims @p numVertices and @p numEdges,
 * followed by @p payloadBytes zero bytes; returns its path.
 */
std::string
writeCsrHeader(const char *name, std::uint64_t numVertices,
               std::uint64_t numEdges, std::size_t payloadBytes)
{
    const std::string path = testing::TempDir() + name;
    FILE *f = std::fopen(path.c_str(), "wb");
    const std::uint32_t version = 1;
    std::fwrite("GCSR", 1, 4, f);
    std::fwrite(&version, sizeof(version), 1, f);
    std::fwrite(&numVertices, sizeof(numVertices), 1, f);
    std::fwrite(&numEdges, sizeof(numEdges), 1, f);
    const std::vector<char> zeros(payloadBytes, 0);
    std::fwrite(zeros.data(), 1, zeros.size(), f);
    std::fclose(f);
    return path;
}

TEST(BinaryIoDeathTest, RejectsEdgeCountBeyondFileSize)
{
    // 61 bytes in all: a 24-byte header, then 37 bytes claiming 2^40
    // edges — without the check this allocates 4 TiB and throws.
    const std::string path =
        writeCsrHeader("csr_huge_edges.gcsr", 2, std::uint64_t{1} << 40, 37);
    EXPECT_EXIT(loadCsr(path), ::testing::ExitedWithCode(1),
                "1099511627776 edges exceed the 13 bytes");
    std::remove(path.c_str());
}

TEST(BinaryIoDeathTest, RejectsRowOffsetsBeyondFileSize)
{
    const std::string path =
        writeCsrHeader("csr_huge_rows.gcsr", 1000, 0, 64);
    EXPECT_EXIT(loadCsr(path), ::testing::ExitedWithCode(1),
                "1001 row offsets exceed the 64 bytes");
    std::remove(path.c_str());
}

TEST(BinaryIoDeathTest, RejectsVertexCountThatWraps)
{
    // |V| + 1 wraps to 0: without the check this loads an empty graph.
    const std::string path = writeCsrHeader(
        "csr_wrap.gcsr", std::numeric_limits<std::uint64_t>::max(), 0, 8);
    EXPECT_EXIT(loadCsr(path), ::testing::ExitedWithCode(1),
                "overflows \\|V\\| \\+ 1");
    std::remove(path.c_str());
}

TEST(BinaryIoDeathTest, RejectsVertexCountBeyondVertexIdRange)
{
    const std::string path = writeCsrHeader(
        "csr_wide_ids.gcsr",
        std::uint64_t{std::numeric_limits<VertexId>::max()} + 1, 0, 8);
    EXPECT_EXIT(loadCsr(path), ::testing::ExitedWithCode(1),
                "exceeds the vertex id range");
    std::remove(path.c_str());
}

/** An edge-list file holding @p contents; returns its path. */
std::string
writeEdgeList(const char *name, const char *contents)
{
    const std::string path = testing::TempDir() + name;
    FILE *f = std::fopen(path.c_str(), "w");
    std::fputs(contents, f);
    std::fclose(f);
    return path;
}

TEST(EdgeListDeathTest, RejectsIdBeyondVertexIdRange)
{
    // 2^32 would truncate to vertex 0 and load as edge 0 -> 2.
    const std::string path =
        writeEdgeList("el_wide.el", "0 1\n4294967296 2\n");
    EXPECT_EXIT(loadEdgeList(path), ::testing::ExitedWithCode(1),
                "vertex id '4294967296' at .*el_wide.el:2 exceeds the "
                "vertex id range");
    std::remove(path.c_str());
}

TEST(EdgeListDeathTest, RejectsSignedId)
{
    const std::string path =
        writeEdgeList("el_signed.el", "# comment\n-1 2\n");
    EXPECT_EXIT(loadEdgeList(path), ::testing::ExitedWithCode(1),
                "malformed edge at .*el_signed.el:2");
    std::remove(path.c_str());
}

TEST(EdgeListDeathTest, RejectsIdWhoseVertexCountWraps)
{
    // Id 2^32 - 1 fits a VertexId, but |V| = id + 1 does not.
    const std::string path =
        writeEdgeList("el_wrap.el", "1 0\n2 4294967295\n");
    EXPECT_EXIT(loadEdgeList(path), ::testing::ExitedWithCode(1),
                "vertex id '4294967295' at .*el_wrap.el:2 exceeds the "
                "vertex id range");
    std::remove(path.c_str());
}

TEST(EdgeListDeathTest, RejectsIdNotBelowGivenVertexCount)
{
    const std::string path =
        writeEdgeList("el_count.el", "0 1\n1 2\n3 1\n");
    EXPECT_EXIT(loadEdgeList(path, /*numVertices=*/3),
                ::testing::ExitedWithCode(1),
                "vertex id 3 at .*el_count.el:3 is out of range for 3 "
                "vertices");
    std::remove(path.c_str());
}

TEST(Datasets, AllFourAnaloguesGenerate)
{
    for (DatasetId id : allDatasets()) {
        Dataset dataset = makeDataset(id, /*scaleShift=*/6);
        const DatasetSpec spec = datasetSpec(id);
        EXPECT_EQ(dataset.name, spec.name);
        EXPECT_EQ(dataset.graph.numVertices(),
                  VertexId{1} << (spec.scaleLog2 - 6));
        EXPECT_EQ(dataset.inputFeatures, spec.inputFeatures);
        GraphStats stats = computeGraphStats(dataset.graph);
        // Average degree within a factor of ~2 of spec after dedup.
        EXPECT_GT(stats.avgDegree, spec.avgDegree * 0.4);
        EXPECT_LT(stats.avgDegree, spec.avgDegree * 2.0);
    }
}

TEST(Datasets, ParseNamesRoundTrip)
{
    for (DatasetId id : allDatasets())
        EXPECT_EQ(parseDatasetName(datasetSpec(id).name), id);
}

TEST(CsrGraphValidate, AcceptsWellFormedArrays)
{
    CsrGraph g = smallGraph();
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_EQ(CsrGraph::validate(g.rowPtr(), g.colIdx()), nullptr);
    // The empty graph is valid in both representations: default
    // (both arrays empty) and explicit ({0}, {}).
    EXPECT_EQ(CsrGraph().validate(), nullptr);
    const std::vector<EdgeId> rowPtr = {0};
    EXPECT_EQ(CsrGraph::validate(rowPtr, {}), nullptr);
}

TEST(CsrGraphValidate, RejectsCorruptedRowPtr)
{
    CsrGraph g = smallGraph();
    // Start offset shifted: rowPtr no longer begins at 0.
    std::vector<EdgeId> rowPtr(g.rowPtr().begin(), g.rowPtr().end());
    std::vector<VertexId> colIdx(g.colIdx().begin(), g.colIdx().end());
    rowPtr.front() = 1;
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // Truncated tail: rowPtr.back() disagrees with |E|.
    rowPtr.assign(g.rowPtr().begin(), g.rowPtr().end());
    rowPtr.back() = colIdx.size() + 1;
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // A bit flip that makes an interior offset run backwards.
    rowPtr.assign(g.rowPtr().begin(), g.rowPtr().end());
    std::swap(rowPtr[1], rowPtr[2]);
    ASSERT_GT(rowPtr[1], rowPtr[2]); // swap actually de-sorted it
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);

    // Missing the |V|+1 sentinel entirely.
    EXPECT_NE(CsrGraph::validate({}, colIdx), nullptr);
}

TEST(CsrGraphValidate, RejectsOutOfRangeNeighbor)
{
    CsrGraph g = smallGraph();
    std::vector<EdgeId> rowPtr(g.rowPtr().begin(), g.rowPtr().end());
    std::vector<VertexId> colIdx(g.colIdx().begin(), g.colIdx().end());
    colIdx[1] = g.numVertices(); // first id past the valid range
    EXPECT_NE(CsrGraph::validate(rowPtr, colIdx), nullptr);
}

TEST(CsrGraph, EmptyGraphTransposesToEmpty)
{
    CsrGraph g;
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), 0u);
    EXPECT_EQ(t.numEdges(), 0u);
    EXPECT_EQ(t.validate(), nullptr);
}

TEST(CsrGraph, IsolatedVerticesSurviveTranspose)
{
    // 5 vertices, edges only between 1 and 3; 0, 2, 4 are isolated.
    GraphBuilder builder(5);
    builder.addEdge(1, 3);
    CsrGraph g = builder.build();
    EXPECT_EQ(g.degree(0), 0u);
    EXPECT_EQ(g.degree(2), 0u);
    EXPECT_EQ(g.degree(4), 0u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.numVertices(), 5u);
    EXPECT_EQ(t.degree(3), 1u);
    EXPECT_EQ(t.neighbors(3)[0], 1u);
    EXPECT_EQ(t.degree(0), 0u);
    EXPECT_EQ(t.degree(4), 0u);
    EXPECT_EQ(t.validate(), nullptr);
}

TEST(CsrGraph, SelfLoopsAreTheirOwnTranspose)
{
    // GraphBuilder strips self loops, so build the CSR directly:
    // 0 -> {0, 1}, 1 -> {1}, 2 -> {}.
    CsrGraph g({0, 2, 3, 3}, {0, 1, 1});
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    // Self loops stay in place; 0 -> 1 reverses.
    EXPECT_EQ(t.degree(0), 1u);
    EXPECT_EQ(t.neighbors(0)[0], 0u);
    EXPECT_EQ(t.degree(1), 2u);
    CsrGraph tt = t.transposed();
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        auto a = g.neighbors(v);
        auto b = tt.neighbors(v);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
}

TEST(CsrGraph, DuplicateEdgesKeptInDirectConstruction)
{
    // A multigraph row: 0 -> {1, 1, 1}. degree() is EdgeId-typed so
    // duplicate-heavy rows cannot truncate.
    CsrGraph g({0, 3, 3}, {1, 1, 1});
    EXPECT_EQ(g.validate(), nullptr);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_TRUE(g.rowsSorted());
    CsrGraph t = g.transposed();
    EXPECT_EQ(t.degree(1), 3u);
    auto n1 = t.neighbors(1);
    for (VertexId u : n1)
        EXPECT_EQ(u, 0u);
}

TEST(CsrGraph, UnsortedRowDetected)
{
    CsrGraph g({0, 2, 2}, {1, 0});
    EXPECT_EQ(g.validate(), nullptr); // valid CSR, just unsorted
    EXPECT_FALSE(g.rowsSorted());
}

} // namespace
} // namespace graphite
