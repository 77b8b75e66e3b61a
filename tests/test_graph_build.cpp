/**
 * @file
 * Differential tests of graph construction: GraphBuilder::build,
 * CsrGraph::transposed, transposeSpec and the GCN/SAGE specs against
 * serial references, at several pool sizes, plus pinned checksums of
 * the dataset analogues and the synthetic task's labels.
 *
 * The parallel counting scatter promises the serial loop's output for
 * every pool size, so every comparison here is bitwise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gnn/gnn_layer.h"
#include "gnn/trainer.h"
#include "graph/counting_scatter.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "kernels/aggregation.h"
#include "parallel/thread_pool.h"

namespace graphite {
namespace {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/**
 * Reference builder: global sort, unique and self-loop removal, then a
 * serial cursor scatter into CSR.
 */
CsrGraph
referenceBuild(VertexId n, EdgeList edges)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const auto &e) {
                                   return e.first == e.second;
                               }),
                edges.end());
    std::vector<EdgeId> rowPtr(static_cast<std::size_t>(n) + 1, 0);
    for (const auto &[src, dst] : edges)
        ++rowPtr[src + 1];
    for (VertexId v = 0; v < n; ++v)
        rowPtr[v + 1] += rowPtr[v];
    std::vector<VertexId> colIdx(edges.size());
    std::vector<EdgeId> cursor(rowPtr.begin(), rowPtr.end() - 1);
    for (const auto &[src, dst] : edges)
        colIdx[cursor[src]++] = dst;
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

/** Reference transpose: serial in-degree count and cursor walk. */
CsrGraph
referenceTranspose(const CsrGraph &g)
{
    const VertexId n = g.numVertices();
    std::vector<EdgeId> rowPtr(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId u : g.colIdx())
        ++rowPtr[u + 1];
    for (VertexId v = 0; v < n; ++v)
        rowPtr[v + 1] += rowPtr[v];
    std::vector<VertexId> colIdx(g.numEdges());
    std::vector<EdgeId> cursor(rowPtr.begin(), rowPtr.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId u : g.neighbors(v))
            colIdx[cursor[u]++] = v;
    }
    return CsrGraph(std::move(rowPtr), std::move(colIdx));
}

/** Reference per-edge factor remap onto the transposed edge order. */
std::vector<Feature>
referenceTransposeFactors(const CsrGraph &g,
                          const std::vector<Feature> &factors)
{
    const VertexId n = g.numVertices();
    std::vector<EdgeId> cursor(static_cast<std::size_t>(n) + 1, 0);
    for (VertexId u : g.colIdx())
        ++cursor[u + 1];
    for (VertexId v = 0; v < n; ++v)
        cursor[v + 1] += cursor[v];
    std::vector<Feature> out(factors.size());
    for (VertexId v = 0; v < n; ++v) {
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
            out[cursor[g.colIdx()[e]]++] = factors[e];
    }
    return out;
}

/** Reference GCN factors, serial. */
AggregationSpec
referenceGcnSpec(const CsrGraph &g)
{
    const VertexId n = g.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(g.numEdges());
    std::vector<Feature> invSqrt(n);
    for (VertexId v = 0; v < n; ++v) {
        invSqrt[v] =
            1.0f / std::sqrt(static_cast<Feature>(g.degree(v) + 1));
    }
    for (VertexId v = 0; v < n; ++v) {
        spec.selfFactors[v] = invSqrt[v] * invSqrt[v];
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
            spec.edgeFactors[e] = invSqrt[v] * invSqrt[g.colIdx()[e]];
    }
    return spec;
}

/** Reference SAGE-mean factors, serial. */
AggregationSpec
referenceSageSpec(const CsrGraph &g)
{
    const VertexId n = g.numVertices();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(g.numEdges());
    for (VertexId v = 0; v < n; ++v) {
        const Feature mean =
            1.0f / static_cast<Feature>(g.degree(v) + 1);
        spec.selfFactors[v] = mean;
        for (EdgeId e = g.rowBegin(v); e < g.rowEnd(v); ++e)
            spec.edgeFactors[e] = mean;
    }
    return spec;
}

template <typename T>
bool
bitwiseEqual(std::span<const T> a, std::span<const T> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

template <typename T>
bool
bitwiseEqual(const std::vector<T> &a, const std::vector<T> &b)
{
    return bitwiseEqual(std::span<const T>(a), std::span<const T>(b));
}

::testing::AssertionResult
sameCsr(const CsrGraph &a, const CsrGraph &b)
{
    if (a.numVertices() != b.numVertices() || a.numEdges() != b.numEdges())
        return ::testing::AssertionFailure()
               << "shape " << a.numVertices() << "x" << a.numEdges()
               << " vs " << b.numVertices() << "x" << b.numEdges();
    if (!bitwiseEqual(a.rowPtr(), b.rowPtr()))
        return ::testing::AssertionFailure() << "rowPtr differs";
    if (!bitwiseEqual(a.colIdx(), b.colIdx()))
        return ::testing::AssertionFailure() << "colIdx differs";
    return ::testing::AssertionSuccess();
}

/** Fowler–Noll–Vo 1a over the bytes of @p data, chained from @p h. */
template <typename T>
std::uint64_t
fnv1a(std::span<const T> data, std::uint64_t h = 1469598103934665603ull)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(data.data());
    for (std::size_t i = 0; i < data.size_bytes(); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
csrChecksum(const CsrGraph &g)
{
    return fnv1a(g.colIdx(), fnv1a(g.rowPtr()));
}

/**
 * Tests that resize the global pool: poolSizes() lists 1-4 threads plus
 * the starting size (GRAPHITE_THREADS, when set), which is restored
 * afterwards.
 */
class PoolSizeSweep : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        restore_ = ThreadPool::global().numThreads();
        sizes_ = {1, 2, 3, 4};
        if (restore_ > 4)
            sizes_.push_back(restore_);
    }

    void TearDown() override { ThreadPool::setGlobalThreads(restore_); }

    const std::vector<std::size_t> &poolSizes() const { return sizes_; }

  private:
    std::size_t restore_ = 1;
    std::vector<std::size_t> sizes_;
};

/**
 * A random directed edge list over @p n vertices exercising every row
 * shape the builder meets: duplicate pairs, self-loops, rows left empty
 * (the top eighth of the ids only ever appear as targets), and one hub
 * row holding @p hubEdges pairs, spread through the list so it spans
 * scatter blocks.
 */
EdgeList
randomEdges(VertexId n, std::size_t numEdges, std::size_t hubEdges,
            std::uint64_t seed)
{
    Rng rng(seed);
    const VertexId sources = n - n / 8;
    const VertexId hub = sources / 3;
    EdgeList edges;
    edges.reserve(numEdges + hubEdges);
    const std::size_t total = numEdges + hubEdges;
    for (std::size_t i = 0; i < total; ++i) {
        const bool toHub = hubEdges != 0 && i % (total / hubEdges) == 0;
        auto src = toHub ? hub
                         : static_cast<VertexId>(rng.uniformInt(sources));
        auto dst = static_cast<VertexId>(rng.uniformInt(n));
        if (rng.uniformInt(16) == 0)
            dst = src; // self-loop
        edges.emplace_back(src, dst);
        if (rng.uniformInt(8) == 0)
            edges.emplace_back(src, dst); // exact duplicate
    }
    return edges;
}

CsrGraph
buildWith(VertexId n, const EdgeList &edges, bool undirected)
{
    GraphBuilder builder(n);
    for (const auto &[src, dst] : edges) {
        if (undirected)
            builder.addUndirectedEdge(src, dst);
        else
            builder.addEdge(src, dst);
    }
    return builder.build();
}

EdgeList
bothDirections(const EdgeList &edges)
{
    EdgeList out;
    out.reserve(edges.size() * 2);
    for (const auto &[u, v] : edges) {
        out.emplace_back(u, v);
        out.emplace_back(v, u);
    }
    return out;
}

/** Every construction path against its serial reference. */
void
checkAgainstReferences(VertexId n, const EdgeList &edges, bool undirected)
{
    const CsrGraph expected =
        referenceBuild(n, undirected ? bothDirections(edges) : edges);
    const CsrGraph graph = buildWith(n, edges, undirected);
    ASSERT_TRUE(sameCsr(graph, expected));

    const CsrGraph transposed = graph.transposed();
    ASSERT_TRUE(sameCsr(transposed, referenceTranspose(graph)));

    const AggregationSpec gcn = gcnSpec(graph);
    const AggregationSpec gcnRef = referenceGcnSpec(graph);
    EXPECT_TRUE(bitwiseEqual(gcn.edgeFactors, gcnRef.edgeFactors));
    EXPECT_TRUE(bitwiseEqual(gcn.selfFactors, gcnRef.selfFactors));

    const AggregationSpec sage = sageSpec(graph);
    const AggregationSpec sageRef = referenceSageSpec(graph);
    EXPECT_TRUE(bitwiseEqual(sage.edgeFactors, sageRef.edgeFactors));
    EXPECT_TRUE(bitwiseEqual(sage.selfFactors, sageRef.selfFactors));

    const AggregationSpec tGcn = transposeSpec(graph, gcn, transposed);
    EXPECT_TRUE(bitwiseEqual(
        tGcn.edgeFactors,
        referenceTransposeFactors(graph, gcnRef.edgeFactors)));
    EXPECT_TRUE(bitwiseEqual(tGcn.selfFactors, gcnRef.selfFactors));
}

TEST_F(PoolSizeSweep, LargeDirectedListMatchesSerialReferences)
{
    // About 340K pairs over 5000 vertices: above the serial cutoff, with
    // enough pairs per key for four blocks, and a hub row (over 100K
    // pairs) longer than any one block.
    const EdgeList edges = randomEdges(5000, 200000, 100000, 11);
    for (std::size_t threads : poolSizes()) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        checkAgainstReferences(5000, edges, /*undirected=*/false);
    }
}

TEST_F(PoolSizeSweep, LargeUndirectedListMatchesSerialReferences)
{
    const EdgeList edges = randomEdges(3000, 80000, 20000, 12);
    for (std::size_t threads : poolSizes()) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        checkAgainstReferences(3000, edges, /*undirected=*/true);
    }
}

TEST_F(PoolSizeSweep, MoreVerticesThanPairsMatchesSerialReferences)
{
    // Counters would outweigh the items: the scatter stays one block.
    const EdgeList edges = randomEdges(300000, 70000, 0, 13);
    for (std::size_t threads : poolSizes()) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        checkAgainstReferences(300000, edges, /*undirected=*/false);
    }
}

TEST_F(PoolSizeSweep, SmallAndDegenerateGraphsMatchSerialReferences)
{
    const std::vector<std::pair<VertexId, EdgeList>> cases = {
        {0, {}},
        {1, {}},
        {1, {{0, 0}, {0, 0}}},
        {2, {}},
        {2, {{0, 1}, {0, 1}, {1, 1}, {1, 0}}},
        {2, {{1, 0}, {1, 0}, {1, 0}}},
        {64, randomEdges(64, 500, 40, 14)},
    };
    for (std::size_t threads : poolSizes()) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        for (const auto &[n, edges] : cases) {
            SCOPED_TRACE(n);
            checkAgainstReferences(n, edges, /*undirected=*/false);
            checkAgainstReferences(n, edges, /*undirected=*/true);
        }
    }
}

TEST_F(PoolSizeSweep, SmallGraphsNeverEnterThePool)
{
    // Below the serial cutoff every construction pass runs on the
    // calling thread. A pass that entered the global pool from inside a
    // pool job would trip the nested-runOnAll assertion.
    ThreadPool::setGlobalThreads(4);
    const EdgeList edges = randomEdges(2000, 20000, 1000, 15);
    parallelFor(0, 4, 1, [&](std::size_t, std::size_t, std::size_t) {
        const CsrGraph graph = buildWith(2000, edges, true);
        const CsrGraph transposed = graph.transposed();
        const AggregationSpec spec = gcnSpec(graph);
        const AggregationSpec tSpec = transposeSpec(graph, spec, transposed);
        EXPECT_EQ(tSpec.edgeFactors.size(), graph.numEdges());
        EXPECT_EQ(sageSpec(graph).edgeFactors.size(), graph.numEdges());
    });
}

TEST_F(PoolSizeSweep, SyntheticLabelsIndependentOfPoolSize)
{
    const CsrGraph graph =
        buildWith(20000, randomEdges(20000, 300000, 5000, 16), true);
    ThreadPool::setGlobalThreads(1);
    const std::vector<std::int32_t> serial =
        makeSyntheticTask(graph, 8, 16, 0.4, 3).labels;
    for (std::size_t threads : poolSizes()) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(makeSyntheticTask(graph, 8, 16, 0.4, 3).labels, serial);
    }
}

TEST(CountingScatter, KeepsItemOrderWithinEachKey)
{
    // Keys cycle through 7 buckets; values are the item indices, so a
    // bucket must read back ascending.
    const std::size_t numItems = (std::size_t{1} << 19) + 3;
    std::vector<std::uint32_t> out(numItems);
    const std::vector<EdgeId> offsets = countingScatter(
        numItems, 7,
        [](std::size_t begin, std::size_t end, const auto &sink) {
            for (std::size_t i = begin; i < end; ++i)
                sink((i * i) % 7, static_cast<std::uint32_t>(i));
        },
        out.data());
    ASSERT_EQ(offsets.size(), 8u);
    EXPECT_EQ(offsets.back(), numItems);
    for (std::size_t k = 0; k < 7; ++k) {
        for (EdgeId p = offsets[k]; p < offsets[k + 1]; ++p) {
            EXPECT_EQ((std::size_t{out[p]} * out[p]) % 7, k);
            if (p > offsets[k]) {
                ASSERT_LT(out[p - 1], out[p]);
            }
        }
    }
}

/** Checksums of the analogues and their task labels, pool-size free. */
struct PinnedDataset
{
    DatasetId id;
    unsigned scaleShift;
    std::uint64_t csr;
    /** Labels of makeSyntheticTask(graph, 8, 64, 0.4, 11); 0 = unpinned. */
    std::uint64_t labels;
};

constexpr PinnedDataset kPinned[] = {
    {DatasetId::Products, 0, 0x04f9dd2991921492ull, 0},
    {DatasetId::Products, 1, 0x63b4d7ca138ce5afull, 0xa75886d6298caec2ull},
    {DatasetId::Wikipedia, 0, 0x17b1ec329e61b743ull, 0},
    {DatasetId::Wikipedia, 1, 0x2d08b624451ac918ull, 0xa059bca66ef8b7b3ull},
    {DatasetId::Papers, 0, 0xa2273e5f7426a369ull, 0},
    {DatasetId::Papers, 1, 0xb8a285759200a4a9ull, 0x3ded5445f0b6e8b5ull},
    {DatasetId::Twitter, 0, 0xcc3dd9d2e3cf3072ull, 0},
    {DatasetId::Twitter, 1, 0x1cb7949aebf32e48ull, 0x6aa7554a0122ed77ull},
};

void
PrintTo(const PinnedDataset &pin, std::ostream *os)
{
    *os << datasetSpec(pin.id).name << " shift " << pin.scaleShift;
}

class GraphBuildChecksums : public ::testing::TestWithParam<PinnedDataset>
{
};

TEST_P(GraphBuildChecksums, DatasetAndLabelsMatchPinnedValues)
{
    const PinnedDataset &pin = GetParam();
    const Dataset dataset = makeDataset(pin.id, pin.scaleShift);
    EXPECT_EQ(csrChecksum(dataset.graph), pin.csr);
    if (pin.labels != 0) {
        const SyntheticTask task =
            makeSyntheticTask(dataset.graph, 8, 64, 0.4, 11);
        EXPECT_EQ(fnv1a(std::span<const std::int32_t>(task.labels)),
                  pin.labels);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Analogues, GraphBuildChecksums, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<PinnedDataset> &info) {
        return datasetSpec(info.param.id).name + "_shift" +
               std::to_string(info.param.scaleShift);
    });

} // namespace
} // namespace graphite
