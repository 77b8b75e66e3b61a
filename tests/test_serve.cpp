/**
 * @file
 * Serving-layer tests: MPSC request queue semantics (ordering, batch
 * cap, latency budget, close), hot-vertex cache residency/eviction,
 * the determinism contract (served embeddings bitwise-match an offline
 * serveOne replay of the same request id when the cache is off, and
 * stay within a bounded deviation with the cache on), the cache's
 * gather-traffic reduction, and the allocation-free steady-state
 * serving loop (fp32 and bf16) under ScopedAllocGuard.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "common/alloc_guard.h"
#include "common/rng.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/trainer.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "serve/hot_vertex_cache.h"
#include "serve/load_gen.h"
#include "serve/request_queue.h"
#include "serve/server.h"

namespace graphite {
namespace {

using serve::HotVertexCache;
using serve::InferenceRequest;
using serve::InferenceServer;
using serve::RequestQueue;
using serve::ServeConfig;

CsrGraph
testGraph()
{
    return generateBarabasiAlbert(800, 6, 42);
}

/** Two-layer SAGE-style stack over @p featureWidth inputs. */
struct TestModel
{
    explicit TestModel(std::size_t featureWidth)
        : hidden(featureWidth, 24, true), output(24, 8, false)
    {
        hidden.initWeights(11);
        output.initWeights(12);
    }

    std::vector<GnnLayer *> layers() { return {&hidden, &output}; }

    GnnLayer hidden;
    GnnLayer output;
};

InferenceRequest
makeRequest(std::uint64_t id, VertexId vertex)
{
    InferenceRequest req;
    req.id = id;
    req.vertex = vertex;
    req.enqueueNs = serve::monotonicNanos();
    return req;
}

// ------------------------------------------------------------------
// RequestQueue
// ------------------------------------------------------------------

TEST(RequestQueue, PopBatchPreservesFifoOrder)
{
    RequestQueue queue(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i, static_cast<VertexId>(i))));
    std::vector<InferenceRequest> batch(8);
    const std::size_t n = queue.popBatch(batch.data(), 8, 0);
    ASSERT_EQ(n, 5u);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(batch[i].id, i);
}

TEST(RequestQueue, PopBatchHonorsMaxBatch)
{
    RequestQueue queue(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(queue.push(makeRequest(i, 0)));
    std::vector<InferenceRequest> batch(4);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 4u);
    EXPECT_EQ(queue.size(), 6u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 4u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 2u);
}

TEST(RequestQueue, PushFailsWhenFullOrClosed)
{
    RequestQueue queue(2);
    EXPECT_TRUE(queue.push(makeRequest(0, 0)));
    EXPECT_TRUE(queue.push(makeRequest(1, 0)));
    EXPECT_FALSE(queue.push(makeRequest(2, 0))); // full: shed, not block
    queue.close();
    EXPECT_FALSE(queue.push(makeRequest(3, 0)));
    std::vector<InferenceRequest> batch(4);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 2u);
    EXPECT_EQ(queue.popBatch(batch.data(), 4, 0), 0u); // closed+drained
}

TEST(RequestQueue, BudgetCoalescesLateArrivals)
{
    RequestQueue queue(16);
    ASSERT_TRUE(queue.push(makeRequest(0, 0)));
    std::thread producer([&queue] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        queue.push(makeRequest(1, 0));
    });
    std::vector<InferenceRequest> batch(4);
    // 200ms budget: the second request lands well inside it, so one
    // batch carries both.
    const std::size_t n =
        queue.popBatch(batch.data(), 4, 200'000'000);
    producer.join();
    EXPECT_EQ(n, 2u);
}

TEST(RequestQueue, ManyProducersOneConsumerLosesNothing)
{
    constexpr std::size_t kProducers = 4;
    constexpr std::uint64_t kPerProducer = 500;
    RequestQueue queue(64);
    std::atomic<std::uint64_t> accepted{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&queue, &accepted, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                if (queue.push(makeRequest(p * kPerProducer + i, 0)))
                    accepted.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::uint64_t consumed = 0;
    std::thread consumer([&queue, &consumed] {
        std::vector<InferenceRequest> batch(32);
        for (;;) {
            const std::size_t n =
                queue.popBatch(batch.data(), 32, 100'000);
            if (n == 0)
                return;
            consumed += n;
        }
    });
    for (auto &t : producers)
        t.join();
    queue.close();
    consumer.join();
    EXPECT_EQ(consumed, accepted.load());
    EXPECT_GT(consumed, 0u);
}

// ------------------------------------------------------------------
// HotVertexCache
// ------------------------------------------------------------------

TEST(HotVertexCache, PutLookupRoundtrip)
{
    HotVertexCache cache(8, 2, 4, 10);
    EXPECT_TRUE(cache.enabled());
    EXPECT_TRUE(cache.admits(10));
    EXPECT_FALSE(cache.admits(9));
    const Feature row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Feature out[4] = {};
    EXPECT_FALSE(cache.lookup(7, out));
    cache.put(7, row);
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row, out, sizeof(row)));
    // Overwrite in place.
    const Feature row2[4] = {9.0f, 8.0f, 7.0f, 6.0f};
    cache.put(7, row2);
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row2, out, sizeof(row2)));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.puts, 2u);
}

TEST(HotVertexCache, ZeroCapacityDisables)
{
    HotVertexCache cache(0, 4, 4, 0);
    EXPECT_FALSE(cache.enabled());
    const Feature row[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Feature out[4] = {};
    cache.put(3, row);
    EXPECT_FALSE(cache.lookup(3, out));
}

TEST(HotVertexCache, ChurnFreeThresholdBoundsAdmissibleSet)
{
    const CsrGraph graph = testGraph();
    const std::size_t capacity = 64;
    const EdgeId threshold =
        serve::churnFreeDegreeThreshold(graph, capacity);
    EXPECT_GT(threshold, 0u);
    // Rank-pivot guarantees: at most capacity/2 vertices sit strictly
    // above the pivot degree (so the hot set fits with headroom), and
    // at least capacity/2 meet it (so the cache is not starved).
    std::size_t above = 0;
    std::size_t admissible = 0;
    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        above += graph.degree(v) > threshold ? 1 : 0;
        admissible += graph.degree(v) >= threshold ? 1 : 0;
    }
    EXPECT_LE(above, capacity / 2);
    EXPECT_GE(admissible, capacity / 2);
    EXPECT_EQ(serve::churnFreeDegreeThreshold(graph, 0), 0u);
}

TEST(HotVertexCache, ClockSecondChanceKeepsReferencedRow)
{
    // One shard, three slots; traced CLOCK-hand sequence where the ref
    // bit is decisive. Fill slots 0..2 with vertices 1..3 (all
    // referenced, hand at 0).
    HotVertexCache cache(3, 1, 1, 0);
    Feature row[1];
    Feature out[1];
    for (VertexId v = 1; v <= 3; ++v) {
        row[0] = static_cast<Feature>(v);
        cache.put(v, row);
    }
    // A full shard forces a sweep: all three bits are stripped, the
    // hand wraps to slot 0 and evicts vertex 1; vertex 4 takes its
    // slot (referenced), hand rests on slot 1.
    row[0] = 4.0f;
    cache.put(4, row);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookup(1, out));
    // Re-reference vertex 2 (slot 1, where the hand points). The next
    // eviction must spend that bit and pass over to vertex 3 — the
    // second chance in action: without the lookup, vertex 2 would be
    // the victim.
    ASSERT_TRUE(cache.lookup(2, out));
    row[0] = 5.0f;
    cache.put(5, row);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_TRUE(cache.lookup(2, out));
    EXPECT_FALSE(cache.lookup(3, out));
    ASSERT_TRUE(cache.lookup(5, out));
    EXPECT_EQ(out[0], 5.0f);
    EXPECT_TRUE(cache.lookup(4, out));
}

TEST(HotVertexCache, ChurnKeepsIndexConsistent)
{
    // Far more distinct vertices than slots: every put past capacity
    // evicts (tombstoning the index), which forces the in-place rehash
    // repeatedly. The resident set must stay exactly capacity-sized
    // and every hit must return the row that was put.
    HotVertexCache cache(16, 4, 2, 0);
    Feature row[2];
    Feature out[2];
    for (int round = 0; round < 50; ++round) {
        for (VertexId v = 0; v < 64; ++v) {
            row[0] = static_cast<Feature>(v);
            row[1] = static_cast<Feature>(round);
            cache.put(v, row);
            ASSERT_TRUE(cache.lookup(v, out));
            EXPECT_EQ(out[0], static_cast<Feature>(v));
            EXPECT_EQ(out[1], static_cast<Feature>(round));
        }
    }
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(HotVertexCache, ConcurrentMixedTrafficStaysCoherent)
{
    HotVertexCache cache(64, 8, 4, 0);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &failed, t] {
            Feature row[4];
            Feature out[4];
            for (int i = 0; i < 2000; ++i) {
                const auto v = static_cast<VertexId>((t * 31 + i) % 96);
                row[0] = row[1] = row[2] = row[3] =
                    static_cast<Feature>(v);
                cache.put(v, row);
                if (cache.lookup(v, out) &&
                    out[0] != static_cast<Feature>(v))
                    failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    // A concurrent put may legitimately replace the row between this
    // thread's put and lookup — but only with that vertex's own value.
    EXPECT_FALSE(failed.load());
}

// ------------------------------------------------------------------
// Sampling determinism (per-request seeding)
// ------------------------------------------------------------------

TEST(ServeSampling, RequestSeedIsDeterministicAndDispersed)
{
    EXPECT_EQ(requestSeed(42), requestSeed(42));
    EXPECT_NE(requestSeed(42), requestSeed(43));
    EXPECT_NE(requestSeed(0), requestSeed(1));
}

TEST(ServeSampling, SampleTreeReplaysBitIdentically)
{
    const CsrGraph graph = testGraph();
    const std::vector<VertexId> fanouts = {4, 4};
    SamplerScratch scratchA(graph.numVertices());
    SamplerScratch scratchB(graph.numVertices());
    SampledTree treeA;
    SampledTree treeB;
    // Replay after unrelated interleaved use of the same scratch.
    for (std::uint64_t id = 0; id < 20; ++id) {
        Rng rngA(requestSeed(id));
        sampleTree(graph, static_cast<VertexId>(id * 7 % 800), fanouts,
                   rngA, scratchA, treeA);
        Rng rngOther(requestSeed(id + 1000));
        SampledTree scratchTree;
        sampleTree(graph, 3, fanouts, rngOther, scratchB, scratchTree);
        Rng rngB(requestSeed(id));
        sampleTree(graph, static_cast<VertexId>(id * 7 % 800), fanouts,
                   rngB, scratchB, treeB);
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

TEST(ServeSampling, BlocksKeepDstPrefixInvariant)
{
    const CsrGraph graph = testGraph();
    const std::vector<VertexId> fanouts = {3, 5};
    SamplerScratch scratch(graph.numVertices());
    SampledTree tree;
    Rng rng(requestSeed(9));
    sampleTree(graph, 123, fanouts, rng, scratch, tree);
    ASSERT_EQ(tree.blocks.size(), 2u);
    EXPECT_EQ(tree.blocks[1].dstVertices.size(), 1u);
    EXPECT_EQ(tree.blocks[1].dstVertices[0], 123u);
    for (std::size_t k = 0; k < tree.blocks.size(); ++k) {
        const FlatBlock &block = tree.blocks[k];
        ASSERT_EQ(block.rowPtr.size(), block.dstVertices.size() + 1);
        for (std::size_t i = 0; i < block.dstVertices.size(); ++i)
            EXPECT_EQ(block.srcVertices[i], block.dstVertices[i]);
        for (const VertexId col : block.colIdx)
            EXPECT_LT(col, block.srcVertices.size());
    }
    // Layer 1's sources are layer 0's destinations, in order.
    EXPECT_EQ(tree.blocks[1].srcVertices, tree.blocks[0].dstVertices);
}

// ------------------------------------------------------------------
// InferenceServer
// ------------------------------------------------------------------

TEST(InferenceServer, ServedEmbeddingsBitwiseMatchOfflineReplay)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 7);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 0; // determinism mode
    InferenceServer server(graph, features, model.layers(), config);

    constexpr std::size_t kRequests = 64;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 37) % graph.numVertices()));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.queue().close();
    consumer.join();

    std::vector<Feature> replay(server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        server.serveOne(i,
                        static_cast<VertexId>((i * 37) %
                                              graph.numVertices()),
                        replay.data());
        EXPECT_EQ(0, std::memcmp(served.row(i), replay.data(),
                                 replay.size() * sizeof(Feature)))
            << "request " << i
            << " served embedding differs from offline replay";
    }
    // run() served kRequests; the replay loop served them once more.
    EXPECT_EQ(server.stats().requestsServed, 2 * kRequests);
}

// A mini-batch-trained model (the graphite_serve path: the trainer's
// SGD writes its layers' weights) served by the consumer thread while
// another thread replays the same requests through serveOne(). Both
// read the layers' packed-weight caches concurrently; those must not
// be repacked once training is over (run this under TSan to check the
// absence of the data race, too).
TEST(InferenceServer, TrainedModelServesConcurrentlyWithServeOne)
{
    const CsrGraph graph = testGraph();
    const SyntheticTask task = makeSyntheticTask(graph, 8, 16, 0.3, 5);
    MiniBatchConfig trainConfig;
    trainConfig.batchSize = 128;
    trainConfig.fanouts = {5, 5};
    MiniBatchTrainer trainer(graph, task.features, task.labels,
                             {16, 24, 8}, GnnKind::Sage, trainConfig);
    trainer.trainEpoch();

    ServeConfig config;
    config.fanouts = trainConfig.fanouts;
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 0; // determinism mode
    InferenceServer server(graph, task.features, trainer.layerPointers(),
                           config);

    constexpr std::size_t kRequests = 96;
    const auto vertexOf = [&](std::size_t i) {
        return static_cast<VertexId>((i * 53) % graph.numVertices());
    };
    DenseMatrix served(kRequests, server.outFeatures());
    DenseMatrix replayed(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    std::thread replayer([&] {
        for (std::size_t i = 0; i < kRequests; ++i)
            server.serveOne(i, vertexOf(i), replayed.row(i));
    });
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(i, vertexOf(i));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.queue().close();
    consumer.join();
    replayer.join();

    for (std::size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(0, std::memcmp(served.row(i), replayed.row(i),
                                 server.outFeatures() * sizeof(Feature)))
            << "request " << i;
    }
}

TEST(InferenceServer, CachedHubsStayWithinBoundedError)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 8);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.hotCacheCapacity = 64;
    InferenceServer server(graph, features, model.layers(), config);
    EXPECT_GE(server.hotDegreeThreshold(), 6u); // > max fanout

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    for (std::size_t i = 0; i < kRequests; ++i) {
        // Hammer a small popular set so hub destinations recur.
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 3) % 32));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.queue().close();
    consumer.join();
    EXPECT_GT(server.stats().cache.hits, 0u);

    // The cached row swaps a sampled mean for the full-neighborhood
    // mean: same estimand, bounded deviation. Outputs must be finite
    // and within a loose relative L2 distance of the exact-replay
    // oracle.
    std::vector<Feature> replay(server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        server.serveOne(i, static_cast<VertexId>((i * 3) % 32),
                        replay.data());
        double diff2 = 0.0;
        double norm2 = 0.0;
        for (std::size_t c = 0; c < replay.size(); ++c) {
            ASSERT_TRUE(std::isfinite(served.row(i)[c]));
            const double d = served.row(i)[c] - replay[c];
            diff2 += d * d;
            norm2 += replay[c] * replay[c];
        }
        EXPECT_LE(std::sqrt(diff2), 0.75 * std::sqrt(norm2) + 1e-3)
            << "request " << i << " deviates implausibly far";
    }
}

TEST(InferenceServer, CacheReducesGatherTraffic)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 9);
    TestModel modelOn(16);
    TestModel modelOff(16);

    // Each hub's first fill gathers its whole neighborhood, so caching
    // pays only once hits amortise the fills. At 1024 requests over 24
    // seeds it won for each of 40 request-id offsets tried; at 256 it
    // lost for most of them, so the outcome rode on the sampled trees.
    const auto runWorkload = [&graph](InferenceServer &server) {
        constexpr std::size_t kRequests = 1024;
        std::thread consumer([&server] { server.run(); });
        for (std::size_t i = 0; i < kRequests; ++i) {
            InferenceRequest req = makeRequest(
                i, static_cast<VertexId>((i * 5) % 24));
            while (!server.queue().push(req))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
        }
        server.queue().close();
        consumer.join();
        return server.stats();
    };

    ServeConfig on;
    on.fanouts = {5, 5};
    on.hotCacheCapacity = 128;
    ServeConfig off = on;
    off.hotCacheCapacity = 0;
    InferenceServer serverOn(graph, features, modelOn.layers(), on);
    InferenceServer serverOff(graph, features, modelOff.layers(), off);
    const auto statsOn = runWorkload(serverOn);
    const auto statsOff = runWorkload(serverOff);
    EXPECT_EQ(statsOn.requestsServed, statsOff.requestsServed);
    EXPECT_GT(statsOn.cache.hits, 0u);
    EXPECT_LT(statsOn.bytesGathered, statsOff.bytesGathered)
        << "hub caching must shrink aggregation gather traffic";
}

/** Allocation-free steady state: warm up, then a full run() drain. */
void
expectAllocFreeServing(Precision precision)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 10);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 50;
    config.hotCacheCapacity = 64;
    config.precision = precision;
    InferenceServer server(graph, features, model.layers(), config);
    obs::MetricsRegistry::global().setEnabled(true);
    server.warmup();

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 13) % graph.numVertices()));
        req.out = served.row(i);
        ASSERT_TRUE(server.queue().push(req));
    }
    server.queue().close();
    {
        ScopedAllocGuard guard("serve steady state");
        server.run();
        if (ScopedAllocGuard::interpositionActive()) {
            EXPECT_EQ(guard.allocations(), 0u)
                << "serving loop allocated after warmup";
        }
    }
    obs::MetricsRegistry::global().setEnabled(false);
    EXPECT_GE(server.stats().requestsServed, kRequests);
}

TEST(InferenceServer, SteadyStateServingIsAllocFreeFp32)
{
    expectAllocFreeServing(Precision::Fp32);
}

TEST(InferenceServer, SteadyStateServingIsAllocFreeBf16)
{
    expectAllocFreeServing(Precision::Bf16);
}

// ------------------------------------------------------------------
// Disabled-cache stats (regression: lookup counted misses while
// disabled, so cache-off A/B legs reported a fake 0% hit rate)
// ------------------------------------------------------------------

TEST(HotVertexCache, DisabledLookupTouchesNoStats)
{
    HotVertexCache cache(0, 4, 4, 0);
    Feature out[4] = {};
    for (VertexId v = 0; v < 100; ++v)
        EXPECT_FALSE(cache.lookup(v, out));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u)
        << "a disabled cache must not report misses";
    EXPECT_EQ(stats.puts, 0u);
    EXPECT_EQ(stats.invalidations, 0u);
}

// ------------------------------------------------------------------
// Invalidation / epoch protocol
// ------------------------------------------------------------------

TEST(HotVertexCache, InvalidateDropsRowAndRejectsStaleFills)
{
    HotVertexCache cache(8, 1, 2, 0);
    const Feature row[2] = {1.0f, 2.0f};
    Feature out[2] = {};
    cache.put(7, row);
    ASSERT_TRUE(cache.lookup(7, out));

    // A fill snapshots the epoch before gathering; an invalidation in
    // between must reject the (stale-adjacency) install.
    const std::uint64_t preInsert = cache.fillEpoch(7);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_FALSE(cache.lookup(7, out));
    EXPECT_FALSE(cache.putIfFresh(7, row, preInsert))
        << "a fill gathered before the invalidation must be rejected";
    EXPECT_FALSE(cache.lookup(7, out));

    // A fill gathered after the invalidation installs normally.
    const std::uint64_t postInsert = cache.fillEpoch(7);
    EXPECT_TRUE(cache.putIfFresh(7, row, postInsert));
    ASSERT_TRUE(cache.lookup(7, out));
    EXPECT_EQ(0, std::memcmp(row, out, sizeof(row)));

    // Invalidating a non-resident vertex still bumps the epoch (it
    // must fence in-flight fills of not-yet-resident vertices).
    const std::uint64_t epoch = cache.fillEpoch(1234);
    EXPECT_FALSE(cache.invalidate(1234));
    EXPECT_NE(cache.fillEpoch(1234), epoch);
    EXPECT_GE(cache.stats().invalidations, 2u);
}

// ------------------------------------------------------------------
// rehashShard tombstone purge (tombstones * 4 > table.size())
// ------------------------------------------------------------------

TEST(HotVertexCache, RehashPurgesTombstonesAndKeepsResidents)
{
    // One shard, 8 slots -> table of 16 cells; the purge triggers once
    // tombstones exceed 4. Drive put/invalidate churn far past that
    // and verify the index never loses a resident and probes always
    // terminate (an un-purged table would fill with tombstones and
    // findSlot would spin).
    HotVertexCache cache(8, 1, 2, 0);
    Feature row[2];
    Feature out[2];
    std::vector<VertexId> resident;
    for (int round = 0; round < 200; ++round) {
        // Install a fresh generation of 8 residents.
        resident.clear();
        for (VertexId k = 0; k < 8; ++k) {
            const auto v = static_cast<VertexId>(round * 8 + k);
            row[0] = static_cast<Feature>(v);
            row[1] = static_cast<Feature>(round);
            cache.put(v, row);
            resident.push_back(v);
        }
        // Invalidate half of them (tombstoning the index each time).
        for (std::size_t i = 0; i < resident.size(); i += 2)
            EXPECT_TRUE(cache.invalidate(resident[i]));
        // The surviving half must still hit with intact rows.
        for (std::size_t i = 1; i < resident.size(); i += 2) {
            ASSERT_TRUE(cache.lookup(resident[i], out))
                << "round " << round << ": resident "
                << resident[i] << " lost";
            EXPECT_EQ(out[0], static_cast<Feature>(resident[i]));
            EXPECT_EQ(out[1], static_cast<Feature>(round));
        }
        // And the invalidated half must stay gone.
        for (std::size_t i = 0; i < resident.size(); i += 2)
            EXPECT_FALSE(cache.lookup(resident[i], out));
    }
    // 200 rounds x 4 invalidations churned far past the purge budget
    // of one 16-cell table; survival of the loop proves the purge ran.
    EXPECT_EQ(cache.stats().invalidations, 200u * 4u);
}

TEST(HotVertexCache, ClearDropsEverythingAndBumpsEpochs)
{
    HotVertexCache cache(16, 4, 2, 0);
    Feature row[2] = {1.0f, 2.0f};
    Feature out[2];
    for (VertexId v = 0; v < 16; ++v)
        cache.put(v, row);
    const std::uint64_t epoch = cache.fillEpoch(3);
    cache.clear();
    for (VertexId v = 0; v < 16; ++v)
        EXPECT_FALSE(cache.lookup(v, out));
    EXPECT_NE(cache.fillEpoch(3), epoch);
    EXPECT_FALSE(cache.putIfFresh(3, row, epoch))
        << "fills gathered before clear() must be rejected";
    // The cache stays fully usable after the flush.
    cache.put(3, row);
    EXPECT_TRUE(cache.lookup(3, out));
}

// ------------------------------------------------------------------
// Load-gen percentile convention (regression: q*(n-1) half-up
// rounding disagreed with MetricsRegistry::estimateQuantile)
// ------------------------------------------------------------------

TEST(LoadGen, ExactPercentileUsesNearestRank)
{
    // Nearest rank: the ceil(q*n)-th smallest, clamped to [1, n].
    std::vector<double> v = {40.0, 10.0, 30.0, 20.0};
    EXPECT_EQ(serve::exactPercentile(v, 0.50), 20.0)
        << "rank ceil(0.5*4)=2 -> second smallest (the old half-up "
           "rounding of q*(n-1) picked the third)";
    EXPECT_EQ(serve::exactPercentile(v, 0.25), 10.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.51), 30.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.75), 30.0);
    EXPECT_EQ(serve::exactPercentile(v, 1.0), 40.0);
    EXPECT_EQ(serve::exactPercentile(v, 0.0), 10.0)
        << "rank clamps to 1: q=0 is the smallest sample";
    std::vector<double> empty;
    EXPECT_EQ(serve::exactPercentile(empty, 0.5), 0.0);

    // Rank agreement with estimateQuantile's convention on 1..n (value
    // == its rank, so the selected value IS the selected rank).
    std::vector<double> ranks(100);
    for (std::size_t i = 0; i < ranks.size(); ++i)
        ranks[i] = static_cast<double>(i + 1);
    for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999}) {
        const double exact = q * 100.0;
        double want = std::ceil(exact);
        if (want < 1.0)
            want = 1.0;
        std::vector<double> shuffled = ranks;
        EXPECT_EQ(serve::exactPercentile(shuffled, q), want)
            << "q = " << q;
    }
}

TEST(LoadGen, ExactPercentileAgreesWithHistogramOnDegenerateBuckets)
{
    // All samples equal: the histogram estimate clamps to [min, max]
    // and becomes exact, so the two quantile paths must coincide.
    const std::uint64_t value = 96;
    std::vector<std::uint64_t> buckets(64, 0);
    std::size_t width = 0;
    for (std::uint64_t x = value; x > 0; x >>= 1)
        ++width;
    buckets[width] = 10;
    std::vector<double> samples(10, static_cast<double>(value));
    for (const double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(obs::estimateQuantile(buckets, 10, value, value, q),
                  static_cast<double>(value));
        std::vector<double> scratch = samples;
        EXPECT_EQ(serve::exactPercentile(scratch, q),
                  static_cast<double>(value));
    }
}

TEST(InferenceServer, LoadGeneratorReportsSaneNumbers)
{
    const CsrGraph graph = testGraph();
    DenseMatrix features(graph.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 11);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 64;
    InferenceServer server(graph, features, model.layers(), config);
    serve::LoadGenConfig load;
    load.numRequests = 500;
    load.warmupRequests = 100;
    load.offeredQps = 50000.0;
    load.zipfExponent = 0.9;
    const serve::LoadGenReport report =
        serve::runServeLoad(server, load);
    EXPECT_GT(report.qps, 0.0);
    EXPECT_GE(report.p99Us, report.p50Us);
    EXPECT_GE(report.cacheHitRate, 0.0);
    EXPECT_LE(report.cacheHitRate, 1.0);
    EXPECT_GT(report.bytesGathered, 0u);
    EXPECT_EQ(report.accepted + report.dropped, 500u);
}

// ------------------------------------------------------------------
// Dynamic-graph serving (delta-CSR overlay, DESIGN.md §14)
// ------------------------------------------------------------------

/** Spin until @p server has served at least @p target requests. */
void
waitServed(InferenceServer &server, std::uint64_t target)
{
    while (server.stats().requestsServed < target)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
}

TEST(DynamicServing, CacheOnMatchesHubExactOracleUnderChurn)
{
    // Rounds of edge inserts interleaved with served batches: after
    // every round, each cache-enabled served embedding must match the
    // cache-bypassed hub-exact forward on the same overlay bitwise —
    // the invalidation protocol's acceptance contract.
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 4096);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 7);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 500;
    config.hotCacheCapacity = 64;
    InferenceServer server(overlay, features, model.layers(), config);

    std::thread consumer([&server] { server.run(); });
    Rng rng(17);
    std::vector<Feature> replay(server.outFeatures());
    DenseMatrix served(16, server.outFeatures());
    std::uint64_t servedSoFar = 0;
    for (int round = 0; round < 6; ++round) {
        // Churn: 40 accepted inserts through the server's update path.
        for (int i = 0; i < 40;) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added)
                ++i;
        }
        // Serve one batch of hub-heavy requests.
        for (std::uint64_t i = 0; i < 16; ++i) {
            InferenceRequest req = makeRequest(
                round * 16 + i, static_cast<VertexId>((i * 3) % 48));
            req.out = served.row(i);
            while (!server.queue().push(req))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
        }
        servedSoFar += 16;
        waitServed(server, servedSoFar);
        // Churn is quiesced: replay each request against the
        // cache-bypassed oracle on the same overlay.
        for (std::uint64_t i = 0; i < 16; ++i) {
            server.serveOneHubExact(round * 16 + i,
                                    static_cast<VertexId>((i * 3) % 48),
                                    replay.data());
            EXPECT_EQ(0,
                      std::memcmp(served.row(i), replay.data(),
                                  replay.size() * sizeof(Feature)))
                << "round " << round << " request " << i
                << ": cache-on serving diverged from the hub-exact "
                   "oracle after inserts";
        }
        servedSoFar += 16; // the replays count as served requests
    }
    server.queue().close();
    consumer.join();
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.edgeInserts, 240u);
    EXPECT_GT(stats.cache.invalidations, 0u)
        << "inserts on cached hubs must invalidate";
    EXPECT_EQ(overlay.validate(), nullptr);
    EXPECT_EQ(overlay.deltaEdges(), 240u);
}

TEST(DynamicServing, PostCompactionMatchesFreshServerBitwise)
{
    const VertexId n = 600;
    DeltaCsr overlay(generateBarabasiAlbert(n, 5, 21), 2048);
    // Mirror every edge (base + inserted) into a from-scratch builder.
    GraphBuilder builder(n);
    for (VertexId v = 0; v < n; ++v)
        for (const VertexId u : overlay.baseNeighbors(v))
            builder.addEdge(v, u);

    DenseMatrix features(n, 16);
    features.fillUniform(0.0f, 1.0f, 8);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.hotCacheCapacity = 64;
    // Pin the admission threshold: the overlay server resolved its
    // auto threshold on pre-insert degrees, a fresh server would
    // resolve on post-insert degrees — pinning makes hub admission
    // identical so the policies compare bitwise.
    config.hotCacheMinDegree = 20;
    InferenceServer server(overlay, features, model.layers(), config);

    Rng rng(29);
    for (int i = 0; i < 700;) {
        const auto src = static_cast<VertexId>(rng.next() % n);
        const auto dst = static_cast<VertexId>(rng.next() % n);
        if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added) {
            builder.addEdge(src, dst);
            ++i;
        }
    }
    // Consumer idle -> compactNow is legal.
    server.compactNow();
    EXPECT_EQ(server.stats().compactions, 1u);
    EXPECT_EQ(overlay.deltaEdges(), 0u);

    const CsrGraph fresh = builder.build();
    TestModel freshModel(16);
    InferenceServer freshServer(fresh, features, freshModel.layers(),
                                config);

    std::vector<Feature> a(server.outFeatures());
    std::vector<Feature> b(server.outFeatures());
    for (std::uint64_t id = 0; id < 40; ++id) {
        const auto v = static_cast<VertexId>((id * 13) % n);
        server.serveOne(id, v, a.data());
        freshServer.serveOne(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "sampled replay " << id
            << " differs between compacted overlay and fresh build";
        server.serveOneHubExact(id, v, a.data());
        freshServer.serveOneHubExact(id, v, b.data());
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(Feature)))
            << "hub-exact replay " << id
            << " differs between compacted overlay and fresh build";
    }
    EXPECT_EQ(0,
              std::memcmp(overlay.base().colIdx().data(),
                          fresh.colIdx().data(),
                          fresh.colIdx().size() * sizeof(VertexId)))
        << "compacted adjacency must equal the from-scratch build";
}

TEST(DynamicServing, ThresholdRefreshTracksGrowingHubs)
{
    // Base degrees: v0=6, v1=5, v2=4, v3..v9 = 1. Auto threshold with
    // capacity 2: max(3rd-largest degree, ceil-avg+1, maxFanout+1).
    GraphBuilder builder(10);
    for (VertexId u = 1; u <= 6; ++u)
        builder.addEdge(0, u);
    for (VertexId u = 2; u <= 6; ++u)
        builder.addEdge(1, u);
    for (VertexId u = 3; u <= 6; ++u)
        builder.addEdge(2, u);
    for (VertexId v = 3; v < 10; ++v)
        builder.addEdge(v, (v + 1) % 10);
    DeltaCsr overlay(builder.build(), 64);

    DenseMatrix features(10, 8);
    features.fillUniform(0.0f, 1.0f, 9);
    TestModel model(8);
    ServeConfig config;
    config.fanouts = {2, 2};
    config.maxBatch = 4;
    config.hotCacheCapacity = 2;
    config.hotCacheShards = 1;
    config.hotCacheMinDegree = 0;  // auto: refresh may move it
    config.thresholdRefreshEvery = 1;
    InferenceServer server(overlay, features, model.layers(), config);
    const EdgeId initial = server.hotDegreeThreshold();
    EXPECT_EQ(initial, 4u);

    // Grow v3 from degree 1 to 9: the capacity-th largest degree rises
    // to 5, and every accepted insert re-derives the threshold.
    for (VertexId u = 0; u < 10; ++u) {
        if (u == 3 || u == 4)
            continue;
        ASSERT_EQ(server.insertEdge(3, u), DeltaCsr::AddEdge::Added);
    }
    EXPECT_GE(server.hotDegreeThreshold(), 5u)
        << "the admission gate must track hub growth";
    EXPECT_GE(server.hotDegreeThreshold(), initial)
        << "the refreshed threshold is clamped monotone";
    const GraphStats live = server.liveGraphStats();
    EXPECT_EQ(live.numEdges, overlay.numEdges());
    EXPECT_EQ(live.maxDegree, 9u);
}

TEST(DynamicServing, ConcurrentChurnWhileServingStaysCoherent)
{
    // The TSan target of the bugfix sweep: producers push requests,
    // an updater inserts edges and requests compactions, the consumer
    // serves — all concurrently. Coherence checks: stats add up, the
    // overlay validates, and every served embedding is finite.
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 8192);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 10);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 100;
    config.hotCacheCapacity = 64;
    config.thresholdRefreshEvery = 64;
    InferenceServer server(overlay, features, model.layers(), config);
    server.warmup();

    constexpr std::size_t kRequests = 512;
    DenseMatrix served(kRequests, server.outFeatures());
    std::thread consumer([&server] { server.run(); });
    std::atomic<std::uint64_t> inserted{0};
    std::thread updater([&server, &inserted] {
        Rng rng(31);
        for (int i = 0; i < 1500; ++i) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) ==
                DeltaCsr::AddEdge::Added)
                inserted.fetch_add(1, std::memory_order_relaxed);
            if (i % 400 == 399)
                server.requestCompaction();
        }
    });
    std::thread oracle([&server] {
        std::vector<Feature> out(server.outFeatures());
        for (std::uint64_t id = 0; id < 200; ++id)
            server.serveOneHubExact(1'000'000 + id,
                                    static_cast<VertexId>(id % 64),
                                    out.data());
    });
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 7) % 800));
        req.out = served.row(i);
        while (!server.queue().push(req))
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    updater.join();
    oracle.join();
    server.queue().close();
    consumer.join();

    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.edgeInserts, inserted.load());
    EXPECT_GE(stats.requestsServed, kRequests);
    EXPECT_EQ(overlay.validate(), nullptr);
    for (std::size_t i = 0; i < kRequests; ++i)
        for (std::size_t c = 0; c < server.outFeatures(); ++c)
            ASSERT_TRUE(std::isfinite(served.row(i)[c]))
                << "request " << i << " col " << c;
    const GraphStats live = server.liveGraphStats();
    EXPECT_EQ(live.numEdges, overlay.numEdges());
}

TEST(DynamicServing, SteadyStateChurnServingIsAllocFree)
{
    if (!ScopedAllocGuard::interpositionActive())
        GTEST_SKIP() << "interposer compiled out (GRAPHITE_CHECKS off)";
    DeltaCsr overlay(generateBarabasiAlbert(800, 6, 42), 8192);
    DenseMatrix features(overlay.numVertices(), 16);
    features.fillUniform(0.0f, 1.0f, 12);
    TestModel model(16);
    ServeConfig config;
    config.fanouts = {5, 5};
    config.maxBatch = 16;
    config.latencyBudgetUs = 50;
    config.hotCacheCapacity = 64;
    config.thresholdRefreshEvery = 32;
    InferenceServer server(overlay, features, model.layers(), config);
    obs::MetricsRegistry::global().setEnabled(true);
    server.warmup();
    // Warm the insert path (first counter registration, etc.).
    Rng warmRng(41);
    for (int i = 0; i < 8;) {
        const auto src = static_cast<VertexId>(warmRng.next() % 800);
        const auto dst = static_cast<VertexId>(warmRng.next() % 800);
        if (server.insertEdge(src, dst) == DeltaCsr::AddEdge::Added)
            ++i;
    }

    constexpr std::size_t kRequests = 128;
    DenseMatrix served(kRequests, server.outFeatures());
    for (std::size_t i = 0; i < kRequests; ++i) {
        InferenceRequest req = makeRequest(
            i, static_cast<VertexId>((i * 13) % 800));
        req.out = served.row(i);
        ASSERT_TRUE(server.queue().push(req));
    }
    server.queue().close();
    // Spawn the updater before the guard (thread creation allocates);
    // it waits for the start flag so its inserts land inside the
    // guarded region, concurrent with the serving drain.
    std::atomic<bool> start{false};
    std::atomic<bool> done{false};
    std::thread updater([&server, &start, &done] {
        while (!start.load(std::memory_order_acquire))
            std::this_thread::yield();
        Rng rng(43);
        for (int i = 0; i < 256;) {
            const auto src = static_cast<VertexId>(rng.next() % 800);
            const auto dst = static_cast<VertexId>(rng.next() % 800);
            if (server.insertEdge(src, dst) ==
                DeltaCsr::AddEdge::Added)
                ++i;
        }
        done.store(true, std::memory_order_release);
    });
    {
        ScopedAllocGuard guard("churn serve steady state");
        start.store(true, std::memory_order_release);
        server.run();
        while (!done.load(std::memory_order_acquire))
            std::this_thread::yield();
        if (ScopedAllocGuard::interpositionActive()) {
            EXPECT_EQ(guard.allocations(), 0u)
                << "insert+serve steady state allocated after warmup";
        }
    }
    updater.join();
    obs::MetricsRegistry::global().setEnabled(false);
    EXPECT_GE(server.stats().requestsServed, kRequests);
    EXPECT_EQ(server.stats().edgeInserts, 256u + 8u);
}

} // namespace
} // namespace graphite
