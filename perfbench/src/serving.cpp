/**
 * @file
 * serve-zipf and ingest-churn: a SAGE model trained with
 * MiniBatchTrainer on R-MAT scale 13 (average degree 16, 128-wide
 * features and hidden layer, 8 classes, fanout 10/10, two epochs) and
 * served through InferenceServer exactly as graphite_serve configures
 * it: hot cache of 512 rows with the churn-free admission threshold,
 * 200 us batch budget, batches of at most 64.
 *
 * The benchmark owns its open-loop generators. Arrivals are Poisson at a
 * fixed 8,000 requests/s with Zipf-0.9 popularity over degree rank; each
 * request is stamped when it is pushed, and its latency is the server's
 * reported latency plus the generator's lateness, i.e. it is timed from
 * the due time.
 *
 *  serve-zipf: 2,000 warm-up requests, then the fixed-rate phase for half
 *  of the run, then a capacity phase for the rest in which the benchmark
 *  keeps kCapacityDepth requests outstanding so the queue never empties.
 *  Served embeddings are checked bitwise against serveOneHubExact.
 *
 *  ingest-churn: the same model and request traffic over a DeltaCsr
 *  overlay, while a second open-loop generator offers edge inserts at
 *  8,000/s through insertEdge (pairs that are neither self loops nor
 *  already present, so every insert is accepted), requesting a
 *  compaction every kCompactEvery accepted inserts, for two thirds of
 *  the run. An untraced run then stops serving and, for the rest of the
 *  run, times the ingest path closed-loop: kIngestCycles cycles spaced
 *  evenly in time, each of kCompactEvery insertEdge calls timed in
 *  blocks and followed by compactNow. After the run the overlay is
 *  compacted and a frozen server over the compacted graph must replay
 *  sampled requests bitwise.
 */

#include <pthread.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "gnn/minibatch_trainer.h"
#include "gnn/trainer.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "sampling/neighbor_sampler.h"
#include "serve/hot_vertex_cache.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace graphite;

constexpr unsigned kScale = 13;
constexpr double kAvgDegree = 16.0;
constexpr std::size_t kFeatureWidth = 128;
constexpr std::size_t kHiddenWidth = 128;
constexpr std::size_t kClasses = 8;
constexpr std::size_t kTrainEpochs = 2;
constexpr VertexId kFanout = 10;
constexpr double kRequestRate = 8000.0;
constexpr double kInsertRate = 8000.0;
constexpr double kZipf = 0.9;
constexpr std::size_t kWarmupRequests = 2000;
constexpr std::size_t kCacheRows = 512;
constexpr double kFixedShare = 0.5;
/** ingest-churn's share of the run under open-loop churn. */
constexpr double kChurnShare = 2.0 / 3.0;
constexpr std::size_t kCapacityDepth = 256;
constexpr std::size_t kCapacityMaxRequests = std::size_t{1} << 19;
constexpr std::uint64_t kCompactEvery = 8000;
constexpr EdgeId kDeltaBudget = 262144;
constexpr std::size_t kReplayChecks = 256;
constexpr std::size_t kParityChecks = 64;
/** Traced micro-phase sizes. */
constexpr std::size_t kTreeSamples = 4000;
constexpr std::size_t kOneSamples = 500;
constexpr std::size_t kPackSamples = 200;
constexpr int kCompactRepeats = 3;
/** Closed-loop ingest phase (untraced ingest-churn runs). */
constexpr int kIngestCycles = 24;
constexpr std::size_t kIngestBlock = 250;
/**
 * Set-ups per untraced run, half before the load and half after it;
 * setup_s is their median.
 */
constexpr int kSetupRepeats = 8;

serve::ServeConfig
serveConfig(const CsrGraph &graph)
{
    serve::ServeConfig config;
    config.fanouts = {kFanout, kFanout};
    config.maxBatch = 64;
    config.latencyBudgetUs = 200;
    config.queueCapacity = 4096;
    config.hotCacheCapacity = kCacheRows;
    config.hotCacheShards = 8;
    config.hotCacheMinDegree =
        serve::churnFreeDegreeThreshold(graph, kCacheRows);
    return config;
}

/** Everything one set-up builds; heap-pinned (the server keeps refs). */
struct Serving
{
    Serving(std::uint64_t seed, bool churn)
        : graph(generateRmat(rmatParams(seed))),
          task(makeSyntheticTask(graph, kClasses, kFeatureWidth, 0.3,
                                 seed + 1)),
          trainer(graph, task.features, task.labels,
                  {kFeatureWidth, kHiddenWidth, kClasses}, GnnKind::Sage,
                  trainConfig(seed))
    {
        for (std::size_t e = 0; e < kTrainEpochs; ++e)
            trainer.trainEpoch();
        if (churn) {
            overlay = std::make_unique<DeltaCsr>(CsrGraph(graph),
                                                 kDeltaBudget);
            server = std::make_unique<serve::InferenceServer>(
                *overlay, task.features, trainer.layerPointers(),
                serveConfig(graph));
        } else {
            server = std::make_unique<serve::InferenceServer>(
                graph, task.features, trainer.layerPointers(),
                serveConfig(graph));
        }
        server->warmup();
    }

    static RmatParams
    rmatParams(std::uint64_t seed)
    {
        RmatParams params;
        params.scale = kScale;
        params.avgDegree = kAvgDegree;
        params.seed = seed;
        return params;
    }

    static MiniBatchConfig
    trainConfig(std::uint64_t seed)
    {
        MiniBatchConfig config;
        config.batchSize = 512;
        config.fanouts = {kFanout, kFanout};
        config.seed = seed;
        return config;
    }

    CsrGraph graph;
    SyntheticTask task;
    MiniBatchTrainer trainer;
    std::unique_ptr<DeltaCsr> overlay;
    std::unique_ptr<serve::InferenceServer> server;
};

/** Zipf popularity over degree rank, as the library's load generator. */
class ZipfVertices
{
  public:
    explicit ZipfVertices(const CsrGraph &graph)
        : ranked_(graph.numVertices()), cdf_(graph.numVertices())
    {
        std::iota(ranked_.begin(), ranked_.end(), VertexId{0});
        std::stable_sort(ranked_.begin(), ranked_.end(),
                         [&graph](VertexId a, VertexId b) {
                             return graph.degree(a) > graph.degree(b);
                         });
        for (std::size_t i = 0; i < cdf_.size(); ++i) {
            total_ += std::pow(static_cast<double>(i + 1), -kZipf);
            cdf_[i] = total_;
        }
    }

    VertexId
    draw(Rng &rng) const
    {
        const double z = rng.uniform() * total_;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf_.begin(), cdf_.end(), z) - cdf_.begin());
        return ranked_[std::min(rank, ranked_.size() - 1)];
    }

  private:
    std::vector<VertexId> ranked_;
    std::vector<double> cdf_;
    double total_ = 0.0;
};

/** Poisson due times (ns after the phase start) over @p seconds. */
std::vector<std::uint64_t>
poissonOffsets(Rng &rng, double rate, double seconds, std::size_t atLeast)
{
    std::vector<std::uint64_t> offsets;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t > seconds && offsets.size() >= atLeast)
            return offsets;
        offsets.push_back(static_cast<std::uint64_t>(t * 1e9));
    }
}

/** Insert pairs that are neither self loops nor present already. */
std::vector<std::pair<VertexId, VertexId>>
freshEdges(const CsrGraph &graph, Rng &rng, std::size_t count)
{
    std::unordered_set<std::uint64_t> taken;
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(count);
    const VertexId n = graph.numVertices();
    while (edges.size() < count) {
        const auto src = static_cast<VertexId>(rng.uniformInt(n));
        const auto dst = static_cast<VertexId>(rng.uniformInt(n));
        const std::uint64_t key = (std::uint64_t{src} << 32) | dst;
        const auto nbrs = graph.neighbors(src);
        if (src == dst || taken.count(key) != 0 ||
            std::find(nbrs.begin(), nbrs.end(), dst) != nbrs.end())
            continue;
        taken.insert(key);
        edges.emplace_back(src, dst);
    }
    return edges;
}

/**
 * Sleep until shortly before @p dueNs, then yield-spin to it. Timer
 * slack is lowered per generator thread so wake-ups are not coalesced.
 */
void
waitUntil(std::uint64_t dueNs)
{
    constexpr std::uint64_t kSpinNs = 20000;
    for (;;) {
        const std::uint64_t now = nowNs();
        if (now >= dueNs)
            return;
        if (dueNs - now > kSpinNs)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(dueNs - now - kSpinNs));
        else
            std::this_thread::yield();
    }
}

/** CPU time consumed so far on @p clock, in microseconds. */
double
cpuMicros(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) / 1e3;
}

void
lowerTimerSlack()
{
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
}

/** What the open-loop generators observed. */
struct LoadOutcome
{
    std::vector<double> fixedLatencyUs;    ///< measured, from due time
    std::vector<double> fixedLatenessUs;   ///< measured requests
    std::vector<double> capacityLatencyUs; ///< from push
    double capacityRps = 0.0;
    /** Consumer-thread CPU time per request served, by phase. */
    double fixedCpuUsPerRequest = 0.0;
    double capacityCpuUsPerRequest = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t dropped = 0;
    serve::ServeStats atStart;
    serve::ServeStats afterFixed;
    // Insert generator (ingest-churn).
    std::vector<double> insertLatencyUs;  ///< from due time
    std::vector<double> insertLatenessUs;
    std::vector<double> insertCallUs;     ///< the insertEdge call alone
    std::uint64_t insertsOffered = 0;
    std::uint64_t insertsRefused = 0;
    // What the server computed, for the correctness replays.
    DenseMatrix results;
    std::vector<VertexId> vertices;
    std::vector<std::uint8_t> served;
};

void
waitServed(const serve::InferenceServer &server, std::uint64_t target)
{
    while (server.stats().requestsServed < target)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
}

LoadOutcome
drive(Serving &s, const RunConfig &config, bool churn,
      std::span<const std::pair<VertexId, VertexId>> inserts,
      const std::vector<std::uint64_t> &insertOffsets, Tracer &insertTracer)
{
    serve::InferenceServer &server = *s.server;
    const ZipfVertices zipf(s.graph);
    Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 3);
    const double fixedSeconds =
        config.seconds * (churn ? kChurnShare : kFixedShare);
    const double capacitySeconds =
        churn ? 0.0 : config.seconds - fixedSeconds;

    // Warm-up requests first, then the measured window.
    std::vector<std::uint64_t> offsets =
        poissonOffsets(rng, kRequestRate, 0.0, kWarmupRequests);
    const std::uint64_t warmEnd = offsets.back();
    for (const std::uint64_t t :
         poissonOffsets(rng, kRequestRate, fixedSeconds, 1))
        offsets.push_back(warmEnd + t);
    const std::size_t fixedCount = offsets.size();
    const std::size_t capacityMax = churn ? 0 : kCapacityMaxRequests;

    LoadOutcome out;
    out.results.resize(fixedCount + capacityMax, server.outFeatures());
    out.vertices.resize(fixedCount + capacityMax);
    out.served.assign(fixedCount + capacityMax, 0);
    std::vector<double> serverUs(fixedCount + capacityMax, -1.0);
    std::vector<std::uint64_t> sentNs(fixedCount, 0);
    for (std::size_t i = 0; i < fixedCount; ++i)
        out.vertices[i] = zipf.draw(rng);

    out.atStart = server.stats();
    std::thread consumer([&server] { server.run(); });
    clockid_t consumerClock;
    pthread_getcpuclockid(consumer.native_handle(), &consumerClock);
    const double cpuAtStart = cpuMicros(consumerClock);
    lowerTimerSlack();
    const std::uint64_t base = nowNs() + 2'000'000;

    std::thread inserter;
    if (churn) {
        out.insertLatencyUs.resize(inserts.size());
        out.insertLatenessUs.resize(inserts.size());
        out.insertCallUs.resize(inserts.size());
        inserter = std::thread([&] {
            lowerTimerSlack();
            std::uint64_t accepted = 0;
            for (std::size_t j = 0; j < inserts.size(); ++j) {
                const std::uint64_t due = base + warmEnd + insertOffsets[j];
                waitUntil(due);
                const std::uint64_t sent = nowNs();
                DeltaCsr::AddEdge added;
                {
                    ScopedSpan span(insertTracer, "delta.insert");
                    added = server.insertEdge(inserts[j].first,
                                              inserts[j].second);
                }
                const double callUs =
                    static_cast<double>(nowNs() - sent) / 1e3;
                out.insertCallUs[j] = callUs;
                out.insertLatencyUs[j] = latencyFromDueUs(callUs, due, sent);
                out.insertLatenessUs[j] = latenessUs(due, sent);
                if (added == DeltaCsr::AddEdge::Added) {
                    if (++accepted % kCompactEvery == 0)
                        server.requestCompaction();
                } else {
                    ++out.insertsRefused;
                    if (added == DeltaCsr::AddEdge::PoolFull)
                        server.requestCompaction();
                }
            }
            out.insertsOffered = inserts.size();
        });
    }

    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < fixedCount; ++i) {
        const std::uint64_t due = base + offsets[i];
        waitUntil(due);
        serve::InferenceRequest req;
        req.id = i;
        req.vertex = out.vertices[i];
        req.enqueueNs = nowNs();
        req.out = out.results.row(i);
        req.latencyUs = &serverUs[i];
        sentNs[i] = req.enqueueNs;
        if (server.queue().push(req))
            ++accepted;
        else
            ++out.dropped;
    }
    if (inserter.joinable())
        inserter.join();
    waitServed(server, out.atStart.requestsServed + accepted);
    out.afterFixed = server.stats();
    const double cpuAfterFixed = cpuMicros(consumerClock);
    out.fixedCpuUsPerRequest =
        (cpuAfterFixed - cpuAtStart) /
        static_cast<double>(out.afterFixed.requestsServed -
                            out.atStart.requestsServed);
    out.offered = fixedCount;

    if (capacitySeconds > 0.0) {
        // Keep kCapacityDepth requests outstanding: the queue never
        // empties, so the served rate is the server's capacity.
        const std::uint64_t servedBefore = server.stats().requestsServed;
        const std::uint64_t start = nowNs();
        const auto durationNs =
            static_cast<std::uint64_t>(capacitySeconds * 1e9);
        std::size_t pushed = 0;
        std::size_t refused = 0;
        std::uint64_t end = start;
        while ((end = nowNs()) - start < durationNs &&
               fixedCount + pushed < out.served.size()) {
            if (pushed - (server.stats().requestsServed - servedBefore) >=
                kCapacityDepth) {
                std::this_thread::yield();
                continue;
            }
            const std::size_t i = fixedCount + pushed;
            out.vertices[i] = zipf.draw(rng);
            serve::InferenceRequest req;
            req.id = i;
            req.vertex = out.vertices[i];
            req.enqueueNs = nowNs();
            req.out = out.results.row(i);
            req.latencyUs = &serverUs[i];
            if (!server.queue().push(req)) {
                ++refused;
                std::this_thread::yield();
                continue;
            }
            ++pushed;
        }
        const std::uint64_t servedInWindow =
            server.stats().requestsServed - servedBefore;
        out.capacityCpuUsPerRequest =
            (cpuMicros(consumerClock) - cpuAfterFixed) /
            static_cast<double>(servedInWindow);
        out.capacityRps = static_cast<double>(servedInWindow) /
                          (static_cast<double>(end - start) / 1e9);
        out.offered += pushed + refused;
        out.dropped += refused;
    }
    server.queue().close();
    consumer.join();

    for (std::size_t i = 0; i < serverUs.size(); ++i) {
        if (serverUs[i] < 0.0)
            continue;
        out.served[i] = 1;
        if (i >= fixedCount) {
            out.capacityLatencyUs.push_back(serverUs[i]);
        } else if (i >= kWarmupRequests) {
            const std::uint64_t due = base + offsets[i];
            out.fixedLatencyUs.push_back(
                latencyFromDueUs(serverUs[i], due, sentNs[i]));
            out.fixedLatenessUs.push_back(latenessUs(due, sentNs[i]));
        }
    }
    return out;
}

/** Bitwise replays of served requests against serveOneHubExact. */
std::uint64_t
replayMismatches(serve::InferenceServer &server, const LoadOutcome &load,
                 std::uint64_t seed, std::size_t &checked)
{
    std::vector<std::size_t> servedIds;
    for (std::size_t i = 0; i < load.served.size(); ++i) {
        if (load.served[i] != 0)
            servedIds.push_back(i);
    }
    Rng rng(seed + 17);
    std::vector<Feature> replay(server.outFeatures());
    std::uint64_t bad = 0;
    checked = std::min(kReplayChecks, servedIds.size());
    for (std::size_t c = 0; c < checked; ++c) {
        const std::size_t i = servedIds[rng.uniformInt(servedIds.size())];
        server.serveOneHubExact(i, load.vertices[i], replay.data());
        if (std::memcmp(replay.data(), load.results.row(i),
                        replay.size() * sizeof(Feature)) != 0)
            ++bad;
    }
    return bad;
}

/** Post-compaction bitwise parity against a frozen server. */
std::uint64_t
parityMismatches(Serving &s, std::uint64_t seed)
{
    s.server->compactNow();
    std::uint64_t bad = s.overlay->deltaEdges() == 0 ? 0 : 1;
    serve::InferenceServer fresh(s.overlay->base(), s.task.features,
                                 s.trainer.layerPointers(),
                                 serveConfig(s.graph));
    std::vector<Feature> a(s.server->outFeatures());
    std::vector<Feature> b(fresh.outFeatures());
    Rng rng(seed + 1);
    for (std::size_t c = 0; c < kParityChecks; ++c) {
        const auto v =
            static_cast<VertexId>(rng.uniformInt(s.graph.numVertices()));
        s.server->serveOne(c, v, a.data());
        fresh.serveOne(c, v, b.data());
        if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Feature)) != 0)
            ++bad;
    }
    return bad;
}

/** Micro-phases of the traced run around the serving layers' calls. */
void
tracedLayerCalls(Serving &s, Tracer &tracer, std::uint64_t seed,
                 Result &result)
{
    const ZipfVertices zipf(s.graph);
    Rng rng(seed + 23);
    const std::vector<VertexId> fanouts = {kFanout, kFanout};
    SamplerScratch scratch(s.graph.numVertices());
    SampledTree tree;
    for (std::size_t i = 0; i < kTreeSamples; ++i) {
        const VertexId v = zipf.draw(rng);
        Rng treeRng(requestSeed(i));
        ScopedSpan span(tracer, "sampling.tree");
        if (s.overlay)
            sampleTree(*s.overlay, v, fanouts, treeRng, scratch, tree);
        else
            sampleTree(s.graph, v, fanouts, treeRng, scratch, tree);
    }
    std::vector<Feature> row(s.server->outFeatures());
    for (std::size_t i = 0; i < kOneSamples; ++i) {
        const VertexId v = zipf.draw(rng);
        ScopedSpan span(tracer, "serve.one");
        s.server->serveOneHubExact(i, v, row.data());
    }
    double packUs = 0.0;
    for (GnnLayer *layer : s.trainer.layerPointers()) {
        const GnnLayer &served = *layer;
        for (std::size_t i = 0; i < kPackSamples; ++i) {
            ScopedSpan span(tracer, "serve.pack");
            served.packedWeights(Precision::Fp32);
        }
        std::vector<double> d = tracer.durations("serve.pack");
        d.erase(d.begin(), d.end() - static_cast<std::ptrdiff_t>(kPackSamples));
        packUs += median(d) * 1e6;
    }
    result.add("sampling.tree_us",
               median(tracer.durations("sampling.tree")) * 1e6, "us");
    result.add("serve.one_us", median(tracer.durations("serve.one")) * 1e6,
               "us");
    result.add("serve.pack_us", packUs, "us");
}

/** delta.compact_ms: compact kCompactEvery fresh inserts, median. */
double
compactionMs(const Serving &s,
             const std::vector<std::pair<VertexId, VertexId>> &inserts,
             Tracer &tracer)
{
    for (int rep = 0; rep < kCompactRepeats; ++rep) {
        DeltaCsr overlay(CsrGraph(s.graph), kDeltaBudget);
        for (std::size_t j = 0; j < kCompactEvery && j < inserts.size(); ++j)
            overlay.addEdge(inserts[j].first, inserts[j].second);
        ScopedSpan span(tracer, "delta.compact");
        overlay.compact();
    }
    return median(tracer.durations("delta.compact")) * 1e3;
}

/** What the closed-loop ingest phase measured. */
struct IngestCost
{
    double insertUs = 0.0;  ///< median per-insert time of a block
    double compactMs = 0.0; ///< median compactNow after a cycle
    std::uint64_t offered = 0;
    std::uint64_t refused = 0;
};

/**
 * Time the ingest path with serving stopped, over @p seconds: each
 * cycle re-primes the hot cache through warmup() (compaction clears
 * it), inserts kCompactEvery fresh edges through insertEdge in blocks
 * of kIngestBlock, then compacts. Short blocks and medians keep host
 * preemptions out of the figure, and spacing the cycles over the phase
 * averages out the host's speed drifting over seconds; a closed loop
 * keeps the sleeps and wake-ups of the open-loop generator out of it.
 */
IngestCost
ingestCost(serve::InferenceServer &server,
           std::span<const std::pair<VertexId, VertexId>> edges,
           double seconds)
{
    IngestCost cost;
    std::vector<double> blockUs;
    std::vector<double> compactMs;
    server.compactNow();
    const std::uint64_t phaseStart = nowNs();
    const double cycleNs = seconds * 1e9 / kIngestCycles;
    std::size_t next = 0;
    for (int cycle = 0; cycle < kIngestCycles; ++cycle) {
        waitUntil(phaseStart + static_cast<std::uint64_t>(cycle * cycleNs));
        server.warmup();
        for (std::size_t b = 0; b < kCompactEvery / kIngestBlock; ++b) {
            const std::uint64_t start = nowNs();
            for (std::size_t j = 0; j < kIngestBlock; ++j, ++next) {
                if (server.insertEdge(edges[next].first,
                                      edges[next].second) !=
                    DeltaCsr::AddEdge::Added)
                    ++cost.refused;
            }
            blockUs.push_back(static_cast<double>(nowNs() - start) / 1e3 /
                              static_cast<double>(kIngestBlock));
        }
        const std::uint64_t start = nowNs();
        server.compactNow();
        compactMs.push_back(static_cast<double>(nowNs() - start) / 1e6);
    }
    cost.offered = next;
    cost.insertUs = median(blockUs);
    cost.compactMs = median(compactMs);
    return cost;
}

} // namespace

Result
runServing(const RunConfig &config, bool churn)
{
    Result result;
    std::vector<double> setupSeconds;
    std::unique_ptr<Serving> s;
    const int setups = config.trace ? 1 : kSetupRepeats;
    for (int rep = 0; rep < std::max(1, setups / 2); ++rep) {
        s.reset();
        Timer timer;
        s = std::make_unique<Serving>(config.seed, churn);
        setupSeconds.push_back(timer.seconds());
    }
    result.ops(static_cast<std::uint64_t>(setups), 0);

    // The insert schedule is an input: drawn from the seed, outside
    // set-up and outside the measured window. The closed-loop ingest
    // phase takes the edges after the open-loop ones, so every edge of
    // the run is fresh.
    std::vector<std::pair<VertexId, VertexId>> inserts;
    std::vector<std::uint64_t> insertOffsets;
    if (churn) {
        Rng rng(config.seed ^ 0x5bd1e995ull);
        insertOffsets = poissonOffsets(rng, kInsertRate,
                                       config.seconds * kChurnShare, 1);
        inserts = freshEdges(
            s->graph, rng,
            insertOffsets.size() +
                (config.trace ? 0 : kIngestCycles * kCompactEvery));
    }

    Tracer tracer(config.trace);
    Tracer insertTracer(config.trace);
    if (config.trace)
        tracedLayerCalls(*s, tracer, config.seed, result);

    LoadOutcome load =
        drive(*s, config, churn,
              std::span(inserts).first(insertOffsets.size()), insertOffsets,
              insertTracer);
    result.ops(load.offered, load.dropped);
    result.ops(load.insertsOffered, load.insertsRefused);
    IngestCost ingest;
    if (churn && !config.trace) {
        ingest = ingestCost(*s->server,
                            std::span(inserts).subspan(insertOffsets.size()),
                            config.seconds * (1.0 - kChurnShare));
        result.ops(ingest.offered, ingest.refused);
    }
    std::uint64_t mismatches = 0;
    if (churn) {
        mismatches = parityMismatches(*s, config.seed);
        result.check(kParityChecks + 1, mismatches);
    } else {
        std::size_t checked = 0;
        mismatches = replayMismatches(*s->server, load, config.seed, checked);
        result.check(checked, mismatches);
    }
    std::printf("check: %s %llu mismatches, %llu dropped requests, %llu "
                "refused inserts\n",
                churn ? "post-compaction parity" : "hub-exact replay",
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(load.dropped),
                static_cast<unsigned long long>(load.insertsRefused +
                                                ingest.refused));

    const serve::ServeStats &a = load.atStart;
    const serve::ServeStats &b = load.afterFixed;
    const double requests =
        static_cast<double>(b.requestsServed - a.requestsServed);
    if (config.trace) {
        const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
        const double lookups =
            hits + static_cast<double>(b.cache.misses - a.cache.misses);
        result.add("serve.batch_mean",
                   requests / static_cast<double>(b.batchesServed -
                                                  a.batchesServed),
                   "requests");
        result.add("serve.hit_rate", lookups > 0.0 ? hits / lookups : 0.0,
                   "ratio");
        result.add("serve.bytes_per_req",
                   static_cast<double>(b.bytesGathered - a.bytesGathered) /
                       requests,
                   "B");
        result.add("loadgen.late_p99_us",
                   nearestRank(load.fixedLatenessUs, 0.99), "us");
        if (churn) {
            result.add("delta.insert_us",
                       median(insertTracer.durations("delta.insert")) * 1e6,
                       "us");
            result.add("delta.compact_ms",
                       compactionMs(*s, inserts, tracer), "ms");
            result.add("graph.delta_edges",
                       static_cast<double>(b.edgeInserts - a.edgeInserts),
                       "count");
            result.add("serve.invalidations",
                       static_cast<double>(b.cache.invalidations -
                                           a.cache.invalidations),
                       "count");
            result.add("ingest.late_p99_us",
                       nearestRank(load.insertLatenessUs, 0.99), "us");
        }
        if (!config.traceOut.empty()) {
            std::string json = "[";
            tracer.appendJson(json, "main");
            insertTracer.appendJson(json, "inserter");
            json += "]\n";
            writeTextFile(config.traceOut, json);
        }
        return result;
    }

    // The usual names, with units; the JSON carries the gated slots.
    const std::vector<double> &lat = load.fixedLatencyUs;
    std::printf("p50_us %.1f us, p90_us %.1f us, p99_us %.1f us (%zu "
                "requests at %.0f/s, timed from due time)\n",
                nearestRank(lat, 0.5), nearestRank(lat, 0.9),
                nearestRank(lat, 0.99), lat.size(), kRequestRate);
    std::printf("generator lateness p99 %.1f us; server CPU %.2f us per "
                "request\n",
                nearestRank(load.fixedLatenessUs, 0.99),
                load.fixedCpuUsPerRequest);
    if (churn) {
        const std::vector<double> &ins = load.insertLatencyUs;
        const double insertCall = median(load.insertCallUs);
        std::printf("insert_p50_us %.1f us, insert_p90_us %.1f us, "
                    "insert_p99_us %.1f us (%zu inserts at %.0f/s, timed "
                    "from due time; generator lateness p99 %.1f us; "
                    "insertEdge call median %.3f us)\n",
                    nearestRank(ins, 0.5), nearestRank(ins, 0.9),
                    nearestRank(ins, 0.99), ins.size(), kInsertRate,
                    nearestRank(load.insertLatenessUs, 0.99), insertCall);
        // Per accepted edge: the insert itself plus its share of a
        // compaction every kCompactEvery inserts.
        const double ingestUs =
            ingest.insertUs +
            ingest.compactMs * 1e3 / static_cast<double>(kCompactEvery);
        std::printf("ingest_us %.3f us per edge closed-loop (insertEdge "
                    "%.3f us, compactNow %.3f ms per %llu inserts; %llu "
                    "inserts)\n",
                    ingestUs, ingest.insertUs, ingest.compactMs,
                    static_cast<unsigned long long>(kCompactEvery),
                    static_cast<unsigned long long>(ingest.offered));
        result.add("op_us", load.fixedCpuUsPerRequest, "us");
        result.add("aux_us", ingestUs, "us");
    } else {
        std::printf("capacity_rps %.0f requests/s (%zu requests, %zu kept "
                    "outstanding; server CPU %.2f us per request, p99 "
                    "%.1f us)\n",
                    load.capacityRps, load.capacityLatencyUs.size(),
                    kCapacityDepth, load.capacityCpuUsPerRequest,
                    nearestRank(load.capacityLatencyUs, 0.99));
        result.add("op_us", load.capacityCpuUsPerRequest, "us");
        result.add("aux_us", load.fixedCpuUsPerRequest, "us");
    }

    // The other half of the set-ups, so setup_s samples the host at
    // both ends of the run.
    s.reset();
    while (setupSeconds.size() < static_cast<std::size_t>(setups)) {
        Timer timer;
        const Serving discarded(config.seed, churn);
        setupSeconds.push_back(timer.seconds());
    }
    result.add("setup_s", median(setupSeconds), "s");
    return result;
}

} // namespace perfbench
