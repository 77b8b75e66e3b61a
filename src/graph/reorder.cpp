#include "graph/reorder.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/assert.h"
#include "common/rng.h"

namespace graphite {

ProcessingOrder
localityOrder(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    // bucketOf[v] = the vertex whose bucket L_{u'} receives v.
    std::vector<VertexId> bucketOf(n);
    std::vector<VertexId> bucketSize(n, 0);
    for (VertexId v = 0; v < n; ++v) {
        VertexId best = v;
        EdgeId bestDeg = graph.degree(v);
        for (VertexId u : graph.neighbors(v)) {
            if (graph.degree(u) > bestDeg) {
                best = u;
                bestDeg = graph.degree(u);
            }
        }
        bucketOf[v] = best;
        ++bucketSize[best];
    }
    // Emit buckets L_0, L_1, ... consecutively (paper Lines 8-12) using a
    // counting-sort layout so the whole pass stays O(|V| + |E|).
    std::vector<std::size_t> bucketStart(n + 1, 0);
    for (VertexId v = 0; v < n; ++v)
        bucketStart[v + 1] = bucketStart[v] + bucketSize[v];
    ProcessingOrder order(n);
    std::vector<std::size_t> cursor(bucketStart.begin(),
                                    bucketStart.end() - 1);
    for (VertexId v = 0; v < n; ++v)
        order[cursor[bucketOf[v]]++] = v;
    return order;
}

ProcessingOrder
identityOrder(const CsrGraph &graph)
{
    ProcessingOrder order(graph.numVertices());
    std::iota(order.begin(), order.end(), VertexId{0});
    return order;
}

ProcessingOrder
randomOrder(const CsrGraph &graph, std::uint64_t seed)
{
    ProcessingOrder order = identityOrder(graph);
    Rng rng(seed);
    // Fisher-Yates shuffle.
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniformInt(i)]);
    return order;
}

ProcessingOrder
degreeOrder(const CsrGraph &graph)
{
    ProcessingOrder order = identityOrder(graph);
    std::stable_sort(order.begin(), order.end(),
                     [&](VertexId a, VertexId b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    return order;
}

ProcessingOrder
bfsOrder(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    ProcessingOrder order;
    // The unconditional runFrom(start) below would index visited[0] on
    // an empty graph.
    if (n == 0)
        return order;
    order.reserve(n);
    std::vector<bool> visited(n, false);

    // Start from the highest-degree vertex; restart from the next
    // unvisited id for further components.
    VertexId start = 0;
    for (VertexId v = 1; v < n; ++v) {
        if (graph.degree(v) > graph.degree(start))
            start = v;
    }
    VertexId nextUnvisited = 0;
    auto runFrom = [&](VertexId root) {
        visited[root] = true;
        std::size_t head = order.size();
        order.push_back(root);
        while (head < order.size()) {
            const VertexId v = order[head++];
            for (VertexId u : graph.neighbors(v)) {
                if (!visited[u]) {
                    visited[u] = true;
                    order.push_back(u);
                }
            }
        }
    };
    runFrom(start);
    while (order.size() < n) {
        while (visited[nextUnvisited])
            ++nextUnvisited;
        runFrom(nextUnvisited);
    }
    return order;
}

bool
isPermutation(const CsrGraph &graph, const ProcessingOrder &order)
{
    if (order.size() != graph.numVertices())
        return false;
    std::vector<bool> seen(order.size(), false);
    for (VertexId v : order) {
        if (v >= order.size() || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

double
averageReuseDistance(const CsrGraph &graph, const ProcessingOrder &order,
                     std::size_t cap)
{
    GRAPHITE_ASSERT(isPermutation(graph, order),
                    "order must be a permutation of V");
    // lastTouch[u] = processing step at which u's features were last read.
    constexpr std::size_t kNever = ~std::size_t{0};
    std::vector<std::size_t> lastTouch(graph.numVertices(), kNever);
    double total = 0.0;
    std::size_t reuses = 0;
    for (std::size_t step = 0; step < order.size(); ++step) {
        const VertexId v = order[step];
        auto touch = [&](VertexId u) {
            // First touches are compulsory misses: every order pays
            // exactly |V| of them, so only genuine reuses enter the
            // average (capped so pathological distances do not drown
            // the locality signal).
            if (lastTouch[u] != kNever) {
                std::size_t dist = step - lastTouch[u];
                total += static_cast<double>(std::min(dist, cap));
                ++reuses;
            }
            lastTouch[u] = step;
        };
        for (VertexId u : graph.neighbors(v))
            touch(u);
        touch(v);
    }
    return reuses ? total / static_cast<double>(reuses) : 0.0;
}

} // namespace graphite
