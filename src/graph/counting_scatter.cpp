#include "graph/counting_scatter.h"

#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace graphite {

namespace {

/** Vertices per dynamically scheduled chunk of a per-row loop. */
constexpr std::size_t kRowChunk = 1024;

} // namespace

void
forEachRowChunk(std::size_t numVertices, std::size_t numEdges,
                FunctionRef<void(std::size_t, std::size_t)> body)
{
    if (numEdges < kGraphSerialItems) {
        body(0, numVertices);
        return;
    }
    GRAPHITE_TRACE_SPAN("graph.rows");
    parallelFor(0, numVertices, kRowChunk,
                [&](std::size_t begin, std::size_t end, std::size_t) {
                    body(begin, end);
                });
}

namespace detail {

ScatterBlocks::ScatterBlocks(std::size_t numItems, std::size_t numKeys)
    : numItems_(numItems), numKeys_(numKeys), numBlocks_(1)
{
    // One block below the serial cutoff; above it, one block per pool
    // thread, but never so many that the per-block counters (8 B a key)
    // outweigh the items they bucket.
    if (numItems >= kGraphSerialItems) {
        const std::size_t cap =
            numItems / std::max(numKeys, kGraphSerialItems);
        numBlocks_ = std::max<std::size_t>(
            1, std::min(ThreadPool::global().numThreads(), cap));
    }
    counts_.resize(numBlocks_);
}

void
ScatterBlocks::forEachBlock(FunctionRef<void(std::size_t)> body)
{
    if (numBlocks_ == 1) {
        body(0);
        return;
    }
    GRAPHITE_TRACE_SPAN("graph.scatter");
    parallelFor(0, numBlocks_, 1,
                [&](std::size_t begin, std::size_t end, std::size_t) {
                    for (std::size_t b = begin; b < end; ++b)
                        body(b);
                });
}

EdgeId *
ScatterBlocks::zeroCounts(std::size_t b)
{
    counts_[b].assign(numKeys_, 0);
    return counts_[b].data();
}

std::vector<EdgeId>
ScatterBlocks::layOut()
{
    // Per key, each block's offset among the key's items; the key's
    // total goes to offsets[k + 1] for the scan below.
    std::vector<EdgeId> offsets(numKeys_ + 1, 0);
    forEachRowChunk(numKeys_, numItems_,
                    [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
            EdgeId running = 0;
            for (std::vector<EdgeId> &count : counts_) {
                const EdgeId c = count[k];
                count[k] = running;
                running += c;
            }
            offsets[k + 1] = running;
        }
    });
    for (std::size_t k = 0; k < numKeys_; ++k)
        offsets[k + 1] += offsets[k];
    forEachRowChunk(numKeys_, numItems_,
                    [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
            for (std::vector<EdgeId> &count : counts_)
                count[k] += offsets[k];
        }
    });
    return offsets;
}

} // namespace detail

} // namespace graphite
