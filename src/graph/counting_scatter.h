/**
 * @file
 * Deterministic parallel counting scatter: the one bucketing pass behind
 * GraphBuilder::build, CsrGraph::transposed and transposeSpec.
 *
 * Items [0, n) each carry a key in [0, numKeys) and a value. The scatter
 * groups the values by key, key 0's first, and within a key keeps item
 * order: exactly what the serial loop
 *
 *     for (i = 0; i < n; ++i) out[cursor[key(i)]++] = value(i);
 *
 * writes once a counting pass has set each cursor to its key's offset.
 * In parallel it splits the items into P contiguous blocks of equal
 * size, counts keys per block, lays the write offsets out in (key,
 * block) order and then scatters every block in item order. Block b's
 * items of key k land after those of blocks < b and before those of
 * blocks > b, so the output is the serial loop's for every P, and hence
 * for every pool size.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/function_ref.h"
#include "common/types.h"

namespace graphite {

/**
 * Inputs below this many items (edges) run as one block on the calling
 * thread, with no pool hop: small graphs and the per-batch transposes
 * of sampled blocks gain nothing from the pool.
 */
inline constexpr std::size_t kGraphSerialItems = std::size_t{1} << 16;

/**
 * Run @p body(begin, end) over chunks of the vertex range
 * [0, numVertices) of a graph with @p numEdges edges: as one range on
 * the calling thread below kGraphSerialItems edges, else dynamically
 * over the global pool. For per-row loops whose rows are independent;
 * like the scatter, never call it on a large graph from a pool worker.
 */
void forEachRowChunk(std::size_t numVertices, std::size_t numEdges,
                     FunctionRef<void(std::size_t, std::size_t)> body);

namespace detail {

/** Block split and per-block key cursors of one countingScatter. */
class ScatterBlocks
{
  public:
    ScatterBlocks(std::size_t numItems, std::size_t numKeys);

    /** First item of block @p b; the block past the last ends the items. */
    std::size_t
    blockBegin(std::size_t b) const
    {
        return numItems_ / numBlocks_ * b +
               std::min(b, numItems_ % numBlocks_);
    }

    /**
     * Run @p body(b) for every block: on the calling thread when there
     * is one block, else on the global pool.
     */
    void forEachBlock(FunctionRef<void(std::size_t)> body);

    /** Allocate block @p b's key counters, zeroed. */
    EdgeId *zeroCounts(std::size_t b);

    /** Block @p b's key counters (write cursors after layOut()). */
    EdgeId *cursors(std::size_t b) { return counts_[b].data(); }

    /**
     * Turn the per-block counts into per-block write cursors in (key,
     * block) order.
     *
     * @return the key offsets (numKeys + 1 entries, the CSR rowPtr).
     */
    std::vector<EdgeId> layOut();

  private:
    std::size_t numItems_;
    std::size_t numKeys_;
    std::size_t numBlocks_;
    std::vector<std::vector<EdgeId>> counts_;
};

} // namespace detail

/**
 * Bucket @p numItems items by key into @p out (numItems entries).
 *
 * @param visit called as visit(begin, end, sink) for item ranges;
 *        it must call sink(key, value) once per item of [begin, end),
 *        in item order. It runs twice per block (count, then scatter),
 *        possibly on several threads at once, so it must only read.
 * @return the key offsets (numKeys + 1 entries): key k's values are
 *         out[offsets[k], offsets[k + 1]).
 */
template <typename T, typename Visit>
std::vector<EdgeId>
countingScatter(std::size_t numItems, std::size_t numKeys,
                const Visit &visit, T *out)
{
    detail::ScatterBlocks blocks(numItems, numKeys);
    blocks.forEachBlock([&](std::size_t b) {
        EdgeId *count = blocks.zeroCounts(b);
        visit(blocks.blockBegin(b), blocks.blockBegin(b + 1),
              [count](std::size_t key, const T &) { ++count[key]; });
    });
    std::vector<EdgeId> offsets = blocks.layOut();
    blocks.forEachBlock([&](std::size_t b) {
        EdgeId *cursor = blocks.cursors(b);
        visit(blocks.blockBegin(b), blocks.blockBegin(b + 1),
              [cursor, out](std::size_t key, const T &value) {
                  out[cursor[key]++] = value;
              });
    });
    return offsets;
}

} // namespace graphite
