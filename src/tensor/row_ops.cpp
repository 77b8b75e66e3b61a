#include "tensor/row_ops.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

#if defined(__AVX512F__)
#define GRAPHITE_ROW_OPS_AVX512 1
#include <immintrin.h>
#else
#define GRAPHITE_ROW_OPS_AVX512 0
#endif

namespace graphite {

void
addBias(DenseMatrix &out, std::span<const Feature> bias)
{
    GRAPHITE_ASSERT(bias.size() == out.cols(), "bias width mismatch");
    GRAPHITE_TRACE_SPAN("row.bias");
    parallelFor(0, out.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = out.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < out.cols(); ++c)
                rowData[c] += bias[c];
        }
    });
}

void
addBiasSerial(DenseMatrix &out, std::span<const Feature> bias)
{
    GRAPHITE_ASSERT(bias.size() == out.cols(), "bias width mismatch");
    for (std::size_t r = 0; r < out.rows(); ++r) {
        Feature *rowData = out.row(r);
        #pragma omp simd
        for (std::size_t c = 0; c < out.cols(); ++c)
            rowData[c] += bias[c];
    }
}

void
reluForward(DenseMatrix &x)
{
    GRAPHITE_TRACE_SPAN("row.relu");
    parallelFor(0, x.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            Feature *rowData = x.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < x.cols(); ++c)
                rowData[c] = std::max(rowData[c], 0.0f);
        }
    });
}

void
reluForwardSerial(DenseMatrix &x)
{
    for (std::size_t r = 0; r < x.rows(); ++r) {
        Feature *rowData = x.row(r);
        #pragma omp simd
        for (std::size_t c = 0; c < x.cols(); ++c)
            rowData[c] = std::max(rowData[c], 0.0f);
    }
}

void
reluBackward(const DenseMatrix &activated, DenseMatrix &grad)
{
    GRAPHITE_ASSERT(activated.rows() == grad.rows() &&
                        activated.cols() == grad.cols(),
                    "relu backward shape mismatch");
    GRAPHITE_TRACE_SPAN("row.relu_backward");
    parallelFor(0, grad.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *act = activated.row(r);
            Feature *g = grad.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < grad.cols(); ++c)
                g[c] = act[c] > 0.0f ? g[c] : 0.0f;
        }
    });
}

void
columnSum(const DenseMatrix &x, std::span<Feature> out,
          std::vector<Feature> &scratch)
{
    GRAPHITE_ASSERT(out.size() == x.cols(), "column sum width mismatch");
    GRAPHITE_TRACE_SPAN("row.column_sum");
    const std::size_t cols = x.cols();
    // Chunk size is a fixed constant, not derived from the thread
    // count: partials are indexed by chunk id, so the reduction order
    // (and the float rounding) is a function of the input shape alone.
    constexpr std::size_t kChunkRows = 1024;
    const std::size_t numChunks =
        x.rows() == 0 ? 0 : (x.rows() + kChunkRows - 1) / kChunkRows;
    if (scratch.size() < numChunks * cols)
        scratch.resize(numChunks * cols);
    parallelFor(0, x.rows(), kChunkRows,
                [&](std::size_t begin, std::size_t end, std::size_t) {
        // parallelFor hands out [begin, end) ranges aligned to the
        // chunk size, so begin identifies the partial-sum slot.
        Feature *partial = scratch.data() + begin / kChunkRows * cols;
        std::fill(partial, partial + cols, 0.0f);
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *rowData = x.row(r);
            #pragma omp simd
            for (std::size_t c = 0; c < cols; ++c)
                partial[c] += rowData[c];
        }
    });
    std::fill(out.begin(), out.end(), 0.0f);
    for (std::size_t chunk = 0; chunk < numChunks; ++chunk) {
        const Feature *partial = scratch.data() + chunk * cols;
        #pragma omp simd
        for (std::size_t c = 0; c < cols; ++c)
            out[c] += partial[c];
    }
}

namespace {

std::size_t
maskWords(const DenseMatrix &x)
{
    return (x.rows() * x.rowStride() + 63) / 64;
}

Feature
survivorScale(double rate)
{
    return static_cast<Feature>(1.0 / (1.0 - rate));
}

/**
 * The counter-based dropout draw: element (r, c) is kept iff
 * hash(rowKey(r), c) >= drop. Everything is a pure function of
 * (seed, r, c), so the mask cannot depend on how rows are chunked
 * across threads, and row and column indices never wrap.
 */
struct DropoutHash
{
    /** splitmix64 of the seed; row r's key is splitmix64(base + r). */
    std::uint64_t base;
    /** Drop threshold: round-down of rate · 2^32. */
    std::uint32_t drop;
    /** Survivor scale 1 / (1 - rate). */
    Feature scale;

    DropoutHash(std::uint64_t seed, double rate)
        : base(splitmix64(seed)),
          drop(static_cast<std::uint32_t>(rate * 4294967296.0)),
          scale(survivorScale(rate))
    {
    }

    std::uint64_t rowKey(std::size_t r) const { return splitmix64(base + r); }
};

/** Golden-ratio column stride fed to the 32-bit hash. */
constexpr std::uint32_t kColumnStride = 0x9e3779b1u;

/**
 * 32-bit hash of column(s) @p c under a row key: the column's Weyl-
 * sequence value offset and flipped by the key halves, then murmur3's
 * fmix32. @p U is std::uint32_t, or a vector of them for 16 lanes at
 * once — one source for both paths, so they agree bit for bit.
 */
template <typename U>
inline U
columnHash(std::uint64_t key, U c)
{
    U x = (c * kColumnStride + static_cast<std::uint32_t>(key)) ^
          static_cast<std::uint32_t>(key >> 32);
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
}

void
dropoutRowsScalar(DenseMatrix &x, const DropoutHash &hash,
                  std::size_t begin, std::size_t end, std::uint64_t *mask)
{
    const std::size_t cols = x.cols();
    for (std::size_t r = begin; r < end; ++r) {
        const std::uint64_t key = hash.rowKey(r);
        Feature *rowData = x.row(r);
        const std::size_t base = r * x.rowStride();
        for (std::size_t c = 0; c < cols; ++c) {
            const bool kept =
                columnHash(key, static_cast<std::uint32_t>(c)) >= hash.drop;
            rowData[c] = kept ? rowData[c] * hash.scale : 0.0f;
            const std::size_t bit = base + c;
            mask[bit / 64] |= std::uint64_t{kept} << (bit % 64);
        }
    }
}

void
dropoutBackwardRowsScalar(DenseMatrix &grad, Feature scale,
                          std::size_t begin, std::size_t end,
                          const std::uint64_t *mask)
{
    const std::size_t cols = grad.cols();
    for (std::size_t r = begin; r < end; ++r) {
        Feature *rowData = grad.row(r);
        const std::size_t base = r * grad.rowStride();
        for (std::size_t c = 0; c < cols; ++c) {
            const std::size_t bit = base + c;
            const bool kept = (mask[bit / 64] >> (bit % 64)) & 1;
            rowData[c] = kept ? rowData[c] * scale : 0.0f;
        }
    }
}

#if GRAPHITE_ROW_OPS_AVX512

/*
 * Mask layout: bit r * rowStride + c of the uint64 word array. Row
 * strides are multiples of 16 floats, so every 16-column group of a row
 * is one aligned 16-bit field of one word — the __mmask16 the vector
 * path compares out and multiplies through.
 */

typedef std::uint32_t U32x16 __attribute__((vector_size(64)));

/** Lanes of the valid columns in the 16-column group at @p c0. */
__mmask16
validLanes(std::size_t cols, std::size_t c0)
{
    return cols - c0 >= 16
               ? static_cast<__mmask16>(0xffff)
               : static_cast<__mmask16>((1u << (cols - c0)) - 1);
}

/**
 * 16 lanes per step: hash, compare to the keep mask (which *is* the
 * saved mask field), one zero-masking multiply. Padding lanes are
 * outside the valid mask, so they are written 0 and their bits stay
 * clear — what the scalar loop leaves in a matrix's zero padding.
 */
void
dropoutRowsVector(DenseMatrix &x, const DropoutHash &hash, std::size_t begin,
                  std::size_t end, std::uint64_t *mask)
{
    const std::size_t cols = x.cols();
    const U32x16 lanes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15};
    const __m512i drop = _mm512_set1_epi32(static_cast<int>(hash.drop));
    const __m512 scale = _mm512_set1_ps(hash.scale);
    for (std::size_t r = begin; r < end; ++r) {
        const std::uint64_t key = hash.rowKey(r);
        Feature *rowData = x.row(r);
        const std::size_t base = r * x.rowStride();
        for (std::size_t c0 = 0; c0 < cols; c0 += 16) {
            const U32x16 h = columnHash(
                key, lanes + static_cast<std::uint32_t>(c0));
            const __mmask16 kept = _mm512_mask_cmpge_epu32_mask(
                validLanes(cols, c0), (__m512i)h, drop);
            _mm512_store_ps(rowData + c0,
                            _mm512_maskz_mul_ps(
                                kept, _mm512_load_ps(rowData + c0), scale));
            const std::size_t bit = base + c0;
            mask[bit / 64] |= std::uint64_t{kept} << (bit % 64);
        }
    }
}

void
dropoutBackwardRowsVector(DenseMatrix &grad, Feature scaleValue,
                          std::size_t begin, std::size_t end,
                          const std::uint64_t *mask)
{
    const std::size_t cols = grad.cols();
    const __m512 scale = _mm512_set1_ps(scaleValue);
    for (std::size_t r = begin; r < end; ++r) {
        Feature *rowData = grad.row(r);
        const std::size_t base = r * grad.rowStride();
        for (std::size_t c0 = 0; c0 < cols; c0 += 16) {
            const std::size_t bit = base + c0;
            const auto kept =
                static_cast<__mmask16>(mask[bit / 64] >> (bit % 64));
            _mm512_store_ps(rowData + c0,
                            _mm512_maskz_mul_ps(
                                kept, _mm512_load_ps(rowData + c0), scale));
        }
    }
}

#endif // GRAPHITE_ROW_OPS_AVX512

} // namespace

void
dropoutForward(DenseMatrix &x, double rate, std::uint64_t seed,
               std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(rate >= 0.0 && rate < 1.0, "dropout rate out of range");
    GRAPHITE_TRACE_SPAN("row.dropout");
    mask.assign(maskWords(x), 0);
    const DropoutHash hash(seed, rate);
    std::uint64_t *words = mask.data();
    // Each task owns a disjoint row range, hence disjoint mask words:
    // parallelFor hands out ranges aligned to the 256-row grain, and
    // 256 rows of a 16-float-padded stride fill whole 64-bit words.
    parallelFor(0, x.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
#if GRAPHITE_ROW_OPS_AVX512
        dropoutRowsVector(x, hash, begin, end, words);
#else
        dropoutRowsScalar(x, hash, begin, end, words);
#endif
    });
}

void
dropoutForwardScalar(DenseMatrix &x, double rate, std::uint64_t seed,
                     std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(rate >= 0.0 && rate < 1.0, "dropout rate out of range");
    mask.assign(maskWords(x), 0);
    dropoutRowsScalar(x, DropoutHash(seed, rate), 0, x.rows(), mask.data());
}

void
dropoutBackward(DenseMatrix &grad, double rate,
                const std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(mask.size() == maskWords(grad),
                    "dropout mask size mismatch");
    GRAPHITE_TRACE_SPAN("row.dropout_backward");
    const Feature scale = survivorScale(rate);
    parallelFor(0, grad.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t) {
#if GRAPHITE_ROW_OPS_AVX512
        dropoutBackwardRowsVector(grad, scale, begin, end, mask.data());
#else
        dropoutBackwardRowsScalar(grad, scale, begin, end, mask.data());
#endif
    });
}

void
dropoutBackwardScalar(DenseMatrix &grad, double rate,
                      const std::vector<std::uint64_t> &mask)
{
    GRAPHITE_ASSERT(mask.size() == maskWords(grad),
                    "dropout mask size mismatch");
    dropoutBackwardRowsScalar(grad, survivorScale(rate), 0, grad.rows(),
                              mask.data());
}

double
softmaxCrossEntropy(const DenseMatrix &logits,
                    std::span<const std::int32_t> labels,
                    DenseMatrix &gradOut)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(gradOut.rows() == logits.rows() &&
                        gradOut.cols() == logits.cols(),
                    "grad shape mismatch");
    const std::size_t rows = logits.rows();
    const std::size_t classes = logits.cols();
    const double invRows = 1.0 / static_cast<double>(rows);
    GRAPHITE_TRACE_SPAN("row.softmax_xent");

    // Grow-only per-thread scratch: the loss runs once per epoch from
    // the training loop, and reusing the reduction buffer keeps the
    // steady-state epoch allocation-free (test_alloc_guard.cpp).
    thread_local std::vector<double> partialLoss;
    partialLoss.assign(ThreadPool::global().numThreads(), 0.0);
    // thread_local names are not captured by [&]: inside the pool
    // workers' lambda they would resolve to each worker's own (empty)
    // instance. Hand the workers the caller's buffer via a pointer.
    double *const partials = partialLoss.data();
    parallelFor(0, rows, 256,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        double loss = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
            const Feature *in = logits.row(r);
            Feature *g = gradOut.row(r);
            Feature maxLogit = in[0];
            for (std::size_t c = 1; c < classes; ++c)
                maxLogit = std::max(maxLogit, in[c]);
            double denom = 0.0;
            for (std::size_t c = 0; c < classes; ++c)
                denom += std::exp(double{in[c]} - double{maxLogit});
            const auto label = static_cast<std::size_t>(labels[r]);
            // graphite-lint: allow(assert) labels are caller input and
            // an out-of-range one must fail in release builds too; one
            // compare per row, next to the row's `classes` exp() calls.
            GRAPHITE_ASSERT(label < classes, "label out of range");
            for (std::size_t c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double{in[c]} - double{maxLogit}) / denom;
                g[c] = static_cast<Feature>(
                    (p - (c == label ? 1.0 : 0.0)) * invRows);
                if (c == label)
                    loss -= std::log(std::max(p, 1e-30));
            }
        }
        partials[tid] += loss;
    });
    double total = 0.0;
    for (double part : partialLoss)
        total += part;
    return total * invRows;
}

double
softmaxCrossEntropyMasked(const DenseMatrix &logits,
                          std::span<const std::int32_t> labels,
                          std::span<const std::uint8_t> mask,
                          DenseMatrix &gradOut)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.size() == logits.rows(), "mask count mismatch");
    GRAPHITE_ASSERT(gradOut.rows() == logits.rows() &&
                        gradOut.cols() == logits.cols(),
                    "grad shape mismatch");
    std::size_t masked = 0;
    for (std::uint8_t m : mask)
        masked += m != 0;
    gradOut.zero();
    if (masked == 0)
        return 0.0;
    const std::size_t classes = logits.cols();
    const double invCount = 1.0 / static_cast<double>(masked);
    GRAPHITE_TRACE_SPAN("row.softmax_xent_masked");

    // Same reused reduction scratch (and thread_local capture caveat)
    // as the unmasked variant above.
    thread_local std::vector<double> partialLoss;
    partialLoss.assign(ThreadPool::global().numThreads(), 0.0);
    double *const partials = partialLoss.data();
    parallelFor(0, logits.rows(), 256,
                [&](std::size_t begin, std::size_t end, std::size_t tid) {
        double loss = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
            if (!mask[r])
                continue;
            const Feature *in = logits.row(r);
            Feature *g = gradOut.row(r);
            Feature maxLogit = in[0];
            for (std::size_t c = 1; c < classes; ++c)
                maxLogit = std::max(maxLogit, in[c]);
            double denom = 0.0;
            for (std::size_t c = 0; c < classes; ++c)
                denom += std::exp(double{in[c]} - double{maxLogit});
            const auto label = static_cast<std::size_t>(labels[r]);
            // graphite-lint: allow(assert) labels are caller input and
            // an out-of-range one must fail in release builds too; one
            // compare per row, next to the row's `classes` exp() calls.
            GRAPHITE_ASSERT(label < classes, "label out of range");
            for (std::size_t c = 0; c < classes; ++c) {
                const double p =
                    std::exp(double{in[c]} - double{maxLogit}) / denom;
                g[c] = static_cast<Feature>(
                    (p - (c == label ? 1.0 : 0.0)) * invCount);
                if (c == label)
                    loss -= std::log(std::max(p, 1e-30));
            }
        }
        partials[tid] += loss;
    });
    double total = 0.0;
    for (double part : partialLoss)
        total += part;
    return total * invCount;
}

double
accuracy(const DenseMatrix &logits, std::span<const std::int32_t> labels)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    std::size_t correct = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        const Feature *row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c) {
            if (row[c] > row[best])
                best = c;
        }
        correct += best == static_cast<std::size_t>(labels[r]);
    }
    return static_cast<double>(correct) /
           static_cast<double>(logits.rows());
}

double
accuracyMasked(const DenseMatrix &logits,
               std::span<const std::int32_t> labels,
               std::span<const std::uint8_t> mask)
{
    GRAPHITE_ASSERT(labels.size() == logits.rows(), "label count mismatch");
    GRAPHITE_ASSERT(mask.size() == logits.rows(), "mask count mismatch");
    std::size_t correct = 0;
    std::size_t counted = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (!mask[r])
            continue;
        ++counted;
        const Feature *row = logits.row(r);
        std::size_t best = 0;
        for (std::size_t c = 1; c < logits.cols(); ++c) {
            if (row[c] > row[best])
                best = c;
        }
        correct += best == static_cast<std::size_t>(labels[r]);
    }
    return counted ? static_cast<double>(correct) /
                         static_cast<double>(counted)
                   : 1.0;
}

} // namespace graphite
