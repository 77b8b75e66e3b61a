#include "kernels/aggregation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/assert.h"
#include "graph/counting_scatter.h"
#include "graph/delta_csr.h"

#if defined(__AVX512F__)
#define GRAPHITE_AGG_AVX512 1
#include <immintrin.h>
#else
#define GRAPHITE_AGG_AVX512 0
#endif

namespace graphite {

AggregationSpec
gcnSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    const std::span<const EdgeId> rowPtr = graph.rowPtr();
    const std::span<const VertexId> colIdx = graph.colIdx();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    std::vector<Feature> invSqrt(n);
    forEachRowChunk(n, colIdx.size(),
                    [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            invSqrt[v] = 1.0f / std::sqrt(static_cast<Feature>(
                rowPtr[v + 1] - rowPtr[v] + 1));
        }
    });
    forEachRowChunk(n, colIdx.size(),
                    [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            spec.selfFactors[v] = invSqrt[v] * invSqrt[v];
            for (EdgeId e = rowPtr[v]; e < rowPtr[v + 1]; ++e)
                spec.edgeFactors[e] = invSqrt[v] * invSqrt[colIdx[e]];
        }
    });
    return spec;
}

AggregationSpec
sageSpec(const CsrGraph &graph)
{
    const VertexId n = graph.numVertices();
    const std::span<const EdgeId> rowPtr = graph.rowPtr();
    AggregationSpec spec;
    spec.selfFactors.resize(n);
    spec.edgeFactors.resize(graph.numEdges());
    forEachRowChunk(n, graph.numEdges(),
                    [&](std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
            const Feature mean = 1.0f / static_cast<Feature>(
                rowPtr[v + 1] - rowPtr[v] + 1);
            spec.selfFactors[v] = mean;
            for (EdgeId e = rowPtr[v]; e < rowPtr[v + 1]; ++e)
                spec.edgeFactors[e] = mean;
        }
    });
    return spec;
}

AggregationSpec
ginSpec(const CsrGraph &graph, Feature epsilon)
{
    AggregationSpec spec;
    spec.selfFactors.assign(graph.numVertices(), 1.0f + epsilon);
    return spec;
}

AggregationSpec
sumSpec()
{
    return {};
}

AggregationSpec
maxSpec()
{
    AggregationSpec spec;
    spec.reduce = ReduceOp::Max;
    return spec;
}

const char *
validateSpec(const AggregationSpec &spec, const CsrGraph &graph)
{
    if (!spec.edgeFactors.empty() &&
        spec.edgeFactors.size() != graph.numEdges())
        return "edge-factor array length must equal |E|";
    if (!spec.selfFactors.empty() &&
        spec.selfFactors.size() != graph.numVertices())
        return "self-factor array length must equal |V|";
    return nullptr;
}

namespace {

#if GRAPHITE_AGG_AVX512

/**
 * Register-resident aggregation for feature vectors of Groups x 16
 * floats: the accumulator a_v lives entirely in zmm registers across all
 * neighbours, exactly what the paper's JIT-specialised kernels achieve
 * with layer-constant code generation. The reduction operator is a
 * template parameter so each (width, op) pair gets its own straight-line
 * kernel, like per-layer JIT output.
 */
template <int Groups, ReduceOp Op>
void
aggregateVertexZmm(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                   const AggregationSpec &spec, Feature *dst)
{
    __m512 acc[Groups];
    const Feature *self = in.row(v);
    const __m512 selfFactor = _mm512_set1_ps(spec.selfFactor(v));
    for (int g = 0; g < Groups; ++g)
        acc[g] = _mm512_mul_ps(_mm512_loadu_ps(self + g * 16), selfFactor);
    const EdgeId rowEnd = graph.rowEnd(v);
    for (EdgeId e = graph.rowBegin(v); e < rowEnd; ++e) {
        const Feature *src = in.row(graph.colIdx()[e]);
        const __m512 factor = _mm512_set1_ps(spec.edgeFactor(e));
        for (int g = 0; g < Groups; ++g) {
            const __m512 value = _mm512_loadu_ps(src + g * 16);
            if constexpr (Op == ReduceOp::Sum) {
                acc[g] = _mm512_fmadd_ps(value, factor, acc[g]);
            } else {
                acc[g] = _mm512_max_ps(
                    acc[g], _mm512_mul_ps(value, factor));
            }
        }
    }
    for (int g = 0; g < Groups; ++g)
        _mm512_storeu_ps(dst + g * 16, acc[g]);
}

using VertexKernel = void (*)(const CsrGraph &, const DenseMatrix &,
                              VertexId, const AggregationSpec &, Feature *);

/** Kernels for Groups = 1..N of one reduction, indexed by Groups - 1. */
template <ReduceOp Op, std::size_t... G>
constexpr std::array<VertexKernel, sizeof...(G)>
zmmKernels(std::index_sequence<G...>)
{
    return {aggregateVertexZmm<static_cast<int>(G) + 1, Op>...};
}

/** Kernel tables indexed by Groups - 1; the JIT-dispatch analogue. */
constexpr auto kZmmSumKernels =
    zmmKernels<ReduceOp::Sum>(std::make_index_sequence<16>{});
constexpr auto kZmmMaxKernels =
    zmmKernels<ReduceOp::Max>(std::make_index_sequence<16>{});
constexpr std::size_t kMaxZmmGroups = kZmmSumKernels.size();

#endif // GRAPHITE_AGG_AVX512

/** Generic (any width) scalar-vectorisable fallback. */
void
aggregateVertexGeneric(const CsrGraph &graph, const DenseMatrix &in,
                       VertexId v, const AggregationSpec &spec, Feature *dst)
{
    const std::size_t f = in.cols();
    const Feature *self = in.row(v);
    const Feature sw = spec.selfFactor(v);
    #pragma omp simd
    for (std::size_t c = 0; c < f; ++c)
        dst[c] = sw * self[c];
    const EdgeId rowEnd = graph.rowEnd(v);
    for (EdgeId e = graph.rowBegin(v); e < rowEnd; ++e) {
        const Feature *src = in.row(graph.colIdx()[e]);
        const Feature ew = spec.edgeFactor(e);
        if (spec.reduce == ReduceOp::Sum) {
            #pragma omp simd
            for (std::size_t c = 0; c < f; ++c)
                dst[c] += ew * src[c];
        } else {
            #pragma omp simd
            for (std::size_t c = 0; c < f; ++c)
                dst[c] = std::max(dst[c], ew * src[c]);
        }
    }
}

} // namespace

void
aggregateVertex(const CsrGraph &graph, const DenseMatrix &in, VertexId v,
                const AggregationSpec &spec, Feature *dst)
{
#if GRAPHITE_AGG_AVX512
    const std::size_t stride = in.rowStride();
    const std::size_t groups = stride / 16;
    if (groups >= 1 && groups <= kMaxZmmGroups && stride % 16 == 0) {
        const VertexKernel *table = spec.reduce == ReduceOp::Sum
            ? kZmmSumKernels.data() : kZmmMaxKernels.data();
        table[groups - 1](graph, in, v, spec, dst);
        return;
    }
#endif
    aggregateVertexGeneric(graph, in, v, spec, dst);
}

namespace {

/**
 * One destination's neighbours in a BlockView, resolved to input rows:
 * size() and operator[] are all the mean kernels touch, the same shape
 * as a DeltaCsr::RowView so both instantiate one kernel.
 */
struct BlockRow
{
    std::size_t
    size() const
    {
        return cols.size();
    }

    std::size_t
    operator[](std::size_t e) const
    {
        return block.srcRow(cols[e]);
    }

    const BlockView &block;
    std::span<const VertexId> cols;
};

/** The mean's scale, 1/(n + 1) for n neighbours. */
inline Feature
meanScale(std::size_t n)
{
    return 1.0f / (1.0f + static_cast<Feature>(n));
}

#if GRAPHITE_AGG_AVX512

/**
 * Register-resident mean for rows of up to Groups x 16 floats: sum the
 * self row and every neighbour row in zmm accumulators, scale once,
 * store in.cols() floats. Loads read whole padded rows (rowStride is a
 * multiple of 16); only the store is masked.
 */
template <int Groups, typename Neighbors>
void
meanRowZmm(const DenseMatrix &in, std::size_t self, const Neighbors &nbrs,
           Feature *dst)
{
    __m512 acc[Groups];
    const Feature *selfRow = in.row(self);
    for (int g = 0; g < Groups; ++g)
        acc[g] = _mm512_loadu_ps(selfRow + g * 16);
    const std::size_t n = nbrs.size();
    for (std::size_t e = 0; e < n; ++e) {
        const Feature *src = in.row(nbrs[e]);
        for (int g = 0; g < Groups; ++g)
            acc[g] = _mm512_add_ps(acc[g], _mm512_loadu_ps(src + g * 16));
    }
    const __m512 scale = _mm512_set1_ps(meanScale(n));
    for (int g = 0; g + 1 < Groups; ++g)
        _mm512_storeu_ps(dst + g * 16, _mm512_mul_ps(acc[g], scale));
    const std::size_t tail = in.cols() - (Groups - 1) * 16;
    const auto mask = static_cast<__mmask16>((1U << tail) - 1U);
    _mm512_mask_storeu_ps(dst + (Groups - 1) * 16, mask,
                          _mm512_mul_ps(acc[Groups - 1], scale));
}

template <typename Neighbors>
using MeanKernel = void (*)(const DenseMatrix &, std::size_t,
                            const Neighbors &, Feature *);

template <typename Neighbors, std::size_t... G>
constexpr std::array<MeanKernel<Neighbors>, sizeof...(G)>
meanKernels(std::index_sequence<G...>)
{
    return {meanRowZmm<static_cast<int>(G) + 1, Neighbors>...};
}

/** Mean kernels indexed by Groups - 1, as kZmmSumKernels. */
template <typename Neighbors>
constexpr auto kMeanKernels =
    meanKernels<Neighbors>(std::make_index_sequence<kMaxZmmGroups>{});

#endif // GRAPHITE_AGG_AVX512

/** The same sum-then-scale order at any width. */
template <typename Neighbors>
void
meanRowGeneric(const DenseMatrix &in, std::size_t self,
               const Neighbors &nbrs, Feature *dst)
{
    const std::size_t f = in.cols();
    const Feature *selfRow = in.row(self);
    #pragma omp simd
    for (std::size_t c = 0; c < f; ++c)
        dst[c] = selfRow[c];
    const std::size_t n = nbrs.size();
    for (std::size_t e = 0; e < n; ++e) {
        const Feature *src = in.row(nbrs[e]);
        #pragma omp simd
        for (std::size_t c = 0; c < f; ++c)
            dst[c] += src[c];
    }
    const Feature scale = meanScale(n);
    #pragma omp simd
    for (std::size_t c = 0; c < f; ++c)
        dst[c] *= scale;
}

template <typename Neighbors>
void
meanRow(const DenseMatrix &in, std::size_t self, const Neighbors &nbrs,
        Feature *dst)
{
#if GRAPHITE_AGG_AVX512
    const std::size_t groups = (in.cols() + 15) / 16;
    if (groups >= 1 && groups <= kMaxZmmGroups) {
        kMeanKernels<Neighbors>[groups - 1](in, self, nbrs, dst);
        return;
    }
#endif
    meanRowGeneric(in, self, nbrs, dst);
}

} // namespace

void
blockMeanRow(const BlockView &block, const DenseMatrix &in, std::size_t i,
             Feature *dst)
{
    const BlockRow row{block, block.colIdx.subspan(
                                  block.rowPtr[i],
                                  block.rowPtr[i + 1] - block.rowPtr[i])};
    meanRow(in, block.srcRow(i), row, dst);
}

void
fullMeanRow(const CsrGraph &graph, const DenseMatrix &features, VertexId v,
            Feature *dst)
{
    blockMeanRow({graph.rowPtr(), graph.colIdx(), {}}, features, v, dst);
}

void
fullMeanRow(const DeltaCsr &graph, const DenseMatrix &features, VertexId v,
            Feature *dst)
{
    meanRow(features, v, graph.neighborsView(v), dst);
}

void
aggregateBasic(const CsrGraph &graph, const DenseMatrix &in,
               DenseMatrix &out, const AggregationSpec &spec,
               std::span<const VertexId> order,
               const AggregationConfig &config)
{
    aggregate(graph, in, out, spec, order, config);
}

void
aggregateCompressed(const CsrGraph &graph, const CompressedMatrix &in,
                    DenseMatrix &out, const AggregationSpec &spec,
                    std::span<const VertexId> order,
                    const AggregationConfig &config)
{
    aggregate(graph, in, out, spec, order, config);
}

namespace {

/**
 * dst[0..f) ⊕= factor * bf16row (expanded to fp32). AVX-512 path
 * expands 16 bf16 lanes per step by a 16-bit shift into the float's
 * high half; accumulation is full fp32.
 */
void
combineBf16Row(const std::uint16_t *src, std::size_t f, Feature factor,
               Feature *dst, ReduceOp reduce)
{
#if GRAPHITE_AGG_AVX512
    if (f % 16 == 0) {
        const __m512 factorVec = _mm512_set1_ps(factor);
        for (std::size_t g = 0; g < f; g += 16) {
            const __m256i raw = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + g));
            const __m512 values = _mm512_castsi512_ps(
                _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16));
            const __m512 acc = _mm512_loadu_ps(dst + g);
            if (reduce == ReduceOp::Sum) {
                _mm512_storeu_ps(dst + g,
                                 _mm512_fmadd_ps(values, factorVec,
                                                 acc));
            } else {
                _mm512_storeu_ps(
                    dst + g,
                    _mm512_max_ps(acc,
                                  _mm512_mul_ps(values, factorVec)));
            }
        }
        return;
    }
#endif
    for (std::size_t c = 0; c < f; ++c) {
        const std::uint32_t bits = static_cast<std::uint32_t>(src[c])
                                   << 16;
        Feature value;
        std::memcpy(&value, &bits, sizeof(value));
        value *= factor;
        dst[c] = reduce == ReduceOp::Sum ? dst[c] + value
                                         : std::max(dst[c], value);
    }
}

} // namespace

void
aggregateVertexBf16(const CsrGraph &graph, const Bf16Matrix &in,
                    VertexId v, const AggregationSpec &spec, Feature *dst,
                    std::size_t width)
{
    // Seed the accumulator with the self term (Sum-combining into zeros
    // yields selfFactor * h_v for either reduce op).
    std::fill(dst, dst + width, 0.0f);
    combineBf16Row(in.row(v), width, spec.selfFactor(v), dst,
                   ReduceOp::Sum);
    for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
        combineBf16Row(in.row(graph.colIdx()[e]), width,
                       spec.edgeFactor(e), dst, spec.reduce);
    }
}

void
aggregateReference(const CsrGraph &graph, const DenseMatrix &in,
                   DenseMatrix &out, const AggregationSpec &spec)
{
    const VertexId n = graph.numVertices();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < in.cols(); ++c)
            dst[c] = spec.selfFactor(v) * self[c];
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            const Feature *src = in.row(graph.colIdx()[e]);
            for (std::size_t c = 0; c < in.cols(); ++c) {
                const Feature value = spec.edgeFactor(e) * src[c];
                dst[c] = spec.reduce == ReduceOp::Sum
                    ? dst[c] + value : std::max(dst[c], value);
            }
        }
    }
}

void
aggregateTransposedPush(const CsrGraph &graph, const DenseMatrix &in,
                        DenseMatrix &out, const AggregationSpec &spec)
{
    GRAPHITE_ASSERT(spec.reduce == ReduceOp::Sum,
                    "push-style transposed aggregation requires sum");
    if (const char *error = validateSpec(spec, graph))
        panic("aggregateTransposedPush: %s", error);
    const VertexId n = graph.numVertices();
    GRAPHITE_ASSERT(in.rows() == n && out.rows() == n, "row mismatch");
    GRAPHITE_ASSERT(in.cols() == out.cols(), "width mismatch");
    const std::size_t cols = in.cols();
    for (VertexId v = 0; v < n; ++v) {
        Feature *dst = out.row(v);
        const Feature *self = in.row(v);
        for (std::size_t c = 0; c < cols; ++c)
            dst[c] = spec.selfFactor(v) * self[c];
    }
    // Scatter pass: edge (v, u) carries factor(v, u) in the forward
    // direction, so it contributes in[v] to out[u] in the transpose.
    for (VertexId v = 0; v < n; ++v) {
        const Feature *src = in.row(v);
        for (EdgeId e = graph.rowBegin(v); e < graph.rowEnd(v); ++e) {
            Feature *dst = out.row(graph.colIdx()[e]);
            const Feature factor = spec.edgeFactor(e);
            for (std::size_t c = 0; c < cols; ++c)
                dst[c] += factor * src[c];
        }
    }
}

} // namespace graphite
