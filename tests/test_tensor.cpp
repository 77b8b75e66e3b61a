/**
 * @file
 * Tests for the tensor substrate: matrix storage/layout, all GEMM modes
 * against the naive reference, SpMM, and the row-wise operators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "kernels/aggregation.h"
#include "parallel/thread_pool.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm.h"
#include "tensor/row_ops.h"
#include "tensor/spmm.h"

namespace graphite {
namespace {

TEST(DenseMatrix, RowsAreCacheLineAligned)
{
    DenseMatrix m(5, 100);
    EXPECT_EQ(m.rowStride(), 112u); // 100 -> next multiple of 16
    for (std::size_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(r)) % 64, 0u);
    }
}

TEST(DenseMatrix, ExactMultipleNeedsNoPadding)
{
    DenseMatrix m(3, 256);
    EXPECT_EQ(m.rowStride(), 256u);
    EXPECT_EQ(m.rowBytes(), 1024u);
}

TEST(DenseMatrix, SparsityCountsLogicalElementsOnly)
{
    DenseMatrix m(4, 10);
    // All zero: fully sparse, regardless of padding.
    EXPECT_DOUBLE_EQ(m.sparsity(), 1.0);
    m.at(0, 0) = 1.0f;
    m.at(1, 5) = 2.0f;
    EXPECT_DOUBLE_EQ(m.sparsity(), 38.0 / 40.0);
}

TEST(DenseMatrix, SparsifyHitsTargetRate)
{
    DenseMatrix m(100, 128);
    m.fillUniform(0.5f, 1.5f, 7);
    m.sparsify(0.7, 11);
    EXPECT_NEAR(m.sparsity(), 0.7, 0.02);
}

TEST(DenseMatrix, FillUniformRespectsBounds)
{
    DenseMatrix m(10, 64);
    m.fillUniform(-2.0f, 3.0f, 5);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_GE(m.at(r, c), -2.0f);
            EXPECT_LT(m.at(r, c), 3.0f);
        }
    }
}

class GemmModes
    : public testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(GemmModes, MatchesReference)
{
    const auto [modeInt, m, n, k] = GetParam();
    const auto mode = static_cast<GemmMode>(modeInt);
    DenseMatrix a;
    DenseMatrix b;
    switch (mode) {
      case GemmMode::NN:
        a = DenseMatrix(m, k);
        b = DenseMatrix(k, n);
        break;
      case GemmMode::NT:
        a = DenseMatrix(m, k);
        b = DenseMatrix(n, k);
        break;
      case GemmMode::TN:
        a = DenseMatrix(k, m);
        b = DenseMatrix(k, n);
        break;
    }
    a.fillUniform(-1.0f, 1.0f, 1);
    b.fillUniform(-1.0f, 1.0f, 2);
    DenseMatrix c(m, n);
    DenseMatrix expected(m, n);
    gemm(mode, a, b, c);
    gemmReference(mode, a, b, expected);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmModes,
    testing::Combine(testing::Values(0, 1, 2),       // NN, NT, TN
                     testing::Values(1, 17, 64),     // M
                     testing::Values(8, 33),         // N
                     testing::Values(16, 100)));     // K

TEST(Gemm, AccumulateAddsToExisting)
{
    DenseMatrix a(4, 8);
    DenseMatrix b(8, 4);
    a.fillUniform(0.0f, 1.0f, 3);
    b.fillUniform(0.0f, 1.0f, 4);
    DenseMatrix c(4, 4);
    DenseMatrix once(4, 4);
    gemm(GemmMode::NN, a, b, once);
    gemm(GemmMode::NN, a, b, c);
    gemm(GemmMode::NN, a, b, c, GemmAccumulate::Add);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(c.at(r, j), 2.0f * once.at(r, j), 1e-4);
    }
}

TEST(GemmBlockSerial, MatchesWholeMatrixGemm)
{
    const std::size_t rows = 16;
    const std::size_t k = 48;
    const std::size_t n = 32;
    DenseMatrix a(rows, k);
    DenseMatrix w(k, n);
    a.fillUniform(-1.0f, 1.0f, 5);
    w.fillUniform(-1.0f, 1.0f, 6);
    DenseMatrix expected(rows, n);
    gemm(GemmMode::NN, a, w, expected);
    DenseMatrix c(rows, n);
    gemmBlockSerial(a.row(0), rows, a.rowStride(), w, c.row(0),
                    c.rowStride(), k);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-4);
}

/**
 * Build the mode-appropriate operand shapes for an M x N = f(K) GEMM.
 */
void
makeOperands(GemmMode mode, std::size_t m, std::size_t n, std::size_t k,
             DenseMatrix &a, DenseMatrix &b)
{
    switch (mode) {
      case GemmMode::NN:
        a = DenseMatrix(m, k);
        b = DenseMatrix(k, n);
        break;
      case GemmMode::NT:
        a = DenseMatrix(m, k);
        b = DenseMatrix(n, k);
        break;
      case GemmMode::TN:
        a = DenseMatrix(k, m);
        b = DenseMatrix(k, n);
        break;
    }
    a.fillUniform(-1.0f, 1.0f, 21);
    b.fillUniform(-1.0f, 1.0f, 22);
}

class GemmPackedSweep
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

/**
 * Ragged-shape sweep around the micro-kernel's blocking parameters:
 * M around MR (8) and the tile height, N around NR (32) including
 * single-column, K around KC (128) including the empty product. Every
 * (mode, accumulate) pairing must match the naive reference.
 */
TEST_P(GemmPackedSweep, RaggedShapesMatchReference)
{
    const auto [modeInt, accInt] = GetParam();
    const auto mode = static_cast<GemmMode>(modeInt);
    const auto acc = static_cast<GemmAccumulate>(accInt);
    const std::size_t ms[] = {1, 7, 8, 9, 67};
    const std::size_t ns[] = {1, 31, 32, 33, 130};
    const std::size_t ks[] = {0, 1, 17, 129};
    for (std::size_t m : ms) {
        for (std::size_t n : ns) {
            for (std::size_t k : ks) {
                DenseMatrix a;
                DenseMatrix b;
                makeOperands(mode, m, n, k, a, b);
                DenseMatrix c(m, n);
                DenseMatrix expected(m, n);
                c.fillUniform(-1.0f, 1.0f, 23);
                expected = c;
                gemm(mode, a, b, c, acc);
                gemmReference(mode, a, b, expected, acc);
                EXPECT_LT(c.maxAbsDiff(expected), 1e-3)
                    << "m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndAccumulate, GemmPackedSweep,
    testing::Combine(testing::Values(0, 1, 2),   // NN, NT, TN
                     testing::Values(0, 1)));    // Overwrite, Add

/*
 * ---- K-split GEMM ----------------------------------------------------
 *
 * Short, deep TN shapes — the dW = aᵀ·dz of a full-graph layer — split
 * K into chunks whose partial C tiles are summed in chunk order.
 */

/** The split's K chunk: 32 KC blocks. */
constexpr std::size_t kSplitChunkRows = 32 * kGemmKC;

/**
 * Fill with values on a 1/8 grid in [-1, 1]: exact in bf16, and every
 * sum of up to 2^18 such products is exact in fp32 — so any summation
 * order, split or not, at either precision, must reproduce the double
 * reference bit for bit.
 */
void
fillEighths(DenseMatrix &x, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            x.at(r, c) =
                static_cast<Feature>(static_cast<int>(rng.uniformInt(17)) -
                                     8) /
                8.0f;
        }
    }
}

/** Operands and gemmReference product of one split shape, built once. */
struct SplitCase
{
    DenseMatrix a;
    DenseMatrix b;
    DenseMatrix reference;
};

const SplitCase &
splitCase(std::size_t k, std::size_t m, std::size_t n)
{
    static std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
                    std::unique_ptr<SplitCase>>
        cache;
    std::unique_ptr<SplitCase> &entry = cache[{k, m, n}];
    if (!entry) {
        entry = std::make_unique<SplitCase>();
        entry->a = DenseMatrix(k, m);
        entry->b = DenseMatrix(k, n);
        entry->reference = DenseMatrix(m, n);
        fillEighths(entry->a, 41);
        fillEighths(entry->b, 42);
        gemmReference(GemmMode::TN, entry->a, entry->b, entry->reference);
    }
    return *entry;
}

/** (K, shape: 0 = 64 x 128, 1 = 128 x 8, precision, accumulate). */
class GemmKSplit
    : public testing::TestWithParam<std::tuple<std::size_t, int, Precision,
                                               GemmAccumulate>>
{
};

TEST_P(GemmKSplit, TnMatchesReferenceExactly)
{
    const auto [k, shape, precision, acc] = GetParam();
    const std::size_t m = shape == 0 ? 64 : 128;
    const std::size_t n = shape == 0 ? 128 : 8;
    const SplitCase &sc = splitCase(k, m, n);
    DenseMatrix start(m, n);
    DenseMatrix expected = sc.reference;
    if (acc == GemmAccumulate::Add) {
        fillEighths(start, 43);
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t j = 0; j < n; ++j)
                expected.at(r, j) += start.at(r, j);
        }
    }
    const GemmPlan plan(GemmMode::TN, sc.b, precision);
    for (const bool emulated : {false, true}) {
        if (precision == Precision::Fp32 && emulated)
            continue;
        setBf16GemmEmulated(emulated);
        DenseMatrix c = start;
        gemm(GemmMode::TN, sc.a, plan, c, acc);
        EXPECT_EQ(c.maxAbsDiff(expected), 0.0)
            << (emulated ? "emulated" : "dispatched") << " kernel";
    }
    setBf16GemmEmulated(false);
}

INSTANTIATE_TEST_SUITE_P(
    DwShapes, GemmKSplit,
    testing::Combine(testing::Values(2 * kSplitChunkRows, 131072,
                                     131072 + 77),
                     testing::Values(0, 1),
                     testing::Values(Precision::Fp32, Precision::Bf16),
                     testing::Values(GemmAccumulate::Overwrite,
                                     GemmAccumulate::Add)));

/** Row-by-row bitwise equality of the logical region. */
bool
bitwiseEqual(const DenseMatrix &x, const DenseMatrix &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return false;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        if (std::memcmp(x.row(r), y.row(r), x.cols() * sizeof(Feature)) !=
            0)
            return false;
    }
    return true;
}

/**
 * The split and its chunk size depend on the shape alone, so C is
 * bitwise the same on any pool size — on general data, where the
 * summation order does change the rounding.
 */
TEST(GemmKSplit, BitwiseEqualAcrossPoolSizes)
{
    const std::size_t restore = ThreadPool::global().numThreads();
    const std::size_t k = 131072 + 77;
    for (const auto &[m, n] : {std::pair<std::size_t, std::size_t>{64, 128},
                              {128, 8}}) {
        DenseMatrix a(k, m);
        DenseMatrix b(k, n);
        a.fillUniform(-1.0f, 1.0f, 51);
        b.fillUniform(-1.0f, 1.0f, 52);
        for (const Precision precision : {Precision::Fp32, Precision::Bf16}) {
            const GemmPlan plan(GemmMode::TN, b, precision);
            std::vector<DenseMatrix> results;
            for (const std::size_t threads : {1, 2, 4}) {
                ThreadPool::setGlobalThreads(threads);
                results.emplace_back(m, n);
                gemm(GemmMode::TN, a, plan, results.back());
            }
            EXPECT_TRUE(bitwiseEqual(results[0], results[1]))
                << m << "x" << n << " 1 vs 2 threads";
            EXPECT_TRUE(bitwiseEqual(results[0], results[2]))
                << m << "x" << n << " 1 vs 4 threads";
        }
    }
    ThreadPool::setGlobalThreads(restore);
}

/** The chunked sum stays within fp32 rounding of the double reference. */
TEST(GemmKSplit, SplitSumStaysNearDoubleReference)
{
    const std::size_t k = 131072 + 77;
    DenseMatrix a(k, 64);
    DenseMatrix b(k, 128);
    a.fillUniform(-1.0f, 1.0f, 53);
    b.fillUniform(-1.0f, 1.0f, 54);
    DenseMatrix c(64, 128);
    DenseMatrix expected(64, 128);
    gemm(GemmMode::TN, a, b, c);
    gemmReference(GemmMode::TN, a, b, expected);
    double err = 0.0;
    double norm = 0.0;
    for (std::size_t r = 0; r < 64; ++r) {
        for (std::size_t j = 0; j < 128; ++j) {
            const double ref = expected.at(r, j);
            err += (c.at(r, j) - ref) * (c.at(r, j) - ref);
            norm += ref * ref;
        }
    }
    EXPECT_LT(std::sqrt(err / norm), 1e-6);
}

TEST(GemmPlan, ReuseAcrossCallsGivesIdenticalResults)
{
    DenseMatrix a1(37, 96);
    DenseMatrix a2(37, 96);
    DenseMatrix b(96, 70);
    a1.fillUniform(-1.0f, 1.0f, 31);
    a2.fillUniform(-1.0f, 1.0f, 32);
    b.fillUniform(-1.0f, 1.0f, 33);

    GemmPlan plan;
    plan.pack(GemmMode::NN, b);
    EXPECT_EQ(plan.k(), 96u);
    EXPECT_EQ(plan.n(), 70u);

    // The same plan driven repeatedly must be bit-identical to the
    // pack-internally path (they share one micro-kernel).
    DenseMatrix viaPlan(37, 70);
    DenseMatrix internal(37, 70);
    gemm(GemmMode::NN, a1, b, internal);
    for (int round = 0; round < 3; ++round) {
        gemm(GemmMode::NN, a1, plan, viaPlan);
        EXPECT_EQ(viaPlan.maxAbsDiff(internal), 0.0f) << round;
    }

    // And stays valid for a different left operand afterwards.
    DenseMatrix expected(37, 70);
    gemmReference(GemmMode::NN, a2, b, expected);
    gemm(GemmMode::NN, a2, plan, viaPlan);
    EXPECT_LT(viaPlan.maxAbsDiff(expected), 1e-3);
}

TEST(GemmPlan, ValidateAcceptsFreshPlanAndEmptyPlan)
{
    GemmPlan empty;
    EXPECT_EQ(empty.validate(), nullptr);

    DenseMatrix b(96, 70);
    b.fillUniform(-1.0f, 1.0f, 7);
    GemmPlan plan(GemmMode::NN, b);
    EXPECT_EQ(plan.validate(), nullptr);
    EXPECT_EQ(plan.validateFor(96, 70), nullptr);
}

TEST(GemmPlan, ValidateForRejectsShapeMismatch)
{
    DenseMatrix b(96, 70);
    b.fillUniform(-1.0f, 1.0f, 8);
    GemmPlan plan(GemmMode::NN, b);
    // A plan packed for one layer reused against another layer's
    // shapes: both the K and N disagreements must be caught before the
    // micro-kernel streams past the packed buffer.
    EXPECT_NE(plan.validateFor(95, 70), nullptr);
    EXPECT_NE(plan.validateFor(96, 71), nullptr);
    EXPECT_NE(plan.validateFor(70, 96), nullptr);
    // And the empty plan is never valid for a real GEMM.
    GemmPlan empty;
    EXPECT_NE(empty.validateFor(96, 70), nullptr);
}

TEST(DenseMatrix, CountNonFiniteFindsInjectedValues)
{
    DenseMatrix m(5, 7);
    m.fillUniform(-1.0f, 1.0f, 9);
    EXPECT_TRUE(m.allFinite());
    EXPECT_EQ(m.countNonFinite(), 0u);
    m.row(2)[3] = std::numeric_limits<Feature>::quiet_NaN();
    m.row(4)[0] = std::numeric_limits<Feature>::infinity();
    m.row(0)[6] = -std::numeric_limits<Feature>::infinity();
    EXPECT_FALSE(m.allFinite());
    EXPECT_EQ(m.countNonFinite(), 3u);
}

TEST(DenseMatrix, CountNonFiniteIgnoresPaddingLanes)
{
    // 7 columns pads to a 16-float stride; garbage in the pad lanes
    // must not count. Poison the first row's padding directly.
    DenseMatrix m(3, 7);
    m.zero();
    ASSERT_GT(m.rowStride(), m.cols());
    m.row(0)[m.cols()] = std::numeric_limits<Feature>::quiet_NaN();
    EXPECT_TRUE(m.allFinite());
}

TEST(GemmPlan, TransposedPackMatchesNtReference)
{
    DenseMatrix a(19, 40);
    DenseMatrix b(25, 40); // N x K, used transposed
    a.fillUniform(-1.0f, 1.0f, 41);
    b.fillUniform(-1.0f, 1.0f, 42);
    GemmPlan plan;
    plan.pack(GemmMode::NT, b);
    EXPECT_EQ(plan.k(), 40u);
    EXPECT_EQ(plan.n(), 25u);
    DenseMatrix c(19, 25);
    DenseMatrix expected(19, 25);
    gemm(GemmMode::NT, a, plan, c);
    gemmReference(GemmMode::NT, a, b, expected);
    EXPECT_LT(c.maxAbsDiff(expected), 1e-3);
}

TEST(GemmBlockSerial, PackedPlanMatchesUnpackedPath)
{
    const std::size_t rows = 13;
    const std::size_t k = 50;
    const std::size_t n = 33;
    DenseMatrix a(rows, k);
    DenseMatrix w(k, n);
    a.fillUniform(-1.0f, 1.0f, 51);
    w.fillUniform(-1.0f, 1.0f, 52);
    GemmPlan plan;
    plan.pack(GemmMode::NN, w);

    DenseMatrix viaPlan(rows, n);
    DenseMatrix expected(rows, n);
    gemmReference(GemmMode::NN, a, w, expected);
    gemmBlockSerial(a.row(0), rows, a.rowStride(), plan, viaPlan.row(0),
                    viaPlan.rowStride(), k);
    EXPECT_LT(viaPlan.maxAbsDiff(expected), 1e-3);

    // Single-row blocks (the DMA pipeline's shape) through the same plan.
    DenseMatrix rowwise(rows, n);
    for (std::size_t r = 0; r < rows; ++r) {
        gemmBlockSerial(a.row(r), 1, a.rowStride(), plan,
                        rowwise.row(r), rowwise.rowStride(), k);
    }
    EXPECT_EQ(rowwise.maxAbsDiff(viaPlan), 0.0f);
}

TEST(Spmm, MatchesAggregationReference)
{
    CsrGraph g = generateErdosRenyi(200, 1500, false, 7);
    DenseMatrix h(200, 64);
    h.fillUniform(-1.0f, 1.0f, 8);
    AggregationSpec spec = gcnSpec(g);
    DenseMatrix viaSpmm(200, 64);
    DenseMatrix expected(200, 64);
    spmm(g, h, viaSpmm, spec.edgeFactors, spec.selfFactors);
    aggregateReference(g, h, expected, spec);
    EXPECT_LT(viaSpmm.maxAbsDiff(expected), 1e-4);
}

TEST(Spmm, UnweightedSumsNeighborsPlusSelf)
{
    CsrGraph g = generateRing(8);
    DenseMatrix h(8, 16);
    for (VertexId v = 0; v < 8; ++v)
        h.at(v, 0) = static_cast<Feature>(v + 1);
    DenseMatrix out(8, 16);
    spmm(g, h, out);
    // Vertex 0: self(1) + ring neighbors 1 and 7 -> 1 + 2 + 8 = 11.
    EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
}

TEST(RowOps, ReluClampsNegatives)
{
    DenseMatrix x(3, 20);
    x.fillUniform(-1.0f, 1.0f, 9);
    DenseMatrix copy = x;
    reluForward(x);
    for (std::size_t r = 0; r < 3; ++r) {
        for (std::size_t c = 0; c < 20; ++c) {
            EXPECT_EQ(x.at(r, c), std::max(copy.at(r, c), 0.0f));
        }
    }
}

TEST(RowOps, ReluBackwardMasksByActivation)
{
    DenseMatrix act(2, 16);
    act.at(0, 0) = 1.0f; // active
    // act(0,1) == 0    -> clipped
    DenseMatrix grad(2, 16);
    grad.at(0, 0) = 5.0f;
    grad.at(0, 1) = 7.0f;
    reluBackward(act, grad);
    EXPECT_EQ(grad.at(0, 0), 5.0f);
    EXPECT_EQ(grad.at(0, 1), 0.0f);
}

TEST(RowOps, AddBiasBroadcastsAcrossRows)
{
    DenseMatrix x(4, 8);
    std::vector<Feature> bias(8);
    for (std::size_t c = 0; c < 8; ++c)
        bias[c] = static_cast<Feature>(c);
    addBias(x, bias);
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_EQ(x.at(r, c), static_cast<Feature>(c));
    }
}

TEST(RowOps, DropoutZerosAtRateAndScalesSurvivors)
{
    DenseMatrix x(200, 64);
    x.fillUniform(1.0f, 2.0f, 10);
    DenseMatrix orig = x;
    std::vector<std::uint64_t> mask;
    dropoutForward(x, 0.5, 11, mask);
    std::size_t zeros = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            if (x.at(r, c) == 0.0f) {
                ++zeros;
            } else {
                EXPECT_NEAR(x.at(r, c), orig.at(r, c) * 2.0f, 1e-5);
            }
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / (200 * 64), 0.5, 0.03);
}

TEST(RowOps, DropoutBackwardAppliesSameMask)
{
    DenseMatrix x(50, 32);
    x.fillUniform(1.0f, 2.0f, 12);
    std::vector<std::uint64_t> mask;
    dropoutForward(x, 0.4, 13, mask);
    DenseMatrix grad(50, 32);
    grad.fillUniform(1.0f, 1.0f, 0); // all ones
    dropoutBackward(grad, 0.4, mask);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            if (x.at(r, c) == 0.0f)
                EXPECT_EQ(grad.at(r, c), 0.0f);
            else
                EXPECT_NEAR(grad.at(r, c), 1.0f / 0.6f, 1e-5);
        }
    }
}

/*
 * ---- Counter-based dropout -------------------------------------------
 */

bool
keptBit(const std::vector<std::uint64_t> &mask, const DenseMatrix &x,
        std::size_t r, std::size_t c)
{
    const std::size_t bit = r * x.rowStride() + c;
    return (mask[bit / 64] >> (bit % 64)) & 1;
}

TEST(Dropout, KeepFractionWithinFiveSigmaOfRate)
{
    for (const double rate : {0.1, 0.5, 0.9}) {
        DenseMatrix x(1024, 128);
        x.fillUniform(1.0f, 2.0f, 60);
        std::vector<std::uint64_t> mask;
        dropoutForward(x, rate, 61, mask);
        std::size_t kept = 0;
        for (std::uint64_t word : mask)
            kept += static_cast<std::size_t>(__builtin_popcountll(word));
        const double count = 1024.0 * 128.0;
        const double p = 1.0 - rate;
        const double sigma = std::sqrt(p * (1.0 - p) / count);
        EXPECT_LT(std::abs(static_cast<double>(kept) / count - p),
                  5.0 * sigma)
            << "rate " << rate;
    }
}

/**
 * Pearson correlation of keep bits one step apart, along rows
 * (c, c + 1) or along columns (r, r + 1).
 */
double
lagOneCorrelation(const std::vector<std::uint64_t> &mask,
                  const DenseMatrix &x, bool alongRows)
{
    double sx = 0.0;
    double sy = 0.0;
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    double count = 0.0;
    const std::size_t rows = alongRows ? x.rows() : x.rows() - 1;
    const std::size_t cols = alongRows ? x.cols() - 1 : x.cols();
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const double u = keptBit(mask, x, r, c);
            const double v = alongRows ? keptBit(mask, x, r, c + 1)
                                       : keptBit(mask, x, r + 1, c);
            sx += u;
            sy += v;
            sxy += u * v;
            sxx += u * u;
            syy += v * v;
            count += 1.0;
        }
    }
    const double cov = sxy / count - (sx / count) * (sy / count);
    const double varX = sxx / count - (sx / count) * (sx / count);
    const double varY = syy / count - (sy / count) * (sy / count);
    return cov / std::sqrt(varX * varY);
}

TEST(Dropout, AdjacentKeepBitsAreUncorrelated)
{
    for (const double rate : {0.1, 0.5}) {
        DenseMatrix x(8192, 128); // 1M elements
        x.fillUniform(1.0f, 2.0f, 62);
        std::vector<std::uint64_t> mask;
        dropoutForward(x, rate, 63, mask);
        EXPECT_LT(std::abs(lagOneCorrelation(mask, x, true)), 0.01)
            << "along rows, rate " << rate;
        EXPECT_LT(std::abs(lagOneCorrelation(mask, x, false)), 0.01)
            << "along columns, rate " << rate;
    }
}

TEST(Dropout, MaskIsPoolSizeIndependentAndSeedDependent)
{
    const std::size_t restore = ThreadPool::global().numThreads();
    DenseMatrix base(3000, 100);
    base.fillUniform(1.0f, 2.0f, 64);
    std::vector<std::vector<std::uint64_t>> masks;
    std::vector<DenseMatrix> outputs;
    for (const std::size_t threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        outputs.push_back(base);
        masks.emplace_back();
        dropoutForward(outputs.back(), 0.5, 65, masks.back());
    }
    ThreadPool::setGlobalThreads(restore);
    EXPECT_EQ(masks[0], masks[1]);
    EXPECT_TRUE(bitwiseEqual(outputs[0], outputs[1]));

    DenseMatrix other = base;
    std::vector<std::uint64_t> otherMask;
    dropoutForward(other, 0.5, 66, otherMask);
    EXPECT_NE(masks[0], otherMask);
}

TEST(Dropout, PaddingLanesStayZeroWithBitsClear)
{
    DenseMatrix x(300, 100); // stride 112: 12 padding lanes per row
    ASSERT_GT(x.rowStride(), x.cols());
    x.fillUniform(1.0f, 2.0f, 67);
    std::vector<std::uint64_t> mask;
    dropoutForward(x, 0.3, 68, mask);
    DenseMatrix grad(300, 100);
    grad.fillUniform(1.0f, 2.0f, 69);
    dropoutBackward(grad, 0.3, mask);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t c = x.cols(); c < x.rowStride(); ++c) {
            EXPECT_EQ(x.row(r)[c], 0.0f);
            EXPECT_EQ(grad.row(r)[c], 0.0f);
            EXPECT_FALSE(keptBit(mask, x, r, c));
        }
    }
}

/** The AVX-512 path (where compiled) against the scalar reference. */
TEST(Dropout, VectorAndScalarPathsAgree)
{
    for (const std::size_t cols : {1, 15, 16, 100, 128, 129}) {
        DenseMatrix vec(300, cols);
        vec.fillUniform(-1.0f, 1.0f, 70);
        DenseMatrix scalar = vec;
        std::vector<std::uint64_t> vecMask;
        std::vector<std::uint64_t> scalarMask;
        dropoutForward(vec, 0.35, 71, vecMask);
        dropoutForwardScalar(scalar, 0.35, 71, scalarMask);
        EXPECT_EQ(vecMask, scalarMask) << cols << " columns";
        EXPECT_TRUE(bitwiseEqual(vec, scalar)) << cols << " columns";

        DenseMatrix gradVec(300, cols);
        gradVec.fillUniform(-1.0f, 1.0f, 72);
        DenseMatrix gradScalar = gradVec;
        dropoutBackward(gradVec, 0.35, vecMask);
        dropoutBackwardScalar(gradScalar, 0.35, scalarMask);
        EXPECT_TRUE(bitwiseEqual(gradVec, gradScalar)) << cols << " columns";
    }
}

TEST(RowOps, SoftmaxCrossEntropyGradientSumsToZero)
{
    DenseMatrix logits(10, 4);
    logits.fillUniform(-1.0f, 1.0f, 14);
    std::vector<std::int32_t> labels(10);
    for (std::size_t i = 0; i < 10; ++i)
        labels[i] = static_cast<std::int32_t>(i % 4);
    DenseMatrix grad(10, 4);
    const double loss = softmaxCrossEntropy(logits, labels, grad);
    EXPECT_GT(loss, 0.0);
    // Each row's gradient sums to (sum softmax) - 1 = 0, over 1/N scale.
    for (std::size_t r = 0; r < 10; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 4; ++c)
            sum += grad.at(r, c);
        EXPECT_NEAR(sum, 0.0, 1e-6);
    }
}

/** Serial reference for the cross-entropy loss (no gradient). */
double
serialCrossEntropy(const DenseMatrix &logits,
                   std::span<const std::int32_t> labels,
                   const std::uint8_t *mask)
{
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t r = 0; r < logits.rows(); ++r) {
        if (mask != nullptr && mask[r] == 0)
            continue;
        ++counted;
        const Feature *in = logits.row(r);
        Feature maxLogit = in[0];
        for (std::size_t c = 1; c < logits.cols(); ++c)
            maxLogit = std::max(maxLogit, in[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < logits.cols(); ++c)
            denom += std::exp(double{in[c]} - double{maxLogit});
        const auto label = static_cast<std::size_t>(labels[r]);
        const double p =
            std::exp(double{in[label]} - double{maxLogit}) / denom;
        total -= std::log(std::max(p, 1e-30));
    }
    return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

// Regression test: the parallel partial-loss reduction runs on pool
// worker threads, so every worker's contribution must land in the
// caller's scratch buffer (a function-local thread_local is NOT
// captured by reference — each worker would otherwise sum into its own
// instance and the result would drop their rows). Enough rows to span
// many 256-row chunks guarantees worker participation.
TEST(RowOps, SoftmaxCrossEntropyParallelReductionMatchesSerial)
{
    const std::size_t rows = 4096;
    const std::size_t classes = 8;
    DenseMatrix logits(rows, classes);
    logits.fillUniform(-2.0f, 2.0f, 21);
    std::vector<std::int32_t> labels(rows);
    for (std::size_t i = 0; i < rows; ++i)
        labels[i] = static_cast<std::int32_t>(i % classes);
    DenseMatrix grad(rows, classes);
    const double loss = softmaxCrossEntropy(logits, labels, grad);
    const double ref = serialCrossEntropy(logits, labels, nullptr);
    EXPECT_NEAR(loss, ref, 1e-9 * ref);
}

TEST(RowOps, SoftmaxCrossEntropyMaskedParallelReductionMatchesSerial)
{
    const std::size_t rows = 4096;
    const std::size_t classes = 8;
    DenseMatrix logits(rows, classes);
    logits.fillUniform(-2.0f, 2.0f, 22);
    std::vector<std::int32_t> labels(rows);
    std::vector<std::uint8_t> mask(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        labels[i] = static_cast<std::int32_t>((i * 3) % classes);
        mask[i] = static_cast<std::uint8_t>(i % 5 != 0);
    }
    DenseMatrix grad(rows, classes);
    const double loss =
        softmaxCrossEntropyMasked(logits, labels, mask, grad);
    const double ref = serialCrossEntropy(logits, labels, mask.data());
    EXPECT_NEAR(loss, ref, 1e-9 * ref);
}

TEST(RowOps, PerfectLogitsGiveLowLossAndFullAccuracy)
{
    DenseMatrix logits(6, 3);
    std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};
    for (std::size_t r = 0; r < 6; ++r)
        logits.at(r, static_cast<std::size_t>(labels[r])) = 20.0f;
    DenseMatrix grad(6, 3);
    EXPECT_LT(softmaxCrossEntropy(logits, labels, grad), 1e-6);
    EXPECT_DOUBLE_EQ(accuracy(logits, labels), 1.0);
}

} // namespace
} // namespace graphite
