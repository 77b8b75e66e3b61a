/**
 * @file
 * Host peaks the per-layer ledger is read against, measured on the
 * library's own thread pool so they use the threads the kernels use:
 *
 *  - host.stream_gbps: STREAM-triad a[i] = b[i] + s * c[i] over arrays
 *    whose total size is larger than the last-level cache, counting
 *    12 bytes per element (two reads, one write), best of several.
 *  - host.gemm_gflops: the packed GEMM (the update phase's kernel) on a
 *    square-ish shape, best of several.
 */

#include <algorithm>
#include <memory>

#include "common/timer.h"
#include "parallel/thread_pool.h"
#include "tensor/dense_matrix.h"
#include "tensor/gemm.h"
#include "tensor/gemm_plan.h"
#include "workloads.h"

namespace perfbench {

namespace {

using graphite::Timer;

/** 48 Mi floats = 192 MiB per array, 576 MiB in all. */
constexpr std::size_t kStreamElements = std::size_t{48} << 20;
constexpr std::size_t kStreamChunk = std::size_t{1} << 16;
constexpr int kStreamRepeats = 5;

double
measureStreamGbps()
{
    const std::unique_ptr<float[]> a(new float[kStreamElements]);
    const std::unique_ptr<float[]> b(new float[kStreamElements]);
    const std::unique_ptr<float[]> c(new float[kStreamElements]);
    float *pa = a.get();
    float *pb = b.get();
    float *pc = c.get();
    // First touch on the pool threads, as the triad will.
    graphite::parallelFor(0, kStreamElements, kStreamChunk,
                          [&](std::size_t begin, std::size_t end,
                              std::size_t) {
                              for (std::size_t i = begin; i < end; ++i) {
                                  pa[i] = 0.0f;
                                  pb[i] = 1.0f;
                                  pc[i] = 2.0f;
                              }
                          });
    const float scalar = 3.0f;
    double best = 0.0;
    for (int rep = 0; rep < kStreamRepeats; ++rep) {
        Timer timer;
        graphite::parallelFor(0, kStreamElements, kStreamChunk,
                              [&](std::size_t begin, std::size_t end,
                                  std::size_t) {
                                  for (std::size_t i = begin; i < end; ++i)
                                      pa[i] = pb[i] + scalar * pc[i];
                              });
        const double seconds = timer.seconds();
        const double bytes = 3.0 * sizeof(float) * kStreamElements;
        best = std::max(best, bytes / seconds / 1e9);
    }
    // Keep the stores observable.
    if (pa[kStreamElements / 2] != 1.0f + scalar * 2.0f)
        return 0.0;
    return best;
}

double
measureGemmGflops()
{
    constexpr std::size_t m = 16384;
    constexpr std::size_t k = 256;
    constexpr std::size_t n = 256;
    graphite::DenseMatrix a(m, k);
    graphite::DenseMatrix b(k, n);
    graphite::DenseMatrix c(m, n);
    a.fillUniform(-1.0f, 1.0f, 3);
    b.fillUniform(-1.0f, 1.0f, 5);
    const graphite::GemmPlan plan(graphite::GemmMode::NN, b);
    graphite::gemm(graphite::GemmMode::NN, a, plan, c); // warm-up
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        Timer timer;
        graphite::gemm(graphite::GemmMode::NN, a, plan, c);
        const double seconds = timer.seconds();
        best = std::max(best, 2.0 * m * k * n / seconds / 1e9);
    }
    return best;
}

} // namespace

HostPeaks
measureHostPeaks()
{
    HostPeaks peaks;
    peaks.streamGbps = measureStreamGbps();
    peaks.gemmGflops = measureGemmGflops();
    return peaks;
}

} // namespace perfbench
