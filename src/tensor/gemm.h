/**
 * @file
 * Dense matrix multiplication — the update phase's compute engine.
 *
 * The paper uses MKL GEMM for the unfused update and libxsmm for the small
 * per-block GEMMs inside layer fusion. Neither is available offline, so we
 * provide a packed, register-blocked GEMM in the oneDNN/BLIS mould: the
 * right-hand operand is repacked into NR-wide panels (GemmPlan, reusable
 * across calls), the left-hand operand is packed per KC slice on the fly,
 * and an MR x NR register-tile micro-kernel runs FMA chains over the
 * panels. Work is threaded over a 2-D grid of M x N output tiles; a
 * grid too small to fill a pool over a deep K — the dW = X^T·dY of a
 * full-graph layer, one or two tiles over K = |V| — is also split into
 * K chunks whose partial tiles are summed in chunk order. The split is
 * a function of the shape alone, so C is bitwise the same on any
 * thread count.
 *
 * Supported forms (C is M x N):
 *   NN: C (+)= A(MxK)   * B(KxN)
 *   NT: C (+)= A(MxK)   * B(NxK)^T
 *   TN: C (+)= A(KxM)^T * B(KxN)
 * NT and TN are what the backward pass needs (dX = dY * W^T and
 * dW = X^T * dY).
 */

#pragma once

#include "tensor/dense_matrix.h"
#include "tensor/gemm_plan.h"

namespace graphite {

/**
 * Parallel blocked GEMM over the global thread pool. Packs @p b
 * internally; call the GemmPlan overload to amortise that pack across
 * calls with a constant right-hand operand (layer weights).
 *
 * @param mode      operand transposition (see file comment).
 * @param acc       overwrite C or accumulate into it.
 * @param precision Bf16 rounds both operands to bf16 during packing and
 *                  runs the bf16-in/fp32-accumulate micro-kernel.
 */
void gemm(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
          DenseMatrix &c, GemmAccumulate acc = GemmAccumulate::Overwrite,
          Precision precision = Precision::Fp32);

/**
 * Parallel blocked GEMM with a prepacked right-hand operand. @p plan
 * must have been packed with the same @p mode it is used under (the
 * plan stores the mode-resolved K x N operand). The plan's precision
 * selects the micro-kernel: a bf16 plan routes through the
 * bf16-in/fp32-accumulate tile (A is rounded to bf16 pairs during the
 * per-KC A pack), dispatched at runtime to AVX512-BF16 vdpbf16ps where
 * the CPU has it and a widening-FMA emulation elsewhere.
 */
void gemm(GemmMode mode, const DenseMatrix &a, const GemmPlan &plan,
          DenseMatrix &c, GemmAccumulate acc = GemmAccumulate::Overwrite);

/**
 * True when this CPU can run the native AVX512-BF16 micro-kernel
 * (checked once via cpuid; the binary always carries both kernels).
 */
bool bf16GemmHardwareSupported();

/**
 * Force (or release) the emulated bf16 micro-kernel regardless of CPU
 * support — the test/CI hook that makes both paths exercisable on any
 * host. Also settable via the GRAPHITE_BF16_EMULATE=1 environment
 * variable, read once at startup.
 */
void setBf16GemmEmulated(bool emulated);

/** True when bf16 GEMMs will dispatch to the native vdpbf16ps kernel. */
bool bf16GemmIsNative();

/**
 * Serial small-block GEMM: c[0..rows) = aRows * b, where aRows points
 * at @p rows consecutive padded rows of an activation matrix and @p b is
 * a KxN weight matrix. This is the libxsmm-role kernel the fused
 * aggregation-update calls per vertex block, so it must not spawn
 * parallel work itself.
 *
 * @param aRows   first input row (padded stride = aStride floats).
 * @param rows    number of input/output rows in the block.
 * @param aStride padded stride of the input rows.
 * @param b       K x N weights.
 * @param cRows   first output row (padded stride = cStride floats).
 * @param cStride padded stride of the output rows.
 * @param k       inner dimension (logical columns of the input rows).
 */
void gemmBlockSerial(const Feature *aRows, std::size_t rows,
                     std::size_t aStride, const DenseMatrix &b,
                     Feature *cRows, std::size_t cStride, std::size_t k);

/**
 * Serial small-block GEMM through a prepacked NN-mode weight plan — the
 * fused fast path: the caller packs W once per layer invocation and
 * every block task streams the shared panels through the register-tile
 * micro-kernel. A bf16 plan routes the block through the bf16 tile
 * (the fused kernels' update phase at reduced precision).
 */
void gemmBlockSerial(const Feature *aRows, std::size_t rows,
                     std::size_t aStride, const GemmPlan &plan,
                     Feature *cRows, std::size_t cStride, std::size_t k);

/** Reference (naive triple loop) GEMM used by tests as ground truth. */
void gemmReference(GemmMode mode, const DenseMatrix &a, const DenseMatrix &b,
                   DenseMatrix &c,
                   GemmAccumulate acc = GemmAccumulate::Overwrite);

} // namespace graphite
