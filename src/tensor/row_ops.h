/**
 * @file
 * Element-wise and row-wise tensor operators used by the update phase:
 * bias add, ReLU forward/backward, dropout, and the softmax
 * cross-entropy loss head used by the training examples.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/dense_matrix.h"

namespace graphite {

/** out[r, :] += bias for every row. */
void addBias(DenseMatrix &out, std::span<const Feature> bias);

/**
 * addBias without the thread pool, for callers that must stay serial
 * on the calling thread. The inference server runs forward passes
 * concurrently (consumer loop vs serveOne oracle callers), and
 * ThreadPool::runOnAll must never be entered from two threads at
 * once — the pool-backed addBias would do exactly that.
 */
void addBiasSerial(DenseMatrix &out, std::span<const Feature> bias);

/** In-place ReLU: x = max(x, 0). The paper's activation (Table 2). */
void reluForward(DenseMatrix &x);

/** reluForward without the thread pool (see addBiasSerial). */
void reluForwardSerial(DenseMatrix &x);

/**
 * ReLU backward: grad[r, c] = 0 wherever activated[r, c] == 0.
 * @p activated is the *post*-ReLU forward output.
 */
void reluBackward(const DenseMatrix &activated, DenseMatrix &grad);

/**
 * Inverted dropout: zero each element with probability @p rate and scale
 * survivors by 1/(1-rate). Writes the survival mask (1 bit per element,
 * row-major, rowStride-padded: bit r * rowStride + c) into @p mask for
 * the backward pass; padding lanes are left 0 with their bits clear.
 *
 * The draw is counter-based: element (r, c) survives iff
 * fmix32((c · 0x9e3779b1 + lo(key_r)) ^ hi(key_r)) >= ⌊rate · 2^32⌋,
 * with the row key key_r = splitmix64(splitmix64(@p seed) + r). The mask
 * is therefore a pure function of (seed, r, c) — identical for any pool
 * size or row chunking — and costs no per-element branch: with AVX-512
 * the comparison of 16 hashes yields the 16-bit mask field itself, and
 * one zero-masking multiply applies it.
 */
void dropoutForward(DenseMatrix &x, double rate, std::uint64_t seed,
                    std::vector<std::uint64_t> &mask);

/** Dropout backward: apply the saved mask and the 1/(1-rate) scale. */
void dropoutBackward(DenseMatrix &grad, double rate,
                     const std::vector<std::uint64_t> &mask);

/**
 * Serial scalar references of the two dropout directions: bit-identical
 * to the vector paths (the tests' oracle; dropoutForward/Backward fall
 * back to the same loops on targets without AVX-512).
 */
void dropoutForwardScalar(DenseMatrix &x, double rate, std::uint64_t seed,
                          std::vector<std::uint64_t> &mask);
void dropoutBackwardScalar(DenseMatrix &grad, double rate,
                           const std::vector<std::uint64_t> &mask);

/**
 * Parallel column sum: out[c] = Σ_r x[r, c] — the bias-gradient
 * reduction db = colsum(dz). Rows are partitioned into fixed-size
 * chunks whose partial sums land in @p scratch slots indexed by chunk
 * id, then reduced serially in chunk order — so the result is
 * bit-identical regardless of how the dynamic scheduler assigned
 * chunks to threads. @p scratch is grown as needed and reused across
 * calls (allocation-free in steady state).
 */
void columnSum(const DenseMatrix &x, std::span<Feature> out,
               std::vector<Feature> &scratch);

/**
 * Softmax + cross-entropy over rows.
 *
 * @param logits   |V| x numClasses scores.
 * @param labels   per-row class ids.
 * @param gradOut  filled with d(loss)/d(logits) (softmax - onehot) / |V|.
 * @return mean loss.
 */
double softmaxCrossEntropy(const DenseMatrix &logits,
                           std::span<const std::int32_t> labels,
                           DenseMatrix &gradOut);

/**
 * Masked softmax cross-entropy: only rows with mask[r] != 0 contribute
 * to the loss and receive gradient (the train-split regime of
 * node-classification benchmarks; labelled vertices are a subset).
 * Unmasked rows' gradients are zero. Normalised by the masked count.
 *
 * @return mean loss over the masked rows (0 if none are masked).
 */
double softmaxCrossEntropyMasked(const DenseMatrix &logits,
                                 std::span<const std::int32_t> labels,
                                 std::span<const std::uint8_t> mask,
                                 DenseMatrix &gradOut);

/** Fraction of rows whose argmax equals the label. */
double accuracy(const DenseMatrix &logits,
                std::span<const std::int32_t> labels);

/** Accuracy over the rows with mask[r] != 0 (1.0 if none). */
double accuracyMasked(const DenseMatrix &logits,
                      std::span<const std::int32_t> labels,
                      std::span<const std::uint8_t> mask);

} // namespace graphite
