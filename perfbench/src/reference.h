/**
 * @file
 * A float64 reference encoder, written from the definitions rather than
 * from the library's kernels, so the benchmark's output check does not
 * share code with what it checks.
 *
 * Per layer (pre-norm, as DeiT):  x += W_O MHA(LN1(x)) + b_O,
 *                                 x += W_2 GELU(W_1 LN2(x) + b_1) + b_2
 * with LayerNorm (biased variance, eps 1e-5), the tanh form of GELU, and
 * one of three attentions per head (d = head dim, n = tokens):
 *
 *   Softmax  Z = softmax(Q K^T / sqrt(d)) V, exact.
 *   Taylor   The paper's Algorithm 1: Khat = K - 1 mean(K),
 *            Z = diag(n sqrt(d) + Q Khat^T 1)^-1 (sqrt(d) 1 1^T V + Q Khat^T V).
 *   Unified  Z = (W + M .* (SM(S, M) - W)) V with W the first-order
 *            Taylor map (sqrt(d) + Q Khat^T) / t_D, S = Q Khat^T / sqrt(d),
 *            SM the softmax over the kept entries of each row, and M the
 *            mask UnifiedAttention::forwardDetailed reports for the
 *            float32-rounded Q, K, V of that head.
 *
 * Weights are read through VitEncoder::layer(l) and widened to double;
 * every sum runs in double.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <vector>

#include "model/vit_encoder.h"
#include "tensor/matrix.h"

namespace perfbench {

/**
 * Allowed max |output - reference| for an fp32 encoder, about 30x the
 * deviation measured on the benchmark's models (1.4e-6 to 2.9e-6).
 */
constexpr double kFp32Tolerance = 1e-4;
/**
 * Allowed max |output - reference| for an int8 encoder: the
 * whole-encoder int8 bound the library documents and tests (0.25 at
 * DeiT-Small, tests/test_quant.cpp).
 */
constexpr double kInt8Tolerance = 0.25;

/**
 * Float64 forward of one image (tokens x dModel) through enc's weights
 * with enc's attention kernel on every layer (Softmax, Taylor or
 * Unified; anything else throws std::invalid_argument). Row-major
 * tokens x dModel result.
 */
std::vector<double> referenceForward(const vitality::VitEncoder &enc,
                                     const vitality::Matrix &x);

/** max |out - ref| over every entry; infinity on a shape mismatch. */
double maxAbsDiff(const vitality::Matrix &out,
                  const std::vector<double> &ref);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
