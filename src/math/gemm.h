/**
 * @file
 * Blocked single-precision GEMM kernels for the im2col convolution
 * path (and any other float matrix hot path).
 *
 * All three variants ACCUMULATE into C (C += ...), row-major, so the
 * caller seeds C with the bias / prior gradient. The accumulation
 * order contract matters for reproducibility: for every output
 * element, the K (reduction) dimension is traversed in ascending
 * order with one float rounding per step — the same sequence a naive
 * scalar loop performs — so results are independent of the cache
 * block sizes and match a direct reference convolution term-for-term
 * (up to FMA contraction, which the build does not enable on the
 * targets we support).
 *
 * @p level selects the microkernel body (math/simd_kernels.h): the
 * Fast convolution passes detectSimdLevel(), tests and bench_kernels'
 * gemm_vector row pass None to compare against the scalar body.
 * gemmF32/gemmTnF32 vectorize their j-loop element-wise —
 * bit-identical to the scalar path at any level — while gemmNtF32's
 * dot-product reduction is lane-reassociated above None:
 * deterministic, but an epsilon away from scalar (conv backward
 * compares with a tolerance for this reason).
 */
#pragma once

#include <cstddef>

#include "core/simd.h"

namespace sov {

/** C[m x n] += A[m x k] * B[k x n]. */
void gemmF32(std::size_t m, std::size_t n, std::size_t k,
             const float *a, const float *b, float *c,
             SimdLevel level = SimdLevel::None);

/** C[m x n] += A^T * B where A is stored [k x m]. */
void gemmTnF32(std::size_t m, std::size_t n, std::size_t k,
               const float *a, const float *b, float *c,
               SimdLevel level = SimdLevel::None);

/** C[m x n] += A * B^T where B is stored [n x k]. */
void gemmNtF32(std::size_t m, std::size_t n, std::size_t k,
               const float *a, const float *b, float *c,
               SimdLevel level = SimdLevel::None);

} // namespace sov
