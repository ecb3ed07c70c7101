/**
 * @file
 * Kernel backend selection for the perception hot path.
 *
 * Every optimized perception kernel (sliding-window stereo SAD,
 * im2col GEMM convolution, closed-form ICP accumulation, planned FFT)
 * keeps its naive scalar implementation as a reference oracle. The
 * backend switch selects between them at the algorithm-config level
 * so benchmarks, tests and the KernelExecutor-driven pipelines can
 * run either side of the comparison on the same inputs.
 *
 * Two tiers:
 *  - Reference — the naive scalar oracle. Never deleted; Fast is
 *    gated against it.
 *  - Fast — algorithmically restructured code (sliding windows,
 *    im2col, closed-form accumulation, precomputed FFT plans,
 *    FrameArena scratch). Where a measured row shows the vector body
 *    paying (stereo SAD, the GEMM micro-rows, the FFT butterflies;
 *    see bench_kernels' *_vector rows) Fast dispatches it at the
 *    level detectSimdLevel() reports (core/simd.h) — a property of
 *    the host and build, not a user choice. The SOV_SIMD=OFF build
 *    and pre-AVX2 hosts run the scalar bodies of the same loops.
 *
 * Determinism contract (Fast backend): outputs depend only on the
 * inputs and the kernel configuration — never on the thread count of
 * the ThreadPool executing it. Parallel kernels partition work into
 * fixed-size blocks (config-derived, not thread-derived) and reduce
 * results in block order. bench_kernels and tests/vision/test_kernels
 * enforce this with cross-thread-count fingerprints.
 */
#pragma once

#include <string>

namespace sov {

/** Which implementation of a perception kernel runs. */
enum class KernelBackend
{
    Reference, //!< naive scalar oracle
    Fast,      //!< restructured loops, platform-dispatched vector bodies
};

/** Canonical lowercase name ("reference" / "fast"). */
const char *kernelBackendName(KernelBackend backend);

/** Parse a backend name; fatal on anything else. */
KernelBackend kernelBackendFromName(const std::string &name);

} // namespace sov
