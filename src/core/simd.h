/**
 * @file
 * Runtime SIMD capability probe for the Fast kernel tier.
 *
 * The vector bodies (math/simd_kernels.h) are compiled per-function
 * with __attribute__((target("avx2"))) (and friends), so the binary
 * itself stays runnable on a baseline x86-64 — but a vector body must
 * only be *called* when the host actually supports the instruction
 * set. detectSimdLevel() answers that question once (cached,
 * thread-safe via static init) and every Fast dispatch site routes
 * through it.
 *
 * Two independent gates:
 *  - compile time: SOV_SIMD_ENABLED (CMake option SOV_SIMD, default
 *    ON) and an x86-64 target. When either is missing the vector
 *    bodies are not compiled at all and detectSimdLevel() reports
 *    None, so the Fast tier runs the scalar bodies of the same loops.
 *  - run time: __builtin_cpu_supports, so a binary built with the
 *    vector bodies still runs (scalar) on a pre-AVX2 host.
 */
#pragma once

namespace sov {

/** Best vector instruction set usable on this host, in this build. */
enum class SimdLevel
{
    None, //!< scalar only (non-x86, SOV_SIMD=OFF, or ancient host)
    Sse2, //!< 128-bit: 4 x f32 / 2 x f64 lanes
    Avx2, //!< 256-bit: 8 x f32 / 4 x f64 lanes
};

/** Canonical lowercase name ("none" / "sse2" / "avx2"). */
const char *simdLevelName(SimdLevel level);

/** True when the SIMD tier was compiled in (SOV_SIMD=ON on x86-64). */
bool simdCompiledIn();

/**
 * Probe the host CPU once and cache the answer. Reports None whenever
 * simdCompiledIn() is false, so callers can branch on the level alone.
 */
SimdLevel detectSimdLevel();

} // namespace sov
