/**
 * @file
 * Host CPU capability probe backing the SIMD kernel tier.
 *
 * The kernel registry registers vectorized variants ("avx2", "neon")
 * only for instruction sets the RUNNING host can
 * execute, and the executor's bind-time tier selection consults the
 * same probe — so a binary built with -mavx2 TUs still runs (on the
 * scalar tier) on a host without AVX2, and a plan saved with SIMD
 * variant names downgrades at load instead of faulting.
 *
 * x86: cpuid leaf 1 (FMA, OSXSAVE) + leaf 7 (AVX2), plus an XGETBV
 * check that the OS actually saves the YMM state. ARM: NEON is a
 * compile-time baseline (__ARM_NEON), not a runtime question.
 */

#pragma once

namespace pe {

struct CpuFeatures {
    bool avx2 = false; ///< AVX2 + FMA + OS YMM support (x86 only)
    bool neon = false; ///< __ARM_NEON baseline (ARM only)
};

/** Probe once, cached for the process lifetime. */
const CpuFeatures &cpuFeatures();

} // namespace pe
