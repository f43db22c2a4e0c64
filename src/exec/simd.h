#ifndef QKC_EXEC_SIMD_H
#define QKC_EXEC_SIMD_H

#include <cstdint>
#include <string>

namespace qkc {

/**
 * Vector-dispatch level for the dense gate-kernel sweeps. Levels are
 * ordered: a higher level strictly widens the registers used; every level
 * executes the *same elementwise operations in the same order* (explicit
 * mul/add, no FMA contraction), so payloads are bit-identical across
 * levels — the contract the simd-parity suite asserts.
 */
enum class SimdLevel : std::uint8_t {
    Scalar = 0, ///< portable scalar loops (always available)
    Avx2 = 1,   ///< 256-bit lanes, 2 complex<double> per vector
    Avx512 = 2, ///< 512-bit lanes, 4 complex<double> per vector
};

/**
 * How a policy or backend spec requests a level: Auto defers to the
 * process-wide default (QKC_SIMD clamped by CPUID); an explicit level is
 * clamped to what the hardware and build support.
 */
enum class SimdMode : std::uint8_t {
    Auto = 0,
    Off = 1,
    Avx2 = 2,
    Avx512 = 3,
};

/** "off" / "avx2" / "avx512" — the value QKC_SIMD and spec options take. */
const char* simdLevelName(SimdLevel level);

/**
 * The widest level this process can run: CPUID at first call (OS XSAVE
 * state included), intersected with what the build compiled in (a non-x86
 * or no-AVX toolchain caps this at Scalar). Cached after the first call.
 */
SimdLevel maxSupportedSimdLevel();

/**
 * The process-wide dispatch level: maxSupportedSimdLevel() unless the
 * QKC_SIMD environment variable (read once, like QKC_THREADS) or
 * setSimdLevel() lowered it. QKC_SIMD is the only user-facing switch;
 * ExecPolicy::simd lowers the level per call (the parity suites and the
 * kernel micro-benchmarks) without touching the process default.
 */
SimdLevel activeSimdLevel();

/** Overrides the process default (clamped to supported; CLI parsing only). */
void setSimdLevel(SimdLevel level);

/**
 * Parses "auto" / "off" / "avx2" / "avx512" (also "0" = off, "1" = auto).
 * Returns false on anything else.
 */
bool parseSimdMode(const std::string& text, SimdMode* out);

/** Resolves a requested mode: Auto -> activeSimdLevel(), else clamped. */
SimdLevel resolveSimdMode(SimdMode mode);

} // namespace qkc

#endif // QKC_EXEC_SIMD_H
