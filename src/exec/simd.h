#ifndef QKC_EXEC_SIMD_H
#define QKC_EXEC_SIMD_H

#include <cstdint>
#include <string>

namespace qkc {

/**
 * Vector-dispatch level for the dense gate-kernel sweeps. Levels are
 * ordered: a higher level widens the registers used; every level executes
 * the *same elementwise operations in the same order* (explicit mul/add,
 * no FMA contraction), so payloads are bit-identical across levels — the
 * contract the simd-parity suite asserts.
 */
enum class SimdLevel : std::uint8_t {
    Scalar = 0, ///< portable scalar loops (always available)
    Avx2 = 1,   ///< 256-bit lanes, 2 complex<double> per vector
};

/** The highest level this library has; "auto" requests it. */
constexpr SimdLevel kMaxSimdLevel = SimdLevel::Avx2;

/** "off" / "avx2" — the value QKC_SIMD takes. */
const char* simdLevelName(SimdLevel level);

/**
 * The process-wide dispatch level: what the CPU (CPUID and OS XSAVE state)
 * and the build support, lowered by the QKC_SIMD environment variable
 * (read once at the first call, like QKC_THREADS). QKC_SIMD is the only
 * user-facing switch; ExecPolicy::simd lowers the level per call (the
 * parity suites and the kernel micro-benchmarks) without touching the
 * process default.
 */
SimdLevel activeSimdLevel();

/**
 * Parses "auto" / "off" / "avx2" (also "0" and "scalar" = off, "1" =
 * auto); auto is kMaxSimdLevel. Returns false on anything else.
 */
bool parseSimdLevel(const std::string& text, SimdLevel* out);

} // namespace qkc

#endif // QKC_EXEC_SIMD_H
