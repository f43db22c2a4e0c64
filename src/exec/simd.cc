#include "exec/simd.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "exec/kernel_runs.h"

namespace qkc {

namespace {

/** What the CPU (and OS thread state) can execute, capped by the build. */
SimdLevel
detectSimdLevel()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports checks CPUID *and* the XCR0 OS-enabled state,
    // so a core whose OS does not save YMM state correctly reports
    // unsupported.
    if (avx2RunOps() && __builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

SimdLevel
initialActiveLevel()
{
    SimdLevel level = detectSimdLevel();
    if (const char* env = std::getenv("QKC_SIMD")) {
        SimdLevel requested;
        if (parseSimdLevel(env, &requested)) {
            level = std::min(level, requested);
        } else {
            // A typo must not abort a run, but it must not pass unseen.
            std::fprintf(stderr,
                         "qkc: QKC_SIMD=%s: expected auto, off or avx2; "
                         "using auto\n",
                         env);
        }
    }
    return level;
}

} // namespace

const char*
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "off";
      case SimdLevel::Avx2:
        return "avx2";
    }
    return "?";
}

SimdLevel
activeSimdLevel()
{
    static const SimdLevel level = initialActiveLevel();
    return level;
}

bool
parseSimdLevel(const std::string& text, SimdLevel* out)
{
    if (text == "auto" || text == "1") {
        *out = kMaxSimdLevel;
    } else if (text == "off" || text == "0" || text == "scalar") {
        *out = SimdLevel::Scalar;
    } else if (text == "avx2") {
        *out = SimdLevel::Avx2;
    } else {
        return false;
    }
    return true;
}

} // namespace qkc
