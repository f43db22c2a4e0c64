#ifndef QKC_TESTS_TESTING_SIMD_LEVELS_H
#define QKC_TESTS_TESTING_SIMD_LEVELS_H

#include <vector>

#include "exec/simd.h"

namespace qkc::testing {

/**
 * The dispatch levels this process can run, lowest first: Scalar, plus
 * Avx2 when the host (and QKC_SIMD) allow it. A parity suite sets each as
 * ExecPolicy::simd and compares the payload with the Scalar one bitwise.
 */
inline std::vector<SimdLevel>
simdLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (activeSimdLevel() >= SimdLevel::Avx2)
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_SIMD_LEVELS_H
