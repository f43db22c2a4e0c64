#ifndef QKC_TESTS_TESTING_CHI_SQUARE_H
#define QKC_TESTS_TESTING_CHI_SQUARE_H

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace qkc::testing {

/**
 * Pearson's chi-square of `samples` against `dist`, with outcomes expected
 * fewer than 5 times pooled into one bin, compared against the critical
 * value at alpha = 0.001 (Wilson-Hilferty). An outcome of probability
 * below 1e-12 must never be drawn.
 */
inline void
expectChiSquarePasses(const std::vector<std::uint64_t>& samples,
                      const std::vector<double>& dist, const char* name)
{
    std::vector<double> counts(dist.size(), 0.0);
    for (std::uint64_t s : samples)
        counts[s] += 1.0;
    const double n = static_cast<double>(samples.size());
    double chi2 = 0.0, pooledObserved = 0.0, pooledExpected = 0.0;
    std::size_t bins = 0;
    for (std::size_t x = 0; x < dist.size(); ++x) {
        if (dist[x] < 1e-12) {
            EXPECT_EQ(counts[x], 0.0) << name << " drew impossible " << x;
        }
        const double expected = n * dist[x];
        if (expected < 5.0) {
            pooledObserved += counts[x];
            pooledExpected += expected;
            continue;
        }
        chi2 += (counts[x] - expected) * (counts[x] - expected) / expected;
        ++bins;
    }
    if (pooledExpected >= 5.0) {
        chi2 += (pooledObserved - pooledExpected) *
                (pooledObserved - pooledExpected) / pooledExpected;
        ++bins;
    }
    ASSERT_GE(bins, 2u) << name;
    const double dof = static_cast<double>(bins - 1);
    const double z = 3.0902; // upper 0.001 normal quantile
    const double h = 2.0 / (9.0 * dof);
    const double critical = dof * std::pow(1.0 - h + z * std::sqrt(h), 3.0);
    EXPECT_LT(chi2, critical) << name << " dof=" << dof;
}

} // namespace qkc::testing

#endif // QKC_TESTS_TESTING_CHI_SQUARE_H
