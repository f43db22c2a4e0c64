#ifndef QKC_UTIL_RNG_H
#define QKC_UTIL_RNG_H

#include <cstdint>
#include <vector>

namespace qkc {

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every stochastic component in the toolchain (noise trajectory selection,
 * Gibbs sampling, workload generation) draws from an explicitly seeded Rng
 * so experiments are reproducible run-to-run.
 */
class Rng {
  public:
    /** Seeds the four-word state from a single seed via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit word. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /**
     * Draws an index from an unnormalized non-negative weight vector; only
     * positive-weight indices can be returned (if floating-point
     * accumulation pushes the draw past the total, the last positive-weight
     * index is selected). Throws std::invalid_argument when no weight is
     * positive.
     */
    std::size_t categorical(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of v. */
    template <typename T>
    void shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t state_[4];
};

} // namespace qkc

#endif // QKC_UTIL_RNG_H
