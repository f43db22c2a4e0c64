#include "util/rng.h"

#include <cassert>
#include <stdexcept>

namespace qkc {

namespace {

std::uint64_t
splitMix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto& w : state_)
        w = splitMix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -n % n;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::categorical(const std::vector<double>& weights)
{
    assert(!weights.empty());
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (!(total > 0.0))
        throw std::invalid_argument(
            "Rng::categorical: no positive weight to sample from");
    double r = uniform() * total;
    double acc = 0.0;
    // Only a positive weight can advance acc past r, so the scan can skip
    // zero-weight entries outright; the fallback (floating-point
    // accumulation can leave acc fractionally below total forever) must
    // return the last *positive*-weight index — the old "last index"
    // fallback could select a zero-probability outcome when the weight
    // vector ends in zeros.
    std::size_t lastPositive = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] <= 0.0)
            continue;
        lastPositive = i;
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return lastPositive;
}

} // namespace qkc
