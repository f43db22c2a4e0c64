#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

namespace qkc {
namespace {

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(RngTest, UniformMeanIsCentered)
{
    Rng rng(13);
    double acc = 0.0;
    const int kN = 100000;
    for (int i = 0; i < kN; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, BelowOneAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    const int kN = 100000;
    for (int i = 0; i < kN; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, CategoricalMatchesWeights)
{
    Rng rng(23);
    std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int kN = 60000;
    for (int i = 0; i < kN; ++i)
        ++counts[rng.categorical(weights)];
    EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.015);
    EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.015);
}

TEST(RngTest, CategoricalZeroWeightNeverPicked)
{
    Rng rng(29);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(RngTest, CategoricalTrailingZerosNeverSelected)
{
    // Regression: the out-of-accumulation fallback used to return the LAST
    // index even when its weight was zero — a zero-probability outcome.
    // The fallback must land on the last positive-weight index instead.
    Rng rng(41);
    std::vector<double> weights{0.25, 0.75, 0.0, 0.0};
    for (int i = 0; i < 20000; ++i)
        EXPECT_LE(rng.categorical(weights), 1u);

    EXPECT_EQ(rng.categorical({0.0, 0.0, 1.0, 0.0}), 2u);
}

TEST(RngTest, CategoricalAllZeroWeightsThrows)
{
    Rng rng(43);
    EXPECT_THROW(rng.categorical({0.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(31);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes)
{
    Rng rng(37);
    std::vector<int> v(50);
    for (int i = 0; i < 50; ++i)
        v[i] = i;
    auto orig = v;
    rng.shuffle(v);
    EXPECT_NE(v, orig);
}

} // namespace
} // namespace qkc
