/**
 * Determinism contract for qkc::Rng: the entire toolchain's reproducibility
 * rests on identically-seeded generators producing identical streams across
 * every draw type, and differently-seeded generators diverging.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace qkc {
namespace {

TEST(RngDeterminismTest, IdenticalSeedsYieldIdenticalRawStreams)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
}

TEST(RngDeterminismTest, IdenticalSeedsYieldIdenticalDerivedDraws)
{
    Rng a(987654321), b(987654321);
    std::vector<double> weights = {0.5, 1.5, 3.0, 0.25};
    for (int i = 0; i < 2000; ++i) {
        ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
        ASSERT_DOUBLE_EQ(a.uniform(-2.0, 7.0), b.uniform(-2.0, 7.0));
        ASSERT_EQ(a.below(97), b.below(97));
        ASSERT_EQ(a.bernoulli(0.3), b.bernoulli(0.3));
        ASSERT_EQ(a.categorical(weights), b.categorical(weights));
    }
}

TEST(RngDeterminismTest, IdenticalSeedsYieldIdenticalShuffles)
{
    Rng a(42), b(42);
    std::vector<int> va(128), vb(128);
    for (int i = 0; i < 128; ++i)
        va[i] = vb[i] = i;
    for (int round = 0; round < 50; ++round) {
        a.shuffle(va);
        b.shuffle(vb);
        ASSERT_EQ(va, vb) << "diverged at round " << round;
    }
}

TEST(RngDeterminismTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    bool anyDifferent = false;
    for (int i = 0; i < 64 && !anyDifferent; ++i)
        anyDifferent = a.next() != b.next();
    EXPECT_TRUE(anyDifferent);
}

TEST(RngDeterminismTest, ReseedingRestartsTheStream)
{
    Rng a(777);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 32; ++i)
        first.push_back(a.next());

    Rng b(777);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(b.next(), first[i]) << "draw " << i;
}

} // namespace
} // namespace qkc
