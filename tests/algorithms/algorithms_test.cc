#include "algorithms/algorithms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "util/stats.h"

namespace qkc::testing {
namespace {

/** Marginal distribution over a leading block of qubits. */
std::vector<double>
marginalOverLeading(const std::vector<double>& probs, std::size_t total,
                    std::size_t leading)
{
    std::vector<double> out(std::size_t{1} << leading, 0.0);
    for (std::size_t i = 0; i < probs.size(); ++i)
        out[i >> (total - leading)] += probs[i];
    return out;
}

TEST(AlgorithmsTest, BellState)
{
    auto probs = testing::probabilitiesOf("sv", bellCircuit());
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[3], 0.5, 1e-12);
}

TEST(AlgorithmsTest, GhzState)
{
    auto probs = testing::probabilitiesOf("sv", ghzCircuit(5));
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[31], 0.5, 1e-12);
    double rest = 0.0;
    for (std::size_t i = 1; i < 31; ++i)
        rest += probs[i];
    EXPECT_NEAR(rest, 0.0, 1e-12);
}

TEST(AlgorithmsTest, ChshCorrelationIsCosine)
{
    // E(thetaA, thetaB) = cos(thetaA - thetaB) on a Bell pair.
    for (double a : {0.0, M_PI / 2}) {
        for (double b : {M_PI / 4, -M_PI / 4}) {
            auto probs = testing::probabilitiesOf("sv", chshCircuit(a, b));
            double e = probs[0] - probs[1] - probs[2] + probs[3];
            EXPECT_NEAR(e, std::cos(a - b), 1e-9);
        }
    }
}

TEST(AlgorithmsTest, ChshViolation)
{
    // S = E(0,pi/4) + E(0,-pi/4) + E(pi/2,pi/4) - E(pi/2,-pi/4) = 2 sqrt(2).
    auto corr = [&](double a, double b) {
        auto probs = testing::probabilitiesOf("sv", chshCircuit(a, b));
        return probs[0] - probs[1] - probs[2] + probs[3];
    };
    double s = corr(0, M_PI / 4) + corr(0, -M_PI / 4) +
               corr(M_PI / 2, M_PI / 4) - corr(M_PI / 2, -M_PI / 4);
    EXPECT_NEAR(s, 2.0 * std::sqrt(2.0), 1e-9);
    EXPECT_GT(s, 2.0);  // violates the classical bound
}

TEST(AlgorithmsTest, TeleportationDeliversState)
{
    for (double theta : {0.0, 0.4, 1.1, M_PI / 2, 2.7}) {
        auto probs =
            testing::probabilitiesOf("sv", teleportationCircuit(theta));
        // Marginal of qubit 2 (the low bit).
        double p1 = 0.0;
        for (std::size_t i = 0; i < probs.size(); ++i)
            if (i & 1)
                p1 += probs[i];
        EXPECT_NEAR(p1, std::sin(theta / 2) * std::sin(theta / 2), 1e-9)
            << "theta=" << theta;
    }
}

TEST(AlgorithmsTest, DeutschJozsaConstant)
{
    const std::size_t n = 4;
    auto probs = testing::probabilitiesOf("sv", deutschJozsaCircuit(n, 0));
    auto marg = marginalOverLeading(probs, n + 1, n);
    EXPECT_NEAR(marg[0], 1.0, 1e-9);
}

TEST(AlgorithmsTest, DeutschJozsaBalancedNeverAllZero)
{
    const std::size_t n = 4;
    for (std::uint64_t mask : {0b1000ULL, 0b0110ULL, 0b1111ULL}) {
        auto probs =
            testing::probabilitiesOf("sv", deutschJozsaCircuit(n, mask));
        auto marg = marginalOverLeading(probs, n + 1, n);
        EXPECT_NEAR(marg[0], 0.0, 1e-9) << "mask=" << mask;
    }
}

class BernsteinVaziraniTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BernsteinVaziraniTest, RecoversHiddenString)
{
    const std::size_t n = 5;
    std::uint64_t a = GetParam();
    auto probs = testing::probabilitiesOf("sv", bernsteinVaziraniCircuit(n, a));
    auto marg = marginalOverLeading(probs, n + 1, n);
    EXPECT_NEAR(marg[a], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(HiddenStrings, BernsteinVaziraniTest,
                         ::testing::Values(0b00001, 0b10000, 0b10101, 0b11111,
                                           0b01110));

TEST(AlgorithmsTest, SimonOutputsOrthogonalToPeriod)
{
    const std::size_t n = 4;
    const std::uint64_t s = 0b1010;
    auto probs = testing::probabilitiesOf("sv", simonCircuit(n, s));
    auto marg = marginalOverLeading(probs, 2 * n, n);
    for (std::uint64_t y = 0; y < (1u << n); ++y) {
        int dot = __builtin_popcountll(y & s) & 1;
        if (dot == 1) {
            EXPECT_NEAR(marg[y], 0.0, 1e-9) << "y=" << y;
        }
    }
    // Orthogonal subspace is uniform: 2^(n-1) outcomes at 1/2^(n-1).
    for (std::uint64_t y = 0; y < (1u << n); ++y) {
        int dot = __builtin_popcountll(y & s) & 1;
        if (dot == 0) {
            EXPECT_NEAR(marg[y], 1.0 / 8.0, 1e-9) << "y=" << y;
        }
    }
}

class HiddenShiftTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HiddenShiftTest, RecoversShift)
{
    const std::size_t n = 6;
    std::uint64_t s = GetParam();
    auto probs = testing::probabilitiesOf("sv", hiddenShiftCircuit(n, s));
    EXPECT_NEAR(probs[s], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shifts, HiddenShiftTest,
                         ::testing::Values(0b000000, 0b000001, 0b101010,
                                           0b110011, 0b111111));

TEST(AlgorithmsTest, QftOfZeroIsUniform)
{
    const std::size_t n = 4;
    auto probs = testing::probabilitiesOf("sv", qftCircuit(n));
    for (double p : probs)
        EXPECT_NEAR(p, 1.0 / 16.0, 1e-9);
}

TEST(AlgorithmsTest, QftInverseRoundTrip)
{
    const std::size_t n = 4;
    Circuit c(n);
    // Prepare a nontrivial basis state, QFT then inverse QFT.
    c.x(1).x(3);
    c.extend(qftCircuit(n));
    c.extend(inverseQftCircuit(n));
    auto probs = testing::probabilitiesOf("sv", c);
    EXPECT_NEAR(probs[basisIndex({0, 1, 0, 1})], 1.0, 1e-9);
}

TEST(AlgorithmsTest, QftPeriodicStateConcentrates)
{
    // QFT of the period-2 state (|00> + |10>)/sqrt(2) on 2 qubits
    // concentrates on indices 0 and 2.
    Circuit c(2);
    c.h(0);
    c.extend(qftCircuit(2));
    auto probs = testing::probabilitiesOf("sv", c);
    EXPECT_NEAR(probs[0] + probs[2], 1.0, 1e-9);
}

class GroverTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(GroverTest, FindsMarkedElement)
{
    auto [n, marked] = GetParam();
    Circuit c = groverCircuit(n, marked);
    auto probs = testing::probabilitiesOf("sv", c);
    auto marg = marginalOverLeading(probs, c.numQubits(), n);
    // Optimal iteration count gives success probability >= ~0.9 for n >= 2.
    EXPECT_GT(marg[marked], 0.8) << "n=" << n << " marked=" << marked;
}

INSTANTIATE_TEST_SUITE_P(
    SearchSpaces, GroverTest,
    ::testing::Values(std::make_tuple(2, 0b00), std::make_tuple(2, 0b11),
                      std::make_tuple(3, 0b101), std::make_tuple(3, 0b010),
                      std::make_tuple(4, 0b1001), std::make_tuple(4, 0b1111),
                      std::make_tuple(4, 0b0000)));

TEST(AlgorithmsTest, MultiplicativeOrders)
{
    EXPECT_EQ(multiplicativeOrder(2, 15), 4u);
    EXPECT_EQ(multiplicativeOrder(4, 15), 2u);
    EXPECT_EQ(multiplicativeOrder(7, 15), 4u);
    EXPECT_EQ(multiplicativeOrder(8, 15), 4u);
    EXPECT_EQ(multiplicativeOrder(11, 15), 2u);
    EXPECT_EQ(multiplicativeOrder(13, 15), 4u);
    EXPECT_EQ(multiplicativeOrder(14, 15), 2u);
}

class ShorTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShorTest, PhasePeaksAtMultiplesOfInverseOrder)
{
    unsigned a = GetParam();
    const std::size_t t = 4;
    Circuit c = shorOrderFindingCircuit(t, a);
    auto probs = testing::probabilitiesOf("sv", c);
    auto marg = marginalOverLeading(probs, c.numQubits(), t);

    unsigned r = multiplicativeOrder(a, 15);
    // r divides 2^t here, so phase estimation is exact: mass sits only on
    // multiples of 2^t / r, each with probability 1/r.
    std::size_t step = (1u << t) / r;
    for (std::size_t m = 0; m < (1u << t); ++m) {
        if (m % step == 0) {
            EXPECT_NEAR(marg[m], 1.0 / r, 1e-9) << "a=" << a << " m=" << m;
        } else {
            EXPECT_NEAR(marg[m], 0.0, 1e-9) << "a=" << a << " m=" << m;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bases, ShorTest, ::testing::Values(2, 4, 7, 8, 11, 13, 14));

TEST(AlgorithmsTest, ShorRejectsBadBase)
{
    EXPECT_THROW(shorOrderFindingCircuit(3, 3), std::invalid_argument);
    EXPECT_THROW(shorOrderFindingCircuit(3, 1), std::invalid_argument);
}

TEST(AlgorithmsTest, RcsShapeAndNormalization)
{
    Rng rng(2021);
    Circuit c = rcsCircuit(2, 3, 6, rng);
    EXPECT_EQ(c.numQubits(), 6u);
    EXPECT_GT(c.gateCount(), 6u);
    auto sv = testing::finalState(c);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(AlgorithmsTest, RcsIsRandomized)
{
    Rng rngA(1), rngB(2);
    Circuit a = rcsCircuit(2, 2, 4, rngA);
    Circuit b = rcsCircuit(2, 2, 4, rngB);
    // Same template, different single-qubit draws: distributions differ.
    auto pa = testing::probabilitiesOf("sv", a);
    auto pb = testing::probabilitiesOf("sv", b);
    double diff = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i)
        diff += std::abs(pa[i] - pb[i]);
    EXPECT_GT(diff, 1e-3);
}

TEST(AlgorithmsTest, NoisyBellMatchesPaperExample)
{
    Circuit c = noisyBellCircuit(0.36);
    EXPECT_EQ(c.gateCount(), 2u);
    EXPECT_EQ(c.noiseCount(), 1u);
    const auto& ch = std::get<NoiseChannel>(c.operations()[1]);
    EXPECT_EQ(ch.kind(), NoiseKind::PhaseDamping);
}

} // namespace
} // namespace qkc::testing
