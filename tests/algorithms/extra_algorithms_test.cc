#include <gtest/gtest.h>

#include <cmath>

#include "ac/kc_simulator.h"
#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"

namespace qkc::testing {
namespace {

std::vector<double>
countingMarginal(const Circuit& c, std::size_t t)
{
    auto probs = testing::probabilitiesOf("sv", c);
    std::vector<double> marg(std::size_t{1} << t, 0.0);
    std::size_t rest = c.numQubits() - t;
    for (std::size_t i = 0; i < probs.size(); ++i)
        marg[i >> rest] += probs[i];
    return marg;
}

class QpeExactPhaseTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(QpeExactPhaseTest, ExactlyRepresentablePhases)
{
    auto [t, k] = GetParam();
    double phi = static_cast<double>(k) / std::pow(2.0, t);
    Circuit c = phaseEstimationCircuit(t, phi);
    auto marg = countingMarginal(c, t);
    for (std::size_t m = 0; m < marg.size(); ++m)
        EXPECT_NEAR(marg[m], m == k ? 1.0 : 0.0, 1e-9)
            << "t=" << t << " k=" << k << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    Phases, QpeExactPhaseTest,
    ::testing::Values(std::make_tuple(3, 0u), std::make_tuple(3, 1u),
                      std::make_tuple(3, 5u), std::make_tuple(4, 7u),
                      std::make_tuple(4, 15u), std::make_tuple(2, 3u)));

TEST(QpeTest, InexactPhaseConcentratesNearTruth)
{
    const std::size_t t = 4;
    const double phi = 0.3;  // not a multiple of 1/16
    Circuit c = phaseEstimationCircuit(t, phi);
    auto marg = countingMarginal(c, t);
    // The two neighbors of 16*0.3 = 4.8 carry most of the mass.
    EXPECT_GT(marg[5] + marg[4], 0.8);
    // And the mode is the nearest grid point.
    std::size_t mode = 0;
    for (std::size_t m = 1; m < marg.size(); ++m)
        if (marg[m] > marg[mode])
            mode = m;
    EXPECT_EQ(mode, 5u);
}

TEST(QpeTest, RunsOnKcBackend)
{
    Circuit c = phaseEstimationCircuit(3, 3.0 / 8.0);
    KcSimulator kc(c);
    auto dist = kc.outcomeDistribution();
    auto exact = testing::probabilitiesOf("sv", c);
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(dist[x], exact[x], 1e-9);
}

class WStateTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WStateTest, UniformOverWeightOneStrings)
{
    std::size_t n = GetParam();
    auto probs = testing::probabilitiesOf("sv", wStateCircuit(n));
    for (std::size_t x = 0; x < probs.size(); ++x) {
        int weight = __builtin_popcountll(x);
        EXPECT_NEAR(probs[x], weight == 1 ? 1.0 / static_cast<double>(n) : 0.0,
                    1e-9)
            << "n=" << n << " x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WStateTest, ::testing::Values(2, 3, 4, 5, 6));

TEST(WStateTest, AmplitudesArePositiveUniform)
{
    auto amps = testing::finalState(wStateCircuit(4)).amplitudes();
    for (std::uint64_t x : {0b1000u, 0b0100u, 0b0010u, 0b0001u})
        EXPECT_TRUE(approxEqual(amps[x], Complex{0.5}, 1e-9)) << x;
}

TEST(WStateTest, KcHandlesDenseChainRuleEncoding)
{
    // The CRy custom gates take the dense 2-qubit path in the BN builder.
    Circuit c = wStateCircuit(4);
    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("sv", c);
    auto dist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(dist[x], exact[x], 1e-9) << x;
}

TEST(WStateTest, RejectsTrivialSizes)
{
    EXPECT_THROW(wStateCircuit(1), std::invalid_argument);
    EXPECT_THROW(phaseEstimationCircuit(0, 0.5), std::invalid_argument);
    EXPECT_THROW(phaseEstimationCircuit(11, 0.5), std::invalid_argument);
}

} // namespace
} // namespace qkc::testing
