#include "bayesnet/variable_elimination.h"

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

TEST(VariableEliminationTest, BellAmplitudes)
{
    auto bn = circuitToBayesNet(bellCircuit());
    VariableElimination ve(bn);
    double s = 1.0 / std::sqrt(2.0);
    EXPECT_TRUE(approxEqual(ve.amplitude({0, 0}), Complex{s}));
    EXPECT_TRUE(approxEqual(ve.amplitude({1, 1}), Complex{s}));
    EXPECT_TRUE(approxEqual(ve.amplitude({0, 1}), Complex{}));
    EXPECT_TRUE(approxEqual(ve.amplitude({1, 0}), Complex{}));
}

TEST(VariableEliminationTest, NoisyBellMatchesTable5)
{
    auto bn = circuitToBayesNet(noisyBellCircuit(0.36));
    VariableElimination ve(bn);
    double s = 1.0 / std::sqrt(2.0);
    // Assignment order: q0 final, q1 final, noise rv.
    EXPECT_TRUE(approxEqual(ve.amplitude({0, 0, 0}), Complex{s}));
    EXPECT_TRUE(approxEqual(ve.amplitude({1, 1, 0}), Complex{0.8 * s}));
    // Paper's Table 5 has -0.6/sqrt(2) from the Ry noise convention; the
    // Kraus convention yields +0.6/sqrt(2) — same density matrix.
    EXPECT_NEAR(std::abs(ve.amplitude({1, 1, 1})), 0.6 * s, 1e-12);
    EXPECT_TRUE(approxEqual(ve.amplitude({0, 0, 1}), Complex{}));
    EXPECT_TRUE(approxEqual(ve.amplitude({0, 1, 0}), Complex{}));
}

class VeVsStateVectorTest : public ::testing::TestWithParam<int> {};

TEST_P(VeVsStateVectorTest, RandomIdealCircuits)
{
    Rng rng(1000 + GetParam());
    Circuit c = testing::randomCircuit(3, 12, rng);
    auto bn = circuitToBayesNet(c);
    VariableElimination ve(bn);
    auto amps = testing::finalState(c).amplitudes();
    for (std::uint64_t x = 0; x < 8; ++x) {
        std::vector<std::size_t> assign{(x >> 2) & 1, (x >> 1) & 1, x & 1};
        EXPECT_TRUE(approxEqual(ve.amplitude(assign), amps[x], 1e-9))
            << "x=" << x << "\n" << c.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VeVsStateVectorTest, ::testing::Range(0, 8));

class VeVsDensityMatrixTest : public ::testing::TestWithParam<int> {};

TEST_P(VeVsDensityMatrixTest, RandomNoisyCircuits)
{
    Rng rng(2000 + GetParam());
    Circuit ideal = testing::randomCircuit(2, 5, rng, false);
    // Attach a random channel type after each gate.
    Circuit c(2);
    std::size_t count = 0;
    for (const auto& op : ideal.operations()) {
        c.append(std::get<Gate>(op));
        std::size_t q = std::get<Gate>(op).qubits()[0];
        switch ((count++) % 4) {
          case 0: c.append(NoiseChannel::depolarizing(q, 0.05)); break;
          case 1: c.append(NoiseChannel::amplitudeDamping(q, 0.2)); break;
          case 2: c.append(NoiseChannel::phaseDamping(q, 0.15)); break;
          default: c.append(NoiseChannel::bitFlip(q, 0.1)); break;
        }
    }

    auto bn = circuitToBayesNet(c);
    VariableElimination ve(bn);
    auto exact = testing::probabilitiesOf("dm", c);
    auto viaVe = ve.outcomeDistribution();
    ASSERT_EQ(exact.size(), viaVe.size());
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(viaVe[x], exact[x], 1e-9) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VeVsDensityMatrixTest, ::testing::Range(0, 8));

TEST(VariableEliminationTest, DenseGatesAndSwaps)
{
    Rng rng(77);
    Circuit c = testing::randomDenseCircuit(3, 10, rng);
    auto bn = circuitToBayesNet(c);
    VariableElimination ve(bn);
    auto amps = testing::finalState(c).amplitudes();
    for (std::uint64_t x = 0; x < 8; ++x) {
        std::vector<std::size_t> assign{(x >> 2) & 1, (x >> 1) & 1, x & 1};
        EXPECT_TRUE(approxEqual(ve.amplitude(assign), amps[x], 1e-9));
    }
}

} // namespace
} // namespace qkc
