/**
 * Robustness and edge-case coverage: degenerate circuits, identity
 * elision, deep circuits, Loschmidt echoes, and failure-injection paths.
 */
#include <gtest/gtest.h>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

TEST(RobustnessTest, SingleQubitCircuit)
{
    Circuit c(1);
    c.h(0).t(0).h(0);
    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("sv", c);
    EXPECT_NEAR(kc.probability(0), exact[0], 1e-12);
    EXPECT_NEAR(kc.probability(1), exact[1], 1e-12);
}

TEST(RobustnessTest, GateFreeCircuit)
{
    Circuit c(3);  // nothing at all: stays |000>
    KcSimulator kc(c);
    EXPECT_NEAR(kc.probability(0), 1.0, 1e-12);
    for (std::uint64_t x = 1; x < 8; ++x)
        EXPECT_NEAR(kc.probability(x), 0.0, 1e-12);
}

TEST(RobustnessTest, NoiseOnlyCircuit)
{
    Circuit c(1);
    c.append(NoiseChannel::bitFlip(0, 0.3));
    KcSimulator kc(c);
    EXPECT_NEAR(kc.probability(0), 0.7, 1e-12);
    EXPECT_NEAR(kc.probability(1), 0.3, 1e-12);
}

TEST(RobustnessTest, IdentityGatesAddNothing)
{
    Circuit plain(2);
    plain.h(0).cnot(0, 1);
    Circuit padded(2);
    padded.i(0).h(0).i(1).cnot(0, 1).i(0).i(1);

    KcSimulator a(plain), b(padded);
    EXPECT_EQ(a.bayesNet().variables().size(), b.bayesNet().variables().size());
    for (std::uint64_t x = 0; x < 4; ++x)
        EXPECT_NEAR(a.probability(x), b.probability(x), 1e-12);
}

TEST(RobustnessTest, InverseGateByGate)
{
    Circuit c(3);
    c.h(0).s(1).t(2).rx(0, 0.7).ry(1, 1.1).rz(2, -0.4).cnot(0, 1);
    c.cz(1, 2).zz(0, 2, 0.9).crz(0, 2, 0.5).cphase(1, 0, -0.3);
    c.ccx(0, 1, 2).ccz(0, 1, 2).swap(0, 2).phase(1, 0.8);

    Circuit echo = c;
    echo.extend(testing::inverse(c));
    auto probs = testing::probabilitiesOf("sv", echo);
    EXPECT_NEAR(probs[0], 1.0, 1e-9);
}

TEST(RobustnessTest, LoschmidtEchoOnRandomCircuits)
{
    // C then C^-1 returns |0...0> exactly — checked on the KC pipeline.
    for (int seed = 0; seed < 5; ++seed) {
        Rng rng(9900 + seed);
        Circuit c = testing::randomCircuit(4, 12, rng);
        Circuit echo = c;
        echo.extend(testing::inverse(c));

        auto probs = testing::probabilitiesOf("sv", echo);
        EXPECT_NEAR(probs[0], 1.0, 1e-9) << "seed " << seed;

        KcSimulator kc(echo);
        EXPECT_NEAR(kc.probability(0), 1.0, 1e-9) << "seed " << seed;
    }
}

TEST(RobustnessTest, InverseRejectsNoise)
{
    EXPECT_THROW(testing::inverse(noisyBellCircuit()), std::invalid_argument);
}

TEST(RobustnessTest, DeepCircuitStaysExact)
{
    Rng rng(321);
    Circuit c = testing::randomCircuit(4, 120, rng);
    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("sv", c);
    auto dist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(dist[x], exact[x], 1e-8) << x;
}

TEST(RobustnessTest, ManyNoiseChannelsCompile)
{
    // 30 channels: probability() enumeration would be 2^30; amplitude
    // queries and Gibbs sampling must still work.
    Circuit c = ghzCircuit(4);
    Circuit noisy(4);
    for (const auto& op : c.operations())
        noisy.append(std::get<Gate>(op));
    for (int round = 0; round < 10; ++round)
        for (std::size_t q = 0; q < 3; ++q)
            noisy.append(NoiseChannel::phaseFlip(q, 0.01));

    KcSimulator kc(noisy);
    EXPECT_EQ(kc.bayesNet().noiseVars().size(), 30u);
    std::vector<std::size_t> nu(30, 0);
    // No noise fired: amplitude of |1111> is 1/sqrt(2) times the 30
    // no-event Kraus factors sqrt(1 - p).
    double expected = std::pow(std::sqrt(1.0 - 0.01), 30) / std::sqrt(2.0);
    EXPECT_NEAR(std::abs(kc.amplitude(0b1111, nu)), expected, 1e-12);
    Rng rng(5);
    auto samples = kc.sample(200, rng);
    for (auto s : samples)
        EXPECT_TRUE(s == 0b0000 || s == 0b1111);
}

TEST(RobustnessTest, RepeatedCompilationIsDeterministic)
{
    Circuit c = testing::ringQaoaCircuit(6, 0.5, 0.3);
    KcSimulator a(c), b(c);
    EXPECT_EQ(a.metrics().acNodes, b.metrics().acNodes);
    EXPECT_EQ(a.metrics().acEdges, b.metrics().acEdges);
    EXPECT_EQ(a.metrics().cnfClauses, b.metrics().cnfClauses);
}

TEST(RobustnessTest, EvidenceChurnKeepsEvaluatorConsistent)
{
    KcSimulator kc(noisyBellCircuit(0.36));
    // Interleave amplitude, probability and derivative queries, checking a
    // known value after each to catch stale-memoization bugs.
    double s = 1.0 / std::sqrt(2.0);
    for (int round = 0; round < 5; ++round) {
        EXPECT_NEAR(std::abs(kc.amplitude(0b11, {0})), 0.8 * s, 1e-12);
        EXPECT_NEAR(kc.probability(0b00), 0.5, 1e-12);
        kc.evaluator().computeDerivatives();
        EXPECT_NEAR(std::abs(kc.amplitude(0b00, {0})), s, 1e-12);
        EXPECT_NEAR(kc.probability(0b11), 0.5, 1e-12);
    }
}

} // namespace
} // namespace qkc
