#include "statevector/statevector_simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algorithms/algorithms.h"
#include "testing/session_runs.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(StateVectorSimulatorTest, BellDistribution)
{
    auto probs = testing::finalState(bellCircuit()).probabilities();
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[3], 0.5, 1e-12);
    EXPECT_NEAR(probs[1], 0.0, 1e-12);
    EXPECT_NEAR(probs[2], 0.0, 1e-12);
}

TEST(StateVectorSimulatorTest, RejectsNoisyCircuit)
{
    EXPECT_THROW(testing::finalState(noisyBellCircuit()),
                 std::invalid_argument);
}

TEST(StateVectorSimulatorTest, SamplingMatchesDistribution)
{
    Rng rng(99);
    auto samples = testing::samplesOf("sv", bellCircuit(), 20000, rng);
    auto emp = empiricalDistribution(samples, 4);
    EXPECT_NEAR(emp[0], 0.5, 0.02);
    EXPECT_NEAR(emp[3], 0.5, 0.02);
    EXPECT_NEAR(emp[1] + emp[2], 0.0, 1e-12);
}

TEST(StateVectorSimulatorTest, TrajectoryAveragesToChannelResult)
{
    // Bit flip with p = 0.3 after X: qubit ends in |1> w.p. 0.7.
    Circuit c(1);
    c.x(0);
    c.append(NoiseChannel::bitFlip(0, 0.3));

    Rng rng(123);
    auto samples = testing::samplesOf("sv", c, 20000, rng);
    auto emp = empiricalDistribution(samples, 2);
    EXPECT_NEAR(emp[1], 0.7, 0.02);
}

TEST(StateVectorSimulatorTest, ThrowingTrajectoryReachesTheCaller)
{
    // A NaN angle makes every Born weight NaN, so Rng::categorical throws
    // inside each trajectory. The lane fan-out must rethrow that to the
    // caller rather than let it escape a pool worker, and leave the pool
    // serving the next fan-out.
    Circuit c(2);
    c.rx(0, std::numeric_limits<double>::quiet_NaN());
    c.append(NoiseChannel::bitFlip(0, 0.1));
    Rng rng(3);
    EXPECT_THROW(testing::samplesOf("sv:threads=4", c, 64, rng),
                 std::invalid_argument);

    c.setGateParam(0, 0.3);
    EXPECT_EQ(testing::samplesOf("sv:threads=4", c, 64, rng).size(), 64u);
}

TEST(StateVectorSimulatorTest, ExhaustiveNoisyDistributionBell)
{
    // The paper's noisy Bell example keeps outcome probabilities 1/2, 1/2
    // (phase damping does not change populations).
    StateVectorSimulator sim;
    auto dist = sim.noisyDistributionExhaustive(noisyBellCircuit(0.36));
    EXPECT_NEAR(dist[0], 0.5, 1e-12);
    EXPECT_NEAR(dist[3], 0.5, 1e-12);
    EXPECT_NEAR(dist[1], 0.0, 1e-12);
}

TEST(StateVectorSimulatorTest, ExhaustiveMatchesTrajectoriesOnAmplitudeDamping)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.4));

    StateVectorSimulator sim;
    auto exact = sim.noisyDistributionExhaustive(c);

    Rng rng(7);
    auto samples = testing::samplesOf("sv", c, 30000, rng);
    auto emp = empiricalDistribution(samples, 2);
    EXPECT_NEAR(emp[0], exact[0], 0.02);
    EXPECT_NEAR(emp[1], exact[1], 0.02);
}

TEST(StateVectorSimulatorTest, ExhaustiveDistributionSumsToOne)
{
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.05);
    StateVectorSimulator sim;
    auto dist = sim.noisyDistributionExhaustive(c);
    double total = 0.0;
    for (double p : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(StateVectorSimulatorTest, SampleFromDistributionEdgeCases)
{
    Rng rng(1);
    std::vector<double> point{0.0, 1.0, 0.0};
    auto s = StateVectorSimulator::sampleFromDistribution(point, 100, rng);
    for (auto v : s)
        EXPECT_EQ(v, 1u);
}

} // namespace
} // namespace qkc
