/**
 * DdSimulator tests: ideal circuits must match the state-vector simulator
 * exactly; noisy circuits run Born-rule trajectories whose sampled
 * distribution must pass chi-square checks against the exhaustively
 * enumerated noisy distribution (including the paper's running noisy Bell
 * example with its non-unitary phase-damping channel).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "algorithms/algorithms.h"
#include "dd/dd_simulator.h"
#include "statevector/statevector_simulator.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

double
chiSquare(const std::vector<std::uint64_t>& samples,
          const std::vector<double>& dist)
{
    std::vector<double> counts(dist.size(), 0.0);
    for (std::uint64_t s : samples)
        counts[s] += 1.0;
    const double n = static_cast<double>(samples.size());
    double chi2 = 0.0;
    for (std::size_t x = 0; x < dist.size(); ++x) {
        const double expected = n * dist[x];
        if (expected < 1e-9) {
            EXPECT_EQ(counts[x], 0.0) << "outcome " << x << " impossible";
            continue;
        }
        const double diff = counts[x] - expected;
        chi2 += diff * diff / expected;
    }
    return chi2;
}

TEST(DdSimulatorTest, IdealAmplitudesMatchStateVector)
{
    for (std::uint64_t seed : {201u, 202u, 203u}) {
        Rng rng(seed);
        Circuit c = testing::randomCircuit(4, 14, rng, true);

        StateVector exact = testing::finalState(c);
        DdSimulator dd;
        VEdge state = dd.simulate(c);

        for (std::uint64_t x = 0; x < exact.dimension(); ++x) {
            EXPECT_TRUE(approxEqual(dd.package().amplitude(state, x),
                                    exact.amplitude(x), 1e-9))
                << "seed=" << seed << " x=" << x;
        }
    }
}

TEST(DdSimulatorTest, DenseAndSwapCircuitsMatchStateVector)
{
    Rng rng(204);
    Circuit c = testing::randomDenseCircuit(4, 12, rng);

    auto exact = testing::finalState(c).probabilities();
    auto ddDist = testing::probabilitiesOf("dd", c);
    ASSERT_EQ(ddDist.size(), exact.size());
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(ddDist[x], exact[x], 1e-9) << "x=" << x;
}

TEST(DdSimulatorTest, SimulateRejectsNoise)
{
    Circuit c = noisyBellCircuit(0.3);
    DdSimulator dd;
    EXPECT_THROW(dd.simulate(c), std::invalid_argument);
    EXPECT_THROW(testing::probabilitiesOf("dd", c), std::invalid_argument);
}

TEST(DdSimulatorTest, SamplingIsDeterministicGivenSeed)
{
    Circuit c = ghzCircuit(5);
    Rng rngA(42), rngB(42);
    EXPECT_EQ(testing::samplesOf("dd", c, 64, rngA),
              testing::samplesOf("dd", c, 64, rngB));

    Circuit noisy = c.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.02);
    Rng nRngA(43), nRngB(43);
    EXPECT_EQ(testing::samplesOf("dd", noisy, 32, nRngA),
              testing::samplesOf("dd", noisy, 32, nRngB));
}

TEST(DdSimulatorTest, IdealGhzSamplesFollowBornRule)
{
    Circuit c = ghzCircuit(6);
    Rng rng(7);
    auto samples = testing::samplesOf("dd", c, 4000, rng);

    std::map<std::uint64_t, std::size_t> counts;
    for (auto s : samples)
        ++counts[s];
    ASSERT_EQ(counts.size(), 2u); // only |0...0> and |1...1>
    const double c0 = static_cast<double>(counts[0]);
    const double c1 = static_cast<double>(counts[(1u << 6) - 1]);
    // chi-square with 1 dof at alpha = 0.001 -> 10.83.
    const double expected = 2000.0;
    const double chi2 = (c0 - expected) * (c0 - expected) / expected +
                        (c1 - expected) * (c1 - expected) / expected;
    EXPECT_LT(chi2, 10.83);
}

TEST(DdSimulatorTest, NoisyBellTrajectoriesPassChiSquare)
{
    // The paper's running example: Bell preparation with phase damping
    // (gamma = 0.36) between H and CNOT. Phase damping is a genuine channel
    // (non-unitary Kraus operators), so this exercises the Born-weighted
    // branch selection, not just mixture-of-unitaries sampling.
    Circuit c = noisyBellCircuit(0.36);
    auto exact = testing::noisyDistributionExhaustive(c);

    Rng rng(11);
    auto samples = testing::samplesOf("dd", c, 2000, rng);

    // 3 free outcomes -> chi-square at alpha = 0.001 is 16.27.
    EXPECT_LT(chiSquare(samples, exact), 16.27);
}

TEST(DdSimulatorTest, MixtureNoiseTrajectoriesPassChiSquare)
{
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.05);
    auto exact = testing::noisyDistributionExhaustive(c);

    Rng rng(13);
    auto samples = testing::samplesOf("dd", c, 2000, rng);

    // 7 free outcomes -> chi-square at alpha = 0.001 is 24.32.
    EXPECT_LT(chiSquare(samples, exact), 24.32);
}

TEST(DdSimulatorTest, TwoQubitChannelTrajectoriesPassChiSquare)
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.2));
    auto exact = testing::noisyDistributionExhaustive(c);

    Rng rng(17);
    auto samples = testing::samplesOf("dd", c, 2000, rng);
    EXPECT_LT(chiSquare(samples, exact), 16.27);
}

} // namespace
} // namespace qkc
