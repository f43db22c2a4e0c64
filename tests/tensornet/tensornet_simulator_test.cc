#include "tensornet/tensornet_simulator.h"

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(TensorNetworkSimulatorTest, BellAmplitudes)
{
    TensorNetworkSimulator tn;
    double s = 1.0 / std::sqrt(2.0);
    Circuit c = testing::bellCircuit();
    EXPECT_TRUE(approxEqual(tn.amplitude(c, 0), Complex{s}));
    EXPECT_TRUE(approxEqual(tn.amplitude(c, 3), Complex{s}));
    EXPECT_TRUE(approxEqual(tn.amplitude(c, 1), Complex{}));
}

TEST(TensorNetworkSimulatorTest, RejectsNoisyCircuits)
{
    TensorNetworkSimulator tn;
    EXPECT_THROW(tn.amplitude(noisyBellCircuit(), 0), std::invalid_argument);
}

class TnVsStateVectorTest : public ::testing::TestWithParam<int> {};

TEST_P(TnVsStateVectorTest, RandomCircuitAmplitudes)
{
    Rng rng(600 + GetParam());
    Circuit c = testing::randomCircuit(4, 14, rng);
    TensorNetworkSimulator tn;
    auto amps = testing::finalState(c).amplitudes();
    for (std::uint64_t x = 0; x < amps.size(); ++x)
        EXPECT_TRUE(approxEqual(tn.amplitude(c, x), amps[x], 1e-9)) << x;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TnVsStateVectorTest, ::testing::Range(0, 6));

TEST(TensorNetworkSimulatorTest, PrefixProbabilities)
{
    TnSampler tn(ghzCircuit(3));
    // GHZ: first qubit is 0 or 1 with probability 1/2 each.
    EXPECT_NEAR(tn.prefixProbability(0, 1), 0.5, 1e-9);
    EXPECT_NEAR(tn.prefixProbability(1, 1), 0.5, 1e-9);
    // Prefix 01 impossible; 00 has probability 1/2.
    EXPECT_NEAR(tn.prefixProbability(0b00, 2), 0.5, 1e-9);
    EXPECT_NEAR(tn.prefixProbability(0b01, 2), 0.0, 1e-9);
    EXPECT_NEAR(tn.prefixProbability(0b11, 2), 0.5, 1e-9);
}

TEST(TensorNetworkSimulatorTest, PrefixProbabilityMarginalizesCorrectly)
{
    Rng rng(61);
    Circuit c = testing::randomCircuit(3, 10, rng);
    TnSampler tn(c);
    auto probs = testing::finalState(c).probabilities();
    // P(q0 = 0) from the state vector.
    double p0 = probs[0] + probs[1] + probs[2] + probs[3];
    EXPECT_NEAR(tn.prefixProbability(0, 1), p0, 1e-9);
    // P(q0q1 = 10).
    EXPECT_NEAR(tn.prefixProbability(0b10, 2), probs[4] + probs[5], 1e-9);
}

TEST(TensorNetworkSimulatorTest, SamplingMatchesDistribution)
{
    Circuit c = testing::ringQaoaCircuit(4, 0.7, 0.4);
    auto exact = testing::finalState(c).probabilities();

    Rng rng(67);
    auto samples = testing::samplesOf("tn", c, 4000, rng);
    auto emp = empiricalDistribution(samples, exact.size());
    EXPECT_LT(totalVariation(exact, emp), 0.05);
}

TEST(TensorNetworkSimulatorTest, SamplerReusesPlans)
{
    Circuit c = ghzCircuit(4);
    TnSampler sampler(c);
    Rng rng(71);
    auto samples = sampler.sample(500, rng);
    std::size_t zeros = 0, ones = 0;
    for (auto s : samples) {
        if (s == 0)
            ++zeros;
        if (s == 15)
            ++ones;
    }
    EXPECT_EQ(zeros + ones, samples.size());
    EXPECT_GT(zeros, 150u);
    EXPECT_GT(ones, 150u);
}

TEST(TensorNetworkSimulatorTest, DistributionSumsToOne)
{
    Rng rng(73);
    Circuit c = testing::randomCircuit(3, 8, rng);
    auto dist = testing::probabilitiesOf("tn", c);
    double total = 0.0;
    for (double p : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

} // namespace
} // namespace qkc
