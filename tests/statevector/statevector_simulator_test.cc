#include "statevector/statevector_simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/chi_square.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(StateVectorSimulatorTest, BellDistribution)
{
    auto probs = testing::finalState(testing::bellCircuit()).probabilities();
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
    auto samples = testing::samplesOf("sv", testing::bellCircuit(), 20000, rng);
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

TEST(StateVectorSimulatorTest, LongTrajectoriesStayNormalizable)
{
    // A trajectory applies each Kraus pick unnormalized; the 5000
    // depolarizing picks here would shrink the squared norm far below the
    // smallest double (each keeps 0.7 or 0.1 of it) unless the state is
    // renormalized before it underflows.
    Circuit layers(3);
    for (int l = 0; l < 1000; ++l)
        layers.h(0).cnot(0, 1).cnot(1, 2);
    const Circuit c =
        layers.withNoiseAfterEachGate(NoiseKind::Depolarizing, 0.3);
    ASSERT_EQ(c.size(), 8000u);

    Rng rng(17);
    const std::vector<std::uint64_t> samples =
        testing::samplesOf("sv", c, 50, rng);
    ASSERT_EQ(samples.size(), 50u);
    testing::expectChiSquarePasses(samples, testing::probabilitiesOf("dm", c),
                                   "long depolarizing trajectory");
}

TEST(StateVectorSimulatorTest, ExhaustiveNoisyDistributionBell)
{
    // The paper's noisy Bell example keeps outcome probabilities 1/2, 1/2
    // (phase damping does not change populations).
    auto dist = testing::noisyDistributionExhaustive(noisyBellCircuit(0.36));
    EXPECT_NEAR(dist[0], 0.5, 1e-12);
    EXPECT_NEAR(dist[3], 0.5, 1e-12);
    EXPECT_NEAR(dist[1], 0.0, 1e-12);
}

TEST(StateVectorSimulatorTest, ExhaustiveMatchesTrajectoriesOnAmplitudeDamping)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.4));

    auto exact = testing::noisyDistributionExhaustive(c);

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
    auto dist = testing::noisyDistributionExhaustive(c);
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

// ---------------------------------------------------------------------------
// Sampling straight from the amplitudes
// ---------------------------------------------------------------------------

Circuit
ghzCircuit(std::size_t n)
{
    Circuit c(n);
    c.h(0);
    for (std::size_t q = 0; q + 1 < n; ++q)
        c.cnot(q, q + 1);
    return c;
}

TEST(StateVectorSamplerTest, RandomCircuitPassesChiSquare)
{
    // 10 qubits span several sampler chunks, so draws cross chunk
    // boundaries and resolve against chunk prefixes.
    static_assert((std::uint64_t{1} << 10) >
                  2 * StateVectorSimulator::kSampleChunk);
    Rng circuitRng(2024);
    const Circuit c = testing::randomCircuit(10, 80, circuitRng);
    const StateVector psi = testing::finalState(c);
    Rng rng(17);
    const auto samples = StateVectorSimulator::sampleFromState(psi, 200000,
                                                               rng);
    ASSERT_EQ(samples.size(), 200000u);
    testing::expectChiSquarePasses(samples, psi.probabilities(), "sv 10q");
}

TEST(StateVectorSamplerTest, DistributionSamplerIsTheAmplitudeSampler)
{
    // One routine: sampling |amp|^2 from the amplitudes or from the
    // probability vector draws the same outcomes.
    Rng circuitRng(5);
    const StateVector psi =
        testing::finalState(testing::randomCircuit(11, 60, circuitRng));
    Rng a(8);
    Rng b(8);
    EXPECT_EQ(StateVectorSimulator::sampleFromState(psi, 5000, a),
              StateVectorSimulator::sampleFromDistribution(
                  psi.probabilities(), 5000, b));
}

TEST(StateVectorSamplerTest, SamplesIdenticalAcrossThreadCounts)
{
    // 16 qubits: the chunk-sum pass fans out over several pool tasks.
    Rng circuitRng(77);
    const Circuit c = testing::randomCircuit(16, 60, circuitRng);
    Rng r1(4);
    Rng r4(4);
    const auto serial = testing::samplesOf("sv:threads=1", c, 5000, r1);
    const auto wide = testing::samplesOf("sv:threads=4", c, 5000, r4);
    EXPECT_EQ(serial, wide);

    // A fine-grained policy splits the same chunk sums differently.
    ExecPolicy fine;
    fine.threads = 4;
    fine.grain = 256;
    fine.serialThreshold = 0;
    StateVector psi = testing::finalState(c);
    Rng a(6);
    const auto coarse = StateVectorSimulator::sampleFromState(psi, 5000, a);
    psi.setExecPolicy(fine);
    Rng b(6);
    EXPECT_EQ(StateVectorSimulator::sampleFromState(psi, 5000, b), coarse);
}

TEST(StateVectorSamplerTest, GhzNeverSamplesOutsideItsSupport)
{
    // The weight sits in the first and last chunks; every chunk between
    // holds zero weight, and so do the last chunk's leading entries.
    for (std::size_t n : {3u, 10u, 13u}) {
        const StateVector psi = testing::finalState(ghzCircuit(n));
        const std::uint64_t last = (std::uint64_t{1} << n) - 1;
        Rng rng(n);
        std::size_t zeros = 0;
        for (std::uint64_t s :
             StateVectorSimulator::sampleFromState(psi, 20000, rng)) {
            ASSERT_TRUE(s == 0 || s == last) << n << "q drew " << s;
            zeros += s == 0;
        }
        EXPECT_NEAR(static_cast<double>(zeros) / 20000.0, 0.5, 0.02);
    }
}

TEST(StateVectorSamplerTest, NeverReturnsAZeroWeightOutcome)
{
    // Trailing zero weights: a draw that rounding puts at the total must
    // land on the last positive entry, not on the last index.
    std::vector<double> probs(3 * StateVectorSimulator::kSampleChunk, 0.0);
    probs[1] = 0.25;
    probs[StateVectorSimulator::kSampleChunk + 7] = 0.75;
    Rng rng(12);
    for (std::uint64_t s :
         StateVectorSimulator::sampleFromDistribution(probs, 10000, rng))
        ASSERT_GT(probs[s], 0.0) << s;
}

TEST(StateVectorSamplerTest, ManyShotsInOneChunk)
{
    // 12 qubits, H on the three least significant: all weight on outcomes
    // 0..7, inside the first chunk, so 10^5 draws resolve in one scan.
    Circuit c(12);
    for (std::size_t q = 9; q < 12; ++q)
        c.h(q);
    const StateVector psi = testing::finalState(c);
    Rng rng(21);
    const auto samples = StateVectorSimulator::sampleFromState(psi, 100000,
                                                               rng);
    ASSERT_EQ(samples.size(), 100000u);
    std::vector<double> counts(8, 0.0);
    for (std::uint64_t s : samples) {
        ASSERT_LT(s, 8u);
        counts[s] += 1.0;
    }
    for (double k : counts)
        EXPECT_NEAR(k / 100000.0, 0.125, 0.006);
}

TEST(StateVectorSamplerTest, ZeroShotsReturnAnEmptyPayload)
{
    Rng rng(3);
    const Rng before = rng;
    EXPECT_TRUE(
        testing::samplesOf("sv", testing::bellCircuit(), 0, rng).empty());
    EXPECT_TRUE(StateVectorSimulator::sampleFromState(
                    testing::finalState(testing::bellCircuit()), 0, rng)
                    .empty());
    Rng untouched = before;
    EXPECT_EQ(rng.next(), untouched.next()); // no draw consumed
}

TEST(StateVectorSamplerTest, ResetAndInPlaceRunsMatchAFreshState)
{
    Rng circuitRng(9);
    const Circuit a = testing::randomCircuit(8, 40, circuitRng);
    const Circuit b = testing::randomCircuit(8, 40, circuitRng);
    const Circuit wider = testing::randomCircuit(9, 40, circuitRng);
    const StateVectorSimulator sim;

    StateVector state = sim.simulatePlanned(planCircuit(a, {}));
    sim.simulatePlanned(planCircuit(b, {}), state); // reset in place
    EXPECT_EQ(state.amplitudes(), testing::finalState(b).amplitudes());
    const Complex* buffer = state.data();
    sim.simulatePlanned(planCircuit(a, {}), state);
    EXPECT_EQ(state.data(), buffer) << "same qubit count reallocated";
    EXPECT_EQ(state.amplitudes(), testing::finalState(a).amplitudes());

    sim.simulatePlanned(planCircuit(wider, {}), state); // reallocates
    EXPECT_EQ(state.numQubits(), 9u);
    EXPECT_EQ(state.amplitudes(), testing::finalState(wider).amplitudes());

    state.reset();
    EXPECT_EQ(state.amplitude(0), Complex(1.0, 0.0));
    EXPECT_EQ(state.norm(), 1.0);
}

} // namespace
} // namespace qkc
