#include "ac/kc_simulator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "bayesnet/variable_elimination.h"
#include "testing/session_runs.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

TEST(KcSimulatorTest, Table5NoisyBellUpwardPass)
{
    // The paper's Table 5: amplitudes per (noise event, outcome).
    KcSimulator kc(noisyBellCircuit(0.36));
    double s = 1.0 / std::sqrt(2.0);

    EXPECT_TRUE(approxEqual(kc.amplitude(0b00, {0}), Complex{s}));
    EXPECT_TRUE(approxEqual(kc.amplitude(0b11, {0}), Complex{0.8 * s}));
    EXPECT_TRUE(approxEqual(kc.amplitude(0b01, {0}), Complex{}));
    EXPECT_TRUE(approxEqual(kc.amplitude(0b10, {0}), Complex{}));
    // Kraus convention: +0.6/sqrt(2) where the paper's Ry construction
    // yields -0.6/sqrt(2); identical density matrix.
    EXPECT_NEAR(std::abs(kc.amplitude(0b11, {1})), 0.6 * s, 1e-12);
    EXPECT_TRUE(approxEqual(kc.amplitude(0b00, {1}), Complex{}));

    // Density matrix diagonal from summing |amplitude|^2 over noise events.
    EXPECT_NEAR(kc.probability(0b00), 0.5, 1e-12);
    EXPECT_NEAR(kc.probability(0b11), 0.5, 1e-12);
    EXPECT_NEAR(kc.probability(0b01), 0.0, 1e-12);
}

TEST(KcSimulatorTest, MetricsArePopulated)
{
    KcSimulator kc(noisyBellCircuit(0.36));
    auto m = kc.metrics();
    EXPECT_GT(m.bnNodes, 0u);
    EXPECT_GT(m.cnfVars, 0u);
    EXPECT_GT(m.cnfClauses, 0u);
    EXPECT_GT(m.acNodes, 0u);
    EXPECT_GT(m.acEdges, 0u);
    EXPECT_GT(m.acFileBytes, 0u);
    EXPECT_GE(m.cnfVars, m.cnfIndicatorVars);
}

class AlgorithmSuiteKcTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmSuiteKcTest, DistributionMatchesStateVector)
{
    // The artifact's validation list (appendix A.6.1): each benchmark
    // algorithm simulated by the KC backend must reproduce the state-vector
    // distribution exactly.
    std::vector<Circuit> suite{
        bellCircuit(),
        ghzCircuit(4),
        chshCircuit(0.0, M_PI / 4),
        teleportationCircuit(1.1),
        deutschJozsaCircuit(3, 0b101),
        bernsteinVaziraniCircuit(4, 0b1011),
        simonCircuit(3, 0b110),
        hiddenShiftCircuit(4, 0b1001),
        qftCircuit(3),
        groverCircuit(3, 0b101),
        shorOrderFindingCircuit(3, 7),
    };
    const Circuit& c = suite[static_cast<std::size_t>(GetParam())];

    KcSimulator kc(c);
    auto probs = testing::probabilitiesOf("sv", c);
    auto kcDist = kc.outcomeDistribution();
    ASSERT_EQ(kcDist.size(), probs.size());
    for (std::size_t x = 0; x < probs.size(); ++x)
        EXPECT_NEAR(kcDist[x], probs[x], 1e-9) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Suite, AlgorithmSuiteKcTest, ::testing::Range(0, 11));

TEST(KcSimulatorTest, NoisyDistributionMatchesDensityMatrix)
{
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.02);
    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("dm", c);
    auto kcDist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << "x=" << x;
}

TEST(KcSimulatorTest, MixedChannelTypesMatchDensityMatrix)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.25));
    c.cnot(0, 1);
    c.append(NoiseChannel::generalizedAmplitudeDamping(1, 0.2, 0.6));
    c.ry(1, 0.8);
    c.append(NoiseChannel::asymmetricDepolarizing(0, 0.02, 0.03, 0.04));

    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("dm", c);
    auto kcDist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << "x=" << x;
}

TEST(KcSimulatorTest, RefreshParamsMatchesRecompile)
{
    Circuit c1 = testing::ringQaoaCircuit(5, 0.3, 0.2);
    Circuit c2 = testing::ringQaoaCircuit(5, 1.1, 0.6);

    KcSimulator reused(c1);
    reused.refreshParams(c2);

    KcSimulator fresh(c2);
    auto amps = testing::finalState(c2).amplitudes();
    for (std::uint64_t x = 0; x < amps.size(); ++x) {
        EXPECT_TRUE(approxEqual(reused.amplitude(x), amps[x], 1e-9)) << x;
        EXPECT_TRUE(approxEqual(reused.amplitude(x), fresh.amplitude(x), 1e-9));
    }
}

TEST(KcSimulatorTest, RefreshIsCheaperThanFullEvaluation)
{
    // After a parameter refresh, only the dirty cone is recomputed.
    Circuit c1 = testing::ringQaoaCircuit(6, 0.3, 0.2);
    KcSimulator kc(c1);
    kc.amplitude(5);
    std::size_t fullCost = kc.evaluator().lastRecomputeCount();

    // Change a single gate angle.
    Circuit c2 = c1;
    auto idx = c2.parameterizedGateIndices();
    c2.setGateParam(idx[0], 0.77);
    kc.refreshParams(c2);
    kc.evaluator().evaluate();
    EXPECT_LT(kc.evaluator().lastRecomputeCount(), fullCost);
    (void)fullCost;
}

TEST(KcSimulatorTest, AmplitudeRejectsBadNoiseSize)
{
    KcSimulator kc(noisyBellCircuit(0.36));
    EXPECT_THROW(kc.amplitude(0, {0, 1}), std::invalid_argument);
}

TEST(KcSimulatorTest, OutcomeDistributionSumsToOne)
{
    for (int seed = 0; seed < 3; ++seed) {
        Rng rng(900 + seed);
        Circuit c = testing::randomCircuit(4, 12, rng);
        KcSimulator kc(c);
        auto dist = kc.outcomeDistribution();
        double total = 0.0;
        for (double p : dist)
            total += p;
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(KcSimulatorTest, VariableEliminationAgreesWithAc)
{
    Rng rng(404);
    Circuit c = testing::randomCircuit(3, 9, rng).withNoiseAfterEachGate(
        NoiseKind::PhaseDamping, 0.1);
    KcSimulator kc(c);
    VariableElimination ve(kc.bayesNet());
    auto veDist = ve.outcomeDistribution();
    auto acDist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < veDist.size(); ++x)
        EXPECT_NEAR(veDist[x], acDist[x], 1e-9) << x;
}

} // namespace
} // namespace qkc
