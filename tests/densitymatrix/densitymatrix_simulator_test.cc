#include "densitymatrix/densitymatrix_simulator.h"

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "statevector/statevector_simulator.h"
#include "testing/algorithm_circuits.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(DensityMatrixSimulatorTest, IdealCircuitMatchesStateVector)
{
    // For noise-free circuits, diag(rho) must equal |psi|^2 elementwise.
    std::vector<Circuit> circuits{testing::bellCircuit(), ghzCircuit(4)};
    for (const Circuit& c : circuits) {
        auto svProbs = testing::finalState(c).probabilities();
        auto dmProbs = testing::finalRho(c).diagonalProbabilities();
        ASSERT_EQ(svProbs.size(), dmProbs.size());
        for (std::size_t i = 0; i < svProbs.size(); ++i)
            EXPECT_NEAR(svProbs[i], dmProbs[i], 1e-10);
    }
}

TEST(DensityMatrixSimulatorTest, MatchesExhaustiveEnumeration)
{
    // Density-matrix evolution and exhaustive Kraus enumeration are both
    // exact; they must agree on arbitrary noisy circuits.
    Circuit c = ghzCircuit(3).withNoiseAfterEachGate(NoiseKind::Depolarizing,
                                                     0.05);
    auto enumerated = testing::noisyDistributionExhaustive(c);
    auto viaRho = testing::finalRho(c).diagonalProbabilities();
    for (std::size_t i = 0; i < enumerated.size(); ++i)
        EXPECT_NEAR(enumerated[i], viaRho[i], 1e-9);
}

TEST(DensityMatrixSimulatorTest, MatchesEnumerationOnDampingChannels)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.3));
    c.cnot(0, 1);
    c.append(NoiseChannel::phaseDamping(1, 0.2));
    c.rx(1, 0.6);

    auto enumerated = testing::noisyDistributionExhaustive(c);
    auto viaRho = testing::finalRho(c).diagonalProbabilities();
    for (std::size_t i = 0; i < enumerated.size(); ++i)
        EXPECT_NEAR(enumerated[i], viaRho[i], 1e-9);
}

TEST(DensityMatrixSimulatorTest, TraceStaysOneThroughDeepNoisyCircuit)
{
    Circuit c = ghzCircuit(4).withNoiseAfterEachGate(NoiseKind::BitFlip, 0.02);
    auto rho = testing::finalRho(c);
    EXPECT_TRUE(approxEqual(rho.trace(), Complex{1.0}, 1e-9));
}

/** A parameterized noisy circuit for the plan rebind tests. */
Circuit
parameterized(double a, double b)
{
    Circuit c(3);
    c.h(0).rz(1, a).cnot(0, 1).zz(1, 2, b).rx(2, a + b);
    c.append(NoiseChannel::depolarizing(1, 0.03));
    return c;
}

void
expectSameRho(const DensityMatrix& x, const DensityMatrix& y)
{
    ASSERT_EQ(x.dimension(), y.dimension());
    for (std::uint64_t r = 0; r < x.dimension(); ++r)
        for (std::uint64_t cc = 0; cc < x.dimension(); ++cc) {
            EXPECT_EQ(x.at(r, cc).real(), y.at(r, cc).real());
            EXPECT_EQ(x.at(r, cc).imag(), y.at(r, cc).imag());
        }
}

TEST(DmExecutionPlanTest, PlannedExecutionMatchesDirectSimulation)
{
    const Circuit c = parameterized(0.4, -0.9);
    DensityMatrixSimulator sim;
    const DmExecutionPlan plan = planCircuitDm(c, sim.execPolicy());
    EXPECT_EQ(sim.simulatePlanned(plan).diagonalProbabilities(),
              testing::probabilitiesOf("dm", c));
}

TEST(DmExecutionPlanTest, PlannedExecutionIntoHeldMatrixResetsIt)
{
    const Circuit c = parameterized(0.4, -0.9);
    DensityMatrixSimulator sim;
    const DmExecutionPlan plan = planCircuitDm(c, sim.execPolicy());
    DensityMatrix rho(3);
    sim.simulatePlanned(plan, rho);
    sim.simulatePlanned(plan, rho); // starts again from |000><000|
    expectSameRho(rho, sim.simulatePlanned(plan));

    DensityMatrix wrongSize(2);
    EXPECT_THROW(sim.simulatePlanned(plan, wrongSize), std::invalid_argument);
}

TEST(DmExecutionPlanTest, RebindRefreshesValuesWithoutReclassification)
{
    // The benchmark's rebind shim plans the new binding afresh: executing
    // the rebound plan is bit-identical to planning from scratch.
    DensityMatrixSimulator sim;
    DmExecutionPlan plan = planCircuitDm(parameterized(0.4, -0.9),
                                         sim.execPolicy());
    const Circuit next = parameterized(-1.3, 0.2);
    ASSERT_TRUE(tryRebindDmPlan(plan, next));
    expectSameRho(sim.simulatePlanned(plan),
                  sim.simulatePlanned(planCircuitDm(next, sim.execPolicy())));
}

TEST(DmExecutionPlanTest, UnfusedPlanAlsoRebinds)
{
    ExecPolicy policy;
    policy.fuseGates = false;
    DensityMatrixSimulator sim(policy);
    DmExecutionPlan plan = planCircuitDm(parameterized(0.1, 0.2), policy);
    const Circuit next = parameterized(0.9, -0.4);
    ASSERT_TRUE(tryRebindDmPlan(plan, next));
    expectSameRho(sim.simulatePlanned(plan),
                  sim.simulatePlanned(planCircuitDm(next, policy)));
}

TEST(DensityMatrixSimulatorTest, SamplesFollowDiagonal)
{
    Rng rng(55);
    Circuit c = noisyBellCircuit(0.36);
    auto samples = testing::samplesOf("dm", c, 20000, rng);
    auto emp = empiricalDistribution(samples, 4);
    EXPECT_NEAR(emp[0], 0.5, 0.02);
    EXPECT_NEAR(emp[3], 0.5, 0.02);
}

} // namespace
} // namespace qkc
