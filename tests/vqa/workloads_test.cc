#include "vqa/workloads.h"

#include <gtest/gtest.h>

#include <cmath>

#include "testing/session_runs.h"

namespace qkc {
namespace {

TEST(QaoaMaxCutTest, CircuitShape)
{
    Rng rng(1);
    auto problem = QaoaMaxCut::randomRegular(8, 3, 2, rng);
    EXPECT_EQ(problem.numQubits(), 8u);
    EXPECT_EQ(problem.numParams(), 4u);
    Circuit c = problem.circuit({0.3, 0.2, 0.5, 0.4});
    // 8 H + 2 layers x (12 ZZ + 8 Rx).
    EXPECT_EQ(c.gateCount(), 8u + 2 * (12u + 8u));
}

TEST(QaoaMaxCutTest, RejectsWrongParamCount)
{
    Rng rng(1);
    auto problem = QaoaMaxCut::randomRegular(8, 3, 1, rng);
    EXPECT_THROW(problem.circuit({0.1}), std::invalid_argument);
}

TEST(QaoaMaxCutTest, CutOfOutcomeMatchesGraphCut)
{
    // Triangle graph (not regular-generated; direct construction).
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    QaoaMaxCut problem(g, 1);
    // Outcome |100>: vertex 0 on side 1: cuts edges (0,1) and (0,2).
    EXPECT_EQ(problem.cutOfOutcome(0b100), 2u);
    EXPECT_EQ(problem.cutOfOutcome(0b000), 0u);
    EXPECT_EQ(problem.cutOfOutcome(0b111), 0u);
}

TEST(QaoaMaxCutTest, ExpectedCutFromSamples)
{
    Graph g(2);
    g.addEdge(0, 1);
    QaoaMaxCut problem(g, 1);
    std::vector<std::uint64_t> samples{0b01, 0b01, 0b00, 0b10};
    EXPECT_DOUBLE_EQ(problem.expectedCut(samples), 0.75);
}

TEST(QaoaMaxCutTest, UniformSuperpositionGivesHalfEdges)
{
    // At gamma=beta=0 the circuit is H^n: every edge is cut w.p. 1/2.
    Rng rng(7);
    auto problem = QaoaMaxCut::randomRegular(6, 3, 1, rng);
    auto dist = testing::probabilitiesOf("sv", problem.circuit({0.0, 0.0}));
    double expected = problem.expectedCutExact(dist);
    EXPECT_NEAR(expected, problem.graph().numEdges() / 2.0, 1e-9);
}

TEST(QaoaMaxCutTest, OptimizedAnglesBeatUniform)
{
    // Known p=1 QAOA property: there exist angles strictly better than the
    // uniform superposition; check a coarse grid finds one.
    Rng rng(9);
    auto problem = QaoaMaxCut::randomRegular(8, 3, 1, rng);
    double uniform = problem.graph().numEdges() / 2.0;
    // With ZZ(theta) = exp(-i theta Z(x)Z / 2), the good p=1 angles sit at
    // negative gamma (equivalently positive gamma with negative beta).
    double best = 0.0;
    for (double gamma : {-0.4, -0.6, -0.7}) {
        for (double beta : {0.3, 0.4, 0.6}) {
            auto dist =
                testing::probabilitiesOf("sv", problem.circuit({gamma, beta}));
            best = std::max(best, problem.expectedCutExact(dist));
        }
    }
    EXPECT_GT(best, uniform + 0.2);
}

TEST(VqeIsingTest, CircuitShape)
{
    Rng rng(11);
    VqeIsing problem(2, 3, 2, rng);
    EXPECT_EQ(problem.numQubits(), 6u);
    EXPECT_EQ(problem.numParams(), 4u);
    Circuit c = problem.circuit({0.3, 0.2, 0.5, 0.4});
    EXPECT_EQ(c.numQubits(), 6u);
    EXPECT_GT(c.gateCount(), 6u);
}

TEST(VqeIsingTest, EnergyOfOutcomeSigns)
{
    Rng rng(13);
    VqeIsing problem(1, 2, 1, rng);  // two sites, one coupling J = +-1
    // For H = J s0 s1 + h0 s0 + h1 s1: aligned pairs sum to 2J, anti-aligned
    // to -2J, and the grand total cancels.
    double e00 = problem.energyOfOutcome(0b00);
    double e01 = problem.energyOfOutcome(0b01);
    double e10 = problem.energyOfOutcome(0b10);
    double e11 = problem.energyOfOutcome(0b11);
    EXPECT_NEAR(e00 + e01 + e10 + e11, 0.0, 1e-12);
    EXPECT_NEAR(std::abs(e00 + e11), 2.0, 1e-12);  // |2J| with J = +-1
    EXPECT_NEAR(e00 + e11, -(e01 + e10), 1e-12);
}

TEST(VqeIsingTest, GroundStateIsMinimum)
{
    Rng rng(17);
    VqeIsing problem(2, 2, 1, rng);
    double ground = problem.groundStateEnergy();
    for (std::uint64_t x = 0; x < 16; ++x)
        EXPECT_GE(problem.energyOfOutcome(x), ground - 1e-12);
}

TEST(VqeIsingTest, ExpectedEnergyExactVsSamples)
{
    Rng rng(19);
    VqeIsing problem(2, 2, 1, rng);
    // A distribution concentrated on outcome 5.
    std::vector<double> dist(16, 0.0);
    dist[5] = 1.0;
    EXPECT_NEAR(problem.expectedEnergyExact(dist),
                problem.energyOfOutcome(5), 1e-12);
    std::vector<std::uint64_t> samples(10, 5);
    EXPECT_NEAR(problem.expectedEnergy(samples), problem.energyOfOutcome(5),
                1e-12);
}

TEST(VqeIsingTest, DeterministicForSeed)
{
    Rng a(23), b(23);
    VqeIsing p1(2, 3, 1, a), p2(2, 3, 1, b);
    for (std::uint64_t x = 0; x < 64; ++x)
        EXPECT_DOUBLE_EQ(p1.energyOfOutcome(x), p2.energyOfOutcome(x));
}

} // namespace
} // namespace qkc
