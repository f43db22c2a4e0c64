#include <gtest/gtest.h>

#include "ac/kc_simulator.h"
#include "algorithms/algorithms.h"
#include "circuit/qasm.h"
#include "statevector/statevector_simulator.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "testing/variable_elimination.h"
#include "util/stats.h"

namespace qkc {
namespace {

TEST(TwoQubitNoiseTest, KrausCompleteness)
{
    auto ch = NoiseChannel::twoQubitDepolarizing(0, 1, 0.1);
    ASSERT_EQ(ch.krausOperators().size(), 16u);
    Matrix acc = Matrix::zero(4, 4);
    for (const Matrix& e : ch.krausOperators())
        acc = acc + e.adjoint() * e;
    EXPECT_TRUE(acc.approxEqual(Matrix::identity(4), 1e-9));
    EXPECT_TRUE(ch.isMixture());
    EXPECT_EQ(ch.arity(), 2u);
}

TEST(TwoQubitNoiseTest, RejectsBadArgs)
{
    EXPECT_THROW(NoiseChannel::twoQubitDepolarizing(0, 0, 0.1),
                 std::invalid_argument);
    EXPECT_THROW(NoiseChannel::twoQubitDepolarizing(0, 1, 1.5),
                 std::invalid_argument);
}

TEST(TwoQubitNoiseTest, FullStrengthIsMaximallyMixing)
{
    // p = 15/16 makes all 16 Paulis equally likely: rho -> I/4.
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 15.0 / 16.0));
    auto dist = testing::probabilitiesOf("dm", c);
    for (double p : dist)
        EXPECT_NEAR(p, 0.25, 1e-9);
}

TEST(TwoQubitNoiseTest, DensityMatrixMatchesTrajectoriesAndEnumeration)
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.3));
    c.ry(1, 0.7);

    auto exact = testing::probabilitiesOf("dm", c);
    auto enumerated = testing::noisyDistributionExhaustive(c);
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(exact[x], enumerated[x], 1e-9) << x;

    Rng rng(5);
    auto samples = testing::samplesOf("sv", c, 20000, rng);
    auto emp = empiricalDistribution(samples, exact.size());
    EXPECT_LT(totalVariation(exact, emp), 0.03);
}

TEST(TwoQubitNoiseTest, KnowledgeCompilationMatchesDensityMatrix)
{
    Circuit c(3);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.1));
    c.cnot(1, 2);
    c.append(NoiseChannel::twoQubitDepolarizing(1, 2, 0.05));

    KcSimulator kc(c);
    // The noise RVs have 16 values each.
    for (BnVarId v : kc.bayesNet().noiseVars())
        EXPECT_EQ(kc.bayesNet().variable(v).cardinality, 16u);

    auto exact = testing::probabilitiesOf("dm", c);
    auto kcDist = kc.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(kcDist[x], exact[x], 1e-9) << x;
}

TEST(TwoQubitNoiseTest, VariableEliminationAgrees)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.2));
    c.cnot(0, 1);

    KcSimulator kc(c);
    testing::VariableElimination ve(kc.bayesNet());
    auto exact = testing::probabilitiesOf("dm", c);
    auto veDist = ve.outcomeDistribution();
    for (std::size_t x = 0; x < exact.size(); ++x)
        EXPECT_NEAR(veDist[x], exact[x], 1e-9) << x;
}

TEST(TwoQubitNoiseTest, GibbsSamplerHandles16ValuedNoiseRv)
{
    Circuit c(2);
    c.h(0).cnot(0, 1);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.2));

    KcSimulator kc(c);
    auto exact = testing::probabilitiesOf("dm", c);

    Rng rng(9);
    GibbsOptions options;
    options.burnIn = 200;
    auto samples = kc.sample(6000, rng, options);
    auto emp = empiricalDistribution(samples, exact.size());
    EXPECT_LT(totalVariation(exact, emp), 0.06);
}

TEST(TwoQubitNoiseTest, QasmRoundTrip)
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.12));
    c.cnot(0, 1);

    Circuit back = parseQasm(toQasm(c));
    ASSERT_EQ(back.noiseCount(), 1u);
    auto a = testing::probabilitiesOf("dm", c);
    auto b = testing::probabilitiesOf("dm", back);
    for (std::size_t x = 0; x < a.size(); ++x)
        EXPECT_NEAR(a[x], b[x], 1e-9) << x;
}

TEST(TwoQubitNoiseTest, CorrelatedDiffersFromIndependent)
{
    // Correlated two-qubit depolarizing is NOT two independent one-qubit
    // depolarizings: compare output distributions on an entangled state.
    Circuit correlated(2), independent(2);
    correlated.h(0).cnot(0, 1);
    correlated.append(NoiseChannel::twoQubitDepolarizing(0, 1, 0.4));
    independent.h(0).cnot(0, 1);
    independent.append(NoiseChannel::depolarizing(0, 0.4));
    independent.append(NoiseChannel::depolarizing(1, 0.4));

    auto rhoA = testing::finalRho(correlated);
    auto rhoB = testing::finalRho(independent);
    EXPECT_FALSE(testing::toMatrix(rhoA).approxEqual(testing::toMatrix(rhoB), 1e-6));
}

} // namespace
} // namespace qkc
