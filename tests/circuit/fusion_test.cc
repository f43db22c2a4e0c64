#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include "circuit/noise.h"
#include "statevector/statevector_simulator.h"
#include "testing/oracles.h"
#include "testing/session_runs.h"
#include "util/rng.h"

namespace qkc {
namespace {

/** Simulates with fusion disabled — the unfused reference. */
StateVector
simulateRaw(const Circuit& c)
{
    ExecPolicy policy;
    policy.fuseGates = false;
    return testing::finalState(c, policy);
}

void
expectSameState(const Circuit& a, const Circuit& b, double tol = 1e-10)
{
    const StateVector sa = simulateRaw(a);
    const StateVector sb = simulateRaw(b);
    ASSERT_EQ(sa.dimension(), sb.dimension());
    for (std::uint64_t i = 0; i < sa.dimension(); ++i)
        ASSERT_TRUE(approxEqual(sa.amplitude(i), sb.amplitude(i), tol))
            << "index " << i;
}

TEST(FusionTest, MergesAdjacent1qGatesOnOneWire)
{
    Circuit c(2);
    c.h(0).t(0).s(0).h(1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 2u); // one fused gate per wire
    EXPECT_EQ(stats.merged1q, 2u);
    expectSameState(c, fused);
}

TEST(FusionTest, DropsIdentityProducts)
{
    Circuit c(1);
    c.h(0).h(0);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 0u);
    EXPECT_EQ(stats.droppedIdentity, 1u);

    Circuit c2(1);
    c2.rz(0, 0.8).rz(0, -0.8);
    EXPECT_EQ(fuseGates(c2).gateCount(), 0u);
}

TEST(FusionTest, FoldsPending1qIntoFollowing2qGate)
{
    Circuit c(2);
    c.h(0).t(1).cnot(0, 1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 1u);
    EXPECT_EQ(stats.foldedInto2q, 2u);
    expectSameState(c, fused);
}

TEST(FusionTest, ChainsAdjacent2qGatesOnSamePair)
{
    // zz;cnot on the same ordered pair — one 4x4 kernel, pendings folded
    // into their stages.
    Circuit c(2);
    c.h(0).zz(0, 1, 0.7).t(1).cnot(0, 1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 1u);
    EXPECT_EQ(stats.merged2q, 1u);
    EXPECT_EQ(stats.foldedInto2q, 2u);
    expectSameState(c, fused);
}

TEST(FusionTest, ChainDropsIdentityProduct)
{
    // Two identical CNOTs cancel; the whole chain is dropped.
    Circuit c(2);
    c.cnot(0, 1).cnot(0, 1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 0u);
    EXPECT_EQ(stats.merged2q, 1u);
    EXPECT_EQ(stats.droppedIdentity, 1u);
}

TEST(FusionTest, ChainBrokenByIntermediateOpOnEitherWire)
{
    // A Toffoli touching wire 1 closes the chain: the CNOTs must not merge
    // across it.
    Circuit c(3);
    c.cnot(0, 1).ccx(0, 1, 2).cnot(0, 1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(fused.gateCount(), 3u);
    EXPECT_EQ(stats.merged2q, 0u);
    expectSameState(c, fused);

    // A reversed-order pair also breaks the chain (different local basis).
    Circuit d(2);
    d.cnot(0, 1).cnot(1, 0);
    FusionStats dstats;
    Circuit dfused = fuseGates(d, &dstats);
    EXPECT_EQ(dfused.gateCount(), 2u);
    EXPECT_EQ(dstats.merged2q, 0u);
    expectSameState(d, dfused);
}

TEST(FusionTest, ChainSpansDisjointInterleavedOps)
{
    // Ops on other wires between two same-pair gates do not break the
    // chain; the fused kernel commutes past them exactly.
    Circuit c(4);
    c.zz(0, 1, 0.4).h(2).cnot(2, 3).t(3).cnot(0, 1);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(stats.merged2q, 1u);
    expectSameState(c, fused);
}

TEST(FusionTest, NoiseChannelsAreBarriers)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::depolarizing(0, 0.1));
    c.h(0);
    Circuit fused = fuseGates(c);
    // The two H's must NOT merge across the channel.
    EXPECT_EQ(fused.gateCount(), 2u);
    EXPECT_EQ(fused.noiseCount(), 1u);
}

TEST(FusionTest, NoisyDistributionsUnchangedByFusion)
{
    Circuit c(2);
    c.h(0).t(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.3));
    c.s(0).h(1).cnot(0, 1).h(0);
    c.append(NoiseChannel::depolarizing(1, 0.1));
    c.t(1);

    ExecPolicy unfusedPolicy;
    unfusedPolicy.fuseGates = false;
    ExecPolicy fusedPolicy;
    fusedPolicy.fuseGates = true;
    const auto exactUnfused =
        testing::noisyDistributionExhaustive(c, unfusedPolicy);
    const auto exactFused =
        testing::noisyDistributionExhaustive(c, fusedPolicy);
    ASSERT_EQ(exactUnfused.size(), exactFused.size());
    for (std::size_t i = 0; i < exactUnfused.size(); ++i)
        EXPECT_NEAR(exactUnfused[i], exactFused[i], 1e-10);
}

TEST(FusionTest, ThreeQubitGatesAreBarriers)
{
    Circuit c(3);
    c.h(0).t(1).ccx(0, 1, 2).s(0);
    FusionStats stats;
    Circuit fused = fuseGates(c, &stats);
    // h and t flushed before the Toffoli; s pending flushed at the end.
    EXPECT_EQ(fused.gateCount(), 4u);
    expectSameState(c, fused);
}

TEST(FusionTest, RandomizedCircuitsFusedEqualsUnfused)
{
    Rng rng(31337);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 3 + rng.below(3);
        Circuit c(n);
        for (int g = 0; g < 30; ++g) {
            const std::size_t a = rng.below(n);
            const std::size_t b = (a + 1 + rng.below(n - 1)) % n;
            switch (rng.below(7)) {
              case 0: c.h(a); break;
              case 1: c.t(a); break;
              case 2: c.rx(a, rng.uniform(-3.0, 3.0)); break;
              case 3: c.rz(a, rng.uniform(-3.0, 3.0)); break;
              case 4: c.cnot(a, b); break;
              case 5: c.zz(a, b, rng.uniform(-3.0, 3.0)); break;
              default: c.cz(a, b); break;
            }
        }
        FusionStats stats;
        Circuit fused = fuseGates(c, &stats);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_LE(fused.gateCount(), c.gateCount());
        expectSameState(c, fused);
    }
}

TEST(FusionTest, SimulatorFusionPolicyMatchesExplicitFusion)
{
    Circuit c(3);
    c.h(0).t(0).h(1).cnot(0, 1).rz(2, 0.4).h(2).cz(1, 2).s(1);
    ExecPolicy fusedPolicy; // fuseGates defaults to true
    const StateVector viaPolicy = testing::finalState(c, fusedPolicy);
    const StateVector raw = simulateRaw(c);
    for (std::uint64_t i = 0; i < raw.dimension(); ++i)
        ASSERT_TRUE(approxEqual(viaPolicy.amplitude(i), raw.amplitude(i),
                                1e-10));
}

} // namespace
} // namespace qkc
