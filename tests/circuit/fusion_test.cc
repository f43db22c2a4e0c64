#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include "circuit/noise.h"
#include "densitymatrix/densitymatrix_simulator.h"
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

/**
 * Neither dense engine rebinds a fused plan of `a` onto `b`, and a fresh
 * plan of `b` on either engine fuses exactly as fuseGates does and keeps the
 * raw circuit's state.
 */
void
expectRebindRefused(const Circuit& a, const Circuit& b)
{
    const ExecPolicy policy; // fuseGates defaults to true
    ExecutionPlan plan = planCircuit(a, policy);
    EXPECT_FALSE(tryRebindPlan(plan, b));
    DmExecutionPlan dmPlan = planCircuitDm(a, policy);
    EXPECT_FALSE(tryRebindDmPlan(dmPlan, b));

    for (const Circuit& fresh :
         {planCircuit(b, policy).circuit, planCircuitDm(b, policy).circuit}) {
        EXPECT_EQ(fresh.gateCount(), fuseGates(b).gateCount());
        expectSameState(b, fresh);
    }
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

TEST(FusionTest, ChainRecipeReplaysNewParameters)
{
    // An entangler-ladder chain planned once must replay on new angles.
    Circuit a(2);
    a.zz(0, 1, 0.3).rx(0, 0.5).zz(0, 1, 0.9);
    Circuit b(2);
    b.zz(0, 1, 1.4).rx(0, -0.6).zz(0, 1, 0.1);
    const FusionRecipe recipe = planFusion(a);
    EXPECT_EQ(recipe.stats.merged2q, 1u);
    auto viaRecipe = materializeFusion(recipe, b);
    ASSERT_TRUE(viaRecipe.has_value());
    expectSameState(b, *viaRecipe);

    // Replaying onto parameters whose chain product is the identity must
    // refuse (drop boundary crossed), same as the 1q case.
    Circuit ident(2);
    ident.zz(0, 1, 0.8).rx(0, 0.0).zz(0, 1, -0.8);
    EXPECT_FALSE(materializeFusion(recipe, ident).has_value());
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

TEST(FusionTest, RecipeMaterializesNewParameters)
{
    // Plan once, replay on a same-structure circuit with different angles:
    // the result must equal fusing the new circuit from scratch.
    Circuit a(3);
    a.h(0).rz(0, 0.3).cnot(0, 1).rx(1, 0.7).rz(2, 1.1).zz(1, 2, 0.5).h(2);
    Circuit b(3);
    b.h(0).rz(0, 1.9).cnot(0, 1).rx(1, -0.2).rz(2, 0.4).zz(1, 2, 2.2).h(2);

    const FusionRecipe recipe = planFusion(a);
    auto viaRecipe = materializeFusion(recipe, b);
    ASSERT_TRUE(viaRecipe.has_value());
    const Circuit direct = fuseGates(b);
    ASSERT_EQ(viaRecipe->size(), direct.size());
    expectSameState(b, *viaRecipe);
}

TEST(FusionTest, RecipeDetectsIdentityBoundaryCrossing)
{
    // H;H fuses to the identity and is dropped at plan time. Replaying the
    // recipe on H;T (same structure, different values) crosses the drop
    // boundary and must refuse rather than silently drop the product.
    Circuit a(1);
    a.h(0).h(0);
    Circuit b(1);
    b.h(0).t(0);

    const FusionRecipe recipe = planFusion(a);
    EXPECT_EQ(recipe.stats.droppedIdentity, 1u);
    EXPECT_FALSE(materializeFusion(recipe, b).has_value());

    // And the reverse: a kept product that becomes the identity.
    const FusionRecipe keepRecipe = planFusion(b);
    EXPECT_FALSE(materializeFusion(keepRecipe, a).has_value());
}

TEST(FusionTest, RecipeRefusesTrailingOps)
{
    // The recipe must cover the whole circuit: replaying it on a circuit
    // with extra trailing ops must refuse, not silently drop them.
    Circuit a(2);
    a.h(0).cnot(0, 1);
    Circuit b = a;
    b.x(1);
    const FusionRecipe recipe = planFusion(a);
    EXPECT_FALSE(materializeFusion(recipe, b).has_value());
    expectRebindRefused(a, b);
}

TEST(FusionTest, RecipeRefusesWireMismatch)
{
    // Same op kinds and arities but different operand wires: replaying the
    // recipe must refuse, not emit a fused gate on the recorded wires.
    Circuit a(2);
    a.rz(0, 0.3).rz(0, 0.4).cnot(0, 1);
    Circuit b(2);
    b.rz(1, 0.3).rz(1, 0.4).cnot(0, 1);
    EXPECT_FALSE(materializeFusion(planFusion(a), b).has_value());
    expectRebindRefused(a, b);
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
