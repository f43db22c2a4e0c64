#include "bayesnet/bayes_net.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/algorithms.h"
#include "testing/algorithm_circuits.h"
#include "testing/test_circuits.h"

namespace qkc {
namespace {

TEST(BayesNetTest, BellStructureMatchesFigure2)
{
    // Figure 2c: q0m0, q1m0 initial; q0m1 after H; q1m1 after CNOT (the
    // paper labels it q1m3 with global moments; we count per qubit).
    auto bn = circuitToBayesNet(testing::bellCircuit());
    ASSERT_EQ(bn.variables().size(), 4u);
    EXPECT_EQ(bn.variable(0).name, "q0m0");
    EXPECT_EQ(bn.variable(0).role, BnVarRole::InitialState);
    EXPECT_EQ(bn.variable(2).name, "q0m1");
    EXPECT_EQ(bn.variable(2).role, BnVarRole::FinalState);
    EXPECT_EQ(bn.finalVars().size(), 2u);
    EXPECT_TRUE(bn.noiseVars().empty());
    // Potentials: two initial pins, the H CAT, the CNOT CAT.
    EXPECT_EQ(bn.potentials().size(), 4u);
}

TEST(BayesNetTest, HadamardCatIsTransposeOfUnitary)
{
    // Table 2a: all entries magnitude 1/sqrt(2); (in=1,out=1) negative.
    Circuit c(1);
    c.h(0);
    auto bn = circuitToBayesNet(c);
    const BnPotential* hPot = nullptr;
    for (const auto& p : bn.potentials())
        if (p.vars.size() == 2)
            hPot = &p;
    ASSERT_NE(hPot, nullptr);
    ASSERT_EQ(hPot->entries.size(), 4u);
    double s = 1.0 / std::sqrt(2.0);
    // Entries indexed (in, out): 00, 01, 10, 11.
    for (int e = 0; e < 4; ++e) {
        ASSERT_EQ(hPot->entries[e].kind, BnEntryKind::Parameter);
        Complex v = bn.paramValues()[hPot->entries[e].paramId];
        EXPECT_NEAR(v.real(), e == 3 ? -s : s, 1e-12);
    }
    // The three +1/sqrt(2) entries share one parameter (local structure).
    EXPECT_EQ(hPot->entries[0].paramId, hPot->entries[1].paramId);
    EXPECT_EQ(hPot->entries[0].paramId, hPot->entries[2].paramId);
    EXPECT_NE(hPot->entries[0].paramId, hPot->entries[3].paramId);
}

TEST(BayesNetTest, CnotIsPureLogic)
{
    // Table 2c / Table 3: CNOT's deterministic CAT needs no weights.
    auto bn = circuitToBayesNet(testing::bellCircuit());
    const BnPotential* cnotPot = nullptr;
    for (const auto& p : bn.potentials())
        if (p.vars.size() == 3)
            cnotPot = &p;
    ASSERT_NE(cnotPot, nullptr);
    for (const auto& e : cnotPot->entries)
        EXPECT_NE(e.kind, BnEntryKind::Parameter);
}

TEST(BayesNetTest, PhaseDampingMatchesTable2b)
{
    // Phase damping is diagonal: no new state variable, a potential over
    // (q0m1, rv) with entries 1, 0, sqrt(1-gamma), sqrt(gamma).
    auto bn = circuitToBayesNet(noisyBellCircuit(0.36));
    ASSERT_EQ(bn.noiseVars().size(), 1u);
    const BnVariable& rv = bn.variable(bn.noiseVars()[0]);
    EXPECT_EQ(rv.cardinality, 2u);
    EXPECT_EQ(rv.role, BnVarRole::NoiseRv);
    EXPECT_EQ(rv.name, "q0m2rv");

    const BnPotential* pot = nullptr;
    for (const auto& p : bn.potentials()) {
        for (BnVarId v : p.vars)
            if (v == bn.noiseVars()[0])
                pot = &p;
    }
    ASSERT_NE(pot, nullptr);
    ASSERT_EQ(pot->vars.size(), 2u);  // (state, rv): state passes through
    ASSERT_EQ(pot->entries.size(), 4u);
    // (in=0, rv=0) = 1; (in=0, rv=1) = 0; (in=1, rv=0) = 0.8; (in=1,rv=1)=0.6.
    EXPECT_EQ(pot->entries[0].kind, BnEntryKind::StructuralOne);
    EXPECT_EQ(pot->entries[1].kind, BnEntryKind::StructuralZero);
    ASSERT_EQ(pot->entries[2].kind, BnEntryKind::Parameter);
    ASSERT_EQ(pot->entries[3].kind, BnEntryKind::Parameter);
    EXPECT_NEAR(bn.paramValues()[pot->entries[2].paramId].real(), 0.8, 1e-12);
    EXPECT_NEAR(bn.paramValues()[pot->entries[3].paramId].real(), 0.6, 1e-12);
}

TEST(BayesNetTest, AmplitudeDampingAddsStateVariable)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::amplitudeDamping(0, 0.3));
    auto bn = circuitToBayesNet(c);
    // q0m0, q0m1 (H), q0m2rv, q0m2 (damped state).
    EXPECT_EQ(bn.variables().size(), 4u);
    EXPECT_EQ(bn.noiseVars().size(), 1u);
    // The final var is the damped state, not the pre-noise state.
    EXPECT_EQ(bn.variable(bn.finalVars()[0]).name, "q0m2");
}

TEST(BayesNetTest, DepolarizingHasFourValuedNoiseRv)
{
    Circuit c(1);
    c.h(0);
    c.append(NoiseChannel::depolarizing(0, 0.05));
    auto bn = circuitToBayesNet(c);
    EXPECT_EQ(bn.variable(bn.noiseVars()[0]).cardinality, 4u);
}

TEST(BayesNetTest, DiagonalGatesAddNoVariables)
{
    Circuit c(2);
    c.h(0).h(1);
    std::size_t before = circuitToBayesNet(c).variables().size();
    c.cz(0, 1).zz(0, 1, 0.4).rz(0, 0.3).s(1).t(0);
    auto bn = circuitToBayesNet(c);
    EXPECT_EQ(bn.variables().size(), before);
}

TEST(BayesNetTest, SwapRelabelsWires)
{
    Circuit c(2);
    c.h(0).swap(0, 1);
    auto bn = circuitToBayesNet(c);
    // No new variables or potentials from the SWAP.
    EXPECT_EQ(bn.variables().size(), 3u);
    // Qubit 1's final variable is the H output (originally qubit 0's).
    EXPECT_EQ(bn.variable(bn.finalVars()[1]).name, "q0m1");
    EXPECT_EQ(bn.variable(bn.finalVars()[0]).name, "q1m0");
}

TEST(BayesNetTest, ZeroAngleRotationIsNotStructural)
{
    // Rz(0) == I numerically, but a variational sweep may change it; the
    // probe at a second angle must keep the entries parametric.
    Circuit c(1);
    c.h(0).rz(0, 0.0);
    auto bn = circuitToBayesNet(c);
    const BnPotential* rzPot = nullptr;
    for (const auto& p : bn.potentials())
        if (p.vars.size() == 1 && p.sourceOp == 1)
            rzPot = &p;
    ASSERT_NE(rzPot, nullptr);
    EXPECT_EQ(rzPot->entries[0].kind, BnEntryKind::Parameter);
    EXPECT_EQ(rzPot->entries[1].kind, BnEntryKind::Parameter);
}

TEST(BayesNetTest, RefreshParamsUpdatesValues)
{
    Circuit c = testing::ringQaoaCircuit(4, 0.3, 0.2);
    auto bn = circuitToBayesNet(c);
    auto before = bn.paramValues();

    Circuit c2 = testing::ringQaoaCircuit(4, 0.9, 0.7);
    bn.refreshParams(c2);
    auto after = bn.paramValues();
    ASSERT_EQ(before.size(), after.size());
    bool changed = false;
    for (std::size_t i = 0; i < before.size(); ++i)
        changed = changed || std::abs(before[i] - after[i]) > 1e-9;
    EXPECT_TRUE(changed);
}

TEST(BayesNetTest, RefreshParamsRejectsStructureChange)
{
    Circuit c = testing::ringQaoaCircuit(4, 0.3, 0.2);
    auto bn = circuitToBayesNet(c);
    Circuit other(4);
    other.h(0).h(1).h(2).h(3);
    EXPECT_THROW(bn.refreshParams(other), std::invalid_argument);
}

TEST(BayesNetTest, QueryVarsAreFinalsThenNoise)
{
    auto bn = circuitToBayesNet(noisyBellCircuit(0.36));
    auto q = bn.queryVars();
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(bn.variable(q[0]).role, BnVarRole::FinalState);
    EXPECT_EQ(bn.variable(q[1]).role, BnVarRole::FinalState);
    EXPECT_EQ(bn.variable(q[2]).role, BnVarRole::NoiseRv);
}

TEST(BayesNetTest, SummaryMentionsVariables)
{
    auto bn = circuitToBayesNet(testing::bellCircuit());
    std::string s = bn.summary();
    EXPECT_NE(s.find("q0m0"), std::string::npos);
    EXPECT_NE(s.find("[final]"), std::string::npos);
}

TEST(BayesNetTest, DenseTwoQubitGateChainRule)
{
    Rng rng(3);
    Circuit c(2);
    Gate ra(GateKind::Ry, {0}, 0.7);
    Gate rb(GateKind::Rx, {0}, 1.3);
    Matrix u = ra.unitary().kron(rb.unitary()) *
               Gate(GateKind::CNOT, {0, 1}).unitary();
    c.append(Gate::custom({0, 1}, u, "dense"));
    auto bn = circuitToBayesNet(c);
    // 2 initial + 2 outputs; one joint potential over 4 vars (16 entries).
    EXPECT_EQ(bn.variables().size(), 4u);
    bool found = false;
    for (const auto& p : bn.potentials())
        found = found || p.entries.size() == 16;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace qkc
