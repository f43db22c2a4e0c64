/**
 * Diagonal runs and paired flushes in the fusion pass: a stretch of
 * diagonal gates with at least two two-qubit gates is kept as one group,
 * the pendings on its wires are flushed ahead of it two at a time as one
 * kron gate, a circuit without a run fuses as before, and a pending X or Y
 * is never folded into a CNOT or CZ.
 */
#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include <vector>

#include "statevector/statevector_simulator.h"
#include "testing/session_runs.h"
#include "util/rng.h"
#include "vqa/workloads.h"

namespace qkc {
namespace {

using Kind = FusionRecipe::Group::Kind;

void
expectSameState(const Circuit& a, const Circuit& b, double tol = 1e-12)
{
    ExecPolicy raw;
    raw.fuseGates = false;
    const StateVector sa = testing::finalState(a, raw);
    const StateVector sb = testing::finalState(b, raw);
    ASSERT_EQ(sa.dimension(), sb.dimension());
    for (std::uint64_t i = 0; i < sa.dimension(); ++i)
        ASSERT_TRUE(approxEqual(sa.amplitude(i), sb.amplitude(i), tol))
            << "index " << i;
}

std::vector<Kind>
kindsOf(const FusionRecipe& recipe)
{
    std::vector<Kind> kinds;
    for (const auto& g : recipe.groups)
        kinds.push_back(g.kind);
    return kinds;
}

std::size_t
countKind(const FusionRecipe& recipe, Kind kind)
{
    std::size_t count = 0;
    for (const auto& g : recipe.groups)
        count += g.kind == kind;
    return count;
}

Circuit
qaoa(std::size_t n, std::size_t layers, std::uint64_t seed,
     const std::vector<double>& angles)
{
    Rng rng(seed);
    return QaoaMaxCut::randomRegular(n, 3, layers, rng).circuit(angles);
}

TEST(FusionRunTest, VqeIsingLayerIsOneRun)
{
    // 3x3 grid: 9 H, then 12 ZZ and 9 Rz (one run), then 9 Rx.
    Rng rng(4);
    const VqeIsing vqe(3, 3, 1, rng);
    const Circuit c = vqe.circuit({0.7, -0.4});
    const FusionRecipe recipe = planFusion(c);
    ASSERT_EQ(recipe.stats.diagonalRuns, 1u);
    std::vector<std::size_t> expected;
    for (std::size_t i = 9; i < 9 + 12 + 9; ++i)
        expected.push_back(i);
    for (const auto& g : recipe.groups) {
        if (g.kind == Kind::DiagonalRun) {
            EXPECT_EQ(g.sources, expected);
        }
    }
    expectSameState(c, fuseGates(c));
}

TEST(FusionRunTest, FlushesAheadOfARunAndAtTheEndGoOutInPairs)
{
    // 6 qubits, p = 1: three H pairs, the run of 9 ZZ, three Rx pairs.
    const Circuit c = qaoa(6, 1, 11, {0.6, -0.3});
    const FusionRecipe recipe = planFusion(c);
    EXPECT_EQ(kindsOf(recipe),
              (std::vector<Kind>{Kind::Kron1q, Kind::Kron1q, Kind::Kron1q,
                                 Kind::DiagonalRun, Kind::Kron1q,
                                 Kind::Kron1q, Kind::Kron1q}));
    EXPECT_EQ(recipe.stats.kronPairs, 6u);
    EXPECT_EQ(recipe.groups[0].qubits, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(recipe.groups[2].qubits, (std::vector<std::size_t>{4, 5}));
    FusionStats stats;
    const Circuit fused = fuseGates(c, &stats);
    EXPECT_EQ(stats.gatesOut, 3u + 9u + 3u);
    expectSameState(c, fused);
}

TEST(FusionRunTest, RunIsABarrierOnItsOwnWiresOnly)
{
    // H on wire 3 commutes past the run and is flushed alone at the end;
    // an odd count ahead of the run leaves one product on its own.
    Circuit c(4);
    c.h(3).h(0).h(1).rx(2, 0.3).zz(0, 1, 0.4).cz(1, 2).t(2);
    const FusionRecipe recipe = planFusion(c);
    ASSERT_EQ(kindsOf(recipe),
              (std::vector<Kind>{Kind::Kron1q, Kind::Fused1q,
                                 Kind::DiagonalRun, Kind::Fused1q}));
    EXPECT_EQ(recipe.groups[0].qubits, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(recipe.groups[1].qubits, (std::vector<std::size_t>{2}));
    EXPECT_EQ(recipe.groups[2].sources,
              (std::vector<std::size_t>{4, 5, 6}));
    EXPECT_EQ(recipe.groups[3].qubits, (std::vector<std::size_t>{3}));
    expectSameState(c, fuseGates(c));
}

TEST(FusionRunTest, WithoutARunNothingIsPaired)
{
    // One two-qubit diagonal gate among phases is no run: it fuses per
    // wire, and the trailing products flush one wire at a time.
    Circuit c(4);
    c.h(0).h(1).h(2).h(3).t(0).zz(0, 1, 0.3).s(1).cnot(2, 3);
    c.rx(0, 0.2).rx(1, 0.4).rx(2, 0.6).rx(3, 0.8);
    const FusionRecipe recipe = planFusion(c);
    EXPECT_EQ(recipe.stats.diagonalRuns, 0u);
    EXPECT_EQ(countKind(recipe, Kind::Kron1q), 0u);
    EXPECT_EQ(countKind(recipe, Kind::Fused1q), 4u);
    expectSameState(c, fuseGates(c));
}

TEST(FusionRunTest, RecipeReplaysRunsAndPairsOnNewAngles)
{
    const Circuit a = qaoa(8, 2, 5, {0.4, -0.6, 1.1, 0.2});
    const Circuit b = qaoa(8, 2, 5, {-0.9, 0.35, 0.15, -1.3});
    const FusionRecipe recipe = planFusion(a);
    EXPECT_EQ(recipe.stats.diagonalRuns, 2u);
    const auto viaRecipe = materializeFusion(recipe, b);
    ASSERT_TRUE(viaRecipe.has_value());
    EXPECT_EQ(viaRecipe->size(), fuseGates(b).size());
    expectSameState(b, *viaRecipe);

    // beta = 0 makes every mixer Rx the identity: the paired products
    // cross the drop boundary, so the recipe refuses.
    EXPECT_FALSE(
        materializeFusion(recipe, qaoa(8, 2, 5, {0.4, 0.0, 1.1, 0.2}))
            .has_value());

    // A run gate on other wires is another structure.
    Circuit c(4);
    c.h(0).h(1).zz(0, 1, 0.3).zz(1, 2, 0.5).rx(0, 0.2);
    Circuit moved(4);
    moved.h(0).h(1).zz(0, 1, 0.3).zz(1, 3, 0.5).rx(0, 0.2);
    EXPECT_FALSE(materializeFusion(planFusion(c), moved).has_value());
    // ... and so is a non-diagonal gate in a run's slot.
    Circuit swapped(4);
    swapped.h(0).h(1).zz(0, 1, 0.3).cnot(1, 2).rx(0, 0.2);
    EXPECT_FALSE(materializeFusion(planFusion(c), swapped).has_value());
}

TEST(FusionRunTest, XOrYIsNotFoldedIntoCnotOrCz)
{
    Circuit c(5);
    c.x(0).cnot(0, 1);
    const FusionRecipe recipe = planFusion(c);
    EXPECT_EQ(kindsOf(recipe),
              (std::vector<Kind>{Kind::Fused1q, Kind::Passthrough}));
    EXPECT_EQ(recipe.stats.foldedInto2q, 0u);
    expectSameState(c, fuseGates(c));

    // Y on the target of a CZ, next to an H that still folds.
    Circuit d(3);
    d.h(0).y(1).y(1).x(1).cz(0, 1);
    const FusionRecipe dRecipe = planFusion(d);
    EXPECT_EQ(kindsOf(dRecipe),
              (std::vector<Kind>{Kind::Fused1q, Kind::Fused2q}));
    EXPECT_EQ(dRecipe.stats.foldedInto2q, 1u);
    expectSameState(d, fuseGates(d));

    // An X between two CNOTs on one pair ends the chain.
    Circuit e(3);
    e.cnot(0, 1).x(0).cnot(0, 1);
    FusionStats stats;
    const Circuit fused = fuseGates(e, &stats);
    EXPECT_EQ(stats.merged2q, 0u);
    EXPECT_EQ(fused.gateCount(), 3u);
    expectSameState(e, fused);
}

} // namespace
} // namespace qkc
