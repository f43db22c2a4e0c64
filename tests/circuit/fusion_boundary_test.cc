/**
 * Where the default fusion pass may and may not carry gates across a noise
 * channel: a channel is a barrier on its own wires only, so pending gates
 * on untouched wires fuse across it, while no group touching the channel's
 * wires merges ops from both sides of it.
 */
#include "circuit/fusion.h"

#include <gtest/gtest.h>

#include <vector>

#include "circuit/noise.h"

namespace qkc {
namespace {

/** h(0); channel on the OTHER wire; h(0) — the cross-boundary bait. */
Circuit
baitCircuit()
{
    Circuit c(2);
    c.h(0);
    c.append(NoiseChannel::depolarizing(1, 0.02));
    c.h(0);
    return c;
}

TEST(FusionBoundaryTest, DefaultOptionsFuseAcrossAnUntouchedChannel)
{
    // The channel only touches q1, so the pass carries the pending H
    // across it and the H·H product drops as identity.
    const Circuit fused = fuseGates(baitCircuit());
    EXPECT_EQ(fused.gateCount(), 0u);
    EXPECT_EQ(fused.noiseCount(), 1u);
}

TEST(FusionBoundaryTest, NoGroupSpansAChannel)
{
    // Pendings on both wires and a 2q chain candidate interrupted by a
    // channel on one of the chain's wires.
    Circuit c(2);
    c.h(0).t(1).zz(0, 1, 0.4);
    c.append(NoiseChannel::phaseFlip(0, 0.01));
    c.s(1).cnot(0, 1).h(0);

    // Each fused gate is the product of source gates from one side of the
    // channel only: ZZ (H (x) T) before it; CNOT (I (x) S), then H, after.
    const Circuit fused = fuseGates(c);
    ASSERT_EQ(fused.size(), 4u);
    const auto& ops = fused.operations();
    const auto source = [&c](std::size_t i) {
        return std::get<Gate>(c.operations()[i]).unitary();
    };
    const auto expectGate = [&ops](std::size_t i,
                                   std::vector<std::size_t> wires,
                                   const Matrix& u) {
        const Gate* g = std::get_if<Gate>(&ops[i]);
        ASSERT_NE(g, nullptr) << "op " << i;
        EXPECT_EQ(g->qubits(), wires) << "op " << i;
        EXPECT_TRUE(g->unitary().approxEqual(u, 1e-12)) << "op " << i;
    };
    expectGate(0, {0, 1}, source(2) * source(0).kron(source(1)));
    ASSERT_TRUE(std::holds_alternative<NoiseChannel>(ops[1]));
    EXPECT_EQ(operandsOf(ops[1]), (std::vector<std::size_t>{0}));
    expectGate(2, {0, 1}, source(5) * Matrix::identity(2).kron(source(4)));
    expectGate(3, {0}, source(6));
}

} // namespace
} // namespace qkc
